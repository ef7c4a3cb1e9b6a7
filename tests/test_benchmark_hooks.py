"""The benchmark's traced child still finds every name it wraps in ``advgame``.

``perfbench/child.py --trace`` wraps public functions where their callers
look them up (``attack`` imports ``pool_expected_loss`` and
``overlay_patch_op`` by name; ``cli`` calls ``train.fp_train`` through the
module) and then checks exact forward counts per inner and attack step.
A tiny game in each mode, and tiny plain SGD, run through it here, and the
run directory passes the benchmark's own artifact check, so renaming or
inlining one of those names, or losing an iteration's output, fails a test
instead of the benchmark.  Likewise one entry
of each op kind in ``perfbench/opbench.py``'s op table is timed through the
``advgame.tensor`` API it calls.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advgame
from advgame import tensor as T

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = Path(advgame.__file__).resolve().parent.parent

TINY_GAME = dict(per_class=6, outer_iterations=2, inner_steps=2, batch_size=8,
                 attack_iterations=2, eval_attack_iterations=2, attack_batch_size=8, eval_sample_size=20)


@pytest.mark.parametrize("base,command", [
    ("fp-universal", "train-fp"), ("fp-exact-patch", "train-fp"), ("fp-universal", "train-sgd"),
], ids=["fp-universal", "fp-exact-patch", "fp-universal-sgd"])
def test_traced_child_counts(base, command, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    from layers import check_counts
    from workloads import WORKLOADS

    w = WORKLOADS[base]
    w = dataclasses.replace(w, command=command, config={**w.config, **TINY_GAME})
    trace, run_dir = tmp_path / "trace.json", tmp_path / "run"
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "--src", str(SRC),
           "--entry", str(run_dir / "entry.txt"), "--trace", str(trace),
           "--", *w.cli_args(1, str(run_dir))]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert check_counts(w, spans) == []
    assert any(s[0] == "model.pool_expected_loss" for s in spans)
    assert any(s[0] == f"train.{command.removeprefix('train-')}_train" for s in spans)
    child = run.Child(1, run_dir)
    run.check_outputs(w, child)
    assert child.problems == []


def test_opbench_times_one_entry_of_each_op(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from opbench import time_entry
    from workloads import op_table

    first = {}
    for entry in op_table():
        first.setdefault(entry["op"], entry)
    assert sorted(first) == ["batchnorm", "conv2d", "softmax_cross_entropy"]
    dtype = T.get_default_dtype()
    try:
        for entry in first.values():
            result = time_entry(T, np, entry)
            assert all(np.isfinite(result[key]) and result[key] > 0 for key in ("fwd_ms", "bwd_ms")), result
    finally:
        T.set_default_dtype(dtype)
