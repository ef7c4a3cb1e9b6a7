"""Self-tests of the benchmark: names, the declared metric set, span maths.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import all_metric_names, check_counts, percentile, slope, tail_percentile  # noqa: E402
from spans import Recorder, nearest_ancestor, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# names that later changes to the program refer to
REQUIRED_WORKLOADS = ["fp-universal", "fp-exact-patch", "sgd-vgg"]
REQUIRED_END_TO_END = ["setup_s", "run_s", "peak_rss_mb", "clean_acc", "adv_acc", "ok_frac"]
REQUIRED_PER_LAYER = [
    "tensor.conv2d.calls", "tensor.conv2d.self_s", "tensor.backward.calls", "tensor.backward.self_s",
    "tensor.batchnorm.self_s", "tensor.sgd_momentum_step.self_s",
    "model.forward.calls", "model.forward.self_s", "model.forwards_per_inner_step",
    "model.forwards_per_attack_step", "model.pool_expected_loss.self_s", "model.save_checkpoint.s",
    "model.save_checkpoint.bytes",
    "data.materialize.calls", "data.materialize.self_s", "data.overlay_patch_op.self_s",
    "attack.step.calls", "attack.step_ms.p50", "attack.learn.s", "attack.save_perturbation.s",
    "attack.step_ms.slope_per_snapshot",
    "train.inner_step_ms.p50", "train.inner_step_ms.ptail", "train.inner_step_ms.n",
    "train.inner_phase_s", "train.attack_phase_s", "train.eval_phase_s",
    "train.classifier_pool_loss.self_s", "train.inner_step_ms.slope_per_view",
    "evaluation.accuracy.s", "evaluation.perturbed_accuracy.s", "evaluation.write_csv.s",
    "cli.load_splits.s", "cli.artifacts.s", "cli.artifacts.bytes", "trace.overhead_s",
]
OP_TABLE = re.compile(r"tensor\.op\.(conv2d|batchnorm|softmax_cross_entropy)\.[0-9x_sf]+\.(fwd_ms|bwd_ms|gflop)")


def _names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_names_are_well_formed_and_unique():
    for section in ("workloads", "end_to_end", "per_layer"):
        names = _names(section)
        assert len(names) == len(set(names)), section
        for name in names:
            assert NAME.fullmatch(name), name


def test_required_names_are_declared():
    assert _names("workloads") == REQUIRED_WORKLOADS
    assert _names("end_to_end") == REQUIRED_END_TO_END
    assert set(REQUIRED_PER_LAYER) <= set(_names("per_layer"))
    ops = [n for n in _names("per_layer") if n.startswith("tensor.op.")]
    assert ops and all(OP_TABLE.fullmatch(n) for n in ops)
    assert {n.split(".")[2] for n in ops} == {"conv2d", "batchnorm", "softmax_cross_entropy"}


def test_spec_matches_code():
    assert _names("workloads") == list(WORKLOADS)
    assert [(e["name"], e["unit"]) for e in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(e["name"], e["unit"]) for e in SPEC["per_layer"]] == all_metric_names()
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union [1, 6] is covered once
        ["c", 9.0, 12.0, 0],     # runs past its parent: only [9, 10] counts
        ["leaf", 7.0, 7.5, -1],
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 0.5])


def test_recorder_nesting_and_ancestors():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [s[0] for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert self_times(rec.spans) == pytest.approx([3.0, 1.0, 1.0])
    assert nearest_ancestor(rec.spans, {"outer"}) == [0, 0, 0]


def test_recorder_closes_span_on_error():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0][2] >= rec.spans[0][1]
    assert rec.wrap("after", lambda: None)() is None
    assert rec.spans[1][3] == -1


def test_tail_percentile_has_ten_samples_beyond():
    assert tail_percentile(300) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(2000) == 99.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(19) == 50.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert slope([1, 2, 3], [2.0, 4.0, 6.0]) == pytest.approx(2.0)
    assert slope([1, 1], [2.0, 5.0]) == 0.0


def _game_spans(w, drop_forward_at=None):
    """Spans of a game with the forward counts the code must produce."""
    spans = [["train.fp_train", 0.0, 1.0, -1]]

    def add(name, parent):
        spans.append([name, 0.0, 0.0, parent])
        return len(spans) - 1

    for n in range(1, w.outer + 1):
        for _ in range(w.inner):
            loss = add("train.classifier_pool_loss", 0)
            for _ in range(n):
                add("model.forward", loss)
        learn = add("attack.learn", 0)
        for _ in range(2):
            step = add("attack.step", learn)
            for _ in range(n + 1 if w.exact else 1):
                add("model.forward", step)
    if drop_forward_at is not None:
        forwards = [i for i, s in enumerate(spans) if s[0] == "model.forward"]
        spans[forwards[drop_forward_at]][0] = "tensor.relu"
    return spans


@pytest.mark.parametrize("name", ["fp-universal", "fp-exact-patch"])
def test_exact_counts(name):
    w = WORKLOADS[name]
    assert check_counts(w, _game_spans(w)) == []
    assert check_counts(w, _game_spans(w, drop_forward_at=0)) != []
    assert check_counts(w, _game_spans(w, drop_forward_at=-1)) != []


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "fp-universal",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
