"""``tools/rss_trace.py`` runs a command in-process and traces its memory by call."""

import importlib.util
import re
from pathlib import Path

import pytest

from advgame import tensor as T

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_trace.py"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status (Linux)")
def test_a_tiny_training_run_exits_0_and_names_its_phases(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("rss_trace", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    backward = T.backward
    args = ["--", "train-sgd", "--classes", "3", "--per-class", "4", "--outer-iterations", "1", "--inner-steps", "2",
            "--batch-size", "4", "--attack-iterations", "1", "--eval-attack-iterations", "1",
            "--attack-batch-size", "4", "--eval-sample-size", "6", "--output-dir", str(tmp_path / "run")]
    assert tool.main(args) == 0
    err = capsys.readouterr().err
    assert "tensor.backward enter VmRSS" in err and "  tensor.sgd_momentum_step exit VmRSS" in err
    assert "model.save_checkpoint exit VmRSS" in err
    assert re.search(r"^tensor\.backward enter VmRSS [\d.]+ MB minflt \d+$", err, re.M)
    assert re.search(r"^tensor\.backward exit VmRSS [\d.]+ MB minflt \d+ \(\+\d+ in the call\)$", err, re.M)
    assert re.fullmatch(r"peak VmHWM [\d.]+ MB, reached .+, minflt \d+", err.splitlines()[-1])
    assert T.backward is backward
    assert (tmp_path / "run" / "checkpoint_0001.ckpt").exists()
