"""``tools/rss_trace.py`` runs a command in-process and traces its memory by call."""

import importlib.util
import io
import mmap
import re
from pathlib import Path

import pytest

from advgame import tensor as T

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_trace.py"

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status (Linux)")


def load_tool():
    spec = importlib.util.spec_from_file_location("rss_trace", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tiny_training_run_exits_0_and_names_its_phases(tmp_path, capsys):
    tool = load_tool()
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
    # two training steps and the attack's: backward is called again, so a repeated call is named
    last = re.fullmatch(r"peak VmHWM [\d.]+ MB, reached .+, minflt \d+, most in a repeated call \d+ \((.+)\)",
                        err.splitlines()[-1])
    assert last and last[1] != "none"
    assert T.backward is backward
    assert (tmp_path / "run" / "checkpoint_0001.ckpt").exists()


def test_the_most_faults_of_a_repeated_call_are_named_and_first_calls_do_not_count():
    tool = load_tool()
    tracer = tool.Tracer(io.StringIO())

    def touch(pages):
        # a fresh anonymous mapping faults each page it writes in at least once
        if pages:
            with mmap.mmap(-1, pages * mmap.PAGESIZE) as buf:
                for page in range(pages):
                    buf[page * mmap.PAGESIZE] = 1

    first_only, repeated = tracer.wrap("first_only", touch), tracer.wrap("repeated", touch)
    first_only(256)
    repeated(256)
    assert (tracer.refaults, tracer.refaulted_in) == (0, "none")
    repeated(0)
    assert (tracer.refaults, tracer.refaulted_in) == (0, "repeated")
    repeated(64)
    assert tracer.refaults > 0 and tracer.refaulted_in == "repeated"
    # the first call inside another traced call starts a new chain, as an attack's first backward does
    outer = tracer.wrap("outer", repeated)
    before = (tracer.refaults, tracer.refaulted_in)
    outer(1024)
    assert (tracer.refaults, tracer.refaulted_in) == before
    outer(1024)
    assert tracer.refaults >= 1024 and tracer.refaulted_in in ("repeated", "outer")
