"""``tools/same_bytes.py`` runs a desk set from two source trees and compares what they write."""

import importlib.util
import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TOOL = SRC.parent / "tools" / "same_bytes.py"

# one outer iteration of SGD on a tiny set: a checkpoint, metrics.csv and the command's stdout
TINY = [("sgd", ["train-sgd", "--seed", "3", "--classes", "3", "--per-class", "4", "--outer-iterations", "1",
                 "--inner-steps", "2", "--batch-size", "4", "--attack-iterations", "1",
                 "--eval-attack-iterations", "1", "--attack-batch-size", "4", "--eval-sample-size", "6"])]


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMANDS", TINY)
    return module


def test_a_tree_against_itself_is_identical(tool, capsys):
    assert tool.main([str(SRC), str(SRC)]) == 0
    assert capsys.readouterr().out.splitlines() == ["3 of 3 artifacts identical"]


def test_a_tree_whose_data_differ_names_the_checkpoint(tool, tmp_path, capsys):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    data = changed / "advgame" / "data.py"
    text = data.read_text()
    assert text.count("noise: float = 0.06,") == 1
    data.write_text(text.replace("noise: float = 0.06,", "noise: float = 0.07,"))
    assert tool.main([str(SRC), str(changed)]) == 1
    assert "DIFFERS sgd/checkpoint_0001.ckpt" in capsys.readouterr().out.splitlines()


def test_a_directory_without_the_package_is_2(tool, tmp_path, capsys):
    assert tool.main([str(SRC), str(tmp_path)]) == 2
    assert "holds no advgame package" in capsys.readouterr().err
