"""Check that two source trees write byte-identical artifacts on the desk set.

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``advgame`` package (a
checkout's ``src``).  Both trees run the same desk set of commands, each
command in its own process with BLAS pinned to one thread, into a temporary
directory per tree, and then ``tools/f64_game.py``, which writes the float64
parameters and last perturbation of four in-process desk games as ``.f64``
files under ``f64/``: the ``.ckpt`` and ``.pert`` payloads are f32, so only
these show a float64 change below f32 precision.  Every ``.ckpt``,
``.pert``, ``.f64``, ``metrics.csv`` and ``eval.csv`` one tree writes is
compared with the file of the same relative path from the other.  Exit 0
when all of them are identical; exit 1, listing the files that differ or
exist on one side only, or the command that did not exit 0; exit 2 when an
argument holds no ``advgame`` package.

The desk set:

* ``train-fp``: approximate/universal, exact/patch, exact targeted patch at
  lambda 0.5, float32 at side 8 (the conv loop path), and the paper's VGG
  over two outer iterations, so the second mixes two views through
  batchnorm;
* ``train-sgd``: the tiny model and the paper's VGG;
* ``train-at``: the tiny model, and the paper's VGG at one PGD step, whose
  infer-mode forwards read the batchnorm running buffers that the mixture's
  train-mode forwards then advance;
* ``attack`` and ``eval`` on the tiny SGD checkpoint, each with a universal
  and a (targeted, lambda 0.5) patch perturbation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

F64_GAME = Path(__file__).resolve().parent / "f64_game.py"

DESK = ["--seed", "3", "--per-class", "30", "--outer-iterations", "3", "--inner-steps", "40",
        "--batch-size", "32", "--attack-iterations", "30", "--eval-attack-iterations", "30",
        "--attack-batch-size", "32", "--eval-sample-size", "200"]
VGG = ["--model", "paper-vgg", "--image-side", "32", "--seed", "3", "--per-class", "2",
       "--outer-iterations", "1", "--inner-steps", "6", "--batch-size", "4", "--attack-iterations", "3",
       "--eval-attack-iterations", "3", "--attack-batch-size", "4", "--eval-sample-size", "20"]
TARGETED = ["--patch-target-class", "2", "--patch-lambda", "0.5"]
SGD_CHECKPOINT = "sgd/checkpoint_0003.ckpt"

# (output directory, arguments); attack and eval read the tiny SGD run, so it comes before them
COMMANDS = [
    ("fp-universal", ["train-fp", *DESK, "--fp-mode", "approximate", "--attack-kind", "universal"]),
    ("fp-exact-patch", ["train-fp", *DESK, "--fp-mode", "exact", "--attack-kind", "patch"]),
    ("fp-exact-targeted", ["train-fp", *DESK, "--fp-mode", "exact", "--attack-kind", "patch", *TARGETED]),
    ("fp-f32-side8", ["train-fp", *DESK, "--precision", "float32", "--image-side", "8", "--fp-mode", "exact",
                      "--attack-kind", "patch"]),
    ("sgd", ["train-sgd", *DESK]),
    ("sgd-vgg", ["train-sgd", *VGG]),
    ("at", ["train-at", *DESK, "--pgd-steps", "2"]),
    ("fp-vgg", ["train-fp", *VGG, "--outer-iterations", "2"]),
    ("at-vgg", ["train-at", *VGG, "--pgd-steps", "1"]),
    ("attack-universal", ["attack", *DESK, "--checkpoint", SGD_CHECKPOINT, "--attack-kind", "universal"]),
    ("attack-patch", ["attack", *DESK, "--checkpoint", SGD_CHECKPOINT, "--attack-kind", "patch", *TARGETED]),
    ("eval-universal", ["eval", *DESK, "--checkpoint-dir", "sgd", "--attack-kind", "universal"]),
    ("eval-patch", ["eval", *DESK, "--checkpoint-dir", "sgd", "--attack-kind", "patch"]),
]


def is_artifact(path: Path) -> bool:
    return path.suffix in (".ckpt", ".pert", ".f64") or path.name in ("metrics.csv", "eval.csv")


def run_desk_set(src: Path, work: Path) -> list[str]:
    """Run every command of the desk set and the float64 games from ``src``
    inside ``work``; returns one line per command that did not exit 0."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("ADVGAME_OUTPUT_DIR", None)  # older trees let it override --output-dir
    failures = []
    runs = [(out_dir, ["-m", "advgame.cli", *args, "--output-dir", out_dir]) for out_dir, args in COMMANDS]
    for out_dir, args in [*runs, ("f64", [str(F64_GAME), "f64"])]:
        done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"{src}: {out_dir} exited {done.returncode}: {done.stderr.strip()}")
    return failures


def artifacts(work: Path) -> dict[str, bytes]:
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file() and is_artifact(p)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "advgame" / "__init__.py").is_file():
            print(f"{tree} holds no advgame package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        works = [Path(tmp) / side for side in ("parent", "change")]
        failures = []
        for tree, work in zip(trees, works):
            work.mkdir()
            failures += run_desk_set(tree, work)
        parent, change = (artifacts(work) for work in works)
    differ = sorted(name for name in parent.keys() | change.keys() if parent.get(name) != change.get(name))
    for line in failures:
        print(f"FAILED {line}")
    for name in differ:
        side = "" if name in parent and name in change else " (one side only)"
        print(f"DIFFERS {name}{side}")
    total = len(parent.keys() | change.keys())
    print(f"{total - len(differ)} of {total} artifacts identical")
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
