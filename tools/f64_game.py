"""Write the float64 end state of five desk games, for ``tools/same_bytes.py``.

    PYTHONPATH=SRC python3 tools/f64_game.py OUT_DIR

Plays, in this process and in float64, desk ``fp_train`` in exact mode with
a patch, untargeted and targeted (class 2, lambda 0.5, the attacker's
fixed-class term), and in approximate mode with a universal perturbation,
``sgd_train`` and ``at_train``.  For each game it writes every final
parameter's float64 bytes as ``OUT_DIR/<game>/<parameter>.f64`` and the last
perturbation's ``xi`` as ``OUT_DIR/<game>/xi.f64``.  Checkpoints and
``.pert`` payloads are f32, so these files are what shows a float64 change
below f32 precision.

``TrainConfig`` is built by keyword, from fields that trees with and
without a separate evaluation-attack field both have, so such trees can be
compared with each other.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from advgame import data as D
from advgame import model as M
from advgame import tensor as T
from advgame import train as TR
from advgame.attack import PatchAttackConfig, PgdConfig, UniversalAttackConfig

SEED = 3
EPSILON = 16 / 255


def train_config(attack) -> TR.TrainConfig:
    return TR.TrainConfig(outer_iterations=3, inner_steps=40, batch_size=32, learning_rate=0.05, attack=attack,
                          pgd=PgdConfig(EPSILON, EPSILON / 4, 2), eval_sample_size=200, seed=SEED)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=SRC python3 tools/f64_game.py OUT_DIR", file=sys.stderr)
        return 2
    T.set_default_dtype(np.float64)
    dataset = D.make_synthetic(10, 30, 16, SEED)
    model = M.tiny_config(side=16, channels=3, num_classes=10)
    universal = train_config(UniversalAttackConfig(EPSILON, 0.002, 30, batch_size=32))
    patch = PatchAttackConfig(16, 0.4, float(np.deg2rad(20.0)), 0.002, 30, batch_size=32)
    targeted = train_config(replace(patch, target_class=2, lam=0.5))
    patch = train_config(patch)
    games = {
        "fp-exact-patch": lambda: TR.fp_train(model, dataset, patch, mode="exact"),
        "fp-exact-targeted": lambda: TR.fp_train(model, dataset, targeted, mode="exact"),
        "fp-universal": lambda: TR.fp_train(model, dataset, universal, mode="approximate"),
        "sgd": lambda: TR.sgd_train(model, dataset, universal),
        "at": lambda: TR.at_train(model, dataset, universal),
    }
    for name, play in games.items():
        result, report = play()
        # every trainer here returns its final state, but ``same_bytes.py`` runs this one file against the
        # parent tree too, whose baselines return their parameters
        params = result.params if isinstance(result, TR.FPState) else result
        out = Path(argv[0]) / name
        out.mkdir(parents=True, exist_ok=True)
        for pname, p in params.items():
            (out / f"{pname}.f64").write_bytes(np.asarray(p.data, dtype=np.float64).tobytes())
        (out / "xi.f64").write_bytes(np.asarray(report[-1].spec.xi, dtype=np.float64).tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
