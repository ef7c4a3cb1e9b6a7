"""Accuracy and adversarial accuracy with held-out, freshly crafted attacks.

Adversarial accuracy never reuses a training-time perturbation: each call
crafts a new one through :func:`~advgame.attack.craft`, the only entry that
makes one, against the classifier under evaluation from an independent RNG
stream, so the number reported is robustness to an unseen attack.  Every
classifier is scored as a pool, a list of :class:`~advgame.model.Classifier`,
the live one as a pool of one, and every score is one function,
:func:`perturbed_accuracy`: clean accuracy is its clean view (:func:`accuracy`)
and a fixed-class patch's hit rate its ``target``.  A score's subset is named
by a seed, not drawn from a caller's generator, so every score a call site
makes with one subset seed reads the same images.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import attack as A
from . import model as M
from .data import Dataset, PerturbationSpec, PerturbedView
from .model import Classifier, CorruptFileError, load_checkpoint, single_pool

CSV_HEADER = "iter,split,clean_acc,adv_acc,attack,seconds"
SPLIT_ORDER = ("train", "valid", "test")
CSV_TIMINGS = ("zero", "real")  # the ``seconds`` column: 0.0, which keeps the bytes reproducible, or wall-clock

# images per scoring forward.  It bounds the activations and the dense layer's input only: each conv builds its
# columns a few images at a time whatever the chunk (tensor._CONV_GROUP_MAX_ELEMS).  The dense layer's bits can
# change with its row count, so the chunk stays fixed
_PREDICT_CHUNK = 256


@dataclass(frozen=True)
class MetricsRow:
    """One outer iteration's record (or one checkpoint's on one split); ``spec``
    is the perturbation ``adv_acc`` was scored under."""
    iteration: int
    split: str
    clean_acc: float
    adv_acc: float
    spec: PerturbationSpec
    seconds: float

    def __post_init__(self):
        if not (0.0 <= self.clean_acc <= 1.0 and 0.0 <= self.adv_acc <= 1.0):
            raise ValueError("accuracies must lie in [0, 1]")


def format_rows(rows, timing: str = "zero") -> str:
    """Render metrics as CSV text; ``timing`` is one of ``CSV_TIMINGS``, and ``'zero'`` keeps the bytes
    reproducible."""
    if timing not in CSV_TIMINGS:
        raise ValueError(f"timing must be one of {', '.join(CSV_TIMINGS)}")
    lines = [CSV_HEADER]
    for r in rows:
        seconds = r.seconds if timing == "real" else 0.0
        lines.append(f"{r.iteration},{r.split},{r.clean_acc:.6f},{r.adv_acc:.6f},{r.spec.kind},{seconds:.6f}")
    return "\n".join(lines) + "\n"


def write_csv(path, rows, timing: str = "zero") -> None:
    """Write :func:`format_rows` to ``path`` atomically (:func:`~advgame.model.atomic_write`)."""
    with M.atomic_write(path, "w", newline="\n") as fh:
        fh.write(format_rows(rows, timing))


def accuracy(pool: list[Classifier], dataset: Dataset, sample_size: int | None = None, subset_seed=None) -> float:
    """Fraction of correct predictions on the clean view of a sampled subset (or the full split)."""
    return perturbed_accuracy(pool, dataset, None, sample_size, subset_seed)


def perturbed_accuracy(pool: list[Classifier], dataset: Dataset, spec: PerturbationSpec | None,
                       sample_size: int | None = None, subset_seed=None, placement_seed: int = 0,
                       target: int | None = None) -> float:
    """Fraction of a subset rendered under ``spec`` (None: the clean view) that
    the pool classifies as its label, or as ``target`` when given (a
    fixed-class patch's hit rate).  The subset is ``sample_size`` distinct
    samples drawn by ``np.random.default_rng(subset_seed)``, or the whole
    split when either is None or it covers the split, so calls that pass one
    seed score one subset; predictions run in chunks of ``_PREDICT_CHUNK``."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if sample_size is None or sample_size >= len(dataset) or subset_seed is None:
        idx = np.arange(len(dataset))
    else:
        idx = np.random.default_rng(subset_seed).choice(len(dataset), size=sample_size, replace=False)
    images = PerturbedView(dataset, spec, seed=placement_seed).materialize(idx)
    predicted = np.concatenate([M.pool_predict(pool, images[start : start + _PREDICT_CHUNK])
                                for start in range(0, len(images), _PREDICT_CHUNK)])
    return float(np.mean(predicted == (dataset.labels[idx] if target is None else target)))


def evaluate_checkpoint_series(
    checkpoint_dir,
    splits: dict[str, Dataset],
    attack_config,
    seed: int = 0,
    sample_size: int | None = 2000,
) -> list[MetricsRow]:
    """One row per numbered checkpoint per split, in iteration order (not name order); a
    fresh perturbation is crafted per checkpoint on the train split and applied to every
    split.  A split's clean and adversarial accuracies score one subset, named by one subset seed.  A name
    without a number, or two of one number (``checkpoint_1``, ``checkpoint_0001``), raise ``CorruptFileError``."""
    files = sorted(Path(checkpoint_dir).glob("checkpoint_*.ckpt"))
    if not files:
        raise FileNotFoundError(f"no checkpoint_*.ckpt files in {checkpoint_dir}")
    if bad := [str(p) for p in files if not p.stem.removeprefix("checkpoint_").isdecimal()]:
        raise CorruptFileError(f"checkpoint names without an iteration number: {', '.join(bad)}")
    numbered = sorted((int(p.stem.removeprefix("checkpoint_")), p) for p in files)
    if twice := [f"{a} and {b}" for (i, a), (j, b) in zip(numbered, numbered[1:]) if i == j]:
        raise CorruptFileError(f"checkpoint names of one iteration: {', '.join(twice)}")
    rows = []
    for iteration, path in numbered:
        config, params = load_checkpoint(path)
        config.check_input_shape(splits["train"].image_shape, splits["train"].num_classes)
        pool = single_pool(config, params)
        rng = np.random.default_rng((seed, 5, iteration))
        t0 = time.perf_counter()
        spec = A.craft(pool, splits["train"], attack_config, rng)
        for split, ds in ((split, splits[split]) for split in SPLIT_ORDER if split in splits):
            subset_seed = (seed, 6, iteration, SPLIT_ORDER.index(split))
            clean = accuracy(pool, ds, sample_size, subset_seed)
            adv = perturbed_accuracy(pool, ds, spec, sample_size, subset_seed, placement_seed=iteration)
            rows.append(MetricsRow(iteration, split, clean, adv, spec, time.perf_counter() - t0))
    return rows
