"""Experiment runner: flat key=value configs, subcommands, artifact I/O.

Exit codes: 0 success; 2 config error (before any write), a model or
checkpoint whose input shape is not the data's, or a perturbation PPM cannot
hold; 3 I/O error (a missing, empty, corrupt, truncated or padded checkpoint,
perturbation or CIFAR-10 file, or an unnumbered checkpoint); 4 numeric
failure.  Training writes each outer iteration as it ends, in ``on_outer``:
its checkpoint, its ``.pert`` (``train-fp``) and ``metrics.csv`` so far; so
after exit 4 at iteration k the run directory holds iterations 1..k-1.
Each command echoes its resolved config into ``output_dir`` before its
first artifact: training as ``config.txt``, ``attack`` as
``attack_config.txt`` and ``eval`` as ``eval_config.txt``, so an ``eval`` or
``attack`` run in a training directory leaves the record of how its
checkpoints were trained intact.
``train-*`` reads the ``train`` split alone, ``attack`` crafts on ``train``
and scores ``test``, ``eval`` scores all three (``load_splits``); so training
on a CIFAR-10 directory never opens ``test_batch.bin``, while ``attack`` and
``eval`` exit 3 on a corrupt one.  A single CIFAR-10 file as ``data_path`` is
only a ``train`` split, and a CIFAR-10 directory without ``test_batch.bin``
only ``train`` and ``valid``: then ``eval`` writes no ``test`` rows and
``attack`` scores the training images.  A CIFAR-10 directory holds out its
last 5000 training records as ``valid``, so one with 5000 or fewer exits 2.
``attack`` scores clean accuracy, adversarial accuracy and a targeted patch's
hit rate on one subset, and the hit rate on the adversarial score's placements.
Each setting has one flag, named after its field, and takes its value from the
profile preset, then the ``--config`` file, then the flags, the later winning.
A command checks the settings it reads, and no other, before any read or
write: ``validate_config`` those all commands read (each enumerated one
against ``CHOICES``, the table ``--help`` shows; ``data_path``, the synthetic
size, ``patch_target_class``, ``seed``, ``eval_sample_size``), and building
its typed configs, once, the rest.  ``train-*`` builds the model, which only
it reads and checks against the data and a batchnorm's ``batch_size >= 2``,
and a ``TrainConfig``: FP with the ``attack_iterations`` attack, SGD and AT
with the ``eval_attack_iterations`` one, AT alone with PGD.  ``attack`` and
``eval`` build the attack of those counts; the checkpoint is their model.
Before it parses anything, ``main`` sets the process's heap policy
(``keep_freed_heap``), so each training and attack step reuses the memory
the step before it freed.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import attack as A
from . import data as D
from . import evaluation as E
from . import model as M
from . import tensor as T
from . import train as TR
from .attack import PatchAttackConfig, PgdConfig, UniversalAttackConfig
from .tensor import NonFiniteError


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, unparsable value, ...)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment knob as a flat key-value record.

    Defaults are the ``desk`` profile (tiny model on synthetic data, minutes
    of CPU); ``profile = cifar10`` switches the published full-scale numbers.
    Fixed, and so no setting: momentum 0.9, weight decay 2e-4 and LR decay 0.1
    (``train.MOMENTUM``, ``WEIGHT_DECAY``, ``LR_DECAY``), the PGD step
    epsilon / 4 (``attack.pgd_per_sample``) and the patch's rotation bound of
    20 degrees (``attack.THETA_MAX``).
    """
    profile: str = "desk"
    # data
    data: str = "synthetic"
    data_path: str = ""
    classes: int = 10
    per_class: int = 100
    image_side: int = 16
    # model
    model: str = "tiny"
    precision: str = "float64"
    # training loop
    outer_iterations: int = 8
    inner_steps: int = 300
    batch_size: int = 64
    learning_rate: float = 0.05
    lr_milestones: str = ""            # comma-separated global step indices
    weighting: str = "literal"
    fp_mode: str = "approximate"
    # perturbation loop
    attack_kind: str = "universal"
    epsilon_pixels: float = 16.0       # max-norm budget in [0,255] pixel units
    attack_alpha: float = 0.002
    attack_iterations: int = 1000
    attack_batch_size: int = 64
    eval_attack_iterations: int = 2000
    patch_chi: float = 0.4
    patch_placements: int = 4
    patch_lambda: float = 0.0
    patch_target_class: int = -1       # -1 means untargeted
    # adversarial-training baseline
    pgd_steps: int = 7
    # evaluation and bookkeeping
    eval_sample_size: int = 2000
    seed: int = 0
    output_dir: str = "runs/experiment"
    csv_timing: str = "zero"

    @property
    def epsilon(self) -> float:
        return self.epsilon_pixels / 255.0

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


# Table of full-scale hyperparameters (first dataset column).
PROFILES = {
    "desk": {},
    "cifar10": {
        "data": "cifar10",
        "model": "paper-vgg",
        "classes": 10,
        "image_side": 32,
        "outer_iterations": 50,
        "inner_steps": 10_000,
        "batch_size": 256,
        "learning_rate": 0.01,
        "lr_milestones": "150000,300000,450000",
        "epsilon_pixels": 16.0,
        "attack_alpha": 2e-5,
        "attack_iterations": 20_000,
        "attack_batch_size": 100,
        "eval_attack_iterations": 20_000,
        "eval_sample_size": 10_000,
    },
}

# The allowed values of each enumerated setting: ``validate_config`` checks them and ``--help`` shows them
CHOICES = {
    "profile": tuple(PROFILES),
    "data": ("synthetic", "cifar10"),
    "model": ("tiny", "paper-vgg"),
    "precision": ("float64", "float32"),
    "weighting": M.WEIGHTINGS,
    "fp_mode": TR.FP_MODES,
    "attack_kind": ("universal", "patch"),
    "csv_timing": E.CSV_TIMINGS,
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            if not np.isfinite(value := float(raw)):
                raise ValueError(raw)
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from exc


def read_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        if (key := key.strip()) in values:
            raise ConfigError(f"{path}:{lineno}: {key} is set twice")
        values[key] = _parse_value(key, raw)
    return values


def parse_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config: profile preset, then file values, then flag overrides."""
    file_values = read_config_file(path) if path else {}
    overrides = overrides or {}
    if unknown := sorted(overrides.keys() - _FIELD_TYPES.keys()):
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    profile = overrides.get("profile", file_values.get("profile", "desk"))
    cfg = ExperimentConfig(**{**PROFILES.get(profile, {}), **file_values, **overrides})
    validate_config(cfg)
    return cfg


def _checked(build, *args):
    """``build(*args)``, where the ``ValueError`` of a setting out of range is a config error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(cfg: ExperimentConfig) -> None:
    """The checks of the settings that every config-reading command reads; each checks the rest as it builds."""
    for key, allowed in CHOICES.items():
        if (value := getattr(cfg, key)) not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")
    if cfg.data == "cifar10" and not cfg.data_path:
        raise ConfigError("missing required key data_path for data = cifar10")
    if cfg.data == "synthetic":
        _checked(D.check_synthetic, cfg.classes, cfg.per_class, cfg.image_side)
    if cfg.patch_target_class != -1 and not 0 <= cfg.patch_target_class < cfg.classes:
        raise ConfigError(f"patch_target_class must be -1 or in [0, {cfg.classes}), got {cfg.patch_target_class}")
    if cfg.seed < 0 or cfg.eval_sample_size < 1:
        raise ConfigError(f"need seed >= 0 and eval_sample_size >= 1, got {cfg.seed} and {cfg.eval_sample_size}")


def echo_config(cfg: ExperimentConfig, out_dir: Path, name: str) -> None:
    with M.atomic_write(out_dir / name, "w") as fh:
        fh.write(cfg.to_text())


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------

def load_splits(cfg: ExperimentConfig, names: tuple[str, ...] = E.SPLIT_ORDER) -> dict[str, D.Dataset]:
    """The splits of ``names`` that the data holds, and no other.  Synthetic ``train``, ``valid`` and
    ``test`` are :func:`~advgame.data.make_synthetic` draws of ``per_class``, ``max(2, per_class // 4)`` and
    ``max(2, per_class // 2)`` images per class on ``seed``, ``seed + 1`` and ``seed + 2``.  A CIFAR-10 directory's
    last 5000 ``data_batch_*.bin`` records are ``valid``; its ``test_batch.bin`` is opened only for ``test``."""
    if cfg.data == "synthetic":
        sizes = {"train": cfg.per_class, "valid": max(2, cfg.per_class // 4), "test": max(2, cfg.per_class // 2)}
        return {name: D.make_synthetic(cfg.classes, sizes[name], cfg.image_side, cfg.seed + E.SPLIT_ORDER.index(name))
                for name in names}
    path = Path(cfg.data_path)
    if not path.is_dir():
        return {"train": D.load_cifar10(path)}
    loaded = [D.load_cifar10(p) for p in sorted(path.glob("data_batch_*.bin"))]
    if not loaded:
        raise FileNotFoundError(f"no data_batch_*.bin under {path}")
    if (total := sum(map(len, loaded))) <= 5000:
        raise ConfigError(f"{path} holds {total} training records in data_batch_*.bin; the last 5000 are "
                          f"held out for validation, so a cifar10 directory needs more than 5000")
    # a file's first k records are ``train`` and the rest ``valid``; each split is concatenated from its own slices of
    # the files, so that neither keeps the other's records alive
    ks = [max(total - 5000 - start, 0) for start in np.cumsum([0, *map(len, loaded[:-1])])]
    held = {"train": [slice(None, k) for k in ks], "valid": [slice(k, None) for k in ks]}
    splits = {name: D.Dataset(np.concatenate([d.images[c] for d, c in zip(loaded, held[name])]),
                              np.concatenate([d.labels[c] for d, c in zip(loaded, held[name])]), D.CIFAR_CLASSES)
              for name in names if name in held}
    if "test" in names and (test_path := path / "test_batch.bin").exists():
        splits["test"] = D.load_cifar10(test_path)
    return splits


def build_model_config(cfg: ExperimentConfig) -> M.ModelConfig:
    if cfg.model == "tiny":
        return M.tiny_config(side=cfg.image_side, num_classes=cfg.classes)
    return M.paper_vgg_config(num_classes=cfg.classes)


def build_attack_config(cfg: ExperimentConfig, iterations: int):
    if cfg.attack_kind == "universal":
        return UniversalAttackConfig(
            epsilon=cfg.epsilon,
            alpha=cfg.attack_alpha,
            iterations=iterations,
            batch_size=cfg.attack_batch_size,
        )
    return PatchAttackConfig(
        chi=cfg.patch_chi,
        alpha=cfg.attack_alpha,
        iterations=iterations,
        placements_per_step=cfg.patch_placements,
        batch_size=cfg.attack_batch_size,
        target_class=None if cfg.patch_target_class < 0 else cfg.patch_target_class,
        lam=cfg.patch_lambda,
    )


def build_train_config(cfg: ExperimentConfig, algorithm: str) -> TR.TrainConfig:
    """The ``TrainConfig`` of ``train-<algorithm>``: FP crafts the training
    attack, the SGD and AT baselines score the ``eval_attack_iterations`` one;
    only AT builds, and so checks, the PGD config.  The optimizer's fixed
    values are ``train``'s constants, not settings."""
    try:
        milestones = tuple(int(s) for s in cfg.lr_milestones.split(",")) if cfg.lr_milestones else ()
    except ValueError as exc:
        raise ConfigError(f"cannot parse lr_milestones = {cfg.lr_milestones!r}") from exc
    return TR.TrainConfig(
        outer_iterations=cfg.outer_iterations,
        inner_steps=cfg.inner_steps,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        lr_milestones=milestones,
        attack=build_attack_config(cfg, cfg.attack_iterations if algorithm == "fp" else cfg.eval_attack_iterations),
        pgd=PgdConfig(cfg.epsilon, cfg.pgd_steps) if algorithm == "at" else None,
        weighting=cfg.weighting,
        eval_sample_size=cfg.eval_sample_size,
        seed=cfg.seed,
    )


def _prepare_run(cfg: ExperimentConfig, echo_name: str):
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out_dir, echo_name)
    return out_dir


def run_training(cfg: ExperimentConfig, algorithm: str) -> int:
    model_cfg = _checked(build_model_config, cfg)
    if model_cfg.batchnorm and cfg.batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2 for {cfg.model}, whose batchnorm trains on batch statistics")
    if cfg.data == "cifar10":
        model_cfg.check_input_shape(D.CIFAR_SHAPE, D.CIFAR_CLASSES)
    else:
        model_cfg.check_input_shape((3, cfg.image_side, cfg.image_side), cfg.classes)
    tcfg = _checked(build_train_config, cfg, algorithm)
    train_ds = load_splits(cfg, ("train",))["train"]
    if cfg.batch_size > len(train_ds):
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds the {len(train_ds)} training images")
    out_dir = _prepare_run(cfg, "config.txt")
    rows = []

    def on_outer(n, params, row):
        M.save_checkpoint(out_dir / f"checkpoint_{n:04d}.ckpt", model_cfg, params)
        if algorithm == "fp":
            A.save_perturbation(out_dir / f"perturbation_{n:04d}.pert", row.spec)
        rows.append(row)
        E.write_csv(out_dir / "metrics.csv", rows, timing=cfg.csv_timing)
        print(f"iter {n}: clean {row.clean_acc:.3f} adv {row.adv_acc:.3f}")

    # looked up per call, so that a wrapped trainer is the one that runs
    trainers = {"fp": partial(TR.fp_train, mode=cfg.fp_mode), "at": TR.at_train, "sgd": TR.sgd_train}
    trainers[algorithm](model_cfg, train_ds, tcfg, on_outer=on_outer)
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


def run_attack(cfg: ExperimentConfig, checkpoint: str, out_path: str | None) -> int:
    attack_cfg = _checked(build_attack_config, cfg, cfg.attack_iterations)
    model_cfg, params = M.load_checkpoint(checkpoint)
    splits = load_splits(cfg, ("train", "test"))
    train_ds = splits["train"]
    model_cfg.check_input_shape(train_ds.image_shape, train_ds.num_classes)
    out_dir = _prepare_run(cfg, "attack_config.txt")
    pool = M.single_pool(model_cfg, params)
    rng = np.random.default_rng((cfg.seed, 8))
    spec = A.craft(pool, train_ds, attack_cfg, rng)
    dest = Path(out_path) if out_path else out_dir / f"attack_{cfg.attack_kind}.pert"
    A.save_perturbation(dest, spec)
    eval_ds = splits.get("test", train_ds)
    adv = E.perturbed_accuracy(pool, eval_ds, spec, cfg.eval_sample_size, (cfg.seed, 9), placement_seed=1)
    clean = E.accuracy(pool, eval_ds, cfg.eval_sample_size, (cfg.seed, 9))
    print(f"clean accuracy {clean:.4f}")
    print(f"adv accuracy {adv:.4f}")
    if cfg.attack_kind == "patch" and cfg.patch_target_class >= 0 and cfg.patch_lambda > 0:
        rate = E.perturbed_accuracy(pool, eval_ds, spec, cfg.eval_sample_size, (cfg.seed, 9), placement_seed=1,
                                    target=cfg.patch_target_class)
        print(f"target-class hit rate {rate:.4f}")
    print(f"wrote {dest}")
    return 0


def run_eval(cfg: ExperimentConfig, checkpoint_dir: str | None) -> int:
    attack_cfg = _checked(build_attack_config, cfg, cfg.eval_attack_iterations)
    splits = load_splits(cfg)
    ckpt_dir = Path(checkpoint_dir or cfg.output_dir)
    # the series writes nothing, so a missing, unnumbered or unreadable checkpoint exits before any write
    rows = E.evaluate_checkpoint_series(ckpt_dir, splits, attack_cfg, seed=cfg.seed,
                                        sample_size=cfg.eval_sample_size)
    out_dir = _prepare_run(cfg, "eval_config.txt")
    dest = out_dir / "eval.csv"
    E.write_csv(dest, rows, timing=cfg.csv_timing)
    for row in rows:
        print(f"iter {row.iteration} {row.split}: clean {row.clean_acc:.3f} adv {row.adv_acc:.3f}")
    print(f"wrote {dest}")
    return 0


def run_export_ppm(in_path: str, out_path: str) -> int:
    spec = A.load_perturbation(in_path)
    D.export_ppm(spec, out_path)
    print(f"wrote {out_path}")
    return 0


def run_matrix_demo(game_name: str, iterations: int) -> int:
    games = {"rps": TR.ROCK_PAPER_SCISSORS, "pennies": TR.MATCHING_PENNIES}
    if game_name not in games:
        raise ConfigError(f"unknown game {game_name!r}; choices: {sorted(games)}")
    if iterations < 1:
        raise ConfigError(f"--iters must be >= 1, got {iterations}")
    game = games[game_name]
    p, q, trace = TR.fp_matrix_game(game, iterations)
    print("row strategy:", " ".join(f"{v:.4f}" for v in p))
    print("col strategy:", " ".join(f"{v:.4f}" for v in q))
    print(f"empirical value: {TR.game_value(game, p, q):.4f}")
    print(f"final exploitability: {trace[-1]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    # the choices are shown, not enforced, so that a bad value exits 2 through ``validate_config``
    for key, kind in _FIELD_TYPES.items():
        metavar = "{" + ",".join(CHOICES[key]) + "}" if key in CHOICES else kind.upper()
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar=metavar)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advgame",
                                     description="Game-theoretic training against universal perturbations")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, descr in (
        ("train-fp", "alternating best-response training"),
        ("train-at", "adversarial-training baseline"),
        ("train-sgd", "plain SGD baseline"),
    ):
        p = sub.add_parser(name, help=descr)
        _add_config_arguments(p)

    p = sub.add_parser("attack", help="craft a perturbation against a checkpoint")
    _add_config_arguments(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint series with fresh attacks")
    _add_config_arguments(p)
    p.add_argument("--checkpoint-dir", default=None)

    p = sub.add_parser("export-ppm", help="convert a perturbation container to PPM")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)

    p = sub.add_parser("matrix-demo", help="fictitious play on a built-in matrix game")
    p.add_argument("--game", default="rps")
    p.add_argument("--iters", type=int, default=50_000)
    return parser


def keep_freed_heap() -> None:
    """Keep the memory that a training or attack step frees in the process, for the next step to reuse.

    Under glibc's defaults an array above the mmap threshold (128 KiB at first, raised to the size of each
    mapped array freed, up to 32 MiB) is mapped alone and unmapped when freed, and the free top of the heap is
    trimmed back to the system; either way the next step faults the same memory in again.  Fixed thresholds
    stop both: an array below 32 MiB (a step's activations, conv columns and gradients) comes from the heap,
    whose top is no longer trimmed, while a larger one (the paper VGG's whole-batch columns at the ``cifar10``
    profile) is still mapped alone and returned when freed.  Where the C library has no ``mallopt`` this does
    nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD, the largest int


def main(argv=None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "export-ppm":
            return run_export_ppm(args.in_path, args.out_path)
        if args.command == "matrix-demo":
            return run_matrix_demo(args.game, args.iters)
        overrides = {key: _parse_value(key, raw) for key in _FIELD_TYPES if (raw := getattr(args, key)) is not None}
        cfg = parse_config(args.config, overrides)
        # every data and checkpoint loader reads the default dtype
        T.set_default_dtype(cfg.precision)
        if args.command.startswith("train-"):
            return run_training(cfg, args.command.removeprefix("train-"))
        if args.command == "attack":
            return run_attack(cfg, args.checkpoint, args.out)
        return run_eval(cfg, args.checkpoint_dir)
    except (ConfigError, M.InputShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except TR.TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 4
    except (OSError, M.CorruptFileError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
