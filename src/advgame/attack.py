"""Attack crafting: universal max-norm perturbations, adversarial patches,
and per-sample PGD examples for the adversarial-training baseline.

:func:`craft` is the only entry that makes a perturbation: it plays the one
attack its config names, :func:`learn_universal` or :func:`learn_patch`.
Both run the same ascent loop, :func:`_ascend`, which draws the batches;
each passes only its start point and its step.  Every attack ascends the
uniform mixture loss (:func:`~advgame.model.pool_expected_loss`) of a pool:
frozen copies in exact-mode play, otherwise the live classifier alone.

The universal update averages per-sample gradient SIGNS over the batch
(sign-then-average, not sign-of-average) before the max-norm projection;
the patch update uses raw gradients through the bilinear overlay, with the
expectation over placements approximated by Monte Carlo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import tensor as T
from .data import PerturbationSpec, overlay_patch_op, sample_placements
from .model import Classifier, pack_array, pool_expected_loss, read_artifact, unpack_array, write_artifact
from .tensor import Tensor

CONTAINER_MAGIC = b"AGPT"


@dataclass(frozen=True)
class UniversalAttackConfig:
    epsilon: float          # max-norm budget, pixel-fraction units
    alpha: float            # ascent step size
    iterations: int
    batch_size: int = 100

    def __post_init__(self):
        if self.epsilon <= 0 or self.alpha <= 0 or self.iterations < 0 or self.batch_size < 1:
            raise ValueError("invalid universal attack config")


@dataclass(frozen=True)
class PatchAttackConfig:
    """A C x H x H patch, where H is the side of the images it is crafted on."""
    chi: float
    theta_max: float        # radians
    alpha: float
    iterations: int
    placements_per_step: int = 4
    batch_size: int = 32
    target_class: int | None = None
    lam: float = 0.0        # weight of the fixed-class term

    def __post_init__(self):
        if not (0.0 < self.chi <= 1.0) or self.theta_max < 0 or self.placements_per_step < 1:
            raise ValueError("invalid patch attack config")
        if self.alpha <= 0 or self.iterations < 0 or self.batch_size < 1:
            raise ValueError("invalid patch attack config")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must lie in [0, 1]")
        if self.target_class is None and self.lam != 0.0:
            raise ValueError("a fixed-class weight needs a target class")


@dataclass(frozen=True)
class PgdConfig:
    """Per-sample PGD of ``steps`` signed steps of ``step_size`` in the max-norm ball of radius ``epsilon``,
    from a uniform random start in the ball whenever it takes a step."""
    epsilon: float
    step_size: float
    steps: int

    def __post_init__(self):
        if self.epsilon <= 0 or self.step_size <= 0 or self.steps < 0:
            raise ValueError("invalid pgd config")


def project_linf(xi: np.ndarray, epsilon: float) -> np.ndarray:
    """Coordinatewise clamp onto the max-norm ball of radius epsilon."""
    if not epsilon > 0:  # NaN fails it too
        raise ValueError("epsilon must be positive")
    return np.clip(xi, -epsilon, epsilon)


def universal_step(
    xi: np.ndarray,
    pool: list[Classifier],
    batch: np.ndarray,
    labels: np.ndarray,
    alpha: float,
    epsilon: float,
) -> np.ndarray:
    """One projected sign-ascent step of the shared perturbation.

    Gradients are taken through the pixel clipping (zero at saturated
    pixels), signed per sample per coordinate, averaged over the batch,
    scaled by alpha, added and projected back onto the budget ball.
    """
    if np.abs(xi).max(initial=0.0) > epsilon:
        raise ValueError("perturbation exceeds its epsilon budget")
    pre = batch + xi
    leaf = Tensor(pre, requires_grad=True)
    adv = T.clip(leaf, 0.0, 1.0)
    T.backward(pool_expected_loss(pool, adv, labels))
    signs = np.sign(leaf.grad)
    return project_linf(xi + alpha * signs.mean(axis=0), epsilon)


def craft(pool: list[Classifier], dataset: D.Dataset, config: UniversalAttackConfig | PatchAttackConfig,
          rng: np.random.Generator) -> PerturbationSpec:
    """Craft the one perturbation ``config`` names against ``pool`` on ``dataset``."""
    if isinstance(config, UniversalAttackConfig):
        return learn_universal(pool, dataset, config, rng)
    if isinstance(config, PatchAttackConfig):
        return learn_patch(pool, dataset, config, rng)
    raise TypeError(f"unsupported attack config {type(config).__name__}")


def _ascend(xi: np.ndarray, dataset: D.Dataset, config, rng: np.random.Generator, step) -> np.ndarray:
    """The one ascent loop: ``config.iterations`` times ``xi = step(xi, images,
    labels)`` on batches of ``min(config.batch_size, len(dataset))`` drawn
    without replacement on ``rng`` (no draw at zero iterations)."""
    if config.iterations > 0:
        size = min(config.batch_size, len(dataset))
        sampler = D.BatchSampler(len(dataset), rng)
        for _ in range(config.iterations):
            idx = sampler.next_indices(size)
            xi = step(xi, dataset.images[idx], dataset.labels[idx])
    return xi


def learn_universal(
    pool: list[Classifier],
    dataset: D.Dataset,
    config: UniversalAttackConfig,
    rng: np.random.Generator,
) -> PerturbationSpec:
    """Craft a universal perturbation by iterated sign ascent from zero."""
    xi = np.zeros(dataset.image_shape, dtype=T.get_default_dtype())
    xi = _ascend(xi, dataset, config, rng,
                 lambda xi, x, y: universal_step(xi, pool, x, y, config.alpha, config.epsilon))
    return PerturbationSpec("universal", xi, epsilon=config.epsilon)


def patch_objective(
    pool: list[Classifier],
    patch: Tensor,
    batch: np.ndarray,
    labels: np.ndarray,
    config: PatchAttackConfig,
    placements: np.ndarray,
) -> Tensor:
    """Ascent objective over S placements per sample:

    (1 - lambda) * loss(true labels) - lambda * loss(target class)."""
    s = config.placements_per_step
    big = np.concatenate([batch] * s, axis=0)
    big_labels = np.concatenate([labels] * s)
    adv = overlay_patch_op(big, patch, config.chi, placements)
    return pool_expected_loss(pool, adv, big_labels, config.target_class, config.lam)


def patch_step(
    xi: np.ndarray,
    pool: list[Classifier],
    batch: np.ndarray,
    labels: np.ndarray,
    config: PatchAttackConfig,
    placements: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """One gradient-ascent step of the patch; disc-masked, clipped to [0, 1]."""
    patch = Tensor(xi, requires_grad=True)
    T.backward(patch_objective(pool, patch, batch, labels, config, placements))
    return np.clip(xi + config.alpha * patch.grad * mask, 0.0, 1.0)


def learn_patch(
    pool: list[Classifier],
    dataset: D.Dataset,
    config: PatchAttackConfig,
    rng: np.random.Generator,
) -> PerturbationSpec:
    """Craft a patch of the images' side by gradient ascent from a mid-gray disc,
    resampling placements freshly at every step, after the step's batch."""
    channels, side = dataset.image_shape[:2]
    mask = D.disc_mask(side)

    def step(xi, x, y):
        placements = sample_placements(rng, len(y) * config.placements_per_step, side, config.chi, config.theta_max)
        return patch_step(xi, pool, x, y, config, placements, mask)

    xi = D.gray_patch(channels, side, config.chi, config.theta_max).xi
    xi = _ascend(xi, dataset, config, rng, step)
    return PerturbationSpec("patch", xi, chi=config.chi, theta_max=config.theta_max)


def pgd_per_sample(
    pool: list[Classifier],
    batch: np.ndarray,
    labels: np.ndarray,
    config: PgdConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-sample projected gradient ascent inside the max-norm ball, from a uniform random point in it.  With
    zero steps it returns ``batch`` as it is and draws nothing from ``rng``."""
    x = np.asarray(batch)
    if config.steps == 0:
        return x
    # the draw is float64; cast, so that a float32 batch stays float32
    adv = np.clip(x + rng.uniform(-config.epsilon, config.epsilon, x.shape).astype(x.dtype, copy=False), 0.0, 1.0)
    for _ in range(config.steps):
        leaf = Tensor(adv, requires_grad=True)
        T.backward(pool_expected_loss(pool, leaf, labels))
        adv = adv + config.step_size * np.sign(leaf.grad)
        adv = np.clip(adv, x - config.epsilon, x + config.epsilon)
        adv = np.clip(adv, 0.0, 1.0)
    return adv


# ---------------------------------------------------------------------------
# perturbation container files
# ---------------------------------------------------------------------------

def save_perturbation(path, spec: PerturbationSpec) -> None:
    """Binary container: kind + budget/placement header + payload in ``xi``'s own dtype, f32 or f64."""
    if spec.kind == "universal":
        header = struct.pack("<Bd", 0, spec.epsilon)
    else:
        header = struct.pack("<BIdd", 1, spec.patch_side, spec.chi, spec.theta_max)
    write_artifact(path, CONTAINER_MAGIC, [header, *pack_array(spec.xi)])


def load_perturbation(path) -> PerturbationSpec:
    """Read a container; malformed content raises ``CorruptFileError``."""
    return read_artifact(path, CONTAINER_MAGIC, _decode_perturbation)


def _decode_perturbation(blob: bytes, off: int, dtype: str) -> tuple[PerturbationSpec, int]:
    (kind_byte,) = struct.unpack_from("<B", blob, off)
    if kind_byte == 0:
        (epsilon,) = struct.unpack_from("<d", blob, off + 1)
        off += 1 + 8
    elif kind_byte == 1:
        patch_side, chi, theta_max = struct.unpack_from("<Idd", blob, off + 1)
        off += 1 + 4 + 16
    else:
        raise ValueError(f"unknown perturbation kind {kind_byte}")
    xi, off = unpack_array(blob, off, dtype)
    if kind_byte == 0:
        # an f32 payload (version 1), or an f64 one read into a float32 process, can sit just
        # past the budget once rounded; the projection puts it back and leaves values inside as they are
        xi = project_linf(xi, epsilon)
        return PerturbationSpec("universal", xi, epsilon=epsilon), off
    spec = PerturbationSpec("patch", xi, chi=chi, theta_max=theta_max)
    if spec.patch_side != patch_side:
        raise ValueError(f"header patch side {patch_side} disagrees with payload shape {xi.shape}")
    return spec, off
