"""Attack crafting: universal max-norm perturbations, adversarial patches,
and per-sample PGD examples for the adversarial-training baseline.

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
from . import model as M
from . import tensor as T
from .data import PerturbationSpec, overlay_patch_op, sample_placements
from .model import ClassifierPool, ClassifierSnapshot, ModelConfig, pool_expected_loss, read_artifact
from .tensor import Tensor

CONTAINER_MAGIC = b"AGPT"
CONTAINER_VERSION = 1


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
    patch_side: int
    chi: float
    theta_max: float        # radians
    alpha: float
    iterations: int
    placements_per_step: int = 4
    batch_size: int = 32
    target_class: int | None = None
    lam: float = 0.0        # weight of the fixed-class term

    def __post_init__(self):
        if not (0.0 < self.chi <= 1.0) or self.placements_per_step < 1:
            raise ValueError("invalid patch attack config")
        if self.patch_side < 2 or self.alpha <= 0 or self.iterations < 0 or self.batch_size < 1:
            raise ValueError("invalid patch attack config")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must lie in [0, 1]")
        if self.target_class is None and self.lam != 0.0:
            raise ValueError("a fixed-class weight needs a target class")


@dataclass(frozen=True)
class PgdConfig:
    epsilon: float
    step_size: float
    steps: int
    random_init: bool = True

    def __post_init__(self):
        if self.epsilon <= 0 or self.step_size <= 0 or self.steps < 0:
            raise ValueError("invalid pgd config")


AttackTarget = ClassifierPool | ClassifierSnapshot | tuple[ModelConfig, dict]


def _loss_fn(target: AttackTarget):
    """Differentiable batch loss against a single classifier or a pool.

    Parameters are wrapped as constants: attacks only ever need gradients
    with respect to the inputs.
    """
    if isinstance(target, ClassifierPool):
        return lambda x, labels: pool_expected_loss(target, x, labels)
    if isinstance(target, ClassifierSnapshot):
        config, params = target.config, target.params
    else:
        config, params = target
        if any(p.requires_grad for p in params.values()):
            params = {name: Tensor(p.data, requires_grad=False) for name, p in params.items()}
    return lambda x, labels: T.softmax_cross_entropy(M.forward(config, params, x, "infer"), labels)


def project_linf(xi: np.ndarray, epsilon: float) -> np.ndarray:
    """Coordinatewise clamp onto the max-norm ball of radius epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return np.clip(xi, -epsilon, epsilon)


def input_gradients(target: AttackTarget, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the target loss at the given (already valid) inputs."""
    leaf = Tensor(batch, requires_grad=True)
    T.backward(_loss_fn(target)(leaf, labels))
    return leaf.grad


def universal_step(
    xi: np.ndarray,
    target: AttackTarget,
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
    T.backward(_loss_fn(target)(adv, labels))
    signs = np.sign(leaf.grad)
    return project_linf(xi + alpha * signs.mean(axis=0), epsilon)


def learn_universal(
    target: AttackTarget,
    dataset: D.Dataset,
    config: UniversalAttackConfig,
    rng: np.random.Generator,
) -> PerturbationSpec:
    """Craft a universal perturbation by iterated sign ascent over random batches."""
    xi = np.zeros(dataset.image_shape, dtype=T.get_default_dtype())
    if config.iterations > 0:
        size = min(config.batch_size, len(dataset))
        sampler = D.BatchSampler(len(dataset), rng)
        for _ in range(config.iterations):
            idx = sampler.next_indices(size)
            xi = universal_step(xi, target, dataset.images[idx], dataset.labels[idx], config.alpha, config.epsilon)
    return PerturbationSpec("universal", xi, epsilon=config.epsilon)


def patch_objective(
    target: AttackTarget,
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
    loss = _loss_fn(target)
    objective = None
    if config.lam < 1.0:
        objective = T.mul(loss(adv, big_labels), 1.0 - config.lam)
    if config.lam > 0.0:
        t = np.full(len(big_labels), config.target_class, dtype=np.int64)
        term = T.mul(loss(adv, t), -config.lam)
        objective = term if objective is None else T.add(objective, term)
    return objective


def patch_step(
    xi: np.ndarray,
    target: AttackTarget,
    batch: np.ndarray,
    labels: np.ndarray,
    config: PatchAttackConfig,
    placements: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """One gradient-ascent step of the patch; disc-masked, clipped to [0, 1]."""
    patch = Tensor(xi, requires_grad=True)
    T.backward(patch_objective(target, patch, batch, labels, config, placements))
    return np.clip(xi + config.alpha * patch.grad * mask, 0.0, 1.0)


def learn_patch(
    target: AttackTarget,
    dataset: D.Dataset,
    config: PatchAttackConfig,
    rng: np.random.Generator,
) -> PerturbationSpec:
    """Craft a patch by gradient ascent from a mid-gray disc, resampling

    placements freshly at every step."""
    channels = dataset.image_shape[0]
    side = dataset.image_shape[1]
    spec = D.gray_patch(channels, config.patch_side, config.chi, config.theta_max)
    xi = spec.xi
    if config.iterations > 0:
        size = min(config.batch_size, len(dataset))
        sampler = D.BatchSampler(len(dataset), rng)
        for _ in range(config.iterations):
            idx = sampler.next_indices(size)
            placements = sample_placements(
                rng, size * config.placements_per_step, side, config.chi, config.theta_max
            )
            xi = patch_step(xi, target, dataset.images[idx], dataset.labels[idx], config, placements, spec.mask)
    return PerturbationSpec("patch", xi, mask=spec.mask, chi=config.chi, theta_max=config.theta_max)


def pgd_per_sample(
    target: AttackTarget,
    batch: np.ndarray,
    labels: np.ndarray,
    config: PgdConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-sample projected gradient ascent inside the max-norm ball."""
    x = np.asarray(batch)
    if config.random_init:
        adv = np.clip(x + rng.uniform(-config.epsilon, config.epsilon, x.shape), 0.0, 1.0)
    else:
        adv = x.copy()
    for _ in range(config.steps):
        grad = input_gradients(target, adv, labels)
        adv = adv + config.step_size * np.sign(grad)
        adv = np.clip(adv, x - config.epsilon, x + config.epsilon)
        adv = np.clip(adv, 0.0, 1.0)
    return adv


# ---------------------------------------------------------------------------
# perturbation container files
# ---------------------------------------------------------------------------

def save_perturbation(path, spec: PerturbationSpec) -> None:
    """Binary container: kind + budget/placement header + f32 payload."""
    blob = bytearray()
    blob += CONTAINER_MAGIC
    blob += struct.pack("<I", CONTAINER_VERSION)
    if spec.kind == "universal":
        blob += struct.pack("<B", 0)
        blob += struct.pack("<d", spec.epsilon)
    else:
        blob += struct.pack("<B", 1)
        blob += struct.pack("<Idd", spec.patch_side, spec.chi, spec.theta_max)
    blob += struct.pack("<I", spec.xi.ndim)
    blob += struct.pack(f"<{spec.xi.ndim}I", *spec.xi.shape)
    blob += np.ascontiguousarray(spec.xi, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_perturbation(path) -> PerturbationSpec:
    """Read a container; malformed content raises ``CorruptFileError``."""
    return read_artifact(path, CONTAINER_MAGIC, CONTAINER_VERSION, _decode_perturbation)


def _decode_perturbation(blob: bytes, off: int) -> PerturbationSpec:
    (kind_byte,) = struct.unpack_from("<B", blob, off)
    if kind_byte == 0:
        (epsilon,) = struct.unpack_from("<d", blob, off + 1)
        off += 1 + 8
    elif kind_byte == 1:
        patch_side, chi, theta_max = struct.unpack_from("<Idd", blob, off + 1)
        off += 1 + 4 + 16
    else:
        raise ValueError(f"unknown perturbation kind {kind_byte}")
    (rank,) = struct.unpack_from("<I", blob, off)
    off += 4
    shape = struct.unpack_from(f"<{rank}I", blob, off)
    off += 4 * rank
    n = int(np.prod(shape))
    if off + 4 * n != len(blob):
        raise ValueError(f"payload is {len(blob) - off} bytes, shape {shape} needs {4 * n}")
    xi = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape).astype(T.get_default_dtype())
    if kind_byte == 0:
        # f32 quantization can nudge boundary coordinates past the budget
        xi = project_linf(xi, epsilon)
        return PerturbationSpec("universal", xi, epsilon=epsilon)
    spec = PerturbationSpec("patch", xi, chi=chi, theta_max=theta_max)
    if spec.patch_side != patch_side:
        raise ValueError(f"header patch side {patch_side} disagrees with payload shape {shape}")
    return spec
