"""Datasets, perturbation specs, and lazily perturbed dataset views.

A :class:`PerturbationSpec` is checked once, when it is built: finite
values, the universal budget, the patch's shape and pixel range; nothing
downstream checks it again.  A perturbed dataset is never materialized
whole: a :class:`PerturbedView` stores only the base-dataset reference and
the perturbation itself, so its footprint is a single image regardless of
dataset size.  A universal view adds ``xi`` and clips to [0, 1]; patches are
rendered by one differentiable graph op, :func:`overlay_patch_op`
(inverse-mapped bilinear sampling): views take its output array, and the
patch attack differentiates through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import CorruptFileError, InputShapeError, atomic_write
from .tensor import Tensor

CIFAR_SHAPE = (3, 32, 32)
CIFAR_CLASSES = 10
_CIFAR_RECORD = 1 + int(np.prod(CIFAR_SHAPE))


@dataclass
class Dataset:
    images: np.ndarray  # [N, C, H, W], values in [0, 1]
    labels: np.ndarray  # [N], ints in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise ValueError("images must be [N,C,H,W] with one label per image")
        # written so that a NaN, which fails every comparison, fails the check
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.images.shape[1:]


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def load_cifar10(path) -> Dataset:
    """Read CIFAR-10 binary records: 1 label byte + 3072 channel-major pixels;
    an empty file, a truncated one or a label byte past the last class raises
    ``CorruptFileError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob:
        raise CorruptFileError(f"{path}: empty file, no CIFAR-10 records")
    if len(blob) % _CIFAR_RECORD != 0:
        raise CorruptFileError(f"{path}: truncated record ({len(blob)} bytes is not a multiple of {_CIFAR_RECORD})")
    n = len(blob) // _CIFAR_RECORD
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, _CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    if labels.max() >= CIFAR_CLASSES:
        raise CorruptFileError(f"{path}: label byte {labels.max()} out of range")
    images = raw[:, 1:].reshape(n, *CIFAR_SHAPE).astype(T.get_default_dtype()) / 255.0
    return Dataset(images, labels, CIFAR_CLASSES)


# ---------------------------------------------------------------------------
# synthetic desk-scale data
# ---------------------------------------------------------------------------

def class_pattern(k: int, num_classes: int, side: int) -> np.ndarray:
    """Deterministic per-class RGB texture: oriented gradient plus an oriented grating."""
    angle = np.pi * k / num_classes
    freq = 1.5 + (k % 3)
    phase = 2.0 * np.pi * ((5 * k) % 7) / 7.0
    ys, xs = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    axis = (np.cos(angle) * xs + np.sin(angle) * ys) / side
    grating = np.sin(2.0 * np.pi * freq * axis + phase)
    gradient = axis - axis.mean()
    img = np.empty((3, side, side))
    for c in range(3):
        hue = 0.5 + 0.5 * np.cos(2.0 * np.pi * (k / num_classes) + 2.0 * np.pi * c / 3)
        img[c] = 0.5 + 0.10 * hue * grating + 0.10 * gradient
    return img


def check_synthetic(classes: int, per_class: int, side: int) -> None:
    """The smallest synthetic dataset :func:`make_synthetic` draws."""
    if classes < 2 or per_class < 2 or side < 8:
        raise ValueError("need classes >= 2, per_class >= 2, side >= 8")


def make_synthetic(
    classes: int,
    per_class: int,
    side: int,
    seed: int,
    noise: float = 0.06,
) -> Dataset:
    """Balanced synthetic dataset of noisy RGB class textures, pixels clipped to [0, 1]."""
    check_synthetic(classes, per_class, side)
    rng = np.random.default_rng(seed)
    dtype = T.get_default_dtype()
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    rng.shuffle(labels)
    patterns = np.stack([class_pattern(k, classes, side) for k in range(classes)])
    images = patterns[labels] + noise * rng.standard_normal((n, 3, side, side))
    images = np.clip(images, 0.0, 1.0).astype(dtype)
    return Dataset(images, labels, classes)


# ---------------------------------------------------------------------------
# perturbation specs
# ---------------------------------------------------------------------------

def disc_mask(side: int) -> np.ndarray:
    """Boolean disc of diameter ``side`` over pixel centers; boolean, so a
    product with it keeps the other factor's dtype."""
    ys, xs = np.meshgrid(np.arange(side) + 0.5, np.arange(side) + 0.5, indexing="ij")
    r = side / 2.0
    return (ys - r) ** 2 + (xs - r) ** 2 <= r * r


@dataclass
class PerturbationSpec:
    """Either a universal additive perturbation or a placeable patch.

    Universal: ``xi`` is image-shaped with max-norm at most ``epsilon``.
    Patch: ``xi`` is C x P x P with pixels in [0, 1], rendered through the
    disc of diameter P; ``chi`` is the overlay diameter as a fraction of the
    image side and ``theta_max`` the rotation bound in radians.  A NaN or Inf
    in ``xi`` raises :class:`~advgame.tensor.NonFiniteError`.
    """
    kind: str
    xi: np.ndarray
    epsilon: float | None = None
    chi: float | None = None
    theta_max: float | None = None

    def __post_init__(self):
        self.xi = np.asarray(self.xi)
        if not np.all(np.isfinite(self.xi)):
            raise T.NonFiniteError("perturbation contains non-finite values")
        if self.kind == "universal":
            if self.epsilon is None or not 0 < self.epsilon < np.inf:
                raise ValueError("universal perturbation needs a finite epsilon > 0")
            if np.abs(self.xi).max(initial=0.0) > self.epsilon:
                raise ValueError("universal perturbation exceeds its epsilon budget")
        elif self.kind == "patch":
            if self.xi.ndim != 3 or self.xi.shape[1] != self.xi.shape[2]:
                raise ValueError("patch must be [C, P, P]")
            if self.xi.min(initial=0.0) < 0.0 or self.xi.max(initial=0.0) > 1.0:
                raise ValueError("patch pixels must lie in [0, 1]")
            if not (self.chi and 0.0 < self.chi <= 1.0):
                raise ValueError("patch needs 0 < chi <= 1")
            if self.theta_max is None or not 0 <= self.theta_max < np.inf:
                raise ValueError("patch needs a finite theta_max >= 0")
        else:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")

    @property
    def patch_side(self) -> int:
        return self.xi.shape[1]


def gray_patch(channels: int, side: int, chi: float, theta_max: float) -> PerturbationSpec:
    xi = np.full((channels, side, side), 0.5, dtype=T.get_default_dtype())
    return PerturbationSpec("patch", xi, chi=chi, theta_max=theta_max)


# ---------------------------------------------------------------------------
# perturbation application
# ---------------------------------------------------------------------------

def sample_placements(rng: np.random.Generator, count: int, side: int, chi: float, theta_max: float) -> np.ndarray:
    """Draw (a, b, theta) rows; centers keep the scaled disc fully inside."""
    radius = chi * side / 2.0
    a = rng.uniform(radius, side - radius, count)
    b = rng.uniform(radius, side - radius, count)
    theta = rng.uniform(-theta_max, theta_max, count)
    return np.stack([a, b, theta], axis=1)


def _overlay_gather(images_shape, patch_side: int, chi: float, placements: np.ndarray):
    """Bilinear gather plan for the K pixel centers inside the warped discs:
    their ``bidx, ridx, cidx`` in ``np.nonzero`` order over [B, H, W]; the
    patch ``rows`` and ``cols`` (each 4K) of their neighbors, stacked in
    corner order 00, 01, 10, 11; weights [4, K].

    The rotated grid is evaluated only on a window of each image, of side
    ``min(H, ceil(chi * H) + 3)`` starting at ``floor(a - r) - 1`` (and
    likewise for columns), clipped to the image: a disc of radius ``r``
    centered at ``(a, b)`` covers no pixel center outside it, and every
    covered pixel gets the same formulas, so the same bits, as on the full
    grid."""
    B, C, H, W = images_shape
    if placements.shape != (B, 3):
        raise ValueError(f"need one (a, b, theta) row per image, got {placements.shape}")
    scaled = chi * H
    radius = scaled / 2.0
    if np.any(placements[:, 0] < radius - 1e-9) or np.any(placements[:, 0] > H - radius + 1e-9) or \
       np.any(placements[:, 1] < radius - 1e-9) or np.any(placements[:, 1] > W - radius + 1e-9):
        raise ValueError("patch placement out of bounds")
    P = patch_side
    side = int(np.ceil(scaled)) + 3
    wh, ww = min(H, side), min(W, side)
    r0 = np.clip(np.floor(placements[:, 0] - radius).astype(np.int64) - 1, 0, H - wh)
    c0 = np.clip(np.floor(placements[:, 1] - radius).astype(np.int64) - 1, 0, W - ww)
    a = placements[:, 0][:, None, None]
    b = placements[:, 1][:, None, None]
    theta = placements[:, 2][:, None, None]
    dy = (r0[:, None, None] + np.arange(wh)[:, None]) + 0.5 - a  # [B, wh, 1]
    dx = (c0[:, None, None] + np.arange(ww)) + 0.5 - b  # [B, 1, ww]
    # rotate the sampling grid by -theta so the rendered patch appears rotated by +theta
    ry = np.cos(theta) * dy + np.sin(theta) * dx
    rx = -np.sin(theta) * dy + np.cos(theta) * dx
    qy = ry * (P / scaled) + P / 2.0
    qx = rx * (P / scaled) + P / 2.0
    inside = (qy - P / 2.0) ** 2 + (qx - P / 2.0) ** 2 <= (P / 2.0) ** 2
    bidx, wr, wc = np.nonzero(inside)
    ridx = r0[bidx] + wr
    cidx = c0[bidx] + wc
    u = qy[bidx, wr, wc] - 0.5
    v = qx[bidx, wr, wc] - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    i1 = np.clip(i0 + 1, 0, P - 1)
    j1 = np.clip(j0 + 1, 0, P - 1)
    i0 = np.clip(i0, 0, P - 1)
    j0 = np.clip(j0, 0, P - 1)
    rows = np.concatenate([i0, i0, i1, i1])
    cols = np.concatenate([j0, j1, j0, j1])
    weights = np.stack([(1 - fu) * (1 - fv), (1 - fu) * fv, fu * (1 - fv), fu * fv])
    return bidx, ridx, cidx, rows, cols, weights


def overlay_patch_op(images: np.ndarray, patch: Tensor, chi: float, placements: np.ndarray) -> Tensor:
    """Render the patch on a [B, C, H, W] batch, one (a, b, theta) row each:
    pixels whose centers fall inside the warped disc take the bilinear sample,
    its four taps summed in corner order; all others pass through.

    The taps are one flat ``take`` from the patch's [C, P*P] pixels, in
    [C, 4K] order (channel, then corner, then pixel), and the covered pixels
    are written through one flat index into the output.  The patch gradient
    is one ``np.add.at`` over the same [C, 4K] order, corner by corner."""
    images = np.asarray(images)
    C, H, W = images.shape[1:]
    P = patch.shape[1]
    bidx, ridx, cidx, rows, cols, weights = _overlay_gather(images.shape, P, chi, placements)
    K = len(bidx)
    taps = rows * P + cols  # [4K] offsets into one channel of the patch
    pixels = np.arange(C)[:, None] * (H * W) + ((bidx * C * H + ridx) * W + cidx)  # [C, K] offsets into the batch
    # in the weights' float64 whatever the patch dtype: the four terms are summed before one rounding into the output
    weighted = patch.data.reshape(C, P * P).take(taps, axis=1).astype(weights.dtype, copy=False)
    weighted *= weights.reshape(4 * K)
    weighted = weighted.reshape(C, 4, K)
    out = images.copy()
    out.reshape(-1)[pixels] = weighted[:, 0] + weighted[:, 1] + weighted[:, 2] + weighted[:, 3]

    def bwd(g):
        if patch.requires_grad:
            gp = np.zeros(patch.size, dtype=patch.dtype)
            gsel = g.reshape(-1).take(pixels)  # [C, K]
            flat_taps = np.arange(C)[:, None] * (P * P) + taps  # [C, 4K]
            np.add.at(gp, flat_taps.reshape(-1), (weights * gsel[:, None, :]).reshape(-1))
            T._accumulate(patch, gp.reshape(patch.shape))

    return T._node(out, (patch,), bwd)


# ---------------------------------------------------------------------------
# lazy perturbed views
# ---------------------------------------------------------------------------

@dataclass
class PerturbedView:
    """A perturbed dataset held as (base reference, perturbation, seed).

    ``spec=None`` is the clean view.  Own storage is the perturbation only,
    independent of the base dataset's size.  Placement randomness is a pure
    function of (seed, draw), so repeated materialization with the same seed
    and draw index is identical; callers vary ``draw`` to resample.
    """
    base: Dataset
    spec: PerturbationSpec | None
    seed: int = 0

    @property
    def labels(self) -> np.ndarray:
        return self.base.labels

    def materialize(self, indices, draw: int = 0) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self.base)):
            raise IndexError("index out of range")
        x = self.base.images[indices]  # fancy indexing: a new array, never a view of the base
        if self.spec is None:
            return x
        if self.spec.kind == "universal":
            return np.clip(x + self.spec.xi, 0.0, 1.0)
        rng = np.random.default_rng((self.seed, draw))
        placements = sample_placements(rng, len(indices), x.shape[2], self.spec.chi, self.spec.theta_max)
        return overlay_patch_op(x, Tensor(self.spec.xi), self.spec.chi, placements).data


def clean_view(dataset: Dataset) -> PerturbedView:
    return PerturbedView(dataset, None)


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------

class BatchSampler:
    """Without-replacement batches; the permutation is reshuffled per epoch."""

    def __init__(self, num_items: int, rng: np.random.Generator):
        if num_items < 1:
            raise ValueError("empty dataset")
        self.num_items = num_items
        self.rng = rng
        self._perm = rng.permutation(num_items)
        self._pos = 0

    def next_indices(self, size: int) -> np.ndarray:
        if size < 1:
            raise ValueError("batch size must be >= 1")
        if size > self.num_items:
            raise ValueError(f"batch size {size} exceeds dataset size {self.num_items}")
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            if self._pos == self.num_items:
                self._perm = self.rng.permutation(self.num_items)
                self._pos = 0
            take = min(size - filled, self.num_items - self._pos)
            out[filled : filled + take] = self._perm[self._pos : self._pos + take]
            self._pos += take
            filled += take
        return out


# ---------------------------------------------------------------------------
# PPM export
# ---------------------------------------------------------------------------

def to_ppm_bytes(spec: PerturbationSpec) -> bytes:
    """Render a perturbation as binary PPM (P6, maxval 255).

    Universal perturbations are shifted from [-eps, eps] into display range;
    patches are in [0, 1] already and map directly.  It needs 3 channels.
    """
    if spec.kind == "universal":
        scaled = np.round((spec.xi + spec.epsilon) / (2.0 * spec.epsilon) * 255.0)
    else:
        scaled = np.round(spec.xi * 255.0)
    img = np.clip(scaled, 0, 255).astype(np.uint8)
    c, h, w = img.shape
    if c != 3:
        raise InputShapeError(f"cannot export a {c}-channel perturbation as PPM (needs 3 channels)")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + img.transpose(1, 2, 0).tobytes()


def export_ppm(spec: PerturbationSpec, path) -> None:
    """Write the spec's PPM atomically (:func:`atomic_write`): a spec PPM cannot hold, or a failed write, leaves
    ``path`` as it was."""
    with atomic_write(path) as fh:
        fh.write(to_ppm_bytes(spec))
