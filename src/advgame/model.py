"""Classifier architectures, parameter handling, the game's mixtures, and the
binary codec of checkpoints and perturbation containers.

A model is described by a :class:`ModelConfig` (a stack of 3x3 conv blocks
followed by one fully connected layer) and carried as a flat dict of named
tensors.  A pool, a plain ``list[Classifier]``, is the one classifier type
attacks and scoring take (:func:`freeze`, :func:`single_pool`).  Both players'
losses are one :func:`mixture_loss` weighted by :func:`mixture_weights`: the
classifier's over the pooled views, the attacker's over the pool.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .tensor import Tensor

CHECKPOINT_MAGIC = b"AGCK"
ARTIFACT_DTYPES = {1: "<f4", 2: "<f8"}  # artifact version -> payload dtype, for checkpoints and perturbations alike

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
WEIGHTINGS = ("literal", "uniform")  # the modes of ``mixture_weights``, which ``TrainConfig`` and the CLI accept


class CorruptFileError(ValueError):
    """An artifact file whose bytes do not decode: truncated, padded or malformed."""


class InputShapeError(ValueError):
    """Images whose shape, or labels whose class count, differ from the model's."""


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temporary sibling of ``path`` for the body to write, then
    ``os.replace`` it onto ``path``: a reader, or a run that crashes midway,
    sees the earlier file or the whole new one, never a partial one.  When
    the body raises, the temporary file is removed and ``path`` keeps its
    earlier bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, magic: bytes, parts) -> None:
    """Write a binary artifact, atomically (:func:`atomic_write`): magic,
    little-endian u32 version, then the payload's parts in order, each
    straight to the file: ``bytes`` as they are, an array as its values in
    its own little-endian dtype, which names the version once every part is
    written (:data:`ARTIFACT_DTYPES`; arrays of two dtypes raise).  No part is
    joined to another, so a payload is never copied whole."""
    versions = {dtype: version for version, dtype in ARTIFACT_DTYPES.items()}
    found = set()
    with atomic_write(path) as fh:
        fh.write(magic + bytes(4))  # the version's place
        for part in parts:
            if not isinstance(part, bytes):
                found.add(versions.get(part.dtype.str))
            fh.write(part if isinstance(part, bytes) else np.ascontiguousarray(part))
        if len(found) != 1 or None in found:
            raise ValueError(f"an artifact's arrays must all be of one dtype in {ARTIFACT_DTYPES}")
        fh.seek(len(magic))
        fh.write(struct.pack("<I", *found))


def pack_array(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Frame an array for :func:`write_artifact`: u32 rank and u32 dims, then
    the array, which the writer stores in its own dtype, f32 or f64."""
    return struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr


def unpack_array(blob: bytes, off: int, dtype: str) -> tuple[np.ndarray, int]:
    """Inverse of :func:`pack_array` at ``off``, for a payload stored as
    ``dtype``; returns the array in the default dtype and the offset just
    past it; a NaN or inf value is malformed."""
    (rank,) = struct.unpack_from("<I", blob, off)
    shape = struct.unpack_from(f"<{rank}I", blob, off + 4)
    off += 4 + 4 * rank
    n, size = int(np.prod(shape)), np.dtype(dtype).itemsize
    if off + size * n > len(blob):
        raise ValueError(f"payload is {len(blob) - off} bytes, shape {shape} needs {size * n}")
    arr = np.frombuffer(blob, dtype=dtype, count=n, offset=off).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite value in payload")
    return arr.astype(T.get_default_dtype()), off + size * n


def read_artifact(path, magic: bytes, decode):
    """Check a binary artifact's magic and version, then ``decode(blob, 8, dtype)`` the rest, with the
    version's payload dtype, into ``(value, end)`` and return the value; malformed content, or bytes
    past ``end``, raise :class:`CorruptFileError`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:4] != magic:
            raise ValueError(f"bad magic {blob[:4]!r}, expected {magic!r}")
        (version,) = struct.unpack_from("<I", blob, 4)
        if version not in ARTIFACT_DTYPES:
            raise ValueError(f"unsupported version {version}")
        value, end = decode(blob, 8, ARTIFACT_DTYPES[version])
        if end != len(blob):
            raise ValueError(f"{len(blob) - end} trailing bytes")
        return value
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ConvSpec:
    channels: int
    kernel: int = 3
    stride: int = 1


class ParamSpec(NamedTuple):
    """One parameter: its name, shape, whether SGD trains it, and its initial
    value, U(-b, b) with b = sqrt(1 / fan_in) when ``fan_in`` is set, else ``fill``."""
    name: str
    shape: tuple[int, ...]
    trainable: bool = True
    fan_in: int = 0
    fill: float = 0.0


@dataclass(frozen=True)
class ModelConfig:
    name: str
    input_shape: tuple[int, int, int]  # (C, H, W)
    num_classes: int
    conv_layers: tuple[ConvSpec, ...]
    batchnorm: bool = True

    def __post_init__(self):
        c, h, w = self.input_shape
        if c < 1 or h < 1 or w < 1 or self.num_classes < 2:
            raise ValueError("malformed model config")
        for spec in self.conv_layers:
            if spec.channels < 1 or spec.kernel < 1 or spec.stride < 1:
                raise ValueError("malformed conv layer spec")
        if self.feature_size() < 1:
            raise ValueError("conv stack collapses the input to nothing")

    def conv_output_shape(self) -> tuple[int, int, int]:
        c, h, w = self.input_shape
        for spec in self.conv_layers:
            pad = (spec.kernel - 1) // 2
            h = (h + 2 * pad - spec.kernel) // spec.stride + 1
            w = (w + 2 * pad - spec.kernel) // spec.stride + 1
            c = spec.channels
        return c, h, w

    def feature_size(self) -> int:
        c, h, w = self.conv_output_shape()
        return c * h * w

    def param_specs(self) -> list[ParamSpec]:
        """Every parameter in build and checkpoint order: the one place that decides
        their names, shapes, trainability and initialization."""
        specs, in_c = [], self.input_shape[0]
        for i, conv in enumerate(self.conv_layers):
            c = (conv.channels,)
            specs += [ParamSpec(f"conv{i}.weight", (conv.channels, in_c, conv.kernel, conv.kernel),
                                fan_in=in_c * conv.kernel * conv.kernel), ParamSpec(f"conv{i}.bias", c)]
            if self.batchnorm:
                specs += [ParamSpec(f"bn{i}.gamma", c, fill=1.0), ParamSpec(f"bn{i}.beta", c),
                          ParamSpec(f"bn{i}.running_mean", c, False),
                          ParamSpec(f"bn{i}.running_var", c, False, fill=1.0)]
            in_c = conv.channels
        fan_in = self.feature_size()
        return specs + [ParamSpec("fc.weight", (fan_in, self.num_classes), fan_in=fan_in),
                        ParamSpec("fc.bias", (self.num_classes,))]

    def check_input_shape(self, image_shape, num_classes: int) -> None:
        if tuple(image_shape) != self.input_shape or num_classes != self.num_classes:
            raise InputShapeError(f"the model takes {self.input_shape} images of {self.num_classes} classes, "
                                  f"the data has {tuple(image_shape)} images of {num_classes} classes")

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "conv_layers": [[s.channels, s.kernel, s.stride] for s in self.conv_layers],
            "batchnorm": self.batchnorm,
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        obj = json.loads(text)
        return ModelConfig(
            name=obj["name"],
            input_shape=tuple(obj["input_shape"]),
            num_classes=obj["num_classes"],
            conv_layers=tuple(ConvSpec(*row) for row in obj["conv_layers"]),
            batchnorm=obj["batchnorm"],
        )


def tiny_config(side: int = 16, num_classes: int = 10) -> ModelConfig:
    """Desk-scale model of RGB images: two strided conv blocks and a classifier head."""
    return ModelConfig(
        name="tiny",
        input_shape=(3, side, side),
        num_classes=num_classes,
        conv_layers=(ConvSpec(8, 3, 2), ConvSpec(16, 3, 2)),
        batchnorm=False,
    )


def paper_vgg_config(num_classes: int = 10) -> ModelConfig:
    """VGG-style stack for 32x32 RGB input: strided convs instead of pooling."""
    widths = [(64, 1), (64, 1), (128, 2), (128, 1), (128, 1),
              (256, 2), (256, 1), (256, 1), (512, 2), (512, 1), (512, 1)]
    return ModelConfig(
        name="paper-vgg",
        input_shape=(3, 32, 32),
        num_classes=num_classes,
        conv_layers=tuple(ConvSpec(c, 3, s) for c, s in widths),
        batchnorm=True,
    )


def build_model(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Initialize the parameters of :meth:`ModelConfig.param_specs`, drawing the
    fan-in-scaled uniform ones in its order; biases start at zero."""
    rng = np.random.default_rng(seed)
    dtype = T.get_default_dtype()
    params: dict[str, Tensor] = {}
    for spec in config.param_specs():
        if spec.fan_in:
            bound = np.sqrt(1.0 / spec.fan_in)
            value = rng.uniform(-bound, bound, spec.shape).astype(dtype, copy=False)
        else:
            value = np.full(spec.shape, spec.fill, dtype=dtype)
        params[spec.name] = Tensor(value, requires_grad=spec.trainable)
    return params


def forward(config: ModelConfig, params: dict[str, Tensor], batch, mode: str = "infer") -> Tensor:
    """Run the network and return logits [B, num_classes].

    Train mode normalizes with batch statistics and advances the running
    buffers; infer mode reads the running buffers and leaves them untouched.
    """
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    if x.data.ndim != 4:
        raise InputShapeError(f"batch shape {x.shape} is not (B, C, H, W)")
    config.check_input_shape(x.shape[1:], config.num_classes)  # a batch carries no labels
    for i in range(len(config.conv_layers)):
        spec = config.conv_layers[i]
        x = T.conv2d(x, params[f"conv{i}.weight"], params[f"conv{i}.bias"], stride=spec.stride, padding="same")
        if config.batchnorm:
            x = T.batchnorm(
                x,
                params[f"bn{i}.gamma"],
                params[f"bn{i}.beta"],
                params[f"bn{i}.running_mean"],
                params[f"bn{i}.running_var"],
                mode=mode,
                momentum=BN_MOMENTUM,
                eps=BN_EPS,
            )
        x = T.relu(x)
    x = T.reshape(x, (x.shape[0], config.feature_size()))
    return T.dense(x, params["fc.weight"], params["fc.bias"])


def trainable_names(params: dict[str, Tensor]) -> list[str]:
    return [name for name, p in params.items() if p.requires_grad]


# ---------------------------------------------------------------------------
# mixtures and classifier pools
# ---------------------------------------------------------------------------

class Classifier(NamedTuple):
    """One member of a pool: a model config and the parameters it runs on."""
    config: ModelConfig
    params: dict[str, Tensor]


def freeze(config: ModelConfig, params: dict[str, Tensor]) -> Classifier:
    """The classifier as it is now: read-only copies of the arrays, as constants."""
    copies = {name: p.data.copy() for name, p in params.items()}
    for arr in copies.values():
        arr.setflags(write=False)
    return Classifier(config, {name: Tensor(arr) for name, arr in copies.items()})


def single_pool(config: ModelConfig, params: dict[str, Tensor]) -> list[Classifier]:
    """The live classifier as a pool of one, whose mixture is that classifier.

    The member wraps the live arrays, not copies, as constants: the optimizer
    and batchnorm update them in place, so a pool built once follows
    training, and nothing scored through it keeps a backward graph alive.
    """
    return [Classifier(config, {name: Tensor(p.data) for name, p in params.items()})]


def mixture_weights(n: int, mode: str = "literal") -> np.ndarray:
    """Weights of a mixture over the plays 0..n-1, for either player.

    Literal mode expands the nested average of historical losses, where the
    i-th historical loss averages the first i plays (the 0th is the first
    play alone): play j's aggregate weight collects a 1/i share from every
    later historical term.  Uniform mode weights the plays equally.  n=0
    (no play yet) puts weight 1 on the first.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if mode not in WEIGHTINGS:
        raise ValueError(f"mode must be one of {', '.join(WEIGHTINGS)}")
    count = max(n, 1)
    if mode == "uniform":
        return np.full(count, 1.0 / count)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])  # H_0..H_n
    weights = harmonic[n] - harmonic[:count]   # (H_n - H_j + [j = 0]) / (n + 1)
    weights[0] += 1.0
    return weights / (n + 1)


def mixture_loss(logits, labels, weights) -> Tensor:
    """The one weighted cross-entropy sum, sum_j w_j * CE(logits_j, labels), over ``logits`` in order;
    from a generator, each forward runs only as its term is added."""
    total = None
    for w, member in zip(weights, logits):
        term = T.mul(T.softmax_cross_entropy(member, labels), float(w))
        total = term if total is None else T.add(total, term)
    return total


def _member_logits(pool: list[Classifier], batch):
    """Each member's infer-mode logits on the batch, computed one at a time."""
    if len(pool) == 0:
        raise ValueError("classifier pool is empty")
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    return (forward(m.config, m.params, x, "infer") for m in pool)


def pool_expected_loss(pool: list[Classifier], batch, labels, target: int | None = None, lam: float = 0.0) -> Tensor:
    """The pool's uniform mixture loss, differentiable in the batch: the expected
    loss of a classifier drawn uniformly from the pool, which the perturbation
    player maximizes.  At ``lam`` > 0 it is ``(1 - lam) * mixture(labels) - lam
    * mixture(target)``, the fixed-class patch objective; both mixtures read one
    forward per member.  Its input gradient has the bits of the scaled sum
    ``(sum CE) * (1/n)``: backward hands each member the same 1/n, in order.
    """
    logits = list(_member_logits(pool, batch))
    weights = mixture_weights(len(pool), "uniform")
    if lam == 0.0:
        return mixture_loss(logits, labels, weights)
    term = T.mul(mixture_loss(logits, np.full(len(labels), target, dtype=np.int64), weights), -lam)
    return term if lam == 1.0 else T.add(T.mul(mixture_loss(logits, labels, weights), 1.0 - lam), term)


def pool_predict(pool: list[Classifier], batch) -> np.ndarray:
    """Argmax of the members' softmax probabilities averaged over the pool;
    ties go to the lowest class id.  Scoring runs no loss for ``backward`` to
    check, so a NaN or Inf probability raises ``NonFiniteError`` here."""
    probs = sum(np.exp(T.log_softmax(logits.data)) for logits in _member_logits(pool, batch)) / len(pool)
    if not np.all(np.isfinite(probs)):
        raise T.NonFiniteError("class probabilities are not finite")
    return np.argmax(probs, axis=1)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(path, config: ModelConfig, params: dict[str, Tensor]) -> None:
    """Write a versioned checkpoint: header, config, then named tensors in their own dtype, f32 or f64."""
    cfg = config.to_json().encode("utf-8")
    parts = [struct.pack("<I", len(cfg)) + cfg + struct.pack("<I", len(params))]
    for name, p in params.items():
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)) + encoded, *pack_array(p.data)]
    write_artifact(path, CHECKPOINT_MAGIC, parts)


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, Tensor]]:
    return read_artifact(path, CHECKPOINT_MAGIC, _decode_checkpoint)


def _decode_checkpoint(blob: bytes, off: int, dtype: str) -> tuple[tuple[ModelConfig, dict[str, Tensor]], int]:
    (cfg_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    config = ModelConfig.from_json(blob[off : off + cfg_len].decode("utf-8"))
    off += cfg_len
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    specs = config.param_specs()
    if count != len(specs):
        raise ValueError(f"{count} tensors where the config has {len(specs)}")
    params: dict[str, Tensor] = {}
    for spec in specs:
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off : off + name_len].decode("utf-8")
        data, off = unpack_array(blob, off + name_len, dtype)
        if name != spec.name or data.shape != spec.shape:
            raise ValueError(f"tensor {name!r} of shape {data.shape} where the config has {spec.name!r} {spec.shape}")
        params[name] = Tensor(data, requires_grad=spec.trainable)
    return (config, params), off
