"""Minimal reverse-mode automatic differentiation on numpy arrays.

The engine is define-by-run: every primitive op builds a fresh graph node
holding the forward value, references to its inputs, and a closure that
propagates the upstream gradient to those inputs.  Graphs are tiny (tens of
nodes per forward pass), so the tape is simply the node graph itself and is
rebuilt on every call.

All gradient math is float64 by default; float32 arrays are accepted and
propagated unchanged for cheaper training runs.  A node's gradient buffer is
created by its first contribution, in one pass, in the node's dtype and
memory layout.  Elementwise ops take operands of one shape; nothing
broadcasts.  Ops take tensors only: an array enters a graph only through
``Tensor(...)``, which is where it is checked.

A closure keeps only what its backward reads.  ``conv2d`` converts between
images and im2col columns through one int window index per padded geometry
(height, width, channels, kernel, stride, buffer layout), cached for the
life of the process and independent of the batch size: a ``take`` gathers
the columns, and a per-image ``np.add.at`` over the reversed index scatters
their gradients back in the (ky, kx) order a per-tap loop would add them,
so the output and both gradients keep the bits of the NCHW reference the
tests compare against.  Its backward keeps no columns; the kernel gradient
re-gathers them from the input, which the graph holds anyway, so a graph
holds no conv array larger than the conv's output.  Every GEMM forward and
the input gradient build their columns and multiply them a few whole images
at a time, at most ``_CONV_GROUP_MAX_ELEMS`` column elements; only the
kernel gradient's GEMM, whose bits need every row, takes the whole batch's
columns, for the length of that GEMM.

:func:`sgd_momentum_step` runs its formula over flat slices of
``_SGD_CHUNK`` elements, so each slice stays in cache through its passes.

Every array is released at its last use.  An op whose inputs all need no
gradient keeps neither its inputs nor its backward, so an inference forward
frees each activation once the next op has read it.  :func:`backward`
releases each node as the pass leaves it: once the node's closure has run,
the node drops that closure with the arrays it saved (relu and clip masks,
batchnorm's ``x_hat``, cross-entropy's ``log_p``), its gradient unless it
is a leaf, and its parents, and the pass holds it no more.  So a training
step's activations go layer by layer while its backward runs, and the
next step's forwards never run beside the last step's graph.  The buffer of
each ``wrt`` leaf goes to the caller's ``on_grad``, the only way a ``wrt``
gradient leaves, as soon as its last consumer has run, so an optimizer step
can update that parameter, and drop its gradient, while the pass goes on
below it.  So a graph is backpropagated once, and after the pass its loss
holds its value alone.  The memory a step frees stays in the process for
the next step only under the heap policy that ``advgame.cli.main`` sets
(``keep_freed_heap``); under glibc's default thresholds the heap is handed
back to the system and faulted in again every step.

Finiteness is checked at the edges of a graph, not at every node: a
``Tensor`` built by a caller (an input batch, a parameter, a perturbation)
rejects NaN and Inf, :func:`backward` rejects a non-finite loss, and
:func:`sgd_momentum_step` rejects a parameter the update made non-finite.
An op's output is not scanned; a NaN or Inf it produces reaches the loss.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np


class NonFiniteError(FloatingPointError):
    """A NaN or Inf where the engine checks for one: in a caller-built
    :class:`Tensor`, in the loss given to :func:`backward`, or in a parameter
    after :func:`sgd_momentum_step`.  Outside the engine, scoring's class
    probabilities and every perturbation are checked too."""


_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Set the dtype used when wrapping non-float data (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return _DEFAULT_DTYPE


class Tensor:
    """An n-dimensional array plus the bookkeeping needed for backprop.

    A tensor built by a caller rejects NaN and Inf values; an op's output
    (built by :func:`_node`, which always passes a parents tuple, empty
    when no input requires a gradient) is not scanned, since a non-finite
    value there reaches the loss that :func:`backward` checks.

    ``grad`` is cleared by :func:`backward`, then created (as a plain
    ndarray, with the dtype and layout of ``data``) by the first gradient
    contribution; it stays ``None`` on a node the loss does not reach.
    After the pass only a leaf not named in ``wrt`` still holds it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, *, _parents=None, _backward_fn=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        if _parents is None:
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError("tensor contains non-finite values")
            _parents = ()
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = _parents
        self._backward_fn: Callable[[np.ndarray], None] | None = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """An op's output, never scanned for finiteness.  It keeps its parents
    and ``backward_fn`` (with what the closure saved) only when a parent
    requires a gradient; otherwise it holds its data alone, so nothing it
    was computed from outlives the op."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data, _parents=())


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add one gradient contribution to ``t.grad``.  The first creates the
    buffer in one pass as ``g + 0.0`` written into ``empty_like(t.data)``,
    the bits of ``zeros_like(t.data) + g`` (``-0.0`` becomes ``+0.0`` in
    both), never ``g`` itself: ``g`` may be a shared or read-only view, and
    a buffer of another dtype or layout would change how later reductions
    round."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the grad-requiring subgraph."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(
    loss: Tensor,
    wrt: Mapping[str, Tensor] | None = None,
    on_grad: Callable[[str, np.ndarray], None] | None = None,
) -> None:
    """Backpropagate from a scalar loss through its graph, once.

    Sums every consumer's contribution into the ``grad`` of each
    grad-requiring node reachable from ``loss``.  The pass releases each
    node as it leaves it: once the node's backward closure has run, the node
    drops it, with the arrays it saved, its ``grad`` unless it is a leaf,
    and its parents, so its data goes unless the caller holds the node.
    After the pass ``loss._parents`` is empty and only leaves hold a
    ``grad``.  A second pass over the same graph propagates nothing.

    ``wrt`` names leaves, each under one name, and needs ``on_grad``: each
    leaf's gradient leaves only as ``on_grad(name, grad)``, as soon as the
    backward of its last reader has run (the earliest in
    :func:`_topo_order`'s post-order, counted once however often it reads
    the leaf).  The leaf is left with ``grad`` ``None``, so the buffer lives
    as long as the callee keeps it.  A leaf the loss does not depend on gets
    zeros at the end, even when an earlier pass gave it a gradient.  An
    exception from ``on_grad`` stops the pass.  A leaf outside ``wrt`` keeps
    its ``grad``.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("loss is not finite")
    targets = wrt or {}
    if targets and on_grad is None:
        raise ValueError("backward hands wrt gradients out only through on_grad")
    names: dict[int, str] = {}
    for name, p in targets.items():
        if p._parents:
            raise ValueError(f"wrt tensor {name!r} is not a leaf")
        if names.setdefault(id(p), name) != name:
            raise ValueError(f"wrt names one tensor twice: {names[id(p)]!r} and {name!r}")
    order = _topo_order(loss)
    for node in (*order, *targets.values()):
        node.grad = None
    # each wrt leaf's gradient is final once its last reader in the pass, the earliest in the post-order, has run
    last_reader = {id(p): i for i in reversed(range(len(order))) for p in order[i]._parents if id(p) in names}

    def hand(p: Tensor) -> None:
        g, p.grad = p.grad, None
        on_grad(names.pop(id(p)), g if g is not None else np.zeros_like(p.data))

    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        while order:
            # its consumers ran first and dropped their parents, so once this node's own run is over and ``order``
            # lets go of it, nothing in the graph holds it
            node = order.pop()
            i = len(order)
            fn, node._backward_fn = node._backward_fn, None
            if fn is not None:
                fn(node.grad)
                fn = node.grad = None  # the closure, and what it saved, goes before the handover below
                for p in node._parents:
                    if id(p) in names and last_reader[id(p)] == i:
                        hand(p)
            node._parents = ()
    for p in targets.values():
        if id(p) in names:
            hand(p)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; nothing broadcasts."""
    if a.shape != b.shape:
        raise ValueError(f"add of shapes {a.shape} and {b.shape}; nothing broadcasts")

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` is a python scalar or a Tensor of ``a``'s shape."""
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ValueError(f"mul of shapes {a.shape} and {b.shape}; nothing broadcasts")

        def bwd(g):
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)

        return _node(a.data * b.data, (a, b), bwd)
    scale = b

    def bwd(g):
        _accumulate(a, g * scale)

    return _node(a.data * scale, (a,), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all entries, returned as a scalar tensor."""

    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(np.asarray(a.data.sum()), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.shape

    def bwd(g):
        _accumulate(a, g.reshape(old_shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where the input was in range."""
    mask = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        _accumulate(a, g * mask)

    return _node(np.clip(a.data, lo, hi), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is defined as 0."""
    mask = a.data > 0

    def bwd(g):
        _accumulate(a, g * mask)

    return _node(np.maximum(a.data, 0), (a,), bwd)


def dense(inp: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer: out[b,o] = sum_i inp[b,i] w[i,o] + bias[o]."""
    if inp.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ValueError("dense expects input [B,I], weight [I,O], bias [O]")
    if inp.shape[1] != weight.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ValueError(f"dense shape mismatch: {inp.shape} x {weight.shape} + {bias.shape}")
    out_data = inp.data @ weight.data + bias.data

    def bwd(g):
        if inp.requires_grad:
            _accumulate(inp, g @ weight.data.T)
        if weight.requires_grad:
            _accumulate(weight, inp.data.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    return _node(out_data, (inp, weight, bias), bwd)


def _conv_pad(k: int, padding: str) -> int:
    if padding == "valid":
        return 0
    if padding == "same":
        return (k - 1) // 2
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


# the order-exact loop kernel covers the oracle envelope (spatial <= 8x8, C <= 3)
_CONV_LOOP_MAX_HW = 64
_CONV_LOOP_MAX_C = 3
# column elements of one image group, 4 MB in float64: the forward's and the input gradient's columns are built
# and multiplied a group at a time, whole images per group, so their memory does not grow with the batch
_CONV_GROUP_MAX_ELEMS = 1 << 19

# (Hp, Wp, C, k, stride, channels_last) -> window index: one read-only entry per padded geometry and buffer
# layout, whatever the batch size, so a model adds at most one entry per conv layer
_WINDOW_INDEX: dict[tuple[int, int, int, int, int, bool], np.ndarray] = {}


def _window_index(Hp: int, Wp: int, C: int, k: int, stride: int, channels_last: bool) -> np.ndarray:
    """Read-only int index [Ho*Wo, C*k*k] into one flattened padded image,
    channel-last [Hp, Wp, C] or channel-first [C, Hp, Wp]: row (ho, wo),
    column (c, ky, kx) holds the offset of pixel (ho*stride + ky,
    wo*stride + kx) of channel c."""
    key = (Hp, Wp, C, k, stride, channels_last)
    idx = _WINDOW_INDEX.get(key)
    if idx is None:
        Ho, Wo = (Hp - k) // stride + 1, (Wp - k) // stride + 1
        ys = np.arange(Ho)[:, None, None, None, None] * stride + np.arange(k)[:, None]
        xs = np.arange(Wo)[:, None, None, None] * stride + np.arange(k)
        cs = np.arange(C)[:, None, None]
        pixels = ys * Wp + xs
        idx = pixels * C + cs if channels_last else cs * (Hp * Wp) + pixels
        idx = idx.reshape(Ho * Wo, C * k * k)
        idx.flags.writeable = False
        _WINDOW_INDEX[key] = idx
    return idx


def _image_groups(B: int, image_elems: int) -> list[slice]:
    """Consecutive slices of a batch of ``B`` images, each image with
    ``image_elems`` column elements: whole images, at most
    ``_CONV_GROUP_MAX_ELEMS`` column elements a slice, or one image when
    one holds more."""
    n = max(1, _CONV_GROUP_MAX_ELEMS // image_elems)
    return [slice(b0, min(b0 + n, B)) for b0 in range(0, B, n)]


def _padded(data: np.ndarray, pad: int, channels_last: bool) -> np.ndarray:
    """``data`` [B, C, H, W] copied into a zero-padded buffer, channel-last
    [B, Hp, Wp, C] or channel-first [B, C, Hp, Wp]."""
    B, C, H, W = data.shape
    Hp, Wp = H + 2 * pad, W + 2 * pad
    x = np.zeros((B, Hp, Wp, C) if channels_last else (B, C, Hp, Wp), dtype=data.dtype)
    x_nchw = x.transpose(0, 3, 1, 2) if channels_last else x
    x_nchw[:, :, pad : pad + H, pad : pad + W] = data
    return x


def conv2d(inp: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: str = "valid") -> Tensor:
    """2-d cross-correlation over [B,C,H,W] with kernel [F,C,k,k].

    The input is copied once into a zero-padded buffer in its own memory
    order, so the copy never transposes: channel-first [B, C, Hp, Wp] for a
    C-contiguous batch (the image layer), channel-last [B, Hp, Wp, C]
    otherwise (a GEMM layer's output, whose memory is NHWC).  im2col gathers
    its columns through the window index of the padded geometry and layout
    (:func:`_window_index`), built once and shared by every batch size:
    rows (b, ho, wo), columns (c, ky, kx) in either layout.  For small
    spatial inputs the forward's accumulation order over (c, ky, kx) is
    fixed, so the result is bit-identical to a nested-loop evaluation in the
    same order; larger inputs take an im2col/GEMM forward.

    The GEMM forward multiplies one group of images at a time
    (:func:`_image_groups`) into one preallocated [B, Ho*Wo, F] output, and
    each group gathers its own columns, so no whole-batch column matrix is
    built.  Each group's GEMM is 2-D; the paper's VGG shapes keep their bits
    down to one image a group, and smaller shapes, whose bits can move with
    the row count, fit in one group.

    Both paths share one backward, which keeps no columns and never keeps
    the padded buffer.  The kernel gradient is one GEMM over the whole
    batch's columns, which it re-gathers from the input (a parent of the
    node, alive as long as the graph) and drops once the GEMM is done: it
    reduces over the rows, so splitting it would change its bits.  The
    input gradient's columns are formed by image group, and col2im scatters
    each image's column gradients back through the same index with
    ``np.add.at``, walking the windows in reverse memory order: a pixel's
    window rows then come by descending (ho, wo), that is by ascending
    (ky, kx), so every pixel sums its contributions in the (ky, kx) order of
    a per-tap strided loop.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if inp.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError("conv2d expects input [B,C,H,W] and kernel [F,C,k,k]")
    B, C, H, W = inp.shape
    F, Ck, kh, kw = kernel.shape
    if Ck != C or kh != kw:
        raise ValueError(f"kernel {kernel.shape} does not match input channels {C} or is not square")
    if bias.shape != (F,):
        raise ValueError(f"bias shape {bias.shape} != ({F},)")
    k = kh
    pad = _conv_pad(k, padding)
    Hp, Wp = H + 2 * pad, W + 2 * pad
    if k > Hp or k > Wp:
        raise ValueError(f"kernel {k} larger than padded input {Hp}x{Wp}")
    Ho = (Hp - k) // stride + 1
    Wo = (Wp - k) // stride + 1

    channels_last = not inp.data.flags.c_contiguous
    x = _padded(inp.data, pad, channels_last)
    images = x.reshape(B, -1)
    idx = _window_index(Hp, Wp, C, k, stride, channels_last)
    groups = _image_groups(B, idx.size)
    kmat = kernel.data.reshape(F, -1)

    if H * W <= _CONV_LOOP_MAX_HW and C <= _CONV_LOOP_MAX_C:
        x_nchw = x.transpose(0, 3, 1, 2) if channels_last else x
        out = np.zeros((B, F, Ho, Wo), dtype=x.dtype)
        for c in range(C):
            for ky in range(k):
                for kx in range(k):
                    patch = x_nchw[:, c, ky : ky + stride * Ho : stride, kx : kx + stride * Wo : stride]
                    out += patch[:, None] * kernel.data[None, :, c, ky, kx, None, None]
        out = out + bias.data[None, :, None, None]
    else:
        flat = np.empty((B, Ho * Wo, F), dtype=x.dtype)
        for s in groups:
            np.matmul(images[s].take(idx, axis=1).reshape(-1, C * k * k), kmat.T, out=flat[s].reshape(-1, F))
        out = flat.reshape(B, Ho, Wo, F).transpose(0, 3, 1, 2) + bias.data[None, :, None, None]

    def bwd(g):
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        g2 = g.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, F)
        if kernel.requires_grad:
            # the whole batch's columns, gathered again from the input the graph holds, go before the input gradient
            cols = _padded(inp.data, pad, channels_last).reshape(B, -1).take(idx, axis=1).reshape(-1, C * k * k)
            _accumulate(kernel, (g2.T @ cols).reshape(F, C, k, k))
            del cols
        if inp.requires_grad:
            g3 = g2.reshape(B, Ho * Wo, F)
            gx = np.zeros((B, Hp * Wp * C), dtype=inp.data.dtype)
            back = idx.ravel()[::-1]
            for s in groups:
                gcols = (g3[s].reshape(-1, F) @ kmat).reshape(s.stop - s.start, -1)
                # one add.at per image: one call over the group with a flat index is bit-identical and no faster
                # (numpy 2.4): 0.15-0.41 ms against the loop's 0.20-0.36 at 64x8x8x8, 9.0-12.1 against 4.7-5.2 at
                # 4x64x32x32
                for gx_b, gcols_b in zip(gx[s], gcols):
                    np.add.at(gx_b, back, gcols_b[::-1])
            gx = gx.reshape(B, Hp, Wp, C).transpose(0, 3, 1, 2) if channels_last else gx.reshape(B, C, Hp, Wp)
            _accumulate(inp, gx[:, :, pad : pad + H, pad : pad + W])

    return _node(out, (inp, kernel, bias), bwd)


def batchnorm(
    inp: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    mode: str = "train",
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over [B,C,H,W].

    Train mode normalizes with batch statistics and updates the running
    buffers in place via ``running <- momentum * running + (1-momentum) * batch``.
    Infer mode normalizes with the running buffers.
    """
    if inp.data.ndim != 4:
        raise ValueError("batchnorm expects input [B,C,H,W]")
    B, C, H, W = inp.shape
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ValueError("gamma/beta must have shape (C,)")
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")

    x = inp.data
    if mode == "train":
        if B < 2:
            raise ValueError("batchnorm train mode requires batch size >= 2")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean.data[...] = momentum * running_mean.data + (1.0 - momentum) * mean
        running_var.data[...] = momentum * running_var.data + (1.0 - momentum) * var
    else:
        mean = running_mean.data
        var = running_var.data

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=(0, 2, 3)))
        if inp.requires_grad:
            gs = g * gamma.data[None, :, None, None]
            if mode == "train":
                mean_gs = gs.mean(axis=(0, 2, 3))
                mean_gs_xhat = (gs * x_hat).mean(axis=(0, 2, 3))
                gx = inv_std[None, :, None, None] * (
                    gs - mean_gs[None, :, None, None] - x_hat * mean_gs_xhat[None, :, None, None]
                )
            else:
                gx = gs * inv_std[None, :, None, None]
            _accumulate(inp, gx)

    return _node(out, (inp, gamma, beta), bwd)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis (plain numpy)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Backward produces (softmax - onehot) / B on the logits.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError("softmax_cross_entropy expects logits [B,C]")
    B, C = logits.shape
    if labels.shape != (B,):
        raise ValueError(f"labels shape {labels.shape} != ({B},)")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"labels must be in [0, {C}), got range [{labels.min()}, {labels.max()}]")
    log_p = log_softmax(logits.data)
    loss = -log_p[np.arange(B), labels].mean()

    def bwd(g):
        softmax = np.exp(log_p)
        softmax[np.arange(B), labels] -= 1.0
        _accumulate(logits, g * softmax / B)

    return _node(np.asarray(loss), (logits,), bwd)


# ---------------------------------------------------------------------------
# optimizer step
# ---------------------------------------------------------------------------

# elements per slice of the momentum step: one slice of each array stays in cache through the formula's passes
_SGD_CHUNK = 1 << 15


def sgd_momentum_step(
    name: str,
    param: Tensor,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> None:
    """One SGD step with momentum and L2 regularization of ``name``, in place.

    v <- momentum * v + (grad + weight_decay * param); param <- param - lr * v.
    ``param`` and the ``velocity`` the caller holds for it (zeros before the
    first step) are updated in place, ``grad`` only read, with the formula's
    exact bits.  The formula runs over flat slices of ``_SGD_CHUNK`` elements
    through one step buffer; every pass is elementwise, so the split keeps
    the bits.  A parameter and its velocity must be C-contiguous, so that
    their flat views are the arrays themselves, never a copy.  A parameter
    the update leaves non-finite raises :class:`NonFiniteError`, naming it,
    once the whole parameter has been updated.
    """
    if lr < 0:
        raise ValueError("lr must be nonnegative")
    if grad.shape != param.shape:
        raise ValueError(f"grad shape {grad.shape} != param shape {param.shape} for {name!r}")
    if velocity.shape != param.shape:
        raise ValueError(f"velocity shape {velocity.shape} != param shape {param.shape} for {name!r}")
    if not (param.data.flags.c_contiguous and velocity.flags.c_contiguous):
        raise ValueError(f"param and velocity of {name!r} must be C-contiguous")
    flat_p, flat_g, flat_v = param.data.reshape(-1), grad.reshape(-1), velocity.reshape(-1)
    buf = np.empty(min(flat_p.size, _SGD_CHUNK), dtype=param.data.dtype)
    finite = True
    for i in range(0, flat_p.size, _SGD_CHUNK):
        pc, vc = flat_p[i : i + _SGD_CHUNK], flat_v[i : i + _SGD_CHUNK]
        step = np.multiply(weight_decay, pc, out=buf[: pc.size])
        step += flat_g[i : i + _SGD_CHUNK]
        vc *= momentum
        vc += step
        np.multiply(vc, lr, out=step)
        pc -= step
        finite = finite and bool(np.isfinite(pc).all())
    if not finite:
        raise NonFiniteError(f"parameter {name!r} is not finite after the update")
