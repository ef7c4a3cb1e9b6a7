import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advgame import evaluation as E
from advgame import model as M
from advgame import tensor as T
from advgame.tensor import (
    NonFiniteError,
    Tensor,
    add,
    backward,
    batchnorm,
    clip,
    conv2d,
    dense,
    mul,
    relu,
    sgd_momentum_step,
    softmax_cross_entropy,
    tensor_sum,
)
from gradcheck import finite_difference_gradient, relative_gradient_error


def conv2d_oracle(x, kernel, bias, stride, padding):
    """Nested-loop cross-correlation; accumulation order (c, ky, kx)."""
    B, C, H, W = x.shape
    F, _, k, _ = kernel.shape
    pad = 0 if padding == "valid" else (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    out = np.zeros((B, F, Ho, Wo), dtype=x.dtype)
    for b in range(B):
        for f in range(F):
            for ho in range(Ho):
                for wo in range(Wo):
                    acc = 0.0
                    for c in range(C):
                        for ky in range(k):
                            for kx in range(k):
                                acc += xp[b, c, ho * stride + ky, wo * stride + kx] * kernel[f, c, ky, kx]
                    out[b, f, ho, wo] = acc
    return out + bias[None, :, None, None]


class TestDense:
    def test_identity(self):
        out = dense(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_simple(self):
        out = dense(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        assert np.array_equal(out.data, [[6.0]])

    def test_bias_grad_is_ones(self):
        bias = Tensor([0.0, 0.0], requires_grad=True)
        out = dense(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(np.zeros((2, 2))), bias)
        backward(tensor_sum(out))
        assert np.array_equal(bias.grad, [1.0, 1.0] * np.ones(2) * 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), Tensor([0.0]), stride=1, padding="valid")
        assert np.array_equal(out.data, x)

    def test_zero_kernel_gives_bias(self):
        x = np.random.default_rng(0).random((2, 3, 5, 5))
        out = conv2d(Tensor(x), Tensor(np.zeros((4, 3, 3, 3))), Tensor([1.0, 2.0, 3.0, 4.0]), 1, "same")
        for f, b in enumerate([1.0, 2.0, 3.0, 4.0]):
            assert np.all(out.data[:, f] == b)

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 1, 4, 4))
        k = rng.standard_normal((1, 1, 3, 3))
        b = rng.standard_normal(1)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), 1, "valid")
        assert np.array_equal(out.data, conv2d_oracle(x, k, b, 1, "valid"))

    @pytest.mark.parametrize("shape,fk,stride,padding", [
        ((1, 1, 3, 3), 1, 1, "valid"),
        ((2, 3, 8, 8), 4, 1, "same"),
        ((2, 3, 8, 8), 2, 2, "same"),
        ((2, 2, 7, 5), 3, 2, "valid"),
        ((1, 3, 8, 8), 5, 3, "same"),
    ])
    def test_oracle_exact_over_shapes(self, shape, fk, stride, padding):
        rng = np.random.default_rng(hash((shape, fk, stride, padding)) % 2**32)
        x = rng.standard_normal(shape)
        k = rng.standard_normal((fk, shape[1], 3, 3))
        b = rng.standard_normal(fk)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding)
        assert np.array_equal(out.data, conv2d_oracle(x, k, b, stride, padding))

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (3, "valid")])
    def test_gemm_path_matches_loop_path(self, stride, padding):
        # 12x12 input exceeds the loop-path envelope; compare against it directly
        rng = np.random.default_rng(99)
        x = rng.standard_normal((2, 3, 12, 12))
        kern = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        fast = conv2d(Tensor(x), Tensor(kern), Tensor(b), stride, padding)
        assert np.allclose(fast.data, conv2d_oracle(x, kern, b, stride, padding), rtol=1e-12, atol=1e-12)

    def test_gemm_path_gradients(self):
        rng = np.random.default_rng(98)
        x0 = rng.standard_normal((1, 2, 10, 10))
        k0 = rng.standard_normal((2, 2, 3, 3))
        b0 = rng.standard_normal(2)
        weights = Tensor(rng.standard_normal((1, 2, 5, 5)))

        def loss(x, k, b):
            return tensor_sum(mul(conv2d(x, k, b, 2, "same"), weights))

        for build, val in [
            (lambda a: loss(a, Tensor(k0), Tensor(b0)), x0),
            (lambda a: loss(Tensor(x0), a, Tensor(b0)), k0),
            (lambda a: loss(Tensor(x0), Tensor(k0), a), b0),
        ]:
            t = Tensor(val, requires_grad=True)
            T.backward(build(t))
            fd = finite_difference_gradient(lambda a: float(build(Tensor(a)).data), val)
            assert relative_gradient_error(t.grad, fd) < 1e-4

    def test_stride_error(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0]), 0, "valid")

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0]), 1, "valid")


def conv2d_nchw_reference(x, kernel, bias, stride, padding, g):
    """conv2d as the engine computed it on an NCHW buffer: ``np.pad``, an NCHW
    im2col and a strided NCHW col2im scatter.  Returns the forward output and,
    for the upstream gradient ``g``, the kernel and input gradients."""
    B, C, H, W = x.shape
    F, _, k, _ = kernel.shape
    pad = 0 if padding == "valid" else (k - 1) // 2
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(B * Ho * Wo, C * k * k)
    if H * W <= 64 and C <= 3:
        out = np.zeros((B, F, Ho, Wo), dtype=xp.dtype)
        for c in range(C):
            for ky in range(k):
                for kx in range(k):
                    patch = xp[:, c, ky : ky + stride * Ho : stride, kx : kx + stride * Wo : stride]
                    out += patch[:, None] * kernel[None, :, c, ky, kx, None, None]
        out = out + bias[None, :, None, None]
    else:
        flat = cols @ kernel.reshape(F, -1).T
        out = flat.reshape(B, Ho, Wo, F).transpose(0, 3, 1, 2) + bias[None, :, None, None]
    g2 = g.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, F)
    gk = (g2.T @ cols).reshape(F, C, k, k)
    gcols = (g2 @ kernel.reshape(F, -1)).reshape(B, Ho, Wo, C, k, k).transpose(0, 3, 1, 2, 4, 5)
    gx = np.zeros_like(xp)
    for ky in range(k):
        for kx in range(k):
            gx[:, :, ky : ky + stride * Ho : stride, kx : kx + stride * Wo : stride] += gcols[..., ky, kx]
    return out, gk, gx[:, :, pad : pad + H, pad : pad + W]


BITS_SHAPES = [((2, 3, 8, 8), "loop-C3"), ((2, 3, 12, 12), "gemm-C3"), ((2, 8, 8, 8), "gemm-C8"),
               ((2, 3, 9, 12), "gemm-C3-9x12")]


class TestConv2dBits:
    """Either padded buffer layout gives the NCHW reference's bits on both paths."""

    @pytest.mark.parametrize("dtype,kernel_grad", [
        pytest.param(dtype, kernel_grad, id=dtype.__name__ + ("" if kernel_grad else "-const-kernel"))
        for kernel_grad in (True, False) for dtype in (np.float32, np.float64)
    ])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    # the input in either memory order: C-contiguous NCHW (the image layer, a channel-first buffer) and NHWC
    # memory (a GEMM layer's output, a channel-last buffer)
    @pytest.mark.parametrize("shape,nhwc_memory", [
        pytest.param(shape, nhwc, id=name + ("-nhwc-memory" if nhwc else ""))
        for nhwc in (False, True)
        for shape, name in BITS_SHAPES
    ])
    def test_equals_nchw_reference(self, shape, nhwc_memory, stride, padding, dtype, kernel_grad):
        # a constant kernel and bias are the attack's case: only the input needs a gradient
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal(shape).astype(dtype)
        if nhwc_memory:
            x0 = x0.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
            assert not x0.flags.c_contiguous
        k0 = rng.standard_normal((5, shape[1], 3, 3)).astype(dtype)
        b0 = rng.standard_normal(5).astype(dtype)
        x = Tensor(x0, requires_grad=True)
        k, b = (Tensor(a, requires_grad=kernel_grad) for a in (k0, b0))
        y = conv2d(x, k, b, stride, padding)
        g = rng.standard_normal(y.shape).astype(dtype)
        backward(tensor_sum(mul(y, Tensor(g))))
        out, gk, gx = conv2d_nchw_reference(x0, k0, b0, stride, padding, g)
        assert y.data.dtype == x.grad.dtype == dtype
        assert np.array_equal(y.data, out)
        assert np.array_equal(x.grad, gx)
        if kernel_grad:
            assert k.grad.dtype == dtype
            assert np.array_equal(k.grad, gk)
        else:
            assert k.grad is None

    def test_one_window_index_per_geometry_whatever_the_batch(self, monkeypatch):
        monkeypatch.setattr(T, "_WINDOW_INDEX", {})
        rng = np.random.default_rng(5)
        k = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        for nhwc_memory in (False, True):
            for batch in (2, 5):
                x0 = rng.standard_normal((batch, 12, 12, 3) if nhwc_memory else (batch, 3, 12, 12))
                x = Tensor(x0.transpose(0, 3, 1, 2) if nhwc_memory else x0, requires_grad=True)
                backward(tensor_sum(conv2d(x, k, b, 2, "same")))
        # padded 14x14, 6x6 windows of 3 channels x 3x3 taps; the last key is the buffer's layout, channel-last
        # for the NHWC-memory input
        assert list(T._WINDOW_INDEX) == [(14, 14, 3, 3, 2, False), (14, 14, 3, 3, 2, True)]
        assert all(idx.shape == (6 * 6, 3 * 3 * 3) for idx in T._WINDOW_INDEX.values())


def paper_vgg_conv_geometries():
    """(C, H, W, F, stride, nhwc_memory) of each distinct conv of the paper's VGG, all with "same" padding; every
    layer after the first reads a GEMM layer's output, whose memory is NHWC."""
    config = M.paper_vgg_config()
    (c, h, w), seen = config.input_shape, []
    for i, spec in enumerate(config.conv_layers):
        geometry = (c, h, w, spec.channels, spec.stride, i > 0)
        if geometry not in seen:
            seen.append(geometry)
        c, h, w = spec.channels, (h - 1) // spec.stride + 1, (w - 1) // spec.stride + 1
    return seen


class TestConv2dImageGroups:
    """Every GEMM forward and the input gradient multiply a group of whole images at a time; a column matrix that the
    backward does not keep (the forward's with a constant kernel, the input gradient's always) is built a group at a
    time too.

    Splitting a GEMM's rows does not keep its bits in general: with OpenBLAS 0.3.31 (Haswell kernels, one thread)
    a 9-row single-image GEMM (input 2x8x8x8, 2 kernels, stride 2, "valid") gave other bits in float32 and float64
    than the 18-row whole-batch GEMM, because OpenBLAS's small-matrix path changes with M.  So the paper's VGG
    shapes, which split, are pinned to keep their bits down to one image a group, and the small shapes are pinned
    to one group at the real cap.  Each group's GEMM stays 2-D, [rows, C*k*k] by [C*k*k, F], the form pinned here."""

    @staticmethod
    def _conv(x0, k0, b0, stride, g, kernel_grad):
        x = Tensor(x0, requires_grad=True)
        k = Tensor(k0, requires_grad=kernel_grad)
        y = conv2d(x, k, Tensor(b0), stride, "same")
        backward(tensor_sum(mul(y, Tensor(g))))
        return y.data, x.grad, k.grad

    def _split_and_whole(self, monkeypatch, geometry, batch, dtype, kernel_grad):
        """The conv's output and gradients at one image a group and with the whole batch in one group."""
        C, H, W, F, stride, nhwc_memory = geometry
        rng = np.random.default_rng(29)
        if nhwc_memory:
            x0 = rng.standard_normal((batch, H, W, C)).astype(dtype).transpose(0, 3, 1, 2)
        else:
            x0 = rng.standard_normal((batch, C, H, W)).astype(dtype)
        k0 = (rng.standard_normal((F, C, 3, 3)) / np.sqrt(9 * C)).astype(dtype)
        b0 = rng.standard_normal(F).astype(dtype)
        g = rng.standard_normal((batch, F, (H - 1) // stride + 1, (W - 1) // stride + 1)).astype(dtype)
        monkeypatch.setattr(T, "_CONV_GROUP_MAX_ELEMS", 1)  # one image a group
        split = self._conv(x0, k0, b0, stride, g, kernel_grad)
        monkeypatch.setattr(T, "_CONV_GROUP_MAX_ELEMS", batch * H * W * C * 9)  # the whole batch in one group
        return split, self._conv(x0, k0, b0, stride, g, kernel_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("batch", [4, 20])
    @pytest.mark.parametrize("geometry", [
        pytest.param(geometry, id="{}x{}x{}-{}-s{}".format(*geometry)) for geometry in paper_vgg_conv_geometries()
    ])
    def test_paper_vgg_one_image_a_group_equals_the_whole_batch(self, monkeypatch, geometry, batch, dtype):
        (split_out, split_gx, _), (whole_out, whole_gx, _) = self._split_and_whole(monkeypatch, geometry, batch,
                                                                                   dtype, kernel_grad=False)
        assert split_out.dtype == split_gx.dtype == dtype
        assert np.array_equal(split_out, whole_out)
        assert np.array_equal(split_gx, whole_gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("batch", [4, 20])
    @pytest.mark.parametrize("geometry", [
        pytest.param(geometry, id="{}x{}x{}-{}-s{}".format(*geometry)) for geometry in paper_vgg_conv_geometries()
    ])
    def test_paper_vgg_learned_kernel_one_image_a_group_equals_the_whole_batch(self, monkeypatch, geometry, batch,
                                                                               dtype):
        # the forward multiplies each group's rows of the columns the kernel gradient keeps
        split, whole = self._split_and_whole(monkeypatch, geometry, batch, dtype, kernel_grad=True)
        assert all(a.dtype == dtype for a in split)
        for a, b in zip(split, whole):
            assert np.array_equal(a, b)

    def test_small_shapes_take_one_group_at_the_real_cap(self, monkeypatch):
        counts = []
        groups = T._image_groups
        monkeypatch.setattr(T, "_image_groups", lambda B, n: counts.append(len(groups(B, n))) or groups(B, n))
        rng = np.random.default_rng(31)
        # the tiny model at side 16: a training batch of 64 and one scoring chunk
        config = M.tiny_config(side=16)
        params = M.build_model(config, 0)
        for batch in (64, E._PREDICT_CHUNK):
            M.forward(config, params, rng.standard_normal((batch, 3, 16, 16)))
        assert len(counts) == 4
        for shape, _ in BITS_SHAPES:
            for stride in (1, 2):
                for padding in ("same", "valid"):
                    conv2d(Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal((5, shape[1], 3, 3))),
                           Tensor(np.zeros(5)), stride, padding)
        assert len(counts) == 4 + 4 * len(BITS_SHAPES)
        assert set(counts) == {1}

    def test_image_groups_cover_the_batch_in_order(self, monkeypatch):
        monkeypatch.setattr(T, "_CONV_GROUP_MAX_ELEMS", 100)
        assert T._image_groups(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert T._image_groups(2, 101) == [slice(0, 1), slice(1, 2)]
        assert T._image_groups(3, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]


class TestRelu:
    def test_forward(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_positive_identity(self):
        x = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(relu(Tensor(x)).data, x)

    def test_backward_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        backward(tensor_sum(mul(relu(x), 5.0)))
        assert np.array_equal(x.grad, [0.0, 5.0])

    def test_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(tensor_sum(relu(x)))
        assert np.array_equal(x.grad, [0.0])


class TestBatchnorm:
    def _buffers(self, c):
        return Tensor(np.zeros(c)), Tensor(np.ones(c))

    def test_constant_input_zero_output(self):
        x = np.full((4, 2, 3, 3), 7.0)
        rm, rv = self._buffers(2)
        out = batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, "train")
        assert np.allclose(out.data, 0.0)

    def test_gamma_zero_gives_beta(self):
        x = np.random.default_rng(1).random((3, 2, 2, 2))
        rm, rv = self._buffers(2)
        out = batchnorm(Tensor(x), Tensor(np.zeros(2)), Tensor([1.5, -2.0]), rm, rv, "train")
        assert np.allclose(out.data[:, 0], 1.5) and np.allclose(out.data[:, 1], -2.0)

    def test_batch_too_small(self):
        rm, rv = self._buffers(1)
        with pytest.raises(ValueError):
            batchnorm(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, "train")

    def test_running_stats_ema(self):
        rng = np.random.default_rng(2)
        x = rng.random((4, 2, 2, 2))
        rm, rv = self._buffers(2)
        batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, "train", momentum=0.9)
        assert np.allclose(rm.data, 0.1 * x.mean(axis=(0, 2, 3)))
        assert np.allclose(rv.data, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((2, 2, 2, 2))
        gamma0, beta0 = rng.standard_normal(2), rng.standard_normal(2)
        weights = rng.standard_normal((2, 2, 2, 2))

        def loss_of(x):
            rm, rv = self._buffers(2)
            out = batchnorm(Tensor(x), Tensor(gamma0), Tensor(beta0), rm, rv, "train")
            return float(tensor_sum(mul(out, Tensor(weights))).data)

        x = Tensor(x0, requires_grad=True)
        rm, rv = self._buffers(2)
        out = batchnorm(x, Tensor(gamma0), Tensor(beta0), rm, rv, "train")
        backward(tensor_sum(mul(out, Tensor(weights))))
        fd = finite_difference_gradient(loss_of, x0)
        assert relative_gradient_error(x.grad, fd) < 1e-4

    def test_infer_mode_uses_running_stats(self):
        rm = Tensor(np.array([1.0]))
        rv = Tensor(np.array([4.0]))
        x = np.full((2, 1, 1, 1), 3.0)
        out = batchnorm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, "infer")
        assert np.allclose(out.data, (3.0 - 1.0) / np.sqrt(4.0 + 1e-5))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((2, 10))), np.array([3, 7]))
        assert abs(loss.item() - np.log(10)) < 1e-12

    def test_confident_correct_small_loss(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-6

    def test_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 3, 1])
        expected = np.mean([
            np.log(np.exp(logits[i]).sum()) - logits[i, labels[i]] for i in range(3)
        ])
        loss = softmax_cross_entropy(Tensor(logits), labels)
        assert abs(loss.item() - expected) < 1e-12

    def test_backward_formula(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = np.array([1, 2, 0])
        backward(softmax_cross_entropy(logits, labels))
        p = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        assert np.allclose(logits.grad, (p - onehot) / 3)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_constant_loss_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        grads = {}
        backward(tensor_sum(Tensor([5.0])), wrt={"x": x}, on_grad=grads.__setitem__)
        assert np.array_equal(grads["x"], [0.0, 0.0])

    def test_unreached_wrt_gets_zeros_after_an_earlier_pass(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        grads = {}
        backward(tensor_sum(mul(y, y)), wrt={"x": x, "y": y}, on_grad=grads.__setitem__)
        assert np.array_equal(grads["x"], [0.0, 0.0])
        assert np.array_equal(grads["y"], [6.0])

    def test_only_leaves_keep_a_gradient_and_wrt_buffers_go_to_the_caller(self):
        # dyadic values, so every gradient is exact: h = relu(x @ w + b) = [[3.25, 0], [0, 5.75]], dL/dh = 2h
        x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        w = Tensor([[1.0, 0.5], [-1.0, 2.0]], requires_grad=True)
        hidden = relu(dense(x, w, Tensor([0.25, -0.5])))
        loss = tensor_sum(mul(hidden, hidden))
        interior = [node for node in T._topo_order(loss) if node._backward_fn is not None]
        assert len(interior) == 4
        grads = {}
        backward(loss, wrt={"w": w}, on_grad=grads.__setitem__)
        # each interior node has passed its gradient on and dropped its closure, with what the closure saved
        assert all(node.grad is None and node._backward_fn is None for node in interior)
        assert np.array_equal(x.grad, [[6.5, -6.5], [5.75, 23.0]])
        assert w.grad is None
        assert np.array_equal(grads["w"], [[6.5, 5.75], [-13.0, 34.5]])

    def test_wrt_without_on_grad_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="on_grad"):
            backward(tensor_sum(mul(x, x)), wrt={"x": x})
        assert x.grad is None

    def test_a_non_leaf_in_wrt_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        with pytest.raises(ValueError, match="not a leaf"):
            backward(tensor_sum(y), wrt={"y": y}, on_grad=lambda name, grad: None)
        assert y._backward_fn is not None

    def test_one_tensor_named_twice_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        handed = []
        with pytest.raises(ValueError, match="twice"):
            backward(tensor_sum(mul(x, x)), wrt={"a": x, "b": x}, on_grad=lambda name, grad: handed.append(name))
        assert handed == [] and x.grad is None

    @pytest.mark.parametrize("op", [add, mul])
    def test_elementwise_ops_do_not_broadcast(self, op):
        with pytest.raises(ValueError):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(mul(x, 2.0))

    @pytest.mark.parametrize("node,contribution", [
        (np.zeros((2, 3)), np.array([[-0.0, 1.5, -0.0], [2.0, -0.0, -3.0]])),
        (np.zeros((2, 3), np.float32), np.array([[0.1, -0.2, 1e-9], [3.3, -0.0, 7.0]])),
        (np.zeros((2, 3)), np.arange(6.0).reshape(3, 2).T),
        (np.zeros((3, 2)).T, np.arange(-3.0, 3.0).reshape(2, 3)),
    ], ids=["negative-zero", "f64-into-f32", "transposed-contribution", "transposed-node"])
    def test_first_contribution_is_zeros_plus_g(self, node, contribution):
        t = Tensor(node, requires_grad=True)
        T._accumulate(t, contribution)
        expected = np.zeros_like(node)
        expected += contribution
        assert t.grad.dtype == expected.dtype
        assert t.grad.strides == expected.strides
        assert t.grad.tobytes(order="A") == expected.tobytes(order="A")
        assert t.grad is not contribution

    def test_accumulation_double_use(self):
        # f(x) = g(x) + g(x) must have gradient 2 g'(x)
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        g = mul(x, x)
        backward(tensor_sum(add(g, g)))
        assert np.array_equal(x.grad, 4.0 * x.data)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        w1_0 = rng.standard_normal((3, 5))
        b1_0 = rng.standard_normal(5)
        w2_0 = rng.standard_normal((5, 2))
        b2_0 = rng.standard_normal(2)
        x0 = rng.standard_normal((4, 3)) + 0.1
        labels = np.array([0, 1, 1, 0])

        def net_loss(w1):
            h = relu(dense(Tensor(x0), Tensor(w1), Tensor(b1_0)))
            return float(softmax_cross_entropy(dense(h, Tensor(w2_0), Tensor(b2_0)), labels).data)

        w1 = Tensor(w1_0, requires_grad=True)
        h = relu(dense(Tensor(x0), w1, Tensor(b1_0)))
        backward(softmax_cross_entropy(dense(h, Tensor(w2_0), Tensor(b2_0)), labels))
        fd = finite_difference_gradient(net_loss, w1_0)
        assert relative_gradient_error(w1.grad, fd) < 1e-4

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
            loss = softmax_cross_entropy(dense(x, w, Tensor(np.zeros(2))), np.array([0, 1]))
            backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2 and np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestStreamedGradients:
    """``backward(..., on_grad=...)`` hands each ``wrt`` gradient over as soon as it is final."""

    def test_a_leaf_read_twice_by_one_node_is_handed_over_once(self):
        w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        handed = []
        assert backward(tensor_sum(mul(w, w)), wrt={"w": w}, on_grad=lambda n, g: handed.append((n, g))) is None
        ((name, grad),) = handed
        assert name == "w" and np.array_equal(grad, [2.0, -4.0, 6.0])
        assert w.grad is None

    def test_a_leaf_is_handed_over_once_its_last_consumer_has_run(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        v = Tensor([3.0, -1.0], requires_grad=True)
        reads_w = [mul(w, 2.0), mul(w, 3.0)]
        w_part = add(*reads_w)
        v_part = relu(mul(v, 4.0))
        v_nodes = [v_part, v_part._parents[0]]
        # the post-order visits v's branch first, so backward runs w's branch first
        loss = tensor_sum(add(mul(w_part, w_part), v_part))
        closures_gone = {}

        def on_grad(name, grad):
            closures_gone[name] = [[node._backward_fn is None for node in nodes] for nodes in (reads_w, v_nodes)]

        backward(loss, wrt={"w": w, "v": v}, on_grad=on_grad)
        assert closures_gone == {"w": [[True, True], [False, False]], "v": [[True, True], [True, True]]}

    def test_a_node_goes_as_soon_as_its_backward_has_run(self):
        rng = np.random.default_rng(5)
        kernels = {"lower": Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.1, requires_grad=True),
                   "upper": Tensor(rng.standard_normal((4, 4, 3, 3)) * 0.1, requires_grad=True)}
        bias, x = Tensor(np.zeros(4)), Tensor(rng.standard_normal((2, 3, 8, 8)))

        def graph():
            upper = conv2d(relu(conv2d(x, kernels["lower"], bias, 1, "same")), kernels["upper"], bias, 1, "same")
            return tensor_sum(relu(upper)), weakref.ref(upper.data)

        loss, upper = graph()
        alive_at_handover = {}
        backward(loss, wrt=kernels, on_grad=lambda name, grad: alive_at_handover.setdefault(name, upper() is not None))
        # the lower kernel is handed over after the lower conv's backward, after the upper conv's has run: by then
        # nothing holds the upper conv's node or its output
        assert alive_at_handover["lower"] is False
        assert loss._parents == ()

    def test_an_unreached_parameter_takes_one_zero_gradient_update_at_the_end(self):
        params = {"used": Tensor([1.0, -1.0], requires_grad=True), "unused": Tensor([2.0, 4.0], requires_grad=True)}
        velocity = {"used": np.zeros(2), "unused": np.array([1.0, -1.0])}
        handed = []

        def on_grad(name, grad):
            handed.append((name, grad.copy()))
            sgd_momentum_step(name, params[name], grad, velocity[name], lr=0.5, momentum=0.5, weight_decay=0.25)

        backward(tensor_sum(mul(params["used"], 2.0)), wrt=params, on_grad=on_grad)
        assert [name for name, _ in handed] == ["used", "unused"]
        assert np.array_equal(handed[1][1], [0.0, 0.0])
        # v = 0.5 * [1, -1] + 0.25 * [2, 4] = [1, 0.5]; p = [2, 4] - 0.5 * v
        assert np.array_equal(velocity["unused"], [1.0, 0.5])
        assert np.array_equal(params["unused"].data, [1.5, 3.75])

    @pytest.mark.parametrize("mc", [
        M.tiny_config(side=8, num_classes=4),
        M.ModelConfig("bn", (3, 16, 16), 4, (M.ConvSpec(8, 3, 1), M.ConvSpec(8, 3, 2)), batchnorm=True),
    ], ids=["tiny", "batchnorm"])
    def test_no_conv_closure_saves_an_array_as_large_as_its_columns(self, mc):
        params = M.build_model(mc, 0)
        x = np.random.default_rng(3).random((4, *mc.input_shape))
        loss = softmax_cross_entropy(M.forward(mc, params, x, "train"), np.array([0, 1, 2, 3]))
        convs = [node for node in T._topo_order(loss)
                 if node._backward_fn is not None and node._backward_fn.__qualname__ == "conv2d.<locals>.bwd"]
        assert len(convs) == len(mc.conv_layers)
        for node in convs:
            B, _, Ho, Wo = node.shape
            col_elems = B * Ho * Wo * node._parents[1].data[0].size
            # a view of a parent's data (the kernel matrix) is the parent's array, not one the closure saved
            saved_arrays = [cell.cell_contents for cell in node._backward_fn.__closure__
                            if isinstance(cell.cell_contents, np.ndarray)
                            and not any(np.shares_memory(cell.cell_contents, p.data) for p in node._parents)]
            assert saved_arrays and max(a.size for a in saved_arrays) < col_elems

    def test_backward_over_a_conv_stack_peaks_below_the_sum_of_its_columns(self):
        # three learned 8 -> 8 channel convs at 16x16 (the GEMM path): each column matrix is 9x its input
        rng = np.random.default_rng(4)
        kernels = [Tensor(rng.standard_normal((8, 8, 3, 3)) * 0.1, requires_grad=True) for _ in range(3)]
        biases = [Tensor(np.zeros(8), requires_grad=True) for _ in range(3)]
        x = Tensor(rng.standard_normal((4, 8, 16, 16)))
        col_bytes = 3 * 4 * 16 * 16 * 8 * 3 * 3 * 8

        def stack():
            h = x
            for kern, b in zip(kernels, biases):
                h = relu(conv2d(h, kern, b, 1, "same"))
            return tensor_sum(h)

        stack()  # builds the window index, which the process keeps, outside the trace
        tracemalloc.start()
        try:
            loss = stack()
            # the peak over the pass counts what the graph holds at backward's entry
            tracemalloc.reset_peak()
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(kern.grad is not None for kern in kernels)
        assert peak < col_bytes


class TestGradcheckAllOps:
    """Central finite differences vs backward for every differentiable op."""

    def check(self, build, x0, tol=1e-4):
        x = Tensor(x0, requires_grad=True)
        backward(build(x))
        fd = finite_difference_gradient(lambda a: float(build(Tensor(a)).data), x0)
        assert relative_gradient_error(x.grad, fd) < tol

    def test_dense_input(self):
        rng = np.random.default_rng(20)
        w, b = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(3))
        weights = Tensor(rng.standard_normal((2, 3)))
        self.check(lambda x: tensor_sum(mul(dense(x, w, b), weights)), rng.standard_normal((2, 4)))

    @pytest.mark.parametrize("stride,padding", [(2, "same"), (1, "same"), (1, "valid")])
    def test_conv_input_kernel_bias(self, stride, padding):
        # 5x5 with 2 channels takes the loop-path forward
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal((2, 2, 5, 5))
        k0 = rng.standard_normal((3, 2, 3, 3))
        b0 = rng.standard_normal(3)
        out_shape = conv2d(Tensor(x0), Tensor(k0), Tensor(b0), stride, padding).shape
        weights = Tensor(rng.standard_normal(out_shape))

        def out_loss(x, k, b):
            return tensor_sum(mul(conv2d(x, k, b, stride, padding), weights))

        self.check(lambda x: out_loss(x, Tensor(k0), Tensor(b0)), x0)
        self.check(lambda k: out_loss(Tensor(x0), k, Tensor(b0)), k0)
        self.check(lambda b: out_loss(Tensor(x0), Tensor(k0), b), b0)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(22)
        x0 = rng.standard_normal(12)
        x0[np.abs(x0) < 1e-2] = 0.5
        w = Tensor(rng.standard_normal(12))
        self.check(lambda x: tensor_sum(mul(relu(x), w)), x0)

    def test_clip_away_from_kink(self):
        rng = np.random.default_rng(23)
        x0 = rng.uniform(-2, 2, 10)
        x0[np.abs(x0 - 1.0) < 1e-2] = 0.0
        x0[np.abs(x0 + 1.0) < 1e-2] = 0.0
        w = Tensor(rng.standard_normal(10))
        self.check(lambda x: tensor_sum(mul(clip(x, -1.0, 1.0), w)), x0)

    def test_softmax_ce_logits(self):
        rng = np.random.default_rng(24)
        labels = np.array([2, 0, 1])
        self.check(lambda x: softmax_cross_entropy(x, labels), rng.standard_normal((3, 4)))


class TestSgdMomentum:
    def _param(self, v):
        return Tensor(np.array(v), requires_grad=True)

    def test_plain_sgd(self):
        p = self._param([1.0])
        sgd_momentum_step("p", p, np.array([0.5]), np.zeros(1), lr=0.1)
        assert np.allclose(p.data, [0.95])

    def test_overflowing_update_rejected(self):
        p = self._param([1.0, 1e308])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'p' is not finite"):
            sgd_momentum_step("p", p, np.array([0.0, -1e308]), np.zeros(2), lr=10.0)

    def test_zero_grad_identity(self):
        p = self._param([1.0, -2.0])
        sgd_momentum_step("p", p, np.zeros(2), np.zeros(2), lr=0.1, momentum=0.9)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_momentum_recurrence(self):
        # constant grad g, momentum 0.9: v1 = g, v2 = 1.9 g
        g = np.array([2.0])
        p = self._param([0.0])
        vel = np.zeros(1)
        sgd_momentum_step("p", p, g, vel, lr=0.1, momentum=0.9)
        sgd_momentum_step("p", p, g, vel, lr=0.1, momentum=0.9)
        assert np.allclose(vel, 1.9 * g)

    def test_weight_decay(self):
        p = self._param([2.0])
        sgd_momentum_step("p", p, np.array([0.0]), np.zeros(1), lr=0.1, weight_decay=0.5)
        assert np.allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_momentum_step("p", self._param([1.0]), np.zeros(2), np.zeros(1), lr=0.1)
        with pytest.raises(ValueError, match="velocity"):
            sgd_momentum_step("p", self._param([1.0]), np.zeros(1), np.zeros(2), lr=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_step_equals_the_whole_array_formula_in_place(self, monkeypatch, dtype):
        monkeypatch.setattr(T, "_SGD_CHUNK", 16)
        rng = np.random.default_rng(8)
        # 55 elements: three chunks and a ragged tail of 7
        p_ref = rng.standard_normal((5, 11)).astype(dtype)
        v_ref = rng.standard_normal((5, 11)).astype(dtype)
        p, v = p_ref.copy(), v_ref.copy()
        param = Tensor(p, requires_grad=True)
        for _ in range(3):
            g = rng.standard_normal((5, 11)).astype(dtype)
            sgd_momentum_step("p", param, g, v, lr=0.05, momentum=0.9, weight_decay=5e-4)
            v_ref = 0.9 * v_ref + (g + 5e-4 * p_ref)
            p_ref = p_ref - 0.05 * v_ref
            assert param.data is p
            assert np.array_equal(v, v_ref) and np.array_equal(p, p_ref)

    def test_non_contiguous_velocity_rejected(self):
        param = Tensor(np.ones((3, 4)), requires_grad=True)
        with pytest.raises(ValueError, match="C-contiguous"):
            sgd_momentum_step("p", param, np.ones((3, 4)), np.zeros((4, 3)).T, lr=0.1)
        assert np.array_equal(param.data, np.ones((3, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_formula_bitwise_and_leaves_grads(self, dtype):
        rng = np.random.default_rng(4)
        p_ref = rng.standard_normal((3, 4)).astype(dtype)
        v_ref = np.zeros_like(p_ref)
        param, velocity = Tensor(p_ref.copy(), requires_grad=True), np.zeros_like(p_ref)
        for _ in range(3):
            g = rng.standard_normal(p_ref.shape).astype(dtype)
            grad = g.copy()
            sgd_momentum_step("p", param, grad, velocity, lr=0.05, momentum=0.9, weight_decay=5e-4)
            v_ref = 0.9 * v_ref + (g + 5e-4 * p_ref)
            p_ref = p_ref - 0.05 * v_ref
            assert np.array_equal(grad, g)
            assert np.array_equal(velocity, v_ref) and np.array_equal(param.data, p_ref)
            assert param.data.dtype == velocity.dtype == dtype


class TestFiniteDifference:
    def test_square(self):
        g = finite_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-6

    def test_linear_exact(self):
        a = np.array([2.0, -1.5, 0.25])
        g = finite_difference_gradient(lambda x: float(a @ x), np.zeros(3))
        assert np.allclose(g, a, atol=1e-9)

    def test_positive_h_required(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.zeros(1), h=0.0)

    def test_matches_backward_through_dense_ce(self):
        rng = np.random.default_rng(30)
        w0 = rng.standard_normal((3, 2))
        x0 = rng.standard_normal((2, 3))
        labels = np.array([0, 1])

        def f(w):
            return float(softmax_cross_entropy(dense(Tensor(x0), Tensor(w), Tensor(np.zeros(2))), labels).data)

        w = Tensor(w0, requires_grad=True)
        backward(softmax_cross_entropy(dense(Tensor(x0), w, Tensor(np.zeros(2))), labels))
        assert relative_gradient_error(w.grad, finite_difference_gradient(f, w0)) < 1e-4


class TestTensorInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_backward_rejects_a_loss_that_overflows_inside_an_op(self):
        with np.errstate(over="ignore"):
            loss = tensor_sum(mul(Tensor([1e308], requires_grad=True), 10.0))  # an op's output is not scanned
        assert np.isinf(loss.item())
        with pytest.raises(NonFiniteError, match="loss is not finite"):
            backward(loss)

    def test_default_dtype_switch(self):
        T.set_default_dtype(np.float32)
        try:
            assert Tensor([1, 2]).dtype == np.float32
        finally:
            T.set_default_dtype(np.float64)
        assert Tensor([1, 2]).dtype == np.float64

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError):
            T.set_default_dtype(np.int32)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    def test_relu_idempotent_and_nonnegative(self, values):
        out = relu(Tensor(np.array(values)))
        assert np.all(out.data >= 0)
        assert np.array_equal(relu(out).data, out.data)
