import struct
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from advgame import attack as A
from advgame import data as D
from advgame import model as M
from advgame import tensor as T
from advgame.model import (
    ModelConfig,
    ConvSpec,
    build_model,
    forward,
    freeze,
    load_checkpoint,
    pool_expected_loss,
    pool_predict,
    save_checkpoint,
    single_pool,
    tiny_config,
)
from advgame.tensor import Tensor, backward, softmax_cross_entropy


def small_config():
    return ModelConfig("test", (1, 6, 6), 3, (ConvSpec(2, 3, 2),), batchnorm=False)


def forward_oracle(config, params, batch):
    """Nested-loop forward pass for a conv(+relu) stack plus dense head."""
    x = np.asarray(batch, dtype=np.float64)
    for i, spec in enumerate(config.conv_layers):
        w = params[f"conv{i}.weight"].data
        bias = params[f"conv{i}.bias"].data
        pad = (spec.kernel - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        B, C, H, W = x.shape
        Ho = (H + 2 * pad - spec.kernel) // spec.stride + 1
        Wo = (W + 2 * pad - spec.kernel) // spec.stride + 1
        out = np.zeros((B, spec.channels, Ho, Wo))
        for b in range(B):
            for f in range(spec.channels):
                for ho in range(Ho):
                    for wo in range(Wo):
                        acc = 0.0
                        for c in range(C):
                            for ky in range(spec.kernel):
                                for kx in range(spec.kernel):
                                    acc += xp[b, c, ho * spec.stride + ky, wo * spec.stride + kx] * w[f, c, ky, kx]
                        out[b, f, ho, wo] = acc + bias[f]
        x = np.maximum(out, 0.0)
    flat = x.reshape(x.shape[0], -1)
    logits = np.zeros((flat.shape[0], config.num_classes))
    wfc, bfc = params["fc.weight"].data, params["fc.bias"].data
    for b in range(flat.shape[0]):
        for o in range(config.num_classes):
            acc = 0.0
            for i in range(flat.shape[1]):
                acc += flat[b, i] * wfc[i, o]
            logits[b, o] = acc + bfc[o]
    return logits


class TestBuildModel:
    def test_seed_determinism(self):
        cfg = tiny_config()
        p1, p2 = build_model(cfg, 42), build_model(cfg, 42)
        assert p1.keys() == p2.keys()
        for name in p1:
            assert np.array_equal(p1[name].data, p2[name].data)

    def test_gamma_initialized_to_one(self):
        cfg = ModelConfig("bn", (1, 8, 8), 2, (ConvSpec(4, 3, 1),), batchnorm=True)
        params = build_model(cfg, 0)
        assert np.all(params["bn0.gamma"].data == 1.0)
        assert np.all(params["bn0.beta"].data == 0.0)

    def test_fan_in_bound(self):
        # one large conv layer gives enough samples to pin the uniform bound
        cfg = ModelConfig("wide", (3, 8, 8), 2, (ConvSpec(256, 3, 1),), batchnorm=False)
        w = build_model(cfg, 1)["conv0.weight"].data
        bound = np.sqrt(1.0 / (3 * 3 * 3))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.98 * bound
        assert abs(w.std() - bound / np.sqrt(3)) < 0.02 * bound

    def test_malformed_config(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", (3, 8, 8), 1, ())
        with pytest.raises(ValueError):
            ModelConfig("bad", (3, 4, 4), 2, (ConvSpec(0, 3, 1),))


class TestForward:
    def test_deterministic(self):
        cfg = small_config()
        params = build_model(cfg, 3)
        x = np.random.default_rng(0).random((2, 1, 6, 6))
        a = forward(cfg, params, x, "infer").data
        b = forward(cfg, params, x, "infer").data
        assert np.array_equal(a, b)

    def test_single_row_matches_batch_row(self):
        cfg = small_config()
        params = build_model(cfg, 4)
        x = np.random.default_rng(1).random((3, 1, 6, 6))
        full = forward(cfg, params, x, "infer").data
        one = forward(cfg, params, x[1:2], "infer").data
        assert np.allclose(one[0], full[1], rtol=0, atol=1e-12)

    def test_matches_nested_loop_oracle(self):
        cfg = small_config()
        params = build_model(cfg, 5)
        x = np.random.default_rng(2).random((2, 1, 6, 6))
        got = forward(cfg, params, x, "infer").data
        want = forward_oracle(cfg, params, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        cfg = small_config()
        params = build_model(cfg, 6)
        with pytest.raises(ValueError):
            forward(cfg, params, np.zeros((2, 1, 5, 5)), "infer")

    def test_train_mode_advances_running_stats(self):
        cfg = ModelConfig("bn", (1, 4, 4), 2, (ConvSpec(2, 3, 1),), batchnorm=True)
        params = build_model(cfg, 7)
        before = params["bn0.running_mean"].data.copy()
        forward(cfg, params, np.random.default_rng(3).random((4, 1, 4, 4)), "train")
        assert not np.array_equal(before, params["bn0.running_mean"].data)


class TestScoringMemory:
    """An inference forward through constants keeps no graph, so each
    activation goes once the next op has read it."""

    @staticmethod
    def stack(depth):
        return ModelConfig("stack", (3, 16, 16), 4, (ConvSpec(16, 3, 1),) * depth, batchnorm=True)

    def test_conv_outputs_are_collected_once_forward_returns(self, monkeypatch):
        cfg = self.stack(3)
        params = build_model(cfg, 0)
        x = np.random.default_rng(0).random((4, 3, 16, 16))
        conv2d, outputs = T.conv2d, []

        def recorded(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "conv2d", recorded)
        logits = forward(cfg, single_pool(cfg, params)[0].params, x, "infer")
        assert logits.shape == (4, 4)
        assert len(outputs) == 3 and all(ref() is None for ref in outputs)
        # a forward through trainable parameters keeps them for backward
        logits = forward(cfg, params, x, "train")
        assert len(outputs) == 6 and all(ref() is not None for ref in outputs[3:])

    def test_peak_does_not_grow_with_depth(self):
        def peak(depth):
            cfg = self.stack(depth)
            params = single_pool(cfg, build_model(cfg, 0))[0].params
            x = np.random.default_rng(0).random((8, 3, 16, 16))
            forward(cfg, params, x)  # builds the cached window indices
            tracemalloc.start()
            try:
                forward(cfg, params, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        activation = 8 * 16 * 16 * 16 * 8  # bytes of one [8, 16, 16, 16] float64 activation
        # kept activations would add at least three per layer: the conv, batchnorm and relu outputs
        assert peak(8) <= peak(2) + activation // 4


class TestPool:
    def _pool_of(self, seeds, cfg=None):
        cfg = cfg or small_config()
        return cfg, [freeze(cfg, build_model(cfg, s)) for s in seeds]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            pool_expected_loss([], np.zeros((1, 1, 6, 6)), np.array([0]))
        with pytest.raises(ValueError):
            pool_predict([], np.zeros((1, 1, 6, 6)))

    def test_size_one_equals_single_loss(self):
        cfg, pool = self._pool_of([11])
        x = np.random.default_rng(4).random((2, 1, 6, 6))
        labels = np.array([0, 1])
        single = softmax_cross_entropy(forward(cfg, pool[0].params, x, "infer"), labels)
        assert pool_expected_loss(pool, x, labels).item() == single.item()

    def test_duplicate_snapshots_equal_single(self):
        cfg = small_config()
        params = build_model(cfg, 12)
        pool = [freeze(cfg, params), freeze(cfg, params)]
        x = np.random.default_rng(5).random((2, 1, 6, 6))
        labels = np.array([1, 2])
        single = softmax_cross_entropy(forward(cfg, params, x, "infer"), labels)
        assert pool_expected_loss(pool, x, labels).item() == single.item()

    def test_two_members_arithmetic_mean(self):
        cfg, pool = self._pool_of([13, 14])
        x = np.random.default_rng(6).random((1, 1, 6, 6))
        labels = np.array([2])
        l0 = softmax_cross_entropy(forward(cfg, pool[0].params, x, "infer"), labels).item()
        l1 = softmax_cross_entropy(forward(cfg, pool[1].params, x, "infer"), labels).item()
        got = pool_expected_loss(pool, x, labels).item()
        assert abs(got - 0.5 * (l0 + l1)) < 1e-15

    def test_pool_loss_between_member_extremes(self):
        cfg, pool = self._pool_of([20, 21, 22])
        x = np.random.default_rng(7).random((4, 1, 6, 6))
        labels = np.array([0, 1, 2, 0])
        individual = [
            softmax_cross_entropy(forward(cfg, m.params, x, "infer"), labels).item() for m in pool
        ]
        got = pool_expected_loss(pool, x, labels).item()
        assert min(individual) - 1e-12 <= got <= max(individual) + 1e-12

    def test_pool_loss_differentiable_wrt_batch(self):
        cfg, pool = self._pool_of([23, 24])
        x = Tensor(np.random.default_rng(8).random((2, 1, 6, 6)), requires_grad=True)
        backward(pool_expected_loss(pool, x, np.array([0, 1])))
        assert x.grad is not None and x.grad.shape == x.shape
        assert np.any(x.grad != 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gradient_bits_equal_the_scaled_sum(self, dtype):
        """Each member's CE * (1/n) hands the batch the bits of one scaled sum (sum CE) * (1/n)."""

        def scaled_sum(pool, batch, labels, target, lam):
            logits = [forward(m.config, m.params, batch, "infer") for m in pool]

            def expected(y):
                total = softmax_cross_entropy(logits[0], y)
                for member in logits[1:]:
                    total = T.add(total, softmax_cross_entropy(member, y))
                return T.mul(total, 1.0 / len(pool))

            if lam == 0.0:
                return expected(labels)
            term = T.mul(expected(np.full(len(labels), target, dtype=np.int64)), -lam)
            return term if lam == 1.0 else T.add(T.mul(expected(labels), 1.0 - lam), term)

        def input_grad(loss_fn, pool, x, labels, lam):
            leaf = Tensor(x, requires_grad=True)
            backward(loss_fn(pool, leaf, labels, 1, lam))
            return leaf.grad

        T.set_default_dtype(dtype)
        try:
            x = np.random.default_rng(13).random((5, 1, 6, 6)).astype(dtype)
            labels = np.array([0, 1, 2, 0, 2])
            for n in (1, 3, 11):
                _, pool = self._pool_of(range(40, 40 + n))
                for lam in (0.0, 0.3, 0.5, 1.0):
                    got = input_grad(pool_expected_loss, pool, x, labels, lam)
                    assert got.dtype == dtype and np.any(got != 0)
                    assert np.array_equal(got, input_grad(scaled_sum, pool, x, labels, lam)), (n, lam)
        finally:
            T.set_default_dtype(np.float64)

    def test_predict_single_is_argmax(self):
        cfg, pool = self._pool_of([25])
        x = np.random.default_rng(9).random((3, 1, 6, 6))
        logits = forward(cfg, pool[0].params, x, "infer").data
        assert np.array_equal(pool_predict(pool, x), np.argmax(logits, axis=1))

    def test_predict_averages_probabilities(self):
        # probs (0.6, 0.4) and (0.2, 0.8) average to (0.4, 0.6) -> class 1
        probs = [np.array([[0.6, 0.4]]), np.array([[0.2, 0.8]])]
        avg = sum(probs) / 2
        assert np.argmax(avg, axis=1)[0] == 1

    def test_predict_tie_goes_low(self):
        assert np.argmax(np.array([[0.5, 0.5]]), axis=1)[0] == 0

    def test_predict_invariant_to_rescaling(self):
        cfg, pool = self._pool_of([26, 27])
        x = np.random.default_rng(10).random((5, 1, 6, 6))
        base = sum(np.exp(T.log_softmax(forward(cfg, m.params, x, "infer").data)) for m in pool) / len(pool)
        assert np.array_equal(pool_predict(pool, x), np.argmax(base, axis=1))
        assert np.array_equal(np.argmax(base, axis=1), np.argmax(3.7 * base, axis=1))

    def test_snapshot_immutable_under_training(self):
        cfg = small_config()
        params = build_model(cfg, 30)
        snap = freeze(cfg, params)
        x = np.random.default_rng(11).random((2, 1, 6, 6))
        before = forward(cfg, snap.params, x, "infer").data.copy()
        # keep training the live params
        loss = softmax_cross_entropy(forward(cfg, params, x, "train"), np.array([0, 1]))
        T.backward(loss, wrt={n: params[n] for n in M.trainable_names(params)}, on_grad=lambda name, grad:
                   T.sgd_momentum_step(name, params[name], grad, np.zeros_like(grad), lr=0.5))
        after = forward(cfg, snap.params, x, "infer").data
        assert np.array_equal(before, after)

    def test_single_pool_follows_the_live_params(self):
        cfg = small_config()
        params = build_model(cfg, 31)
        member = single_pool(cfg, params)[0].params
        assert all(member[name].data is params[name].data for name in params)
        assert not any(p.requires_grad for p in member.values())
        x = np.random.default_rng(12).random((2, 1, 6, 6))
        before = forward(cfg, member, x, "infer").data.copy()
        loss = softmax_cross_entropy(forward(cfg, params, x, "train"), np.array([0, 1]))
        T.backward(loss, wrt={n: params[n] for n in M.trainable_names(params)}, on_grad=lambda name, grad:
                   T.sgd_momentum_step(name, params[name], grad, np.zeros_like(grad), lr=0.5))
        after = forward(cfg, member, x, "infer").data
        assert not np.array_equal(before, after)
        assert np.array_equal(after, forward(cfg, params, x, "infer").data)


@contextmanager
def default_dtype(dtype):
    """The default dtype of a ``dtype`` run, for the body's duration."""
    T.set_default_dtype(dtype)
    try:
        yield
    finally:
        T.set_default_dtype(np.float64)


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def precision(request):
    with default_dtype(request.param):
        yield request.param


def framed_checkpoint(cfg, arrays, version: int, dtype: str) -> bytes:
    """A checkpoint framed by hand: magic, version, config, then each named array stored as ``dtype``."""
    text = cfg.to_json().encode("utf-8")
    blob = M.CHECKPOINT_MAGIC + struct.pack("<II", version, len(text)) + text + struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        blob += struct.pack(f"<I{len(name)}sI{arr.ndim}I", len(name), name.encode(), arr.ndim, *arr.shape)
        blob += arr.astype(dtype).tobytes()
    return blob


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config(side=8)
        params = build_model(cfg, 99)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, cfg, params)
        cfg2, params2 = load_checkpoint(first)
        assert cfg2 == cfg
        save_checkpoint(second, cfg2, params2)
        assert first.read_bytes() == second.read_bytes()

    def test_bytes_are_the_framed_f32_payload(self, tmp_path):
        with default_dtype(np.float32):
            cfg = tiny_config(side=8)
            params = build_model(cfg, 98)
            save_checkpoint(tmp_path / "f.ckpt", cfg, params)
        arrays = {name: p.data for name, p in params.items()}
        assert (tmp_path / "f.ckpt").read_bytes() == framed_checkpoint(cfg, arrays, 1, "<f4")

    def test_bytes_are_the_framed_f64_payload(self, tmp_path):
        cfg = tiny_config(side=8)
        params = build_model(cfg, 98)
        save_checkpoint(tmp_path / "f.ckpt", cfg, params)
        arrays = {name: p.data for name, p in params.items()}
        assert (tmp_path / "f.ckpt").read_bytes() == framed_checkpoint(cfg, arrays, 2, "<f8")

    def test_values_round_trip_bit_for_bit(self, tmp_path, precision):
        version = {np.float32: 1, np.float64: 2}[precision]
        cfg = tiny_config(side=8)
        params = build_model(cfg, 100)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, cfg, params)
        _, loaded = load_checkpoint(path)
        assert path.read_bytes()[4:8] == struct.pack("<I", version)
        for name in params:
            assert loaded[name].data.dtype == precision
            assert loaded[name].data.tobytes() == params[name].data.tobytes()
        rng, eps = np.random.default_rng(100), 16 / 255
        universal = D.PerturbationSpec("universal", A.project_linf(rng.uniform(-eps, eps, (3, 8, 8)).astype(precision),
                                                                   eps), epsilon=eps)
        patch = D.PerturbationSpec("patch", rng.random((3, 4, 4)).astype(precision), chi=0.4, theta_max=0.3)
        for spec in (universal, patch):
            A.save_perturbation(tmp_path / "x.pert", spec)
            loaded = A.load_perturbation(tmp_path / "x.pert")
            assert (tmp_path / "x.pert").read_bytes()[4:8] == struct.pack("<I", version)
            assert loaded.xi.dtype == precision and loaded.xi.tobytes() == spec.xi.tobytes()

    def test_a_v1_checkpoint_loads_in_float64_as_its_f32_values(self, tmp_path):
        cfg = tiny_config(side=8)
        arrays = {name: p.data for name, p in build_model(cfg, 97).items()}
        (tmp_path / "v1.ckpt").write_bytes(framed_checkpoint(cfg, arrays, 1, "<f4"))
        loaded_cfg, loaded = load_checkpoint(tmp_path / "v1.ckpt")
        assert loaded_cfg == cfg and list(loaded) == list(arrays)
        for name, arr in arrays.items():
            assert loaded[name].data.dtype == np.float64
            assert np.array_equal(loaded[name].data, arr.astype(np.float32).astype(np.float64))
        assert not np.array_equal(loaded["fc.weight"].data, arrays["fc.weight"])  # the f32 framing dropped bits

    def test_a_v1_universal_perturbation_loads_in_float64_projected_onto_its_budget(self, tmp_path):
        # a budget whose f32 rounding lies above it, so the f32 payload's boundary coordinates exceed it
        eps = next(k / 255 for k in range(1, 256) if float(np.float32(k / 255)) > k / 255)
        xi = np.random.default_rng(1).uniform(-eps, eps, (3, 4, 4)).astype(np.float32)
        xi[0, 0, :2] = np.float32(eps), -np.float32(eps)
        blob = A.CONTAINER_MAGIC + struct.pack("<IBd", 1, 0, eps) + struct.pack("<4I", 3, *xi.shape) + xi.tobytes()
        (tmp_path / "v1.pert").write_bytes(blob)
        loaded = A.load_perturbation(tmp_path / "v1.pert")
        assert loaded.xi.dtype == np.float64 and loaded.epsilon == eps
        assert np.array_equal(loaded.xi, np.clip(xi.astype(np.float64), -eps, eps))
        assert loaded.xi[0, 0, 0] == eps and loaded.xi[0, 0, 1] == -eps

    @pytest.mark.parametrize("version", [0, 3])
    def test_an_unknown_version_is_corrupt(self, tmp_path, version):
        cfg = tiny_config(side=8)
        save_checkpoint(tmp_path / "c.ckpt", cfg, build_model(cfg, 0))
        A.save_perturbation(tmp_path / "x.pert", D.gray_patch(3, 4, 0.5, 0.0))
        for path, load in ((tmp_path / "c.ckpt", load_checkpoint), (tmp_path / "x.pert", A.load_perturbation)):
            blob = path.read_bytes()
            path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
            with pytest.raises(M.CorruptFileError, match=f"unsupported version {version}"):
                load(path)

    @pytest.mark.parametrize("arrays", [[np.zeros(2), np.zeros(2, np.float32)], [np.zeros(2, np.int64)]],
                             ids=["f64-then-f32", "int64"])
    def test_an_artifact_stores_arrays_of_one_float_dtype(self, tmp_path, arrays):
        with pytest.raises(ValueError, match="must all be of one dtype"):
            M.write_artifact(tmp_path / "f.ckpt", M.CHECKPOINT_MAGIC, [b"head", *arrays])
        assert list(tmp_path.iterdir()) == []

    def test_a_write_goes_to_a_sibling_and_a_failed_one_keeps_the_earlier_file(self, tmp_path):
        cfg = tiny_config(side=8)
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, cfg, build_model(cfg, 1))
        before = path.read_bytes()
        during = []

        def parts():
            yield b"\0" * 64
            yield np.zeros(8)
            during.append((path.read_bytes(), sorted(p.name for p in tmp_path.iterdir())))
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            M.write_artifact(path, M.CHECKPOINT_MAGIC, parts())
        ((read_during, names_during),) = during
        assert read_during == before and len(names_during) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.ckpt"]
        save_checkpoint(path, cfg, build_model(cfg, 2))
        assert path.read_bytes() != before and [p.name for p in tmp_path.iterdir()] == ["f.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_buffers_not_trainable_after_load(self, tmp_path):
        cfg = ModelConfig("bn", (1, 4, 4), 2, (ConvSpec(2, 3, 1),), batchnorm=True)
        path = tmp_path / "bn.ckpt"
        save_checkpoint(path, cfg, build_model(cfg, 0))
        _, loaded = load_checkpoint(path)
        assert not loaded["bn0.running_mean"].requires_grad
        assert loaded["bn0.gamma"].requires_grad
