import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from advgame import data as D
from advgame.model import CorruptFileError
from advgame.data import (
    BatchSampler,
    Dataset,
    PerturbationSpec,
    PerturbedView,
    clean_view,
    disc_mask,
    gray_patch,
    load_cifar10,
    make_synthetic,
    overlay_patch_op,
    sample_placements,
    to_ppm_bytes,
)
from advgame.tensor import NonFiniteError, Tensor, backward, mul, tensor_sum
from gradcheck import finite_difference_gradient, relative_gradient_error


def cifar_fixture_bytes(rng):
    recs = []
    for label in (3, 7):
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        recs.append(bytes([label]) + pixels.tobytes())
    return b"".join(recs)


class TestCifarLoader:
    def test_round_trip(self, tmp_path):
        raw = cifar_fixture_bytes(np.random.default_rng(0))
        path = tmp_path / "two.bin"
        path.write_bytes(raw)
        ds = load_cifar10(path)
        assert len(ds) == 2 and list(ds.labels) == [3, 7]
        pixels = np.round(ds.images * 255.0).astype(np.uint8).reshape(len(ds), -1)
        assert np.column_stack([ds.labels.astype(np.uint8), pixels]).tobytes() == raw

    def test_zero_and_full_scale(self, tmp_path):
        rec = bytes([0]) + bytes([0]) * 1536 + bytes([255]) * 1536
        path = tmp_path / "one.bin"
        path.write_bytes(rec)
        ds = load_cifar10(path)
        assert ds.images.min() == 0.0
        assert ds.images.max() == 1.0

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3000)
        with pytest.raises(ValueError, match="truncated"):
            load_cifar10(path)

    def test_empty_file_is_corrupt(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(CorruptFileError, match="empty"):
            load_cifar10(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes([10]) + b"\x00" * 3072)
        with pytest.raises(ValueError, match="label"):
            load_cifar10(path)


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(4, 5, 8, seed=1)
        b = make_synthetic(4, 5, 8, seed=1)
        assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)

    def test_balanced(self):
        ds = make_synthetic(5, 7, 8, seed=2)
        assert all(np.sum(ds.labels == k) == 7 for k in range(5))

    def test_pixels_in_range(self):
        ds = make_synthetic(3, 4, 8, seed=3)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_nearest_centroid_separable(self):
        train = make_synthetic(10, 30, 16, seed=4)
        test = make_synthetic(10, 10, 16, seed=5)
        centroids = np.stack([
            train.images[train.labels == k].mean(axis=0).ravel() for k in range(10)
        ])
        flat = test.images.reshape(len(test), -1)
        d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = np.mean(np.argmin(d2, axis=1) == test.labels)
        assert acc >= 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic(1, 5, 8, seed=0)
        with pytest.raises(ValueError):
            Dataset(np.full((1, 1, 2, 2), 1.5), np.zeros(1), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 1, 2, 2)), np.array([5]), 2)
        with pytest.raises(ValueError, match="pixel values"):
            Dataset(np.array([0.5, np.nan, 0.5, 0.5]).reshape(1, 1, 2, 2), np.zeros(1), 2)


class TestApplyUniversal:
    """A universal view applies ``xi``: it adds it and clips to [0, 1]; the
    budget and finiteness are checked when the spec is built
    (``TestPerturbationSpec``)."""

    @staticmethod
    def render(x, xi, eps):
        ds = Dataset(x, np.zeros(len(x)), 2)
        return PerturbedView(ds, PerturbationSpec("universal", xi, epsilon=eps)).materialize(np.arange(len(x)))

    def test_zero_identity(self):
        x = np.random.default_rng(0).random((2, 3, 4, 4))
        assert np.array_equal(self.render(x, np.zeros((3, 4, 4)), 0.1), x)

    def test_clipping(self):
        x = np.full((1, 1, 2, 2), 0.9)
        out = self.render(x, np.full((1, 2, 2), 0.2), 0.2)
        assert np.all(out == 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 0.3))
    def test_bounded_displacement(self, seed, eps):
        rng = np.random.default_rng(seed)
        x = rng.random((2, 1, 3, 3))
        xi = rng.uniform(-eps, eps, (1, 3, 3))
        out = self.render(x, xi, eps)
        assert np.all(np.abs(out - x) <= eps + 1e-12)
        assert out.min() >= 0.0 and out.max() <= 1.0


def overlay_gather_full_grid(images_shape, patch_side, chi, placements):
    """``_overlay_gather`` evaluated on every pixel of every image: the
    rotated sampling grid over the whole [B, H, W], then ``np.nonzero``."""
    B, C, H, W = images_shape
    scaled = chi * H
    P = patch_side
    ys, xs = np.meshgrid(np.arange(H) + 0.5, np.arange(W) + 0.5, indexing="ij")
    a = placements[:, 0][:, None, None]
    b = placements[:, 1][:, None, None]
    theta = placements[:, 2][:, None, None]
    dy = ys[None] - a
    dx = xs[None] - b
    ry = np.cos(theta) * dy + np.sin(theta) * dx
    rx = -np.sin(theta) * dy + np.cos(theta) * dx
    qy = ry * (P / scaled) + P / 2.0
    qx = rx * (P / scaled) + P / 2.0
    inside = (qy - P / 2.0) ** 2 + (qx - P / 2.0) ** 2 <= (P / 2.0) ** 2
    bidx, ridx, cidx = np.nonzero(inside)
    u = qy[bidx, ridx, cidx] - 0.5
    v = qx[bidx, ridx, cidx] - 0.5
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


def overlay_reference(images, patch, chi, placements, g):
    """The overlay as four bilinear terms summed 00 + 01 + 10 + 11, and the
    gradient of ``sum(g * out)`` in the patch as four scatters in that order.
    The covered pixels come from the full-grid gather; their neighbors and
    weights are recomputed here from the placements."""
    bidx, ridx, cidx = overlay_gather_full_grid(images.shape, patch.shape[1], chi, placements)[:3]
    P, scale = patch.shape[1], patch.shape[1] / (chi * images.shape[2])
    a, b, theta = placements[bidx].T
    dy, dx = ridx + 0.5 - a, cidx + 0.5 - b
    u = (np.cos(theta) * dy + np.sin(theta) * dx) * scale + P / 2.0 - 0.5
    v = (-np.sin(theta) * dy + np.cos(theta) * dx) * scale + P / 2.0 - 0.5
    i0, j0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
    fu, fv = u - i0, v - j0
    i1, j1 = np.clip(i0 + 1, 0, P - 1), np.clip(j0 + 1, 0, P - 1)
    i0, j0 = np.clip(i0, 0, P - 1), np.clip(j0, 0, P - 1)
    corners = [(i0, j0, (1 - fu) * (1 - fv)), (i0, j1, (1 - fu) * fv), (i1, j0, fu * (1 - fv)), (i1, j1, fu * fv)]
    terms = [w * patch[:, i, j] for i, j, w in corners]
    out = images.copy()
    out[bidx, :, ridx, cidx] = (terms[0] + terms[1] + terms[2] + terms[3]).T
    grad = np.zeros_like(patch)
    gsel = g[bidx, :, ridx, cidx].T
    for i, j, w in corners:
        np.add.at(grad, (np.arange(len(patch))[:, None], i[None, :], j[None, :]), w[None, :] * gsel)
    return out, grad


def overlay(x, xi, chi, placements):
    return overlay_patch_op(x, Tensor(xi), chi, placements).data


class TestApplyPatch:
    def test_tiny_chi_touches_nothing(self):
        x = np.random.default_rng(1).random((1, 1, 8, 8))
        xi = np.full((1, 8, 8), 0.5)
        # radius 0.2 around (4.0, 4.0): no pixel center is that close
        out = overlay(x, xi, chi=0.05, placements=np.array([[4.0, 4.0, 0.3]]))
        assert np.array_equal(out, x)

    def test_one_to_one_centered(self):
        rng = np.random.default_rng(2)
        x = rng.random((1, 3, 8, 8))
        xi = rng.random((3, 8, 8))
        out = overlay(x, xi, chi=1.0, placements=np.array([[4.0, 4.0, 0.0]]))
        rs, cs = np.meshgrid(np.arange(8) + 0.5, np.arange(8) + 0.5, indexing="ij")
        inside = (rs - 4.0) ** 2 + (cs - 4.0) ** 2 <= 16.0
        assert np.array_equal(out[0][:, inside], xi[:, inside])
        assert np.array_equal(out[0][:, ~inside], x[0][:, ~inside])

    def test_outside_disc_untouched(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 3, 16, 16))
        xi = rng.random((3, 16, 16))
        placements = sample_placements(np.random.default_rng(0), 2, 16, 0.4, np.deg2rad(20))
        out = overlay(x, xi, 0.4, placements)
        for b in range(2):
            a, bb, _ = placements[b]
            rs, cs = np.meshgrid(np.arange(16) + 0.5, np.arange(16) + 0.5, indexing="ij")
            outside = (rs - a) ** 2 + (cs - bb) ** 2 > (0.4 * 16 / 2) ** 2
            assert np.array_equal(out[b][:, outside], x[b][:, outside])

    def test_out_of_bounds_rejected(self):
        x = np.zeros((1, 1, 8, 8))
        xi = np.full((1, 8, 8), 0.5)
        with pytest.raises(ValueError, match="out of bounds"):
            overlay(x, xi, 0.5, np.array([[0.5, 4.0, 0.0]]))

    def test_placements_stay_inside(self):
        p = sample_placements(np.random.default_rng(4), 500, 16, 0.4, np.deg2rad(20))
        r = 0.4 * 16 / 2
        assert np.all(p[:, 0] >= r) and np.all(p[:, 0] <= 16 - r)
        assert np.all(np.abs(p[:, 2]) <= np.deg2rad(20))

    def test_overlay_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        images = rng.random((2, 2, 8, 8))
        xi0 = rng.uniform(0.2, 0.8, (2, 8, 8))
        placements = sample_placements(np.random.default_rng(1), 2, 8, 0.6, np.deg2rad(20))
        weights = rng.standard_normal(images.shape)

        def loss_of(p):
            out = overlay_patch_op(images, Tensor(p), 0.6, placements)
            return float(tensor_sum(mul(out, Tensor(weights))).data)

        patch = Tensor(xi0, requires_grad=True)
        backward(tensor_sum(mul(overlay_patch_op(images, patch, 0.6, placements), Tensor(weights))))
        fd = finite_difference_gradient(loss_of, xi0)
        assert relative_gradient_error(patch.grad, fd) < 1e-3

    # patch side below, equal to and above the image side; rotations up to 60 degrees
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side,patch_side,chi,seed", [(16, 8, 0.4, 0), (16, 16, 0.5, 1), (8, 12, 1.0, 2), (12, 5, 0.7, 3)])
    def test_equals_four_term_reference(self, dtype, side, patch_side, chi, seed):
        rng = np.random.default_rng(seed)
        images = rng.random((5, 3, side, side)).astype(dtype)
        xi = rng.random((3, patch_side, patch_side)).astype(dtype)
        g = rng.standard_normal(images.shape).astype(dtype)
        placements = sample_placements(rng, 5, side, chi, np.deg2rad(60))
        want_out, want_grad = overlay_reference(images, xi, chi, placements, g)
        patch = Tensor(xi, requires_grad=True)
        out = overlay_patch_op(images, patch, chi, placements)
        backward(tensor_sum(mul(out, Tensor(g))))
        assert out.data.dtype == want_out.dtype and np.array_equal(out.data, want_out)
        assert patch.grad.dtype == want_grad.dtype and np.array_equal(patch.grad, want_grad)

    # random sides, chi up to 1, placements drawn inside or pinned to an edge (within the 1e-9 the bounds check
    # allows), patch sides below and above the image side, float32 and float64 placements
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windowed_gather_equals_full_grid(self, dtype):
        rng = np.random.default_rng(41)
        for _ in range(200):
            side = int(rng.integers(4, 33))
            chi = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
            patch_side = int(rng.integers(2, 2 * side))
            batch = int(rng.integers(1, 6))
            placements = sample_placements(rng, batch, side, chi, np.deg2rad(rng.uniform(0, 90)))
            radius = chi * side / 2.0
            for col in (0, 1):
                edge = rng.random(batch) < 0.4
                placements[edge, col] = rng.choice([radius - 1e-9, radius, side - radius, side - radius + 1e-9],
                                                   edge.sum())
            placements = placements.astype(dtype)
            shape = (batch, 3, side, side)
            got = D._overlay_gather(shape, patch_side, chi, placements)
            want = overlay_gather_full_grid(shape, patch_side, chi, placements)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestPerturbationSpec:
    def test_universal_budget_enforced(self):
        with pytest.raises(ValueError):
            PerturbationSpec("universal", np.full((1, 2, 2), 0.5), epsilon=0.2)

    def test_patch_range_enforced(self):
        with pytest.raises(ValueError):
            PerturbationSpec("patch", np.full((1, 4, 4), 1.5), chi=0.5, theta_max=0.0)

    @pytest.mark.parametrize("kind,fields,value", [
        pytest.param("universal", {"epsilon": 0.2}, np.nan, id="universal-nan"),
        pytest.param("universal", {"epsilon": 0.2}, np.inf, id="universal-inf"),
        pytest.param("patch", {"chi": 0.5, "theta_max": 0.0}, np.nan, id="patch-nan"),
    ])
    def test_non_finite_rejected(self, kind, fields, value):
        xi = np.full((1, 4, 4), 0.1)
        xi[0, 2, 3] = value
        with pytest.raises(NonFiniteError):
            PerturbationSpec(kind, xi, **fields)

    def test_disc_mask_diameter(self):
        mask = disc_mask(8)
        assert mask[4, 4] == 1.0 and mask[0, 0] == 0.0
        assert mask.sum() < 64  # strictly inside the square

    def test_gray_patch(self):
        spec = gray_patch(3, 8, 0.4, np.deg2rad(20))
        assert np.all(spec.xi == 0.5) and spec.xi.shape == (3, 8, 8)


class TestPerturbedView:
    def test_zero_universal_identity(self):
        ds = make_synthetic(3, 4, 8, seed=6)
        view = PerturbedView(ds, PerturbationSpec("universal", np.zeros(ds.image_shape), epsilon=0.1))
        got = view.materialize(np.arange(4))
        assert np.array_equal(got, ds.images[:4])

    def test_same_seed_same_draw_identical(self):
        ds = make_synthetic(3, 4, 16, seed=7)
        spec = gray_patch(3, 16, 0.4, np.deg2rad(20))
        v1 = PerturbedView(ds, spec, seed=5)
        v2 = PerturbedView(ds, spec, seed=5)
        idx = np.array([0, 3, 5])
        assert np.array_equal(v1.materialize(idx, draw=2), v2.materialize(idx, draw=2))

    def test_different_draws_differ(self):
        ds = make_synthetic(3, 4, 16, seed=8)
        view = PerturbedView(ds, gray_patch(3, 16, 0.4, np.deg2rad(20)), seed=5)
        idx = np.arange(6)
        assert not np.array_equal(view.materialize(idx, draw=0), view.materialize(idx, draw=1))

    def test_patch_view_renders_through_the_op(self):
        ds = make_synthetic(3, 4, 16, seed=10)
        rng = np.random.default_rng(11)
        spec = PerturbationSpec("patch", rng.random((3, 8, 8)), chi=0.4, theta_max=np.deg2rad(20))
        idx = np.array([0, 3, 5, 11])
        placements = sample_placements(np.random.default_rng((5, 2)), len(idx), 16, spec.chi, spec.theta_max)
        got = PerturbedView(ds, spec, seed=5).materialize(idx, draw=2)
        assert np.array_equal(got, overlay(ds.images[idx], spec.xi, spec.chi, placements))
        assert np.array_equal(got, overlay_reference(ds.images[idx], spec.xi, spec.chi, placements, ds.images[idx])[0])

    def test_clean_view_returns_a_copy(self):
        ds = make_synthetic(2, 2, 8, seed=9)
        got = clean_view(ds).materialize(np.array([1, 0, 3]))
        assert np.array_equal(got, ds.images[[1, 0, 3]]) and not np.shares_memory(got, ds.images)

    def test_index_out_of_range(self):
        ds = make_synthetic(2, 2, 8, seed=9)
        with pytest.raises(IndexError):
            clean_view(ds).materialize(np.array([99]))


class TestBatchSampler:
    def test_full_batch_is_permutation(self):
        s = BatchSampler(10, np.random.default_rng(0))
        idx = s.next_indices(10)
        assert sorted(idx) == list(range(10))

    def test_seeded_reproducible(self):
        a = BatchSampler(20, np.random.default_rng(3))
        b = BatchSampler(20, np.random.default_rng(3))
        for _ in range(5):
            assert np.array_equal(a.next_indices(6), b.next_indices(6))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            BatchSampler(5, np.random.default_rng(0)).next_indices(6)

    def test_frequencies_uniform(self):
        n, size = 20, 6
        s = BatchSampler(n, np.random.default_rng(4))
        counts = np.zeros(n)
        epochs = 1000
        draws = epochs * n // size
        for _ in range(draws):
            counts[s.next_indices(size)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestPpmExport:
    def test_universal_scaling(self):
        eps = 0.2
        xi = np.zeros((3, 2, 2))
        xi[0, 0, 0] = eps
        xi[1, 0, 0] = -eps
        blob = to_ppm_bytes(PerturbationSpec("universal", xi, epsilon=eps))
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P6\n2 2\n255\n"):], dtype=np.uint8).reshape(2, 2, 3)
        assert pixels[0, 0, 0] == 255       # +eps -> 255
        assert pixels[0, 0, 1] == 0         # -eps -> 0
        assert pixels[0, 0, 2] == 128       # 0 -> round(127.5)

    def test_patch_direct(self):
        spec = gray_patch(3, 4, 0.5, 0.0)
        blob = to_ppm_bytes(spec)
        body = blob.split(b"\n255\n", 1)[1]
        assert set(body) == {128}

    def test_export_file(self, tmp_path):
        spec = gray_patch(3, 4, 0.5, 0.0)
        path = tmp_path / "p.ppm"
        D.export_ppm(spec, path)
        assert path.read_bytes().startswith(b"P6\n4 4\n255\n")

    def test_a_write_goes_to_a_sibling_and_a_failed_one_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.ppm"
        D.export_ppm(gray_patch(3, 4, 0.5, 0.0), path)
        before = path.read_bytes()
        during = []

        def failing_render(spec):
            during.append((path.read_bytes(), sorted(p.name for p in tmp_path.iterdir())))
            raise OSError("disk full")

        monkeypatch.setattr(D, "to_ppm_bytes", failing_render)
        with pytest.raises(OSError, match="disk full"):
            D.export_ppm(gray_patch(3, 4, 0.25, 0.0), path)
        ((read_during, names_during),) = during
        assert read_during == before and len(names_during) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.ppm"]
