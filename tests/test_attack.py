import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advgame import attack as A
from advgame import data as D
from advgame import model as M
from advgame import tensor as T
from advgame.attack import (
    PatchAttackConfig,
    PgdConfig,
    UniversalAttackConfig,
    learn_patch,
    learn_universal,
    load_perturbation,
    patch_objective,
    patch_step,
    pgd_per_sample,
    project_linf,
    save_perturbation,
    universal_step,
)
from advgame.model import build_model, forward, freeze, single_pool, tiny_config
from advgame.tensor import Tensor, softmax_cross_entropy


@pytest.fixture(scope="module")
def desk():
    cfg = tiny_config(side=8)
    params = build_model(cfg, 0)
    dataset = D.make_synthetic(10, 12, 8, seed=0)
    return cfg, params, dataset


class TestProjectLinf:
    def test_clamps_high(self):
        assert project_linf(np.array([0.5]), 0.2)[0] == 0.2

    def test_inside_ball_identity(self):
        assert project_linf(np.array([-0.05]), 0.2)[0] == -0.05

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, np.nan])
    def test_nonpositive_or_nan_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="positive"):
            project_linf(np.zeros(3), epsilon)

    def test_idempotent(self):
        x = np.random.default_rng(0).uniform(-1, 1, 20)
        once = project_linf(x, 0.3)
        assert np.array_equal(project_linf(once, 0.3), once)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 1.0))
    def test_never_exceeds_budget(self, seed, eps):
        x = np.random.default_rng(seed).standard_normal(16)
        assert np.abs(project_linf(x, eps)).max() <= eps


class TestUniversalStep:
    def test_zero_gradients_leave_xi(self, desk):
        cfg, params, dataset = desk
        # constant logits: zero weights and bias make every gradient vanish
        params0 = {k: Tensor(np.zeros_like(v.data), requires_grad=v.requires_grad) for k, v in params.items()}
        xi = np.zeros(dataset.image_shape)
        out = universal_step(xi, single_pool(cfg, params0), dataset.images[:4], dataset.labels[:4], 0.1, 0.2)
        assert np.array_equal(out, xi)

    def test_sign_arithmetic_single_sample(self):
        # emulate the printed update with a hand-made gradient via a linear model
        g = np.array([-3.0, 0.0, 7.0])
        signs = np.sign(g)
        xi = np.zeros(3)
        out = project_linf(xi + 0.1 * signs, 1.0)
        assert np.allclose(out, [-0.1, 0.0, 0.1])

    def test_opposite_gradients_cancel(self, desk):
        g = np.array([[1.0, -2.0], [-0.5, 3.0]])
        update = np.sign(g).mean(axis=0)
        assert np.array_equal(update, [0.0, 0.0])

    def test_pool_of_one_bit_identical_to_single(self, desk):
        cfg, params, dataset = desk
        frozen = [freeze(cfg, params)]
        xi = np.random.default_rng(1).uniform(-0.05, 0.05, dataset.image_shape)
        batch, labels = dataset.images[:6], dataset.labels[:6]
        via_frozen = universal_step(xi, frozen, batch, labels, 0.01, 0.1)
        via_live = universal_step(xi, single_pool(cfg, params), batch, labels, 0.01, 0.1)
        assert np.array_equal(via_frozen, via_live)

    def test_duplication_invariance(self, desk):
        cfg, params, dataset = desk
        xi = np.zeros(dataset.image_shape)
        one = universal_step(xi, single_pool(cfg, params), dataset.images[:1], dataset.labels[:1], 0.02, 0.1)
        dup_batch = np.concatenate([dataset.images[:1]] * 4)
        dup_labels = np.concatenate([dataset.labels[:1]] * 4)
        duplicated = universal_step(xi, single_pool(cfg, params), dup_batch, dup_labels, 0.02, 0.1)
        assert np.array_equal(one, duplicated)

    def test_budget_precondition(self, desk):
        cfg, params, dataset = desk
        with pytest.raises(ValueError):
            universal_step(np.full(dataset.image_shape, 0.3), single_pool(cfg, params),
                           dataset.images[:2], dataset.labels[:2], 0.1, 0.2)

    def test_budget_invariant_many_random_steps(self, desk):
        cfg, params, dataset = desk
        rng = np.random.default_rng(2)
        eps = 16 / 255
        xi = np.zeros(dataset.image_shape)
        for _ in range(64):
            idx = rng.integers(0, len(dataset), 4)
            xi = universal_step(xi, single_pool(cfg, params), dataset.images[idx], dataset.labels[idx],
                                rng.uniform(0.005, 0.1), eps)
            assert np.abs(xi).max() <= eps


class TestLearnUniversal:
    def test_zero_iterations(self, desk):
        cfg, params, dataset = desk
        spec = learn_universal(single_pool(cfg, params), dataset,
                               UniversalAttackConfig(0.1, 0.01, 0), np.random.default_rng(0))
        assert np.all(spec.xi == 0.0)

    def test_loss_does_not_decrease_on_random_model(self, desk):
        cfg, params, dataset = desk
        config = UniversalAttackConfig(16 / 255, 0.005, 150, batch_size=32)
        spec = learn_universal(single_pool(cfg, params), dataset, config, np.random.default_rng(3))
        x, y = dataset.images, dataset.labels
        clean = softmax_cross_entropy(forward(cfg, params, x, "infer"), y).item()
        adv_x = D.PerturbedView(dataset, spec).materialize(np.arange(len(dataset)))
        adv = softmax_cross_entropy(forward(cfg, params, adv_x, "infer"), y).item()
        assert adv >= clean

    def test_deterministic_given_seed(self, desk):
        cfg, params, dataset = desk
        config = UniversalAttackConfig(0.05, 0.01, 10, batch_size=16)
        a = learn_universal(single_pool(cfg, params), dataset, config, np.random.default_rng(7))
        b = learn_universal(single_pool(cfg, params), dataset, config, np.random.default_rng(7))
        assert np.array_equal(a.xi, b.xi)


class TestPatchStep:
    def _setup(self, desk, lam=0.0, target_class=None, alpha=0.5):
        cfg, params, dataset = desk
        config = PatchAttackConfig(
            chi=0.5, theta_max=np.deg2rad(20), alpha=alpha,
            iterations=1, placements_per_step=2, batch_size=4,
            target_class=target_class, lam=lam,
        )
        rng = np.random.default_rng(5)
        placements = D.sample_placements(rng, 4 * 2, 8, config.chi, config.theta_max)
        return cfg, params, dataset, config, placements

    def test_zero_gradients_leave_patch(self, desk):
        cfg, params, dataset, config, placements = self._setup(desk)
        params0 = {k: Tensor(np.zeros_like(v.data), requires_grad=v.requires_grad) for k, v in params.items()}
        spec = D.gray_patch(3, 8, config.chi, config.theta_max)
        out = patch_step(spec.xi, single_pool(cfg, params0), dataset.images[:4], dataset.labels[:4],
                         config, placements, D.disc_mask(8))
        assert np.array_equal(out, spec.xi)

    def test_masked_pixels_never_change(self, desk):
        cfg, params, dataset, config, placements = self._setup(desk)
        spec = D.gray_patch(3, 8, config.chi, config.theta_max)
        out = patch_step(spec.xi, single_pool(cfg, params), dataset.images[:4], dataset.labels[:4],
                         config, placements, D.disc_mask(8))
        outside = ~D.disc_mask(8)
        assert np.array_equal(out[:, outside], spec.xi[:, outside])

    def test_targeted_line_search_decreases_target_loss(self, desk):
        cfg, params, dataset, _, _ = self._setup(desk)
        batch, labels = dataset.images[:4], dataset.labels[:4]
        decreased = False
        for alpha in (1.0, 0.1, 0.01):
            config = PatchAttackConfig(
                chi=0.5, theta_max=np.deg2rad(20), alpha=alpha,
                iterations=1, placements_per_step=2, batch_size=4, target_class=3, lam=1.0,
            )
            placements = D.sample_placements(np.random.default_rng(6), 8, 8, config.chi, config.theta_max)
            spec = D.gray_patch(3, 8, config.chi, config.theta_max)

            def target_loss(xi):
                return -patch_objective(single_pool(cfg, params), Tensor(xi), batch, labels, config, placements).item()

            before = target_loss(spec.xi)
            stepped = patch_step(spec.xi, single_pool(cfg, params), batch, labels, config, placements, D.disc_mask(8))
            if target_loss(stepped) < before:
                decreased = True
                break
        assert decreased

    def test_targeted_step_runs_one_forward_per_member(self, desk, monkeypatch):
        cfg, params, dataset, config, placements = self._setup(desk, lam=0.5, target_class=3)
        pool = [freeze(cfg, params) for _ in range(2)]
        batch, labels = dataset.images[:4], dataset.labels[:4]
        spec = D.gray_patch(3, 8, config.chi, config.theta_max)
        forwards = []
        real_forward = M.forward

        def counted(*args, **kwargs):
            forwards.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(M, "forward", counted)
        patch_step(spec.xi, pool, batch, labels, config, placements, D.disc_mask(8))
        assert len(forwards) == 2
        # the value is still (1 - lambda) * loss(labels) - lambda * loss(target)
        got = patch_objective(pool, Tensor(spec.xi), batch, labels, config, placements).item()
        adv = D.overlay_patch_op(np.concatenate([batch] * 2), Tensor(spec.xi), config.chi, placements)
        true_loss = M.pool_expected_loss(pool, adv, np.concatenate([labels] * 2)).item()
        target_loss = M.pool_expected_loss(pool, adv, np.full(8, 3)).item()
        assert got == 0.5 * true_loss - 0.5 * target_loss

    def test_pixels_stay_in_range_many_steps(self, desk):
        cfg, params, dataset, config, _ = self._setup(desk, alpha=5.0)
        spec = D.gray_patch(3, 8, config.chi, config.theta_max)
        xi = spec.xi
        rng = np.random.default_rng(8)
        for _ in range(40):
            placements = D.sample_placements(rng, 8, 8, config.chi, config.theta_max)
            idx = rng.integers(0, len(dataset), 4)
            xi = patch_step(xi, single_pool(cfg, params), dataset.images[idx], dataset.labels[idx],
                            config, placements, D.disc_mask(8))
            assert xi.min() >= 0.0 and xi.max() <= 1.0


class TestLearnPatch:
    def test_zero_iterations_gray_disc(self, desk):
        cfg, params, dataset = desk
        config = PatchAttackConfig(0.5, 0.0, alpha=0.1, iterations=0)
        spec = learn_patch(single_pool(cfg, params), dataset, config, np.random.default_rng(0))
        assert np.all(spec.xi == 0.5) and spec.kind == "patch"

    @pytest.mark.parametrize("side", [8, 12])
    def test_the_patch_takes_the_side_of_the_images_it_is_crafted_on(self, side):
        cfg = tiny_config(side=side)
        pool, dataset = single_pool(cfg, build_model(cfg, 0)), D.make_synthetic(10, 4, side, seed=0)
        rng = np.random.default_rng(0)
        gray = learn_patch(pool, dataset, PatchAttackConfig(0.5, 0.3, alpha=0.1, iterations=0), rng)
        assert gray.xi.tobytes() == D.gray_patch(3, side, 0.5, 0.3).xi.tobytes() and gray.patch_side == side
        config = PatchAttackConfig(0.5, 0.3, alpha=5.0, iterations=2, batch_size=8)
        spec = learn_patch(pool, dataset, config, np.random.default_rng(0))
        disc = D.disc_mask(side)
        assert spec.xi.shape == (3, side, side)
        assert np.all(spec.xi[:, ~disc] == 0.5) and np.any(spec.xi[:, disc] != 0.5)


class TestFloat32:
    """A float32 run stays float32 through both attacks that step an image-shaped array."""

    @pytest.fixture
    def desk32(self):
        T.set_default_dtype(np.float32)
        try:
            cfg = tiny_config(side=8)
            yield cfg, build_model(cfg, 0), D.make_synthetic(10, 12, 8, seed=0)
        finally:
            T.set_default_dtype(np.float64)

    def test_learn_patch(self, desk32):
        cfg, params, dataset = desk32
        config = PatchAttackConfig(0.5, 0.0, alpha=0.1, iterations=2, batch_size=8)
        spec = learn_patch(single_pool(cfg, params), dataset, config, np.random.default_rng(0))
        assert spec.xi.dtype == np.float32

    def test_pgd_random_init(self, desk32):
        cfg, params, dataset = desk32
        out = pgd_per_sample(single_pool(cfg, params), dataset.images[:4], dataset.labels[:4],
                             PgdConfig(0.1, 0.025, 2), np.random.default_rng(0))
        assert out.dtype == np.float32


class TestPgd:
    def test_zero_steps_no_init_identity(self, desk):
        cfg, params, dataset = desk
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = pgd_per_sample(single_pool(cfg, params), dataset.images[:3], dataset.labels[:3],
                             PgdConfig(0.1, 0.025, 0), rng)
        assert out.tobytes() == dataset.images[:3].tobytes() and out.dtype == dataset.images.dtype
        assert rng.bit_generator.state == before

    def test_ball_and_range_property(self, desk):
        cfg, params, dataset = desk
        eps = 16 / 255
        x = dataset.images[:8]
        out = pgd_per_sample(single_pool(cfg, params), x, dataset.labels[:8],
                             PgdConfig(eps, eps / 4, 7), np.random.default_rng(1))
        assert np.abs(out - x).max() <= eps + 1e-12
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_raises_loss_on_most_samples(self, desk):
        cfg, _, dataset = desk
        # train a quick model so gradients point somewhere meaningful
        params = build_model(cfg, 1)
        rng = np.random.default_rng(2)
        sampler = D.BatchSampler(len(dataset), rng)
        vel = {n: np.zeros_like(params[n].data) for n in M.trainable_names(params)}
        for _ in range(300):
            idx = sampler.next_indices(32)
            loss = softmax_cross_entropy(forward(cfg, params, dataset.images[idx], "train"), dataset.labels[idx])
            T.backward(loss, wrt={n: params[n] for n in vel}, on_grad=lambda name, grad:
                       T.sgd_momentum_step(name, params[name], grad, vel[name], lr=0.05, momentum=0.9))
        eps = 16 / 255
        x, y = dataset.images[:40], dataset.labels[:40]
        adv = pgd_per_sample(single_pool(cfg, params), x, y, PgdConfig(eps, eps / 4, 7), np.random.default_rng(3))

        def per_sample_loss(batch):
            logits = forward(cfg, params, batch, "infer").data
            log_p = T.log_softmax(logits)
            return -log_p[np.arange(len(y)), y]

        frac = np.mean(per_sample_loss(adv) >= per_sample_loss(x))
        assert frac >= 0.95


class TestConfigs:
    def test_universal_validation(self):
        with pytest.raises(ValueError):
            UniversalAttackConfig(-0.1, 0.01, 10)

    def test_patch_validation(self):
        with pytest.raises(ValueError):
            PatchAttackConfig(1.5, 0.0, alpha=0.1, iterations=1)
        with pytest.raises(ValueError):
            PatchAttackConfig(0.5, 0.0, alpha=0.1, iterations=1, lam=0.5)  # lam without target

    def test_pgd_validation(self):
        with pytest.raises(ValueError):
            PgdConfig(0.1, 0.0, 5)


class TestContainer:
    def test_universal_round_trip(self, tmp_path, desk):
        _, _, dataset = desk
        rng = np.random.default_rng(9)
        eps = 16 / 255
        xi = project_linf(rng.uniform(-eps, eps, dataset.image_shape), eps)
        spec = A.PerturbationSpec("universal", xi, epsilon=eps)
        path = tmp_path / "u.pert"
        save_perturbation(path, spec)
        loaded = load_perturbation(path)
        assert loaded.kind == "universal" and loaded.epsilon == eps
        assert loaded.xi.tobytes() == xi.tobytes()
        assert np.abs(loaded.xi).max() <= eps

    def test_patch_round_trip(self, tmp_path):
        spec = D.gray_patch(3, 8, 0.4, np.deg2rad(20))
        path = tmp_path / "p.pert"
        save_perturbation(path, spec)
        loaded = load_perturbation(path)
        assert loaded.kind == "patch"
        assert loaded.chi == 0.4 and abs(loaded.theta_max - np.deg2rad(20)) < 1e-15
        assert loaded.xi.tobytes() == spec.xi.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pert"
        path.write_bytes(b"WHAT" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_perturbation(path)

    def test_patch_side_header_must_match_payload(self, tmp_path):
        path = tmp_path / "p.pert"
        save_perturbation(path, D.gray_patch(3, 8, 0.4, 0.0))
        blob = path.read_bytes()
        path.write_bytes(blob[:9] + struct.pack("<I", 7) + blob[13:])  # patch_side follows magic, version and kind
        with pytest.raises(M.CorruptFileError, match="patch side 7"):
            load_perturbation(path)
