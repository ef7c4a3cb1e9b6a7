import copy
import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from advgame import attack as A
from advgame import data as D
from advgame import evaluation as E
from advgame import model as M
from advgame import tensor as T
from advgame import train as TR
from advgame.attack import PatchAttackConfig, PgdConfig, UniversalAttackConfig
from advgame.model import build_model, forward, mixture_weights, tiny_config
from advgame.tensor import softmax_cross_entropy
from advgame.train import (
    MATCHING_PENNIES,
    ROCK_PAPER_SCISSORS,
    MatrixGame,
    TrainConfig,
    TrainingError,
    at_train,
    classifier_pool_loss,
    fp_matrix_game,
    fp_train,
    game_value,
    sgd_train,
)


def weights_oracle(n):
    """Direct expansion of the nested historical-loss recursion."""
    if n == 0:
        return np.array([1.0])
    acc = np.zeros(n)
    acc[0] += 1.0  # the 0th historical loss is the clean-dataset loss alone
    for i in range(1, n + 1):
        for j in range(i):
            acc[j] += 1.0 / i
    return acc / (n + 1)


def weights_per_view(n, mode):
    """Reference for ``mixture_weights``' bits: the ``n <= 1`` case and one
    subtraction per view."""
    count = max(n, 1)
    if mode == "uniform":
        return np.full(count, 1.0 / count)
    if n <= 1:
        return np.ones(1)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])
    weights = np.empty(n)
    weights[0] = 1.0 + harmonic[n]
    for j in range(1, n):
        weights[j] = harmonic[n] - harmonic[j]
    return weights / (n + 1)


def small_dataset(seed=0, classes=4, per_class=8, side=8):
    return D.make_synthetic(classes, per_class, side, seed=seed)


def desk_cfg(**kw):
    base = dict(
        outer_iterations=1,
        inner_steps=5,
        batch_size=8,
        learning_rate=0.05,
        attack=UniversalAttackConfig(16 / 255, 0.01, 0, batch_size=8),
        eval_sample_size=16,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def bn_config(num_classes):
    """The tiny model's two strided convs with batchnorm: four running buffers."""
    return M.ModelConfig("bn", (3, 8, 8), num_classes, (M.ConvSpec(8, 3, 2), M.ConvSpec(16, 3, 2)), batchnorm=True)


def model_configs(ds):
    return [tiny_config(side=8, num_classes=ds.num_classes), bn_config(ds.num_classes)]


def param_digest(params):
    """One hash over every parameter, batchnorm running buffers included."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(params[name].data.tobytes())
    return h.hexdigest()


class TestDatasetWeights:
    def test_n0_clean_only(self):
        assert np.array_equal(mixture_weights(0, "literal"), [1.0])

    def test_n1(self):
        assert np.array_equal(mixture_weights(1, "literal"), [1.0])

    def test_n2_literal_hand_expansion(self):
        w = mixture_weights(2, "literal")
        assert np.allclose(w, [5 / 6, 1 / 6], rtol=0, atol=1e-15)

    def test_matches_expansion_oracle_up_to_100(self):
        for n in range(0, 101):
            w = mixture_weights(n, "literal")
            assert np.allclose(w, weights_oracle(n), rtol=0, atol=1e-12)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 0)

    @pytest.mark.parametrize("mode", ["literal", "uniform"])
    def test_bits_equal_the_per_view_loop(self, mode):
        for n in range(0, 201):
            assert np.array_equal(mixture_weights(n, mode), weights_per_view(n, mode)), n

    def test_uniform_equal_and_normalized(self):
        for n in range(0, 20):
            w = mixture_weights(n, "uniform")
            assert np.allclose(w, w[0]) and abs(w.sum() - 1.0) < 1e-12

    def test_clean_weight_non_increasing(self):
        prev = 1.0
        for n in range(1, 60):
            w0 = mixture_weights(n, "literal")[0]
            assert w0 <= prev + 1e-15
            prev = w0


class TestClassifierPoolLoss:
    def _state(self, dataset, views_extra=()):
        state = TR.initial_state(tiny_config(side=8, num_classes=dataset.num_classes), dataset, desk_cfg(), "sgd")
        state.views += views_extra
        return state

    def test_empty_pool_is_clean_loss(self):
        ds = small_dataset()
        state = self._state(ds)
        idx = np.arange(6)
        got = classifier_pool_loss(state, idx, "literal").item()
        want = softmax_cross_entropy(
            forward(state.config, state.params, ds.images[idx], "infer"), ds.labels[idx]
        ).item()
        assert got == want

    def test_zero_perturbation_pool_equals_clean(self):
        ds = small_dataset()
        zero = D.PerturbedView(ds, D.PerturbationSpec("universal", np.zeros(ds.image_shape), epsilon=0.1))
        state = self._state(ds, [zero])
        idx = np.arange(6)
        got = classifier_pool_loss(state, idx, "literal").item()
        want = softmax_cross_entropy(
            forward(state.config, state.params, ds.images[idx], "infer"), ds.labels[idx]
        ).item()
        assert abs(got - want) < 1e-12

    def test_weighted_sum_term_by_term(self):
        ds = small_dataset()
        rng = np.random.default_rng(1)
        eps = 0.1
        spec1 = D.PerturbationSpec("universal", rng.uniform(-eps, eps, ds.image_shape), epsilon=eps)
        spec2 = D.PerturbationSpec("universal", rng.uniform(-eps, eps, ds.image_shape), epsilon=eps)
        v1, v2 = D.PerturbedView(ds, spec1), D.PerturbedView(ds, spec2)
        state = self._state(ds, [v1, v2])
        idx = np.arange(8)
        weights = mixture_weights(3, "literal")
        terms = []
        for view in state.views:
            x = view.materialize(idx, draw=0)
            terms.append(
                softmax_cross_entropy(forward(state.config, state.params, x, "infer"), ds.labels[idx]).item()
            )
        want = sum(w * t for w, t in zip(weights, terms))
        got = classifier_pool_loss(state, idx, "literal").item()
        assert abs(got - want) < 1e-12


class TestReductionIdentities:
    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    def test_fp_with_zero_attack_equals_sgd_bitwise(self, mode):
        ds = small_dataset()
        cfg = desk_cfg(inner_steps=25)
        for mc in model_configs(ds):
            fp_digests, sgd_digests = [], []
            _, fp_report = fp_train(mc, ds, cfg, mode=mode, on_step=lambda s, p: fp_digests.append(param_digest(p)))
            _, sgd_report = sgd_train(mc, ds, cfg, on_step=lambda s, p: sgd_digests.append(param_digest(p)))
            assert fp_digests == sgd_digests and len(fp_digests) == 25, mc.name
            assert E.format_rows(fp_report) == E.format_rows(sgd_report), mc.name

    def test_fp_equals_sgd_only_while_the_pool_is_the_clean_view(self):
        ds = small_dataset()
        cfg = desk_cfg(outer_iterations=2, inner_steps=3)
        for mc in model_configs(ds):
            fp_digests, sgd_digests = [], []
            fp_train(mc, ds, cfg, on_step=lambda s, p: fp_digests.append(param_digest(p)))
            sgd_train(mc, ds, cfg, on_step=lambda s, p: sgd_digests.append(param_digest(p)))
            assert fp_digests[:3] == sgd_digests[:3], mc.name
            # from the first step on two views the split weights round otherwise
            assert all(f != s for f, s in zip(fp_digests[3:], sgd_digests[3:])) and len(fp_digests) == 6, mc.name

    def test_at_with_zero_pgd_equals_sgd_bitwise(self):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(inner_steps=25, pgd=PgdConfig(16 / 255, 0))
        at_digests, sgd_digests = [], []
        at_train(mc, ds, cfg, on_step=lambda s, p: at_digests.append(param_digest(p)))
        sgd_train(mc, ds, cfg, on_step=lambda s, p: sgd_digests.append(param_digest(p)))
        assert at_digests == sgd_digests and len(at_digests) == 25

    def test_at_with_zero_pgd_on_batchnorm_differs_from_sgd_only_in_running_buffers(self):
        ds = small_dataset()
        mc = bn_config(ds.num_classes)
        cfg = desk_cfg(inner_steps=5, pgd=PgdConfig(16 / 255, 0))
        at_params, sgd_params = [], []
        at_train(mc, ds, cfg, on_step=lambda s, p: at_params.append({n: t.data.copy() for n, t in p.items()}))
        sgd_train(mc, ds, cfg, on_step=lambda s, p: sgd_params.append({n: t.data.copy() for n, t in p.items()}))
        buffers = {"bn0.running_mean", "bn0.running_var", "bn1.running_mean", "bn1.running_var"}
        for at_step, sgd_step in zip(at_params, sgd_params):
            assert {n for n in at_step if not np.array_equal(at_step[n], sgd_step[n])} == buffers
        assert len(at_params) == 5


class TestFpTrain:
    def test_k0_returns_initial_classifier_and_one_perturbation(self):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(inner_steps=0, attack=UniversalAttackConfig(16 / 255, 0.01, 3, batch_size=8))
        state, report = fp_train(mc, ds, cfg)
        init = build_model(mc, cfg.seed)
        for name in init:
            assert np.array_equal(state.params[name].data, init[name].data)
        assert len(state.views[1:]) == 1 and len(report) == 1

    def test_pool_length_equals_outer_iterations(self):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(outer_iterations=3, inner_steps=2,
                       attack=UniversalAttackConfig(16 / 255, 0.01, 2, batch_size=8))
        state, report = fp_train(mc, ds, cfg)
        assert len(state.views[1:]) == 3 and len(report) == 3
        for view in state.views[1:]:
            assert np.abs(view.spec.xi).max() <= 16 / 255

    def test_pool_memory_is_per_image_not_per_dataset(self):
        small = small_dataset(per_class=4)
        big = small_dataset(per_class=64)
        mc = tiny_config(side=8, num_classes=small.num_classes)
        cfg = desk_cfg(outer_iterations=2, inner_steps=1,
                       attack=UniversalAttackConfig(16 / 255, 0.01, 1, batch_size=8))
        state_small, _ = fp_train(mc, small, cfg)
        state_big, _ = fp_train(mc, big, cfg)
        bytes_small = sum(v.spec.xi.nbytes for v in state_small.views[1:])
        bytes_big = sum(v.spec.xi.nbytes for v in state_big.views[1:])
        assert bytes_small == bytes_big
        assert bytes_small == 2 * small.images[0].nbytes

    def test_exact_pool_member_k_is_the_classifier_at_iteration_k(self):
        ds = small_dataset()
        cfg = desk_cfg(outer_iterations=3, inner_steps=2,
                       attack=UniversalAttackConfig(16 / 255, 0.01, 1, batch_size=8))
        for mc in model_configs(ds):
            played = [{n: p.data for n, p in build_model(mc, cfg.seed).items()}]

            def record(n, params, row):
                played.append({name: p.data.copy() for name, p in params.items()})

            state, _ = fp_train(mc, ds, cfg, mode="exact", on_outer=record)
            assert len(state.pool) == len(played) == cfg.outer_iterations + 1, mc.name
            for member, arrays in zip(state.pool, played):
                assert member.config == mc
                assert all(np.array_equal(member.params[n].data, arrays[n]) for n in arrays), mc.name
            # frozen copies, not the live arrays
            assert not any(state.pool[-1].params[n].data is p.data for n, p in state.params.items())

    @pytest.mark.parametrize("trainer", ["approximate", "sgd", "at"])
    def test_pool_of_one_wraps_the_live_parameters(self, trainer, monkeypatch):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(outer_iterations=2, inner_steps=2, pgd=PgdConfig(16 / 255, 1))
        attacked = []  # the pool each attack (and AT's PGD) was handed

        def recorded(real):
            def call(pool, *args):
                attacked.append(pool)
                return real(pool, *args)
            return call

        for name in ("craft", "pgd_per_sample"):
            monkeypatch.setattr(A, name, recorded(getattr(A, name)))
        run = {"approximate": fp_train, "sgd": sgd_train, "at": at_train}[trainer]
        state, _ = run(mc, ds, cfg)
        pgd_calls = cfg.outer_iterations * cfg.inner_steps if trainer == "at" else 0
        assert len(attacked) == cfg.outer_iterations + pgd_calls
        assert all(pool is attacked[0] for pool in attacked)
        assert state.pool is attacked[0]
        (member,) = attacked[0]
        assert all(member.params[n].data is p.data for n, p in state.params.items())

    def test_clean_and_adv_score_one_subset(self):
        # an untrained model under a zero perturbation scores the same on the same images
        ds = small_dataset()
        cfg = desk_cfg(outer_iterations=4, inner_steps=0, eval_sample_size=5)
        for mc in model_configs(ds):
            _, report = fp_train(mc, ds, cfg)
            assert all(np.array_equal(row.spec.xi, np.zeros(ds.image_shape)) for row in report)
            assert [row.adv_acc for row in report] == [row.clean_acc for row in report], mc.name

    def test_uniform_weighting_weights_every_view_equally(self, monkeypatch):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(outer_iterations=3, inner_steps=2, weighting="uniform",
                       attack=UniversalAttackConfig(16 / 255, 0.01, 2, batch_size=8))
        real, views_seen = TR.classifier_pool_loss, []

        # each step's loss against the uniform mixture of its views' cross-entropies, summed here term by term
        def checked(state, indices, weighting):
            terms = [softmax_cross_entropy(forward(mc, state.params, view.materialize(indices), "train"),
                                           ds.labels[indices]).item() for view in state.views]
            loss = real(state, indices, weighting)
            assert abs(loss.item() - sum(w * t for w, t in zip(mixture_weights(len(terms), "uniform"), terms))) < 1e-12
            views_seen.append(len(terms))
            return loss

        monkeypatch.setattr(TR, "classifier_pool_loss", checked)
        fp_train(mc, ds, cfg)
        assert views_seen == [1, 1, 2, 2, 3, 3]

    def test_error_names_outer_iteration(self):
        ds = small_dataset()
        mc = tiny_config(side=16, num_classes=ds.num_classes)  # wrong side for 8x8 data
        cfg = desk_cfg(inner_steps=1)
        with pytest.raises(TrainingError, match="outer iteration 1"):
            fp_train(mc, ds, cfg)


@pytest.mark.parametrize("trainer", ["sgd", "fp", "at"])
def test_no_parameter_holds_a_gradient_between_steps(trainer):
    ds = small_dataset()
    mc = tiny_config(side=8, num_classes=ds.num_classes)
    cfg = desk_cfg(outer_iterations=2, inner_steps=3, pgd=PgdConfig(16 / 255, 1))
    held = []
    run = {"sgd": sgd_train, "fp": fp_train, "at": at_train}[trainer]
    run(mc, ds, cfg, on_step=lambda s, params: held.append([n for n, p in params.items() if p.grad is not None]))
    assert held == [[]] * 6


@pytest.mark.parametrize("trainer", ["approximate", "exact", "sgd", "at"])
def test_the_attack_and_the_batch_loss_draw_on_streams_of_their_own(trainer, monkeypatch):
    streams = (7, 2) if trainer == "at" else (2, 10)  # (attack, batch loss); AT's PGD is its batch loss's draw
    ds = small_dataset()
    first_states = []
    monkeypatch.setattr(TR, "_play", lambda state, *args: first_states.append(state) or (state, []))
    run = {"approximate": fp_train, "exact": lambda *args: fp_train(*args, mode="exact"),
           "sgd": sgd_train, "at": at_train}[trainer]
    cfg = desk_cfg(seed=3, pgd=PgdConfig(16 / 255, 1))
    run(tiny_config(side=8, num_classes=ds.num_classes), ds, cfg)
    (state,) = first_states
    draws = (state.attack_rng.random(), state.loss_rng.random())
    assert draws[0] != draws[1]
    assert draws == tuple(np.random.default_rng((cfg.seed, stream)).random() for stream in streams)


@pytest.mark.parametrize("mode", TR.MODES)
def test_the_first_state_holds_a_zero_velocity_for_exactly_the_trainable_parameters(mode):
    ds = small_dataset()
    for mc in model_configs(ds):
        state = TR.initial_state(mc, ds, desk_cfg(), mode)
        assert state.mode == mode
        assert list(state.velocity) == [n for n, p in state.params.items() if p.requires_grad], mc.name
        assert (len(state.velocity) < len(state.params)) == mc.batchnorm  # the running buffers take no step
        for name, v in state.velocity.items():
            p = state.params[name].data
            assert v.shape == p.shape and v.dtype == p.dtype and v.flags.c_contiguous and not v.any()
            assert not np.shares_memory(v, p)


@pytest.mark.parametrize("mode", [None, "SGD", "fp", "uniform", "at_train"])
def test_the_first_state_rejects_a_mode_that_names_no_algorithm(mode):
    ds = small_dataset()
    with pytest.raises(ValueError, match="mode must be one of approximate, exact, sgd, at"):
        TR.initial_state(tiny_config(side=8, num_classes=ds.num_classes), ds, desk_cfg(), mode)


@pytest.mark.parametrize("model", ["tiny", "bn"])
@pytest.mark.parametrize("kind", ["universal", "patch"])
@pytest.mark.parametrize("trainer", ["approximate", "exact", "sgd", "at"])
def test_a_copy_of_the_state_plays_on_as_the_uninterrupted_run(trainer, kind, model):
    ds = small_dataset()
    mc = model_configs(ds)[model == "bn"]
    attack = (UniversalAttackConfig(16 / 255, 0.01, 2, batch_size=8) if kind == "universal"
              else PatchAttackConfig(0.5, 0.01, 2, batch_size=8))
    # the milestone falls after the interruption, so the resumed run must carry the global step
    cfg = desk_cfg(outer_iterations=4, inner_steps=2, attack=attack, lr_milestones=(5,),
                   pgd=PgdConfig(16 / 255, 1))
    run = {"approximate": fp_train, "exact": lambda *args: fp_train(*args, mode="exact"),
           "sgd": sgd_train, "at": at_train}[trainer]
    whole, whole_rows = run(mc, ds, cfg)
    first, first_rows = run(mc, ds, replace(cfg, outer_iterations=2))
    resumed, rest = TR._play(copy.deepcopy(first), cfg, None, None)
    assert (resumed.played, resumed.step, len(rest)) == (4, 8, 2)

    def end(state, rows):
        return ({n: p.data.tobytes() for n, p in state.params.items()},
                {n: v.tobytes() for n, v in state.velocity.items()},
                [(r.clean_acc, r.adv_acc, r.spec.xi.tobytes()) for r in rows])

    assert end(resumed, first_rows + rest) == end(whole, whole_rows)


def test_a_state_mixes_its_views_by_the_weighting_of_the_config_it_is_played_under():
    # the weighting is read from the config ``_play`` runs under, not kept in the state from the one that built it
    ds = small_dataset()
    mc = tiny_config(side=8, num_classes=ds.num_classes)
    cfg = desk_cfg(outer_iterations=3, inner_steps=2, weighting="uniform",
                   attack=UniversalAttackConfig(16 / 255, 0.01, 2, batch_size=8))
    ends = []
    for built_under in ("literal", "uniform"):
        state, rows = TR._play(TR.initial_state(mc, ds, replace(cfg, weighting=built_under), "approximate"), cfg,
                               None, None)
        assert len(state.views) == 4
        ends.append(({n: p.data.tobytes() for n, p in state.params.items()},
                     [(r.split, r.clean_acc, r.adv_acc, r.spec.xi.tobytes()) for r in rows]))
    assert ends[0] == ends[1]


def three_views(ds):
    """The clean view and two universal perturbations of it."""
    rng = np.random.default_rng(1)
    specs = [D.PerturbationSpec("universal", rng.uniform(-0.1, 0.1, ds.image_shape).astype(ds.images.dtype),
                                epsilon=0.1) for _ in range(2)]
    return [D.clean_view(ds), *(D.PerturbedView(ds, spec) for spec in specs)]


def whole_pass_grads(loss, trainable):
    """The gradients as the leaves hold them once the whole pass has run, without ``wrt``'s handover."""
    T.backward(loss)
    grads = {n: p.grad for n, p in trainable.items()}
    for p in trainable.values():
        p.grad = None
    return grads


class TestStreamedStep:
    """Each parameter takes its momentum step as ``backward`` hands its gradient over, with the bits of one
    step after the whole pass."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_streamed_updates_equal_backward_then_step(self, dtype):
        T.set_default_dtype(dtype)
        try:
            ds = small_dataset()
            for mc in model_configs(ds):
                ends = []
                for streamed in (False, True):
                    state = TR.initial_state(mc, ds, desk_cfg(), "sgd")
                    state.views, params, velocity = three_views(ds), state.params, state.velocity
                    trainable = {n: params[n] for n in M.trainable_names(params)}
                    for step in range(3):
                        loss = classifier_pool_loss(state, np.arange(8 * step, 8 * step + 8), "literal")
                        readers = {n: sum(any(p is q for q in node._parents) for node in T._topo_order(loss))
                                   for n, p in trainable.items()}
                        assert set(readers.values()) == {3} and loss.dtype == dtype, mc.name
                        if streamed:
                            T.backward(loss, wrt=trainable, on_grad=lambda n, g: T.sgd_momentum_step(
                                n, params[n], g, velocity[n], 0.05, 0.9, 2e-4))
                        else:
                            for n, g in sorted(whole_pass_grads(loss, trainable).items()):
                                T.sgd_momentum_step(n, params[n], g, velocity[n], 0.05, 0.9, 2e-4)
                    ends.append({**{n: p.data.tobytes() for n, p in params.items()},
                                 **{f"v:{n}": v.tobytes() for n, v in velocity.items()}})
                assert ends[0] == ends[1], mc.name
        finally:
            T.set_default_dtype(np.float64)

    def test_play_steps_as_backward_then_step(self):
        # over three outer iterations, with a milestone inside the second, against one hand-written loop that
        # carries one velocity, one step count and one sampler
        ds = small_dataset()
        cfg = desk_cfg(outer_iterations=3, inner_steps=4, lr_milestones=(6,))
        for mc in model_configs(ds):
            played = []
            sgd_train(mc, ds, cfg, on_step=lambda s, p: played.append((s, param_digest(p))))
            state = TR.initial_state(mc, ds, cfg, "sgd")
            params, velocity = state.params, state.velocity
            sampler = D.BatchSampler(len(ds), np.random.default_rng((cfg.seed, 1)))
            trainable = {n: params[n] for n in M.trainable_names(params)}
            reference = []
            for step in range(cfg.outer_iterations * cfg.inner_steps):
                loss = classifier_pool_loss(state, sampler.next_indices(cfg.batch_size), cfg.weighting)
                grads = whole_pass_grads(loss, trainable)
                for n, g in sorted(grads.items()):
                    T.sgd_momentum_step(n, params[n], g, velocity[n], TR._lr_at(cfg, step), TR.MOMENTUM,
                                        TR.WEIGHT_DECAY)
                reference.append((step + 1, param_digest(params)))
            assert played == reference, mc.name

    def test_play_steps_with_the_papers_fixed_optimizer(self, monkeypatch):
        # momentum 0.9 and weight decay 2e-4 at every step, the learning rate times 0.1 from each milestone on
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        step, calls = T.sgd_momentum_step, []

        def recorded(name, param, grad, velocity, lr, momentum, weight_decay):
            calls.append((lr, momentum, weight_decay))
            step(name, param, grad, velocity, lr, momentum, weight_decay)

        monkeypatch.setattr(T, "sgd_momentum_step", recorded)
        sgd_train(mc, ds, desk_cfg(inner_steps=3, lr_milestones=(1, 2)))
        assert (TR.MOMENTUM, TR.WEIGHT_DECAY, TR.LR_DECAY) == (0.9, 2e-4, 0.1)
        per_step = len(M.trainable_names(build_model(mc, 0)))
        assert calls == [(0.05 * 0.1**k, 0.9, 2e-4) for k in range(3) for _ in range(per_step)]

    def test_no_activation_of_a_step_lives_into_the_next_steps_forwards(self, monkeypatch):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(inner_steps=3)
        state = TR.initial_state(mc, ds, cfg, "approximate")
        state.views = three_views(ds)
        real_relu, real_loss, activations, at_step_entry = T.relu, TR.classifier_pool_loss, [], []

        def recorded_relu(x):
            out = real_relu(x)
            activations.append(weakref.ref(out.data))
            return out

        def batch_loss(state, indices, weighting):
            # before this step's first forward: how many of the last step's activations were made, and still live
            at_step_entry.append((len(activations), sum(ref() is not None for ref in activations)))
            activations.clear()
            return real_loss(state, indices, weighting)

        monkeypatch.setattr(T, "relu", recorded_relu)
        monkeypatch.setattr(TR, "classifier_pool_loss", batch_loss)
        TR._play(state, cfg, None, None)
        # one relu per conv layer in each of the three views' forwards
        made = 3 * len(mc.conv_layers)
        assert at_step_entry == [(0, 0), (made, 0), (made, 0)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_parameter_made_non_finite_stops_the_pass_and_skips_on_outer(self, monkeypatch):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        passes, outers = [], []
        real = T.backward

        def recorded(*args, **kwargs):
            passes.append("started")
            real(*args, **kwargs)
            passes[-1] = "returned"

        monkeypatch.setattr(T, "backward", recorded)
        # weight decay 100 makes |v| far above 1, so the first update overflows
        monkeypatch.setattr(TR, "WEIGHT_DECAY", 100.0)
        cfg = desk_cfg(learning_rate=1e308)
        with pytest.raises(TrainingError, match="outer iteration 1: parameter .* is not finite after the update"):
            sgd_train(mc, ds, cfg, on_outer=lambda *args: outers.append(args))
        assert passes == ["started"] and outers == []

class TestSgdTrain:
    def test_zero_lr_leaves_params(self):
        ds = small_dataset()
        mc = tiny_config(side=8, num_classes=ds.num_classes)
        cfg = desk_cfg(inner_steps=5, learning_rate=0.0)
        state, _ = sgd_train(mc, ds, cfg)
        init = build_model(mc, cfg.seed)
        for name in init:
            assert np.array_equal(state.params[name].data, init[name].data)

    def test_lr_schedule_decays_at_milestones(self):
        cfg = desk_cfg(lr_milestones=(10, 20), learning_rate=0.5)
        assert TR._lr_at(cfg, 9) == 0.5
        assert TR._lr_at(cfg, 10) == 0.5 * 0.1
        assert abs(TR._lr_at(cfg, 25) - 0.5 * 0.01) < 1e-15

    def test_reaches_high_train_accuracy(self):
        ds = D.make_synthetic(10, 20, 8, seed=3)
        mc = tiny_config(side=8, num_classes=10)
        cfg = desk_cfg(outer_iterations=1, inner_steps=600, batch_size=32,
                       learning_rate=0.05, eval_sample_size=None,
                       attack=UniversalAttackConfig(16 / 255, 0.01, 0, batch_size=8))
        _, report = sgd_train(mc, ds, cfg)
        assert report[-1].clean_acc >= 0.95

    def test_milestones_must_increase(self):
        with pytest.raises(ValueError):
            desk_cfg(lr_milestones=(20, 10))


class TestAtTrain:
    def test_margin_log_mostly_adversarial(self, monkeypatch):
        ds = D.make_synthetic(4, 16, 8, seed=4)
        mc = tiny_config(side=8, num_classes=4)
        eps = 16 / 255
        cfg = desk_cfg(inner_steps=150, batch_size=16,
                       pgd=PgdConfig(eps, 5),
                       attack=UniversalAttackConfig(eps, 0.01, 0, batch_size=8))
        log = []
        pgd = A.pgd_per_sample

        # per step, whether the adversarial loss term is at least the clean term
        def logged_pgd(pool, x, y, *args):
            adv = pgd(pool, x, y, *args)
            log.append(M.pool_expected_loss(pool, adv, y).item() >= M.pool_expected_loss(pool, x, y).item())
            return adv

        monkeypatch.setattr(A, "pgd_per_sample", logged_pgd)
        at_train(mc, ds, cfg)
        warm = log[50:]
        assert np.mean(warm) >= 0.95


class TestMatrixGame:
    def test_rps_converges_to_uniform(self):
        p, q, _ = fp_matrix_game(ROCK_PAPER_SCISSORS, 50_000)
        third = np.full(3, 1 / 3)
        assert np.abs(p - third).max() < 0.05
        assert np.abs(q - third).max() < 0.05

    def test_matching_pennies_value_near_zero(self):
        p, q, _ = fp_matrix_game(MATCHING_PENNIES, 50_000)
        assert abs(game_value(MATCHING_PENNIES, p, q)) < 0.02

    def test_saddle_point_lock_in(self):
        # row action 1 strictly dominates; column action 0 strictly dominates
        game = MatrixGame(np.array([[0.0, 2.0], [1.0, 3.0]]))
        iters = 200
        p, q, _ = fp_matrix_game(game, iters)
        assert p[1] >= (iters - 1) / iters
        assert q[0] == 1.0

    def test_exploitability_bounded_and_running_min_monotone(self):
        _, _, trace = fp_matrix_game(ROCK_PAPER_SCISSORS, 2_000)
        assert np.all(trace >= -1e-12) and np.all(trace <= 2.0)
        running_min = np.minimum.accumulate(trace)
        assert np.all(np.diff(running_min) <= 0 + 1e-15)

    def test_invalid_game(self):
        with pytest.raises(ValueError):
            MatrixGame(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fp_matrix_game(MATCHING_PENNIES, 0)
