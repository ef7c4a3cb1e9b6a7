"""Fictitious play for the classifier-vs-perturbation game, its two baselines,
and a matrix-game best-response harness.

A run is one :class:`FPState`, all that an outer iteration hands the next,
whose ``mode`` names the algorithm (FP's two modes, SGD or AT): one loop
(:func:`_play`) maps each state to the next from the state and the config
alone, and each trainer returns the last state with its metrics rows.  Both
players' losses are one :func:`~advgame.model.mixture_loss` weighted by
:func:`~advgame.model.mixture_weights`.  FP and SGD mix the pooled views by
the config's weighting (FP's attack, on ``(seed, 2)``, joins the pool; SGD's
stays the clean view; neither loss draws from its generator on
``(seed, 10)``); AT mixes the clean and PGD batches half and half (PGD on
``(seed, 2)``, attack on ``(seed, 7)``); the attacker mixes the pool's
members uniformly.  So FP with a zero attack steps exactly as SGD only while
its pool is the clean view alone (outer iteration 1): the split weights
round otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import attack as A
from . import evaluation as E
from . import model as M
from . import tensor as T
from .attack import PatchAttackConfig, PgdConfig, UniversalAttackConfig
from .data import BatchSampler, Dataset, PerturbedView, clean_view
from .evaluation import MetricsRow
from .model import Classifier, ModelConfig
from .tensor import Tensor

FP_MODES = ("approximate", "exact")  # the modes of ``fp_train``, which the CLI accepts
MODES = (*FP_MODES, "sgd", "at")     # the algorithms a state plays
MOMENTUM = 0.9                       # the paper's optimizer, the same for every run
WEIGHT_DECAY = 0.0002
LR_DECAY = 0.1                       # the learning rate's factor at each of ``lr_milestones``


class TrainingError(RuntimeError):
    """A training run aborted; the message names the failing outer iteration."""


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings; the optimizer's momentum, weight decay and LR decay are fixed, as this module's constants."""
    outer_iterations: int                   # N
    inner_steps: int                        # K
    batch_size: int
    learning_rate: float
    attack: UniversalAttackConfig | PatchAttackConfig   # crafted after every outer iteration
    lr_milestones: tuple[int, ...] = ()     # global step indices
    pgd: PgdConfig | None = None
    weighting: str = "literal"
    eval_sample_size: int | None = 2000
    seed: int = 0

    def __post_init__(self):
        if self.outer_iterations < 1 or self.inner_steps < 0 or self.batch_size < 1:
            raise ValueError("invalid train config")
        if self.eval_sample_size is not None and self.eval_sample_size < 1:
            raise ValueError("eval_sample_size must be >= 1")
        if self.learning_rate < 0 or self.seed < 0:
            raise ValueError("learning_rate and seed must be >= 0")
        if list(self.lr_milestones) != sorted(set(self.lr_milestones)) or min(self.lr_milestones, default=0) < 0:
            raise ValueError("lr milestones must be strictly increasing step indices >= 0")
        if self.weighting not in M.WEIGHTINGS:
            raise ValueError(f"weighting must be one of {', '.join(M.WEIGHTINGS)}")


@dataclass
class FPState:
    """All that one outer iteration of :func:`_play` hands the next; a ``copy.deepcopy`` plays on bit for bit."""
    config: ModelConfig
    params: dict[str, Tensor]
    views: list[PerturbedView]              # views[0] is the clean dataset
    pool: list[Classifier]                  # the classifiers every attack targets
    mode: str                               # one of MODES
    sampler: BatchSampler                   # the training batches, on (seed, 1)
    attack_rng: np.random.Generator         # on (seed, 2), AT's on (seed, 7)
    loss_rng: np.random.Generator           # on (seed, 10), AT's on (seed, 2); only AT's PGD draws from it
    velocity: dict[str, np.ndarray]         # of each trainable parameter, and only those; zeros at first
    step: int = 0                           # optimizer steps taken, over all outer iterations
    played: int = 0                         # outer iterations played


def initial_state(model_config: ModelConfig, dataset: Dataset, cfg: TrainConfig, mode: str) -> FPState:
    """The state before outer iteration 1 of ``mode``, one of :data:`MODES`: its pool is the live classifier, or in
    exact mode its untrained frozen copy, kept as fictitious play counts every past play; its velocities are zero.
    The attack and the batch loss draw on streams of their own; ``cli``'s ``attack`` holds (seed, 8) and (seed, 9)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    params = M.build_model(model_config, cfg.seed)
    pool = [M.freeze(model_config, params)] if mode == "exact" else M.single_pool(model_config, params)
    attack_stream, loss_stream = (7, 2) if mode == "at" else (2, 10)
    return FPState(model_config, params, [clean_view(dataset)], pool, mode,
                   BatchSampler(len(dataset), np.random.default_rng((cfg.seed, 1))),
                   np.random.default_rng((cfg.seed, attack_stream)), np.random.default_rng((cfg.seed, loss_stream)),
                   {name: np.zeros_like(params[name].data) for name in M.trainable_names(params)})


def classifier_pool_loss(state: FPState, indices: np.ndarray, weighting: str) -> Tensor:
    """The classifier's mixture loss over the pool of perturbed views (not of classifiers; the benchmark's
    trace counts forwards under this name): one index batch rendered under each view with patch draw
    ``state.step``, each view's train-mode forward run as its term is added, weighted by ``weighting``."""
    logits = (M.forward(state.config, state.params, view.materialize(indices, draw=state.step), "train")
              for view in state.views)
    weights = M.mixture_weights(len(state.views), weighting)
    return M.mixture_loss(logits, state.views[0].labels[indices], weights)


def half_adversarial_loss(state: FPState, indices: np.ndarray, pgd: PgdConfig) -> Tensor:
    """AT's batch loss: a clean batch and its PGD examples on ``state.loss_rng``, mixed half and half."""
    x, y = state.views[0].base.images[indices], state.views[0].labels[indices]
    adv = A.pgd_per_sample(state.pool, x, y, pgd, state.loss_rng)
    logits = (M.forward(state.config, state.params, batch, "train") for batch in (x, adv))
    return M.mixture_loss(logits, y, M.mixture_weights(2, "uniform"))


def _lr_at(cfg: TrainConfig, step: int) -> float:
    passed = sum(1 for m in cfg.lr_milestones if m <= step)
    return cfg.learning_rate * LR_DECAY**passed


def _play(state: FPState, cfg: TrainConfig, on_step, on_outer) -> tuple[FPState, list[MetricsRow]]:
    """The one training loop: plays ``state`` on, in place, from it and ``cfg`` alone, until ``cfg.outer_iterations``
    outer iterations are done, and returns it with the rows of those it played.

    Outer iteration n takes K momentum-SGD steps over batches from ``state.sampler``, on :func:`half_adversarial_loss`
    in mode ``"at"`` and :func:`classifier_pool_loss` otherwise, each parameter in ``state.velocity`` stepped inside
    the backward pass as soon as its gradient is final (so a non-finite update raises from the pass).  Exact mode
    then freezes a copy into ``state.pool``; the attack ``cfg.attack`` is crafted against the pool on the clean
    view's dataset (:func:`~advgame.attack.craft`), and in FP's modes joins ``state.views``; and the newest pool
    member, the classifier as the steps left it, is scored clean and under that attack on one subset of
    ``eval_sample_size`` images, named by the subset seed ``(seed, 3, n)``.  ``on_outer(n, params, row)`` ends the
    iteration and is the only exit for its outputs; ``row.split`` is ``train``, the split it trains on, and
    ``row.spec`` is what ``adv_acc`` scored.  A failure in iteration k's steps, attack or scoring raises
    ``TrainingError`` naming k and skips its ``on_outer``.
    """
    dataset, report = state.views[0].base, []
    trainable = {name: state.params[name] for name in state.velocity}
    for n in range(state.played + 1, cfg.outer_iterations + 1):
        t0 = time.perf_counter()
        try:
            for _ in range(cfg.inner_steps):
                # ``backward`` frees the last step's graph as it leaves each node, so these forwards run alone, and
                # under ``cli.keep_freed_heap`` they reuse the heap it freed instead of faulting it back in: peak RSS
                # fp-exact-patch 70.5 -> 60.9 MB (medians of 10 benchmark pairs), minor faults a run 41-44k -> 11k
                indices = state.sampler.next_indices(cfg.batch_size)
                loss = (half_adversarial_loss(state, indices, cfg.pgd) if state.mode == "at"
                        else classifier_pool_loss(state, indices, cfg.weighting))
                lr = _lr_at(cfg, state.step)
                # each parameter takes its update as soon as its gradient is final, so a gradient lives from its
                # first contribution to its update only; the update is elementwise, so the order keeps the bits
                T.backward(loss, wrt=trainable, on_grad=lambda name, grad: T.sgd_momentum_step(
                    name, trainable[name], grad, state.velocity[name], lr, MOMENTUM, WEIGHT_DECAY))
                state.step += 1
                if on_step is not None:
                    on_step(state.step, state.params)
            if state.mode == "exact":  # pool members, not a one-hot weighting of N copies (62 MB each for paper VGG)
                state.pool.append(M.freeze(state.config, state.params))
            spec = A.craft(state.pool, dataset, cfg.attack, state.attack_rng)
            if state.mode in FP_MODES:
                view_seed = int(np.random.SeedSequence((cfg.seed, 4, n)).generate_state(1)[0])
                state.views.append(PerturbedView(dataset, spec, seed=view_seed))
            scored = state.pool[-1:]  # in exact mode the copy just frozen, else the live classifier
            clean = E.accuracy(scored, dataset, cfg.eval_sample_size, (cfg.seed, 3, n))
            adv = E.perturbed_accuracy(scored, dataset, spec, cfg.eval_sample_size, (cfg.seed, 3, n), placement_seed=n)
        except (ValueError, FloatingPointError) as exc:
            raise TrainingError(f"outer iteration {n}: {exc}") from exc
        state.played = n
        row = MetricsRow(n, "train", clean, adv, spec, time.perf_counter() - t0)
        report.append(row)
        if on_outer is not None:
            on_outer(n, state.params, row)
    return state, report


def fp_train(
    model_config: ModelConfig,
    dataset: Dataset,
    cfg: TrainConfig,
    mode: str = "approximate",
    on_step=None,
    on_outer=None,
) -> tuple[FPState, list[MetricsRow]]:
    """Alternating best responses between the classifier and the perturbation player: each
    outer iteration runs K steps of SGD on the weighted mixture of all pooled views, then crafts
    the next perturbation against ``state.pool``: the current classifier (approximate mode) or
    the uniform mixture of its frozen copies, the untrained one included (exact mode).
    ``adv_acc`` scores that fresh, not yet trained-on perturbation."""
    if mode not in FP_MODES:
        raise ValueError(f"mode must be one of {', '.join(FP_MODES)}")
    return _play(initial_state(model_config, dataset, cfg, mode), cfg, on_step, on_outer)


def sgd_train(
    model_config: ModelConfig,
    dataset: Dataset,
    cfg: TrainConfig,
    on_step=None,
    on_outer=None,
) -> tuple[FPState, list[MetricsRow]]:
    """Plain stochastic gradient descent on the clean dataset, N*K steps."""
    return _play(initial_state(model_config, dataset, cfg, "sgd"), cfg, on_step, on_outer)


def at_train(
    model_config: ModelConfig,
    dataset: Dataset,
    cfg: TrainConfig,
    on_step=None,
    on_outer=None,
) -> tuple[FPState, list[MetricsRow]]:
    """Adversarial training: per-batch PGD examples against the current
    classifier, descending on the half clean, half adversarial mixture.  PGD
    runs first, as its infer-mode forwards read the batchnorm running buffers
    that the mixture's train-mode forwards advance.  With zero PGD steps it
    equals SGD in the trainable parameters only: both halves advance the
    running buffers."""
    if cfg.pgd is None:
        raise ValueError("at_train needs a pgd config")
    return _play(initial_state(model_config, dataset, cfg, "at"), cfg, on_step, on_outer)


# ---------------------------------------------------------------------------
# matrix-game fictitious play
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixGame:
    """Zero-sum game given by the row player's payoff matrix."""
    payoff: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.payoff, dtype=np.float64)
        if arr.ndim != 2 or not np.all(np.isfinite(arr)):
            raise ValueError("payoff must be a finite 2-d matrix")
        object.__setattr__(self, "payoff", arr)


ROCK_PAPER_SCISSORS = MatrixGame(np.array([
    [0.0, -1.0, 1.0],
    [1.0, 0.0, -1.0],
    [-1.0, 1.0, 0.0],
]))

MATCHING_PENNIES = MatrixGame(np.array([
    [1.0, -1.0],
    [-1.0, 1.0],
]))


def fp_matrix_game(game: MatrixGame, iterations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classic discrete fictitious play on a zero-sum matrix game.

    Each player best-responds to the opponent's empirical mixture so far
    (ties toward the lowest action index).  Returns the empirical strategies
    and the per-iteration exploitability: the row best-response value against
    the column mixture minus the column best-response value against the row
    mixture, which shrinks to zero at equilibrium.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    payoff = game.payoff
    m, n = payoff.shape
    row_counts = np.zeros(m)
    col_counts = np.zeros(n)
    row_cum = np.zeros(m)   # payoff of each row action against column history
    col_cum = np.zeros(n)   # payoff of each column action against row history
    exploitability = np.empty(iterations)
    for t in range(1, iterations + 1):
        r = int(np.argmax(row_cum))
        c = int(np.argmin(col_cum))
        row_counts[r] += 1
        col_counts[c] += 1
        row_cum += payoff[:, c]
        col_cum += payoff[r, :]
        p = row_counts / t
        q = col_counts / t
        exploitability[t - 1] = float((payoff @ q).max() - (p @ payoff).min())
    return row_counts / iterations, col_counts / iterations, exploitability


def game_value(game: MatrixGame, p: np.ndarray, q: np.ndarray) -> float:
    return float(p @ game.payoff @ q)
