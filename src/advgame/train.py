"""Fictitious play for the classifier-vs-perturbation game, its two baselines,
and a matrix-game best-response harness.

FP, SGD and AT run one loop, :func:`_play`: K optimizer steps on a batch
loss, then the one attack the config names (``TrainConfig.attack``),
crafted through :func:`~advgame.attack.craft` against the classifier (or,
in exact mode, the pool of its snapshots) and scored in a metrics row.
Every batch loss is one :func:`mixture_loss`.  ``fp_train`` and
``sgd_train`` mix the pooled views by :func:`dataset_weights` (FP's attack,
on ``(seed, 2)``, joins the pool; SGD's stays the clean view); ``at_train``
mixes the clean and PGD batches half and half (PGD on ``(seed, 2)``, attack
on ``(seed, 7)``).  So FP with a zero attack steps exactly as SGD only while
its pool is the clean view alone (outer iteration 1): the split weights
round otherwise.  AT with zero PGD steps and no random start does so in the
trainable parameters only, as its second train-mode forward advances the
batchnorm running buffers again.
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
from .model import ClassifierPool, ClassifierSnapshot, ModelConfig
from .tensor import Tensor


class TrainingError(RuntimeError):
    """A training run aborted; the message names the failing outer iteration."""


@dataclass(frozen=True)
class TrainConfig:
    outer_iterations: int                   # N
    inner_steps: int                        # K
    batch_size: int
    learning_rate: float
    attack: UniversalAttackConfig | PatchAttackConfig   # crafted after every outer iteration
    lr_decay: float = 0.1
    lr_milestones: tuple[int, ...] = ()     # global step indices
    momentum: float = 0.9
    weight_decay: float = 0.0002
    pgd: PgdConfig | None = None
    weighting: str = "literal"
    eval_sample_size: int | None = 2000
    seed: int = 0

    def __post_init__(self):
        if self.outer_iterations < 1 or self.inner_steps < 0 or self.batch_size < 1:
            raise ValueError("invalid train config")
        if self.eval_sample_size is not None and self.eval_sample_size < 1:
            raise ValueError("eval_sample_size must be >= 1")
        if self.learning_rate < 0 or self.lr_decay < 0 or not (0.0 <= self.momentum < 1.0):
            raise ValueError("invalid train config")
        if self.weight_decay < 0 or self.seed < 0:
            raise ValueError("weight_decay and seed must be >= 0")
        if list(self.lr_milestones) != sorted(set(self.lr_milestones)) or min(self.lr_milestones, default=0) < 0:
            raise ValueError("lr milestones must be strictly increasing step indices >= 0")
        if self.weighting not in ("literal", "uniform"):
            raise ValueError("weighting must be 'literal' or 'uniform'")


@dataclass
class FPState:
    """Growing state of the game: current classifier plus opponent history."""
    config: ModelConfig
    params: dict[str, Tensor]
    views: list[PerturbedView]              # views[0] is the clean dataset
    classifier_pool: ClassifierPool | None = None
    weighting: str = "literal"


def dataset_weights(n: int, mode: str = "literal") -> np.ndarray:
    """Per-dataset weights for the mixture loss over datasets 0..n-1.

    Literal mode expands the nested average of historical losses, where the
    i-th historical loss averages the first i datasets (the 0th is the clean
    dataset alone): dataset j's aggregate weight collects a 1/i share from
    every later historical term.  Uniform mode weights the datasets equally.
    n=0 (no perturbations yet) puts weight 1 on the clean dataset.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    count = max(n, 1)
    if mode == "uniform":
        return np.full(count, 1.0 / count)
    if mode != "literal":
        raise ValueError("mode must be 'literal' or 'uniform'")
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])  # H_0..H_n
    weights = harmonic[n] - harmonic[:count]   # (H_n - H_j + [j = 0]) / (n + 1)
    weights[0] += 1.0
    return weights / (n + 1)


def mixture_loss(config: ModelConfig, params: dict[str, Tensor], batches, labels, weights) -> Tensor:
    """The one training loss, sum_j w_j * CE(train-mode forward of batch j), over ``batches`` in order."""
    total = None
    for w, batch in zip(weights, batches):
        ce = T.softmax_cross_entropy(M.forward(config, params, batch, "train"), labels)
        term = T.mul(ce, float(w))
        total = term if total is None else T.add(total, term)
    return total


def classifier_pool_loss(state: FPState, indices: np.ndarray, draw: int = 0) -> Tensor:
    """The mixture loss over the pool of perturbed views (not of classifiers; the benchmark's trace
    counts forwards under this name): one index batch rendered under each view, weighted by
    :func:`dataset_weights`."""
    batches = (view.materialize(indices, draw=draw) for view in state.views)
    return mixture_loss(state.config, state.params, batches, state.views[0].labels[indices],
                        dataset_weights(len(state.views), state.weighting))


def _lr_at(cfg: TrainConfig, step: int) -> float:
    passed = sum(1 for m in cfg.lr_milestones if m <= step)
    return cfg.learning_rate * cfg.lr_decay**passed


def _play(model_config: ModelConfig, dataset: Dataset, cfg: TrainConfig, batch_loss,
          attack_stream: int, mode: str | None, on_step, on_outer) -> tuple[FPState, list[MetricsRow]]:
    """The one training loop behind FP, SGD and AT.

    Each of the N outer iterations takes K momentum-SGD steps on
    ``batch_loss(state, indices, step)`` over batches drawn on stream
    ``(seed, 1)``, then crafts the config's one attack, ``cfg.attack``,
    through :func:`~advgame.attack.craft` on stream ``(seed,
    attack_stream)`` and scores the classifier on the clean data and under
    that attack.  ``mode=None`` is a baseline, which only scores the
    attack; ``"approximate"`` and ``"exact"`` play the game, adding it to
    ``state.views``, and exact mode attacks the pool of classifier snapshots
    taken at the start and after each iteration's inner steps.
    Every other attack, and all scoring, target the live classifier as a
    pool of one (:func:`~advgame.model.single_pool`) built up front.
    ``on_outer(n, params, row)`` ends each iteration and is the only exit for
    its outputs; ``row.spec`` is what ``adv_acc`` scored (in the game, the new
    pool entry).  A ``TrainingError`` at iteration k skips its ``on_outer``.
    """
    params = M.build_model(model_config, cfg.seed)
    state = FPState(model_config, params, [clean_view(dataset)], weighting=cfg.weighting)
    if mode == "exact":
        state.classifier_pool = ClassifierPool([ClassifierSnapshot.freeze(0, model_config, params)])
    sampler = BatchSampler(len(dataset), np.random.default_rng((cfg.seed, 1)))
    attack_rng = np.random.default_rng((cfg.seed, attack_stream))
    classifier = M.single_pool(model_config, params)
    trainable = {name: params[name] for name in M.trainable_names(params)}
    velocity: dict = {}
    report: list[MetricsRow] = []
    step = 0
    for n in range(1, cfg.outer_iterations + 1):
        t0 = time.perf_counter()
        try:
            for _ in range(cfg.inner_steps):
                # ``loss`` (the step's graph) stays bound until the next step replaces it: freeing it after each
                # step cut peak RSS further (sgd-vgg 458 -> 422 MB, fp-exact-patch 99 -> 71 MB), but glibc returned
                # the heap and faulted it back every step (fp-exact-patch minor faults 51k -> 176k, sys 0.14 ->
                # 0.47 s, wall +18%; fp-universal faults 25k -> 195k, wall +14%)
                loss = batch_loss(state, sampler.next_indices(cfg.batch_size), step)
                # ``backward`` hands the gradients over and they are bound to no name, so they go with the step
                T.sgd_momentum_step(params, T.backward(loss, wrt=trainable), velocity, _lr_at(cfg, step),
                                    cfg.momentum, cfg.weight_decay)
                step += 1
                if on_step is not None:
                    on_step(step, params)
            # the last step's graph goes before the attack and the scoring (peak RSS: sgd-vgg 481 -> 458 MB,
            # fp-exact-patch 107 -> 99 MB)
            loss = None
            target = classifier
            if state.classifier_pool is not None:
                state.classifier_pool.add(ClassifierSnapshot.freeze(n, model_config, params))
                target = state.classifier_pool
            spec = A.craft(target, dataset, cfg.attack, attack_rng)
        except (ValueError, FloatingPointError) as exc:
            raise TrainingError(f"outer iteration {n}: {exc}") from exc
        if mode is not None:
            view_seed = int(np.random.SeedSequence((cfg.seed, 4, n)).generate_state(1)[0])
            state.views.append(PerturbedView(dataset, spec, seed=view_seed))
        eval_rng = np.random.default_rng((cfg.seed, 3, n))
        clean = E.accuracy(classifier, dataset, cfg.eval_sample_size, eval_rng)
        adv = E.perturbed_accuracy(classifier, dataset, spec, cfg.eval_sample_size, eval_rng, placement_seed=n)
        row = MetricsRow(n, dataset.split, clean, adv, spec, time.perf_counter() - t0)
        report.append(row)
        if on_outer is not None:
            on_outer(n, params, row)
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
    the next perturbation against the current classifier (approximate mode) or the uniform pool
    of its snapshots (exact mode).  ``adv_acc`` scores that fresh, not yet trained-on perturbation."""
    if mode not in ("approximate", "exact"):
        raise ValueError("mode must be 'approximate' or 'exact'")
    return _play(model_config, dataset, cfg, classifier_pool_loss, 2, mode, on_step, on_outer)


def sgd_train(
    model_config: ModelConfig,
    dataset: Dataset,
    cfg: TrainConfig,
    on_step=None,
    on_outer=None,
) -> tuple[dict[str, Tensor], list[MetricsRow]]:
    """Plain stochastic gradient descent on the clean dataset, N*K steps."""
    state, report = _play(model_config, dataset, cfg, classifier_pool_loss, 2, None, on_step, on_outer)
    return state.params, report


def at_train(
    model_config: ModelConfig,
    dataset: Dataset,
    cfg: TrainConfig,
    on_step=None,
    on_outer=None,
) -> tuple[dict[str, Tensor], list[MetricsRow]]:
    """Adversarial training: per-batch PGD examples against the current
    classifier, descending on the half clean, half adversarial mixture.  PGD
    runs first, as its infer-mode forwards read the batchnorm running buffers
    that the mixture's train-mode forwards advance.  With zero PGD steps and
    no random start it equals SGD in the trainable parameters only: both
    halves advance the running buffers."""
    if cfg.pgd is None:
        raise ValueError("at_train needs a pgd config")
    pgd_rng = np.random.default_rng((cfg.seed, 2))

    def half_adversarial_loss(state: FPState, indices: np.ndarray, step: int) -> Tensor:
        x, y = dataset.images[indices], dataset.labels[indices]
        adv = A.pgd_per_sample(M.single_pool(model_config, state.params), x, y, cfg.pgd, pgd_rng)
        return mixture_loss(model_config, state.params, (x, adv), y, dataset_weights(2, "uniform"))

    state, report = _play(model_config, dataset, cfg, half_adversarial_loss, 7, None, on_step, on_outer)
    return state.params, report


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
