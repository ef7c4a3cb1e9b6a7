"""Fictitious play for the classifier-vs-perturbation game, its two baselines,
and a matrix-game best-response harness.

FP, SGD and AT run one loop, :func:`_play`: K optimizer steps on a batch
loss, then the one attack the config names (``TrainConfig.attack``),
crafted through :func:`~advgame.attack.craft` against the state's pool of
classifiers and scored in a metrics row.  Both players' losses are one
:func:`~advgame.model.mixture_loss` weighted by
:func:`~advgame.model.mixture_weights`.  ``fp_train`` and ``sgd_train`` mix
the pooled views by the config's weighting (FP's attack, on ``(seed, 2)``,
joins the pool; SGD's stays the clean view); ``at_train`` mixes the clean
and PGD batches half and half (PGD on ``(seed, 2)``, attack on ``(seed,
7)``); the attacker mixes the pool's members uniformly.  So FP with a zero
attack steps exactly as SGD only while its pool is the clean view alone
(outer iteration 1): the split weights round otherwise.  AT with zero PGD
steps and no random start does so in the trainable parameters only, as its
second train-mode forward advances the batchnorm running buffers again.
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
    """Growing state of the game: the current classifier, the pooled views it
    trains on, and the pool of classifiers every attack targets (:func:`_play`)."""
    config: ModelConfig
    params: dict[str, Tensor]
    views: list[PerturbedView]              # views[0] is the clean dataset
    pool: list[Classifier]
    weighting: str = "literal"


def classifier_pool_loss(state: FPState, indices: np.ndarray, draw: int = 0) -> Tensor:
    """The classifier's mixture loss over the pool of perturbed views (not of classifiers; the benchmark's
    trace counts forwards under this name): one index batch rendered under each view, each view's
    train-mode forward run as its term is added, weighted by ``mixture_weights(len(views), weighting)``."""
    logits = (M.forward(state.config, state.params, view.materialize(indices, draw=draw), "train")
              for view in state.views)
    weights = M.mixture_weights(len(state.views), state.weighting)
    return M.mixture_loss(logits, state.views[0].labels[indices], weights)


def _lr_at(cfg: TrainConfig, step: int) -> float:
    passed = sum(1 for m in cfg.lr_milestones if m <= step)
    return cfg.learning_rate * cfg.lr_decay**passed


def _play(model_config: ModelConfig, dataset: Dataset, cfg: TrainConfig, batch_loss,
          attack_stream: int, mode: str | None, on_step, on_outer) -> tuple[FPState, list[MetricsRow]]:
    """The one training loop behind FP, SGD and AT.

    Each of the N outer iterations takes K momentum-SGD steps on
    ``batch_loss(state, indices, step)`` over batches drawn on stream
    ``(seed, 1)``, each parameter's inside the backward pass as soon as its
    gradient is final (so a parameter the update leaves non-finite raises
    from the pass), then crafts the config's one attack, ``cfg.attack``,
    through :func:`~advgame.attack.craft` on stream ``(seed,
    attack_stream)`` and scores the classifier on the clean data and under
    that attack.  ``mode=None`` is a baseline, which only scores the
    attack; ``"approximate"`` and ``"exact"`` play the game, adding it to
    ``state.views``.  Every attack targets ``state.pool``: in exact mode
    frozen copies (:func:`~advgame.model.freeze`) from the start, where the
    untrained copy stays as fictitious play counts every past play, and after
    each iteration's inner steps; otherwise the live classifier as a pool of
    one, which all scoring targets.  ``fp_mode`` picks the members, not a
    one-hot weighting, which would keep N copies (62 MB each for paper VGG).
    ``on_outer(n, params, row)`` ends each iteration and is the only exit for
    its outputs; ``row.spec`` is what ``adv_acc`` scored (in the game, the new
    pool entry).  A ``TrainingError`` at iteration k skips its ``on_outer``.
    ``clean_acc`` and ``adv_acc`` score one subset of ``eval_sample_size``
    images, named by the subset seed ``(seed, 3, n)``.
    """
    params = M.build_model(model_config, cfg.seed)
    classifier = M.single_pool(model_config, params)
    pool = [M.freeze(model_config, params)] if mode == "exact" else classifier
    state = FPState(model_config, params, [clean_view(dataset)], pool, cfg.weighting)
    sampler = BatchSampler(len(dataset), np.random.default_rng((cfg.seed, 1)))
    attack_rng = np.random.default_rng((cfg.seed, attack_stream))
    trainable = {name: params[name] for name in M.trainable_names(params)}
    velocity: dict = {}
    report: list[MetricsRow] = []
    step = 0
    for n in range(1, cfg.outer_iterations + 1):
        t0 = time.perf_counter()
        try:
            for _ in range(cfg.inner_steps):
                # ``loss`` (the step's graph, whose closures the pass drops) keeps its nodes' data until the next
                # step replaces it: freeing each node as the pass leaves it cut peak RSS further (sgd-vgg 275 ->
                # 248 MB, fp-exact-patch 70 -> 58-62 MB), but glibc returned the heap and faulted it back
                # (fp-exact-patch minor faults 31-45k -> 45-132k and sys up to 2.3x over CLI seeds 5-9), as
                # freeing the graph after each step did
                loss = batch_loss(state, sampler.next_indices(cfg.batch_size), step)
                lr = _lr_at(cfg, step)
                # each parameter takes its update as soon as its gradient is final, so a gradient lives from its
                # first contribution to its update only; the update is elementwise, so the order keeps the bits
                T.backward(loss, wrt=trainable, on_grad=lambda name, grad: T.sgd_momentum_step(
                    params, {name: grad}, velocity, lr, cfg.momentum, cfg.weight_decay))
                step += 1
                if on_step is not None:
                    on_step(step, params)
            # the last step's graph goes before the attack and the scoring (peak RSS: fp-exact-patch 78 -> 70 MB,
            # fp-universal 58 -> 53 MB; sgd-vgg's peak is inside the pass)
            loss = None
            if state.pool is not classifier:
                state.pool.append(M.freeze(model_config, params))
            spec = A.craft(state.pool, dataset, cfg.attack, attack_rng)
        except (ValueError, FloatingPointError) as exc:
            raise TrainingError(f"outer iteration {n}: {exc}") from exc
        if mode is not None:
            view_seed = int(np.random.SeedSequence((cfg.seed, 4, n)).generate_state(1)[0])
            state.views.append(PerturbedView(dataset, spec, seed=view_seed))
        clean = E.accuracy(classifier, dataset, cfg.eval_sample_size, (cfg.seed, 3, n))
        adv = E.perturbed_accuracy(classifier, dataset, spec, cfg.eval_sample_size, (cfg.seed, 3, n), placement_seed=n)
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
    the next perturbation against ``state.pool``: the current classifier (approximate mode) or
    the uniform mixture of its frozen copies, the untrained one included (exact mode).
    ``adv_acc`` scores that fresh, not yet trained-on perturbation."""
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
        adv = A.pgd_per_sample(state.pool, x, y, cfg.pgd, pgd_rng)
        logits = (M.forward(model_config, state.params, batch, "train") for batch in (x, adv))
        return M.mixture_loss(logits, y, M.mixture_weights(2, "uniform"))

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
