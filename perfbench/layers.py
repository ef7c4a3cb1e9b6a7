"""Per-layer metrics from one traced run, plus its exact-count checks.

Names ending ``.calls`` count spans, ``.self_s`` sum self time (span time
minus child spans) and ``.s`` sum whole span time, all over the run.
"""

from __future__ import annotations

import statistics

from spans import nearest_ancestor, self_times
from workloads import Workload, op_table, workload_ops

PER_LAYER = [
    ("tensor.conv2d.calls", "count"),
    ("tensor.conv2d.self_s", "s"),
    ("tensor.backward.calls", "count"),
    ("tensor.backward.self_s", "s"),
    ("tensor.batchnorm.self_s", "s"),
    ("tensor.sgd_momentum_step.self_s", "s"),
    ("model.forward.calls", "count"),
    ("model.forward.self_s", "s"),
    ("model.forwards_per_inner_step", "forwards/step"),
    ("model.forwards_per_attack_step", "forwards/step"),
    ("model.pool_expected_loss.self_s", "s"),
    ("model.save_checkpoint.s", "s"),
    ("model.save_checkpoint.bytes", "bytes"),
    ("data.materialize.calls", "count"),
    ("data.materialize.self_s", "s"),
    ("data.overlay_patch_op.self_s", "s"),
    ("attack.step.calls", "count"),
    ("attack.step_ms.p50", "ms"),
    ("attack.learn.s", "s"),
    ("attack.save_perturbation.s", "s"),
    ("attack.step_ms.slope_per_snapshot", "ms/snapshot"),
    ("train.inner_step_ms.p50", "ms"),
    ("train.inner_step_ms.ptail", "ms"),
    ("train.inner_step_ms.n", "count"),
    ("train.inner_phase_s", "s"),
    ("train.attack_phase_s", "s"),
    ("train.eval_phase_s", "s"),
    ("train.classifier_pool_loss.self_s", "s"),
    ("train.inner_step_ms.slope_per_view", "ms/view"),
    ("evaluation.accuracy.s", "s"),
    ("evaluation.perturbed_accuracy.s", "s"),
    ("evaluation.write_csv.s", "s"),
    ("cli.load_splits.s", "s"),
    ("cli.artifacts.s", "s"),
    ("cli.artifacts.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

ARTIFACT_WRITERS = ("model.save_checkpoint", "attack.save_perturbation", "evaluation.write_csv", "cli.echo_config")
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def op_metric_names() -> list[tuple[str, str]]:
    names = []
    for entry in op_table():
        base = f"tensor.op.{entry['key']}"
        names += [(base + ".fwd_ms", "ms"), (base + ".bwd_ms", "ms")]
        if entry["op"] == "conv2d":
            names.append((base + ".gflop", "GFLOP"))
    return names


def all_metric_names() -> list[tuple[str, str]]:
    return PER_LAYER + op_metric_names()


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it;
    the median when there are too few samples for any."""
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= 10:
            return p
    return 50.0


def slope(xs, ys) -> float:
    """Least-squares slope of ys on xs; 0 when xs do not vary."""
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _count_under(spans, counted: str, parents: str) -> dict[int, int]:
    """Number of ``counted`` spans under each ``parents`` span (by index)."""
    anc = nearest_ancestor(spans, {parents})
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == parents}
    for i, s in enumerate(spans):
        if s[0] == counted and anc[i] >= 0:
            counts[anc[i]] += 1
    return counts


def _phases(w: Workload, spans, marks):
    """Inner-step durations (ms) with the views each step trained on, and the
    inner / attack / eval phase seconds, from the on_step and on_outer marks.

    An iteration starts at training entry or at the end of the previous
    ``on_outer``; its inner phase ends at its last step, its attack phase at
    the end of its ``attack.learn`` span, its eval phase at ``on_outer``.
    """
    train = next(s for s in spans if s[0] in ("train.fp_train", "train.sgd_train"))
    learn_ends = [s[2] for s in spans if s[0] == "attack.learn"]
    step_ms, views = [], []
    inner = attack = evals = 0.0
    n, begin = 1, train[1]
    last = begin
    for kind, t in marks:
        if kind == "step":
            step_ms.append(1e3 * (t - last))
            views.append(n if w.is_fp else 1)
            last = t
        elif kind == "outer_begin":
            learned = learn_ends[n - 1] if n - 1 < len(learn_ends) else last
            inner += last - begin
            attack += learned - last
            evals += t - learned
        else:
            n += 1
            begin = last = t
    return step_ms, views, inner, attack, evals


def check_counts(w: Workload, spans) -> list[str]:
    """Exact forward counts: n per inner step at outer iteration n under
    literal weighting (1 for plain SGD), and one per snapshot per attack step
    in exact mode (1 otherwise)."""
    problems = []
    per_loss = _count_under(spans, "model.forward", "train.classifier_pool_loss")
    for j, (_, got) in enumerate(sorted(per_loss.items())):
        n = j // w.inner + 1
        want = n if w.is_fp else 1
        if got != want:
            problems.append(f"inner step {j + 1} (outer {n}): {got} forwards, expected {want}")
    if len(per_loss) != w.outer * w.inner:
        problems.append(f"{len(per_loss)} inner steps, expected {w.outer * w.inner}")
    learn_of = nearest_ancestor(spans, {"attack.learn"})
    outer_of = {i: n for n, i in enumerate((i for i, s in enumerate(spans) if s[0] == "attack.learn"), 1)}
    per_step = _count_under(spans, "model.forward", "attack.step")
    for i, got in per_step.items():
        n = outer_of.get(learn_of[i], 0)
        want = n + 1 if w.exact else 1
        if got != want:
            problems.append(f"attack step in outer {n}: {got} forwards, expected {want}")
    return problems


def check_shapes(w: Workload, shapes: dict) -> list[str]:
    return [f"op-table shape {op['key']} was never recorded" for op in workload_ops(w) if op["key"] not in shapes]


def per_layer(w: Workload, trace: dict, files: dict, overhead_s: float, ops: dict) -> dict:
    """Every per-layer metric as ``{name: value}``.

    ``files`` maps each artifact file name to its size in bytes; ``ops`` is
    the op-table timing keyed by entry.
    """
    spans, marks = trace["spans"], trace["marks"]
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for span, s in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        total_s[name] = total_s.get(name, 0.0) + span[2] - span[1]

    per_loss = _count_under(spans, "model.forward", "train.classifier_pool_loss")
    per_step = _count_under(spans, "model.forward", "attack.step")
    step_spans = sorted(per_step)
    attack_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in step_spans]
    step_ms, views, inner, attack, evals = _phases(w, spans, marks)
    tail = tail_percentile(len(step_ms))

    def ratio(counts):
        return sum(counts.values()) / len(counts) if counts else 0.0

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    m = {
        "tensor.conv2d.calls": calls.get("tensor.conv2d", 0),
        "tensor.conv2d.self_s": self_s.get("tensor.conv2d", 0.0),
        "tensor.backward.calls": calls.get("tensor.backward", 0),
        "tensor.backward.self_s": self_s.get("tensor.backward", 0.0),
        "tensor.batchnorm.self_s": self_s.get("tensor.batchnorm", 0.0),
        "tensor.sgd_momentum_step.self_s": self_s.get("tensor.sgd_momentum_step", 0.0),
        "model.forward.calls": calls.get("model.forward", 0),
        "model.forward.self_s": self_s.get("model.forward", 0.0),
        "model.forwards_per_inner_step": ratio(per_loss),
        "model.forwards_per_attack_step": ratio(per_step),
        "model.pool_expected_loss.self_s": self_s.get("model.pool_expected_loss", 0.0),
        "model.save_checkpoint.s": total_s.get("model.save_checkpoint", 0.0),
        "model.save_checkpoint.bytes": sum(b for f, b in files.items() if f.endswith(".ckpt")),
        "data.materialize.calls": calls.get("data.materialize", 0),
        "data.materialize.self_s": self_s.get("data.materialize", 0.0),
        "data.overlay_patch_op.self_s": self_s.get("data.overlay_patch_op", 0.0),
        "attack.step.calls": calls.get("attack.step", 0),
        "attack.step_ms.p50": med(attack_ms),
        "attack.learn.s": total_s.get("attack.learn", 0.0),
        "attack.save_perturbation.s": total_s.get("attack.save_perturbation", 0.0),
        "attack.step_ms.slope_per_snapshot": slope([per_step[i] for i in step_spans], attack_ms),
        "train.inner_step_ms.p50": med(step_ms),
        "train.inner_step_ms.ptail": percentile(step_ms, tail) if step_ms else 0.0,
        "train.inner_step_ms.n": len(step_ms),
        "train.inner_phase_s": inner,
        "train.attack_phase_s": attack,
        "train.eval_phase_s": evals,
        "train.classifier_pool_loss.self_s": self_s.get("train.classifier_pool_loss", 0.0),
        "train.inner_step_ms.slope_per_view": slope(views, step_ms),
        "evaluation.accuracy.s": total_s.get("evaluation.accuracy", 0.0),
        "evaluation.perturbed_accuracy.s": total_s.get("evaluation.perturbed_accuracy", 0.0),
        "evaluation.write_csv.s": total_s.get("evaluation.write_csv", 0.0),
        "cli.load_splits.s": total_s.get("cli.load_splits", 0.0),
        "cli.artifacts.s": sum(total_s.get(n, 0.0) for n in ARTIFACT_WRITERS),
        "cli.artifacts.bytes": sum(files.values()),
        "trace.overhead_s": overhead_s,
    }
    for name, _ in op_metric_names():
        key, field = name[len("tensor.op."):].rsplit(".", 1)
        m[name] = ops[key][field]
    return m
