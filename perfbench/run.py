"""advgame benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run of the workload is a fresh
child process running ``advgame train-*`` from ``src/``, one at a time (a
closed loop of one client): one child per CLI seed of the run, then more,
cycling through the seeds, while the next is expected to end within
``--seconds``.  Every child is checked: exit code 0, one ``metrics.csv`` row
per outer iteration with accuracies in [0, 1], one checkpoint (and for the
game one ``.pert``) per iteration, and byte-identical ``metrics.csv`` when a
CLI seed repeats.

``--trace 0`` prints the end-to-end metrics (medians over the children).
``--trace 1`` runs one child per CLI seed untraced, then one child with
every ``advgame`` module wrapped in spans, then the op table, and prints the
per-layer metrics.  The last line of
stdout is the result; the line before it records the environment.  Details
of the run go to ``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import all_metric_names, check_counts, check_shapes, per_layer  # noqa: E402
from workloads import WORKLOADS, cli_seeds  # noqa: E402

# One BLAS thread: with two, tiny-shape inner steps flip between ~3 ms and
# ~48 ms from run to run.
BLAS_THREADS = 1
RUN_CAP_S = 150.0
CSV_HEADER = "iter,split,clean_acc,adv_acc,attack,seconds"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "clean_acc": "fraction",
    "adv_acc": "fraction",
    "ok_frac": "fraction",
}


class Child:
    """One finished child process: its timings, peak memory and problems."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.launch = self.entry = self.exit = 0.0
        self.peak_rss_mb = 0.0
        self.code = 0
        self.csv = b""

    @property
    def setup_s(self) -> float:
        return self.entry - self.launch

    @property
    def run_s(self) -> float:
        return self.exit - self.entry

    def last_row(self) -> list[str]:
        return self.csv.decode().strip().splitlines()[-1].split(",")

    def record(self) -> dict:
        return {"seed": self.seed, "setup_s": self.setup_s, "run_s": self.run_s,
                "peak_rss_mb": self.peak_rss_mb, "problems": self.problems}


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("PYTHONPATH", "ADVGAME_OUTPUT_DIR"):
        env.pop(key, None)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0")
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def launch(cmd: list[str], root: Path, log: Path, timeout: float) -> tuple[float, float, int, float]:
    """Run ``cmd`` to completion; return launch time, exit time, exit code
    and peak resident memory in MB, read from this child's own rusage."""
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
    done = threading.Event()
    timer = threading.Timer(timeout, lambda: done.is_set() or proc.kill())
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        done.set()
        timer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss / 1024.0


def check_outputs(w, child: Child) -> None:
    p = child.problems
    if child.code != 0:
        p.append(f"exit code {child.code}")
    try:
        child.entry = float((child.out_dir / "entry.txt").read_text())
    except (OSError, ValueError):
        p.append("training entry was never reached")
        child.entry = child.exit
    try:
        child.csv = (child.out_dir / "metrics.csv").read_bytes()
    except OSError:
        p.append("metrics.csv missing")
        return
    lines = child.csv.decode().strip().splitlines()
    if lines[:1] != [CSV_HEADER] or len(lines) != w.outer + 1:
        p.append(f"metrics.csv has {len(lines) - 1} rows, expected {w.outer}")
        return
    kind = w.config.get("attack_kind", "universal")
    for n, line in enumerate(lines[1:], 1):
        try:
            it, split, clean, adv, attack, _ = line.split(",")
            well_formed = int(it) == n and split == "train" and attack == kind
            in_range = 0.0 <= float(clean) <= 1.0 and 0.0 <= float(adv) <= 1.0
        except ValueError:
            well_formed = False
        if not well_formed:
            p.append(f"metrics.csv row {n} malformed: {line}")
        elif not in_range:
            p.append(f"metrics.csv row {n} accuracy out of [0, 1]: {line}")
    expected = {f"checkpoint_{n:04d}.ckpt" for n in range(1, w.outer + 1)}
    if w.is_fp:
        expected |= {f"perturbation_{n:04d}.pert" for n in range(1, w.outer + 1)}
    found = {f.name for f in child.out_dir.iterdir() if f.suffix in (".ckpt", ".pert")}
    if found != expected:
        p.append(f"artifacts {sorted(found ^ expected)} differ from one checkpoint"
                 f"{' and one .pert' if w.is_fp else ''} per iteration")


def run_child(w, root: Path, work: Path, index: int, seed: int, deadline: float, trace: Path | None = None) -> Child:
    child = Child(seed, work / f"c{index:03d}")
    child.out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"),
           "--entry", str(child.out_dir / "entry.txt")]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", *w.cli_args(seed, str(child.out_dir))]
    timeout = max(1.0, deadline - time.monotonic())
    child.launch, child.exit, child.code, child.peak_rss_mb = launch(cmd, root, work / f"c{index:03d}.log", timeout)
    check_outputs(w, child)
    return child


def run_untraced(w, root: Path, work: Path, seed: int, seconds: float | None, start: float) -> list[Child]:
    """One child per CLI seed, then more (cycling through the seeds) while
    the next one is expected to end by ``seconds``; ``None`` stops after
    the first round."""
    seeds = cli_seeds(seed)
    children: list[Child] = []
    first_csv: dict[int, bytes] = {}
    while True:
        if len(children) >= len(seeds):
            took = statistics.fmean(c.exit - c.launch for c in children)
            if seconds is None or time.monotonic() - start + took / 2 > seconds:
                break
            if time.monotonic() - start + 2 * took > RUN_CAP_S:
                break
        s = seeds[len(children) % len(seeds)]
        child = run_child(w, root, work, len(children), s, start + RUN_CAP_S + 20)
        if s in first_csv and child.csv and child.csv != first_csv[s]:
            child.problems.append(f"metrics.csv differs from the earlier run with seed {s}")
        first_csv.setdefault(s, child.csv)
        shutil.rmtree(child.out_dir)
        children.append(child)
    return children


def end_to_end(children: list[Child]) -> dict:
    ok = [c for c in children if not c.problems]
    per_seed = {}
    for c in ok:
        per_seed.setdefault(c.seed, c.last_row())
    rows = list(per_seed.values())
    return {
        "setup_s": statistics.median(c.setup_s for c in ok),
        "run_s": statistics.median(c.run_s for c in ok),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
        "clean_acc": statistics.median(float(r[2]) for r in rows),
        "adv_acc": statistics.median(float(r[3]) for r in rows),
        "ok_frac": len(ok) / len(children),
    }


def traced(w, root: Path, work: Path, seed: int, untraced: list[Child], start: float):
    """One traced child, then the op table in a child of its own.

    Returns the per-layer metrics (None when the trace or the op table is
    missing), the problems found and how many of the two children failed.
    """
    deadline = start + RUN_CAP_S + 20
    trace_file, ops_file = work / "trace.json", work / "ops.json"
    child = run_child(w, root, work, 999, cli_seeds(seed)[0], deadline, trace=trace_file)
    if trace_file.exists():
        trace = json.loads(trace_file.read_text())
        child.problems += check_counts(w, trace["spans"]) + check_shapes(w, trace["shapes"])
    files = {f.name: f.stat().st_size for f in child.out_dir.iterdir() if f.name != "entry.txt"}
    *_, code, _ = launch([sys.executable, str(HERE / "opbench.py"), "--src", str(root / "src"),
                          "--out", str(ops_file)], root, work / "ops.log", max(1.0, deadline - time.monotonic()))
    problems = child.problems + ([f"op table exited with code {code}"] if code else [])
    failed = bool(child.problems) + bool(code)
    if child.code or code or not trace_file.exists():
        return None, problems, failed
    ok_runs = [c.run_s for c in untraced if not c.problems]
    overhead = child.run_s - statistics.median(ok_runs)
    return per_layer(w, trace, files, overhead, json.loads(ops_file.read_text())), problems, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src = root / "src"
    if not (src / "advgame" / "cli.py").is_file():
        print(f"perfbench: no advgame sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out = root / "perfbench_out"
    work = out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # bytecode is cached once here, as an installed package would have it
    compileall.compile_dir(str(src), quiet=1)
    try:
        children = run_untraced(w, root, work, args.seed, None if args.trace else args.seconds, start)
        failed = sum(1 for c in children if c.problems)
        attempted = len(children)
        problems = [f"seed {c.seed}: {p}" for c in children for p in c.problems]
        if len(children) == failed:
            print("perfbench: every run failed:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        if args.trace:
            layer, trace_problems, trace_failed = traced(w, root, work, args.seed, children, start)
            attempted += 2
            failed += trace_failed
            problems += [f"traced: {p}" for p in trace_problems]
            if layer is None:
                print("perfbench: traced run failed:\n  " + "\n  ".join(problems), file=sys.stderr)
                return 1
            units = dict(all_metric_names())
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(children).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    detail = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "children": [c.record() for c in children], "problems": problems,
              "metrics": metrics}
    (out / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
