"""Trace the resident memory of one ``advgame`` command, call by call.

    PYTHONPATH=src python3 tools/rss_trace.py -- <advgame args>

For example ``-- train-sgd --model paper-vgg --image-side 32 --per-class 2
--outer-iterations 1 --inner-steps 2 --batch-size 4 --output-dir runs/t``.

Runs ``advgame.cli.main`` in this process with the calls that shape a run's
memory wrapped where their callers look them up: ``tensor.backward``,
``tensor.sgd_momentum_step``, ``attack.craft``,
``evaluation.perturbed_accuracy`` and ``model.save_checkpoint``.  Each call
prints ``VmRSS`` and the process's minor page faults so far (``minflt``,
from ``getrusage``) on entry and on exit, and on exit the faults taken
inside the call, indented by how deeply it nests in the other traced calls.
Memory that the allocator hands back to the system and then touches again
shows in the faults, not in the peak.  Whenever the high-water mark
``VmHWM`` has risen by 0.1 MB or more since it was last printed, a line
gives it and where it rose: in the call that just ended or that encloses
the line, or before the call that came next when no traced call was
running (``before tensor.backward`` is a training step's forward pass).
Both values come from ``/proc/self/status``, so the tool runs on Linux
only.  The last line gives the final high-water mark, where it last rose,
the run's minor faults, and the most faults taken inside one repeated call
with that name.  A call repeats when its name has run before inside the same
chain of enclosing traced calls, so the first ``tensor.backward`` of an
``attack.craft`` is not a repeat of a training step's: a step that faults
back in memory its previous step freed shows there, and a first step at a
new shape does not.  The trace goes
to stderr and the command's own output to stdout; the exit status is the
command's.  The wrapped names are restored when the command returns.
"""

from __future__ import annotations

import functools
import resource
import sys

from advgame import attack, cli, evaluation, model, tensor

TRACED = [(tensor, "backward"), (tensor, "sgd_momentum_step"), (attack, "craft"),
          (evaluation, "perturbed_accuracy"), (model, "save_checkpoint")]


def status_mb(field: str) -> float:
    """A ``kB`` field of ``/proc/self/status``, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise KeyError(field)


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self, out):
        self.out = out
        self.stack: list[str] = []
        self.hwm = status_mb("VmHWM")
        self.peak_in = "at startup"
        self.called: set[tuple[str, ...]] = set()  # the chains of traced calls run so far, outermost first
        self.refaults, self.refaulted_in = 0, "none"  # the most faults in one repeated call, and its name

    def line(self, name: str, event: str, faults_in: int | None = None) -> None:
        indent = "  " * len(self.stack)
        inside_call = "" if faults_in is None else f" (+{faults_in} in the call)"
        print(f"{indent}{name} {event} VmRSS {status_mb('VmRSS'):.1f} MB minflt {minor_faults()}{inside_call}",
              file=self.out)
        # since the last line the process ran inside ``name`` (on exit), or in the enclosing call, or
        # untraced code such as a forward pass before ``name`` (on entry)
        inside = name if event == "exit" else self.stack[-1] if self.stack else None
        self.check(indent, f"in {inside}" if inside else f"before {name}")

    def check(self, indent: str, where: str) -> None:
        hwm = status_mb("VmHWM")
        if hwm >= self.hwm + 0.1:  # a move the printed precision shows
            self.hwm, self.peak_in = hwm, where
            print(f"{indent}VmHWM {hwm:.1f} MB, reached {where}", file=self.out)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.line(name, "enter")
            self.stack.append(name)
            chain = tuple(self.stack)
            entry = minor_faults()
            try:
                return fn(*args, **kwargs)
            finally:
                faults_in = minor_faults() - entry
                self.stack.pop()
                self.line(name, "exit", faults_in)
                if chain in self.called and (faults_in > self.refaults or self.refaulted_in == "none"):
                    self.refaults, self.refaulted_in = faults_in, name
                self.called.add(chain)

        return traced


def main(argv: list[str]) -> int:
    args = argv[1:] if argv[:1] == ["--"] else argv
    tracer = Tracer(sys.stderr)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in TRACED]
    for owner, attr, fn in originals:
        setattr(owner, attr, tracer.wrap(f"{owner.__name__.removeprefix('advgame.')}.{attr}", fn))
    try:
        code = cli.main(args)
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    tracer.check("", "after the last traced call")
    print(f"peak VmHWM {status_mb('VmHWM'):.1f} MB, reached {tracer.peak_in}, minflt {minor_faults()}, "
          f"most in a repeated call {tracer.refaults} ({tracer.refaulted_in})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
