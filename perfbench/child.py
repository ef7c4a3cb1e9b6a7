"""Run one ``advgame`` command in this process, as its console script would.

    python3 perfbench/child.py --src SRC --entry FILE [--trace FILE] -- ARGS...

Untraced, the only hook is a timestamp taken on entry to
``train.fp_train`` / ``train.sgd_train`` and written to ``--entry``.
With ``--trace`` the public functions of every ``advgame`` module are
wrapped, each where its caller looks it up, and the recorded spans, marks
and op shapes are written to that file when the command returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from spans import Recorder
from workloads import shape_name

TRAIN_ENTRIES = ("fp_train", "sgd_train")


def _dtype(x) -> str:
    return f"f{x.dtype.itemsize * 8}"


def _conv_key(args, kwargs):
    inp, kernel = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    return "conv2d." + shape_name(tuple(inp.shape), tuple(kernel.shape), f"s{stride}", _dtype(inp))


def _input_key(op):
    return lambda args, kwargs: f"{op}." + shape_name(tuple(args[0].shape), _dtype(args[0]))


def hook_entry(train_module, entry_path: str) -> None:
    """Write the monotonic clock to ``entry_path`` on entry to training."""
    for fname in TRAIN_ENTRIES:
        original = getattr(train_module, fname)

        @functools.wraps(original)
        def entered(*args, _original=original, **kwargs):
            with open(entry_path, "w") as fh:
                fh.write(repr(time.monotonic()))
            return _original(*args, **kwargs)

        setattr(train_module, fname, entered)


def install_tracing(rec: Recorder, advgame) -> None:
    """Wrap each traced name in the module namespace its callers read it from."""
    attack, cli, data, evaluation, model, tensor, train = (
        advgame.attack, advgame.cli, advgame.data, advgame.evaluation,
        advgame.model, advgame.tensor, advgame.train)
    targets = [
        (tensor, "conv2d", "tensor.conv2d", _conv_key),
        (tensor, "batchnorm", "tensor.batchnorm", _input_key("batchnorm")),
        (tensor, "softmax_cross_entropy", "tensor.softmax_cross_entropy", _input_key("softmax_cross_entropy")),
        (tensor, "dense", "tensor.dense", None),
        (tensor, "relu", "tensor.relu", None),
        (tensor, "backward", "tensor.backward", None),
        (tensor, "sgd_momentum_step", "tensor.sgd_momentum_step", None),
        (model, "forward", "model.forward", None),
        (model, "save_checkpoint", "model.save_checkpoint", None),
        # attack imports these two by name
        (attack, "pool_expected_loss", "model.pool_expected_loss", None),
        (attack, "overlay_patch_op", "data.overlay_patch_op", None),
        (attack, "universal_step", "attack.step", None),
        (attack, "patch_step", "attack.step", None),
        (attack, "learn_universal", "attack.learn", None),
        (attack, "learn_patch", "attack.learn", None),
        (attack, "save_perturbation", "attack.save_perturbation", None),
        (data.PerturbedView, "materialize", "data.materialize", None),
        (train, "classifier_pool_loss", "train.classifier_pool_loss", None),
        (evaluation, "accuracy", "evaluation.accuracy", None),
        (evaluation, "perturbed_accuracy", "evaluation.perturbed_accuracy", None),
        (evaluation, "write_csv", "evaluation.write_csv", None),
        (cli, "load_splits", "cli.load_splits", None),
        (cli, "echo_config", "cli.echo_config", None),
    ]
    for owner, attr, name, shape_key in targets:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), shape_key))

    for fname in TRAIN_ENTRIES:
        spanned = rec.wrap(f"train.{fname}", getattr(train, fname))

        def with_hooks(*args, _spanned=spanned, **kwargs):
            user_step, user_outer = kwargs.get("on_step"), kwargs.get("on_outer")

            def on_step(step, params):
                rec.mark("step")
                if user_step is not None:
                    user_step(step, params)

            def on_outer(n, params, row):
                rec.mark("outer_begin")
                if user_outer is not None:
                    user_outer(n, params, row)
                rec.mark("outer_end")

            kwargs["on_step"], kwargs["on_outer"] = on_step, on_outer
            return _spanned(*args, **kwargs)

        setattr(train, fname, with_hooks)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--entry", required=True)
    parser.add_argument("--trace")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, args.src)
    import advgame.cli
    import advgame.train

    rec = None
    if args.trace:
        rec = Recorder()
        install_tracing(rec, advgame)
    hook_entry(advgame.train, args.entry)
    code = advgame.cli.main(cli_args)
    if rec is not None:
        with open(args.trace, "w") as fh:
            json.dump(rec.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
