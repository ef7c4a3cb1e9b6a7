"""Time every op-table entry forward and backward through the public API.

    python3 perfbench/opbench.py --src SRC --out FILE

Each op is called through its public ``advgame.tensor`` function on random
inputs that all require gradients; the backward time is one
``tensor.backward`` over the op's output (summed to a scalar with
``tensor_sum`` when it is not one already).  Reports medians in ms.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from workloads import conv_gflop, op_table

MIN_REPEATS = 5
MAX_REPEATS = 50
BUDGET_S = 0.2


def _call(T, entry, rng, dtype):
    def leaf(shape, scale=1.0):
        return T.Tensor((scale * rng.standard_normal(shape)).astype(dtype), requires_grad=True)

    op = entry["op"]
    if op == "conv2d":
        kernel = entry["kernel"]
        inp, w, b = leaf(entry["input"]), leaf(kernel, 0.1), leaf(kernel[:1])
        return lambda: T.conv2d(inp, w, b, stride=entry["stride"], padding="same")
    if op == "batchnorm":
        c = entry["input"][1]
        inp, gamma, beta = leaf(entry["input"]), leaf((c,)), leaf((c,))
        mean, var = T.Tensor(rng.standard_normal(c).astype(dtype)), T.Tensor(rng.uniform(0.5, 1.5, c).astype(dtype))
        return lambda: T.batchnorm(inp, gamma, beta, mean, var, mode="train")
    logits = leaf(entry["input"])
    labels = rng.integers(0, entry["input"][1], entry["input"][0])
    return lambda: T.softmax_cross_entropy(logits, labels)


def time_entry(T, np, entry) -> dict:
    dtype = np.float32 if entry["dtype"] == "f32" else np.float64
    T.set_default_dtype(dtype)
    forward = _call(T, entry, np.random.default_rng(0), dtype)
    fwd, bwd = [], []
    spent = 0.0
    while len(fwd) < MAX_REPEATS and (len(fwd) < MIN_REPEATS + 1 or spent < BUDGET_S):
        t0 = time.perf_counter()
        out = forward()
        t1 = time.perf_counter()
        loss = out if out.size == 1 else T.tensor_sum(out)
        t2 = time.perf_counter()
        T.backward(loss)
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
        spent += t3 - t0
    # the first call warms caches and is dropped
    result = {"fwd_ms": 1e3 * statistics.median(fwd[1:]), "bwd_ms": 1e3 * statistics.median(bwd[1:]),
              "repeats": len(fwd) - 1}
    if entry["op"] == "conv2d":
        result["gflop"] = conv_gflop(entry)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from advgame import tensor as T

    results = {entry["key"]: time_entry(T, np, entry) for entry in op_table()}
    with open(args.out, "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
