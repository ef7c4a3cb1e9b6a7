"""The benchmark's workloads and the op table derived from them.

Each workload is one ``advgame train-*`` command line.  The benchmark seed
is turned into a few CLI seeds (``cli_seeds``); every child process gets one
of them as ``--seed`` and the rest of its input comes from the fixed config
below.  Why each workload exists:

* ``fp-universal``: the desk game.  Tiny conv shapes, where conv is bound by
  Python overhead rather than BLAS; the attack and the inner step share the
  time.  It bypasses the patch overlay, the snapshot pool and batchnorm.
  epsilon is 6 px: at 16 px a fresh attack drives most seeds to chance and at
  4 px it never moves the classifier, so neither guards quality.
* ``fp-exact-patch``: a long history with few steps per iteration.  Forwards
  per inner step grow with the views, forwards per attack step with the
  snapshot pool, patches are re-rendered every step and artifacts are
  written every iteration.
* ``sgd-vgg``: plain SGD on the paper's VGG at 32x32.  Conv is BLAS-bound at
  64-512 channels and batchnorm runs; no game machinery.  float64, because
  float32 step times there depend on the data (up to 2x between seeds).  A
  few steps leave the VGG at chance in inference mode, so the whole
  (balanced) split is evaluated and quality reads exactly 1/classes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # advgame subcommand
    config: dict          # advgame config keys, passed as --key value
    model_layers: tuple   # (out_channels, stride) per conv layer
    input_shape: tuple    # (C, H, W)

    def cli_args(self, seed: int, output_dir: str) -> list[str]:
        args = [self.command]
        for key, value in self.config.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args + ["--seed", str(seed), "--output-dir", output_dir]

    @property
    def outer(self) -> int:
        return int(self.config["outer_iterations"])

    @property
    def inner(self) -> int:
        return int(self.config["inner_steps"])

    @property
    def is_fp(self) -> bool:
        return self.command == "train-fp"

    @property
    def exact(self) -> bool:
        return self.config.get("fp_mode") == "exact"

    @property
    def dtype(self) -> str:
        return "f32" if self.config["precision"] == "float32" else "f64"


TINY_LAYERS = ((8, 2), (16, 2))
VGG_LAYERS = ((64, 1), (64, 1), (128, 2), (128, 1), (128, 1),
              (256, 2), (256, 1), (256, 1), (512, 2), (512, 1), (512, 1))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fp-universal", "train-fp",
            dict(model="tiny", precision="float64", classes=10, per_class=50, image_side=16,
                 outer_iterations=3, inner_steps=100, batch_size=64,
                 fp_mode="approximate", attack_kind="universal", epsilon_pixels=6,
                 attack_iterations=200, attack_batch_size=64, eval_sample_size=500),
            TINY_LAYERS, (3, 16, 16)),
        Workload(
            "fp-exact-patch", "train-fp",
            dict(model="tiny", precision="float64", classes=10, per_class=50, image_side=16,
                 outer_iterations=10, inner_steps=10, batch_size=64,
                 fp_mode="exact", attack_kind="patch", patch_placements=4,
                 attack_iterations=10, attack_batch_size=16, eval_sample_size=500),
            TINY_LAYERS, (3, 16, 16)),
        Workload(
            "sgd-vgg", "train-sgd",
            dict(model="paper-vgg", precision="float64", classes=10, per_class=2, image_side=32,
                 outer_iterations=1, inner_steps=6, batch_size=4,
                 attack_iterations=3, eval_attack_iterations=3, attack_batch_size=4,
                 eval_sample_size=20),
            VGG_LAYERS, (3, 32, 32)),
    )
}

# CLI seeds per run; quality is the median over them
SEEDS_PER_RUN = 5


def cli_seeds(seed: int) -> list[int]:
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


def shape_name(*parts) -> str:
    """``(4, 3, 32, 32), (64, 3, 3, 3), 's1', 'f64'`` -> ``4x3x32x32_64x3x3x3_s1_f64``."""
    return "_".join("x".join(map(str, p)) if isinstance(p, tuple) else str(p) for p in parts)


def workload_ops(w: Workload) -> list[dict]:
    """The op shapes one training step of ``w`` runs, at its training batch:
    each conv2d (input, kernel, stride), batchnorm on the conv outputs of
    batchnorm models, and the cross-entropy on the logits."""
    batch = int(w.config["batch_size"])
    c, h, _ = w.input_shape
    ops = []
    for out_c, stride in w.model_layers:
        inp, kernel = (batch, c, h, h), (out_c, c, 3, 3)
        ops.append(dict(op="conv2d", input=inp, kernel=kernel, stride=stride,
                        key="conv2d." + shape_name(inp, kernel, f"s{stride}", w.dtype)))
        h = (h + 2 - 3) // stride + 1
        c = out_c
        if w.config["model"] == "paper-vgg":
            bn = (batch, c, h, h)
            ops.append(dict(op="batchnorm", input=bn, key="batchnorm." + shape_name(bn, w.dtype)))
    logits = (batch, int(w.config["classes"]))
    ops.append(dict(op="softmax_cross_entropy", input=logits,
                    key="softmax_cross_entropy." + shape_name(logits, w.dtype)))
    for op in ops:
        op["dtype"] = w.dtype
    return ops


def op_table() -> list[dict]:
    """The union of every workload's op shapes, each once.

    The table is the same whichever workload runs, so every traced run
    reports every entry; each traced run checks that it recorded its own.
    """
    table: dict[str, dict] = {}
    for w in WORKLOADS.values():
        for op in workload_ops(w):
            table.setdefault(op["key"], op)
    return list(table.values())


def conv_gflop(entry: dict) -> float:
    """Forward multiply-adds of one conv call, counted as two flops each."""
    b, c, h, _ = entry["input"]
    f, _, k, _ = entry["kernel"]
    s = entry["stride"]
    out = (h + 2 * ((k - 1) // 2) - k) // s + 1
    return 2.0 * b * f * out * out * c * k * k / 1e9
