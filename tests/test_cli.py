import os
import platform
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import advgame
from advgame import attack as A
from advgame import cli as C
from advgame import data as D
from advgame import evaluation as E
from advgame import model as M
from advgame import tensor as T
from advgame import train as TR
from advgame.cli import ConfigError, ExperimentConfig, main, parse_config


def desk_args(tmp_path, **extra):
    base = {
        "classes": 3,
        "per-class": 6,
        "image-side": 8,
        "outer-iterations": 2,
        "inner-steps": 3,
        "batch-size": 8,
        "attack-iterations": 2,
        "attack-batch-size": 8,
        "eval-attack-iterations": 2,
        "eval-sample-size": 18,
        "output-dir": str(tmp_path / "run"),
    }
    base.update(extra)
    out = []
    for key, value in base.items():
        out += [f"--{key}", str(value)]
    return out


# config files: arbitrary bytes, or lines of a known key and an arbitrary (text or binary) value
CONFIG_FILES = st.one_of(
    st.binary(max_size=80),
    st.lists(st.tuples(st.sampled_from(sorted(C._FIELD_TYPES)),
                       st.one_of(st.text(max_size=12).map(str.encode), st.binary(max_size=6))), max_size=4)
    .map(lambda lines: b"\n".join(key.encode() + b" = " + value for key, value in lines)),
)


class TestParseConfig:
    @settings(max_examples=200, deadline=None)
    @given(CONFIG_FILES)
    @example(b"\xff")  # not UTF-8
    def test_any_bytes_give_a_config_or_a_config_error(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_bytes(blob)
            try:
                assert isinstance(parse_config(path), ExperimentConfig)
            except ConfigError:
                pass

    def test_empty_file_gives_desk_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg == ExperimentConfig()

    def test_epsilon_pixels_to_fraction(self, tmp_path):
        path = tmp_path / "eps.cfg"
        path.write_text("epsilon_pixels = 16\n")
        cfg = parse_config(path)
        assert abs(cfg.epsilon - 16 / 255) < 1e-15

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("batch_size = 32\nseed = 5\n")
        cfg = parse_config(path, {"batch_size": 64})
        assert cfg.batch_size == 64 and cfg.seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_unparsable_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("batch_size = lots\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "c10.cfg"
        path.write_text("data = cifar10\n")
        with pytest.raises(ConfigError, match="data_path"):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nseed = 9\n")
        assert parse_config(path).seed == 9

    def test_profile_presets(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("profile = cifar10\ndata_path = /tmp/x\n")
        cfg = parse_config(path)
        assert cfg.inner_steps == 10_000 and cfg.attack_alpha == 2e-5
        assert cfg.model == "paper-vgg" and cfg.batch_size == 256

    def test_round_trip(self, tmp_path):
        cfg = parse_config(None, {"seed": 3, "attack_kind": "patch", "patch_lambda": 1.0,
                                  "patch_target_class": 2})
        echoed = tmp_path / "echo.cfg"
        echoed.write_text(cfg.to_text())
        assert parse_config(echoed) == cfg

    def test_environment_does_not_set_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVGAME_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert parse_config(None, {"output_dir": str(tmp_path / "flag")}).output_dir == str(tmp_path / "flag")
        assert parse_config(None).output_dir == ExperimentConfig().output_dir

    def test_key_set_twice_is_2_before_any_write(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("seed = 1\n# a comment\nseed = 2\n")
        assert main(["train-sgd", *desk_args(tmp_path), "--config", str(path)]) == 2
        assert f"{path}:3: seed is set twice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            ExperimentConfig().seed = 1

    def test_help_shows_every_choice_table(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["train-fp", "--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        for key, allowed in C.CHOICES.items():
            assert f"--{key.replace('_', '-')} {{{','.join(allowed)}}}\n" in out


class TestMatrixDemo:
    def test_rps_near_uniform(self, capsys):
        assert main(["matrix-demo", "--game", "rps", "--iters", "50000"]) == 0
        out = capsys.readouterr().out
        row = [float(v) for v in out.splitlines()[0].split(":")[1].split()]
        assert max(abs(v - 1 / 3) for v in row) < 0.05

    def test_unknown_game_exits_2(self, capsys):
        assert main(["matrix-demo", "--game", "chess"]) == 2

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_nonpositive_iters_exits_2_before_output(self, capsys, iters):
        assert main(["matrix-demo", "--iters", iters]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ")


# a universal attack on the tiny model under the heap policy, counted in minor page faults: 10 steps to warm up,
# then the mean over 50
ATTACK_STEP_FAULTS = """
import resource
import numpy as np
from advgame import attack as A, cli, data as D, model as M
cli.keep_freed_heap()
ds = D.make_synthetic(10, 8, 16, seed=0)
mc = M.tiny_config(side=16, num_classes=10)
pool = M.single_pool(mc, M.build_model(mc, 0))
xi, batch, labels = np.zeros(ds.image_shape), ds.images[:64], ds.labels[:64]
for step in range(60):
    if step == 10:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    xi = A.universal_step(xi, pool, batch, labels, 0.01, 16 / 255)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


class TestHeapPolicy:
    def test_main_applies_it_once_before_it_parses(self, monkeypatch):
        calls, build_parser = [], C.build_parser
        monkeypatch.setattr(C, "keep_freed_heap", lambda: calls.append("heap policy"))
        monkeypatch.setattr(C, "build_parser", lambda: calls.append("parse") or build_parser())
        assert main(["matrix-demo", "--iters", "10"]) == 0
        assert calls == ["heap policy", "parse"]

    def test_it_sets_both_thresholds_and_is_a_no_op_without_mallopt(self, monkeypatch):
        set_to = []

        def mallopt(param, value):
            set_to.append((param, value))
            return 1

        monkeypatch.setattr(C.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        C.keep_freed_heap()
        # M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at the largest int
        assert set_to == [(-3, 32 << 20), (-1, 2**31 - 1)]
        monkeypatch.setattr(C.ctypes, "CDLL", lambda name: object())
        C.keep_freed_heap()
        assert len(set_to) == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
    def test_attack_steps_reuse_the_heap_instead_of_faulting_it_back(self):
        src = str(Path(advgame.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", ATTACK_STEP_FAULTS], capture_output=True, text=True, env=env,
                              check=True)
        # without the policy each step faulted 465-743 pages back in (glibc 2.36)
        assert float(proc.stdout) < 1


class TestTrainEvalPipeline:
    def test_sgd_then_eval_row_counts(self, tmp_path, capsys):
        assert main(["train-sgd", *desk_args(tmp_path)]) == 0
        run_dir = tmp_path / "run"
        ckpts = sorted(run_dir.glob("checkpoint_*.ckpt"))
        assert len(ckpts) == 2
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "iter,split,clean_acc,adv_acc,attack,seconds"
        assert len(metrics) == 1 + 2  # header + one row per outer iteration

        assert main(["eval", *desk_args(tmp_path), "--checkpoint-dir", str(run_dir)]) == 0
        eval_lines = (run_dir / "eval.csv").read_text().splitlines()
        assert len(eval_lines) == 1 + 2 * 3  # header + checkpoints x splits

    def test_single_cifar_file_is_only_a_train_split(self, tmp_path, capsys):
        path = tmp_path / "data_batch.bin"
        path.write_bytes(b"".join(bytes([i % 10]) + bytes(3072) for i in range(40)))
        args = desk_args(tmp_path, **{"image-side": 32, "classes": 10, "data": "cifar10", "data-path": str(path),
                                      "outer-iterations": 1, "inner-steps": 1})
        cfg = parse_config(overrides={"data": "cifar10", "data_path": str(path), "image_side": 32, "classes": 10})
        assert list(C.load_splits(cfg)) == ["train"]
        assert main(["train-sgd", *args]) == 0
        assert main(["eval", *args]) == 0
        rows = (tmp_path / "run" / "eval.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["train"]
        assert main(["attack", *args, "--checkpoint", str(tmp_path / "run" / "checkpoint_0001.ckpt")]) == 0

    def test_config_echo_round_trips(self, tmp_path):
        assert main(["train-sgd", *desk_args(tmp_path, **{"outer-iterations": 1, "inner-steps": 1})]) == 0
        echoed = tmp_path / "run" / "config.txt"
        cfg = parse_config(echoed)
        assert cfg.output_dir == str(tmp_path / "run")
        assert cfg.outer_iterations == 1

    def test_a_config_echo_goes_to_a_sibling_and_a_failed_one_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        C.echo_config(ExperimentConfig(seed=1), tmp_path, "config.txt")
        path = tmp_path / "config.txt"
        before = path.read_bytes()
        during = []

        def failing_text(cfg):
            during.append((path.read_bytes(), sorted(p.name for p in tmp_path.iterdir())))
            raise OSError("disk full")

        monkeypatch.setattr(ExperimentConfig, "to_text", failing_text)
        with pytest.raises(OSError, match="disk full"):
            C.echo_config(ExperimentConfig(seed=2), tmp_path, "config.txt")
        ((read_during, names_during),) = during
        assert read_during == before and len(names_during) == 2
        assert path.read_bytes() == before and parse_config(path).seed == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.txt"]

    def test_eval_in_training_dir_keeps_training_config(self, tmp_path, capsys):
        train = desk_args(tmp_path, **{"outer-iterations": 1, "inner-steps": 2, "batch-size": 16})
        assert main(["train-sgd", *train]) == 0
        run_dir = tmp_path / "run"
        trained = (run_dir / "config.txt").read_bytes()
        assert main(["eval", *desk_args(tmp_path)]) == 0
        assert (run_dir / "config.txt").read_bytes() == trained
        echoed = parse_config(run_dir / "eval_config.txt")
        assert echoed.outer_iterations == 2 and echoed.inner_steps == 3 and echoed.batch_size == 8
        assert echoed.output_dir == str(run_dir)

    def test_fp_writes_perturbation_containers(self, tmp_path):
        assert main(["train-fp", *desk_args(tmp_path)]) == 0
        perts = sorted((tmp_path / "run").glob("perturbation_*.pert"))
        assert len(perts) == 2

    def test_train_at_runs(self, tmp_path):
        assert main(["train-at", *desk_args(tmp_path, **{"pgd-steps": 1})]) == 0
        assert (tmp_path / "run" / "metrics.csv").exists()

    # with no PGD step AT's adversarial half is the clean batch, drawn from no stream
    def test_train_at_with_zero_pgd_steps_writes_the_checkpoints_of_train_sgd(self, tmp_path):
        runs = {}
        for command in ("train-at", "train-sgd"):
            assert main([command, *desk_args(tmp_path / command, **{"pgd-steps": 0})]) == 0
            runs[command] = [p.read_bytes() for p in sorted((tmp_path / command / "run").glob("checkpoint_*.ckpt"))]
        assert runs["train-at"] == runs["train-sgd"] and len(runs["train-sgd"]) == 2

    # FP crafts the training attack, the baselines the evaluation attack; each once per outer iteration
    @pytest.mark.parametrize("command,iterations", [("train-fp", 2), ("train-sgd", 3), ("train-at", 3)])
    def test_each_trainer_crafts_its_configs_attack(self, tmp_path, capsys, monkeypatch, command, iterations):
        craft, configs = A.craft, []

        def recorded(pool, dataset, config, rng):
            configs.append(config)
            return craft(pool, dataset, config, rng)

        monkeypatch.setattr(A, "craft", recorded)
        args = desk_args(tmp_path, **{"attack-iterations": 2, "eval-attack-iterations": 3, "pgd-steps": 1})
        assert main([command, *args]) == 0
        assert [c.iterations for c in configs] == [iterations, iterations]

    def test_rerun_byte_identical(self, tmp_path):
        assert main(["train-sgd", *desk_args(tmp_path, **{"output-dir": str(tmp_path / "a")})]) == 0
        assert main(["train-sgd", *desk_args(tmp_path, **{"output-dir": str(tmp_path / "b")})]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        for ck in sorted(p.name for p in a.glob("checkpoint_*.ckpt")):
            assert (a / ck).read_bytes() == (b / ck).read_bytes()

    # a float64 run's last artifacts are its end state, so a resumed run or an exact comparison can start from them
    @pytest.mark.parametrize("command", [
        ["train-fp", "--fp-mode", "approximate", "--attack-kind", "universal"],
        ["train-fp", "--fp-mode", "exact", "--attack-kind", "patch"],
        ["train-sgd"],
    ], ids=["fp-universal", "fp-exact-patch", "sgd"])
    def test_the_last_artifacts_load_bit_for_bit_to_the_returned_state(self, tmp_path, capsys, monkeypatch, command):
        name = {"train-fp": "fp_train", "train-sgd": "sgd_train"}[command[0]]
        trainer, returned = getattr(TR, name), []
        monkeypatch.setattr(TR, name, lambda *args, **kwargs: returned.append(trainer(*args, **kwargs)))
        assert main([*command, *desk_args(tmp_path)]) == 0
        ((state, rows),) = returned
        run = tmp_path / "run"
        last = sorted(run.glob("checkpoint_*.ckpt"))[-1]
        assert last.name == "checkpoint_0002.ckpt"
        _, params = M.load_checkpoint(last)
        assert list(params) == list(state.params)
        for key, p in state.params.items():
            assert params[key].data.dtype == np.float64 and params[key].data.tobytes() == p.data.tobytes(), key
        if command[0] == "train-fp":
            xi = A.load_perturbation(sorted(run.glob("perturbation_*.pert"))[-1]).xi
            assert xi.dtype == np.float64 and xi.tobytes() == rows[-1].spec.xi.tobytes()


class TestLoadSplits:
    # training reads ``train`` alone, ``attack`` crafts on ``train`` and scores ``test``, ``eval`` scores all three
    @pytest.mark.parametrize("command,built", [("train-fp", ["train"]), ("train-sgd", ["train"]),
                                               ("train-at", ["train"]), ("attack", ["train", "test"]),
                                               ("eval", ["train", "valid", "test"])])
    def test_each_command_builds_only_the_splits_it_reads(self, tmp_path, capsys, monkeypatch, command, built):
        args = desk_args(tmp_path, **{"outer-iterations": 1, "inner-steps": 1, "pgd-steps": 1, "seed": 3})
        if command in ("attack", "eval"):
            assert main(["train-sgd", *args]) == 0
        make_synthetic, splits = D.make_synthetic, []

        def recorded(classes, per_class, side, seed, *rest):
            splits.append(E.SPLIT_ORDER[seed - 3])  # split k is drawn on seed + k
            return make_synthetic(classes, per_class, side, seed, *rest)

        monkeypatch.setattr(D, "make_synthetic", recorded)
        where = ["--checkpoint", str(tmp_path / "run" / "checkpoint_0001.ckpt")] if command == "attack" else []
        assert main([command, *args, *where]) == 0
        assert splits == built

    def test_a_cifar_directory_opens_test_batch_only_for_the_test_split(self, tmp_path, monkeypatch):
        for name in ("data_batch_1.bin", "test_batch.bin"):
            (tmp_path / name).write_bytes(b"")
        opened = []

        def load(path):
            opened.append(Path(path).name)
            return D.Dataset(np.zeros((5001, 1, 1, 1)), np.zeros(5001), D.CIFAR_CLASSES)

        monkeypatch.setattr(D, "load_cifar10", load)
        cfg = parse_config(overrides={"data": "cifar10", "data_path": str(tmp_path), "image_side": 32, "classes": 10})
        assert {name: len(ds) for name, ds in C.load_splits(cfg, ("train",)).items()} == {"train": 1}
        assert opened == ["data_batch_1.bin"]
        opened.clear()
        splits = C.load_splits(cfg)
        assert {name: len(ds) for name, ds in splits.items()} == {"train": 1, "valid": 5000, "test": 5001}
        assert list(splits) == ["train", "valid", "test"]
        assert opened == ["data_batch_1.bin", "test_batch.bin"]

    @pytest.mark.parametrize("sizes", [(5001,), (5001, 5001), (5001, 3000)])
    def test_a_cifar_split_holds_its_own_records_alone(self, tmp_path, monkeypatch, sizes):
        # the last 5000 records of the files in order are ``valid``; no split's images view an array that holds
        # records of the other, so a ``train`` load frees the held-out ones
        total, starts = sum(sizes), np.cumsum([0, *sizes])
        for k in range(len(sizes)):
            (tmp_path / f"data_batch_{k + 1}.bin").write_bytes(b"")

        def load(path):
            k = int(Path(path).stem.removeprefix("data_batch_")) - 1
            ids = np.arange(starts[k], starts[k + 1])  # record i's one pixel is i / total
            return D.Dataset((ids / total).reshape(-1, 1, 1, 1), ids % 10, D.CIFAR_CLASSES)

        monkeypatch.setattr(D, "load_cifar10", load)
        cfg = parse_config(overrides={"data": "cifar10", "data_path": str(tmp_path), "image_side": 32, "classes": 10})
        held = {"train": np.arange(total - 5000), "valid": np.arange(total - 5000, total)}
        for names in (("train",), E.SPLIT_ORDER):
            splits = C.load_splits(cfg, names)
            assert list(splits) == [name for name in names if name in held]
            for name, ds in splits.items():
                assert ds.images.ravel().tolist() == (held[name] / total).tolist()
                assert ds.labels.tolist() == (held[name] % 10).tolist()
                owner = ds.images if ds.images.base is None else ds.images.base
                assert owner.size == len(held[name]), name

    def test_a_cifar_directory_without_a_test_batch_scores_the_training_split(self, tmp_path, capsys, monkeypatch):
        # ``load_splits`` gives it ``train`` and ``valid`` alone: ``attack`` scores ``train`` and ``eval`` writes no
        # ``test`` rows; the loader gives 8-px images, so the records stay small
        (tmp_path / "data_batch_1.bin").write_bytes(b"")
        rng = np.random.default_rng(0)
        monkeypatch.setattr(D, "CIFAR_SHAPE", (3, 8, 8))
        monkeypatch.setattr(D, "load_cifar10", lambda path: D.Dataset(rng.uniform(0, 1, (5010, 3, 8, 8)),
                                                                      np.arange(5010) % 10, D.CIFAR_CLASSES))
        args = desk_args(tmp_path, **{"classes": 10, "data": "cifar10", "data-path": str(tmp_path),
                                      "outer-iterations": 1, "inner-steps": 1})
        assert main(["train-sgd", *args]) == 0
        assert main(["eval", *args]) == 0
        rows = (tmp_path / "run" / "eval.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["train", "valid"]
        accuracy, scored = E.accuracy, []

        def recorded(pool, ds, *rest):
            scored.append(len(ds))
            return accuracy(pool, ds, *rest)

        monkeypatch.setattr(E, "accuracy", recorded)
        assert main(["attack", *args, "--checkpoint", str(tmp_path / "run" / "checkpoint_0001.ckpt")]) == 0
        assert scored == [10]

    @pytest.mark.parametrize("per_class", [5, 9])
    def test_the_default_splits_are_the_three_synthetic_draws(self, per_class):
        cfg = parse_config(overrides={"classes": 3, "per_class": per_class, "image_side": 8, "seed": 4})
        expected = {"train": D.make_synthetic(3, per_class, 8, 4),
                    "valid": D.make_synthetic(3, max(2, per_class // 4), 8, 5),
                    "test": D.make_synthetic(3, max(2, per_class // 2), 8, 6)}
        splits = C.load_splits(cfg)
        assert list(splits) == list(expected)
        for name, want in expected.items():
            got = splits[name]
            assert (got.num_classes, got.images.dtype) == (3, want.images.dtype)
            assert got.images.tobytes() == want.images.tobytes() and got.labels.tobytes() == want.labels.tobytes()


class TestAttackCommand:
    def _trained_checkpoint(self, tmp_path):
        assert main(["train-sgd", *desk_args(tmp_path, **{"outer-iterations": 1, "inner-steps": 30})]) == 0
        return str(tmp_path / "run" / "checkpoint_0001.ckpt")

    def test_universal_attack_writes_container(self, tmp_path, capsys):
        ckpt = self._trained_checkpoint(tmp_path)
        out = str(tmp_path / "u.pert")
        assert main(["attack", *desk_args(tmp_path), "--checkpoint", ckpt, "--out", out]) == 0
        assert (tmp_path / "u.pert").exists()
        assert "adv accuracy" in capsys.readouterr().out

    def test_attack_in_training_dir_keeps_training_config(self, tmp_path, capsys):
        ckpt = self._trained_checkpoint(tmp_path)
        run_dir = tmp_path / "run"
        trained = (run_dir / "config.txt").read_bytes()
        assert main(["attack", *desk_args(tmp_path), "--checkpoint", ckpt]) == 0
        assert (run_dir / "config.txt").read_bytes() == trained
        assert parse_config(run_dir / "attack_config.txt").inner_steps == 3

    def test_targeted_patch_reports_hit_rate(self, tmp_path, capsys):
        ckpt = self._trained_checkpoint(tmp_path)
        assert main([
            "attack", *desk_args(tmp_path), "--checkpoint", ckpt,
            "--attack-kind", "patch", "--patch-target-class", "1", "--patch-lambda", "1.0",
        ]) == 0
        assert "target-class hit rate" in capsys.readouterr().out

    def test_hit_rate_scores_the_adversarial_subset(self, tmp_path, monkeypatch):
        ckpt = self._trained_checkpoint(tmp_path)
        calls = []
        materialize = D.PerturbedView.materialize

        def recorded(view, indices, draw=0):
            calls.append((view.spec is None, view.seed, np.asarray(indices).copy()))
            return materialize(view, indices, draw)

        monkeypatch.setattr(D.PerturbedView, "materialize", recorded)
        # the test split holds 9 images, so a 5-image sample is a strict subset
        assert main([
            "attack", *desk_args(tmp_path, **{"eval-sample-size": 5}), "--checkpoint", ckpt,
            "--attack-kind", "patch", "--patch-target-class", "1", "--patch-lambda", "1.0",
        ]) == 0
        clean = [c for c in calls if c[0]]
        perturbed = [c for c in calls if not c[0]]
        assert len(clean) == 1 and len(perturbed) == 2  # the adversarial score and the hit rate
        assert len(clean[0][2]) == 5
        for _, _, indices in perturbed:
            assert np.array_equal(indices, clean[0][2])
        assert perturbed[0][1] == perturbed[1][1]

    # each setting has one flag, the one named after its field
    @pytest.mark.parametrize("alias", [["--kind", "patch"], ["--target-class", "1"], ["--lambda", "1.0"]], ids=" ".join)
    def test_alias_flags_are_unknown(self, tmp_path, capsys, alias):
        with pytest.raises(SystemExit) as done:
            main(["attack", *desk_args(tmp_path), "--checkpoint", "unread.ckpt", *alias])
        assert done.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # the checkpoint decides the model, so a ``model`` and a ``batch_size`` its batchnorm could not train with are
    # not read
    @pytest.mark.parametrize("extra", [["--model", "paper-vgg"], ["--model", "paper-vgg", "--batch-size", "1"]],
                             ids=" ".join)
    def test_attack_ignores_the_model_settings(self, tmp_path, extra):
        args = desk_args(tmp_path, **{"image-side": 16, "outer-iterations": 1})
        assert main(["train-sgd", *args]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint_0001.ckpt")
        for out, flags in (("plain.pert", []), ("flagged.pert", extra)):
            assert main(["attack", *args, "--checkpoint", ckpt, "--out", str(tmp_path / out), *flags]) == 0
        assert (tmp_path / "flagged.pert").read_bytes() == (tmp_path / "plain.pert").read_bytes()

    def test_export_ppm(self, tmp_path, capsys):
        ckpt = self._trained_checkpoint(tmp_path)
        pert = str(tmp_path / "x.pert")
        assert main(["attack", *desk_args(tmp_path), "--checkpoint", ckpt, "--out", pert]) == 0
        ppm = str(tmp_path / "x.ppm")
        assert main(["export-ppm", "--in", pert, "--out", ppm]) == 0
        assert (tmp_path / "x.ppm").read_bytes().startswith(b"P6\n8 8\n255\n")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        assert main(["train-sgd", "--config", str(bad)]) == 2

    def test_a_config_file_that_is_not_utf8_is_2_before_any_write(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"seed = \xff\n")
        assert main(["train-sgd", "--config", str(bad), "--output-dir", str(tmp_path / "run")]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_io_error_is_3(self, tmp_path, capsys):
        assert main(["export-ppm", "--in", str(tmp_path / "missing.pert"), "--out", str(tmp_path / "o.ppm")]) == 3

    def test_eval_without_checkpoints_is_3(self, tmp_path, capsys):
        assert main(["eval", *desk_args(tmp_path), "--checkpoint-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "run").exists()

    def test_eval_on_unnumbered_checkpoint_is_3(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        mc = M.tiny_config(side=8, num_classes=3)
        for name in ("checkpoint_0001.ckpt", "checkpoint_best.ckpt"):
            M.save_checkpoint(ckpts / name, mc, M.build_model(mc, 0))
        assert main(["eval", *desk_args(tmp_path), "--checkpoint-dir", str(ckpts)]) == 3
        assert "checkpoint_best.ckpt" in capsys.readouterr().err
        assert not (tmp_path / "run" / "eval.csv").exists()
        assert not (tmp_path / "run").exists()

    def test_eval_on_two_names_of_one_iteration_is_3_before_any_write(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        mc = M.tiny_config(side=8, num_classes=3)
        for name in ("checkpoint_0001.ckpt", "checkpoint_1.ckpt"):
            M.save_checkpoint(ckpts / name, mc, M.build_model(mc, 0))
        assert main(["eval", *desk_args(tmp_path, **{"output-dir": str(ckpts)})]) == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "checkpoint_0001.ckpt" in err and "checkpoint_1.ckpt" in err
        assert sorted(p.name for p in ckpts.iterdir()) == ["checkpoint_0001.ckpt", "checkpoint_1.ckpt"]

    @pytest.mark.parametrize("where", ["missing", "empty"])
    def test_eval_on_a_missing_or_empty_checkpoint_dir_is_3_before_any_write(self, tmp_path, capsys, where):
        ckpts = tmp_path / "ckpts"
        if where == "empty":
            ckpts.mkdir()
        assert main(["eval", *desk_args(tmp_path), "--checkpoint-dir", str(ckpts)]) == 3
        assert "no checkpoint_*.ckpt files" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_export_ppm_of_two_channel_perturbation_is_2_without_file(self, tmp_path, capsys):
        # and of a one-channel one: a PPM takes 3 channels
        for channels in (1, 2):
            pert, ppm = tmp_path / f"{channels}.pert", tmp_path / f"{channels}.ppm"
            A.save_perturbation(pert, D.PerturbationSpec("universal", np.zeros((channels, 4, 4)), epsilon=0.1))
            assert main(["export-ppm", "--in", str(pert), "--out", str(ppm)]) == 2
            assert f"{channels}-channel" in capsys.readouterr().err
            assert not ppm.exists()

    def test_numeric_failure_keeps_finished_iterations(self, tmp_path, capsys, monkeypatch):
        craft, calls = A.craft, []

        def failing_second_call(*args):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("overflow in the attack")
            return craft(*args)

        monkeypatch.setattr(A, "craft", failing_second_call)
        assert main(["train-fp", *desk_args(tmp_path, **{"outer-iterations": 3})]) == 4
        run = tmp_path / "run"
        assert (run / "checkpoint_0001.ckpt").exists() and (run / "perturbation_0001.pert").exists()
        assert not list(run.glob("*_0002.*"))
        metrics = (run / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "iter,split,clean_acc,adv_acc,attack,seconds"
        assert [line.split(",")[:2] for line in metrics[1:]] == [["1", "train"]]

    # parameters that overflow within a step or two; the last case crafts no attack, so only scoring reads the
    # overflowed classifier
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,extra,message", [
        pytest.param("train-sgd", {}, "loss is not finite", id="sgd"),
        pytest.param("train-at", {}, "loss is not finite", id="at"),
        pytest.param("train-fp", {"fp-mode": "approximate", "attack-kind": "universal"}, "loss is not finite",
                     id="fp-approximate-universal"),
        pytest.param("train-fp", {"fp-mode": "exact", "attack-kind": "patch"}, "loss is not finite",
                     id="fp-exact-patch"),
        pytest.param("train-fp", {"outer-iterations": 1, "inner-steps": 1, "attack-iterations": 0},
                     "class probabilities are not finite", id="fp-scoring-only"),
        pytest.param("train-sgd", {"inner-steps": 1, "eval-attack-iterations": 0},
                     "outer iteration 1: class probabilities are not finite", id="sgd-scoring-names-its-iteration"),
    ])
    def test_overflowing_learning_rate_is_4_before_any_artifact(self, tmp_path, capsys, command, extra, message):
        assert main([command, *desk_args(tmp_path, **{"learning-rate": "1e200", **extra})]) == 4
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["config.txt"]

    def test_console_script_runs(self, tmp_path):
        src = str(Path(advgame.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "advgame.cli", "matrix-demo", "--game", "pennies", "--iters", "100"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "row strategy" in proc.stdout

    @pytest.mark.parametrize("extra", [
        ["--outer-iterations", "0"],
        ["--batch-size", "0"],
        ["--momentum", "1.5"],
        ["--weighting", "foo"],
        ["--attack-alpha", "-1"],
        ["--patch-chi", "2", "--attack-kind", "patch"],
        ["--fp-mode", "foo"],
        ["--eval-attack-iterations", "-1"],
        ["--classes", "1"],
        ["--image-side", "4"],
        ["--per-class", "1"],
        ["--eval-sample-size", "0"],
        ["--model", "paper-vgg"],
        ["--data", "cifar10", "--data-path", "unread.bin", "--image-side", "32"],
        ["--attack-kind", "patch", "--patch-target-class", "12", "--patch-lambda", "0.5"],
        ["--per-class", "2", "--batch-size", "64"],
        ["--learning-rate", "nan"],
        ["--weight-decay", "inf"],
        ["--epsilon-pixels", "nan"],
        ["--attack-alpha", "inf"],
        ["--lr-decay", "-1", "--lr-milestones", "1"],
        ["--attack-kind", "patch", "--patch-theta-max-deg", "-5"],
        ["--pgd-step-size", "nan"],
        ["--config", "learning_rate = inf"],
        ["--seed", "-1"],
        ["--weight-decay", "-1"],
        ["--attack-kind", "patch", "--patch-target-class", "-5"],
        ["--pgd-step-size", "0"],
        ["--pgd-step-size", "-3"],
        ["--profile", "foo"],
        ["--data", "foo"],
        ["--model", "foo"],
        ["--precision", "float16"],
        ["--attack-kind", "foo"],
        ["--csv-timing", "foo"],
    ], ids=" ".join)
    def test_out_of_range_value_is_2_before_any_write(self, tmp_path, capsys, extra):
        if extra[0] == "--config":  # the case's text is the config file's
            (path := tmp_path / "case.cfg").write_text(extra[1] + "\n")
            extra = ["--config", str(path)]
        assert main(["train-fp", *desk_args(tmp_path), *extra]) == 2
        assert not (tmp_path / "run" / "config.txt").exists()

    @pytest.mark.parametrize("command", ["train-fp", "train-sgd", "train-at"])
    @pytest.mark.parametrize("extra,message", [
        (["--model", "paper-vgg", "--image-side", "32", "--batch-size", "1"], "batch_size must be >= 2"),
        (["--lr-milestones=-5,10"], "lr milestones"),
        (["--config", "lr_milestones = -5,10"], "lr milestones"),
    ], ids=["batchnorm-batch-1", "milestone-flag", "milestone-file"])
    def test_untrainable_config_is_2_before_any_write(self, tmp_path, capsys, command, extra, message):
        if extra[0] == "--config":  # the case's text is the config file's
            (path := tmp_path / "case.cfg").write_text(extra[1] + "\n")
            extra = ["--config", str(path)]
        assert main([command, *desk_args(tmp_path), *extra]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "config.txt").exists()

    def test_patch_game_trains_without_a_max_norm_budget(self, tmp_path):
        assert main(["train-fp", *desk_args(tmp_path, **{"attack-kind": "patch", "epsilon-pixels": 0})]) == 0
        assert len(list((tmp_path / "run").glob("perturbation_*.pert"))) == 2

    @pytest.mark.parametrize("kind,message", [("universal", "invalid universal attack config"),
                                              ("patch", "invalid pgd config")])
    def test_at_without_a_budget_is_2_before_any_write(self, tmp_path, capsys, kind, message):
        assert main(["train-at", *desk_args(tmp_path, **{"attack-kind": kind, "epsilon-pixels": 0})]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["attack", "--checkpoint", "unread.ckpt"], ["eval"]], ids=lambda c: c[0])
    def test_negative_seed_is_2_before_any_write(self, tmp_path, capsys, command):
        assert main([command[0], *desk_args(tmp_path), "--seed", "-1", *command[1:]]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_cifar_set_smaller_than_batch_is_2_before_any_write(self, tmp_path, capsys):
        path = tmp_path / "data_batch.bin"
        path.write_bytes(b"".join(bytes([i % 10]) + bytes(3072) for i in range(40)))
        args = desk_args(tmp_path, **{"image-side": 32, "classes": 10, "data": "cifar10", "data-path": str(path),
                                      "batch-size": 64})
        assert main(["train-sgd", *args]) == 2
        assert "batch_size 64 exceeds the 40 training images" in capsys.readouterr().err
        assert not (tmp_path / "run" / "config.txt").exists()

    # a 3-class checkpoint of the given side against 8 px data of the given class count
    OTHER_SHAPES = pytest.mark.parametrize("side,classes,named", [
        (16, 3, ["(3, 16, 16)", "(3, 8, 8)"]),
        (8, 10, ["of 3 classes", "of 10 classes"]),
    ], ids=["side", "classes"])

    def _checkpoint_of_side(self, directory, side):
        directory.mkdir()
        path = directory / "checkpoint_0001.ckpt"
        mc = M.tiny_config(side=side, num_classes=3)
        M.save_checkpoint(path, mc, M.build_model(mc, 0))
        return path

    @OTHER_SHAPES
    def test_attack_on_checkpoint_of_other_shape_is_2(self, tmp_path, capsys, side, classes, named):
        ckpt = self._checkpoint_of_side(tmp_path / "ckpts", side)
        assert main(["attack", *desk_args(tmp_path, classes=classes), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in named)
        assert not list((tmp_path / "run").glob("*.pert"))

    @OTHER_SHAPES
    def test_eval_on_checkpoint_of_other_shape_is_2(self, tmp_path, capsys, side, classes, named):
        self._checkpoint_of_side(tmp_path / "ckpts", side)
        assert main(["eval", *desk_args(tmp_path, classes=classes), "--checkpoint-dir", str(tmp_path / "ckpts")]) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in named)
        assert not (tmp_path / "run" / "eval.csv").exists()


class TestCorruptArtifacts:
    def test_truncated_checkpoint_is_3(self, tmp_path, capsys):
        mc = M.ModelConfig("tiny", (1, 2, 2), 2, (M.ConvSpec(1),))
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        M.save_checkpoint(good, mc, M.build_model(mc, 0))
        blob = good.read_bytes()
        args = ["attack", "--output-dir", str(tmp_path / "run"), "--checkpoint", str(bad)]
        for cut in range(len(blob)):
            bad.write_bytes(blob[:cut])
            assert main(args) == 3, f"prefix of {cut} bytes"

    def test_truncated_or_padded_perturbation_is_3(self, tmp_path, capsys):
        good, bad = tmp_path / "good.pert", tmp_path / "bad.pert"
        args = ["export-ppm", "--in", str(bad), "--out", str(tmp_path / "out.ppm")]
        for spec in (D.PerturbationSpec("universal", np.zeros((1, 2, 2)), epsilon=0.1), D.gray_patch(1, 4, 0.5, 0.0)):
            A.save_perturbation(good, spec)
            blob = good.read_bytes()
            for broken in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
                bad.write_bytes(broken)
                assert main(args) == 3, f"{len(broken)} of {len(blob)} bytes"
        assert not (tmp_path / "out.ppm").exists()

    # each NaN is written in the payload's own dtype: v1 stores f32, v2 stores f64
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"], ids=["v1", "v2"])
    @pytest.mark.parametrize("command", ["attack", "eval"])
    def test_non_finite_checkpoint_value_is_3(self, tmp_path, capsys, command, dtype):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        path = ckpts / "checkpoint_0001.ckpt"
        mc = M.tiny_config(side=8, num_classes=3)
        params = {name: T.Tensor(p.data.astype(dtype), p.requires_grad) for name, p in M.build_model(mc, 0).items()}
        M.save_checkpoint(path, mc, params)
        nan = np.array(np.nan, dtype).tobytes()
        path.write_bytes(path.read_bytes()[:-len(nan)] + nan)
        where = ["--checkpoint", str(path)] if command == "attack" else ["--checkpoint-dir", str(ckpts)]
        assert main([command, *desk_args(tmp_path), *where]) == 3
        assert "non-finite" in capsys.readouterr().err

    # the universal epsilon is the f64 at offset 9, the patch theta_max the one at 21; a value is a payload
    # value in the payload's own dtype
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"], ids=["v1", "v2"])
    @pytest.mark.parametrize("kind,at,value", [
        ("universal", None, np.nan),
        ("universal", 9, struct.pack("<d", np.nan)),
        ("universal", 9, struct.pack("<d", np.inf)),
        ("patch", None, np.nan),
        ("patch", 21, struct.pack("<d", np.inf)),
    ], ids=["nan-value", "nan-epsilon", "inf-epsilon", "nan-patch-value", "inf-theta-max"])
    def test_non_finite_perturbation_is_3_without_ppm(self, tmp_path, capsys, kind, at, value, dtype):
        path, ppm = tmp_path / "x.pert", tmp_path / "out.ppm"
        spec = D.PerturbationSpec("universal", np.zeros((3, 2, 2), dtype), epsilon=0.1) if kind == "universal" \
            else D.PerturbationSpec("patch", np.full((3, 4, 4), 0.5, dtype), chi=0.5, theta_max=0.0)
        A.save_perturbation(path, spec)
        blob = path.read_bytes()
        if at is None:
            value = np.array(value, dtype).tobytes()
            at = len(blob) - len(value)
        path.write_bytes(blob[:at] + value + blob[at + len(value):])
        assert main(["export-ppm", "--in", str(path), "--out", str(ppm)]) == 3
        assert not ppm.exists()

    @pytest.mark.parametrize("command", ["attack", "export-ppm"])
    def test_unknown_artifact_version_is_3(self, tmp_path, capsys, command):
        path = tmp_path / "x"
        if command == "attack":
            mc = M.tiny_config(side=8, num_classes=3)
            M.save_checkpoint(path, mc, M.build_model(mc, 0))
            args = ["attack", *desk_args(tmp_path), "--checkpoint", str(path)]
        else:
            A.save_perturbation(path, D.gray_patch(3, 4, 0.5, 0.0))
            args = ["export-ppm", "--in", str(path), "--out", str(tmp_path / "out.ppm")]
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 3) + blob[8:])
        assert main(args) == 3
        assert "unsupported version 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "out.ppm").exists()

    @pytest.mark.parametrize("old,new", [(b"[16, 3, 2]", b"[17, 3, 2]"), (b"fc.bias", b"fc.biaz")],
                             ids=["conv-width", "tensor-name"])
    def test_checkpoint_disagreeing_with_its_config_is_3_before_any_write(self, tmp_path, capsys, old, new):
        path = tmp_path / "checkpoint_0001.ckpt"
        mc = M.tiny_config(side=8, num_classes=3)
        M.save_checkpoint(path, mc, M.build_model(mc, 0))
        path.write_bytes(path.read_bytes().replace(old, new))
        assert main(["attack", *desk_args(tmp_path), "--checkpoint", str(path)]) == 3
        assert "where the config has" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["train-sgd"], ["train-fp"], ["train-at"], ["attack", "--checkpoint", "c"],
                                         ["eval", "--checkpoint-dir", "ckpts"]], ids=lambda c: c[0])
    def test_empty_cifar_file_is_3_before_any_write(self, tmp_path, capsys, command):
        path = tmp_path / "data_batch.bin"
        path.write_bytes(b"")
        mc = M.tiny_config(side=32, num_classes=10)
        (tmp_path / "ckpts").mkdir()
        M.save_checkpoint(tmp_path / "c", mc, M.build_model(mc, 0))
        M.save_checkpoint(tmp_path / "ckpts" / "checkpoint_0001.ckpt", mc, M.build_model(mc, 0))
        args = desk_args(tmp_path, **{"image-side": 32, "classes": 10, "data": "cifar10", "data-path": str(path)})
        where = [str(tmp_path / a) if a in ("c", "ckpts") else a for a in command[1:]]
        assert main([command[0], *args, *where]) == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "empty file" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["train-sgd"], ["attack", "--checkpoint", "c"],
                                         ["eval", "--checkpoint-dir", "ckpts"]], ids=lambda c: c[0])
    def test_cifar_directory_of_5000_records_or_fewer_is_2_before_any_write(self, tmp_path, capsys, command):
        data = tmp_path / "cifar"
        data.mkdir()
        (data / "data_batch_1.bin").write_bytes(b"".join(bytes([i % 10]) + bytes(3072) for i in range(40)))
        mc = M.tiny_config(side=32, num_classes=10)
        (tmp_path / "ckpts").mkdir()
        M.save_checkpoint(tmp_path / "c", mc, M.build_model(mc, 0))
        M.save_checkpoint(tmp_path / "ckpts" / "checkpoint_0001.ckpt", mc, M.build_model(mc, 0))
        args = desk_args(tmp_path, **{"image-side": 32, "classes": 10, "data": "cifar10", "data-path": str(data)})
        where = [str(tmp_path / a) if a in ("c", "ckpts") else a for a in command[1:]]
        assert main([command[0], *args, *where]) == 2
        err = capsys.readouterr().err
        assert f"{data} holds 40 training records" in err and "5000" in err
        assert not (tmp_path / "run").exists()
        assert sorted(p.name for p in data.iterdir()) == ["data_batch_1.bin"]

    @pytest.mark.parametrize("blob", [bytes(5), bytes([10]) + bytes(3072)], ids=["truncated", "label-10"])
    def test_corrupt_cifar_file_is_3(self, tmp_path, capsys, blob):
        path = tmp_path / "data_batch.bin"
        path.write_bytes(blob)
        args = desk_args(tmp_path, **{"image-side": 32, "classes": 10, "data": "cifar10", "data-path": str(path)})
        assert main(["train-sgd", *args]) == 3
        assert "i/o error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def valid_artifacts(tmp_path_factory):
    """A small checkpoint that fits ``desk_args``' data, and a universal and a patch ``.pert``."""
    root = tmp_path_factory.mktemp("valid")
    mc = M.ModelConfig("tiny", (3, 8, 8), 3, (M.ConvSpec(2, 3, 4),), batchnorm=True)
    M.save_checkpoint(root / "model.ckpt", mc, M.build_model(mc, 0))
    xi = np.random.default_rng(0).uniform(-0.1, 0.1, (3, 4, 4))
    A.save_perturbation(root / "universal.pert", D.PerturbationSpec("universal", xi, epsilon=0.1))
    A.save_perturbation(root / "patch.pert", D.gray_patch(3, 4, 0.4, 0.3))
    return root


class TestArtifactFuzz:
    @pytest.mark.parametrize("name", ["model.ckpt", "universal.pert", "patch.pert"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_overwritten_byte_gets_an_exit_code(self, valid_artifacts, name, data):
        blob = (valid_artifacts / name).read_bytes()
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        value = data.draw(st.integers(0, 255), label="byte")
        with tempfile.TemporaryDirectory() as tmp:
            broken, ppm = Path(tmp) / name, Path(tmp) / "out.ppm"
            broken.write_bytes(blob[:at] + bytes([value]) + blob[at + 1:])
            if name.endswith(".ckpt"):
                code = main(["attack", *desk_args(Path(tmp), **{"attack-iterations": 1}), "--checkpoint", str(broken)])
            else:
                code = main(["export-ppm", "--in", str(broken), "--out", str(ppm)])
                assert ppm.exists() == (code == 0)
            assert code in (0, 2, 3, 4)

    @settings(max_examples=30, deadline=None)
    @given(record=st.integers(0, 39), position=st.integers(0, 3072), value=st.integers(0, 255))
    @example(record=0, position=0, value=200)  # a label byte past the last class
    def test_one_overwritten_cifar_byte_is_0_or_3(self, record, position, value):
        blob = bytearray((np.arange(40 * 3073) % 251).astype(np.uint8).tobytes())
        blob[::3073] = bytes(i % 10 for i in range(40))  # the label bytes
        blob[record * 3073 + position] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data_batch.bin"
            path.write_bytes(blob)
            args = desk_args(Path(tmp), **{"image-side": 32, "classes": 10, "data": "cifar10", "data-path": str(path),
                                            "outer-iterations": 1, "inner-steps": 1, "eval-attack-iterations": 1,
                                            "eval-sample-size": 8})
            code = main(["train-sgd", *args])
            assert code in (0, 3)
            assert (Path(tmp) / "run").exists() == (code == 0)
