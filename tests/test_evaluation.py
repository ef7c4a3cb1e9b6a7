import numpy as np
import pytest

from advgame import attack as A
from advgame import cli
from advgame import data as D
from advgame import evaluation as E
from advgame import model as M
from advgame.attack import UniversalAttackConfig
from advgame.data import Dataset
from advgame.evaluation import (
    MetricsRow,
    accuracy,
    evaluate_checkpoint_series,
    format_rows,
    perturbed_accuracy,
    write_csv,
)
from advgame.model import ModelConfig, build_model, save_checkpoint, single_pool
from advgame.tensor import Tensor


def linear_config(classes=4):
    # no conv layers: the flattened 2x2 image feeds the dense head directly
    return ModelConfig("lin", (1, 2, 2), classes, (), batchnorm=False)


def onehot_dataset(classes=4, copies=3):
    eye = np.eye(classes).reshape(classes, 1, 2, 2)
    images = np.tile(eye, (copies, 1, 1, 1))
    labels = np.tile(np.arange(classes), copies)
    return Dataset(images, labels, classes)


def perfect_classifier(classes=4):
    cfg = linear_config(classes)
    params = build_model(cfg, 0)
    params["fc.weight"].data[...] = 10.0 * np.eye(classes)
    params["fc.bias"].data[...] = 0.0
    return cfg, params


def constant_classifier(classes=4):
    cfg = linear_config(classes)
    params = build_model(cfg, 0)
    params["fc.weight"].data[...] = 0.0
    params["fc.bias"].data[...] = 0.0
    return cfg, params


class TestAccuracy:
    def test_perfect_classifier_scores_one(self):
        cfg, params = perfect_classifier()
        assert accuracy(single_pool(cfg, params), onehot_dataset()) == 1.0

    def test_constant_classifier_scores_one_over_k(self):
        cfg, params = constant_classifier()
        ds = onehot_dataset(classes=4, copies=5)
        assert accuracy(single_pool(cfg, params), ds) == 0.25

    def test_random_model_near_chance(self):
        ds = D.make_synthetic(10, 30, 8, seed=0)
        mc = M.tiny_config(side=8, num_classes=10)
        accs = [accuracy(single_pool(mc, build_model(mc, s)), ds) for s in (1, 2, 3)]
        assert abs(np.mean(accs) - 0.1) < 0.05

    def test_sample_size_subsets(self):
        cfg, params = perfect_classifier()
        ds = onehot_dataset(copies=10)
        assert accuracy(single_pool(cfg, params), ds, sample_size=8, subset_seed=0) == 1.0

    @pytest.mark.parametrize("sampled", [False, True], ids=["defaults", "sample-8"])
    def test_equals_clean_view_score(self, sampled):
        ds = D.make_synthetic(4, 10, 8, seed=4)
        mc = M.tiny_config(side=8, num_classes=4)
        pool = single_pool(mc, build_model(mc, 7))

        def subset():
            return {"sample_size": 8, "subset_seed": 3} if sampled else {}

        clean = accuracy(pool, ds, **subset())
        assert clean == perturbed_accuracy(pool, ds, None, **subset())
        assert 0.0 < clean < 1.0

    def test_empty_dataset_rejected(self):
        cfg, params = perfect_classifier()
        empty = Dataset(np.zeros((0, 1, 2, 2)), np.zeros(0), 4)
        with pytest.raises(ValueError):
            accuracy(single_pool(cfg, params), empty)


class TestAdvAccuracy:
    def test_zero_iteration_attack_equals_clean(self):
        ds = D.make_synthetic(4, 10, 8, seed=1)
        mc = M.tiny_config(side=8, num_classes=4)
        pool = single_pool(mc, build_model(mc, 5))
        clean = accuracy(pool, ds)
        spec = A.craft(pool, ds, UniversalAttackConfig(0.1, 0.01, 0), np.random.default_rng(0))
        adv = perturbed_accuracy(pool, ds, spec)
        assert adv == clean
        assert np.all(spec.xi == 0.0)

    def test_fresh_spec_differs_from_pooled(self):
        ds = D.make_synthetic(4, 10, 8, seed=2)
        mc = M.tiny_config(side=8, num_classes=4)
        pool = single_pool(mc, build_model(mc, 6))
        cfg = UniversalAttackConfig(16 / 255, 0.01, 5, batch_size=8)
        pooled = A.craft(pool, ds, cfg, np.random.default_rng(1))
        fresh = A.craft(pool, ds, cfg, np.random.default_rng(2))
        assert not np.array_equal(pooled.xi, fresh.xi)

    def test_target_class_rate_for_constant_model(self):
        cfg, params = constant_classifier()
        ds = onehot_dataset()
        spec = D.PerturbationSpec("universal", np.zeros(ds.image_shape), epsilon=0.1)
        assert perturbed_accuracy(single_pool(cfg, params), ds, spec, target=0) == 1.0
        assert perturbed_accuracy(single_pool(cfg, params), ds, spec, target=1) == 0.0

    def test_patch_target_scores_the_forced_class(self):
        # a full-image, unrotated patch of the one-hot image of class 2 turns every sample into it
        cfg, params = perfect_classifier()
        pool, ds = single_pool(cfg, params), onehot_dataset(copies=5)
        spec = D.PerturbationSpec("patch", np.eye(4)[2].reshape(1, 2, 2), chi=1.0, theta_max=0.0)
        assert perturbed_accuracy(pool, ds, spec, target=2) == 1.0
        assert perturbed_accuracy(pool, ds, spec, target=0) == 0.0
        assert perturbed_accuracy(pool, ds, spec) == 0.25
        assert perturbed_accuracy(pool, ds, spec, 8, 1, placement_seed=3, target=2) == 1.0

    @pytest.mark.parametrize("kind", ["clean", "patch"])
    def test_subset_seed_names_the_subset(self, kind, monkeypatch):
        ds = D.make_synthetic(4, 10, 8, seed=4)
        mc = M.tiny_config(side=8, num_classes=4)
        pool = single_pool(mc, build_model(mc, 7))
        spec = None if kind == "clean" else D.gray_patch(3, 8, 0.5, 0.3)
        k, seed = 12, (5, 3, 2)
        expected = np.random.default_rng(seed).choice(len(ds), k, replace=False)
        want = np.mean(M.pool_predict(pool, D.PerturbedView(ds, spec, seed=4).materialize(expected))
                       == ds.labels[expected])
        seen = []
        materialize = D.PerturbedView.materialize

        def recorded(view, indices, draw=0):
            seen.append(np.asarray(indices).copy())
            return materialize(view, indices, draw)

        monkeypatch.setattr(D.PerturbedView, "materialize", recorded)
        assert perturbed_accuracy(pool, ds, spec, k, seed, placement_seed=4) == want
        assert len(seen) == 1 and np.array_equal(seen[0], expected)


class TestCsv:
    def test_format(self):
        rows = [MetricsRow(1, "train", 0.5, 0.25, D.PerturbationSpec("universal", np.zeros((1, 2, 2)), epsilon=0.1),
                           1.23456789)]
        text = format_rows(rows, timing="zero")
        assert text == "iter,split,clean_acc,adv_acc,attack,seconds\n1,train,0.500000,0.250000,universal,0.000000\n"

    def test_real_timing_mode(self):
        rows = [MetricsRow(1, "test", 1.0, 1.0, D.gray_patch(1, 4, 0.5, 0.0), 2.0)]
        assert "2.000000" in format_rows(rows, timing="real")

    def test_an_unknown_timing_raises_naming_each_timing_the_cli_offers(self):
        rows = [MetricsRow(1, "test", 1.0, 1.0, D.gray_patch(1, 4, 0.5, 0.0), 2.0)]
        with pytest.raises(ValueError) as err:
            format_rows(rows, timing="wall")
        assert cli.CHOICES["csv_timing"] is E.CSV_TIMINGS == ("zero", "real")
        assert all(timing in str(err.value) for timing in E.CSV_TIMINGS)

    def test_accuracy_range_validated(self):
        with pytest.raises(ValueError):
            MetricsRow(0, "train", 1.5, 0.0, D.gray_patch(1, 4, 0.5, 0.0), 0.0)

    def test_write_lf_endings(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, [MetricsRow(1, "train", 1.0, 0.0, D.gray_patch(1, 4, 0.5, 0.0), 0.0)])
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


    def test_a_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = [MetricsRow(1, "train", 1.0, 0.0, D.gray_patch(1, 4, 0.5, 0.0), 0.0)]
        write_csv(path, rows)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_csv(path, rows * 2, timing="bogus")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
        write_csv(path, rows * 2)
        assert path.read_bytes() == format_rows(rows * 2).encode()

class TestCheckpointSeries:
    def _write_checkpoints(self, tmp_path, count=2):
        mc = M.tiny_config(side=8, num_classes=4)
        for i in range(1, count + 1):
            save_checkpoint(tmp_path / f"checkpoint_{i:04d}.ckpt", mc, build_model(mc, i))
        return mc

    def _splits(self):
        return {
            "train": D.make_synthetic(4, 10, 8, seed=3),
            "valid": D.make_synthetic(4, 4, 8, seed=4),
            "test": D.make_synthetic(4, 6, 8, seed=5),
        }

    def test_single_checkpoint_three_rows(self, tmp_path):
        self._write_checkpoints(tmp_path, count=1)
        rows = evaluate_checkpoint_series(tmp_path, self._splits(),
                                          UniversalAttackConfig(0.05, 0.01, 2, batch_size=8), seed=0)
        assert len(rows) == 3
        assert [r.split for r in rows] == ["train", "valid", "test"]

    def test_rows_ordered_by_iteration_then_split(self, tmp_path):
        self._write_checkpoints(tmp_path, count=3)
        rows = evaluate_checkpoint_series(tmp_path, self._splits(),
                                          UniversalAttackConfig(0.05, 0.01, 1, batch_size=8), seed=0)
        assert [(r.iteration, r.split) for r in rows] == [
            (i, s) for i in (1, 2, 3) for s in ("train", "valid", "test")
        ]

    def test_rows_follow_the_iteration_number_past_9999(self, tmp_path):
        mc = M.tiny_config(side=8, num_classes=4)
        for i in (10000, 9999):
            save_checkpoint(tmp_path / f"checkpoint_{i:04d}.ckpt", mc, build_model(mc, i))
        rows = evaluate_checkpoint_series(tmp_path, self._splits(),
                                          UniversalAttackConfig(0.05, 0.01, 1, batch_size=8), seed=0)
        assert [(r.iteration, r.split) for r in rows] == [
            (i, s) for i in (9999, 10000) for s in ("train", "valid", "test")
        ]

    def test_rerun_identical_csv_bytes(self, tmp_path):
        self._write_checkpoints(tmp_path, count=2)
        cfg = UniversalAttackConfig(0.05, 0.01, 2, batch_size=8)
        a = format_rows(evaluate_checkpoint_series(tmp_path, self._splits(), cfg, seed=7))
        b = format_rows(evaluate_checkpoint_series(tmp_path, self._splits(), cfg, seed=7))
        assert a == b

    def test_clean_and_adv_score_one_subset(self, tmp_path):
        # untrained checkpoints under a zero perturbation score the same on the same images
        self._write_checkpoints(tmp_path, count=3)
        rows = evaluate_checkpoint_series(tmp_path, self._splits(), UniversalAttackConfig(0.05, 0.01, 0), seed=0,
                                          sample_size=5)
        assert len(rows) == 9 and all(not np.any(r.spec.xi) for r in rows)
        assert [r.adv_acc for r in rows] == [r.clean_acc for r in rows]

    def test_two_names_of_one_iteration_raise_before_any_load(self, tmp_path, monkeypatch):
        mc = self._write_checkpoints(tmp_path, count=2)
        save_checkpoint(tmp_path / "checkpoint_1.ckpt", mc, build_model(mc, 1))
        loaded = []
        monkeypatch.setattr(E, "load_checkpoint", loaded.append)
        with pytest.raises(M.CorruptFileError, match=r"checkpoint_0001\.ckpt and .*checkpoint_1\.ckpt"):
            evaluate_checkpoint_series(tmp_path, self._splits(), UniversalAttackConfig(0.05, 0.01, 1), seed=0)
        assert loaded == []

    def test_missing_checkpoints_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            evaluate_checkpoint_series(tmp_path, self._splits(), UniversalAttackConfig(0.05, 0.01, 1), seed=0)
