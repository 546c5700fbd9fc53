"""Loaders, splitting, batching and synthetic generators."""

import gzip
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamqlr import (
    AdamHyper,
    AdamState,
    Batch,
    BatchPlan,
    CurvatureKind,
    LossKind,
    MlpSpec,
    SplitSpec,
    Task,
    adam_direction,
    curvature_vp,
    eval_grad,
    eval_loss,
    mlp_init,
    mlp_objective,
)
from adamqlr.data import (
    DataFormatError,
    batch_iter,
    keyed_rng,
    load_csv,
    load_idx,
    split_dataset,
    standardize_splits,
    synthesize,
)
from adamqlr.models import accuracy
from adamqlr.optim import empirical_fisher_diag

from helpers import least_squares_mse


def write_idx(tmp_path, images, labels, image_magic=0x803, label_magic=0x801, gz=False):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, r, c = images.shape
    img_path = tmp_path / ("img.idx.gz" if gz else "img.idx")
    lbl_path = tmp_path / ("lbl.idx.gz" if gz else "lbl.idx")
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, r, c))
        fh.write(images.tobytes())
    with opener(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, len(labels)))
        fh.write(labels.tobytes())
    return img_path, lbl_path


class TestLoadCsv:
    def test_basic_shapes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, n_features=2)
        assert ds.inputs.shape == (3, 2)
        assert ds.targets.shape == (3, 1)
        np.testing.assert_array_equal(ds.inputs[0], [1.0, 2.0])

    def test_header_skipped(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1,2,3\n4,5,6\n")
        b.write_text("a,b,c\n1,2,3\n4,5,6\n")
        np.testing.assert_array_equal(load_csv(a, 2).inputs, load_csv(b, 2).inputs)

    def test_energy_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(692, 9))
        p = tmp_path / "energy.csv"
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows))
        ds = load_csv(p, n_features=8, target_columns=1)
        assert ds.inputs.shape == (692, 8)
        assert ds.targets.shape == (692, 1)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(p, 2)

    def test_wrong_column_count_reports_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(p, 2)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_rejects_non_finite(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"1,2,3\n4,{cell},6\n")
        with pytest.raises(DataFormatError, match=":2: non-finite"):
            load_csv(p, 2)


class TestLoadIdx:
    def test_scaling_and_flattening(self, tmp_path):
        imgs = np.array([[[0, 255], [128, 64]], [[255, 0], [0, 255]]])
        img, lbl = write_idx(tmp_path, imgs, [3, 7])
        ds = load_idx(img, lbl)
        assert ds.inputs.shape == (2, 4)
        np.testing.assert_allclose(ds.inputs[0], [0.0, 1.0, 128 / 255, 64 / 255])
        np.testing.assert_array_equal(ds.targets, [3, 7])
        assert ds.task is Task.CLASSIFICATION

    def test_gzipped_pair(self, tmp_path):
        imgs = np.zeros((3, 2, 2))
        img, lbl = write_idx(tmp_path, imgs, [0, 1, 2], gz=True)
        assert len(load_idx(img, lbl)) == 3

    def test_count_mismatch(self, tmp_path):
        img, lbl = write_idx(tmp_path, np.zeros((2, 2, 2)), [0, 1, 2])
        with pytest.raises(DataFormatError, match="mismatch"):
            load_idx(img, lbl)

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x123)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("which, keep", [("images", 0), ("images", 10), ("labels", 7)])
    def test_truncated_header_names_the_file(self, tmp_path, which, keep):
        img, lbl = write_idx(tmp_path, np.zeros((1, 2, 2)), [0])
        path = img if which == "images" else lbl
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: truncated header")):
            load_idx(img, lbl)


class TestSplit:
    def _ds(self, n=10):
        return Batch(np.arange(n, dtype=float)[:, None], np.zeros(n))

    def test_sizes_with_remainder_to_train(self):
        train, val, test = split_dataset(self._ds(10), SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_deterministic(self):
        a = split_dataset(self._ds(20), SplitSpec(seed=5))
        b = split_dataset(self._ds(20), SplitSpec(seed=5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.inputs, y.inputs)

    def test_empty_split_with_nonzero_fraction_errors(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset(self._ds(5), SplitSpec(0.8, 0.1, 0.1, seed=0))

    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(0.8, 0.1, 0.2)

    @given(st.integers(0, 10_000))
    def test_partition_property(self, seed):
        ds = self._ds(23)
        train, val, test = split_dataset(ds, SplitSpec(0.6, 0.2, 0.2, seed=seed))
        seen = np.concatenate([s.inputs[:, 0] for s in (train, val, test)])
        assert sorted(seen.tolist()) == sorted(ds.inputs[:, 0].tolist())


class TestBatchIter:
    def _ds(self, n=10):
        return Batch(np.arange(n, dtype=float)[:, None], np.zeros(n))

    def test_short_final_batch_kept(self):
        sizes = [len(b) for b in batch_iter(self._ds(10), BatchPlan(4), epoch=0)]
        assert sizes == [4, 4, 2]

    def test_deterministic_per_epoch(self):
        a = [b.inputs for b in batch_iter(self._ds(10), BatchPlan(3, shuffle_seed=1), 2)]
        b = [b.inputs for b in batch_iter(self._ds(10), BatchPlan(3, shuffle_seed=1), 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_reshuffle(self):
        a = np.concatenate([b.inputs for b in batch_iter(self._ds(10), BatchPlan(10, shuffle_seed=1), 0)])
        b = np.concatenate([b.inputs for b in batch_iter(self._ds(10), BatchPlan(10, shuffle_seed=1), 1)])
        assert not np.array_equal(a, b)

    def test_oversized_batch_clamped(self):
        sizes = [len(b) for b in batch_iter(self._ds(5), BatchPlan(50), 0)]
        assert sizes == [5]

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_epoch_covers_every_row_once(self, seed, batch_size):
        ds = self._ds(11)
        rows = np.concatenate(
            [b.inputs[:, 0] for b in batch_iter(ds, BatchPlan(batch_size, shuffle_seed=seed), 0)]
        )
        assert sorted(rows.tolist()) == sorted(ds.inputs[:, 0].tolist())


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(Task.REGRESSION, 20, 3, seed=4)
        b = synthesize(Task.REGRESSION, 20, 3, seed=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_noiseless_regression_fit_by_descent(self):
        ds = synthesize(Task.REGRESSION, 40, 3, seed=1, noise=0.0)
        assert least_squares_mse(ds.inputs, ds.targets) <= 1e-20  # oracle: exactly linear
        spec = MlpSpec((3, 1), LossKind.MSE)
        obj = mlp_objective(spec)
        params = mlp_init(spec, 0)
        state = AdamState.init(len(params))
        batch = Batch(ds.inputs, ds.targets)
        for _ in range(2000):
            f, g = eval_grad(obj, params, batch)
            state, d = adam_direction(state, g, AdamHyper())
            params = params.with_values(params.values - 0.05 * d.values)
        f, _ = eval_grad(obj, params, batch)
        assert f <= 1e-6

    def test_separated_blobs_linearly_classifiable(self):
        ds = synthesize(Task.CLASSIFICATION, 120, 5, seed=2, n_classes=2)
        spec = MlpSpec((5, 2), LossKind.SOFTMAX_CROSS_ENTROPY)
        obj = mlp_objective(spec)
        params = mlp_init(spec, 0)
        state = AdamState.init(len(params))
        batch = Batch(ds.inputs, ds.targets)
        for _ in range(300):
            _, g = eval_grad(obj, params, batch)
            state, d = adam_direction(state, g, AdamHyper())
            params = params.with_values(params.values - 0.05 * d.values)
        outputs = obj.predict(params.values, ds.inputs)
        assert accuracy(outputs, ds.targets) >= 0.99

    @pytest.mark.parametrize(
        "n, d, n_classes, seed",
        [(6000, 784, 10, 10), (7, 3, 4, 2), (5, 70_000, 3, 1)],
        ids=["fmnist-loader", "small", "rows-wider-than-a-block"],
    )
    def test_blobs_have_the_bits_of_the_one_shot_draw(self, n, d, n_classes, seed):
        # Every fmnist record and perfbench/reference.json rest on this stream.
        rng = keyed_rng(seed)
        centers = rng.normal(size=(n_classes, d)) * (6.0 / np.sqrt(2.0 * d))
        labels = np.arange(n, dtype=np.int64) % n_classes
        rng.shuffle(labels)
        inputs = centers[labels] + rng.normal(size=(n, d))
        ds = synthesize(Task.CLASSIFICATION, n, d, seed, n_classes=n_classes)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.targets.tobytes() == labels.tobytes()

    def test_rejects_fewer_than_one_class(self):
        with pytest.raises(ValueError, match="n_classes must be positive"):
            synthesize(Task.CLASSIFICATION, 10, 3, seed=0, n_classes=0)

    def test_balanced_classes(self):
        ds = synthesize(Task.CLASSIFICATION, 100, 4, seed=3, n_classes=4)
        counts = np.bincount(ds.targets, minlength=4)
        np.testing.assert_array_equal(counts, [25, 25, 25, 25])


class TestStandardize:
    def test_train_statistics_only(self):
        rng = np.random.default_rng(0)
        full = Batch(
            rng.normal(5.0, 3.0, size=(100, 4)),
            rng.normal(-2.0, 7.0, size=(100, 1)),
        )
        train, val, test = split_dataset(full, SplitSpec(0.6, 0.2, 0.2, seed=0))
        strain, sval, stest, stats = standardize_splits(train, val, test)
        np.testing.assert_allclose(strain.inputs.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(strain.inputs.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(strain.targets.mean(axis=0), 0.0, atol=1e-12)
        # val/test transformed with train statistics, not their own
        np.testing.assert_allclose(
            sval.inputs, (val.inputs - stats.input_mean) / stats.input_std
        )
        assert abs(sval.inputs.mean()) > 1e-6

    def test_classification_targets_untouched(self):
        ds = synthesize(Task.CLASSIFICATION, 30, 3, seed=0)
        train, val, test = split_dataset(ds, SplitSpec(0.6, 0.2, 0.2, seed=0))
        strain, _, _, stats = standardize_splits(train, val, test)
        np.testing.assert_array_equal(strain.targets, train.targets)
        assert stats.target_mean is None


class TestValidation:
    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Batch(np.array([[np.nan]]), np.array([[1.0]]))

    def test_batch_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            Batch(np.zeros((3, 2)), np.zeros((2, 1)))

    def test_batch_rejects_empty(self):
        spec = MlpSpec((2, 1), LossKind.MSE)
        obj, params = mlp_objective(spec), mlp_init(spec, 0)
        empty = Batch(np.zeros((0, 2)), np.zeros((0, 1)))
        assert len(empty) == 0
        for evaluate in (
            lambda: eval_loss(obj, params, empty),
            lambda: eval_grad(obj, params, empty),
            lambda: curvature_vp(obj, params, empty, params, CurvatureKind.GGN_FISHER),
            lambda: empirical_fisher_diag(obj, params, empty),
        ):
            with pytest.raises(ValueError, match="empty batch"):
                evaluate()


class TestTask:
    def test_integer_labels_are_classification(self):
        assert Batch(np.zeros((3, 2)), np.array([0, 1, 1])).task is Task.CLASSIFICATION
        assert Batch(np.zeros((3, 2)), np.array([0, 1, 1], dtype=np.uint8)).task is Task.CLASSIFICATION

    def test_float_targets_are_regression(self):
        assert Batch(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0])).task is Task.REGRESSION
        assert Batch(np.zeros((3, 2)), np.zeros((3, 2))).task is Task.REGRESSION

    def test_csv_of_integer_values_is_regression(self, tmp_path):
        p = tmp_path / "ints.csv"
        p.write_text("1,2,0\n3,4,1\n5,6,1\n")
        ds = load_csv(p, n_features=2)
        assert ds.task is Task.REGRESSION
        assert ds.targets.dtype == np.float64

    def test_synthesized_and_split_data_keep_the_task(self):
        blobs = synthesize(Task.CLASSIFICATION, 30, 3, seed=0)
        assert blobs.task is Task.CLASSIFICATION
        assert synthesize(Task.REGRESSION, 30, 3, seed=0).task is Task.REGRESSION
        for split in split_dataset(blobs, SplitSpec(1.0, 0.0, 0.0)):
            assert split.task is Task.CLASSIFICATION

    def test_take_selects_rows(self):
        b = Batch(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]))
        one = b.take([1])
        np.testing.assert_array_equal(one.inputs, [[2.0, 3.0]])
        np.testing.assert_array_equal(one.targets, [1])
        assert len(b.take(np.arange(0))) == 0

    @pytest.mark.parametrize("kind", ["labels", "targets"])
    def test_take_equals_fancy_indexing(self, kind):
        # take re-checks only the shape: the rows were checked when b was made.
        rng = np.random.default_rng(0)
        targets = rng.integers(0, 3, size=5) if kind == "labels" else rng.normal(size=(5, 2))
        b = Batch(rng.normal(size=(5, 3)), targets)
        idx = np.array([4, 0, 3, 3])
        sub = b.take(idx)
        np.testing.assert_array_equal(sub.inputs, b.inputs[idx])
        np.testing.assert_array_equal(sub.targets, b.targets[idx])
        assert (sub.inputs.dtype, sub.targets.dtype) == (b.inputs.dtype, b.targets.dtype)
        assert sub.task is b.task
        empty = b.take(np.arange(0))
        assert len(empty) == 0 and empty.task is b.task

    def test_take_of_a_scalar_index_is_value_error(self):
        b = Batch(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="2-D"):
            b.take(1)
