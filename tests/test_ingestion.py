import numpy as np
import pytest

from hdqda.errors import CsvFormatError, InsufficientSamplesError
from hdqda.ingestion import LabeledDataset, load_csv, make_imbalanced_split


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


HEADED = "f1,f2,label\n1,2.0,0\n2,4.0,1\n1,6.0,0\n2,8.0,1\n" \
         "1,10.0,0\n2,12.0,1\n1,14.0,0\n2,16.0,1\n"


def test_load_csv_with_header_by_name(tmp_path):
    ds = load_csv(_write(tmp_path, HEADED), "label")
    assert ds.X.shape == (8, 2)
    assert ds.feature_names == ("f1", "f2")
    np.testing.assert_array_equal(ds.y, [0, 1, 0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(ds.X[0], [1.0, 2.0])


def test_load_csv_with_header_by_index(tmp_path):
    ds = load_csv(_write(tmp_path, HEADED), 0)
    assert ds.feature_names == ("f2", "label")
    np.testing.assert_array_equal(ds.y, [1, 2, 1, 2, 1, 2, 1, 2])


def test_load_csv_headerless_sniffing_and_forced_header(tmp_path):
    bare = "1.0,0\n2.0,1\n3.0,0\n4.0,1\n5.0,0\n6.0,1\n7.0,0\n8.0,1\n"
    ds = load_csv(_write(tmp_path, bare), 1)
    assert ds.feature_names is None
    assert ds.X.shape == (8, 1)
    with pytest.raises(CsvFormatError, match="requires a header"):
        load_csv(_write(tmp_path, bare, "b.csv"), "label")
    # A numeric first row can still be forced into header duty.
    with pytest.raises(CsvFormatError):
        load_csv(_write(tmp_path, "1,2\n", "c.csv"), 1, header=True)


def test_load_csv_strict_cell_errors_carry_positions(tmp_path):
    with pytest.raises(CsvFormatError, match="line 3, column 1"):
        load_csv(_write(tmp_path, "f,label\n1,0\nx,1\n"), "label")
    with pytest.raises(CsvFormatError, match="missing value"):
        load_csv(_write(tmp_path, "f,label\n1,0\n,1\n", "m.csv"), "label")
    for cell in ("nan", "inf", "-Infinity"):
        with pytest.raises(CsvFormatError, match="line 3, column 1.*not finite"):
            load_csv(_write(tmp_path, "f,label\n1,0\n%s,1\n" % cell, "f.csv"), "label")
    with pytest.raises(CsvFormatError, match="not an integer"):
        load_csv(_write(tmp_path, "f,label\n1,0.5\n", "h.csv"), "label")
    with pytest.raises(CsvFormatError, match="fields, expected"):
        load_csv(_write(tmp_path, "f,label\n1,0,9\n", "w.csv"), "label")
    with pytest.raises(CsvFormatError, match="not in header"):
        load_csv(_write(tmp_path, HEADED, "n.csv"), "target")
    with pytest.raises(CsvFormatError, match="out of range"):
        load_csv(_write(tmp_path, HEADED, "o.csv"), 7)


def test_load_csv_requires_four_rows_per_label(tmp_path):
    text = "f,label\n1,0\n2,0\n3,0\n4,0\n5,1\n"
    with pytest.raises(InsufficientSamplesError):
        load_csv(_write(tmp_path, text), "label")


def test_standardize_uses_population_moments(tmp_path):
    ds = load_csv(_write(tmp_path, HEADED), "label", standardize=True)
    np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.X.std(axis=0), 1.0, atol=1e-12)
    raw = load_csv(_write(tmp_path, HEADED, "r.csv"), "label")
    assert raw.X.std(axis=0)[0] != pytest.approx(1.0)


def test_standardize_rejects_constant_columns(tmp_path):
    text = "f1,f2,label\n" + "".join(
        "5.0,%d.0,%d\n" % (k, k % 2) for k in range(8)
    )
    with pytest.raises(CsvFormatError, match="constant"):
        load_csv(_write(tmp_path, text), "label", standardize=True)


def _blob_dataset(n_per_class=40, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.standard_normal((n_per_class, p)), 2.0 + rng.standard_normal((n_per_class, p))]
    )
    y = np.repeat([3, 7], n_per_class)
    return LabeledDataset(X=X, y=y)


def test_split_counts_and_disjointness():
    ds = _blob_dataset()
    split = make_imbalanced_split(ds, 3, 7, ratio=0.5, n1=20, seed=4)
    assert split.train.n0 == 10 and split.train.n1 == 20
    assert split.test0.shape[0] == 30 and split.test1.shape[0] == 20
    assert not set(split.train_indices0) & set(split.test_indices0)
    assert not set(split.train_indices1) & set(split.test_indices1)
    # Class pools never mix: class-a rows live in the first half of the file.
    assert np.all(split.train_indices0 < 40) and np.all(split.train_indices1 >= 40)
    np.testing.assert_array_equal(
        split.train.X0, ds.X[split.train_indices0]
    )


def test_split_is_reproducible_and_seed_sensitive():
    ds = _blob_dataset()
    a = make_imbalanced_split(ds, 3, 7, ratio=1.0, n1=15, seed=9)
    b = make_imbalanced_split(ds, 3, 7, ratio=1.0, n1=15, seed=9)
    c = make_imbalanced_split(ds, 3, 7, ratio=1.0, n1=15, seed=10)
    np.testing.assert_array_equal(a.train_indices0, b.train_indices0)
    np.testing.assert_array_equal(a.test_indices1, b.test_indices1)
    assert not np.array_equal(a.train_indices0, c.train_indices0)


def test_split_test_fractions_thin_the_remainder():
    ds = _blob_dataset()
    split = make_imbalanced_split(
        ds, 3, 7, ratio=1.0, n1=20, test_fraction0=0.5, test_fraction1=0.0, seed=0
    )
    assert split.test0.shape[0] == 10  # floor(0.5 * 20) remaining class-a rows
    assert split.test1.shape[0] == 0


def test_split_validation_errors():
    ds = _blob_dataset()
    with pytest.raises(ValueError):
        make_imbalanced_split(ds, 3, 3, ratio=1.0, n1=10)
    with pytest.raises(ValueError):
        make_imbalanced_split(ds, 3, 7, ratio=-1.0, n1=10)
    with pytest.raises(InsufficientSamplesError):
        make_imbalanced_split(ds, 3, 7, ratio=1.0, n1=1)
    with pytest.raises(InsufficientSamplesError):
        make_imbalanced_split(ds, 3, 7, ratio=0.05, n1=20)
    with pytest.raises(InsufficientSamplesError):
        make_imbalanced_split(ds, 3, 7, ratio=1.0, n1=45)
    with pytest.raises(ValueError, match="not present"):
        make_imbalanced_split(ds, 2, 7, ratio=1.0, n1=10)
    for ratio in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="ratio must be finite and strictly positive"):
            make_imbalanced_split(ds, 3, 7, ratio=ratio, n1=10)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(X=np.zeros((4, 2)), y=np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        LabeledDataset(X=np.zeros((4, 2)), y=np.zeros(4))
    with pytest.raises(InsufficientSamplesError):
        LabeledDataset(X=np.zeros((5, 2)), y=np.array([0, 0, 0, 0, 1]))
