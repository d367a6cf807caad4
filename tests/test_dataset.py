import math

import numpy as np
import pytest

from somchroma.dataset import DataMatrix, load_csv, standardize, write_csv


def two_pass_variance(column):
    # independent oracle: fsum-based two-pass sample variance
    n = len(column)
    mean = math.fsum(column) / n
    return math.fsum((x - mean) ** 2 for x in column) / (n - 1)


def test_load_csv_small_numeric(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("1.0,2.0\n3.5,4.5\n5.0,6.25\n")
    data = load_csv(p, has_header=False)
    assert data.n_rows == 3 and data.n_cols == 2
    assert data.column_names == ["col1", "col2"]
    assert data.values[2, 1] == 6.25
    assert data.row_labels is None and data.class_labels is None


def test_load_csv_iris(iris_raw):
    assert iris_raw.n_rows == 150 and iris_raw.n_cols == 4
    assert iris_raw.class_labels is not None
    assert sorted(set(iris_raw.class_labels)) == ["setosa", "versicolor", "virginica"]
    assert iris_raw.column_names == [
        "sepal_length", "sepal_width", "petal_length", "petal_width",
    ]


def test_load_csv_non_numeric_cell_reports_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1.0,2.0\n3.0,abc\n")
    with pytest.raises(ValueError, match=r"line 3.*'y'.*'abc'"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("x,y\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3 has 1 fields"):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_unknown_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="no column named 'id'"):
        load_csv(p, label_column="id")


def test_standardize_simple_column():
    data = DataMatrix(np.array([[1.0], [2.0], [3.0]]), ["x"])
    out, params = standardize(data)
    assert np.allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
    assert params.means[0] == 2.0 and params.stddevs[0] == 1.0


def test_standardize_constant_column(capsys):
    data = DataMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ["c", "x"])
    out, params = standardize(data)
    assert np.array_equal(out.values[:, 0], [0.0, 0.0, 0.0])
    assert params.stddevs[0] == 0.0
    assert "constant column" in capsys.readouterr().err


def test_standardize_constant_column_with_rounding_noise(capsys):
    # The mean of 150 copies of 0.1 is off by an ulp, so the std is ~1e-17, not 0.
    values = np.column_stack([np.full(150, 0.1), np.arange(150.0)])
    out, params = standardize(DataMatrix(values, ["c", "x"]))
    assert np.array_equal(out.values[:, 0], np.zeros(150))
    assert params.stddevs[0] == 0.0
    assert "constant column(s) left unscaled: ['c']" in capsys.readouterr().err
    assert params.stddevs[1] > 0.0


def test_standardize_rejects_single_row():
    data = DataMatrix(np.array([[1.0, 2.0]]), ["a", "b"])
    with pytest.raises(ValueError, match="at least 2 rows"):
        standardize(data)


def test_standardize_iris_unit_variance(iris_std):
    for k in range(iris_std.n_cols):
        assert abs(two_pass_variance(iris_std.values[:, k]) - 1.0) <= 1e-12


def test_standardize_idempotent(iris_std):
    again, _ = standardize(iris_std)
    assert np.max(np.abs(again.values - iris_std.values)) <= 1e-12


def test_distances_invariant_to_centering():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((25, 4)) * 2.0 + rng.standard_normal(4) * 5.0
    data = DataMatrix(values, list("abcd"))
    std, params = standardize(data)
    scaled_only = values / params.stddevs  # unit variance, not centered

    def dists(x):
        diff = x[:, None, :] - x[None, :, :]
        return np.sqrt((diff ** 2).sum(-1))

    assert np.max(np.abs(dists(std.values) - dists(scaled_only))) <= 1e-12


def test_write_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    data = DataMatrix(
        rng.standard_normal((12, 3)) * 7.3,
        ["alpha", "beta", "gamma"],
        row_labels=[f"r{i}" for i in range(12)],
        class_labels=["odd" if i % 2 else "even" for i in range(12)],
    )
    p = tmp_path / "round.csv"
    write_csv(data, p)
    back = load_csv(p, has_header=True, label_column="label", class_column="class")
    assert np.array_equal(back.values, data.values)
    assert back.column_names == data.column_names
    assert back.row_labels == data.row_labels
    assert back.class_labels == data.class_labels


def test_datamatrix_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        DataMatrix(np.array([[1.0, np.nan]]), ["a", "b"])
