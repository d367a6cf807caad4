import csv
import io
import math
import sys
import tracemalloc

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


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark that spreadsheet exports write


@pytest.mark.parametrize("text, settings", [
    ("species,x,y\nsetosa,1.5,2\nvirginica,3,-4.25\n", dict(class_column="species")),
    ("a,b\n1.5,2\n3,-4.25\n", dict()),
    ("1.5,2\n3,-4.25\n", dict(has_header=False)),
], ids=["class-column-first", "header", "no-header"])
def test_load_csv_reads_past_a_byte_order_mark(tmp_path, text, settings):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    a, b = load_csv(plain, **settings), load_csv(marked, **settings)
    assert np.array_equal(a.values, b.values) and a.values.shape == (2, 2)
    assert a.column_names == b.column_names
    assert (a.row_labels, a.class_labels) == (b.row_labels, b.class_labels)


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


def test_load_csv_blank_lines_count_in_a_cells_line_number(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("a,b\n1,2\n\n\n3,x\n")
    with pytest.raises(ValueError, match=r"line 5, column 'b': cannot parse 'x'"):
        load_csv(p)


def test_load_csv_blank_lines_count_in_a_ragged_rows_line_number(tmp_path):
    p = tmp_path / "blank_ragged.csv"
    p.write_text("a,b\n\n1,2\n\n3\n")
    with pytest.raises(ValueError, match="line 5 has 1 fields, expected 2"):
        load_csv(p)


def test_load_csv_names_the_line_a_record_starts_on(tmp_path):
    # a quoted newline is a second physical line of the record before the bad one
    p = tmp_path / "quoted.csv"
    p.write_text('id,a\n"two\nlines",1\nz,q\n')
    with pytest.raises(ValueError, match=r"line 4, column 'a': cannot parse 'q'"):
        load_csv(p, label_column="id")


def test_load_csv_reports_the_first_fault_in_file_order(tmp_path):
    # A bad cell, then more than one 8 KiB read buffer of good rows, then bad
    # UTF-8: the cell is reported, though a whole-file read fails on the bytes.
    p = tmp_path / "two_faults.csv"
    p.write_bytes(b"x,y\n1,2\n3,abc\n" + b"5,6\n" * 4096 + b"\xff,7\n")
    with pytest.raises(ValueError, match=r"line 3, column 'y': cannot parse 'abc'"):
        load_csv(p)
    with pytest.raises(UnicodeDecodeError):
        reference_load_csv(p)


def reference_load_csv(path, has_header=True, label_column=None, class_column=None):
    """The earlier whole-file parser: every row as a list of strings, then the values.

    Kept as an oracle. It numbers rows after dropping blank lines, so its line
    numbers are wrong after a blank line or a quoted newline.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row]
    if not rows:
        raise ValueError(f"{path}: file contains no data")
    if has_header:
        header = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
        first_line = 2
    else:
        header = [f"col{i + 1}" for i in range(len(rows[0]))]
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise ValueError(f"{path}: no data rows after header")
    width = len(header)
    special = {}
    for role, name in (("label", label_column), ("class", class_column)):
        if name is None:
            continue
        if name not in header:
            raise ValueError(f"{path}: no column named {name!r} (columns: {header})")
        special[role] = header.index(name)
    if len(set(special.values())) != len(special):
        raise ValueError("label_column and class_column must differ")
    value_idx = [i for i in range(width) if i not in special.values()]
    if not value_idx:
        raise ValueError(f"{path}: no numeric columns remain")
    values = np.empty((len(data_rows), len(value_idx)), dtype=float)
    row_labels = [] if "label" in special else None
    class_labels = [] if "class" in special else None
    for r, row in enumerate(data_rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: line {first_line + r} has {len(row)} fields, expected {width}"
            )
        for k, i in enumerate(value_idx):
            cell = row[i].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: line {first_line + r}, column {header[i]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {first_line + r}, column {header[i]!r}: "
                    f"non-finite value {cell!r}"
                )
            values[r, k] = value
        if row_labels is not None:
            row_labels.append(row[special["label"]].strip())
        if class_labels is not None:
            class_labels.append(row[special["class"]].strip())
    return DataMatrix(
        values=values,
        column_names=[header[i] for i in value_idx],
        row_labels=row_labels,
        class_labels=class_labels,
    )


NUMBER_FORMATS = (repr, "{:.3e}".format, " {!r} ".format, "\t{!r}".format, "{:+.2f}".format,
                  "{:.0f}".format)
LABEL_CELLS = ("plain", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "  padded ", "caf\u00e9",
               "", "x,\n,y")


RANDOM_CSVS = 60


def random_csv(rng):
    """A small valid CSV as text, and the load_csv keywords that read it."""
    n_numeric = int(rng.integers(1, 5))
    roles = [role for role in ("label", "class") if rng.random() < 0.5]
    width = n_numeric + len(roles)
    role_at = dict(zip(rng.permutation(width)[:len(roles)].tolist(), roles))
    has_header = bool(rng.random() < 0.7)
    if has_header:
        names = [role_at.get(i, f"v{i}") for i in range(width)]
        names = [f" {name} " if rng.random() < 0.3 else name for name in names]
    else:
        names = [f"col{i + 1}" for i in range(width)]
    keywords = {"has_header": has_header}
    for i, role in role_at.items():
        keywords[f"{role}_column"] = names[i].strip()

    records = [names] if has_header else []
    for _ in range(int(rng.integers(1, 9))):
        row = []
        for i in range(width):
            if i in role_at:
                row.append(LABEL_CELLS[int(rng.integers(len(LABEL_CELLS)))])
                continue
            x = -0.0 if rng.random() < 0.1 else float(
                rng.standard_normal() * 10.0 ** int(rng.integers(-5, 6)))
            row.append(NUMBER_FORMATS[int(rng.integers(len(NUMBER_FORMATS)))](x))
        records.append(row)
    text = io.StringIO(newline="")
    for record in records:
        quoting = csv.QUOTE_ALL if rng.random() < 0.2 else csv.QUOTE_MINIMAL
        terminator = "\r\n" if rng.random() < 0.3 else "\n"
        csv.writer(text, quoting=quoting, lineterminator=terminator).writerow(record)
        if rng.random() < 0.3:
            text.write("\n" * int(rng.integers(1, 3)))
    return text.getvalue(), keywords


@pytest.mark.parametrize("seed", range(RANDOM_CSVS))
def test_load_csv_is_the_whole_file_parser_bitwise(tmp_path, seed):
    text, keywords = random_csv(np.random.default_rng(seed))
    p = tmp_path / "random.csv"
    p.write_text(text, encoding="utf-8", newline="")
    got, expected = load_csv(p, **keywords), reference_load_csv(p, **keywords)
    assert got.values.dtype == expected.values.dtype and got.values.shape == expected.values.shape
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.column_names == expected.column_names
    assert got.row_labels == expected.row_labels
    assert got.class_labels == expected.class_labels


def test_random_csvs_cover_each_feature():
    texts, keywords = zip(*(random_csv(np.random.default_rng(seed)) for seed in range(RANDOM_CSVS)))
    assert any('"two\nlines"' in t for t in texts) and any('"a,b"' in t for t in texts)
    assert any("\n\n" in t for t in texts) and any("\t" in t for t in texts)
    assert any(not k["has_header"] for k in keywords)
    assert any("label_column" in k and "class_column" in k for k in keywords)


# Malformed files with no blank line and no quoted newline, where the earlier
# parser's line numbers were right: same message, so the checks keep their order.
@pytest.mark.parametrize("text, keywords", [
    ("", {}),
    ("\n\n", {}),
    ("x,y\n", {}),
    ("x,y\n", {"class_column": "species"}),
    ("x,y\n1,2\n", {"class_column": "species"}),
    ("x,y\n1,2\n", {"label_column": "x", "class_column": "x"}),
    ("x,y\na,b\n", {"label_column": "x", "class_column": "y"}),
    ("x,y\n1,2\n3\n", {}),
    ("x,y\n1,2\n3,4,5\n", {}),
    ("x,y\n1,abc\n3\n", {}),
    ("x,y\n1,nan\n3,abc\n", {}),
    ("x,y\n1,2\n3,-inf\n", {}),
    ("1,2\n3, \n", {"has_header": False}),
    ("id,x\nr1,1\nr2,1e999\n", {"label_column": "id"}),
])
def test_load_csv_rejects_what_the_whole_file_parser_rejects(tmp_path, text, keywords):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError) as expected:
        reference_load_csv(p, **keywords)
    with pytest.raises(ValueError) as got:
        load_csv(p, **keywords)
    assert str(got.value) == str(expected.value)


def test_load_csv_memory_is_bounded_by_the_values_and_labels(tmp_path):
    # The whole-file parser held every cell as a string: about 29.6 MiB here.
    rng = np.random.default_rng(4)
    p = tmp_path / "big.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{i}" for i in range(16)] + ["cluster"]) + "\n")
        for r, row in enumerate(rng.standard_normal((20000, 16)).tolist()):
            fh.write(",".join(map(repr, row)) + f",c{r % 8}\n")
    tracemalloc.start()
    try:
        data = load_csv(p, class_column="cluster")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = sys.getsizeof(data.class_labels) + sum(map(sys.getsizeof, data.class_labels))
    assert data.values.shape == (20000, 16)
    assert peak < 2 * data.values.nbytes + labels  # measured: 4.6 MiB of 6.0 MiB


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
