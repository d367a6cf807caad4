"""Delimited numeric data ingestion and standardization.

CSV dialect: comma separator, optional double-quote quoting, '.' decimal
point, UTF-8 with or without a byte-order mark. Standardization centers each column and scales non-constant
columns to unit (unbiased) sample variance so every variable carries equal
weight downstream.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataMatrix",
    "StandardizationParams",
    "load_csv",
    "standardize",
]


@dataclass(frozen=True)
class DataMatrix:
    """N observations by n numeric features plus column/row metadata."""

    values: np.ndarray
    column_names: list[str]
    row_labels: list[str] | None = None
    class_labels: list[str] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-dimensional, got shape {values.shape}")
        n_rows, n_cols = values.shape
        if n_rows < 1 or n_cols < 1:
            raise ValueError(f"need at least one row and one column, got {values.shape}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite value at row {bad[0]}, column {bad[1]}")
        if len(self.column_names) != n_cols:
            raise ValueError(
                f"{len(self.column_names)} column names for {n_cols} columns"
            )
        if self.row_labels is not None and len(self.row_labels) != n_rows:
            raise ValueError(f"{len(self.row_labels)} row labels for {n_rows} rows")
        if self.class_labels is not None and len(self.class_labels) != n_rows:
            raise ValueError(f"{len(self.class_labels)} class labels for {n_rows} rows")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column means and sample standard deviations (0 marks a constant column)."""

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stddevs = np.asarray(self.stddevs, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)
        if means.shape != stddevs.shape or means.ndim != 1:
            raise ValueError("means and stddevs must be 1-d arrays of equal length")
        if np.any(stddevs < 0):
            raise ValueError("stddevs must be nonnegative")


def _records(reader):
    """Yield (line, row) for each non-blank record, line being where it starts.

    reader.line_num counts every physical line read so far, blank lines and
    newlines inside quoted cells included.
    """
    line = reader.line_num + 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def load_csv(
    path,
    has_header: bool = True,
    label_column: str | None = None,
    class_column: str | None = None,
) -> DataMatrix:
    """Parse a delimited numeric file into a DataMatrix.

    Records are read one at a time and their numeric cells go straight into
    the value matrix, so memory holds the matrix and the labels, not the
    file's text. Errors name the line a record starts on and come in file
    order; bad UTF-8 is found one read buffer (8 KiB) at a time.

    Parameters
    ----------
    path : str or Path
        CSV file to read.
    has_header : bool
        First row holds column names. Without a header, columns are named
        col1..coln.
    label_column : str, optional
        Column to treat as row labels (excluded from the numeric values).
    class_column : str, optional
        Column to treat as categorical class tags (excluded from values).

    Raises
    ------
    ValueError
        Ragged rows, non-numeric cells (reported with row and column),
        unknown label/class column, or an empty file.
    OSError
        Unreadable file.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(csv.reader(fh))
        first = next(records, None)
        if first is None:
            raise ValueError(f"{path}: file contains no data")
        if has_header:
            header = [name.strip() for name in first[1]]
            first = next(records, None)
        else:
            header = [f"col{i + 1}" for i in range(len(first[1]))]
        if first is None:
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

        row_labels = [] if "label" in special else None
        class_labels = [] if "class" in special else None

        def cells():
            for line, row in itertools.chain([first], records):
                if len(row) != width:
                    raise ValueError(
                        f"{path}: line {line} has {len(row)} fields, expected {width}"
                    )
                for i in value_idx:
                    cell = row[i].strip()
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {line}, column {header[i]!r}: "
                            f"cannot parse {cell!r} as a number"
                        ) from None
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}: line {line}, column {header[i]!r}: "
                            f"non-finite value {cell!r}"
                        )
                    yield value
                if row_labels is not None:
                    row_labels.append(row[special["label"]].strip())
                if class_labels is not None:
                    class_labels.append(row[special["class"]].strip())

        values = np.fromiter(cells(), dtype=float).reshape(-1, len(value_idx))

    return DataMatrix(
        values=values,
        column_names=[header[i] for i in value_idx],
        row_labels=row_labels,
        class_labels=class_labels,
    )


def standardize(data: DataMatrix) -> tuple[DataMatrix, StandardizationParams]:
    """Center every column and scale non-constant columns to unit variance.

    Uses the unbiased (N-1) sample variance. A column is constant when its
    stddev is within the rounding error of its mean, N * eps * max|x|: N
    copies of 0.1 give a stddev of about 1e-17, not 0. Constant columns map
    to 0 and are recorded with stddev 0; a warning is emitted since they
    carry no information.

    The statistics are taken on each column scaled by the power of two that
    brings its largest magnitude below 1 (a column already below 1 is left as
    it is). That scaling is exact in the normal range, so the results are
    bit for bit the unscaled ones, yet the squares of a column holding 1e200
    cannot overflow.

    Raises
    ------
    ValueError
        Fewer than 2 rows (sample variance undefined), or a column whose
        stddev is beyond the largest float.
    """
    if data.n_rows < 2:
        raise ValueError(f"standardize needs at least 2 rows, got {data.n_rows}")
    peak = np.abs(data.values).max(axis=0)
    exponents = np.maximum(np.frexp(peak)[1], 0)
    scaled = np.ldexp(data.values, -exponents)
    means = scaled.mean(axis=0)
    stddevs = scaled.std(axis=0, ddof=1)
    constant = stddevs <= data.n_rows * np.finfo(float).eps * np.ldexp(peak, -exponents)
    with np.errstate(over="ignore"):
        params = StandardizationParams(
            means=np.ldexp(means, exponents),
            stddevs=np.ldexp(np.where(constant, 0.0, stddevs), exponents),
        )
    wide = np.isinf(params.stddevs)
    if np.any(wide):
        names = [data.column_names[i] for i in np.flatnonzero(wide)]
        raise ValueError(f"column(s) {names} spread too wide to standardize: "
                         "the stddev is beyond the largest float")
    if np.any(constant):
        names = [data.column_names[i] for i in np.flatnonzero(constant)]
        print(f"warning: constant column(s) left unscaled: {names}", file=sys.stderr)
    scaled -= means
    scaled /= np.where(constant, 1.0, stddevs)
    scaled[:, constant] = 0.0
    out = DataMatrix(
        values=scaled,
        column_names=list(data.column_names),
        row_labels=list(data.row_labels) if data.row_labels is not None else None,
        class_labels=list(data.class_labels) if data.class_labels is not None else None,
    )
    return out, params


def bundled_data_path(name: str) -> Path:
    """Path to a data file shipped with the package (e.g. "iris.csv")."""
    p = Path(__file__).parent / "data" / name
    if not p.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return p
