"""CSV loading and the imbalanced train/test protocol for real datasets.

The loader is deliberately strict: every cell must parse, labels must be
exact integers, and any malformed row is reported with its position rather
than skipped. Class imbalance is then constructed by subsampling, never by
reweighting, so the downstream classifier sees exactly the sample-size ratio
requested.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, InsufficientSamplesError
from .estimation import TrainingSet
from .model import stream

__all__ = ["LabeledDataset", "SplitResult", "load_csv", "make_imbalanced_split"]

_MIN_ROWS_PER_LABEL = 4


@dataclass(frozen=True)
class LabeledDataset:
    """Numeric feature matrix with small-integer class labels.

    Every label must appear at least four times so a train/test split with at
    least two training rows per class remains possible.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("features must be a 2-D matrix, got shape %r" % (self.X.shape,))
        if self.y.ndim != 1 or self.y.shape[0] != self.X.shape[0]:
            raise ValueError(
                "labels must be one per row: %d labels for %d rows"
                % (self.y.shape[0] if self.y.ndim == 1 else -1, self.X.shape[0])
            )
        if not np.issubdtype(self.y.dtype, np.integer):
            raise ValueError("labels must be integers, got dtype %s" % (self.y.dtype,))
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise ValueError(
                "%d feature names for %d columns"
                % (len(self.feature_names), self.X.shape[1])
            )
        labels, counts = np.unique(self.y, return_counts=True)
        thin = labels[counts < _MIN_ROWS_PER_LABEL]
        if thin.size:
            raise InsufficientSamplesError(
                "labels %s have fewer than %d rows each"
                % (thin.tolist(), _MIN_ROWS_PER_LABEL)
            )

    @property
    def labels(self) -> np.ndarray:
        return np.unique(self.y)

    def class_indices(self, label: int) -> np.ndarray:
        """Row indices carrying ``label``, in file order."""
        rows = np.flatnonzero(self.y == label)
        if rows.size == 0:
            raise ValueError(
                "label %r not present; dataset has %s" % (label, self.labels.tolist())
            )
        return rows


def _parse_label(cell: str, line: int, column: int) -> int:
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(
            "line %d, column %d: label %r is not numeric" % (line, column, cell)
        ) from None
    if not value.is_integer():
        raise CsvFormatError(
            "line %d, column %d: label %r is not an integer" % (line, column, cell)
        )
    if not -(2.0**63) <= value < 2.0**63:
        raise CsvFormatError(
            "line %d, column %d: label %r is outside the int64 range" % (line, column, cell)
        )
    return int(value)


def _parse_feature(cell: str, line: int, column: int) -> float:
    if cell.strip() == "":
        raise CsvFormatError(
            "line %d, column %d: missing value" % (line, column)
        )
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(
            "line %d, column %d: feature %r is not numeric" % (line, column, cell)
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(
            "line %d, column %d: feature %r is not finite" % (line, column, cell)
        )
    return value


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_csv(
    path: str | Path,
    label_column: str | int,
    *,
    standardize: bool = False,
    header: bool | None = None,
) -> LabeledDataset:
    """Read an RFC-4180 style UTF-8 CSV into a labeled dataset.

    Parameters
    ----------
    path : str or Path
        File to read.
    label_column : str or int
        Column holding the class label, by header name or zero-based index.
    standardize : bool
        When true, shift and scale every feature column to mean 0 and
        variance 1, computed over the full file. Off by default; raw features
        are the norm for the datasets this protocol targets.
    header : bool, optional
        Force the first row to be (or not be) a header. Default sniffs: a
        first row with any non-numeric cell is treated as a header. Selecting
        the label by name requires a header.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as handle:
        rows = [(number, row) for number, row in enumerate(csv.reader(handle), start=1) if row]
    if not rows:
        raise CsvFormatError("%s: no data rows" % (path,))

    first_line, first_row = rows[0]
    has_header = _looks_like_header(first_row) if header is None else header
    names: list[str] | None = None
    if has_header:
        names = [cell.strip() for cell in first_row]
        rows = rows[1:]
        if not rows:
            raise CsvFormatError("%s: header but no data rows" % (path,))
    width = len(first_row)

    if isinstance(label_column, str):
        if names is None:
            raise CsvFormatError(
                "label column %r requires a header row" % (label_column,)
            )
        try:
            label_index = names.index(label_column)
        except ValueError:
            raise CsvFormatError(
                "label column %r not in header %s" % (label_column, names)
            ) from None
    else:
        label_index = int(label_column)
        if not 0 <= label_index < width:
            raise CsvFormatError(
                "label column index %d out of range for %d columns"
                % (label_index, width)
            )
    if width < 2:
        raise CsvFormatError("%s: need at least one feature column" % (path,))

    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=int)
    for out_row, (line, row) in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                "line %d: %d fields, expected %d" % (line, len(row), width)
            )
        labels[out_row] = _parse_label(row[label_index], line, label_index + 1)
        out_col = 0
        for column, cell in enumerate(row):
            if column == label_index:
                continue
            features[out_row, out_col] = _parse_feature(cell, line, column + 1)
            out_col += 1

    if standardize:
        center = features.mean(axis=0)
        spread = features.std(axis=0)
        flat = np.flatnonzero(spread == 0.0)
        if flat.size:
            raise CsvFormatError(
                "constant feature columns %s cannot be standardized" % (flat.tolist(),)
            )
        features = (features - center) / spread

    feature_names = (
        tuple(name for k, name in enumerate(names) if k != label_index)
        if names is not None
        else None
    )
    return LabeledDataset(X=features, y=labels, feature_names=feature_names)


@dataclass(frozen=True)
class SplitResult:
    """Disjoint train/test row selection for one two-class protocol run.

    Index arrays refer to rows of the source dataset and are sorted; training
    and test never overlap.
    """

    train: TrainingSet
    test0: np.ndarray
    test1: np.ndarray
    train_indices0: np.ndarray
    train_indices1: np.ndarray
    test_indices0: np.ndarray
    test_indices1: np.ndarray


def _split_class(
    rows: np.ndarray, n_train: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(rows.size)
    return np.sort(rows[order[:n_train]]), np.sort(rows[order[n_train:]])


def make_imbalanced_split(
    ds: LabeledDataset,
    class_a: int,
    class_b: int,
    ratio: float,
    n1: int,
    *,
    seed: int = 0,
) -> SplitResult:
    """Construct the two-class imbalance protocol from a labeled dataset.

    ``class_a`` becomes class 0 with floor(ratio * n1) training rows and
    ``class_b`` becomes class 1 with ``n1``. Rows not drawn for training form
    the per-class test pools; train and test are always disjoint and the
    selection is reproducible from ``seed``. A count beyond its class's rows is
    refused before the floor of ratio * n1, so no count past the float range reaches it.
    """
    if class_a == class_b:
        raise ValueError("the two classes must differ, got %r twice" % (class_a,))
    if n1 < 2:
        raise InsufficientSamplesError("need n1 >= 2, got %d" % (n1,))
    if not 0.0 < ratio < math.inf:
        raise ValueError("ratio must be finite and strictly positive, got %r" % (ratio,))
    rows_a = ds.class_indices(class_a)
    rows_b = ds.class_indices(class_b)
    if n1 > rows_b.size:
        raise InsufficientSamplesError(
            "label %r has %d rows, need %d for training" % (class_b, rows_b.size, n1)
        )
    if not ratio * n1 < rows_a.size + 1:
        raise InsufficientSamplesError("label %r has %d rows, fewer than ratio %r with n1=%d "
                                       "asks for" % (class_a, rows_a.size, ratio, n1))
    n0 = int(math.floor(ratio * n1))
    if n0 < 2:
        raise InsufficientSamplesError(
            "ratio %r with n1=%d gives n0=%d; need at least 2" % (ratio, n1, n0)
        )
    train0, test0 = _split_class(rows_a, n0, stream(seed, 11))
    train1, test1 = _split_class(rows_b, n1, stream(seed, 12))
    return SplitResult(
        train=TrainingSet(X0=ds.X[train0], X1=ds.X[train1]),
        test0=ds.X[test0],
        test1=ds.X[test1],
        train_indices0=train0,
        train_indices1=train1,
        test_indices0=test0,
        test_indices1=test1,
    )
