"""CSV dataset ingestion and export, and the one JSON writer.

Dataset format: UTF-8, comma separated, one header row, feature columns
followed by a single response column.  Numeric output uses 17 significant
digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from io import BytesIO, TextIOWrapper

import numpy as np

from .data import Dataset
from .errors import DataError


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def _csv_records(path, lines):
    """``csv.reader`` over ``lines``; a malformed record, such as a cell
    past the csv module's field size limit, raises ``DataError`` naming the
    file and line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows_csv(path) -> tuple[list[str], np.ndarray]:
    """The reference reader: one ``float`` per cell, and the error that
    names the file, line and column of the first bad cell."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    with fh:
        reader = _csv_records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 1:
            raise DataError(f"{path}: empty header row")
        width = len(header)
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # ignore trailing blank lines
            if len(row) != width:
                raise DataError(
                    f"{path}: line {line_no}: expected {width} columns, got {len(row)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}: non-numeric value {cell!r} in column {name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: line {line_no}: non-finite value {cell!r} in column {name!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


# numpy strips these ASCII separators around a number as whitespace; float() does not
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Header by ``csv.reader``, body by ``np.loadtxt``.  Its array is kept
    only when it parsed to a finite grid of at least one row with one column
    per header name.  Any other file (missing, header-only, with a quoted
    cell, ``1_0``, a byte 0x1c-0x1f, a whitespace-only, ragged or non-finite
    row) is read again by ``_read_rows_csv``, which returns its values or
    raises its error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return _read_rows_csv(path)
    if any(sep in data for sep in _NUMPY_ONLY_SPACE):
        return _read_rows_csv(path)
    text = TextIOWrapper(BytesIO(data), encoding="utf-8", newline="")
    try:
        header = next(_csv_records(path, text), [])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return _read_rows_csv(path)
    if values.shape[0] >= 1 and values.shape[1] == len(header) and np.isfinite(values).all():
        return header, values
    return _read_rows_csv(path)


def read_feature_csv(path) -> tuple[list[str], np.ndarray]:
    """Feature-only CSV (header row, all columns numeric)."""
    return _read_numeric_csv(path)


def read_dataset_csv(
    path, *, standardize: bool = False, log_response: bool = False
) -> tuple[Dataset, list[str], list[str]]:
    """Read a dataset CSV; the last column is the response.

    Returns (dataset, feature_names, dropped_columns).  With standardize,
    every feature column is shifted/scaled to mean 0 and (population) std 1;
    constant columns would divide by zero and are dropped instead.  A
    column whose std overflows or underflows to 0 is first divided by its
    max |value|; the others keep the bits of the plain formula.
    """
    header, values = _read_numeric_csv(path)
    if len(header) < 2:
        raise DataError(f"{path}: need at least one feature column plus a response column")
    features = values[:, :-1]
    responses = values[:, -1]
    names = header[:-1]

    if log_response:
        if np.any(responses <= 0):
            raise DataError(f"{path}: log response transform requires positive responses")
        responses = np.log(responses)

    dropped: list[str] = []
    if standardize:
        keep = []
        for col in range(features.shape[1]):
            column = features[:, col]
            if column.max() == column.min():
                dropped.append(names[col])
            else:
                keep.append(col)
        if not keep:
            raise DataError(f"{path}: all feature columns are constant")
        features = features[:, keep]
        names = [names[c] for c in keep]
        with np.errstate(over="ignore", invalid="ignore"):
            std = features.std(axis=0)
        extreme = ~(np.isfinite(std) & (std > 0.0))
        if extreme.any():
            features[:, extreme] /= np.abs(features[:, extreme]).max(axis=0)
            std[extreme] = features[:, extreme].std(axis=0)
        features = (features - features.mean(axis=0)) / std

    return Dataset(features, responses), names, dropped


def _float_rows(matrix):
    return ([format_float(v) for v in row.tolist()] for row in np.atleast_2d(matrix))


def write_dataset_csv(path, dataset: Dataset, feature_names=None, response_name="y") -> None:
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(dataset.d)]
    header = list(feature_names) + [response_name]
    grid = np.column_stack([dataset.features, dataset.responses])
    write_rows_csv(path, itertools.chain([header], _float_rows(grid)))


def write_predictions_csv(path, predictions) -> None:
    column = np.asarray(predictions, dtype=np.float64).reshape(-1, 1)
    write_rows_csv(path, itertools.chain([["prediction"]], _float_rows(column)))


def write_matrix_csv(path, matrix) -> None:
    """Plain numeric grid without a header (Grammian export)."""
    write_rows_csv(path, _float_rows(np.asarray(matrix, dtype=np.float64)))


def write_json(path, payload) -> None:
    """Compact, key-sorted JSON on one line and a newline, encoded whole by
    the C encoder (an ``indent`` would select the pure-Python one); a NaN or
    infinite number raises ``ValueError``, as it is not JSON."""
    text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write_rows_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)
