"""CSV input/output and simple price transforms.

Numbers are written with ``repr`` (shortest round-trip), so a write/read
cycle reproduces the array bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import DataError
from .kernels import as_points


def read_csv(path) -> np.ndarray:
    """Read a numeric CSV with a header row into an n x d float matrix.

    Rows must be in chronological order.  Any missing or non-numeric cell
    is reported with its row number and column name.  A first row made
    only of numbers is rejected rather than taken as the header, which
    would silently drop an observation.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    d = len(header)
    if d == 0:
        raise DataError(f"{path}: empty header row")
    if all(_is_number(c) for c in header):
        raise DataError(
            f"{path}: the first row {lines[0]!r} is all numbers; "
            "the file needs a header row of column names"
        )
    if len(lines) < 2:
        raise DataError(f"{path}: no data rows")
    out = np.empty((len(lines) - 1, d))
    for i, line in enumerate(lines[1:], start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != d:
            raise DataError(f"{path}: row {i} has {len(cells)} cells, expected {d}")
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at row {i}, column {header[j]!r}: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{path}: non-finite cell at row {i}, column {header[j]!r}")
            out[i - 1, j] = value
    return out


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def write_csv(path, data, header=None) -> None:
    """Write an n x d matrix as CSV with a header row."""
    mat = as_points(data)
    d = mat.shape[1]
    if header is None:
        header = [f"x{j + 1}" for j in range(d)]
    if len(header) != d:
        raise DataError(f"header has {len(header)} names for {d} columns")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def log_returns(prices) -> np.ndarray:
    """First differences of logs, (n-1) x d; prices must be positive."""
    mat = as_points(prices, min_rows=2)
    if (mat <= 0).any():
        bad = np.argwhere(mat <= 0)[0]
        raise DataError(f"nonpositive price at row {bad[0] + 1}, column {bad[1] + 1}")
    return np.diff(np.log(mat), axis=0)
