"""Portable file formats: real matrices, dataset CSV.

Real matrix files carry "rows cols" and row-major floats (repr round-trip).
Dataset CSV has a header naming the feature columns and a trailing integer
label column; features are finite, labels lie in [0, ``N_CLASSES``), and a
dataset holds at least two samples, one to train and one to test on. A
malformed file raises ``InvalidInputError`` naming it.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .dataset import N_CLASSES
from .errors import InvalidInputError


def save_real_matrix(path, array) -> None:
    a = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_text(path, newline=None) -> str:
    try:
        with open(path, newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: cannot be read ({exc})") from None


def load_real_matrix(path) -> np.ndarray:
    text = _read_text(path).strip().splitlines()
    if not text:
        raise InvalidInputError(f"{path}: empty matrix file")
    try:
        rows, cols = (int(h) for h in text[0].split())
        flat = [float(tok) for line in text[1:] for tok in line.split()]
    except ValueError as exc:
        raise InvalidInputError(
            f"{path}: expected a 'rows cols' header and numbers ({exc})") from None
    if rows < 1 or cols < 1 or len(flat) != rows * cols:
        raise InvalidInputError(f"{path}: expected {rows} x {cols} >= 1 values")
    return np.array(flat).reshape(rows, cols)


def load_dataset_csv(path):
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    header = next(reader, None)
    if not header or header[-1] != "label":
        raise InvalidInputError(f"{path}: expected a trailing 'label' column")
    xs, ys = [], []
    try:
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header has "
                                 f"{len(header)}")
            xs.append([float(v) for v in row[:-1]])
            ys.append(int(row[-1]))
            if not np.all(np.isfinite(xs[-1])):
                raise ValueError("non-finite feature")
            if not 0 <= ys[-1] < N_CLASSES:
                raise ValueError(f"label {ys[-1]} outside [0, {N_CLASSES})")
    except ValueError as exc:
        raise InvalidInputError(
            f"{path}: line {reader.line_num}: {exc}") from None
    if len(ys) < 2:
        raise InvalidInputError(f"{path}: needs at least 2 samples, has {len(ys)}")
    return np.array(xs), np.array(ys, dtype=np.int64)
