"""Portable file formats: real matrices, dataset CSV.

Real matrix files carry "rows cols" and row-major floats (repr round-trip).
Dataset CSV has a header naming the feature columns and a trailing integer
label column.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import InvalidInputError


def save_real_matrix(path, array) -> None:
    a = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_real_matrix(path) -> np.ndarray:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise InvalidInputError(f"{path}: empty matrix file")
    header = text[0].split()
    if len(header) != 2:
        raise InvalidInputError(f"{path}: header must be 'rows cols'")
    rows, cols = (int(h) for h in header)
    flat = [float(tok) for line in text[1:] for tok in line.split()]
    if len(flat) != rows * cols:
        raise InvalidInputError(f"{path}: expected {rows * cols} values")
    return np.array(flat).reshape(rows, cols)


def save_dataset_csv(path, features, labels) -> None:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] != labels.shape[0]:
        raise InvalidInputError("features and labels must pair up")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
        for x, y in zip(features, labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def load_dataset_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise InvalidInputError(f"{path}: expected a trailing 'label' column")
        xs, ys = [], []
        for row in reader:
            xs.append([float(v) for v in row[:-1]])
            ys.append(int(row[-1]))
    return np.array(xs), np.array(ys, dtype=np.int64)
