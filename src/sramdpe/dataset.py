"""Bundled desk-scale 8x8 digit set.

Ten glyph prototypes are perturbed with seeded shifts, contrast jitter and
pixel noise to generate an arbitrarily sized, fully deterministic dataset.
Features are near-binary in [0, 1] (64 per sample), which also keeps the
analog evaluation path close to its exactly-calibrated endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GLYPHS = {
    0: (
        "..###...",
        ".#...#..",
        ".#...#..",
        ".#...#..",
        ".#...#..",
        ".#...#..",
        "..###...",
        "........",
    ),
    1: (
        "...#....",
        "..##....",
        "...#....",
        "...#....",
        "...#....",
        "...#....",
        "..###...",
        "........",
    ),
    2: (
        "..###...",
        ".#...#..",
        ".....#..",
        "....#...",
        "...#....",
        "..#.....",
        ".#####..",
        "........",
    ),
    3: (
        "..###...",
        ".#...#..",
        ".....#..",
        "...##...",
        ".....#..",
        ".#...#..",
        "..###...",
        "........",
    ),
    4: (
        "....#...",
        "...##...",
        "..#.#...",
        ".#..#...",
        ".#####..",
        "....#...",
        "....#...",
        "........",
    ),
    5: (
        ".#####..",
        ".#......",
        ".####...",
        ".....#..",
        ".....#..",
        ".#...#..",
        "..###...",
        "........",
    ),
    6: (
        "..###...",
        ".#......",
        ".####...",
        ".#...#..",
        ".#...#..",
        ".#...#..",
        "..###...",
        "........",
    ),
    7: (
        ".#####..",
        ".....#..",
        "....#...",
        "....#...",
        "...#....",
        "...#....",
        "...#....",
        "........",
    ),
    8: (
        "..###...",
        ".#...#..",
        ".#...#..",
        "..###...",
        ".#...#..",
        ".#...#..",
        "..###...",
        "........",
    ),
    9: (
        "..###...",
        ".#...#..",
        ".#...#..",
        "..####..",
        ".....#..",
        ".....#..",
        "..###...",
        "........",
    ),
}

N_CLASSES = 10


def _prototype(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])


def _shift(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(img)
    src_y = slice(max(0, -dy), min(8, 8 - dy))
    src_x = slice(max(0, -dx), min(8, 8 - dx))
    dst_y = slice(max(0, dy), min(8, 8 + dy))
    dst_x = slice(max(0, dx), min(8, 8 + dx))
    out[dst_y, dst_x] = img[src_y, src_x]
    return out


@dataclass
class DigitDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def generate_digits(n_train_per_class: int = 120, n_test_per_class: int = 40,
                    seed: int = 7, noise_sigma: float = 0.10) -> DigitDataset:
    """Deterministic digit set; features in [0, 1], labels 0..9."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 8, 8)))
    n_per = n_train_per_class + n_test_per_class
    xs, ys = [], []
    for digit in range(N_CLASSES):
        proto = _prototype(digit)
        for _ in range(n_per):
            dy, dx = rng.integers(-1, 2, size=2)
            img = _shift(proto, int(dy), int(dx))
            img = img * rng.uniform(0.85, 1.0)
            img = img + rng.normal(0.0, noise_sigma, size=img.shape)
            xs.append(np.clip(img, 0.0, 1.0).ravel())
            ys.append(digit)
    x = np.array(xs)
    y = np.array(ys, dtype=np.int64)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    n_test = n_test_per_class * N_CLASSES
    return DigitDataset(
        train_x=x[n_test:], train_y=y[n_test:],
        test_x=x[:n_test], test_y=y[:n_test],
    )
