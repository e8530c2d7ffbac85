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
    """Deterministic digit set; features in [0, 1], labels 0..9.

    Each image draws its shift, contrast gain and pixel noise in that order,
    class by class, and the set is then shuffled; the images themselves are
    assembled for all samples at once.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 8, 8)))
    n_per = n_train_per_class + n_test_per_class
    y = np.repeat(np.arange(N_CLASSES, dtype=np.int64), n_per)
    shifts = np.empty((y.size, 2), dtype=np.int64)
    gains = np.empty(y.size)
    noise = np.empty((y.size, 64))
    for k in range(y.size):
        shifts[k] = rng.integers(-1, 2, size=2)
        gains[k] = rng.uniform(0.85, 1.0)
        noise[k] = rng.normal(0.0, noise_sigma, size=64)
    order = rng.permutation(y.size)
    x, y, shifts = noise[order], y[order], shifts[order] + 1
    del noise
    # Every prototype at each of the nine (dy, dx) shifts, indexed by +1.
    glyphs = np.array([[[_shift(_prototype(d), dy, dx).ravel()
                         for dx in (-1, 0, 1)] for dy in (-1, 0, 1)]
                       for d in range(N_CLASSES)])
    img = glyphs[y, shifts[:, 0], shifts[:, 1]]
    img *= gains[order, None]
    x += img
    del img
    np.clip(x, 0.0, 1.0, out=x)
    n_test = n_test_per_class * N_CLASSES
    return DigitDataset(
        train_x=x[n_test:], train_y=y[n_test:],
        test_x=x[:n_test], test_y=y[:n_test],
    )
