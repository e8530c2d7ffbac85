"""Threshold-voltage Monte Carlo and the std-vs-current fit of its spread.

Per-device threshold offsets are Gaussian with the width-scaling law of
Pelgrom et al. (IEEE JSSC 24(5), 1989),
sigma_L = sigma_min * sqrt(W_min L_min / (W L)); only W scales with the column
sizing (L is fixed), so a width multiplier m shrinks sigma by sqrt(m).
Sampling is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): Philox is keyed once from the seed, every trial owns the
stream whose high counter words hold the trial, and a device's draw is its
position in that stream, so an offset depends only on the seed, the trial and
the device. ``stream_normals`` owns that counter layout for every noise
stream in the package, the inference noise included. A Monte Carlo call
samples its tile's offsets once and reuses them at every grid point. Each
voltage is one clamped-array evaluation (``ideal_column_currents``) of at
most two words, whose bit columns serve every weight, over all trials and an
all-zero offset trial that gives the nominal current.

The column statistics feed a degree-2 zero-intercept polynomial fit of the
current's standard deviation versus its mean; the fit is the surrogate
``nn`` uses to inject per-tile Gaussian noise (``nn._add_tile_noise``)
instead of re-running full Monte Carlo per inference. The tests check the
Monte Carlo against the scalar stack oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import (
    _SHIFTS,
    DEFAULT_V_BIAS,
    DEFAULT_V_CLAMP,
    SIZING_RATIOS,
    WEIGHT_BITS,
    WEIGHT_LEVELS,
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from .device import DEFAULT_VDD, DeviceParams
from .errors import InvalidInputError


@dataclass(frozen=True)
class VariationSpec:
    """Monte Carlo setup: minimum-device sigma, seed, trials.

    With W = m * W_min and L = L_min the Pelgrom area ratio is m alone.
    """

    sigma_min: float = 0.030
    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        if not self.sigma_min >= 0:
            raise InvalidInputError("sigma_min must be >= 0")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")

    def sigma_for_multiplier(self, multiplier) -> np.ndarray:
        """sigma_L for a device whose width is ``multiplier`` x minimum."""
        m = np.asarray(multiplier, dtype=float)
        return self.sigma_min / np.sqrt(m)


def stream_normals(seed: int, keys, shape) -> np.ndarray:
    """Standard normals of one Philox stream per row of ``keys``.

    Philox is keyed once per call, by
    ``np.random.SeedSequence(seed).generate_state(2, np.uint64)``; ``seed``
    is a non-negative int of any size. Each row of ``keys`` holds at most
    three stream ids in [0, 2**64), which fill counter words 1-3 (missing
    ids are 0); word 0 starts at 0 and counts the stream's blocks, so a draw
    depends only on the seed, the ids and its position. Row k is bitwise
    ``Generator(Philox(counter=[0, *keys[k]], key=key)).standard_normal(
    shape)``. One Philox is re-set per stream (its counter and an empty
    buffer), and nothing is hashed per stream. Returns shape
    ``(streams, *shape)``.
    """
    seed = int(seed)
    ids = np.atleast_2d(np.asarray(keys, dtype=object))
    if (seed < 0 or ids.ndim != 2 or ids.shape[1] > 3
            or np.any((ids < 0) | (ids >= 2**64))):
        raise InvalidInputError("stream seed must be >= 0 and each key row "
                                "at most three ids in [0, 2**64)")
    counters = np.zeros((ids.shape[0], 4), dtype=np.uint64)
    counters[:, 1:1 + ids.shape[1]] = ids
    bitgen = np.random.Philox(
        key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state           # a fresh stream: counter 0, empty buffer
    out = np.empty((ids.shape[0],) + tuple(np.atleast_1d(shape)))
    for row, counter in zip(out, counters):
        state["state"]["counter"] = counter
        bitgen.state = state
        row[...] = gen.standard_normal(row.shape)
    return out


def sample_vt_offsets(spec: VariationSpec, multipliers, trial) -> np.ndarray:
    """Threshold offsets for every device of one trial or an array of trials.

    ``multipliers`` is the per-device width multiplier array; the device index
    is its position. Deterministic per (seed, trial, position). An array of
    trials puts the trials on the leading axes, shape
    ``trial.shape + multipliers.shape``.
    """
    m = np.asarray(multipliers, dtype=float)
    trial = np.asarray(trial)
    draws = stream_normals(spec.seed, trial.reshape(-1, 1), m.size)
    return draws.reshape(trial.shape + m.shape) * spec.sigma_for_multiplier(m)


@dataclass
class MonteCarloPoint:
    v_in: float
    weight_level: int
    mean_current: float
    std_current: float
    nominal_current: float


def monte_carlo_stats(voltages, weight_levels, spec: VariationSpec, *,
                      n_rows: int = 16, mode: DriveMode = DriveMode.CONFIG_B,
                      profile: DeviceParams = DeviceParams(),
                      v_dd: float = DEFAULT_VDD,
                      v_bias: float = DEFAULT_V_BIAS,
                      v_clamp: float = DEFAULT_V_CLAMP) -> list[MonteCarloPoint]:
    """Mean/std of the group current per (voltage, weight) grid point.

    The scenario is an n_rows x 1-word tile with uniform inputs and uniform
    weights, RBL clamped (parasitic-free). Every trial keeps its device
    offsets across the grid. A clamped cell's current depends on the weight
    only through its stored bit, so each voltage is one evaluation of the
    first level's word and, if needed, its complement on the same devices;
    every weight picks its bit columns from them. Trial 0 of that evaluation
    has zero offsets and gives ``nominal_current``. Statistics use the
    sample estimator (ddof=1).
    """
    if np.size(weight_levels) == 0:
        return []
    levels = WeightMatrix(np.reshape(weight_levels, (1, -1))).values[0]
    w0 = int(levels[0])
    words = [w0, w0 ^ (WEIGHT_LEVELS - 1)] if np.any(levels != w0) else [w0]
    cells = pack_weights(WeightMatrix(np.tile(words, (n_rows, 1))), profile)
    # Offsets are indexed (trial, row, bit column, M1/M2); trial 0 is nominal.
    devices = np.broadcast_to(np.asarray(SIZING_RATIOS)[:, np.newaxis],
                              (n_rows, WEIGHT_BITS, 2))
    offsets = np.tile(np.concatenate(
        [np.zeros((1,) + devices.shape),
         sample_vt_offsets(spec, devices, np.arange(spec.trials))]
    ), (1, 1, len(words), 1))
    bits = [ideal_column_currents(Excitation(mode, np.full(n_rows, float(v)),
                                             v_dd=v_dd, v_bias=v_bias),
                                  cells, v_clamp, offsets).per_bit_column
            for v in voltages]
    column = np.arange(WEIGHT_BITS)
    out = []
    for w in levels:
        # Word 0 holds w0's bits, word 1 their complement.
        word = ((w ^ w0) >> _SHIFTS) & 1
        for v, per_bit in zip(voltages, bits):
            current = per_bit[:, word * WEIGHT_BITS + column].sum(axis=-1)
            trials = current[1:]
            spread = spec.trials > 1 and np.ptp(trials) > 0.0
            std = float(np.std(trials, ddof=1)) if spread else 0.0   # degenerate
            out.append(MonteCarloPoint(
                v_in=float(v), weight_level=int(w),
                mean_current=float(np.mean(trials)), std_current=std,
                nominal_current=float(current[0])))
    return out


@dataclass
class StdVsCurrentFit:
    """std(I) ~ a*I + b*I^2, zero intercept, clamped to its fit domain.

    ``residual_rms`` is the root-mean-square per-point fit residual; the
    same current can arise from different (voltage, weight) mixes with
    different spreads, so some scatter is inherent.
    """

    coeff_linear: float
    coeff_quadratic: float
    domain: tuple[float, float]
    residual_rms: float

    def __call__(self, current) -> np.ndarray:
        c = np.clip(np.asarray(current, dtype=float), *self.domain)
        val = self.coeff_linear * c + self.coeff_quadratic * c * c
        return np.maximum(val, 0.0)


#: Fewest (current, std) points ``fit_std_vs_current`` accepts.
MIN_FIT_POINTS = 10


def fit_std_vs_current(points) -> StdVsCurrentFit:
    """Least-squares degree-2 zero-intercept fit of (current, std) pairs."""
    pts = [(float(c), float(s)) for c, s in points]
    if len(pts) < MIN_FIT_POINTS:
        raise InvalidInputError(
            f"need at least {MIN_FIT_POINTS} points for the std fit")
    cur = np.array([p[0] for p in pts])
    std = np.array([p[1] for p in pts])
    dom = (float(cur.min()), float(cur.max()))
    if np.allclose(std, 0.0) or np.allclose(cur, 0.0):
        return StdVsCurrentFit(0.0, 0.0, dom,
                               float(np.sqrt(np.mean(std * std))))
    basis = np.column_stack([cur, cur * cur])
    coef, *_ = np.linalg.lstsq(basis, std, rcond=None)
    resid = float(np.sqrt(np.mean((basis @ coef - std) ** 2)))
    return StdVsCurrentFit(float(coef[0]), float(coef[1]), dom, resid)
