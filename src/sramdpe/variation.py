"""Threshold-voltage Monte Carlo and the std-vs-current fit of its spread.

Per-device threshold offsets are Gaussian with the width-scaling law of
Pelgrom et al. (IEEE JSSC 24(5), 1989),
sigma_L = sigma_min * sqrt(W_min L_min / (W L)); only W scales with the column
sizing (L is fixed), so a width multiplier m shrinks sigma by sqrt(m).
Sampling is counter-based: every trial owns a Philox stream keyed by
(seed, trial), and a device's draw is its position in that stream, so an
offset depends only on the seed, the trial and the device. ``stream_normals``
owns that keying for every noise stream in the package, the inference noise
included: it derives all of a call's Philox keys in one array pass. A Monte
Carlo call samples its tile's offsets once and reuses them at every grid
point. Each voltage is one clamped-array evaluation
(``ideal_column_currents``) of at most two words, whose bit columns serve
every weight, over all trials and an all-zero offset trial that gives the
nominal current.

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
        if self.sigma_min < 0:
            raise InvalidInputError("sigma_min must be >= 0")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")

    def sigma_for_multiplier(self, multiplier) -> np.ndarray:
        """sigma_L for a device whose width is ``multiplier`` x minimum."""
        m = np.asarray(multiplier, dtype=float)
        return self.sigma_min / np.sqrt(m)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _POOL = 16, 4
_MASK32 = 0xFFFFFFFF


def _philox_keys(entropy) -> np.ndarray:
    """Philox keys of many entropy rows in one array pass.

    ``entropy`` is a (streams, words) uint32 array; row k of the (streams, 2)
    uint64 result equals
    ``np.random.SeedSequence(tuple(row_k)).generate_state(2, np.uint64)``.
    This is SeedSequence's pool mixing and state generation, carried out on
    uint32 columns, whose products wrap modulo 2**32 as SeedSequence's do.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def stream_normals(seed: int, keys, shape) -> np.ndarray:
    """Standard normals of one Philox stream per row of ``keys``.

    Row k is bitwise ``Generator(Philox(SeedSequence((seed, *keys[k]))))
    .standard_normal(shape)``: ``seed`` is a non-negative int of any size,
    split into little-endian 32-bit words as SeedSequence splits it, and
    every key entry is one 32-bit word. All keys come from one
    ``_philox_keys`` pass; one Philox is re-keyed per stream (counter 0,
    empty buffer), so no stream builds a SeedSequence. Returns shape
    ``(streams, *shape)``.
    """
    seed = int(seed)
    keys = np.atleast_2d(np.asarray(keys, dtype=np.int64))
    if seed < 0 or np.any((keys < 0) | (keys > _MASK32)):
        raise InvalidInputError(
            "stream seed must be >= 0 and keys 32-bit unsigned")
    words = [(seed >> s) & _MASK32
             for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.hstack([np.tile(np.array(words, dtype=np.uint32),
                                 (keys.shape[0], 1)),
                         keys.astype(np.uint32)])
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state           # a fresh stream: counter 0, empty buffer
    out = np.empty((keys.shape[0],) + tuple(np.atleast_1d(shape)))
    for row, key in zip(out, _philox_keys(entropy)):
        state["state"]["key"] = key
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
    draws = stream_normals(int(spec.seed) & (2**64 - 1),
                           trial.reshape(-1, 1), m.size)
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
