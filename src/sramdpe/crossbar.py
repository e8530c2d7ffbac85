"""Array data model, drive schemes, and the parasitic-free evaluation path.

Weights are 4-bit words stored across groups of four bit columns whose read
stacks are sized 8:4:2:1, so physically summing the four RBL currents realizes
the binary bit significance. Two drive schemes exist:

* Config-A: analog inputs on the source lines, read word-lines at V_DD.
* Config-B: a constant bias on the source lines, analog inputs on the RWLs.

``Excitation.row_drive`` and ``PackedCells.read_ports`` own the drive of a
cell grid; the network solver and the Monte Carlo take theirs from there.

``ideal_column_currents`` clamps every RBL at the termination voltage and sums
per-cell stack currents; it is the zero-parasitic reference the network solver
must reduce to. ``ideal_dot_product`` is the exact arithmetic an array
approximates. No error metric in the package uses it: line-resistance error%
compares the parasitic solve with the zero-parasitic one, and inference
compares with its own quantized ``IDEAL`` mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .device import DEFAULT_VDD, DeviceParams, stack_current_arrays
from .errors import InvalidInputError

WEIGHT_BITS = 4
WEIGHT_LEVELS = 2 ** WEIGHT_BITS
SIZING_RATIOS = (8, 4, 2, 1)
_SHIFTS = np.arange(WEIGHT_BITS - 1, -1, -1)   # bit position per column, MSB first

#: Default Config-B source-line bias: keeps the read stack bounded by M1
#: saturation (input-side immunity) while leaving headroom above the 0.1 V
#: column clamp.
DEFAULT_V_BIAS = 0.3


class DriveMode(enum.Enum):
    CONFIG_A = "config_a"
    CONFIG_B = "config_b"


@dataclass
class WeightMatrix:
    """rows x words array of unsigned ``WEIGHT_BITS``-bit integers."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.ndim != 2:
            raise InvalidInputError("weight matrix must be 2-D (rows x words)")
        if np.any(self.values < 0) or np.any(self.values >= WEIGHT_LEVELS):
            raise InvalidInputError(
                f"weights must lie in [0, {WEIGHT_LEVELS - 1}]"
            )

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def words(self) -> int:
        return self.values.shape[1]

    @classmethod
    def uniform(cls, rows: int, words: int, level: int) -> "WeightMatrix":
        return cls(np.full((rows, words), level))


@dataclass(frozen=True)
class ArrayGeometry:
    """Array shape; the word format is fixed by the engine.

    Every word is ``WEIGHT_BITS`` bit columns sized ``SIZING_RATIOS`` (MSB
    first), so bit columns = word_columns * WEIGHT_BITS. ``active_rows`` is
    the subset driven during a dot product; None means all rows.
    """

    rows: int = 64
    word_columns: int = 32
    active_rows: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.rows < 1 or self.word_columns < 1:
            raise InvalidInputError("geometry must have at least one row and word")
        if self.active_rows is not None:
            rows = tuple(self.active_rows)
            if len(rows) == 0:
                raise InvalidInputError("active_rows must be nonempty")
            if any(r < 0 or r >= self.rows for r in rows):
                raise InvalidInputError("active_rows outside [0, rows)")
            if len(set(rows)) != len(rows):
                raise InvalidInputError("active_rows must be distinct")
            object.__setattr__(self, "active_rows", rows)

    @property
    def bit_columns(self) -> int:
        return self.word_columns * WEIGHT_BITS

    @property
    def multipliers(self) -> np.ndarray:
        """Width multiplier of every bit column."""
        return np.tile(np.asarray(SIZING_RATIOS, dtype=np.int64),
                       self.word_columns)

    @property
    def active(self) -> tuple[int, ...]:
        if self.active_rows is None:
            return tuple(range(self.rows))
        return tuple(sorted(self.active_rows))


@dataclass
class Excitation:
    """Per-row drive for one dot-product evaluation.

    ``inputs`` holds one voltage per active row: the SL voltage in Config-A,
    the RWL voltage in Config-B.
    """

    mode: DriveMode
    inputs: np.ndarray
    v_dd: float = DEFAULT_VDD
    v_bias: float = DEFAULT_V_BIAS

    def __post_init__(self):
        self.inputs = np.atleast_1d(np.asarray(self.inputs, dtype=float))
        hi = self.v_dd + 0.1
        volts = [self.inputs, np.array([self.v_dd])]
        if self.mode is DriveMode.CONFIG_B:
            volts.append(np.array([self.v_bias]))
        for v in volts:
            if not np.all(np.isfinite(v)):
                raise InvalidInputError("non-finite excitation voltage")
            if np.any(v < 0) or np.any(v > hi):
                raise InvalidInputError(f"excitation voltage outside [0, {hi}]")

    def row_drive(self, g: ArrayGeometry,
                  termination_voltage: float) -> tuple[np.ndarray, np.ndarray]:
        """(SL, RWL) voltage of every row of ``g``.

        Active rows carry the inputs. Idle rows sit at the zero-current
        convention: Config-A parks their SLs at the column termination
        voltage (RWL at V_DD); Config-B keeps the shared bias rail and gates
        them off with RWL = 0.
        """
        active = np.asarray(g.active)
        if len(self.inputs) != len(active):
            raise InvalidInputError("excitation inputs must match active rows")
        if self.mode is DriveMode.CONFIG_A:
            sl = np.full(g.rows, termination_voltage)
            rwl = np.full(g.rows, self.v_dd)
            sl[active] = self.inputs
        else:
            sl = np.full(g.rows, self.v_bias)
            rwl = np.zeros(g.rows)
            rwl[active] = self.inputs
        return sl, rwl


@dataclass
class PackedCells:
    """Bit-level cell grid: stored bits, sized by ``geometry.multipliers``."""

    geometry: ArrayGeometry
    data_bits: np.ndarray          # rows x bit_columns, {0, 1}
    profile: DeviceParams = field(default_factory=DeviceParams)

    def read_ports(self, e: Excitation, termination_voltage: float,
                   g: ArrayGeometry | None = None, rows=slice(None),
                   vt_offsets: np.ndarray | None = None):
        """Stack-solve arguments ``(m1, m2, gate1, gate2, v_sl)`` of ``rows``.

        ``rows`` indexes the array rows (default: all), driven by
        ``e.row_drive`` on ``g`` (default: the packed geometry). Parameter
        tuples hold arrays only where a value varies; optional threshold
        offsets are shaped ``(..., rows, bit_columns, 2)`` (M1, M2 last) and
        their leading axes carry through.
        """
        sl, rwl = e.row_drive(g if g is not None else self.geometry,
                              termination_voltage)
        p = self.profile
        wl = p.w_over_l * self.geometry.multipliers.astype(float)
        vts = (p.vt0, p.vt0)
        if vt_offsets is not None:
            off = vt_offsets[..., rows, :, :]
            vts = (p.vt0 + off[..., 0], p.vt0 + off[..., 1])
        m1, m2 = ((v, p.k_prime, wl, p.lam, p.subthreshold_i0,
                   p.subthreshold_n, p.phi_t) for v in vts)
        gate1 = np.where(self.data_bits[rows] > 0, e.v_dd, 0.0)
        gate2 = np.broadcast_to(rwl[rows, np.newaxis], gate1.shape)
        return m1, m2, gate1, gate2, sl[rows, np.newaxis]


def pack_weights(m: WeightMatrix, g: ArrayGeometry,
                 profile: DeviceParams | None = None) -> PackedCells:
    """Expand a word matrix into the sized bit-cell grid.

    Word value w at (i, j) maps to bit columns (4j..4j+3) holding
    (w3, w2, w1, w0) with width multipliers (8, 4, 2, 1).
    """
    if m.rows != g.rows or m.words != g.word_columns:
        raise InvalidInputError(
            f"weight matrix {m.rows}x{m.words} does not match geometry "
            f"{g.rows}x{g.word_columns}"
        )
    bits = (m.values[:, :, np.newaxis] >> _SHIFTS) & 1
    data = bits.reshape(g.rows, g.bit_columns).astype(np.uint8)
    return PackedCells(
        geometry=g,
        data_bits=data,
        profile=profile if profile is not None else DeviceParams(),
    )


def unpack_weights(cells: PackedCells) -> WeightMatrix:
    """Inverse of ``pack_weights``."""
    g = cells.geometry
    bits = cells.data_bits.reshape(g.rows, g.word_columns, WEIGHT_BITS)
    return WeightMatrix((bits.astype(np.int64) << _SHIFTS).sum(axis=2))


def ideal_dot_product(inputs, m: WeightMatrix) -> np.ndarray:
    """Exact per-word sum of inputs_i * value_ij."""
    inputs = np.asarray(inputs, dtype=float)
    if not np.all(np.isfinite(inputs)):
        raise InvalidInputError("non-finite dot-product input")
    if inputs.shape[-1] != m.rows:
        raise InvalidInputError("input length must equal weight rows")
    return inputs @ m.values.astype(float)


@dataclass
class ColumnCurrents:
    """Measured output currents: per 4-column word group and per bit column."""

    per_group: np.ndarray
    per_bit_column: np.ndarray

    @classmethod
    def from_bit_columns(cls, bit_currents: np.ndarray) -> "ColumnCurrents":
        """Group sums over the last axis; leading axes carry through."""
        bit_currents = np.asarray(bit_currents)
        groups = bit_currents.reshape(*bit_currents.shape[:-1], -1,
                                      WEIGHT_BITS).sum(axis=-1)
        return cls(per_group=groups, per_bit_column=bit_currents)


def ideal_column_currents(e: Excitation, cells: PackedCells,
                          termination_voltage: float,
                          vt_offsets: np.ndarray | None = None) -> ColumnCurrents:
    """Column currents with every RBL clamped and line resistances ignored.

    Every stack sees its exact drive, so group currents superpose over rows;
    inactive rows sit at the zero-current convention and contribute only
    leakage. Equals the network solve with zero parasitics. Optional
    per-device threshold offsets are as for ``PackedCells.read_ports``; their
    leading axes (e.g. Monte Carlo trials) lead the returned currents.
    """
    m1, m2, g1, g2, v_sl = cells.read_ports(e, termination_voltage,
                                            vt_offsets=vt_offsets)
    i_cells, _, _ = stack_current_arrays(m1, m2, g1, g2, v_sl,
                                         termination_voltage)
    return ColumnCurrents.from_bit_columns(i_cells.sum(axis=-2))
