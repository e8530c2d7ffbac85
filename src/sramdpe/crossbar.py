"""Array data model, drive schemes, and the parasitic-free evaluation path.

Weights are 4-bit words stored across groups of four bit columns whose read
stacks are sized 8:4:2:1, so physically summing the four RBL currents realizes
the binary bit significance. Two drive schemes exist:

* Config-A: analog inputs on the source lines, read word-lines at V_DD.
* Config-B: a constant bias on the source lines, analog inputs on the RWLs.

The packed cells own the array's shape and device profile; an
``Excitation`` owns the drive: its inputs and the rows they drive.
``Excitation.row_drive`` and ``PackedCells.read_ports`` turn the two into
every cell's stack-solve arguments (width multiplier, threshold offsets,
gates, SL drive); the network solver and the Monte Carlo take theirs there.

``ideal_column_currents`` clamps every RBL at the termination voltage and sums
per-cell stack currents; it is the zero-parasitic reference the network solver
must reduce to. The exact dot product an array approximates is a test
oracle (``tests/oracles.py``): line-resistance error% compares the parasitic
solve with the zero-parasitic one, and inference compares with its own
quantized ``IDEAL`` mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

#: Default RBL clamp (ideal-opamp termination) voltage.
DEFAULT_V_CLAMP = 0.1

#: Drive voltages may exceed V_DD by at most this much.
DRIVE_HEADROOM = 0.1


class DriveMode(enum.Enum):
    CONFIG_A = "config_a"
    CONFIG_B = "config_b"


@dataclass(frozen=True)
class InputEncoding:
    """Affine map of activations in [0, 1] onto the linear voltage window."""

    v_low: float = 0.10
    v_high: float = 0.22

    def __post_init__(self):
        if not self.v_high > self.v_low:
            raise InvalidInputError("encoding window must be increasing")

    def encode(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return self.v_low + x * (self.v_high - self.v_low)


#: The Config-A input window: activations 0 to 1 drive the SLs at 0.10-0.22 V.
CONFIG_A_ENCODING = InputEncoding()


@dataclass
class WeightMatrix:
    """rows x words array of unsigned ``WEIGHT_BITS``-bit integers."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.ndim != 2:
            raise InvalidInputError("weight matrix must be 2-D (rows x words)")
        if self.values.size == 0:
            raise InvalidInputError(
                "weight matrix must have at least one row and word")
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


@dataclass
class Excitation:
    """Per-row drive for one dot-product evaluation.

    ``active_rows`` names the driven rows (None: every row), and ``inputs``
    holds one voltage per driven row in ascending row order: the SL voltage
    in Config-A, the RWL voltage in Config-B.
    """

    mode: DriveMode
    inputs: np.ndarray
    v_dd: float = DEFAULT_VDD
    v_bias: float = DEFAULT_V_BIAS
    active_rows: tuple[int, ...] | None = None

    def __post_init__(self):
        self.inputs = np.atleast_1d(np.asarray(self.inputs, dtype=float))
        hi = self.v_dd + DRIVE_HEADROOM
        volts = [self.inputs, np.array([self.v_dd])]
        if self.mode is DriveMode.CONFIG_B:
            volts.append(np.array([self.v_bias]))
        for v in volts:
            if not np.all(np.isfinite(v)):
                raise InvalidInputError("non-finite excitation voltage")
            if np.any(v < 0) or np.any(v > hi):
                raise InvalidInputError(f"excitation voltage outside [0, {hi}]")
        if self.active_rows is not None:
            rows = tuple(self.active_rows)
            if len(rows) == 0:
                raise InvalidInputError("active_rows must be nonempty")
            if len(set(rows)) != len(rows):
                raise InvalidInputError("active_rows must be distinct")
            self.active_rows = rows

    def driven_rows(self, n_rows: int) -> np.ndarray:
        """Ascending indices of the driven rows of an ``n_rows`` array."""
        if self.active_rows is None:
            return np.arange(n_rows)
        rows = np.sort(self.active_rows)
        if rows[0] < 0 or rows[-1] >= n_rows:
            raise InvalidInputError("active_rows outside [0, rows)")
        return rows

    def row_drive(self, n_rows: int,
                  termination_voltage: float) -> tuple[np.ndarray, np.ndarray]:
        """(SL, RWL) voltage of every row of an ``n_rows`` array.

        Driven rows carry the inputs. Idle rows sit at the zero-current
        convention: Config-A parks their SLs at the column termination
        voltage (RWL at V_DD); Config-B keeps the shared bias rail and gates
        them off with RWL = 0.
        """
        active = self.driven_rows(n_rows)
        if len(self.inputs) != len(active):
            raise InvalidInputError("excitation inputs must match active rows")
        if self.mode is DriveMode.CONFIG_A:
            sl = np.full(n_rows, termination_voltage)
            rwl = np.full(n_rows, self.v_dd)
            sl[active] = self.inputs
        else:
            sl = np.full(n_rows, self.v_bias)
            rwl = np.zeros(n_rows)
            rwl[active] = self.inputs
        return sl, rwl


@dataclass
class PackedCells:
    """Bit-level cell grid: stored bits, each word's columns sized
    ``SIZING_RATIOS`` (MSB first)."""

    data_bits: np.ndarray          # rows x bit_columns, {0, 1}
    profile: DeviceParams = DeviceParams()

    @property
    def rows(self) -> int:
        return self.data_bits.shape[0]

    @property
    def bit_columns(self) -> int:
        return self.data_bits.shape[1]

    @property
    def multipliers(self) -> np.ndarray:
        """Width multiplier of every bit column."""
        return np.tile(np.asarray(SIZING_RATIOS, dtype=np.int64),
                       self.bit_columns // WEIGHT_BITS)

    def read_ports(self, e: Excitation, termination_voltage: float,
                   rows=slice(None), vt_offsets: np.ndarray | None = None):
        """Stack-solve arguments ``(m, dvt1, dvt2, gate1, gate2, v_sl)`` of
        ``rows``, for devices of ``profile``.

        ``rows`` indexes the array rows (default: all), driven by
        ``e.row_drive``. ``m`` is each bit column's width multiplier. The
        M1/M2 threshold offsets are 0.0 unless ``vt_offsets`` is given,
        shaped ``(..., rows, bit_columns, 2)`` (M1, M2 last); its leading
        axes carry through.
        """
        sl, rwl = e.row_drive(self.rows, termination_voltage)
        dvt1 = dvt2 = 0.0
        if vt_offsets is not None:
            off = vt_offsets[..., rows, :, :]
            dvt1, dvt2 = off[..., 0], off[..., 1]
        gate1 = np.where(self.data_bits[rows] > 0, e.v_dd, 0.0)
        gate2 = np.broadcast_to(rwl[rows, np.newaxis], gate1.shape)
        return (self.multipliers, dvt1, dvt2, gate1, gate2,
                sl[rows, np.newaxis])


def pack_weights(m: WeightMatrix,
                 profile: DeviceParams = DeviceParams()) -> PackedCells:
    """Expand a word matrix into the sized bit-cell grid.

    Word value w at (i, j) maps to bit columns (4j..4j+3) holding
    (w3, w2, w1, w0) with width multipliers (8, 4, 2, 1).
    """
    bits = (m.values[:, :, np.newaxis] >> _SHIFTS) & 1
    return PackedCells(bits.reshape(m.rows, -1).astype(np.uint8), profile)


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
    ports = cells.read_ports(e, termination_voltage, vt_offsets=vt_offsets)
    i_cells, _ = stack_current_arrays(cells.profile, *ports,
                                      termination_voltage)
    return ColumnCurrents.from_bit_columns(i_cells.sum(axis=-2))
