"""Nonlinear DC operating-point solver for the crossbar with line parasitics.

The resistive mesh has one SL node per (row, bit column) and one RBL node per
(bit column, row), chained by per-cell segment resistors; each bit cell is a
two-terminal nonlinear element between its SL and RBL node (gate drives are
fixed by the excitation; ``device.stack_current_arrays`` solves the stack's
internal node for the cells' profile and column widths at nominal Vt). Source
lines are pinned at their drive columns (single end, both ends, or regenerated
taps for Config-B); columns terminate either in a sense resistor to ground or
an ideal-opamp virtual clamp.

Assembly takes the array's shape from the packed cells and the driven rows
from the excitation, and works on index arrays. Zero-resistance segments are
merged into one node (connected components of the shorted segments), so a
parasitic-free network reduces exactly to the clamped ideal evaluation.
Inactive rows are either modeled in full or collapsed: in lumped mode the
skipped BL span plus the aggregated OFF-cell leakage hangs off the
termination as a shunt branch (the active block connects directly to the
periphery).

Each cell is a pair of canonical node indices, its SL node a and RBL node b.
The solve is a damped Newton iteration on the KCL residual

    f = G v + c + sum over cells of i(v_a, v_b) (e_a - e_b)

with G the linear conductances, c the grounded-branch sources and i the
stack currents. Each stack is linearized by its companion conductances
g_sl = di/dv_a and g_rbl = di/dv_b at the solved internal node; the Jacobian
is G plus every cell's stamps (modified nodal analysis, as in SPICE): g_sl at
(a, a), g_rbl at (a, b), -g_sl at (b, a), -g_rbl at (b, b). The update is
damped (factor halved while the residual grows, restored on success) until
the worst node residual is below 1e-9 A.

With an ideal-opamp clamp each Newton step is solved by BiCGSTAB (van der
Vorst 1992), preconditioned by the Jacobian's tridiagonal band: in the
canonical node order the SL rows (row-major) and the RBL columns
(column-major) are chains of bandwidth 1, and the only entries off the band
are the cells' SL-to-RBL couplings, about 1e-3 of the diagonal. The band is
factorised once per step (LAPACK ``dgttrf``). A zero pivot, a breakdown, the
iteration cap or a non-finite result falls back to the sparse LU (SuperLU),
which also solves every sense-resistor network: its hub node joins four RBL
chains through strong links that do not belong off the band. The tests run
the same loop with dense elimination (``tests/oracles.py``) as the
verification oracle for small networks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.csgraph import connected_components

from .crossbar import (
    CONFIG_A_ENCODING,
    DEFAULT_V_BIAS,
    DEFAULT_V_CLAMP,
    DRIVE_HEADROOM,
    WEIGHT_BITS,
    ColumnCurrents,
    DriveMode,
    Excitation,
    PackedCells,
    WeightMatrix,
    pack_weights,
)
from .device import (
    DEFAULT_VDD,
    DeviceParams,
    stack_conductances,
    stack_current_arrays,
)
from .errors import InvalidInputError, SolverError, TopologyError

ACCEPT_RESIDUAL = 1e-9
RESIDUAL_FLOOR = 1e-15
MAX_NEWTON_ITERS = 100
MIN_DAMPING = 1.0 / 1024.0
KRYLOV_RTOL = 1e-14
KRYLOV_MAXITER = 50

#: Highest input of each config's usable range: the Config-A encoding ceiling
#: and the Config-B sweep ceiling. Used for worst-case scenarios.
WORST_CASE_INPUT = {DriveMode.CONFIG_A: CONFIG_A_ENCODING.v_high,
                    DriveMode.CONFIG_B: 0.675}

_ERROR_CURRENT_FLOOR = 1e-12


@dataclass(frozen=True)
class ParasiticSpec:
    """Per-cell line resistances."""

    r_bl_per_cell: float = 1.25
    r_sl_per_cell: float = 2.5
    lumped_inactive: bool = True

    def __post_init__(self):
        if self.r_bl_per_cell < 0 or self.r_sl_per_cell < 0:
            raise InvalidInputError("line resistances must be >= 0")


ZERO_PARASITICS = ParasiticSpec(r_bl_per_cell=0.0, r_sl_per_cell=0.0)


@dataclass(frozen=True)
class SingleEnd:
    pass


@dataclass(frozen=True)
class BothEnds:
    pass


@dataclass(frozen=True)
class TappedEvery:
    """SL regenerated every k bit cells (plus both ends). Config-B only."""

    k: int = 16

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("tap pitch must be >= 1")


SlDriveVariant = SingleEnd | BothEnds | TappedEvery


@dataclass(frozen=True)
class SenseResistor:
    r: float = 50.0

    def __post_init__(self):
        if self.r <= 0:
            raise InvalidInputError("sense resistance must be > 0")


@dataclass(frozen=True)
class IdealOpamp:
    v_pos: float = DEFAULT_V_CLAMP

    def __post_init__(self):
        if self.v_pos < 0:
            raise InvalidInputError("v_pos must be >= 0")


Termination = SenseResistor | IdealOpamp


def termination_voltage(t: Termination) -> float:
    """RBL reference level: the clamp for an opamp, ground for a resistor."""
    return t.v_pos if isinstance(t, IdealOpamp) else 0.0


def _drive_columns(variant: SlDriveVariant, bit_columns: int) -> np.ndarray:
    if isinstance(variant, SingleEnd):
        cols = [0]
    elif isinstance(variant, BothEnds):
        cols = [0, bit_columns - 1]
    else:
        cols = [*range(0, bit_columns, variant.k), bit_columns - 1]
    return np.unique(cols)


@dataclass
class Network:
    """Assembled nodal problem ready for the Newton solve."""

    n_nodes: int
    unknown: np.ndarray              # indices of non-Dirichlet nodes
    v_init: np.ndarray               # initial guess, Dirichlet values included
    g_lin: sp.csr_matrix             # linear conductance matrix, full n x n
    const: np.ndarray                # constant residual term (grounded refs)
    sl_node: np.ndarray              # each cell's SL node, cells row-major
    rbl_node: np.ndarray             # each cell's RBL node, same order
    gate1: np.ndarray                # M1 gate voltage, included rows x bit columns
    gate2: np.ndarray                # M2 gate voltage, same grid
    profile: DeviceParams            # both devices of every stack, nominal Vt
    m: np.ndarray                    # width multiplier per bit column
    term_nodes: np.ndarray           # canonical termination node per word group
    termination: Termination
    v_dd: float


def build_network(p: ParasiticSpec, d: SlDriveVariant, t: Termination,
                  e: Excitation, cells: PackedCells) -> Network:
    """Assemble the resistive mesh + cell elements of ``cells`` driven by
    ``e``."""
    if isinstance(d, TappedEvery) and e.mode is not DriveMode.CONFIG_B:
        raise InvalidInputError(
            "SL tapping requires Config-B: regenerating per-row analog inputs "
            "along the line is infeasible in Config-A"
        )
    n_rows, bc = cells.rows, cells.bit_columns
    words = bc // WEIGHT_BITS
    active = e.driven_rows(n_rows)
    v_term = termination_voltage(t)
    lumped = p.lumped_inactive and len(active) < n_rows
    rows_inc = active if lumped else np.arange(n_rows)
    n_inc = len(rows_inc)
    # Stack drive of the included rows (v_sl is their SL drive, one per row).
    m, _, _, gate1, gate2, v_sl = cells.read_ports(e, v_term, rows_inc)

    # Raw node ids: SL block (row-major), RBL block (column-major), then one
    # termination per word group (the four RBLs of a group sum into a single
    # converter). sl_raw and rbl_raw are indexed [included row, bit column].
    sl_raw = np.arange(n_inc * bc).reshape(n_inc, bc)
    rbl_raw = n_inc * bc + np.arange(bc * n_inc).reshape(bc, n_inc).T
    term_raw = 2 * n_inc * bc + np.arange(words)
    group = np.arange(bc) // WEIGHT_BITS

    # Segments: SL chains along each row; RBL chains start at the group's
    # termination at the row-0 end (rbl_prev is each RBL node's neighbour
    # towards it) and span the row gap between included rows. In lumped mode
    # the active block attaches through one segment; the skipped span is
    # added below as a shunt.
    gaps = np.diff(rows_inc, prepend=rows_inc[0] - 1)
    rbl_prev = np.vstack([term_raw[group], rbl_raw[:-1]])
    seg_a = np.concatenate([sl_raw[:, :-1].ravel(), rbl_prev.T.ravel()])
    seg_b = np.concatenate([sl_raw[:, 1:].ravel(), rbl_raw.T.ravel()])
    seg_r = np.concatenate([np.full(n_inc * (bc - 1), p.r_sl_per_cell),
                            np.tile(p.r_bl_per_cell * gaps, bc)])

    # Merge zero-resistance segments. Components are numbered in order of
    # their lowest raw id, which fixes the canonical node order.
    short = seg_r == 0.0
    n_raw = term_raw[-1] + 1
    shorts = sp.csr_matrix((np.ones(short.sum()), (seg_a[short], seg_b[short])),
                           shape=(n_raw, n_raw))
    n_nodes, canon = connected_components(shorts, directed=False)

    # Drive pins: SL drive columns, plus the clamped terminations.
    drive_cols = _drive_columns(d, bc)
    pin = canon[sl_raw[:, drive_cols]].ravel()
    pin_val = np.repeat(v_sl, len(drive_cols))
    if isinstance(t, IdealOpamp):
        pin = np.concatenate([pin, canon[term_raw]])
        pin_val = np.concatenate([pin_val, np.full(words, t.v_pos)])
    dirichlet_val = np.full(n_nodes, np.nan)
    dirichlet_val[pin] = pin_val
    if np.any(np.abs(dirichlet_val[pin] - pin_val) > 1e-15):
        raise TopologyError(
            "zero-resistance merge shorts two different drive voltages"
        )
    pinned = ~np.isnan(dirichlet_val)

    # Grounded branches (node, conductance, reference voltage): the sense
    # resistors, and in lumped mode the skipped BL span in series with the
    # aggregated OFF leakage of the idle rows, referenced to the idle SL.
    gnd = np.empty(0, dtype=int)
    gnd_g, gnd_ref = np.empty(0), np.empty(0)
    if isinstance(t, SenseResistor):
        gnd = canon[term_raw]
        gnd_g, gnd_ref = np.full(words, 1.0 / t.r), np.zeros(words)
    if lumped:
        n_idle = n_rows - len(active)
        idle_row = np.setdiff1d(np.arange(n_rows), active)[0]
        g_off, idle_sl = _off_stack_conductance(cells, e, v_term, idle_row)
        g_leak = n_idle * g_off
        on = g_leak > 0
        gnd = np.concatenate([gnd, canon[term_raw[group[on]]]])
        gnd_g = np.concatenate(
            [gnd_g, 1.0 / (p.r_bl_per_cell * n_idle + 1.0 / g_leak[on])])
        gnd_ref = np.concatenate([gnd_ref, np.full(on.sum(), idle_sl)])

    # Linear conductance matrix over all canonical nodes.
    ca, cb = canon[seg_a], canon[seg_b]
    keep = ~short & (ca != cb)
    ca, cb, gs = ca[keep], cb[keep], 1.0 / seg_r[keep]
    g_lin = sp.csr_matrix(
        (np.concatenate([np.stack([gs, gs, -gs, -gs], 1).ravel(), gnd_g]),
         (np.concatenate([np.stack([ca, cb, ca, cb], 1).ravel(), gnd]),
          np.concatenate([np.stack([ca, cb, cb, ca], 1).ravel(), gnd]))),
        shape=(n_nodes, n_nodes),
    )
    const = -np.bincount(gnd, weights=gnd_g * gnd_ref, minlength=n_nodes)

    # Initial guess: drives propagated with zero IR drop.
    v_init = np.full(n_nodes, v_term)
    v_init[canon[sl_raw]] = v_sl
    v_init[pinned] = dirichlet_val[pinned]

    return Network(
        n_nodes=n_nodes,
        unknown=np.flatnonzero(~pinned),
        v_init=v_init,
        g_lin=g_lin,
        const=const,
        sl_node=canon[sl_raw].ravel(),   # only included rows carry cells
        rbl_node=canon[rbl_raw].ravel(),
        gate1=gate1,
        gate2=gate2,
        profile=cells.profile,
        m=m,
        term_nodes=canon[term_raw],
        termination=t,
        v_dd=e.v_dd,
    )


def _off_stack_conductance(cells: PackedCells, e: Excitation, v_term: float,
                           row: int):
    """(conductance per bit column, SL drive) of ``row``'s stacks held OFF.

    The stacks take the row's drive with M1 gated off (data = 0), the state
    every idle cell is modeled in.
    """
    m, dvt1, dvt2, _, v_rwl, v_sl = cells.read_ports(e, v_term, [row])
    ports = (cells.profile, m, dvt1, dvt2, 0.0, v_rwl, v_sl, v_term)
    g_sl, _ = stack_conductances(*ports, stack_current_arrays(*ports)[1])
    return np.abs(g_sl)[0], float(v_sl[0, 0])


@dataclass
class OperatingPointSolution:
    """Converged DC solution of one network."""

    node_voltages: np.ndarray
    column_currents: ColumnCurrents
    iterations: int
    max_kcl_residual: float
    linear_iters: int = 0        # Krylov iterations over the Newton loop
    linear_fallbacks: int = 0    # Newton steps the Krylov solve left to SuperLU


def _residual(net: Network, v: np.ndarray):
    """(KCL residual, cell currents, stack internal nodes) at ``v``."""
    shape = net.gate1.shape
    i, x = stack_current_arrays(
        net.profile, net.m, 0.0, 0.0, net.gate1, net.gate2,
        v[net.sl_node].reshape(shape), v[net.rbl_node].reshape(shape),
    )
    i_flat, n = i.ravel(), net.n_nodes
    i_node = (np.bincount(net.sl_node, i_flat, n)
              - np.bincount(net.rbl_node, i_flat, n))
    return net.g_lin @ v + net.const + i_node, i, x


def _jacobian(net: Network, v: np.ndarray, x: np.ndarray) -> sp.csr_matrix:
    """Residual Jacobian over the unknowns; ``x`` from ``_residual(net, v)``."""
    a, b = net.sl_node, net.rbl_node
    g_sl, g_rbl = (g.ravel() for g in stack_conductances(
        net.profile, net.m, 0.0, 0.0, net.gate1, net.gate2,
        v[a].reshape(x.shape), v[b].reshape(x.shape), x,
    ))
    stamps = sp.csr_matrix(
        (np.concatenate([g_sl, g_rbl, -g_sl, -g_rbl]),
         (np.concatenate([a, a, b, b]), np.concatenate([a, b, a, b]))),
        shape=(net.n_nodes, net.n_nodes),
    )
    u = net.unknown
    return (net.g_lin + stamps)[u][:, u]


# A Newton-step solve ``lin_solve(j_mat, rhs)`` returns (solution, Krylov
# iterations, whether it fell back to SuperLU).


def _linsolve_sparse(j_mat: sp.csr_matrix, rhs: np.ndarray):
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            return spla.spsolve(j_mat.tocsc(), rhs), 0, False
        except (spla.MatrixRankWarning, RuntimeError) as exc:
            raise TopologyError(f"singular nodal system: {exc}") from exc


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return np.einsum("i,i", a, b)   # unthreaded, unlike BLAS ddot


def _bicgstab(j_mat: sp.csr_matrix, rhs: np.ndarray, precond):
    """(solution, iterations) of right-preconditioned BiCGSTAB from zero.

    The solution is None on a breakdown or at ``KRYLOV_MAXITER``.
    """
    x, r = np.zeros_like(rhs), rhs.copy()
    p = v = np.zeros_like(rhs)
    stop = KRYLOV_RTOL * np.sqrt(_dot(rhs, rhs))
    rho_prev = alpha = omega = 1.0
    for it in range(KRYLOV_MAXITER):
        rho = _dot(rhs, r)
        if rho == 0.0 or not np.isfinite(rho) or omega == 0.0:
            return None, it
        p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
        p_hat = precond(p)
        v = j_mat @ p_hat
        alpha = rho / _dot(rhs, v)
        s = r - alpha * v
        if np.sqrt(_dot(s, s)) <= stop:
            return x + alpha * p_hat, it + 1
        s_hat = precond(s)
        t = j_mat @ s_hat
        omega = _dot(t, s) / _dot(t, t)
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        if np.sqrt(_dot(r, r)) <= stop:
            return x, it + 1
        rho_prev = rho
    return None, KRYLOV_MAXITER


def _linsolve_krylov(j_mat: sp.csr_matrix, rhs: np.ndarray):
    """BiCGSTAB preconditioned by the tridiagonal band of ``j_mat``.

    The band is factorised once (``dgttrf``) and applied by ``dgttrs``. A
    zero pivot, a breakdown, the iteration cap or a non-finite result falls
    back to SuperLU.
    """
    if len(rhs) < 3:   # the band is the whole matrix (and dgttrf needs n >= 3)
        return _linsolve_sparse(j_mat, rhs)
    *band, info = dgttrf(j_mat.diagonal(-1), j_mat.diagonal(), j_mat.diagonal(1))
    x, iters = None, 0
    if info == 0:
        x, iters = _bicgstab(j_mat, rhs, lambda b: dgttrs(*band, b)[0])
    if x is None or not np.all(np.isfinite(x)):
        return _linsolve_sparse(j_mat, rhs)[0], iters, True
    return x, iters, False


def _newton_solve(net: Network, lin_solve) -> OperatingPointSolution:
    v = net.v_init.copy()
    u = net.unknown
    f, i_cells, x = _residual(net, v)
    res = float(np.max(np.abs(f[u]))) if len(u) else 0.0
    history = [res]
    alpha = 1.0
    iterations = linear_iters = linear_fallbacks = 0
    while res > RESIDUAL_FLOOR and iterations < MAX_NEWTON_ITERS:
        if res <= ACCEPT_RESIDUAL and len(history) >= 2 and history[-2] < 4.0 * res:
            break   # converged and no longer improving: stop polishing
        delta, n_lin, fell_back = lin_solve(_jacobian(net, v, x), -f[u])
        linear_iters += n_lin
        linear_fallbacks += fell_back
        if not np.all(np.isfinite(delta)):
            raise TopologyError("non-finite Newton update (singular system)")
        a = alpha
        while True:
            v_try = v.copy()
            v_try[u] += a * delta
            f_try, i_try, x_try = _residual(net, v_try)
            res_try = float(np.max(np.abs(f_try[u])))
            if res_try <= res or a <= MIN_DAMPING:
                break
            a *= 0.5
        v, f, i_cells, x, res = v_try, f_try, i_try, x_try, res_try
        alpha = min(1.0, 2.0 * a)
        history.append(res)
        iterations += 1
    if res > ACCEPT_RESIDUAL:
        raise SolverError(
            f"Newton did not reach {ACCEPT_RESIDUAL} A residual "
            f"(final {res:.3e} A after {iterations} iterations)",
            residual_history=history,
        )
    lo, hi = -DRIVE_HEADROOM, net.v_dd + DRIVE_HEADROOM
    if np.any(v < lo - 1e-12) or np.any(v > hi + 1e-12):
        raise SolverError("solution voltage escaped physical bounds",
                          residual_history=history)

    if isinstance(net.termination, SenseResistor):
        group_currents = v[net.term_nodes] / net.termination.r
    else:
        group_currents = -f[net.term_nodes]
    return OperatingPointSolution(
        node_voltages=v,
        column_currents=ColumnCurrents(
            per_group=np.asarray(group_currents, dtype=float),
            per_bit_column=i_cells.sum(axis=0),
        ),
        iterations=iterations,
        max_kcl_residual=res,
        linear_iters=linear_iters,
        linear_fallbacks=linear_fallbacks,
    )


def solve_operating_point(net: Network) -> OperatingPointSolution:
    """Sparse Newton solve of the assembled network."""
    clamped = isinstance(net.termination, IdealOpamp)
    return _newton_solve(net, _linsolve_krylov if clamped else _linsolve_sparse)


# ---------------------------------------------------------------------------
# Standard sweep experiments built on the solver.


@dataclass
class RowScalingPoint:
    n: int
    i_n: float
    ideal: float          # n * i_1
    deviation_pct: float


def uniform_tile_current(n_rows: int, level: int, mode: DriveMode, v_in: float,
                         t: Termination, *, profile: DeviceParams,
                         v_dd: float, v_bias: float) -> float:
    """Group current of an n_rows x 1-word tile storing ``level`` everywhere.

    Every row is driven at ``v_in``; lines are parasitic-free, so this is the
    solved single word of the cell sweeps and the row-scaling curve.
    """
    cells = pack_weights(WeightMatrix.uniform(n_rows, 1, level), profile)
    e = Excitation(mode, np.full(n_rows, v_in), v_dd=v_dd, v_bias=v_bias)
    net = build_network(ZERO_PARASITICS, SingleEnd(), t, e, cells)
    return float(solve_operating_point(net).column_currents.per_group[0])


def row_scaling_curve(n_list, mode: DriveMode, t: Termination, *,
                      profile: DeviceParams = DeviceParams(),
                      v_dd: float = DEFAULT_VDD,
                      v_bias: float = DEFAULT_V_BIAS) -> list[RowScalingPoint]:
    """I_N vs N * I_1 for the worst-case pattern.

    One word per row, all weights 15, every row at ``WORST_CASE_INPUT[mode]``
    and no line parasitics, so any deviation comes from the termination.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise InvalidInputError("row counts must be given, each >= 1")

    def group_current(n):
        return uniform_tile_current(n, 15, mode, WORST_CASE_INPUT[mode], t,
                                    profile=profile, v_dd=v_dd, v_bias=v_bias)

    i_1 = group_current(1)
    out = []
    for n in n_list:
        i_n = i_1 if n == 1 else group_current(n)
        ideal = n * i_1
        dev = abs(i_n - ideal) / abs(ideal) * 100.0 if ideal != 0 else 0.0
        out.append(RowScalingPoint(n=n, i_n=i_n, ideal=ideal, deviation_pct=dev))
    return out


@dataclass
class ErrorMapPoint:
    v_in: float
    weight_level: int
    worst_error_pct: float


def _scenario_error(parasitics: ParasiticSpec, drive: SlDriveVariant,
                    t: Termination, e: Excitation,
                    cells: PackedCells) -> np.ndarray:
    """Per-group error%% of the parasitic solve vs the zero-parasitic solve."""
    zero = replace(parasitics, r_bl_per_cell=0.0, r_sl_per_cell=0.0)
    sol = solve_operating_point(build_network(parasitics, drive, t, e, cells))
    ref = solve_operating_point(build_network(zero, drive, t, e, cells))
    i_p = sol.column_currents.per_group
    i_0 = ref.column_currents.per_group
    denom = np.maximum(np.abs(i_0), _ERROR_CURRENT_FLOOR)
    return np.abs(i_p - i_0) / denom * 100.0


def line_resistance_error_map(voltages, weight_levels, n_active: int,
                              variant: SlDriveVariant, mode: DriveMode, *,
                              rows: int = 64, words: int = 32,
                              parasitics: ParasiticSpec = ParasiticSpec(),
                              t: Termination = IdealOpamp(),
                              profile: DeviceParams = DeviceParams(),
                              v_dd: float = DEFAULT_VDD,
                              v_bias: float = DEFAULT_V_BIAS) -> list[ErrorMapPoint]:
    """Error%% grid over (input voltage, uniform weight level).

    The array is ``rows`` x ``words``. Every grid point drives its
    ``n_active`` rows farthest from the column periphery with the same
    voltage and stores the same weight everywhere. The per-point scalar is
    the worst error over word groups.
    """
    if n_active > rows:
        raise InvalidInputError("more active rows than the array has")
    active = tuple(range(rows - n_active, rows))
    out = []
    for w in weight_levels:
        cells = pack_weights(WeightMatrix.uniform(rows, words, int(w)), profile)
        for v in voltages:
            e = Excitation(mode, np.full(n_active, float(v)), v_dd=v_dd,
                           v_bias=v_bias, active_rows=active)
            errs = _scenario_error(parasitics, variant, t, e, cells)
            out.append(ErrorMapPoint(
                v_in=float(v), weight_level=int(w),
                worst_error_pct=float(np.max(errs)),
            ))
    return out


@dataclass
class VariantError:
    label: str
    mode: DriveMode
    worst_error_pct: float


def variant_worst_case_errors(n_active: int, *, rows: int = 64,
                              words: int = 32,
                              parasitics: ParasiticSpec = ParasiticSpec(),
                              t: Termination = IdealOpamp(),
                              profile: DeviceParams = DeviceParams(),
                              v_dd: float = DEFAULT_VDD,
                              v_bias: float = DEFAULT_V_BIAS) -> list[VariantError]:
    """Worst-corner (max input, all weights 15) error for the drive variants."""
    combos = [
        ("config_a_single_end", DriveMode.CONFIG_A, SingleEnd()),
        ("config_b_single_end", DriveMode.CONFIG_B, SingleEnd()),
        ("config_b_both_ends", DriveMode.CONFIG_B, BothEnds()),
        ("config_b_tapped", DriveMode.CONFIG_B, TappedEvery()),
    ]
    out = []
    for label, mode, variant in combos:
        pts = line_resistance_error_map(
            [WORST_CASE_INPUT[mode]], [15], n_active, variant, mode,
            rows=rows, words=words, parasitics=parasitics, t=t,
            profile=profile, v_dd=v_dd, v_bias=v_bias,
        )
        out.append(VariantError(label=label, mode=mode,
                                worst_error_pct=pts[0].worst_error_pct))
    return out
