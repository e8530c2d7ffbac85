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
from the excitation, and numbers the nodes in closed form. A line with no
resistance is one node (a row's SL, or a word group's four RBLs with their
termination), so a parasitic-free network reduces exactly to the clamped
ideal evaluation.
Inactive rows are either modeled in full or collapsed. In lumped mode the
active block connects directly to the periphery, and the idle rows, held OFF
at the first idle row's drive, are one row of cells n_idle times as wide (a
stack's current scales exactly with its width) between one pinned idle SL
node and the terminations: their leakage is a stack current like any other.

Each cell is a pair of node indices, its SL node a and RBL node b,
plus its stack's internal node x; the network holds every cell's nodes, gates
and width multiplier flat in cell order (included rows, row-major, then the
lumped idle row). The solve is a damped Newton iteration on the KCL residual

    f = G v + sum over cells of i(v_a, v_b) (e_a - e_b)

with G the linear conductances (segments and sense resistors) and i the
stack currents. The internal nodes are Newton unknowns too, each with its
own residual f_x = I_M1 - I_M2, but each couples only to its cell's a and b,
so it is eliminated cell by cell (static condensation) and never enters the
sparse system: each stack becomes a two-terminal element with companion
conductances g_sl and g_rbl (``device.stack_companion``). The Jacobian is G
plus every cell's stamps (modified nodal analysis, as in SPICE): g_sl at
(a, a), g_rbl at (a, b), -g_sl at (b, a), -g_rbl at (b, b); after the step
each x moves by its own dx and is clipped to its terminals. The update is
damped (factor halved while the residual grows, restored on success) until
the worst residual over the node unknowns and the internal nodes is below
1e-9 A.

With an ideal-opamp clamp each Newton step is solved by BiCGSTAB (van der
Vorst 1992), preconditioned by the Jacobian's tridiagonal band: in the node
order the SL rows (row-major) and the RBL columns (column-major) are chains
of bandwidth 1, and the only entries off the band are the cells' SL-to-RBL
couplings, about 1e-3 of the diagonal. The band is symmetric positive
definite, so it is factorised once per step as L D L^T with no pivoting
(LAPACK ``dpttrf``; Golub & Van Loan, Matrix Computations, 4.3). A
non-positive pivot, a breakdown, the iteration cap or a non-finite result
falls back to the sparse LU (SuperLU), which also solves every sense-resistor
network: its hub node joins four RBL chains through strong links that do not
belong off the band. The tests run the same loop with dense elimination
(``tests/oracles.py``) as the verification oracle for small networks.

Only a network's first point solves its stacks' internal nodes, by
``device.stack_current_arrays``: there every SL sits at its drive and every
RBL at the termination level, so a stack's inputs depend only on its row's
drive, its stored bit and its bit position. Each distinct input tuple is
solved and linearized once (``_solved_stacks``; a full 64 x 128 network's
8,192 stacks hold 8) and its results copied to its cells. Every later
point carries the internal nodes and evaluates each device once, current
and derivatives, with no inner solve (Nagel, UCB/ERL M520, 1975). Under a
clamp the first point is also the zero-parasitic network's operating point,
so a line-resistance map reads each reference off it instead of solving a
second network. A clamped group's current is the sum of its cells' currents,
the lumped idle row's included.
Independent networks are solved as a batch (``solve_operating_points``):
their first points (``_first_points``) are one ``stack_current_arrays`` call,
which solves the distinct stacks of every network, and one
``stack_companion`` call there, which linearizes them. The batch saves the
kernel's per-call overhead, which dominates on the few hundred to few
thousand stacks of a lumped map network. Each network then runs the one
Newton loop, ``solve_operating_point`` (which solves its own first point when
called alone), with one ``stack_companion`` call per later point. Stack
evaluation is elementwise, so each solution is bitwise that of solving the
network alone. A batch closes once it holds ``_BATCH_CELLS`` cells (one full
64 x 128 model). The sweeps hand their network lists to it, built lazily.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

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
    stack_companion,
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
    """Per-cell line resistances, and how idle rows are modeled.

    ``lumped_inactive``: mesh only the driven rows, joined to the
    terminations by one BL segment (the span between the periphery and the
    active block is not modeled), and carry the idle rows as one row of
    cells held OFF, n_idle times as wide; otherwise mesh every row.
    """

    r_bl_per_cell: float = 1.25
    r_sl_per_cell: float = 2.5
    lumped_inactive: bool = True

    def __post_init__(self):
        if not (self.r_bl_per_cell >= 0 and self.r_sl_per_cell >= 0):
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
        if not self.r > 0:
            raise InvalidInputError("sense resistance must be > 0")


@dataclass(frozen=True)
class IdealOpamp:
    v_pos: float = DEFAULT_V_CLAMP

    def __post_init__(self):
        if not self.v_pos >= 0:
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
    sl_node: np.ndarray              # each cell's SL node, cells row-major
    rbl_node: np.ndarray             # each cell's RBL node, same order
    gate1: np.ndarray                # each cell's M1 gate voltage, same order
    gate2: np.ndarray                # each cell's M2 gate voltage, same order
    profile: DeviceParams            # both devices of every stack, nominal Vt
    m: np.ndarray                    # each cell's width multiplier, same order
    term_nodes: np.ndarray           # termination node per word group
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

    # Node ids: SL block (row-major; one per row with no SL resistance), RBL
    # block (column-major), then one termination per word group (the four
    # RBLs of a group sum into a single converter; with no BL resistance each
    # RBL is its termination). sl_id, rbl_id are [included row, bit column].
    group = np.arange(bc) // WEIGHT_BITS
    sl_id = (np.arange(n_inc * bc).reshape(n_inc, bc) if p.r_sl_per_cell
             else np.repeat(np.arange(n_inc)[:, None], bc, axis=1))
    n_sl = sl_id[-1, -1] + 1
    if p.r_bl_per_cell:
        rbl_id = n_sl + np.arange(bc * n_inc).reshape(bc, n_inc).T
        term_id = n_sl + bc * n_inc + np.arange(words)
    else:
        term_id = n_sl + np.arange(words)
        rbl_id = np.broadcast_to(term_id[group], (n_inc, bc))
    n_nodes = int(term_id[-1]) + 1

    # Segments: SL chains along each row; RBL chains start at the group's
    # termination at the row-0 end (rbl_prev is each RBL node's neighbour
    # towards it) and span the row gap between included rows. In lumped mode
    # the active block attaches through one segment. A zero-resistance
    # segment joins a node to itself and is dropped.
    gaps = np.diff(rows_inc, prepend=rows_inc[0] - 1)
    rbl_prev = np.vstack([term_id[group], rbl_id[:-1]])
    seg_a = np.concatenate([sl_id[:, :-1].ravel(), rbl_prev.T.ravel()])
    seg_b = np.concatenate([sl_id[:, 1:].ravel(), rbl_id.T.ravel()])
    seg_r = np.concatenate([np.full(n_inc * (bc - 1), p.r_sl_per_cell),
                            np.tile(p.r_bl_per_cell * gaps, bc)])
    keep = seg_a != seg_b
    ca, cb, gs = seg_a[keep], seg_b[keep], 1.0 / seg_r[keep]

    # Drive pins: SL drive columns, plus the clamped terminations.
    drive_cols = _drive_columns(d, bc)
    pin = sl_id[:, drive_cols].ravel()
    pin_val = np.repeat(v_sl, len(drive_cols))
    if isinstance(t, IdealOpamp):
        pin = np.concatenate([pin, term_id])
        pin_val = np.concatenate([pin_val, np.full(words, t.v_pos)])

    # Cells by row. In lumped mode the idle rows follow as one row held OFF
    # (M1 gate 0) at the first idle row's drive, n_idle times as wide,
    # between a pinned idle SL node and the terminations.
    cell_sl, cell_rbl, cell_m = sl_id, rbl_id, np.broadcast_to(m, gate1.shape)
    if lumped:
        idle = np.setdiff1d(np.arange(n_rows), active)
        _, _, _, _, idle_rwl, idle_sl = cells.read_ports(e, v_term, idle[:1])
        pin, pin_val = np.append(pin, n_nodes), np.append(pin_val, idle_sl)
        cell_sl = np.vstack([sl_id, np.full(bc, n_nodes)])
        cell_rbl = np.vstack([rbl_id, term_id[group]])
        cell_m = np.vstack([cell_m, len(idle) * m])
        gate1 = np.vstack([gate1, np.zeros(bc)])
        gate2 = np.vstack([gate2, idle_rwl])
        n_nodes += 1

    # Linear conductance matrix over all nodes: the segments, and the sense
    # resistors from the terminations to ground.
    gnd, gnd_g = np.empty(0, dtype=int), np.empty(0)
    if isinstance(t, SenseResistor):
        gnd, gnd_g = term_id, np.full(words, 1.0 / t.r)
    g_lin = sp.csr_matrix(
        (np.concatenate([np.stack([gs, gs, -gs, -gs], 1).ravel(), gnd_g]),
         (np.concatenate([np.stack([ca, cb, ca, cb], 1).ravel(), gnd]),
          np.concatenate([np.stack([ca, cb, cb, ca], 1).ravel(), gnd]))),
        shape=(n_nodes, n_nodes),
    )

    # Initial guess: drives propagated with zero IR drop.
    v_init = np.full(n_nodes, v_term)
    v_init[sl_id] = v_sl
    v_init[pin] = pin_val

    return Network(
        n_nodes=n_nodes,
        unknown=np.delete(np.arange(n_nodes), pin),
        v_init=v_init,
        g_lin=g_lin,
        sl_node=cell_sl.ravel(),
        rbl_node=cell_rbl.ravel(),
        gate1=gate1.ravel(),
        gate2=gate2.ravel(),
        profile=cells.profile,
        m=cell_m.ravel(),
        term_nodes=term_id,
        termination=t,
        v_dd=e.v_dd,
    )


@dataclass
class OperatingPointSolution:
    """Converged DC solution of one network."""

    node_voltages: np.ndarray
    column_currents: ColumnCurrents
    iterations: int
    max_kcl_residual: float      # over the unknowns and the internal nodes
    # Group currents at the initial guess (every SL at its drive, every RBL at
    # the termination level), the lumped idle row's included: under a clamp,
    # the network's group currents with zero line resistance.
    initial_per_group: np.ndarray
    linear_iters: int = 0        # Krylov iterations over the Newton loop
    linear_fallbacks: int = 0    # Newton steps the Krylov solve left to SuperLU


def _kcl(net: Network, v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """KCL residual at ``v`` with cell currents ``i`` (flat, cell order)."""
    n = net.n_nodes
    i_node = np.bincount(net.sl_node, i, n) - np.bincount(net.rbl_node, i, n)
    return net.g_lin @ v + i_node


def _jacobian(net: Network, g_sl: np.ndarray,
              g_rbl: np.ndarray) -> sp.csr_matrix:
    """Residual Jacobian over the unknowns, from the cells' companion
    conductances (flat, cell order)."""
    a, b = net.sl_node, net.rbl_node
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

    The band is symmetric positive definite: its off-diagonal entries are
    segment conductances, stamped both ways, and each diagonal entry is its
    node's conductance sum plus a cell's g_sl >= 0 or -g_rbl >= 0. So it is
    factorised once as L D L^T with no pivoting (``dpttrf``, from its
    diagonal and subdiagonal) and applied by ``dpttrs``. A non-positive
    pivot, a breakdown, the iteration cap or a non-finite result falls back
    to SuperLU.
    """
    if len(rhs) < 3:   # the band is the whole matrix
        return _linsolve_sparse(j_mat, rhs)
    *band, info = dpttrf(j_mat.diagonal(), j_mat.diagonal(-1))
    x, iters = None, 0
    if info == 0:
        x, iters = _bicgstab(j_mat, rhs, lambda b: dpttrs(*band, b)[0])
    if x is None or not np.all(np.isfinite(x)):
        return _linsolve_sparse(j_mat, rhs)[0], iters, True
    return x, iters, False


def _worst_residual(f: np.ndarray, u: np.ndarray, f_x: np.ndarray) -> float:
    """The stopping rule's residual: the largest KCL residual over the
    unknown nodes ``u`` and over the cells' internal nodes (``f_x``)."""
    return float(np.maximum(np.max(np.abs(f[u]), initial=0.0),
                            np.max(np.abs(f_x), initial=0.0)))


def _solved_stacks(p: DeviceParams, m, g1, g2, v_sl, v_rbl):
    """(x, current, f_x, g_sl, g_rbl, dx_f, dx_sl, dx_rbl) of nominal-Vt read
    stacks (``stack_current_arrays`` arguments) at their solved internal
    nodes x: every network's first point, in the arguments' broadcast shape.

    The current is the solved one; the rest is ``stack_companion`` at x.
    Both are elementwise, so each distinct input tuple (m, g1, g2, v_sl,
    v_rbl), by bit pattern, is solved once and its results copied to every
    stack that has it: at a first point a stack's inputs depend only on its
    row's drive, its stored bit and its bit position.
    """
    cols = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                 for a in (m, g1, g2, v_sl, v_rbl)))
    keys = np.stack(cols).reshape(len(cols), -1)
    order = np.lexsort(keys.view(np.int64))
    bits = keys.view(np.int64)[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(bits[:, 1:] != bits[:, :-1], axis=0)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    dm, dg1, dg2, dv_sl, dv_rbl = keys[:, order[first]]
    ports = (p, dm, 0.0, 0.0, dg1, dg2, dv_sl, dv_rbl)
    i, x = stack_current_arrays(*ports)
    return tuple(a[inverse].reshape(cols[0].shape)
                 for a in (x, i, *stack_companion(*ports, x)[1:]))


def _carried_stacks(net: Network, v: np.ndarray, x: np.ndarray):
    """(x, *``stack_companion``) of ``net``'s stacks at node voltages ``v``
    and internal nodes ``x`` clipped to their terminals."""
    v_sl, v_rbl = v[net.sl_node], v[net.rbl_node]
    x = np.minimum(np.maximum(x, np.minimum(v_sl, v_rbl)),
                   np.maximum(v_sl, v_rbl))
    return (x, *stack_companion(net.profile, net.m, 0.0, 0.0, net.gate1,
                                net.gate2, v_sl, v_rbl, x))


def solve_operating_point(net: Network, stacks=None,
                          lin_solve=None) -> OperatingPointSolution:
    """Damped Newton iteration on ``net``'s node voltages and its cells'
    internal nodes.

    ``stacks`` is its first point (``_solved_stacks``, flat in cell order),
    solved here when None; a batch passes its share of one shared solve.
    Each step solves the condensed system of the point it starts from for
    the node update (``lin_solve``; default BiCGSTAB under a clamp, else
    SuperLU), then moves each internal node by its dx; every later point
    evaluates the stacks at the carried nodes (``_carried_stacks``). It
    returns the solution, or raises ``SolverError`` (no convergence, a NaN
    residual or a voltage out of bounds) or ``TopologyError`` (a singular
    step).
    """
    if stacks is None:
        stacks, = _first_points([net])
    lin_solve = lin_solve or (_linsolve_krylov if isinstance(
        net.termination, IdealOpamp) else _linsolve_sparse)
    v = net.v_init.copy()
    u = net.unknown
    x, i_cells, f_x, g_sl, g_rbl, *dx_coef = stacks
    f = _kcl(net, v, i_cells)
    words = net.term_nodes.size
    cell_group = np.arange(i_cells.size) // WEIGHT_BITS % words
    initial = np.bincount(cell_group, i_cells, words)
    res = _worst_residual(f, u, f_x)
    history = [res]
    alpha = 1.0
    iterations = linear_iters = linear_fallbacks = 0
    while res > RESIDUAL_FLOOR and iterations < MAX_NEWTON_ITERS:
        if res <= ACCEPT_RESIDUAL and len(history) >= 2 and history[-2] < 4.0 * res:
            break   # converged and no longer improving: stop polishing
        delta, n_lin, fell_back = lin_solve(_jacobian(net, g_sl, g_rbl), -f[u])
        linear_iters += n_lin
        linear_fallbacks += fell_back
        if not np.all(np.isfinite(delta)):
            raise TopologyError("non-finite Newton update (singular system)")
        step = np.zeros(net.n_nodes)
        step[u] = delta
        dx_f, dx_sl, dx_rbl = dx_coef
        dx = dx_f + dx_sl * step[net.sl_node] + dx_rbl * step[net.rbl_node]
        a = alpha
        while True:
            v_try = v + a * step
            stacks = _carried_stacks(net, v_try, x + a * dx)
            f_try = _kcl(net, v_try, stacks[1])
            res_try = _worst_residual(f_try, u, stacks[2])
            if res_try <= res or a <= MIN_DAMPING:
                break
            a *= 0.5
        (x, i_cells, f_x, g_sl, g_rbl, *dx_coef), v, f, res = (
            stacks, v_try, f_try, res_try)
        alpha = min(1.0, 2.0 * a)
        history.append(res)
        iterations += 1
    if not res <= ACCEPT_RESIDUAL:     # a NaN residual fails too
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
        group_currents = np.bincount(cell_group, i_cells, words)
    return OperatingPointSolution(
        node_voltages=v,
        column_currents=ColumnCurrents(
            per_group=np.asarray(group_currents, dtype=float),
            per_bit_column=i_cells.reshape(-1, words * WEIGHT_BITS).sum(0),
        ),
        iterations=iterations,
        max_kcl_residual=res,
        initial_per_group=initial,
        linear_iters=linear_iters,
        linear_fallbacks=linear_fallbacks,
    )


def _first_points(nets: list[Network]) -> list[tuple]:
    """The first point of each of ``nets`` (``_solved_stacks``, flat in
    cell order), from one call over all their cells, which share one device
    profile; each is a view of that call's arrays."""
    ports = (np.concatenate(p) for p in zip(*(
        (n.m, n.gate1, n.gate2, n.v_init[n.sl_node], n.v_init[n.rbl_node])
        for n in nets)))
    cuts = np.cumsum([n.gate1.size for n in nets])[:-1]
    return list(zip(*(np.split(s, cuts)
                      for s in _solved_stacks(nets[0].profile, *ports))))


def _solve_batch(nets: list[Network]):
    """Yield the solutions of ``nets``, which share one device profile:
    ``_first_points`` solves every network's first point at once, and each
    then runs ``solve_operating_point`` in turn."""
    for net, first in zip(nets, _first_points(nets) if nets else ()):
        yield solve_operating_point(net, first)


# Cells per batch of ``solve_operating_points``: one full 64 x 128 array.
# A network that size closes its batch at once, and a batch's working memory
# stays near that of one of them.
_BATCH_CELLS = 8192


def solve_operating_points(nets):
    """Yield the solution of every network the iterable ``nets`` yields, in
    order.

    Consecutive networks of one device profile are solved together
    (``_solve_batch``); a batch closes once it holds ``_BATCH_CELLS`` cells,
    so a network of that size closes the batch it joins. Networks are drawn
    from ``nets`` as the batches fill and solutions handed out as they
    finish, so a generator of builds consumed as it goes holds about one
    batch in memory. A failure raises the error of the first network that
    fails; the solutions before it have been yielded.
    """
    batch = []
    for net in nets:
        if batch and net.profile != batch[0].profile:
            yield from _solve_batch(batch)
            batch = []
        batch.append(net)
        if sum(n.gate1.size for n in batch) >= _BATCH_CELLS:
            yield from _solve_batch(batch)
            batch = []
    yield from _solve_batch(batch)


# ---------------------------------------------------------------------------
# Standard sweep experiments built on the solver.


@dataclass
class RowScalingPoint:
    n: int
    i_n: float
    ideal: float          # n * i_1
    deviation_pct: float


def uniform_tile_network(n_rows: int, levels, mode: DriveMode,
                         v_in: float, t: Termination, *,
                         profile: DeviceParams, v_dd: float,
                         v_bias: float) -> Network:
    """An n_rows-row tile with one word per entry of ``levels``, each word
    storing its level in every row.

    Every row is driven at ``v_in``; lines are parasitic-free, so each
    solved group current is one word of the cell sweeps or the row-scaling
    curve.
    """
    cells = pack_weights(WeightMatrix(np.tile(levels, (n_rows, 1))), profile)
    e = Excitation(mode, np.full(n_rows, v_in), v_dd=v_dd, v_bias=v_bias)
    return build_network(ZERO_PARASITICS, SingleEnd(), t, e, cells)


def row_scaling_curve(n_list, mode: DriveMode, t: Termination, *,
                      profile: DeviceParams = DeviceParams(),
                      v_dd: float = DEFAULT_VDD,
                      v_bias: float = DEFAULT_V_BIAS) -> list[RowScalingPoint]:
    """I_N vs N * I_1 for the worst-case pattern.

    One word per row, all weights 15, every row at ``WORST_CASE_INPUT[mode]``
    and no line parasitics, so any deviation comes from the termination.
    The tiles are solved as one batch.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise InvalidInputError("row counts must be given, each >= 1")
    counts = [1] + [n for n in n_list if n != 1]
    sols = solve_operating_points(
        uniform_tile_network(n, [15], mode, WORST_CASE_INPUT[mode], t,
                             profile=profile, v_dd=v_dd, v_bias=v_bias)
        for n in counts)
    i_n = {n: float(s.column_currents.per_group[0])
           for n, s in zip(counts, sols)}
    out = []
    for n in n_list:
        ideal = n * i_n[1]
        dev = abs(i_n[n] - ideal) / abs(ideal) * 100.0 if ideal != 0 else 0.0
        out.append(RowScalingPoint(n=n, i_n=i_n[n], ideal=ideal,
                                   deviation_pct=dev))
    return out


@dataclass
class ErrorMapPoint:
    v_in: float
    weight_level: int
    worst_error_pct: float


@dataclass
class VariantError:
    label: str
    mode: DriveMode
    worst_error_pct: float


#: The worst-case bars: (label, drive mode, SL drive variant).
VARIANT_BARS = (
    ("config_a_single_end", DriveMode.CONFIG_A, SingleEnd()),
    ("config_b_single_end", DriveMode.CONFIG_B, SingleEnd()),
    ("config_b_both_ends", DriveMode.CONFIG_B, BothEnds()),
    ("config_b_tapped", DriveMode.CONFIG_B, TappedEvery()),
)


def line_resistance_errors(voltages, weight_levels, n_active: int,
                           variant: SlDriveVariant, mode: DriveMode, *,
                           rows: int = 64, words: int = 32,
                           parasitics: ParasiticSpec = ParasiticSpec(),
                           t: Termination = IdealOpamp(),
                           profile: DeviceParams = DeviceParams(),
                           v_dd: float = DEFAULT_VDD,
                           v_bias: float = DEFAULT_V_BIAS,
                           ) -> tuple[list[ErrorMapPoint], list[VariantError]]:
    """Error%% map over (input voltage, uniform weight level) for
    ``variant`` in ``mode``, and the worst-corner error of each of
    ``VARIANT_BARS`` (its mode's highest input, all weights 15).

    The array is ``rows`` x ``words``. Every scenario drives its
    ``n_active`` rows farthest from the column periphery with one voltage
    and stores one weight everywhere; its scalar is the worst error over
    word groups of the parasitic solve against the zero-parasitic one. All
    scenarios are solved as one ``solve_operating_points`` call. Under a
    clamp the zero-parasitic reference is read off the first point of the
    parasitic solve (``initial_per_group``); a sense-resistor reference has
    an unknown per group and is solved as its own network.
    """
    if n_active > rows:
        raise InvalidInputError("more active rows than the array has")
    grid = [(float(v), int(w)) for w in weight_levels for v in voltages]
    scenarios = ([(mode, variant, v, w) for v, w in grid]
                 + [(m, d, WORST_CASE_INPUT[m], 15) for _, m, d in VARIANT_BARS])
    active = tuple(range(rows - n_active, rows))
    clamped = isinstance(t, IdealOpamp)
    zero = replace(parasitics, r_bl_per_cell=0.0, r_sl_per_cell=0.0)
    cells = {}   # packed array per weight level

    def networks():
        for m, d, v, w in scenarios:
            if w not in cells:
                cells[w] = pack_weights(
                    WeightMatrix.uniform(rows, words, w), profile)
            e = Excitation(m, np.full(n_active, v), v_dd=v_dd, v_bias=v_bias,
                           active_rows=active)
            yield build_network(parasitics, d, t, e, cells[w])
            if not clamped:
                yield build_network(zero, d, t, e, cells[w])

    solutions = solve_operating_points(networks())
    errors = []
    for _ in scenarios:
        sol = next(solutions)
        i_p = sol.column_currents.per_group
        if clamped:
            i_0 = sol.initial_per_group
        else:
            i_0 = next(solutions).column_currents.per_group
        denom = np.maximum(np.abs(i_0), _ERROR_CURRENT_FLOOR)
        errors.append(float(np.max(np.abs(i_p - i_0) / denom * 100.0)))
    return ([ErrorMapPoint(v, w, err) for (v, w), err in zip(grid, errors)],
            [VariantError(label, m, err) for (label, m, _), err
             in zip(VARIANT_BARS, errors[len(grid):])])
