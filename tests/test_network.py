from unittest import mock

import numpy as np
import pytest
from scipy.optimize import brentq

from sramdpe.crossbar import (
    DEFAULT_V_CLAMP,
    WEIGHT_BITS,
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from sramdpe.device import (
    DeviceParams,
    stack_companion,
    stack_current_arrays,
)
from sramdpe import network
from sramdpe.errors import InvalidInputError, SolverError
from sramdpe.network import (
    BothEnds,
    IdealOpamp,
    ParasiticSpec,
    SenseResistor,
    SingleEnd,
    TappedEvery,
    VARIANT_BARS,
    ZERO_PARASITICS,
    _carried_stacks,
    _first_points,
    _jacobian,
    _kcl,
    _solved_stacks,
    build_network,
    line_resistance_errors,
    row_scaling_curve,
    solve_operating_point,
    solve_operating_points,
)

from oracles import ReadStack, dense_oracle_solve, stack_current


def _simple_case(rows=2, words=1, level=15, v_in=0.2):
    cells = pack_weights(WeightMatrix.uniform(rows, words, level))
    e = Excitation(DriveMode.CONFIG_A, np.full(rows, v_in))
    return cells, e


def _zero_line_case(mode):
    """8 rows x 2 words of random weights, rows 4-7 driven at random."""
    rng = np.random.default_rng(3)
    cells = pack_weights(WeightMatrix(rng.integers(0, 16, (8, 2))))
    lo, hi = (0.1, 0.22) if mode is DriveMode.CONFIG_A else (0.45, 0.675)
    e = Excitation(mode, rng.uniform(lo, hi, 4), v_bias=0.3,
                   active_rows=(4, 5, 6, 7))
    return cells, e


def _random_network(rng):
    rows = int(rng.integers(1, 9))
    words = int(rng.integers(1, 9))
    cells = pack_weights(WeightMatrix(rng.integers(0, 16, (rows, words))))
    mode = DriveMode.CONFIG_A if rng.random() < 0.5 else DriveMode.CONFIG_B
    if mode is DriveMode.CONFIG_A:
        inputs = rng.uniform(0.1, 0.22, rows)
    else:
        inputs = rng.uniform(0.45, 0.675, rows)
    e = Excitation(mode, inputs, v_bias=0.3)
    p = ParasiticSpec(
        r_bl_per_cell=float(rng.uniform(0, 3)),
        r_sl_per_cell=float(rng.uniform(0, 5)),
    )
    if rng.random() < 0.5:
        t = SenseResistor(float(rng.uniform(20, 200)))
    else:
        t = IdealOpamp(float(rng.uniform(0.0, 0.12)))
    variants = [SingleEnd(), BothEnds()]
    if mode is DriveMode.CONFIG_B:
        variants.append(TappedEvery(int(rng.integers(1, 9))))
    d = variants[rng.integers(0, len(variants))]
    return build_network(p, d, t, e, cells)


class TestBuildNetwork:
    def test_1x1_zero_parasitics_is_two_nodes(self):
        cells, e = _simple_case(rows=1)
        net = build_network(ZERO_PARASITICS, SingleEnd(), IdealOpamp(0.1),
                            e, cells)
        assert net.n_nodes == 2
        sol = solve_operating_point(net)
        expect = sum(
            stack_current(ReadStack(width_multiplier=m), 0.2, 0.1, 0.65, 1)
            for m in (8, 4, 2, 1)
        )
        assert sol.column_currents.per_group[0] == pytest.approx(expect, rel=1e-12)

    def test_node_count_formula(self):
        rows, words = 16, 4
        cells = pack_weights(WeightMatrix.uniform(rows, words, 15))
        e = Excitation(DriveMode.CONFIG_A, np.full(rows, 0.2))
        net = build_network(ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        bit_cols = words * 4
        assert net.n_nodes == rows * bit_cols * 2 + words

    def test_both_ends_doubles_drive_pins(self):
        cells, e = _simple_case(rows=3)
        single = build_network(ParasiticSpec(), SingleEnd(),
                               SenseResistor(), e, cells)
        both = build_network(ParasiticSpec(), BothEnds(),
                             SenseResistor(), e, cells)
        n_pinned_single = single.n_nodes - len(single.unknown)
        n_pinned_both = both.n_nodes - len(both.unknown)
        assert n_pinned_both == n_pinned_single + 3   # one extra pin per row

    def test_tapping_is_config_b_only(self):
        cells, e = _simple_case()
        with pytest.raises(InvalidInputError):
            build_network(ParasiticSpec(), TappedEvery(16),
                          IdealOpamp(), e, cells)

    def test_input_length_must_match_active_rows(self):
        cells, _ = _simple_case(rows=3)
        e = Excitation(DriveMode.CONFIG_A, [0.2, 0.2])
        with pytest.raises(InvalidInputError):
            build_network(ZERO_PARASITICS, SingleEnd(), IdealOpamp(),
                          e, cells)

    @pytest.mark.parametrize("make", [
        lambda: ParasiticSpec(r_sl_per_cell=np.nan),
        lambda: ParasiticSpec(r_bl_per_cell=np.nan),
        lambda: SenseResistor(np.nan),
        lambda: IdealOpamp(np.nan),
    ], ids=["r_sl", "r_bl", "sense_r", "v_pos"])
    def test_nan_parameter_is_rejected(self, make):
        with pytest.raises(InvalidInputError):
            make()

    @pytest.mark.parametrize("lumped", [True, False], ids=["lumped", "full"])
    @pytest.mark.parametrize("r_sl, r_bl, n_lumped, n_full", [
        (0.0, 1.25, 39, 74), (2.5, 0.0, 35, 66), (0.0, 0.0, 7, 10),
    ], ids=["sl", "bl", "both"])
    def test_zero_resistance_line_is_one_node(self, r_sl, r_bl, n_lumped,
                                              n_full, lumped):
        """8 rows x 2 words, 4 active: a row's SL with no resistance is one
        node, and with no BL resistance every RBL of a word group is its
        termination; a resistive line keeps a node per cell. The lumped
        idle row sits between one pinned SL node of its own and the
        terminations."""
        cells, e = _zero_line_case(DriveMode.CONFIG_B)
        net = build_network(ParasiticSpec(r_bl, r_sl, lumped), BothEnds(),
                            IdealOpamp(), e, cells)
        assert net.n_nodes == (n_lumped if lumped else n_full)
        n_inc = (4 if lumped else 8) * 8   # cells of the included rows
        sl = net.sl_node[:n_inc].reshape(-1, 8)
        rbl = net.rbl_node[:n_inc].reshape(-1, 8)
        if lumped:
            idle_sl, idle_rbl = net.sl_node[n_inc:], net.rbl_node[n_inc:]
            assert idle_sl.size == 8 and np.all(idle_sl == idle_sl[0])
            assert idle_sl[0] not in net.unknown
            assert not np.isin(idle_sl, sl).any()
            assert np.array_equal(idle_rbl,
                                  net.term_nodes[np.arange(8) // WEIGHT_BITS])
        if r_sl == 0.0:
            assert np.all(sl == sl[:, :1])
            assert len(np.unique(sl)) == len(sl)
        else:
            assert len(np.unique(sl)) == sl.size
        if r_bl == 0.0:
            assert np.all(rbl == net.term_nodes[np.arange(8) // WEIGHT_BITS])
        else:
            assert len(np.unique(rbl)) == rbl.size
            assert not np.isin(rbl, net.term_nodes).any()
        assert not np.isin(sl, net.rbl_node).any()

    @pytest.mark.parametrize("mode", list(DriveMode), ids=["a", "b"])
    @pytest.mark.parametrize("line, t, rtol", [
        ("r_sl_per_cell", IdealOpamp(), 1e-9),
        ("r_sl_per_cell", SenseResistor(), 1e-9),
        ("r_bl_per_cell", SenseResistor(), 1e-7),
        ("r_bl_per_cell", IdealOpamp(), 1e-7),
    ], ids=["sl-clamp", "sl-sense", "bl-sense", "bl-clamp"])
    def test_tiny_line_resistance_approaches_the_merged_node(
            self, line, t, rtol, mode):
        """A line of 1e-6 ohm per cell reads what the same line merged into
        one node reads, lumped and full."""
        cells, e = _zero_line_case(mode)
        for lumped in (True, False):
            tiny, merged = (solve_operating_point(build_network(
                ParasiticSpec(lumped_inactive=lumped, **{line: r}),
                BothEnds(), t, e, cells)).column_currents.per_group
                for r in (1e-6, 0.0))
            assert np.allclose(tiny, merged, rtol=rtol, atol=0.0)


class TestSolve:
    def test_all_zero_weights_leakage_only(self):
        cells, e = _simple_case(rows=4, level=0)
        net = build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(0.1),
                            e, cells)
        sol = solve_operating_point(net)
        assert np.all(np.abs(sol.column_currents.per_group) <= 4 * 4 * 10e-12)
        assert sol.max_kcl_residual <= 1e-9

    def test_sparse_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = _random_network(rng)
            sparse = solve_operating_point(net)
            dense = dense_oracle_solve(net)
            denom = np.maximum(np.abs(dense.column_currents.per_group), 1e-15)
            rel = np.abs(
                sparse.column_currents.per_group
                - dense.column_currents.per_group
            ) / denom
            assert np.max(rel) <= 1e-9
            assert sparse.max_kcl_residual <= 1e-9
            assert dense.max_kcl_residual <= 1e-9

    def test_idle_rows_and_lumped_shunt(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            rows = int(rng.integers(3, 9))
            words = int(rng.integers(1, 4))
            n_active = int(rng.integers(1, rows))
            active = tuple(int(r) for r in
                           rng.choice(rows, n_active, replace=False))
            cells = pack_weights(
                WeightMatrix(rng.integers(0, 16, (rows, words))))
            mode = DriveMode.CONFIG_A if rng.random() < 0.5 else DriveMode.CONFIG_B
            if mode is DriveMode.CONFIG_A:
                inputs = rng.uniform(0.1, 0.22, n_active)
                variants = [SingleEnd(), BothEnds()]
            else:
                inputs = rng.uniform(0.45, 0.675, n_active)
                variants = [SingleEnd(), BothEnds(),
                            TappedEvery(int(rng.integers(1, 9)))]
            e = Excitation(mode, inputs, v_bias=0.3, active_rows=active)
            d = variants[rng.integers(0, len(variants))]
            p = ParasiticSpec(
                r_bl_per_cell=float(rng.uniform(0, 3)),
                r_sl_per_cell=float(rng.uniform(0, 5)),
                lumped_inactive=bool(rng.random() < 0.5),
            )
            opamp = IdealOpamp(float(rng.uniform(0.0, 0.12)))
            t = SenseResistor(float(rng.uniform(20, 200))) \
                if rng.random() < 0.5 else opamp

            net = build_network(p, d, t, e, cells)
            sparse = solve_operating_point(net).column_currents.per_group
            dense = dense_oracle_solve(net).column_currents.per_group
            rel = np.abs(sparse - dense) / np.maximum(np.abs(dense), 1e-15)
            assert np.max(rel) <= 1e-9

            full_zero = ParasiticSpec(r_bl_per_cell=0.0, r_sl_per_cell=0.0,
                                      lumped_inactive=False)
            sol = solve_operating_point(
                build_network(full_zero, d, opamp, e, cells)
            )
            ideal = ideal_column_currents(e, cells, opamp.v_pos).per_group
            assert np.allclose(sol.column_currents.per_group, ideal,
                               rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("t", [IdealOpamp(), SenseResistor()],
                             ids=["clamp", "sense-resistor"])
    @pytest.mark.parametrize("mode", list(DriveMode), ids=["a", "b"])
    def test_lumped_idle_rows_equal_the_full_model_at_zero_resistance(
            self, mode, t):
        """With no line resistance and idle rows storing 0, the lumped idle
        row is the idle rows' cells, n_idle times as wide: its group
        currents equal the full model's."""
        rng = np.random.default_rng(7)
        weights = np.zeros((16, 2), dtype=int)
        weights[12:] = rng.integers(0, 16, (4, 2))
        cells = pack_weights(WeightMatrix(weights))
        lo, hi = (0.1, 0.22) if mode is DriveMode.CONFIG_A else (0.45, 0.675)
        e = Excitation(mode, rng.uniform(lo, hi, 4),
                       active_rows=(12, 13, 14, 15))
        lumped, full = (solve_operating_point(build_network(
            ParasiticSpec(0.0, 0.0, lumped_inactive=lumped), SingleEnd(), t,
            e, cells)).column_currents.per_group for lumped in (True, False))
        assert np.allclose(lumped, full, rtol=1e-12, atol=0.0)

    def test_zero_parasitic_solve_equals_clamped_ideal(self):
        rng = np.random.default_rng(23)
        cells = pack_weights(WeightMatrix(rng.integers(0, 16, (5, 3))))
        e = Excitation(DriveMode.CONFIG_A, rng.uniform(0.12, 0.22, 5))
        net = build_network(ZERO_PARASITICS, SingleEnd(), IdealOpamp(0.1),
                            e, cells)
        sol = solve_operating_point(net)
        ideal = ideal_column_currents(e, cells, 0.1)
        assert np.allclose(sol.column_currents.per_group, ideal.per_group,
                           rtol=1e-9)

    def test_1x1_sense_resistor_matches_scalar_root_find(self):
        cells, e = _simple_case(rows=1, v_in=0.2)
        net = build_network(ZERO_PARASITICS, SingleEnd(),
                            SenseResistor(50.0), e, cells)
        sol = solve_operating_point(net)

        def column(v_t):
            return sum(
                stack_current(ReadStack(width_multiplier=m), 0.2, v_t, 0.65, 1)
                for m in (8, 4, 2, 1)
            )

        v_t = brentq(lambda v: column(v) - v / 50.0, 0.0, 0.65, xtol=1e-15)
        assert sol.column_currents.per_group[0] == pytest.approx(
            v_t / 50.0, rel=1e-9
        )

    def test_64_rows_worst_case_compresses(self):
        cells, e = _simple_case(rows=64, v_in=0.22)
        net = build_network(ZERO_PARASITICS, SingleEnd(),
                            SenseResistor(50.0), e, cells)
        i64 = solve_operating_point(net).column_currents.per_group[0]
        cells1, e1 = _simple_case(rows=1, v_in=0.22)
        net1 = build_network(ZERO_PARASITICS, SingleEnd(),
                             SenseResistor(50.0), e1, cells1)
        i1 = solve_operating_point(net1).column_currents.per_group[0]
        assert 1e-4 < i64 < 1e-2          # milliamp order
        assert i64 < 64 * i1              # strictly below the ideal sum

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(31)
        net = _random_network(rng)
        a = solve_operating_point(net)
        rng = np.random.default_rng(31)
        b = solve_operating_point(_random_network(rng))
        assert np.array_equal(a.node_voltages, b.node_voltages)
        assert np.array_equal(a.column_currents.per_group,
                              b.column_currents.per_group)

    def test_dense_oracle_node_cap(self):
        cells = pack_weights(WeightMatrix.uniform(32, 8, 15))
        e = Excitation(DriveMode.CONFIG_A, np.full(32, 0.2))
        net = build_network(ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        assert net.n_nodes > 1000
        with pytest.raises(InvalidInputError):
            dense_oracle_solve(net)


def _companion_at(net, v, x=None):
    """(internal nodes, cell currents, f_x, g_sl, g_rbl, dx_f, dx_sl, dx_rbl)
    of ``net`` at node voltages ``v``, as the Newton loop uses them: at
    internal nodes ``x``, or at solved ones where ``x`` is None."""
    if x is not None:
        return _carried_stacks(net, v, x)
    return _solved_stacks(net.profile, net.m, net.gate1, net.gate2,
                          v[net.sl_node], v[net.rbl_node])


def _residual(net, v):
    """KCL residual of ``net`` at node voltages ``v``."""
    return _kcl(net, v, _companion_at(net, v)[1])


def _jacobian_at(net, v):
    """Newton Jacobian of ``net`` at node voltages ``v``."""
    return _jacobian(net, *_companion_at(net, v)[3:5])


def _first_newton_step(net):
    """(Jacobian, right-hand side) of the first Newton step of ``net``."""
    v = net.v_init.copy()
    return _jacobian_at(net, v), -_residual(net, v)[net.unknown]


def _assert_band_spd(j_mat):
    """The Krylov preconditioner's premise: the tridiagonal band of
    ``j_mat`` is symmetric and has an L D L^T factor with positive
    pivots."""
    from scipy.linalg.lapack import dpttrf

    assert np.array_equal(j_mat.diagonal(1), j_mat.diagonal(-1))
    assert dpttrf(j_mat.diagonal(), j_mat.diagonal(-1))[2] == 0


class TestKrylovStep:
    @pytest.mark.parametrize("mode, variant", [
        (DriveMode.CONFIG_A, SingleEnd()),
        (DriveMode.CONFIG_B, SingleEnd()),
        (DriveMode.CONFIG_B, BothEnds()),
        (DriveMode.CONFIG_B, TappedEvery()),
    ], ids=["a-single", "b-single", "b-both", "b-tapped"])
    def test_full_array_step_matches_superlu(self, mode, variant):
        from sramdpe.network import (
            WORST_CASE_INPUT, _linsolve_krylov, _linsolve_sparse,
        )

        cells = pack_weights(WeightMatrix.uniform(64, 32, 15))
        e = Excitation(mode, np.full(16, WORST_CASE_INPUT[mode]),
                       active_rows=tuple(range(48, 64)))
        p = ParasiticSpec(lumped_inactive=False)
        net = build_network(p, variant, IdealOpamp(), e, cells)
        j_mat, rhs = _first_newton_step(net)
        assert j_mat.shape[0] > 15000
        _assert_band_spd(j_mat)
        direct, _, _ = _linsolve_sparse(j_mat, rhs)
        krylov, iters, fell_back = _linsolve_krylov(j_mat, rhs)
        assert not fell_back and 0 < iters <= 20
        rel = np.max(np.abs(krylov - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-12

    def test_lumped_band_is_symmetric_positive_definite(self):
        _assert_band_spd(_first_newton_step(_damped_network())[0])

    def test_small_clamped_network_matches_dense_oracle(self):
        cells, e = _simple_case(rows=4, words=2, v_in=0.22)
        net = build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(),
                            e, cells)
        sol = solve_operating_point(net)
        assert sol.linear_iters > 0 and sol.linear_fallbacks == 0
        dense = dense_oracle_solve(net).column_currents.per_group
        rel = np.abs(sol.column_currents.per_group - dense) / np.abs(dense)
        assert np.max(rel) <= 1e-9

    def test_iteration_cap_falls_back_to_superlu(self, monkeypatch):
        from sramdpe import network
        from sramdpe.network import _linsolve_sparse

        cells, e = _simple_case(rows=4, words=2, v_in=0.22)
        net = build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(),
                            e, cells)
        j_mat, rhs = _first_newton_step(net)
        direct = solve_operating_point(net, lin_solve=_linsolve_sparse)
        monkeypatch.setattr(network, "KRYLOV_MAXITER", 0)
        x, iters, fell_back = network._linsolve_krylov(j_mat, rhs)
        assert fell_back and iters == 0
        assert np.array_equal(x, _linsolve_sparse(j_mat, rhs)[0])

        capped = solve_operating_point(net)
        assert capped.linear_fallbacks == capped.iterations >= 1
        assert capped.linear_iters == 0
        assert np.array_equal(capped.node_voltages, direct.node_voltages)

    def test_zero_pivot_band_falls_back_to_superlu(self):
        import scipy.sparse as sp
        from sramdpe.network import _linsolve_krylov, _linsolve_sparse

        # The band [[1,1,0],[1,1,0],[0,0,1]] is singular; the matrix is not.
        j_mat = sp.csr_matrix(np.array([[1.0, 1.0, 1.0],
                                        [1.0, 1.0, 0.0],
                                        [1.0, 0.0, 1.0]]))
        rhs = np.array([1.0, 2.0, 3.0])
        x, iters, fell_back = _linsolve_krylov(j_mat, rhs)
        assert fell_back and iters == 0
        assert np.array_equal(x, _linsolve_sparse(j_mat, rhs)[0])
        assert np.allclose(j_mat @ x, rhs, rtol=0, atol=1e-14)

    def test_sense_resistor_network_takes_no_krylov_step(self):
        cells, e = _simple_case(rows=4, words=2, v_in=0.22)
        net = build_network(ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        sol = solve_operating_point(net)
        assert sol.iterations >= 1
        assert sol.linear_iters == 0 and sol.linear_fallbacks == 0


def _jacobian_case(case):
    """A small network of each assembly kind, for the Jacobian check."""
    active = (3, 4, 5, 6)
    cells = pack_weights(
        WeightMatrix(np.random.default_rng(5).integers(0, 16, (8, 2))))
    e = Excitation(DriveMode.CONFIG_A, np.linspace(0.12, 0.22, len(active)),
                   active_rows=active)
    if case == "clamped-full":
        return build_network(ParasiticSpec(lumped_inactive=False),
                             BothEnds(), IdealOpamp(), e, cells)
    if case == "lumped-shunt":
        return build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(),
                             e, cells)
    if case == "sense-resistor":
        return build_network(ParasiticSpec(), SingleEnd(),
                             SenseResistor(), e, cells)
    # Zero parasitics: each word group's 4 x 8 cells share one RBL node.
    e = Excitation(DriveMode.CONFIG_A, np.linspace(0.12, 0.22, 8))
    return build_network(ZERO_PARASITICS, SingleEnd(), SenseResistor(),
                         e, cells)


class TestJacobian:
    @pytest.mark.parametrize("case", ["clamped-full", "lumped-shunt",
                                      "sense-resistor", "zero-parasitic"])
    def test_matches_central_differences(self, case):
        """The stamped Jacobian is the derivative of the KCL residual.

        Central differences with a 1e-5 V step agree with it to about
        1e-10 of the largest entry; the bound is 1e-6 of it. Where lines
        have resistance their conductances dominate and the cell stamps
        reach only about 2e-4 of the largest entry, so a stamp with a
        flipped sign still exceeds the bound a hundredfold or more.
        """
        net = _jacobian_case(case)
        u = net.unknown
        v = solve_operating_point(net).node_voltages
        jac = _jacobian_at(net, v).toarray()
        h = 1e-5
        fd = np.empty_like(jac)
        for k, node in enumerate(u):
            step = np.zeros(net.n_nodes)
            step[node] = h
            fd[:, k] = (_residual(net, v + step)[u]
                        - _residual(net, v - step)[u]) / (2 * h)
        if case == "zero-parasitic":
            assert len(u) == 2 and net.n_nodes == 8 + 2
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestCondensedStacks:
    """Later Newton points carry the internal nodes and linearize the
    stacks there instead of solving them (``stack_companion``)."""

    @pytest.mark.parametrize("case", ["clamped-full", "lumped-shunt",
                                      "sense-resistor", "zero-parasitic"])
    def test_condensed_jacobian_equals_the_solved_node_jacobian(self, case):
        """At internal nodes solved by ``stack_current_arrays`` the mismatch
        f_x is about 1e-20 A, so the condensed step is the stamped one: the
        same Jacobian, bitwise, as ``_jacobian`` of the solved node's
        ``stack_companion`` conductances,
        and cell currents (with their +b1 f_x / D term) within 1e-18 A of
        the solved ones."""
        net = _jacobian_case(case)
        v = solve_operating_point(net).node_voltages
        x, i_solved, *_ = _companion_at(net, v)
        x_used, i, f_x, g_sl, g_rbl, *_ = _companion_at(net, v, x)
        assert np.array_equal(x_used, x)       # inside the terminals
        ports = (net.m, 0.0, 0.0, net.gate1, net.gate2, v[net.sl_node],
                 v[net.rbl_node])
        stamped = _jacobian(net, *stack_companion(net.profile, *ports, x)[2:4])
        condensed = _jacobian(net, g_sl, g_rbl)
        assert (stamped != condensed).nnz == 0
        assert np.max(np.abs(f_x)) <= 1e-18
        assert np.max(np.abs(i - i_solved)) <= 1e-18

    def test_internal_nodes_stay_between_their_terminals(self):
        net = _jacobian_case("clamped-full")
        v = net.v_init
        x = _companion_at(net, v)[0]
        far = np.where(np.arange(x.size) % 2, -1.0, 2.0)
        clipped = _companion_at(net, v, x + far)[0]
        v_sl, v_rbl = v[net.sl_node], v[net.rbl_node]
        assert np.array_equal(clipped, np.where(
            far > 0, np.maximum(v_sl, v_rbl), np.minimum(v_sl, v_rbl)))

    def test_converged_internal_nodes_balance_both_devices(self):
        """The solution's cell currents are the solved stacks' at its node
        voltages, to the stopping rule's floor."""
        net = _damped_network()
        sol = solve_operating_point(net)
        assert sol.iterations >= 2
        i_solved = _companion_at(net, sol.node_voltages)[1]
        bit_columns = net.term_nodes.size * WEIGHT_BITS
        per_column = i_solved.reshape(-1, bit_columns).sum(axis=0)
        assert np.allclose(sol.column_currents.per_bit_column, per_column,
                           rtol=1e-9, atol=0.0)


def _every_stack_solved(p, m, g1, g2, v_sl, v_rbl):
    """``_solved_stacks`` computed on every stack, none shared."""
    ports = (p, m, 0.0, 0.0, g1, g2, v_sl, v_rbl)
    i, x = stack_current_arrays(*ports)
    return (x, i, *stack_companion(*ports, x)[1:])


def _first_point_ports(*nets):
    """The ``_solved_stacks`` arguments of ``_first_points(nets)``: the
    device profile, then each stack input flat over all their cells. The
    call is stopped there, so nothing is solved."""
    with mock.patch.object(network, "_solved_stacks",
                           side_effect=LookupError) as solve:
        with pytest.raises(LookupError):
            _first_points(list(nets))
    return solve.call_args.args


def _distinct_stacks(*nets):
    """How many bitwise-distinct first-point stack inputs ``nets`` hold."""
    cols = _first_point_ports(*nets)[1:]
    return len(np.unique(np.stack(cols, axis=1).view(np.int64), axis=0))


class TestFirstPointStacks:
    """A first point solves each distinct stack input once
    (``_solved_stacks``) and copies its results to every stack that has
    it."""

    @pytest.mark.parametrize("mode, inputs", [
        (DriveMode.CONFIG_A, (0.1, 0.22)), (DriveMode.CONFIG_B, (0.45, 0.675)),
    ], ids=["config-a", "config-b"])
    def test_equals_every_stack_solved_bitwise(self, mode, inputs):
        """Random weights and a different drive on every row."""
        rng = np.random.default_rng(11)
        cells = pack_weights(WeightMatrix(rng.integers(0, 16, (16, 8))))
        e = Excitation(mode, rng.uniform(*inputs, 16), v_bias=0.3)
        net = build_network(ParasiticSpec(lumped_inactive=False), BothEnds(),
                            IdealOpamp(), e, cells)
        assert _distinct_stacks(net) < net.gate1.size
        got, = _first_points([net])
        want = _every_stack_solved(*_first_point_ports(net))
        assert len(got) == len(want) == 8
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_off_state_row_keeps_its_shape(self):
        """One row's read ports, a (1, bit columns) row whose M1 gate and
        RBL are scalars, keep that shape: the lumped idle row's drive."""
        cells = pack_weights(WeightMatrix(
            np.random.default_rng(3).integers(0, 16, (8, 2))))
        e = Excitation(DriveMode.CONFIG_B, np.full(4, 0.6),
                       active_rows=(4, 5, 6, 7))
        m, _, _, _, v_rwl, v_sl = cells.read_ports(e, DEFAULT_V_CLAMP, [0])
        args = (cells.profile, m, 0.0, v_rwl, v_sl, DEFAULT_V_CLAMP)
        got = _solved_stacks(*args)
        want = _every_stack_solved(*args)
        for a, b in zip(got, want):
            assert a.shape == b.shape == (1, 8) and np.array_equal(a, b)


class TestRowScaling:
    def test_n1_deviation_zero_and_monotone_sense(self):
        pts = row_scaling_curve([1, 8, 16], DriveMode.CONFIG_A,
                                SenseResistor(50.0))
        assert pts[0].deviation_pct == 0.0
        assert pts[2].deviation_pct > pts[1].deviation_pct > 0

    def test_opamp_deviation_negligible(self):
        pts = row_scaling_curve([1, 8, 32], DriveMode.CONFIG_A,
                                IdealOpamp(0.1))
        assert all(p.deviation_pct <= 0.5 for p in pts)

    def test_deviation_nondecreasing_in_sense_resistance(self):
        devs = []
        for r in (25.0, 50.0, 100.0):
            pts = row_scaling_curve([1, 16], DriveMode.CONFIG_A,
                                    SenseResistor(r))
            devs.append(pts[-1].deviation_pct)
        assert devs[0] <= devs[1] <= devs[2]


class TestLineResistance:
    def test_weight_zero_error_negligible(self):
        pts = line_resistance_errors(
            [0.675], [0], 4, TappedEvery(2), DriveMode.CONFIG_B,
            rows=8, words=2,
        )[0]
        assert pts[0].worst_error_pct <= 1.0

    def test_error_monotone_in_voltage(self):
        pts = line_resistance_errors(
            [0.5, 0.55, 0.6, 0.675], [15], 4, TappedEvery(4),
            DriveMode.CONFIG_B,
            rows=8, words=2,
        )[0]
        errs = [p.worst_error_pct for p in pts]
        for a, b in zip(errs, errs[1:]):
            assert b >= a - 1e-3

    def test_absolute_deviation_monotone_in_weight(self):
        prev = -1.0
        for w in (1, 5, 10, 15):
            pts = line_resistance_errors(
                [0.675], [w], 4, TappedEvery(4), DriveMode.CONFIG_B,
                rows=8, words=2,
            )[0]
            # reconstruct the absolute deviation from the % map
            zero = ParasiticSpec(r_bl_per_cell=0, r_sl_per_cell=0)
            cells = pack_weights(WeightMatrix.uniform(8, 2, w))
            e = Excitation(DriveMode.CONFIG_B, np.full(4, 0.675), v_bias=0.3,
                           active_rows=tuple(range(4, 8)))
            ref = solve_operating_point(
                build_network(zero, TappedEvery(4), IdealOpamp(), e, cells)
            ).column_currents.per_group
            abs_dev = pts[0].worst_error_pct / 100.0 * np.max(np.abs(ref))
            assert abs_dev >= prev - 1e-15
            prev = abs_dev

    @pytest.mark.xfail(
        strict=True,
        reason="relative error is not monotone in weight level: words like "
        "10 (bits 1010) concentrate current in high-significance columns "
        "and beat weight 15's group-relative error",
    )
    def test_percent_error_monotone_in_weight_literal(self):
        pts = line_resistance_errors(
            [0.675], [1, 5, 10, 15], 4, TappedEvery(4), DriveMode.CONFIG_B,
            rows=8, words=2,
        )[0]
        errs = [p.worst_error_pct for p in pts]
        for a, b in zip(errs, errs[1:]):
            assert b >= a - 1e-3

    def test_variant_ordering_small_array(self):
        res = line_resistance_errors([], [], 4, SingleEnd(),
                                     DriveMode.CONFIG_B, rows=8, words=4)[1]
        err = {r.label: r.worst_error_pct for r in res}
        assert err["config_a_single_end"] >= err["config_b_both_ends"]
        assert err["config_b_both_ends"] >= err["config_b_tapped"]

    @pytest.mark.parametrize("n_active", [16, 8])
    @pytest.mark.parametrize("lumped", [True, False], ids=["lumped", "full"])
    @pytest.mark.parametrize("mode, variant", [
        (DriveMode.CONFIG_A, SingleEnd()),
        (DriveMode.CONFIG_B, TappedEvery(2)),
    ], ids=["a-single", "b-tapped"])
    def test_clamped_reference_is_read_off_the_first_point(
            self, mode, variant, lumped, n_active):
        """The zero-parasitic network's group currents are the parasitic
        solve's ``initial_per_group``: its cells, the lumped idle row's
        included, are the same stacks summed in the same order, so the two
        are bitwise equal."""
        rng = np.random.default_rng(n_active + 2 * lumped)
        cells = pack_weights(WeightMatrix(rng.integers(0, 16, (32, 2))))
        lo, hi = (0.1, 0.22) if mode is DriveMode.CONFIG_A else (0.45, 0.675)
        e = Excitation(mode, rng.uniform(lo, hi, n_active),
                       active_rows=tuple(range(32 - n_active, 32)))
        t = IdealOpamp()
        p = ParasiticSpec(lumped_inactive=lumped)
        sol = solve_operating_point(build_network(p, variant, t, e, cells))
        assert sol.iterations >= 1
        zero = ParasiticSpec(0.0, 0.0, lumped_inactive=lumped)
        ref = solve_operating_point(build_network(zero, variant, t, e, cells))
        assert ref.iterations == 0
        assert np.array_equal(sol.initial_per_group,
                              ref.column_currents.per_group)

    def test_clamped_error_falls_with_the_bit_line_resistance(self):
        """A clamped group's current is its cells' sum, which keeps its
        relative precision: a low-current corner's error falls with r_bl
        down to 1e-6 ohm per cell."""
        errs = [line_resistance_errors(
            [0.45], [1], 16, TappedEvery(), DriveMode.CONFIG_B,
            parasitics=ParasiticSpec(r_bl_per_cell=r))[0][0].worst_error_pct
            for r in (1.25, 1e-3, 1e-6)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-9

    @pytest.mark.parametrize("t", [IdealOpamp(), SenseResistor()],
                             ids=["clamp", "sense-resistor"])
    def test_errors_equal_solving_each_reference(self, monkeypatch, t):
        """A clamped map builds only its parasitic networks; a sense-resistor
        reference is built and solved. Either way each error is that of
        solving the scenario's two networks one by one."""
        from sramdpe import network

        built = []

        def counting(spec, *args):
            built.append(spec)
            return build_network(spec, *args)

        monkeypatch.setattr(network, "build_network", counting)
        voltages, weights = [0.5, 0.675], [3, 15]
        pts = line_resistance_errors(voltages, weights, 4, TappedEvery(4),
                                     DriveMode.CONFIG_B, rows=8, words=2,
                                     t=t)[0]
        monkeypatch.undo()
        scenarios = len(pts) + len(VARIANT_BARS)
        zero = sum(spec.r_bl_per_cell == 0.0 for spec in built)
        clamped = isinstance(t, IdealOpamp)
        assert (len(built), zero) == ((scenarios, 0) if clamped
                                      else (2 * scenarios, scenarios))
        for pt in pts:
            cells = pack_weights(WeightMatrix.uniform(8, 2, pt.weight_level))
            e = Excitation(DriveMode.CONFIG_B, np.full(4, pt.v_in),
                           active_rows=(4, 5, 6, 7))
            i_p, i_0 = (solve_operating_point(build_network(
                spec, TappedEvery(4), t, e, cells)).column_currents.per_group
                for spec in (ParasiticSpec(), ZERO_PARASITICS))
            err = np.max(np.abs(i_p - i_0)
                         / np.maximum(np.abs(i_0), 1e-12)) * 100.0
            if clamped:
                assert pt.worst_error_pct == pytest.approx(err, rel=0,
                                                           abs=1e-12)
            else:
                assert pt.worst_error_pct == err


class TestSolverFailureModes:
    def test_singular_system_raises_topology_error(self):
        import scipy.sparse as sp
        from oracles import _linsolve_dense
        from sramdpe.errors import TopologyError
        from sramdpe.network import _linsolve_sparse

        singular = sp.csr_matrix(np.zeros((3, 3)))
        rhs = np.ones(3)
        with pytest.raises(TopologyError):
            _linsolve_dense(singular, rhs)
        with pytest.raises(TopologyError):
            _linsolve_sparse(singular, rhs)

    def test_solution_invariants_hold(self):
        cells, e = _simple_case(rows=8, v_in=0.22)
        net = build_network(ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        sol = solve_operating_point(net)
        assert sol.max_kcl_residual <= 1e-9
        assert np.all(sol.node_voltages >= -0.1 - 1e-12)
        assert np.all(sol.node_voltages <= 0.65 + 0.1 + 1e-12)
        assert sol.iterations >= 1

    @pytest.mark.parametrize("where", ["node", "f_x"])
    def test_nan_residual_is_not_convergence(self, where):
        """A NaN in a node's residual (from its initial voltage) or in a
        cell's internal-node residual fails the solve instead of passing it
        after 0 iterations."""
        cells = pack_weights(WeightMatrix.uniform(4, 1, 15))
        e = Excitation(DriveMode.CONFIG_A, np.full(4, 0.2))
        net = build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(),
                            e, cells)
        stacks, = _first_points([net])
        if where == "node":
            net.v_init[net.unknown[0]] = np.nan
        else:
            stacks[2][0] = np.nan
        with pytest.raises(SolverError):
            solve_operating_point(net, stacks)

    def test_solver_error_carries_history(self):
        err = SolverError("x", residual_history=[1.0, 0.5])
        assert err.residual_history == [1.0, 0.5]


def _damped_network():
    """A 4-row lumped map corner on the 64 x 32 array whose Newton path
    halves its step: 7 residual evaluations for 5 iterations."""
    cells = pack_weights(WeightMatrix.uniform(64, 32, 15))
    e = Excitation(DriveMode.CONFIG_B, np.full(4, 0.675),
                   active_rows=(60, 61, 62, 63))
    return build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(), e, cells)


def _mixed_networks():
    """Clamped networks of 4, 8, 16 and 16 cells: at a cap of 16 the first
    two are a small batch that the third takes past the cap, and the last
    is at the cap alone."""
    cases = [_simple_case(rows=1), _simple_case(rows=2),
             _simple_case(rows=4), _simple_case(rows=2, words=2)]
    return [build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(), e, cells)
            for cells, e in cases]


def _failing_network(v_in):
    """A 4 x 2 array with 1 nOhm SL segments: Newton stalls above 1e-9 A."""
    cells = pack_weights(WeightMatrix.uniform(4, 2, 15))
    e = Excitation(DriveMode.CONFIG_A, np.full(4, v_in))
    return build_network(ParasiticSpec(r_sl_per_cell=1e-9), SingleEnd(),
                         IdealOpamp(), e, cells)


class TestBatchSolve:
    def test_damped_network_needs_line_search(self, monkeypatch):
        """The path evaluates the stacks at more points than it takes
        steps: one evaluation per round, the first point included."""
        from sramdpe import device, network

        rounds = []

        def counting(*args):
            rounds.append(1)
            return device.stack_companion(*args)

        net = _damped_network()
        monkeypatch.setattr(network, "stack_companion", counting)
        sol = solve_operating_point(net)
        assert len(rounds) > sol.iterations + 1

    @pytest.mark.parametrize("cap", [8192, 100, 16],
                             ids=["one-batch", "split", "mixed"])
    def test_batch_equals_solo_solves_bitwise(self, monkeypatch, cap):
        """Clamped and sense-resistor, lumped and full networks, a
        zero-unknown reference, a damped path, a second device profile and
        the mixed sizes of ``_mixed_networks``; a smaller cap splits the
        list into more batches, and at 16 every network before the mixed
        ones closes a batch of its own."""
        from sramdpe import network

        rng = np.random.default_rng(3)
        cells, e = _simple_case(rows=6, words=2, v_in=0.2)
        idle = Excitation(DriveMode.CONFIG_A, [0.15, 0.2],
                          active_rows=(3, 5))
        low_vt = pack_weights(WeightMatrix.uniform(6, 2, 9),
                              DeviceParams(vt0=0.38))
        nets = [
            build_network(ParasiticSpec(), BothEnds(), SenseResistor(),
                          e, cells),
            _damped_network(),
            build_network(ZERO_PARASITICS, SingleEnd(), IdealOpamp(),
                          e, cells),
            build_network(ParasiticSpec(lumped_inactive=False), SingleEnd(),
                          IdealOpamp(0.05), idle, cells),
            build_network(ParasiticSpec(), SingleEnd(), SenseResistor(80.0),
                          idle, cells),
            build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(),
                          e, low_vt),
        ] + [_random_network(rng) for _ in range(4)] + _mixed_networks()
        assert len(nets[2].unknown) == 0
        solo = [solve_operating_point(net) for net in nets]
        monkeypatch.setattr(network, "_BATCH_CELLS", cap)
        batch = list(solve_operating_points(iter(nets)))
        assert len(batch) == len(nets)
        for a, b in zip(solo, batch):
            assert np.array_equal(a.node_voltages, b.node_voltages)
            assert np.array_equal(a.column_currents.per_group,
                                  b.column_currents.per_group)
            assert np.array_equal(a.column_currents.per_bit_column,
                                  b.column_currents.per_bit_column)
            assert (a.iterations, a.linear_iters, a.linear_fallbacks) == \
                (b.iterations, b.linear_iters, b.linear_fallbacks)

    def test_batch_raises_lowest_index_failure(self):
        first, second = _failing_network(0.2), _failing_network(0.15)
        messages = []
        for net in (first, second):
            with pytest.raises(SolverError) as alone:
                solve_operating_point(net)
            messages.append(str(alone.value))
        assert messages[0] != messages[1]
        ok = _simple_case(rows=2)
        ok_net = build_network(ParasiticSpec(), SingleEnd(), IdealOpamp(),
                               ok[1], ok[0])
        for order, expect in (([ok_net, first, second], messages[0]),
                              ([second, ok_net, first], messages[1])):
            with pytest.raises(SolverError) as batch:
                list(solve_operating_points(order))
            assert str(batch.value) == expect


class TestSolverContract:
    """The names the per-layer benchmark tracer wraps, and the call pattern
    its counts rest on."""

    def test_traced_functions_exist(self):
        import importlib
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        owned = [(owner, attr) for owner, attr, _ in tracing._TARGETS.values()
                 if owner.startswith("sramdpe")]
        assert ("sramdpe.network", "solve_operating_point") in owned
        for owner, attr in owned:
            assert callable(getattr(importlib.import_module(owner), attr))

    def test_every_network_goes_through_solve_operating_point(
            self, monkeypatch):
        """A small batch, a network that takes it past the cap and one at
        the cap alone: each is solved by ``solve_operating_point``, in
        order, from its share of its batch's one first-point solve."""
        from sramdpe import device, network

        seen, stack_calls = [], []

        def recording(net, stacks=None, lin_solve=None):
            seen.append((net, stacks))
            return solve_operating_point(net, stacks, lin_solve)

        def counting(*args):
            stack_calls.append(np.size(args[4]))
            return device.stack_current_arrays(*args)

        nets = _mixed_networks()
        monkeypatch.setattr(network, "_BATCH_CELLS", 16)
        monkeypatch.setattr(network, "solve_operating_point", recording)
        monkeypatch.setattr(network, "stack_current_arrays", counting)
        assert len(list(solve_operating_points(nets))) == len(nets)
        assert len(seen) == len(nets)
        assert all(got is net for (got, _), net in zip(seen, nets))
        assert stack_calls == [_distinct_stacks(*nets[:3]),
                               _distinct_stacks(nets[3])]
        for net, stacks in seen:
            alone, = _first_points([net])
            assert len(stacks) == len(alone)
            assert all(np.array_equal(a, b) for a, b in zip(stacks, alone))

    def test_one_stack_solve_then_one_condensed_evaluation_per_round(
            self, monkeypatch):
        """A network's internal nodes are solved at its first point only:
        one ``stack_current_arrays`` call per batch, over the distinct
        stack inputs of all its networks, and one ``stack_companion`` call
        there. Each network then makes its solo path's later
        ``stack_companion`` calls alone, over all its cells, so the batch
        evaluates each network's cells at later points as often as its solo
        path does."""
        from sramdpe import device, network

        rng = np.random.default_rng(5)
        nets = [_damped_network()] + [_random_network(rng) for _ in range(3)]
        calls = {"stack_current_arrays": [], "stack_companion": []}
        for name, sizes in calls.items():
            def counting(*args, _fn=getattr(device, name), _sizes=sizes):
                _sizes.append(np.size(args[4]))
                return _fn(*args)
            monkeypatch.setattr(network, name, counting)
        evals = []
        for net in nets:
            solve_operating_point(net)
            distinct = _distinct_stacks(net)
            assert distinct < net.gate1.size
            assert calls["stack_current_arrays"] == [distinct]
            evals.append(len(calls["stack_companion"]))
            assert calls["stack_companion"][0] == distinct
            assert set(calls["stack_companion"][1:]) == {net.gate1.size}
            for sizes in calls.values():
                sizes.clear()
        assert len(set(evals)) > 1     # the paths differ in length
        list(solve_operating_points(nets))
        distinct = _distinct_stacks(*nets)
        assert calls["stack_current_arrays"] == [distinct]
        assert len(calls["stack_companion"]) == 1 + sum(k - 1 for k in evals)
        assert calls["stack_companion"][0] == distinct
        assert sum(calls["stack_companion"][1:]) == sum(
            (k - 1) * n.gate1.size for k, n in zip(evals, nets))
