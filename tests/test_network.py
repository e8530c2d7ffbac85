import numpy as np
import pytest
from scipy.optimize import brentq

from sramdpe.crossbar import (
    ArrayGeometry,
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from sramdpe.errors import InvalidInputError, SolverError
from sramdpe.network import (
    BothEnds,
    IdealOpamp,
    ParasiticSpec,
    SenseResistor,
    SingleEnd,
    TappedEvery,
    ZERO_PARASITICS,
    build_network,
    line_resistance_error_map,
    row_scaling_curve,
    solve_operating_point,
    variant_worst_case_errors,
)

from oracles import ReadStack, dense_oracle_solve, stack_current


def _simple_case(rows=2, words=1, level=15, v_in=0.2):
    g = ArrayGeometry(rows=rows, word_columns=words)
    cells = pack_weights(WeightMatrix.uniform(rows, words, level), g)
    e = Excitation(DriveMode.CONFIG_A, np.full(rows, v_in))
    return g, cells, e


def _random_network(rng):
    rows = int(rng.integers(1, 9))
    words = int(rng.integers(1, 9))
    g = ArrayGeometry(rows=rows, word_columns=words)
    cells = pack_weights(WeightMatrix(rng.integers(0, 16, (rows, words))), g)
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
    return build_network(g, p, d, t, e, cells)


class TestBuildNetwork:
    def test_1x1_zero_parasitics_is_two_nodes(self):
        g, cells, e = _simple_case(rows=1)
        net = build_network(g, ZERO_PARASITICS, SingleEnd(), IdealOpamp(0.1),
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
        g = ArrayGeometry(rows=rows, word_columns=words)
        cells = pack_weights(WeightMatrix.uniform(rows, words, 15), g)
        e = Excitation(DriveMode.CONFIG_A, np.full(rows, 0.2))
        net = build_network(g, ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        bit_cols = words * 4
        assert net.n_nodes == rows * bit_cols * 2 + words

    def test_both_ends_doubles_drive_pins(self):
        g, cells, e = _simple_case(rows=3)
        single = build_network(g, ParasiticSpec(), SingleEnd(),
                               SenseResistor(), e, cells)
        both = build_network(g, ParasiticSpec(), BothEnds(),
                             SenseResistor(), e, cells)
        n_pinned_single = single.n_nodes - len(single.unknown)
        n_pinned_both = both.n_nodes - len(both.unknown)
        assert n_pinned_both == n_pinned_single + 3   # one extra pin per row

    def test_tapping_is_config_b_only(self):
        g, cells, e = _simple_case()
        with pytest.raises(InvalidInputError):
            build_network(g, ParasiticSpec(), TappedEvery(16),
                          IdealOpamp(), e, cells)

    def test_input_length_must_match_active_rows(self):
        g, cells, _ = _simple_case(rows=3)
        e = Excitation(DriveMode.CONFIG_A, [0.2, 0.2])
        with pytest.raises(InvalidInputError):
            build_network(g, ZERO_PARASITICS, SingleEnd(), IdealOpamp(),
                          e, cells)


class TestSolve:
    def test_all_zero_weights_leakage_only(self):
        g, _, e = _simple_case(rows=4, level=0)
        cells = pack_weights(WeightMatrix.uniform(4, 1, 0), g)
        net = build_network(g, ParasiticSpec(), SingleEnd(), IdealOpamp(0.1),
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
            g = ArrayGeometry(rows=rows, word_columns=words,
                              active_rows=active)
            cells = pack_weights(
                WeightMatrix(rng.integers(0, 16, (rows, words))), g
            )
            mode = DriveMode.CONFIG_A if rng.random() < 0.5 else DriveMode.CONFIG_B
            if mode is DriveMode.CONFIG_A:
                inputs = rng.uniform(0.1, 0.22, n_active)
                variants = [SingleEnd(), BothEnds()]
            else:
                inputs = rng.uniform(0.45, 0.675, n_active)
                variants = [SingleEnd(), BothEnds(),
                            TappedEvery(int(rng.integers(1, 9)))]
            e = Excitation(mode, inputs, v_bias=0.3)
            d = variants[rng.integers(0, len(variants))]
            p = ParasiticSpec(
                r_bl_per_cell=float(rng.uniform(0, 3)),
                r_sl_per_cell=float(rng.uniform(0, 5)),
                lumped_inactive=bool(rng.random() < 0.5),
            )
            opamp = IdealOpamp(float(rng.uniform(0.0, 0.12)))
            t = SenseResistor(float(rng.uniform(20, 200))) \
                if rng.random() < 0.5 else opamp

            net = build_network(g, p, d, t, e, cells)
            sparse = solve_operating_point(net).column_currents.per_group
            dense = dense_oracle_solve(net).column_currents.per_group
            rel = np.abs(sparse - dense) / np.maximum(np.abs(dense), 1e-15)
            assert np.max(rel) <= 1e-9

            full_zero = ParasiticSpec(r_bl_per_cell=0.0, r_sl_per_cell=0.0,
                                      lumped_inactive=False)
            sol = solve_operating_point(
                build_network(g, full_zero, d, opamp, e, cells)
            )
            ideal = ideal_column_currents(e, cells, opamp.v_pos).per_group
            assert np.allclose(sol.column_currents.per_group, ideal,
                               rtol=1e-9, atol=0.0)

    def test_zero_parasitic_solve_equals_clamped_ideal(self):
        rng = np.random.default_rng(23)
        g = ArrayGeometry(rows=5, word_columns=3)
        cells = pack_weights(WeightMatrix(rng.integers(0, 16, (5, 3))), g)
        e = Excitation(DriveMode.CONFIG_A, rng.uniform(0.12, 0.22, 5))
        net = build_network(g, ZERO_PARASITICS, SingleEnd(), IdealOpamp(0.1),
                            e, cells)
        sol = solve_operating_point(net)
        ideal = ideal_column_currents(e, cells, 0.1)
        assert np.allclose(sol.column_currents.per_group, ideal.per_group,
                           rtol=1e-9)

    def test_1x1_sense_resistor_matches_scalar_root_find(self):
        g, cells, e = _simple_case(rows=1, v_in=0.2)
        net = build_network(g, ZERO_PARASITICS, SingleEnd(),
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
        g, cells, e = _simple_case(rows=64, v_in=0.22)
        net = build_network(g, ZERO_PARASITICS, SingleEnd(),
                            SenseResistor(50.0), e, cells)
        i64 = solve_operating_point(net).column_currents.per_group[0]
        g1, cells1, e1 = _simple_case(rows=1, v_in=0.22)
        net1 = build_network(g1, ZERO_PARASITICS, SingleEnd(),
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
        g = ArrayGeometry(rows=32, word_columns=8)
        cells = pack_weights(WeightMatrix.uniform(32, 8, 15), g)
        e = Excitation(DriveMode.CONFIG_A, np.full(32, 0.2))
        net = build_network(g, ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        assert net.n_nodes > 1000
        with pytest.raises(InvalidInputError):
            dense_oracle_solve(net)


def _first_newton_step(net):
    """(Jacobian, right-hand side) of the first Newton step of ``net``."""
    from sramdpe.network import _jacobian, _residual

    v = net.v_init.copy()
    f, _, x = _residual(net, v)
    return _jacobian(net, v, x), -f[net.unknown]


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

        g = ArrayGeometry(active_rows=tuple(range(48, 64)))
        cells = pack_weights(WeightMatrix.uniform(64, 32, 15), g)
        e = Excitation(mode, np.full(16, WORST_CASE_INPUT[mode]))
        p = ParasiticSpec(lumped_inactive=False)
        net = build_network(g, p, variant, IdealOpamp(), e, cells)
        j_mat, rhs = _first_newton_step(net)
        assert j_mat.shape[0] > 15000
        direct, _, _ = _linsolve_sparse(j_mat, rhs)
        krylov, iters, fell_back = _linsolve_krylov(j_mat, rhs)
        assert not fell_back and 0 < iters <= 20
        rel = np.max(np.abs(krylov - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-12

    def test_small_clamped_network_matches_dense_oracle(self):
        g, cells, e = _simple_case(rows=4, words=2, v_in=0.22)
        net = build_network(g, ParasiticSpec(), SingleEnd(), IdealOpamp(),
                            e, cells)
        sol = solve_operating_point(net)
        assert sol.linear_iters > 0 and sol.linear_fallbacks == 0
        dense = dense_oracle_solve(net).column_currents.per_group
        rel = np.abs(sol.column_currents.per_group - dense) / np.abs(dense)
        assert np.max(rel) <= 1e-9

    def test_iteration_cap_falls_back_to_superlu(self, monkeypatch):
        from sramdpe import network
        from sramdpe.network import _linsolve_sparse, _newton_solve

        g, cells, e = _simple_case(rows=4, words=2, v_in=0.22)
        net = build_network(g, ParasiticSpec(), SingleEnd(), IdealOpamp(),
                            e, cells)
        j_mat, rhs = _first_newton_step(net)
        direct = _newton_solve(net, _linsolve_sparse)
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
        g, cells, e = _simple_case(rows=4, words=2, v_in=0.22)
        net = build_network(g, ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        sol = solve_operating_point(net)
        assert sol.iterations >= 1
        assert sol.linear_iters == 0 and sol.linear_fallbacks == 0


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
        pts = line_resistance_error_map(
            [0.675], [0], 4, TappedEvery(2), DriveMode.CONFIG_B,
            geometry=ArrayGeometry(rows=8, word_columns=2),
        )
        assert pts[0].worst_error_pct <= 1.0

    def test_error_monotone_in_voltage(self):
        pts = line_resistance_error_map(
            [0.5, 0.55, 0.6, 0.675], [15], 4, TappedEvery(4),
            DriveMode.CONFIG_B,
            geometry=ArrayGeometry(rows=8, word_columns=2),
        )
        errs = [p.worst_error_pct for p in pts]
        for a, b in zip(errs, errs[1:]):
            assert b >= a - 1e-3

    def test_absolute_deviation_monotone_in_weight(self):
        geometry = ArrayGeometry(rows=8, word_columns=2)
        prev = -1.0
        for w in (1, 5, 10, 15):
            pts = line_resistance_error_map(
                [0.675], [w], 4, TappedEvery(4), DriveMode.CONFIG_B,
                geometry=geometry,
            )
            # reconstruct the absolute deviation from the % map
            zero = ParasiticSpec(r_bl_per_cell=0, r_sl_per_cell=0)
            g = ArrayGeometry(rows=8, word_columns=2,
                              active_rows=tuple(range(4, 8)))
            cells = pack_weights(WeightMatrix.uniform(8, 2, w), g)
            e = Excitation(DriveMode.CONFIG_B, np.full(4, 0.675), v_bias=0.3)
            ref = solve_operating_point(
                build_network(g, zero, TappedEvery(4), IdealOpamp(), e, cells)
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
        pts = line_resistance_error_map(
            [0.675], [1, 5, 10, 15], 4, TappedEvery(4), DriveMode.CONFIG_B,
            geometry=ArrayGeometry(rows=8, word_columns=2),
        )
        errs = [p.worst_error_pct for p in pts]
        for a, b in zip(errs, errs[1:]):
            assert b >= a - 1e-3

    def test_variant_ordering_small_array(self):
        res = variant_worst_case_errors(
            4, geometry=ArrayGeometry(rows=8, word_columns=4)
        )
        err = {r.label: r.worst_error_pct for r in res}
        assert err["config_a_single_end"] >= err["config_b_both_ends"]
        assert err["config_b_both_ends"] >= err["config_b_tapped"]


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
        g, cells, e = _simple_case(rows=8, v_in=0.22)
        net = build_network(g, ParasiticSpec(), SingleEnd(), SenseResistor(),
                            e, cells)
        sol = solve_operating_point(net)
        assert sol.max_kcl_residual <= 1e-9
        assert np.all(sol.node_voltages >= -0.1 - 1e-12)
        assert np.all(sol.node_voltages <= 0.65 + 0.1 + 1e-12)
        assert sol.iterations >= 1

    def test_solver_error_carries_history(self):
        err = SolverError("x", residual_history=[1.0, 0.5])
        assert err.residual_history == [1.0, 0.5]
