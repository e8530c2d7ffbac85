import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sramdpe import device
from sramdpe.device import (
    DEFAULT_VDD,
    DeviceParams,
    PROFILES,
    stack_conductances,
    stack_current_arrays,
)
from sramdpe.errors import InvalidInputError, SolverError

from oracles import (
    ReadStack,
    mosfet_current,
    signed_current,
    stack_current,
    stack_mismatch,
)


def bisection_oracle(p, m, dvt1, dvt2, g1, g2, v_sl, v_rbl):
    """Reference stack solve: 64 halvings of the internal-node bracket.

    Same arguments as ``stack_current_arrays``; returns (current, internal
    node, |dI|). 64 halvings push any bracket below float spacing.
    """
    v_sl = np.asarray(v_sl, dtype=float)
    v_rbl = np.asarray(v_rbl, dtype=float)
    wl = p.w_over_l * np.asarray(m, dtype=float)
    vt1, vt2 = p.vt0 + dvt1, p.vt0 + dvt2
    lo = np.minimum(v_sl, v_rbl) + np.zeros(np.broadcast(v_sl, v_rbl, g1, g2).shape)
    hi = np.maximum(v_sl, v_rbl) + np.zeros_like(lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        f = (signed_current(p, vt1, wl, g1, v_sl, mid)
             - signed_current(p, vt2, wl, g2, mid, v_rbl))
        take_right = f > 0
        lo = np.where(take_right, mid, lo)
        hi = np.where(take_right, hi, mid)
    x = 0.5 * (lo + hi)
    i1 = signed_current(p, vt1, wl, g1, v_sl, x)
    i2 = signed_current(p, vt2, wl, g2, x, v_rbl)
    return 0.5 * (i1 + i2), x, np.abs(i1 - i2)


def dense_sweep_oracle(stack: ReadStack, v_sl, v_rbl, v_rwl, data_bit,
                       resolution=1e-6):
    """Brute-force internal-node sweep: independent of any root finder."""
    p = stack.profile
    wl = p.w_over_l * stack.width_multiplier
    g1 = DEFAULT_VDD if data_bit else 0.0
    lo, hi = sorted((v_sl, v_rbl))
    xs = np.arange(lo, hi + resolution, resolution)
    i1 = signed_current(p, p.vt0, wl, g1, v_sl, xs)
    i2 = signed_current(p, p.vt0, wl, v_rwl, xs, v_rbl)
    k = int(np.argmin(np.abs(i1 - i2)))
    return 0.5 * (i1[k] + i2[k])


class TestMosfetCurrent:
    def test_zero_vds_gives_zero(self):
        p = DeviceParams()
        assert mosfet_current(p, 0.65, 0.0) == 0.0

    def test_triode_hand_evaluation(self):
        # k' (W/L) ((vgs-vt0) vds - vds^2/2) = 600e-6 * 0.01125 = 6.75e-6
        p = DeviceParams(vt0=0.4, k_prime=300e-6, w_over_l=2, lam=0.0)
        assert mosfet_current(p, 0.65, 0.05) == pytest.approx(6.75e-6, rel=1e-5)

    def test_saturation_formula(self):
        p = DeviceParams(vt0=0.4, k_prime=300e-6, w_over_l=2, lam=0.1)
        # (k'/2)(W/L)(vgs-vt0)^2 (1 + lam vds) at vgs=0.6, vds=0.5
        expect = 150e-6 * 2 * 0.2**2 * 1.05
        assert mosfet_current(p, 0.6, 0.5) == pytest.approx(expect, rel=1e-5)

    def test_subthreshold_is_bounded_by_i0(self):
        p = DeviceParams()
        assert mosfet_current(p, 0.0, 0.65) <= 1e-12

    def test_region_boundaries_are_continuous(self):
        p = DeviceParams()
        for vds in (0.01, 0.1, 0.3):
            below = mosfet_current(p, p.vt0 - 1e-12, vds)
            above = mosfet_current(p, p.vt0 + 1e-12, vds)
            assert abs(above - below) < 1e-12
        # triode/saturation boundary: vds = vgs - vt0
        for vgs in (0.5, 0.65):
            ov = vgs - p.vt0
            tri = mosfet_current(p, vgs, ov - 1e-12)
            sat = mosfet_current(p, vgs, ov + 1e-12)
            assert abs(sat - tri) < 1e-12

    def test_rejects_non_finite_and_negative_vds(self):
        p = DeviceParams()
        with pytest.raises(InvalidInputError):
            mosfet_current(p, float("nan"), 0.1)
        with pytest.raises(InvalidInputError):
            mosfet_current(p, 0.5, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        vgs=st.floats(0.0, 1.0),
        vds=st.floats(0.0, 1.0),
        dv=st.floats(1e-6, 0.2),
    )
    def test_monotone_in_vgs_and_vds(self, vgs, vds, dv):
        p = DeviceParams()
        base = mosfet_current(p, vgs, vds)
        assert mosfet_current(p, vgs + dv, vds) >= base
        assert mosfet_current(p, vgs, vds + dv) >= base

    def test_vectorized_matches_scalar(self):
        p = DeviceParams()
        vgs = np.array([0.0, 0.3, 0.5, 0.65])
        vds = np.array([0.1, 0.2, 0.05, 0.4])
        vec = mosfet_current(p, vgs, vds)
        for k in range(len(vgs)):
            assert vec[k] == mosfet_current(p, vgs[k], vds[k])


class TestReadStack:
    def test_zero_bias_gives_zero(self):
        assert stack_current(ReadStack(), 0.1, 0.1, 0.65, 1) == 0.0

    def test_off_cell_leaks_only(self):
        s = ReadStack()
        for v_sl, v_rbl in ((0.65, 0.0), (0.0, 0.65), (0.3, 0.1)):
            assert abs(stack_current(s, v_sl, v_rbl, 0.65, 0)) <= 10e-12

    def test_matches_dense_internal_node_sweep(self):
        s = ReadStack()
        i = stack_current(s, 0.1, 0.0, 0.65, 1)
        oracle = dense_sweep_oracle(s, 0.1, 0.0, 0.65, 1)
        assert i == pytest.approx(oracle, rel=1e-3)

    def test_bisection_oracle_on_random_operating_points(self):
        # The sweep oracle's own resolution floor is (max stack conductance)
        # x (1 uV grid) ~ 1.6e-9 A; below that the grid cannot localize the
        # crossing and only the absolute bound is meaningful.
        oracle_floor = 2e-9
        rng = np.random.default_rng(101)
        s_all = [ReadStack(width_multiplier=m) for m in (1, 2, 4, 8)]
        for _ in range(100):
            s = s_all[rng.integers(0, 4)]
            v_sl, v_rbl = rng.uniform(0.0, 0.65, 2)
            v_rwl = rng.uniform(0.3, 0.65)
            i = stack_current(s, v_sl, v_rbl, v_rwl, 1)
            oracle = dense_sweep_oracle(s, v_sl, v_rbl, v_rwl, 1)
            assert abs(i - oracle) <= max(1e-3 * abs(oracle), oracle_floor)

    def test_width_multipliers_scale_exactly(self):
        base = stack_current(ReadStack(width_multiplier=1), 0.15, 0.0, 0.65, 1)
        for m in (2, 4, 8):
            im = stack_current(ReadStack(width_multiplier=m), 0.15, 0.0, 0.65, 1)
            assert im == pytest.approx(m * base, rel=1e-12)

    def test_sized_ratio_8421(self):
        currents = [
            stack_current(ReadStack(width_multiplier=m), 0.1, 0.0, 0.65, 1)
            for m in (8, 4, 2, 1)
        ]
        ratios = np.array(currents) / currents[-1]
        assert np.allclose(ratios, [8, 4, 2, 1], rtol=5e-3)

    def test_monotone_in_bias_and_gate(self):
        s = ReadStack()
        grid = np.linspace(0.0, 0.4, 9)
        prev = -np.inf
        for dv in grid:
            i = stack_current(s, 0.2 + dv, 0.2, 0.65, 1)
            assert i >= prev
            prev = i
        prev = -np.inf
        for v_rwl in np.linspace(0.0, 0.65, 9):
            i = stack_current(s, 0.3, 0.0, v_rwl, 1)
            assert i >= prev
            prev = i

    def test_rejects_out_of_range_voltage(self):
        with pytest.raises(InvalidInputError):
            stack_current(ReadStack(), 1.2, 0.0, 0.65, 1)
        with pytest.raises(InvalidInputError):
            ReadStack(width_multiplier=3)

    def test_linear_region_config_a(self):
        """Current vs v_sl at the Config-A bias point fits a line."""
        s = ReadStack()
        vs = np.arange(0.05, 0.1501, 0.005)
        i = np.array([stack_current(s, v, 0.0, 0.65, 1) for v in vs])
        assert _r_squared(vs, i) >= 0.99
        vs_full = np.arange(0.05, 0.2201, 0.005)
        i_full = np.array([stack_current(s, v, 0.0, 0.65, 1) for v in vs_full])
        assert _r_squared(vs_full, i_full) >= 0.95

    @pytest.mark.xfail(
        strict=True,
        reason="series square-law stack compresses ~7% over [0.05, 0.22]; "
        "R^2 is 0.964 with the default-45 profile (0.99 holds up to 0.15 V)",
    )
    def test_linear_region_full_window(self):
        s = ReadStack()
        vs = np.arange(0.05, 0.2201, 0.005)
        i = np.array([stack_current(s, v, 0.0, 0.65, 1) for v in vs])
        assert _r_squared(vs, i) >= 0.99


def _r_squared(x, y):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)


def _stack_conductances(s: ReadStack, v_sl, v_rbl, v_rwl, data_bit):
    """(dI/dv_sl, dI/dv_rbl) of one read stack at its solved internal node."""
    ports = s.ports(DEFAULT_VDD if data_bit else 0.0, v_rwl, v_sl, v_rbl)
    _, x = stack_current_arrays(*ports)
    return stack_conductances(*ports, x)


class TestSmallSignal:
    def test_symmetric_at_small_bias(self):
        g_sl, g_rbl = _stack_conductances(ReadStack(), 0.005, 0.0, 0.65, 1)
        assert g_sl == pytest.approx(-g_rbl, rel=0.05)

    def test_off_cell_conductances_tiny(self):
        g_sl, g_rbl = _stack_conductances(ReadStack(), 0.3, 0.0, 0.65, 0)
        assert abs(g_sl) <= 1e-9
        assert abs(g_rbl) <= 1e-9

    def test_width_8_is_8x_width_1(self):
        g1 = _stack_conductances(ReadStack(width_multiplier=1),
                                 0.2, 0.0, 0.65, 1)
        g8 = _stack_conductances(ReadStack(width_multiplier=8),
                                 0.2, 0.0, 0.65, 1)
        assert g8[0] == pytest.approx(8 * g1[0], rel=0.01)
        assert g8[1] == pytest.approx(8 * g1[1], rel=0.01)


def test_stack_conductances_match_central_difference():
    rng = np.random.default_rng(53)
    n = 4000
    p = DeviceParams()
    mult = rng.choice([1, 2, 4, 8], n)
    dvt1 = 0.03 * rng.standard_normal(n)
    dvt2 = 0.03 * rng.standard_normal(n)
    g1 = np.where(rng.random(n) < 0.5, DEFAULT_VDD, 0.0)   # ON / OFF cells
    g2 = rng.uniform(0.0, DEFAULT_VDD, n)
    v_sl = rng.uniform(0.0, DEFAULT_VDD, n)
    v_rbl = rng.uniform(0.0, DEFAULT_VDD, n)   # both terminal orders
    equal = rng.random(n) < 0.1
    v_rbl[equal] = v_sl[equal]

    def current(a, b):
        return stack_current_arrays(p, mult, dvt1, dvt2, g1, g2, a, b)[0]

    _, x = stack_current_arrays(p, mult, dvt1, dvt2, g1, g2, v_sl, v_rbl)
    g_sl, g_rbl = stack_conductances(p, mult, dvt1, dvt2, g1, g2, v_sl, v_rbl,
                                     x)
    h = 1e-6
    fd_sl = (current(v_sl + h, v_rbl) - current(v_sl - h, v_rbl)) / (2 * h)
    fd_rbl = (current(v_sl, v_rbl + h) - current(v_sl, v_rbl - h)) / (2 * h)
    for g, fd in ((g_sl, fd_sl), (g_rbl, fd_rbl)):
        assert np.all(np.abs(g - fd) <= np.maximum(1e-4 * np.abs(fd), 1e-9))


def test_default_profile_registered():
    assert PROFILES["default-45"] == DeviceParams()


def _random_stacks(rng, n):
    """Random stack-solve arguments: Vt offsets, widths 1-8, ON and OFF M1,
    both terminal orders and some equal terminals (returned as a mask)."""
    mult = rng.choice([1, 2, 4, 8], n)
    g1 = np.where(rng.random(n) < 0.5, DEFAULT_VDD, 0.0)
    g2 = rng.uniform(0.0, DEFAULT_VDD, n)
    v_sl = rng.uniform(0.0, 1.5 * DEFAULT_VDD, n)
    v_rbl = rng.uniform(0.0, 1.5 * DEFAULT_VDD, n)
    equal = rng.random(n) < 0.05
    v_rbl[equal] = v_sl[equal]
    dvt1 = 0.05 * rng.standard_normal(n)
    dvt2 = 0.05 * rng.standard_normal(n)
    return (DeviceParams(), mult, dvt1, dvt2, g1, g2, v_sl, v_rbl), equal


def test_root_finder_matches_bisection_oracle():
    # The solve raises SolverError at STACK_MAX_ITERS, so these calls also
    # show that no stack reaches the iteration cap.
    rng = np.random.default_rng(2024)
    stacks, equal = _random_stacks(rng, 65536)
    # Scalar gates g1 = 0, g2 = V_DD: nn's OFF unit current at nominal Vt,
    # and with M1's threshold 0.1 V low, where a gate left unoriented shows
    # (with equal devices, swapping them barely moves the current).
    p = DeviceParams()
    v = rng.uniform(0.0, 1.5 * DEFAULT_VDD, 4096)
    cases = [(stacks, equal)] + [
        ((p, 1, dvt1, 0.0, 0.0, DEFAULT_VDD, v, 0.1), v == 0.1)
        for dvt1 in (0.0, -0.1)]
    for args, equal in cases:
        i, x = stack_current_arrays(*args)
        di = stack_mismatch(*args, x)
        i_ref, _, di_ref = bisection_oracle(*args)
        err = np.abs(i - i_ref)
        assert err.max() <= 1e-19
        above = np.abs(i_ref) > 1e-12
        assert np.all(err[above] <= 2e-8 * np.abs(i_ref[above]))
        assert di.max() <= di_ref.max()
        lo = np.minimum(args[6], args[7])
        hi = np.maximum(args[6], args[7])
        assert np.all((lo <= x) & (x <= hi))
        assert np.all(i[equal] == 0.0)


def test_solve_is_block_invariant():
    """A Monte Carlo-shaped call equals the same stacks solved trial by trial."""
    rng = np.random.default_rng(5)
    trials, rows, cols = 1001, 16, 4
    p = DeviceParams()
    m = np.array([8, 4, 2, 1])
    dvt1, dvt2 = (0.03 * rng.standard_normal((trials, rows, cols))
                  for _ in range(2))
    g1 = np.where(rng.random((rows, cols)) < 0.5, DEFAULT_VDD, 0.0)
    g2 = np.full((rows, cols), DEFAULT_VDD)
    v_sl = rng.uniform(0.0, DEFAULT_VDD, (rows, 1))
    whole = stack_current_arrays(p, m, dvt1, dvt2, g1, g2, v_sl, 0.1)
    for t in range(trials):
        one = stack_current_arrays(p, m, dvt1[t], dvt2[t], g1, g2, v_sl, 0.1)
        for a, b in zip(whole, one):
            assert np.array_equal(a[t], b)


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(device, "STACK_MAX_ITERS", 2)
    with pytest.raises(SolverError, match="did not converge"):
        stack_current(ReadStack(), 0.3, 0.0, 0.65, 1)
