
import numpy as np
import pytest
from scipy.stats import spearmanr

from sramdpe.crossbar import (
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from sramdpe.device import DeviceParams
from sramdpe.errors import InvalidInputError
from sramdpe.nn import CrossbarContext, _add_tile_noise
from sramdpe import variation
from sramdpe.variation import (
    MonteCarloPoint,
    StdVsCurrentFit,
    VariationSpec,
    _philox_keys,
    fit_std_vs_current,
    monte_carlo_stats,
    sample_vt_offsets,
    stream_normals,
)

from oracles import ReadStack, stack_current


class TestSampling:
    def test_zero_sigma_gives_zero_offsets(self):
        spec = VariationSpec(sigma_min=0.0, seed=1)
        assert np.all(sample_vt_offsets(spec, np.array([1, 8, 4]), 0) == 0.0)

    def test_width_scaling_formula(self):
        spec = VariationSpec(sigma_min=0.030)
        assert spec.sigma_for_multiplier(8) == pytest.approx(
            0.030 / np.sqrt(8), rel=1e-12
        )
        assert float(spec.sigma_for_multiplier(8)) == pytest.approx(
            0.0106066, abs=1e-6
        )

    def test_empirical_sigma_matches_parameter(self):
        spec = VariationSpec(sigma_min=0.030, seed=77)
        draws = np.concatenate(
            [sample_vt_offsets(spec, np.ones(100), t) for t in range(1000)]
        )
        assert draws.std(ddof=1) == pytest.approx(0.030, rel=0.02)

    def test_width_law_sigma_ratio(self):
        spec = VariationSpec(sigma_min=0.030, seed=5)
        d1 = np.concatenate(
            [sample_vt_offsets(spec, np.ones(50), t) for t in range(2000)]
        )
        spec8 = VariationSpec(sigma_min=0.030, seed=6)
        d8 = np.concatenate(
            [sample_vt_offsets(spec8, np.full(50, 8), t) for t in range(2000)]
        )
        ratio = d1.std(ddof=1) / d8.std(ddof=1)
        assert ratio == pytest.approx(np.sqrt(8), rel=0.03)

    def test_deterministic_per_key(self):
        spec = VariationSpec(seed=3)
        a = sample_vt_offsets(spec, np.ones(10), 4)
        b = sample_vt_offsets(spec, np.ones(10), 4)
        c = sample_vt_offsets(spec, np.ones(10), 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [3, 2**40 + 11])
    def test_trial_array_stacks_single_trials(self, seed):
        spec = VariationSpec(seed=seed)
        m = np.array([[8.0, 4.0], [2.0, 1.0], [1.0, 8.0]])
        batch = sample_vt_offsets(spec, m, np.arange(7))
        assert batch.shape == (7,) + m.shape
        for t in range(7):
            assert np.array_equal(batch[t], sample_vt_offsets(spec, m, t))

    @pytest.mark.parametrize("seed", [0, 2**33 + 5])
    def test_monte_carlo_draws_the_per_trial_offsets(self, seed, monkeypatch):
        """One batched call samples what one call per trial sampled."""
        spec = VariationSpec(seed=seed, trials=5)
        calls = []

        def spy(spec_, multipliers, trial):
            out = sample_vt_offsets(spec_, multipliers, trial)
            calls.append((multipliers, trial, out))
            return out

        monkeypatch.setattr(variation, "sample_vt_offsets", spy)
        monte_carlo_stats([0.6], [5, 9], spec, n_rows=3)
        (multipliers, trial, batch), = calls
        assert np.array_equal(trial, np.arange(spec.trials))
        for t in range(spec.trials):
            # The per-trial form: a fresh Philox stream keyed by (seed, trial).
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence((seed, t))))
            alone = rng.standard_normal(multipliers.size).reshape(
                multipliers.shape) * spec.sigma_for_multiplier(multipliers)
            assert np.array_equal(batch[t], alone)


class TestStreams:
    def test_keys_match_seed_sequence(self):
        rng = np.random.default_rng(0)
        rows = [rng.integers(0, 2**32, n, dtype=np.uint64)
                for n in range(1, 8) for _ in range(40)]
        rows += [np.zeros(n, dtype=np.uint64) for n in range(1, 8)]
        for row in rows[::3]:
            row[rng.random(row.size) < 0.4] = 0
        # A seed >= 2**32 and nn's unmasked seed >= 2**64, split into
        # little-endian words, then (trial or sample, layer, tile, sign).
        for seed in (2**32 + 9, 2**64 + 2**40 + 1):
            words = [(seed >> s) & 0xFFFFFFFF
                     for s in range(0, seed.bit_length(), 32)]
            rows.append(np.array(words + [7, 0, 1, 0], dtype=np.uint64))
        for n in range(1, 8):
            same = [r for r in rows if r.size == n]
            keys = _philox_keys(np.array(same, dtype=np.uint32))
            assert keys.dtype == np.uint64 and keys.shape == (len(same), 2)
            for row, key in zip(same, keys):
                ref = np.random.SeedSequence(tuple(int(w) for w in row))
                assert np.array_equal(key, ref.generate_state(2, np.uint64))

    @pytest.mark.parametrize("seed", [0, 12, 2**32 + 3, 2**64 + 5])
    def test_stream_normals_match_fresh_generators(self, seed):
        keys = np.array([[0, 0, 0, 0], [1, 0, 2, 1], [699, 1, 3, 0],
                         [2**32 - 1, 0, 0, 1]])
        z = stream_normals(seed, keys, (2, 5))
        assert z.shape == (4, 2, 5)
        for key, row in zip(keys, z):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence((seed, *map(int, key)))))
            assert np.array_equal(row, rng.standard_normal((2, 5)))

    @pytest.mark.parametrize("seed, key", [(-1, 0), (0, -1), (0, 2**32)])
    def test_stream_normals_rejects_unsplit_words(self, seed, key):
        with pytest.raises(InvalidInputError):
            stream_normals(seed, [[key]], 3)


class TestMonteCarloStats:
    def test_zero_sigma_identically_zero_std(self):
        spec = VariationSpec(sigma_min=0.0, trials=25, seed=2)
        pts = monte_carlo_stats([0.5, 0.675], [3, 15], spec)
        assert all(p.std_current == 0.0 for p in pts)

    def test_std_rank_correlates_with_mean(self):
        spec = VariationSpec(sigma_min=0.030, trials=300, seed=12)
        pts = monte_carlo_stats([0.5, 0.6, 0.675], [3, 9, 15], spec)
        rho = spearmanr([p.mean_current for p in pts],
                        [p.std_current for p in pts]).statistic
        assert rho >= 0.9

    def test_mean_consistency_in_linear_regime(self):
        spec = VariationSpec(sigma_min=0.005, trials=400, seed=21)
        pts = monte_carlo_stats([0.675], [5, 15], spec)
        for p in pts:
            bound = 3 * p.std_current / np.sqrt(spec.trials)
            assert abs(p.mean_current - p.nominal_current) <= bound

    @pytest.mark.parametrize("mode, volts", [
        (DriveMode.CONFIG_A, [0.15, 0.22]),
        (DriveMode.CONFIG_B, [0.5, 0.675]),
    ])
    def test_matches_per_stack_oracle(self, mode, volts):
        """Each trial's tile current is the sum of its offset read stacks."""
        spec = VariationSpec(sigma_min=0.030, trials=6, seed=17)
        n_rows, sizes, p = 3, (8, 4, 2, 1), DeviceParams()
        pts = monte_carlo_stats(volts, [5, 15], spec, n_rows=n_rows, mode=mode)
        # Device position: (row, bit column, M1/M2).
        mult = np.tile(sizes, (n_rows, 1))
        offsets = [sample_vt_offsets(spec, np.stack([mult, mult], axis=-1), t)
                   for t in range(spec.trials)]
        for pt in pts:
            v_sl, v_rwl = ((pt.v_in, 0.65) if mode is DriveMode.CONFIG_A
                           else (0.3, pt.v_in))
            tile = [
                sum(stack_current(
                        ReadStack(p, width_multiplier=m, dvt1=o[r, c, 0],
                                  dvt2=o[r, c, 1]),
                        v_sl, 0.1, v_rwl, (pt.weight_level >> (3 - c)) & 1)
                    for r in range(n_rows) for c, m in enumerate(sizes))
                for o in offsets
            ]
            assert pt.mean_current == pytest.approx(np.mean(tile), rel=1e-12)
            assert pt.std_current == pytest.approx(np.std(tile, ddof=1),
                                                   rel=1e-9)
            cells = pack_weights(
                WeightMatrix.uniform(n_rows, 1, pt.weight_level))
            e = Excitation(mode, np.full(n_rows, pt.v_in))
            assert pt.nominal_current == \
                ideal_column_currents(e, cells, 0.1).per_group[0]

    @pytest.mark.parametrize("mode, volts", [
        (DriveMode.CONFIG_A, [0.15, 0.22]),
        (DriveMode.CONFIG_B, [0.5, 0.6]),
    ], ids=["config_a", "config_b"])
    def test_weight_grid_joins_single_weight_calls(self, mode, volts):
        """Offsets depend only on (seed, trial, device), not on the grid.

        The grid holds complement words, a repeated level and levels that
        differ from the first in only some bit columns.
        """
        spec = VariationSpec(sigma_min=0.030, trials=40, seed=8)
        levels = [0, 15, 4, 4, 13]
        grid = monte_carlo_stats(volts, levels, spec, n_rows=4, mode=mode)
        joined = [pt for w in levels
                  for pt in monte_carlo_stats(volts, [w], spec, n_rows=4,
                                              mode=mode)]
        assert grid == joined
        assert monte_carlo_stats(volts, [], spec) == []
        assert monte_carlo_stats([], [5], spec) == []

    def test_reproducible_bit_identical(self):
        spec = VariationSpec(sigma_min=0.030, trials=50, seed=9)
        a = monte_carlo_stats([0.6], [7], spec)
        b = monte_carlo_stats([0.6], [7], spec)
        assert a[0].mean_current == b[0].mean_current
        assert a[0].std_current == b[0].std_current


class TestStdFit:
    def test_recovers_exact_quadratic(self):
        cur = np.linspace(1e-6, 1e-4, 20)
        std = 0.01 * cur + 30.0 * cur**2
        fit = fit_std_vs_current(list(zip(cur, std)))
        assert fit.coeff_linear == pytest.approx(0.01, rel=1e-9)
        assert fit.coeff_quadratic == pytest.approx(30.0, rel=1e-9)
        assert fit.residual_rms < 1e-15

    def test_zero_points_give_zero_fit(self):
        fit = fit_std_vs_current([(c, 0.0) for c in np.linspace(0, 1e-4, 12)])
        assert fit.coeff_linear == 0.0 and fit.coeff_quadratic == 0.0
        assert fit(5e-5) == 0.0

    def test_fit_evaluates_zero_at_zero(self):
        cur = np.linspace(0.0, 1e-4, 15)
        fit = fit_std_vs_current(list(zip(cur, 0.05 * cur)))
        assert fit(0.0) == 0.0

    def test_fit_nonnegative_over_domain(self):
        rng = np.random.default_rng(0)
        cur = np.linspace(1e-6, 1e-4, 30)
        std = np.abs(0.02 * cur + rng.normal(0, 1e-7, 30))
        fit = fit_std_vs_current(list(zip(cur, std)))
        probe = np.linspace(fit.domain[0], fit.domain[1], 100)
        assert np.all(fit(probe) >= 0.0)

    def test_requires_ten_points(self):
        with pytest.raises(InvalidInputError):
            fit_std_vs_current([(1e-6, 1e-8)] * 9)

    def test_residual_small_on_monte_carlo_output(self):
        spec = VariationSpec(sigma_min=0.030, trials=300, seed=4)
        pts = monte_carlo_stats([0.5, 0.55, 0.6, 0.675], [3, 7, 11, 15], spec)
        fit = fit_std_vs_current([(p.mean_current, p.std_current) for p in pts])
        assert fit.residual_rms <= 0.2 * max(p.std_current for p in pts)


def _tile_noise(currents, fit, seed):
    """The fitted noise as inference applies it to one tile conversion:
    one ``stream_normals`` stream per sample (row of ``currents``)."""
    ctx = CrossbarContext(variation_fit=fit, variation_seed=seed)
    return _add_tile_noise(np.asarray(currents, dtype=float), ctx,
                           layer_index=0, tile_index=0, sign=1.0,
                           sample_offset=0)


class TestSurrogate:
    def test_zero_fit_is_identity(self):
        fit = StdVsCurrentFit(0.0, 0.0, (0.0, 1e-3), 0.0)
        assert _tile_noise([[3e-5]], fit, 0)[0, 0] == 3e-5
        currents = np.array([[0.0, 1e-6, 3e-5]])
        assert np.array_equal(_tile_noise(currents, fit, 0), currents)

    def test_draw_statistics_match_fit(self):
        fit = StdVsCurrentFit(0.05, 0.0, (0.0, 1e-3), 0.0)
        current = 2e-4
        # 10000 draws: 100 samples, each its own stream, x 100 columns.
        draws = _tile_noise(np.full((100, 100), current), fit, 8)
        sigma = float(fit(current))
        assert draws.std(ddof=1) == pytest.approx(sigma, rel=0.03)
        assert abs(draws.mean() - current) <= 3 * sigma / 100.0

    def test_noise_path_std_matches_fitted_surrogate(self):
        """Constant tile currents spread by exactly the fit's std.

        Each column holds one current of the fit's domain and gets 4,000
        draws, one per sample stream. The sample std of n normal draws
        has a relative standard error of 1 / sqrt(2 (n - 1)), 1.1% here,
        and the sample mean one of sigma / sqrt(n); both must hold within
        four standard errors.
        """
        spec = VariationSpec(sigma_min=0.030, trials=100, seed=13)
        grid = monte_carlo_stats([0.5, 0.55, 0.6, 0.65, 0.675],
                                 [3, 7, 11, 15], spec)
        fit = fit_std_vs_current([(p.mean_current, p.std_current)
                                  for p in grid])
        currents = np.geomspace(*fit.domain, 6)
        n = 4000
        draws = _tile_noise(np.tile(currents, (n, 1)), fit, 21)
        sigma = fit(currents)
        assert np.all(sigma > 0)
        rel_std = draws.std(axis=0, ddof=1) / sigma - 1.0
        assert np.max(np.abs(rel_std)) <= 4 / np.sqrt(2 * (n - 1))
        z_mean = (draws.mean(axis=0) - currents) / (sigma / np.sqrt(n))
        assert np.max(np.abs(z_mean)) <= 4

    def test_surrogate_consistent_with_direct_monte_carlo(self):
        """The fitted Gaussian reproduces the direct tile distribution."""
        spec = VariationSpec(sigma_min=0.030, trials=400, seed=13)
        grid = monte_carlo_stats([0.5, 0.55, 0.6, 0.65, 0.675],
                                 [3, 7, 11, 15], spec)
        fit = fit_std_vs_current([(p.mean_current, p.std_current)
                                  for p in grid])
        probe = [p for p in grid if p.v_in == 0.6 and p.weight_level == 11][0]
        draws = _tile_noise(np.full((50, 100), probe.mean_current), fit, 99)
        se = probe.std_current * np.sqrt(1 / 5000 + 1 / spec.trials)
        assert abs(draws.mean() - probe.mean_current) <= se
        assert draws.std(ddof=1) == pytest.approx(probe.std_current, rel=0.15)


def test_monte_carlo_point_fields():
    p = MonteCarloPoint(0.5, 7, 1e-5, 1e-7, 1e-5)
    assert p.weight_level == 7
