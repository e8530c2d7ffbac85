"""End-to-end acceptance suite.

One test per criterion, each printing a pass/fail line and enforcing its
runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from sramdpe.cli import main as cli_main
from sramdpe.config import resolve_config
from sramdpe.crossbar import (
    DriveMode,
    Excitation,
    WeightMatrix,
    pack_weights,
)
from sramdpe.dataset import generate_digits
from sramdpe.energy import EnergyParams, WorkloadSpec, digital_energy, dpe_energy
from sramdpe.experiments import run_weight_sweep
from sramdpe.network import (
    IdealOpamp,
    SenseResistor,
    SingleEnd,
    ZERO_PARASITICS,
    build_network,
    row_scaling_curve,
    solve_operating_point,
    variant_worst_case_errors,
)
from sramdpe.nn import (
    CrossbarContext,
    EvalMode,
    QuantizedNetwork,
    infer,
    loss_and_grads,
    train_reference,
)
from sramdpe.variation import (
    VariationSpec,
    fit_std_vs_current,
    monte_carlo_stats,
    sample_vt_offsets,
)

from oracles import dense_oracle_solve, share
from test_network import _random_network


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"[acceptance] C{number:02d} {'PASS' if ok else 'FAIL'} "
          f"{description} ({elapsed:.1f}s, budget {budget_s}s)")
    assert ok, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.1f}s >= {budget_s}s"
    )


def test_c01_binary_weighted_ratio():
    with criterion(1, "bit-column currents in ratio 8:4:2:1 within 1%", 1.0):
        cells = pack_weights(WeightMatrix([[15]]))
        e = Excitation(DriveMode.CONFIG_A, [0.2])
        net = build_network(ZERO_PARASITICS, SingleEnd(), IdealOpamp(0.1), e,
                            cells)
        bits = solve_operating_point(net).column_currents.per_bit_column
        ratios = bits / bits[-1]
        assert np.allclose(ratios, [8.0, 4.0, 2.0, 1.0], rtol=0.01)


def test_c02_weight_level_linearity():
    with criterion(2, "current vs weight level: zero-intercept R^2 >= 0.99 "
                      "at all six voltages", 10.0):
        cfg = resolve_config({})
        rows = run_weight_sweep(cfg, None)[0].rows
        series = {}
        for config, v, w, i in rows:
            series.setdefault((config, v), []).append((w, i))
        assert len(series) == 6
        for (config, v), pts in series.items():
            w = np.array([p[0] for p in pts], dtype=float)
            i = np.array([p[1] for p in pts])
            slope = (w @ i) / (w @ w)
            r2 = 1 - np.sum((i - slope * w) ** 2) / np.sum((i - i.mean()) ** 2)
            assert r2 >= 0.99, f"{config} at {v} V: R^2 = {r2:.4f}"


def test_c03_row_scaling():
    with criterion(3, "sense-resistor deviation grows with N (>5% at 64); "
                      "ideal opamp stays <= 0.5%", 30.0):
        n_list = [1, 8, 16, 32, 64]
        for mode in (DriveMode.CONFIG_A, DriveMode.CONFIG_B):
            sense = row_scaling_curve(n_list, mode, SenseResistor(50.0))
            devs = [p.deviation_pct for p in sense]
            assert all(b > a for a, b in zip(devs, devs[1:])), devs
            assert devs[-1] > 5.0
            opamp = row_scaling_curve(n_list, mode, IdealOpamp(0.1))
            assert all(p.deviation_pct <= 0.5 for p in opamp)


def test_c04_oracle_equivalence():
    with criterion(4, "sparse solve matches dense oracle within 1e-9 "
                      "relative on 50 random networks", 60.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            net = _random_network(rng)
            sparse = solve_operating_point(net)
            dense = dense_oracle_solve(net)
            denom = np.maximum(np.abs(dense.column_currents.per_group), 1e-15)
            rel = np.abs(sparse.column_currents.per_group
                         - dense.column_currents.per_group) / denom
            assert np.max(rel) <= 1e-9
            assert sparse.max_kcl_residual <= 1e-9
            assert dense.max_kcl_residual <= 1e-9


def test_c05_line_resistance_variants():
    with criterion(5, "variant ordering at the 16-row corner; tapped-16 "
                      "worst case <= 10%; 8-row < 16-row", 300.0):
        err16 = {r.label: r.worst_error_pct
                 for r in variant_worst_case_errors(16)}
        assert err16["config_a_single_end"] >= err16["config_b_both_ends"]
        assert err16["config_b_both_ends"] >= err16["config_b_tapped"]
        assert err16["config_b_tapped"] <= 10.0
        err8 = {r.label: r.worst_error_pct
                for r in variant_worst_case_errors(8)}
        assert err8["config_b_tapped"] < err16["config_b_tapped"]


def test_c06_monte_carlo():
    with criterion(6, "std-vs-mean rank correlation >= 0.9; zero sigma is "
                      "identically zero; width law sqrt(8) within 3%", 600.0):
        spec = VariationSpec(sigma_min=0.030, trials=1000, seed=404)
        pts = monte_carlo_stats([0.425, 0.5, 0.6, 0.675], [3, 7, 11, 15],
                                spec)
        rho = spearmanr([p.mean_current for p in pts],
                        [p.std_current for p in pts]).statistic
        assert rho >= 0.9

        zero = VariationSpec(sigma_min=0.0, trials=200, seed=404)
        zpts = monte_carlo_stats([0.5, 0.675], [7, 15], zero)
        assert all(p.std_current == 0.0 for p in zpts)

        d1 = np.concatenate([sample_vt_offsets(spec, np.ones(100), t)
                             for t in range(1000)])
        spec_b = VariationSpec(sigma_min=0.030, trials=1000, seed=405)
        d8 = np.concatenate([sample_vt_offsets(spec_b, np.full(100, 8), t)
                             for t in range(1000)])
        ratio = d1.std(ddof=1) / d8.std(ddof=1)
        assert ratio == pytest.approx(np.sqrt(8), rel=0.03)


def test_c07_nn_end_to_end():
    with criterion(7, "bundled 64-32-10 digits: ideal >= 85%; crossbar "
                      "within 2%; variation within a further 1%", 600.0):
        ds = generate_digits()
        weights, _ = train_reference(ds.train_x, ds.train_y, seed=0)
        network = QuantizedNetwork.from_real_weights(weights)
        assert network.topology == (64, 32, 10)

        acc_ideal = infer(ds.test_x, ds.test_y, network, EvalMode.IDEAL)
        assert acc_ideal >= 0.85

        ctx = CrossbarContext()
        acc_cb = infer(ds.test_x, ds.test_y, network, EvalMode.CROSSBAR, ctx)
        assert acc_cb >= acc_ideal - 0.02

        spec = VariationSpec(sigma_min=0.030, trials=400, seed=0)
        pts = monte_carlo_stats([0.425, 0.5, 0.6, 0.675], [3, 7, 11, 15],
                                spec)
        fit = fit_std_vs_current([(p.mean_current, p.std_current)
                                  for p in pts])
        ctx_var = CrossbarContext(variation_fit=fit, variation_seed=0)
        acc_var = infer(ds.test_x, ds.test_y, network,
                        EvalMode.CROSSBAR_VARIATION, ctx_var)
        assert acc_var >= acc_cb - 0.01


def test_c08_gradient_check():
    with criterion(8, "backprop gradients match central differences within "
                      "1e-4 relative on a 3-3-2 network", 1.0):
        rng = np.random.default_rng(88)
        x = rng.uniform(0.2, 0.6, (6, 3))
        w1 = rng.uniform(0.1, 0.4, (3, 3))
        w2 = rng.uniform(0.1, 0.4, (3, 2))
        y = np.zeros((6, 2))
        y[np.arange(6), rng.integers(0, 2, 6)] = 1.0
        _, grads = loss_and_grads([w1, w2], x, y)
        h = 1e-6
        for wi in range(2):
            w = [w1, w2][wi]
            for idx in np.ndindex(w.shape):
                plus = [w1.copy(), w2.copy()]
                minus = [w1.copy(), w2.copy()]
                plus[wi][idx] += h
                minus[wi][idx] -= h
                fd = (loss_and_grads(plus, x, y)[0]
                      - loss_and_grads(minus, x, y)[0]) / (2 * h)
                assert grads[wi][idx] == pytest.approx(fd, rel=1e-4,
                                                       abs=1e-12)


def test_c09_energy_ordering():
    with criterion(9, "digital sequential 16x16 energy > DPE energy; "
                      "peripheral share > 50%", 1.0):
        params = EnergyParams()
        work = WorkloadSpec(rows=16, words=16)
        cells = pack_weights(WeightMatrix.uniform(16, 16, 3))
        e = Excitation(DriveMode.CONFIG_A, np.full(16, 0.16))
        from sramdpe.crossbar import ideal_column_currents

        currents = ideal_column_currents(e, cells, 0.1).per_group
        dpe = dpe_energy(work, params, currents)
        dig = digital_energy(work, params)
        assert dig.total_energy > dpe.total_energy
        assert share(dpe, "adc", "dac") > 0.5


ACCEPTANCE_CLI_CFG = {
    "sweep": {
        "v_start": 0.05, "v_stop": 0.2, "v_step": 0.05,
        "iv_weights": [0, 15],
        "weight_voltages_a": [0.15], "weight_voltages_b": [0.6],
        "row_counts": [1, 4],
        "map_voltages": [0.675], "map_weights": [15],
        "map_active_rows": [4],
    },
    "geometry": {"rows": 8, "word_columns": 2},
    "variation": {"mc_voltages": [0.55, 0.6, 0.65, 0.675],
                  "mc_weights": [5, 9, 15], "trials": 60, "mc_rows": 8},
    "nn": {"epochs": 15, "train_per_class": 20, "test_per_class": 6,
           "fit_trials": 60},
}


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command reruns byte-identically for a "
                       "fixed config and seed", 600.0):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(ACCEPTANCE_CLI_CFG))
        for command in ("iv-sweep", "weight-sweep", "row-scaling",
                        "lineres-map", "montecarlo", "nn", "energy"):
            out_a = tmp_path / f"{command}-a"
            out_b = tmp_path / f"{command}-b"
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(out_a), "--seed", "11"]) == 0
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(out_b), "--seed", "11"]) == 0
            manifest = json.loads((out_a / "manifest.json").read_text())
            names = manifest["outputs"] + ["manifest.json",
                                           "resolved_config.json"]
            for name in names:
                assert (out_a / name).read_bytes() == \
                    (out_b / name).read_bytes(), f"{command}/{name} differs"
