import numpy as np

from sramdpe import experiments
from sramdpe.config import device_profile, resolve_config
from sramdpe.crossbar import (
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from sramdpe.experiments import (
    run_energy,
    run_iv_sweep,
    run_nn,
    run_row_scaling,
    run_weight_sweep,
)


def _rows_by(table, **match):
    out = []
    for row in table.rows:
        rec = dict(zip(table.columns, row))
        if all(rec[k] == v for k, v in match.items()):
            out.append(rec)
    return out


def test_iv_sweep_slope_grows_with_weight():
    cfg = resolve_config({
        "sweep": {"v_start": 0.05, "v_stop": 0.15, "v_step": 0.025,
                  "iv_weights": [0, 4, 10, 15]},
    })
    table = run_iv_sweep(cfg, None)[0]
    # the zero-weight branch stays at leakage level throughout
    zero = _rows_by(table, weight=0)
    assert zero and all(abs(r["i_rbl"]) <= 1e-9 for r in zero)
    slopes = []
    for w in (4, 10, 15):
        pts = _rows_by(table, config="config_a", weight=w)
        v = np.array([r["v_in"] for r in pts])
        i = np.array([r["i_rbl"] for r in pts])
        slopes.append(np.polyfit(v, i, 1)[0])
    assert slopes[0] < slopes[1] < slopes[2]


def test_weight_sweep_zero_weight_near_zero():
    cfg = resolve_config({
        "sweep": {"weight_voltages_a": [0.1], "weight_voltages_b": [0.55]},
    })
    table = run_weight_sweep(cfg, None)[0]
    assert all(abs(r["i_rbl"]) <= 1e-9 for r in _rows_by(table, weight=0))


def test_weight_zero_reads_its_off_stacks_at_the_sense_voltage():
    """Under the sense resistor a weight-0 word's current is the summed
    current of its four OFF stacks with the RBL at the solved sense
    voltage, i_rbl * R: its leakage, not the 0 V where Newton starts."""
    cfg = resolve_config({})
    exc = cfg["excitation"]
    table = run_weight_sweep(cfg, None)[0]
    zero = _rows_by(table, weight=0)
    assert len(zero) == 6
    cells = pack_weights(WeightMatrix([[0]]), device_profile(cfg))
    for rec in zero:
        e = Excitation(DriveMode(rec["config"]), [rec["v_in"]],
                       v_dd=exc["v_dd"], v_bias=exc["v_bias"])
        v_sense = rec["i_rbl"] * cfg["sweep"]["sense_r"]
        leak = ideal_column_currents(e, cells, v_sense).per_group[0]
        assert leak != 0.0
        assert abs(rec["i_rbl"] - leak) <= 1e-9 * abs(leak), rec


def test_row_scaling_table_reports_both_terminations():
    cfg = resolve_config({"sweep": {"row_counts": [1, 4]}})
    table = run_row_scaling(cfg, None)[0]
    assert set(table.columns) == {
        "config", "termination", "v_in", "n_rows", "i_n", "n_times_i1",
        "deviation_pct",
    }
    kinds = {(r["config"], r["termination"])
             for r in (dict(zip(table.columns, row)) for row in table.rows)}
    assert len(kinds) == 4


def test_energy_table_traceable():
    cfg = resolve_config({})
    table = run_energy(cfg, None)[0]
    recs = [dict(zip(table.columns, row)) for row in table.rows]
    assert {r["approach"] for r in recs} == {"dpe", "digital_sequential"}
    hashes = {r["params_sha256"] for r in recs}
    assert len(hashes) == 1 and len(hashes.pop()) == 64
    dpe = next(r for r in recs if r["approach"] == "dpe")
    dig = next(r for r in recs if r["approach"] == "digital_sequential")
    assert dig["total_energy_j"] > dpe["total_energy_j"]
    assert dig["time_s"] > dpe["time_s"]


def test_nn_reads_supply_bias_and_clamp(tmp_path, monkeypatch):
    """The variation fit and the crossbar context take the configured drive
    and tile height, and the fit drives its tiles in Config-A, as inference
    does."""
    cfg = resolve_config({
        "excitation": {"v_dd": 0.7, "v_bias": 0.25},
        "termination": {"v_pos": 0.05},
        "nn": {"epochs": 2, "train_per_class": 4, "test_per_class": 2,
               "fit_trials": 20, "tile_rows": 8},
    })
    mc_calls, contexts = [], []
    stats = experiments.monte_carlo_stats

    def spy_stats(*args, **kwargs):
        mc_calls.append(kwargs)
        return stats(*args, **kwargs)

    def spy_infer(x, y, network, mode, ctx):
        contexts.append(ctx)
        return 1.0

    monkeypatch.setattr(experiments, "monte_carlo_stats", spy_stats)
    monkeypatch.setattr(experiments, "infer", spy_infer)
    run_nn(cfg, tmp_path)
    assert [(c["v_dd"], c["v_bias"], c["v_clamp"], c["n_rows"], c["mode"])
            for c in mc_calls] == [(0.7, 0.25, 0.05, 8, DriveMode.CONFIG_A)]
    ctx = contexts[0]
    assert (ctx.v_dd, ctx.v_clamp, ctx.tile_rows) == (0.7, 0.05, 8)
    assert ctx.i_max == experiments.CrossbarContext(v_dd=0.7,
                                                    v_clamp=0.05).i_max
