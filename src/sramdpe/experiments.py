"""Experiment implementations behind the CLI verbs.

Each runner takes a resolved config and returns CSV tables; scenarios inside
a sweep are independent and can be mapped over a thread pool. Results are
always emitted in canonical scenario order regardless of completion order.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import config as cfgmod
from .crossbar import (
    CONFIG_A_ENCODING,
    WEIGHT_LEVELS,
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from .dataset import N_CLASSES, generate_digits
from .energy import WorkloadSpec, digital_energy, dpe_energy
from .matio import load_dataset_csv, load_real_matrix, save_real_matrix
from .network import (
    IdealOpamp,
    SenseResistor,
    WORST_CASE_INPUT,
    line_resistance_error_map,
    row_scaling_curve,
    uniform_tile_current,
    variant_worst_case_errors,
)
from .nn import (
    CrossbarContext,
    EvalMode,
    QuantizedNetwork,
    infer,
    train_reference,
)
from .variation import VariationSpec, fit_std_vs_current, monte_carlo_stats

log = logging.getLogger(__name__)


@dataclass
class CsvTable:
    name: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)


def _pmap(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _cell_sweep(cfg: dict, threads: int, name: str, columns: list[str],
                scenarios) -> list[CsvTable]:
    """One 4-bit cell's current under the sense resistor per scenario, a
    (mode, weight, v_in) triple; ``columns`` orders the CSV fields."""
    exc = cfg["excitation"]
    profile = cfgmod.device_profile(cfg)
    sense = SenseResistor(float(cfg["sweep"]["sense_r"]))

    def solve(sc):
        mode, w, v = sc
        i = uniform_tile_current(1, w, mode, v, sense, profile=profile,
                                 v_dd=exc["v_dd"], v_bias=exc["v_bias"])
        return {"config": mode.value, "weight": w, "v_in": v, "i_rbl": i}

    recs = _pmap(solve, scenarios, threads)
    return [CsvTable(name, columns, [tuple(r[c] for c in columns) for r in recs])]


def run_iv_sweep(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """Single 4-bit cell I-V curves for both configs at several weights."""
    sw = cfg["sweep"]
    v_grid = np.arange(sw["v_start"], sw["v_stop"] + 1e-12, sw["v_step"])
    scenarios = [(mode, int(w), round(float(v), 6)) for mode in DriveMode
                 for w in sw["iv_weights"] for v in v_grid]
    return _cell_sweep(cfg, threads, "iv_sweep.csv",
                       ["config", "weight", "v_in", "i_rbl"], scenarios)


def run_weight_sweep(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """Current vs weight level at fixed voltages in each config's window."""
    sw = cfg["sweep"]
    volts = {DriveMode.CONFIG_A: sw["weight_voltages_a"],
             DriveMode.CONFIG_B: sw["weight_voltages_b"]}
    scenarios = [(mode, w, round(float(v), 6)) for mode in DriveMode
                 for v in volts[mode] for w in range(WEIGHT_LEVELS)]
    return _cell_sweep(cfg, threads, "weight_sweep.csv",
                       ["config", "v_in", "weight", "i_rbl"], scenarios)


def run_row_scaling(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """I_N vs N x I_1 for both configs under both terminations."""
    cfgmod.require_drive(cfg, max(WORST_CASE_INPUT.values()))
    sw = cfg["sweep"]
    profile = cfgmod.device_profile(cfg)
    exc = cfg["excitation"]
    t_cfg = cfg["termination"]
    combos = [
        (mode, term)
        for mode in (DriveMode.CONFIG_A, DriveMode.CONFIG_B)
        for term in (SenseResistor(float(sw["sense_r"])),
                     IdealOpamp(float(t_cfg["v_pos"])))
    ]

    def solve(combo):
        mode, term = combo
        return row_scaling_curve(
            sw["row_counts"], mode, term, profile=profile,
            v_dd=exc["v_dd"], v_bias=exc["v_bias"],
        )

    results = _pmap(solve, combos, threads)
    table = CsvTable(
        "row_scaling.csv",
        ["config", "termination", "v_in", "n_rows", "i_n", "n_times_i1",
         "deviation_pct"],
    )
    for (mode, term), points in zip(combos, results):
        t_name = "sense_resistor" if isinstance(term, SenseResistor) else "ideal_opamp"
        for pt in points:
            table.rows.append((mode.value, t_name, WORST_CASE_INPUT[mode],
                               pt.n, pt.i_n, pt.ideal, pt.deviation_pct))
    return [table]


def run_lineres_map(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """Line-resistance error map plus the four-variant worst-case bars."""
    cfgmod.require_drive(cfg, max(WORST_CASE_INPUT.values()))
    sw, exc, geometry = cfg["sweep"], cfg["excitation"], cfg["geometry"]
    setup = dict(rows=geometry["rows"], words=geometry["word_columns"],
                 parasitics=cfgmod.parasitics(cfg),
                 t=cfgmod.termination(cfg), profile=cfgmod.device_profile(cfg),
                 v_dd=exc["v_dd"], v_bias=exc["v_bias"])
    variant = cfgmod.drive_variant(cfg)
    mode = cfgmod.drive_mode(cfg)

    map_table = CsvTable(
        "lineres_map.csv",
        ["config", "variant", "n_active", "v_in", "weight_level",
         "worst_error_pct"],
    )
    bars = CsvTable(
        "lineres_variants.csv",
        ["label", "config", "n_active", "worst_error_pct"],
    )
    variant_name = cfg["drive_variant"]["kind"]

    def solve(n_active):
        return (line_resistance_error_map(sw["map_voltages"],
                                          sw["map_weights"], n_active,
                                          variant, mode, **setup),
                variant_worst_case_errors(n_active, **setup))

    n_list = sw["map_active_rows"]
    for n_active, (pts, res) in zip(n_list, _pmap(solve, n_list, threads)):
        for pt in pts:
            map_table.rows.append((mode.value, variant_name, n_active,
                                   pt.v_in, pt.weight_level,
                                   pt.worst_error_pct))
        for r in res:
            bars.rows.append((r.label, r.mode.value, n_active,
                              r.worst_error_pct))
    return [map_table, bars]


def run_montecarlo(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """Vt Monte Carlo statistics over the (voltage, weight) grid plus fit."""
    var = cfg["variation"]
    profile = cfgmod.device_profile(cfg)
    exc = cfg["excitation"]
    spec = VariationSpec(sigma_min=float(var["sigma_min"]),
                         seed=int(cfg["seed"]), trials=int(var["trials"]))
    points = monte_carlo_stats(
        var["mc_voltages"], var["mc_weights"], spec,
        n_rows=int(var["mc_rows"]), mode=cfgmod.drive_mode(cfg),
        profile=profile, v_dd=exc["v_dd"], v_bias=exc["v_bias"],
        v_clamp=float(cfg["termination"]["v_pos"]),
    )
    stats = CsvTable(
        "montecarlo_stats.csv",
        ["v_in", "weight_level", "mean_current", "std_current",
         "nominal_current"],
    )
    for pt in points:
        stats.rows.append((pt.v_in, pt.weight_level, pt.mean_current,
                           pt.std_current, pt.nominal_current))
    fit_table = CsvTable(
        "montecarlo_fit.csv",
        ["coeff_linear", "coeff_quadratic", "domain_lo", "domain_hi",
         "residual_rms"],
    )
    if len(points) >= 10:   # fit precondition; smaller grids emit stats only
        fit = fit_std_vs_current(
            [(p.mean_current, p.std_current) for p in points]
        )
        fit_table.rows.append((fit.coeff_linear, fit.coeff_quadratic,
                               fit.domain[0], fit.domain[1],
                               fit.residual_rms))
    return [stats, fit_table]


def _nn_dataset(cfg: dict):
    nn = cfg["nn"]
    if nn["dataset_csv"]:
        x, y = load_dataset_csv(nn["dataset_csv"])
        n_test = max(1, len(y) // 4)
        return (x[n_test:], y[n_test:], x[:n_test], y[:n_test])
    ds = generate_digits(
        n_train_per_class=int(nn["train_per_class"]),
        n_test_per_class=int(nn["test_per_class"]),
        seed=int(cfg["seed"]) + 7,
        noise_sigma=float(nn["noise_sigma"]),
    )
    return ds.train_x, ds.train_y, ds.test_x, ds.test_y


def run_nn(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """Train (or import) weights, evaluate all three fidelity modes."""
    nn, exc = cfg["nn"], cfg["excitation"]
    v_clamp = float(cfg["termination"]["v_pos"])
    profile = cfgmod.device_profile(cfg)
    train_x, train_y, test_x, test_y = _nn_dataset(cfg)

    if nn["weights_in"]:
        weights = [load_real_matrix(p) for p in nn["weights_in"]]
        losses = []
    else:
        hidden = 32
        weights, losses = train_reference(
            train_x, train_y, topology=(train_x.shape[1], hidden, N_CLASSES),
            epochs=int(nn["epochs"]), lr=float(nn["lr"]),
            batch_size=int(nn["batch_size"]), seed=int(cfg["seed"]),
        )
    network = QuantizedNetwork.from_real_weights(weights)

    var = cfg["variation"]
    spec = VariationSpec(sigma_min=float(var["sigma_min"]),
                         seed=int(cfg["seed"]), trials=int(nn["fit_trials"]))
    pts = monte_carlo_stats(nn["fit_voltages"], nn["fit_weights"], spec,
                            n_rows=int(nn["tile_rows"]), profile=profile,
                            mode=DriveMode.CONFIG_B, v_dd=exc["v_dd"],
                            v_bias=exc["v_bias"], v_clamp=v_clamp)
    fit = fit_std_vs_current([(p.mean_current, p.std_current) for p in pts])

    # One calibrated context serves every mode: IDEAL ignores it and only
    # CROSSBAR_VARIATION reads the fit.
    ctx = CrossbarContext(
        profile=profile, anchor=nn["normalization_anchor"],
        v_dd=exc["v_dd"], v_clamp=v_clamp,
        adc_bits=int(nn["adc_bits"]), tile_rows=int(nn["tile_rows"]),
        variation_fit=fit, variation_seed=int(cfg["seed"]),
    )
    modes = list(EvalMode)
    accs = _pmap(
        lambda mode: infer(test_x, test_y, network, mode, ctx), modes, threads
    )

    for idx, w in enumerate(weights):
        save_real_matrix(out_dir / f"nn_weights_layer{idx}.txt", w)

    acc_table = CsvTable(
        "nn_accuracy.csv",
        ["mode", "accuracy", "n_test", "n_train", "final_train_loss"],
    )
    final_loss = losses[-1] if losses else float("nan")
    for mode, acc in zip(modes, accs):
        acc_table.rows.append((mode.value, acc, len(test_y), len(train_y),
                               final_loss))
    layer_table = CsvTable(
        "nn_layers.csv", ["layer", "in_dim", "out_dim", "scale"],
        [(i, l.in_dim, l.out_dim, l.scale)
         for i, l in enumerate(network.layers)],
    )
    return [acc_table, layer_table]


def run_energy(cfg: dict, out_dir, threads: int = 1) -> list[CsvTable]:
    """DPE vs digital-sequential energy for the configured workload."""
    en = cfg["energy"]
    params = cfgmod.energy_params(cfg)
    profile = cfgmod.device_profile(cfg)
    rows, words = int(en["rows"]), int(en["words"])
    work = WorkloadSpec(rows=rows, words=words)

    cells = pack_weights(
        WeightMatrix.uniform(rows, words, int(en["weight_level"])), profile)
    v_in = float(CONFIG_A_ENCODING.encode(float(en["input_level"])))
    cfgmod.require_drive(cfg, v_in)
    v_pos = float(cfg["termination"]["v_pos"])
    e = Excitation(DriveMode.CONFIG_A, np.full(rows, v_in),
                   v_dd=cfg["excitation"]["v_dd"])
    currents = ideal_column_currents(e, cells, v_pos).per_group

    em_flag = 0
    ceiling = en["em_current_ceiling"]
    if ceiling is not None and float(np.max(np.abs(currents))) > float(ceiling):
        em_flag = 1
        log.warning("peak column current %.3e A exceeds the electromigration "
                    "ceiling %.3e A", np.max(np.abs(currents)), float(ceiling))

    dpe = dpe_energy(work, params, currents, v_dd=cfg["excitation"]["v_dd"])
    dig = digital_energy(work, params)
    sha = params.sha256()
    cols = ["approach", "total_energy_j", "time_s", "dac_j", "adc_j",
            "analog_static_j", "array_access_j", "memory_read_j", "mac_j",
            "em_flag", "params_sha256"]
    table = CsvTable("energy.csv", cols)
    table.rows.append((
        "dpe", dpe.total_energy, dpe.time,
        dpe.breakdown["dac"], dpe.breakdown["adc"],
        dpe.breakdown["analog_static"], dpe.breakdown["array_access"],
        0.0, 0.0, em_flag, sha,
    ))
    table.rows.append((
        "digital_sequential", dig.total_energy, dig.time,
        0.0, 0.0, 0.0, 0.0,
        dig.breakdown["memory_read"], dig.breakdown["mac"], 0, sha,
    ))
    return [table]


RUNNERS = {
    "iv-sweep": run_iv_sweep,
    "weight-sweep": run_weight_sweep,
    "row-scaling": run_row_scaling,
    "lineres-map": run_lineres_map,
    "montecarlo": run_montecarlo,
    "nn": run_nn,
    "energy": run_energy,
}
