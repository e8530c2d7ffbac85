import json

import numpy as np
import pytest

from sramdpe import cli
from sramdpe.cli import main
from sramdpe.config import (
    config_sha256,
    device_profile,
    drive_variant,
    load_config,
    resolve_config,
    termination,
)
from sramdpe.errors import ConfigError, SolverError
from sramdpe.matio import load_dataset_csv, load_real_matrix, save_real_matrix
from sramdpe.network import IdealOpamp, SenseResistor, TappedEvery

from oracles import save_dataset_csv


class TestMatrixIO:
    def test_real_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (4, 6))
        path = tmp_path / "r.txt"
        save_real_matrix(path, w)
        assert np.array_equal(load_real_matrix(path), w)

    def test_dataset_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (7, 4))
        y = rng.integers(0, 10, 7)
        path = tmp_path / "d.csv"
        save_dataset_csv(path, x, y)
        x2, y2 = load_dataset_csv(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config({})
        assert cfg["version"] == 1
        assert cfg["geometry"]["rows"] == 64
        assert config_sha256(cfg) == config_sha256(resolve_config({}))

    def test_unknown_keys_rejected_at_all_levels(self):
        with pytest.raises(ConfigError):
            resolve_config({"bogus": 1})
        with pytest.raises(ConfigError):
            resolve_config({"geometry": {"rows": 8, "cols": 8}})
        with pytest.raises(ConfigError):
            resolve_config({"device_profile": {"vt0": 0.4, "nope": 2}})

    def test_version_and_enums_validated(self):
        with pytest.raises(ConfigError):
            resolve_config({"version": 99})
        with pytest.raises(ConfigError):
            resolve_config({"excitation": {"mode": "config_c"}})
        with pytest.raises(ConfigError):
            resolve_config({"termination": {"kind": "magic"}})

    def test_profile_by_name_and_overrides(self):
        cfg = resolve_config({"device_profile": "default-45"})
        assert device_profile(cfg).vt0 == 0.4
        cfg = resolve_config(
            {"device_profile": {"name": "default-45", "vt0": 0.45,
                                "lambda": 0.2}}
        )
        p = device_profile(cfg)
        assert p.vt0 == 0.45 and p.lam == 0.2
        with pytest.raises(ConfigError):
            resolve_config({"device_profile": "pdk-7"})

    def test_factories(self):
        cfg = resolve_config({
            "termination": {"kind": "sense_resistor", "r": 75.0},
            "drive_variant": {"kind": "tapped", "k": 8},
        })
        assert termination(cfg) == SenseResistor(75.0)
        assert drive_variant(cfg) == TappedEvery(8)
        cfg2 = resolve_config({})
        assert isinstance(termination(cfg2), IdealOpamp)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(bad)


SMALL_CFG = {
    "sweep": {
        "v_start": 0.05,
        "v_stop": 0.2,
        "v_step": 0.05,
        "iv_weights": [0, 15],
        "weight_voltages_a": [0.15],
        "weight_voltages_b": [0.6],
        "row_counts": [1, 4],
        "map_voltages": [0.675],
        "map_weights": [15],
        "map_active_rows": [4],
    },
    "geometry": {"rows": 8, "word_columns": 2},
    "variation": {"mc_voltages": [0.55, 0.6, 0.65, 0.675],
                  "mc_weights": [5, 9, 15], "trials": 60, "mc_rows": 8},
    "nn": {"epochs": 15, "train_per_class": 20, "test_per_class": 6,
           "fit_trials": 60},
}


def _supply_cfg(v_dd):
    """``SMALL_CFG`` at supply ``v_dd`` with every drive voltage in
    [0, v_dd + 0.1]."""
    volts = {0.5: [0.3, 0.45, 0.5, 0.6], 0.05: [0.05, 0.1, 0.12, 0.15]}[v_dd]
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["excitation"] = {"v_dd": v_dd, "v_bias": volts[0]}
    cfg["sweep"].update(v_start=volts[0], v_stop=volts[-1],
                        weight_voltages_a=volts, weight_voltages_b=volts,
                        map_voltages=volts[-1:])
    cfg["variation"]["mc_voltages"] = volts
    cfg["nn"]["fit_voltages"] = volts
    return cfg


class TestCli:
    @pytest.mark.parametrize("command", [
        "iv-sweep", "weight-sweep", "row-scaling", "lineres-map",
        "montecarlo", "nn", "energy",
    ])
    def test_runs_deterministically(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFG))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([command, "--config", str(cfg_path),
                     "--out", str(out_a), "--seed", "3"]) == 0
        assert main([command, "--config", str(cfg_path),
                     "--out", str(out_b), "--seed", "3"]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"] == command
        for name in manifest["outputs"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "resolved_config.json").exists()

    def test_invalid_config_exits_with_diagnostic(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": True}))
        rc = main(["energy", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("lineres-map", "geometry", "rows", "abc"),
        ("iv-sweep", "sweep", "v_step", 0),
        ("nn", "nn", "tile_rows", 0),
        ("nn", "nn", "adc_bits", 0),
        ("energy", "energy", "params_file", "missing_params.json"),
        ("energy", "excitation", "v_dd", "x"),
        ("row-scaling", "sweep", "row_counts", ["x"]),
        ("nn", "nn", "fit_voltages", "abc"),
        ("energy", "energy", "em_current_ceiling", "x"),
        ("nn", "nn", "weights_in", ["nope.txt"]),
        ("nn", "nn", "dataset_csv", "nope.csv"),
        ("energy", "device_profile", "vt0", "x"),
        ("row-scaling", "sweep", "row_counts", []),
        ("nn", "nn", "batch_size", 0),
        ("nn", "nn", "test_per_class", 0),
        ("nn", "nn", "train_per_class", 0),
        ("montecarlo", "variation", "mc_rows", -3),
        ("nn", "nn", "noise_sigma", -1),
        ("montecarlo", "variation", "sigma_min", -1),
        ("lineres-map", "parasitics", "r_bl_per_cell", -1),
        ("lineres-map", "parasitics", "r_sl_per_cell", -1),
        ("nn", "nn", "normalization_anchor", "x"),
        ("nn", "nn", "normalization_anchor", 5),
        ("iv-sweep", "sweep", "v_stop", 0.01),
        ("energy", "energy", "input_level", -2),
        ("energy", "energy", "input_level", 1.5),
        ("nn", "nn", "epochs", -1),
        ("lineres-map", "sweep", "map_active_rows", [0]),
        ("lineres-map", "sweep", "map_active_rows", [-2]),
        ("lineres-map", "sweep", "map_active_rows", [4, 9]),
        ("lineres-map", "geometry", "rows", 0),
        ("lineres-map", "geometry", "word_columns", 0),
        ("energy", "energy", "rows", 0),
        ("energy", "energy", "words", 0),
        ("iv-sweep", "sweep", "iv_weights", [0, 16]),
        ("lineres-map", "sweep", "map_weights", [-1]),
        ("montecarlo", "variation", "mc_weights", [16]),
        ("nn", "nn", "fit_weights", [3, 16]),
        ("energy", "energy", "weight_level", 16),
        ("energy", "energy", "weight_level", -1),
        ("montecarlo", "termination", "v_pos", -1.0),
        ("iv-sweep", "sweep", "v_stop", 5.0),
        ("iv-sweep", "sweep", "v_start", -0.1),
        ("weight-sweep", "sweep", "weight_voltages_a", [0.1, 5.0]),
        ("weight-sweep", "sweep", "weight_voltages_b", [-0.5]),
        ("lineres-map", "sweep", "map_voltages", [5.0]),
        ("montecarlo", "variation", "mc_voltages", [5.0]),
        ("nn", "nn", "fit_voltages", [5.0]),
        ("montecarlo", "excitation", "v_bias", 0.9),
        ("energy", "excitation", "v_dd", -1.0),
        ("lineres-map", "drive_variant", "k", 0),
        ("row-scaling", "sweep", "sense_r", 0.0),
        ("lineres-map", "termination", "r", -5.0),
        ("nn", "nn", "adc_bits", 2000),
        ("iv-sweep", "sweep", "v_step", 1e-300),
        ("iv-sweep", "sweep", "v_step", 1e-12),
        ("energy", "device_profile", "subthreshold_n", 0.0),
        ("energy", "device_profile", "vt0", -1.0),
        ("row-scaling", "sweep", "row_counts", [0, 2]),
    ])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys,
                                               command, section, key, value):
        cfg = json.loads(json.dumps(SMALL_CFG))
        cfg.setdefault(section, {})[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, v_dd, fixed_input", [
        ("row-scaling", 0.5, "0.675"),
        ("lineres-map", 0.5, "0.675"),
        ("energy", 0.05, "0.16"),
    ])
    def test_fixed_input_above_supply_exits_2_naming_v_dd(
            self, tmp_path, capsys, command, v_dd, fixed_input):
        """Every configured voltage fits the supply's window, but the verb's
        fixed input (the worst-case input, the encoded energy input) does
        not: the message names the supply and that input."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_supply_cfg(v_dd)))
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "excitation.v_dd" in err and fixed_input in err

    @pytest.mark.parametrize("command", ["nn", "montecarlo"])
    def test_supply_below_fixed_inputs_still_runs(self, tmp_path, command):
        """Verbs with no fixed input accept the same supply."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_supply_cfg(0.5)))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command, key, content, named", [
        ("energy", "params_file", "not json", ["energy.params_file"]),
        ("energy", "params_file", '{"e_adc": "x"}',
         ["energy.params_file.e_adc"]),
        ("energy", "params_file", "[1, 2]", ["energy.params_file", "object"]),
        ("energy", "params_file", '{"n_adcs": 2.5}',
         ["energy.params_file.n_adcs"]),
        ("energy", "params_file", '{"n_adcs": 0}', ["n_adcs"]),
        ("nn", "dataset_csv", "f0,label\n0.1,1\nx,2\n", ["{path}", "line 3"]),
        ("nn", "dataset_csv", "f0,f1,label\n0.1,0.2,1\n0.3,2\n",
         ["{path}", "line 3"]),
        ("nn", "dataset_csv", "f0,f1,label\n", ["{path}"]),
        ("nn", "dataset_csv", "f0,label\n0.5,1\n", ["{path}"]),
        ("nn", "dataset_csv", "f0,label\n0.1,1\nnan,2\n",
         ["{path}", "line 3", "non-finite"]),
        ("nn", "dataset_csv", "f0,label\n0.1,1\n0.2,12\n",
         ["{path}", "label 12"]),
        ("nn", "dataset_csv", "f0,label\n0.1,1\n0.2,-1\n",
         ["{path}", "label -1"]),
        ("nn", "weights_in", "2 x\n1 2\n", ["{path}"]),
        ("nn", "weights_in", "1 2\n1 x\n", ["{path}"]),
    ], ids=["params-not-json", "params-string-value", "params-list",
            "params-fractional-n_adcs", "params-zero-n_adcs",
            "dataset-non-numeric", "dataset-ragged", "dataset-header-only",
            "dataset-one-row", "dataset-nan-feature", "dataset-label-above",
            "dataset-label-negative", "weights-bad-header", "weights-non-numeric"])
    def test_malformed_input_file_exits_2_naming_it(self, tmp_path, capsys,
                                                    command, key, content,
                                                    named):
        path = tmp_path / "input.txt"
        path.write_text(content)
        cfg = json.loads(json.dumps(SMALL_CFG))
        section = "energy" if command == "energy" else "nn"
        cfg.setdefault(section, {})[key] = \
            [str(path)] if key == "weights_in" else str(path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        for text in named:
            assert text.format(path=path) in err

    @pytest.mark.parametrize("name", ["SEED", "THREADS"])
    def test_malformed_env_exits_2_naming_it(self, tmp_path, capsys,
                                             monkeypatch, name):
        monkeypatch.setenv(f"SRAMDPE_{name}", "abc")
        assert main(["energy", "--out", str(tmp_path / "o")]) == 2
        assert f"SRAMDPE_{name}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_in_config", [True, False])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys,
                                             seed_in_config):
        cfg = dict(SMALL_CFG, seed=-1) if seed_in_config else SMALL_CFG
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        flag = [] if seed_in_config else ["--seed", "-1"]
        rc = main(["nn", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"), *flag])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, code", [
        ("mc_weights", [], 0),
        ("mc_voltages", [], 0),
        ("mc_weights", [16], 2),
    ])
    def test_montecarlo_grid_edges(self, tmp_path, key, value, code):
        """An empty grid writes a header-only table; a bad level exits 2."""
        cfg = json.loads(json.dumps(SMALL_CFG))
        cfg["variation"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["montecarlo", "--config", str(cfg_path),
                     "--out", str(out)]) == code
        if code == 0:
            lines = (out / "montecarlo_stats.csv").read_text().splitlines()
            assert len(lines) == 2 and lines[1].startswith("v_in,")

    def test_short_fit_grid(self, tmp_path, capsys):
        """Under 10 ``nn`` fit points the config is refused, naming both grid
        fields; a short Monte Carlo grid still writes a header-only fit."""
        short = [0.5, 0.6, 0.65], [3, 7, 11]
        cfg = json.loads(json.dumps(SMALL_CFG))
        cfg["nn"].update(fit_voltages=short[0], fit_weights=short[1])
        cfg_path = tmp_path / "nn.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["nn", "--config", str(cfg_path),
                     "--out", str(tmp_path / "nn")]) == 2
        err = capsys.readouterr().err
        assert "nn.fit_voltages x nn.fit_weights" in err and "3 x 3" in err
        assert not (tmp_path / "nn").exists()
        cfg = json.loads(json.dumps(SMALL_CFG))
        cfg["variation"].update(mc_voltages=short[0], mc_weights=short[1])
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        lines = (out / "montecarlo_fit.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("coeff_linear,")

    def test_env_overrides(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFG))
        monkeypatch.setenv("SRAMDPE_CONFIG", str(cfg_path))
        monkeypatch.setenv("SRAMDPE_OUT", str(tmp_path / "envout"))
        monkeypatch.setenv("SRAMDPE_SEED", "9")
        assert main(["energy"]) == 0
        manifest = json.loads(
            (tmp_path / "envout" / "manifest.json").read_text()
        )
        assert manifest["seed"] == 9

    @pytest.mark.parametrize("verb, section, changes, threads", [
        # maps its active-row counts over the thread pool
        ("lineres-map", "sweep", {"map_active_rows": [2, 4]}, 4),
        # runs its three modes over the pool on one shared unit-cell table;
        # 300 test samples make two inference chunks per mode
        ("nn", "nn", {"epochs": 2, "train_per_class": 5,
                      "test_per_class": 30}, 3),
    ])
    def test_threads_flag_gives_identical_output(self, tmp_path, verb,
                                                 section, changes, threads):
        cfg = json.loads(json.dumps(SMALL_CFG))
        cfg[section].update(changes)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "t1", tmp_path / f"t{threads}"
        assert main([verb, "--config", str(cfg_path), "--out", str(a),
                     "--seed", "0", "--threads", "1"]) == 0
        assert main([verb, "--config", str(cfg_path), "--out", str(b),
                     "--seed", "0", "--threads", str(threads)]) == 0
        outputs = json.loads((a / "manifest.json").read_text())["outputs"]
        assert outputs
        for name in outputs:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_csv_header_records_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFG))
        out = tmp_path / "hdr"
        assert main(["energy", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "42"]) == 0
        first = (out / "energy.csv").read_text().splitlines()[0]
        assert first.startswith("# sramdpe energy seed=42 config_sha256=")

    def test_solver_error_quotes_last_residuals(self, tmp_path, capsys,
                                                monkeypatch):
        def failing(cfg, out_dir, threads=1):
            raise SolverError("Newton did not converge",
                              residual_history=[9.0, 8.0, 7.0, 6.0, 5.0, 4.0])

        monkeypatch.setitem(cli.RUNNERS, "energy", failing)
        assert main(["energy", "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "Newton did not converge" in err
        assert "8.000e+00, 7.000e+00, 6.000e+00, 5.000e+00, 4.000e+00" in err
        assert "9.000e+00" not in err

    def test_electromigration_ceiling_warns(self, tmp_path, capsys):
        cfg = dict(SMALL_CFG)
        cfg["energy"] = {"em_current_ceiling": 1e-9}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "em"
        assert main(["energy", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert "electromigration" in capsys.readouterr().err
        lines = (out / "energy.csv").read_text().splitlines()
        header = lines[1].split(",")
        dpe_row = lines[2].split(",")
        assert dpe_row[header.index("em_flag")] == "1"
