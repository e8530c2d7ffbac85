"""Experiment configuration: versioned JSON schema, strict validation.

Unknown keys are rejected anywhere in the tree; omitted keys take defaults.
Every scalar and list element must have the type of its default (integers
for integers, finite numbers for floats, booleans for booleans), as must a
set EM ceiling and device-profile overrides. Divisors and counts (array
sizes too), the tap pitch and the sense resistances must be above 0; noise
widths, line resistances, the supply, the clamp voltage and the seed at
least 0; ``sweep.row_counts`` nonempty and each >= 1; ``v_stop`` >=
``v_start``, with at most ``MAX_SWEEP_POINTS`` grid points;
``energy.input_level`` in [0, 1]; ``nn.adc_bits`` in [1, 53];
device-profile overrides within ``DeviceParams``' bounds; weight levels
(``iv_weights``, ``map_weights``, ``mc_weights``, ``fit_weights``,
``weight_level``) in [0, 15]; ``sweep.map_active_rows`` in [1, ``geometry.rows``]; drive
voltages (the sweep ranges and lists, ``mc_voltages``, ``fit_voltages``,
``excitation.v_bias``) in [0, ``excitation.v_dd`` + 0.1];
``nn.fit_voltages`` x ``nn.fit_weights`` at least ``MIN_FIT_POINTS`` points;
names one of their choices; input files must exist.
Every run writes its fully-resolved config next to its outputs so results are
reproducible from the artifacts alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

from .crossbar import (
    DEFAULT_V_BIAS,
    DEFAULT_V_CLAMP,
    DRIVE_HEADROOM,
    WEIGHT_LEVELS,
    DriveMode,
)
from .device import DEFAULT_VDD, PROFILES, DeviceParams
from .energy import EnergyParams
from .errors import ConfigError, InvalidInputError
from .network import (
    BothEnds,
    IdealOpamp,
    ParasiticSpec,
    SenseResistor,
    SingleEnd,
    TappedEvery,
)
from .nn import ANCHORS, MAX_ADC_BITS
from .variation import MIN_FIT_POINTS

SCHEMA_VERSION = 1

#: Most points of the ``iv-sweep`` voltage grid (the default grid has 27).
MAX_SWEEP_POINTS = 100_000

DEFAULT_CONFIG: dict = {
    "version": SCHEMA_VERSION,
    "seed": 0,
    "device_profile": "default-45",
    "geometry": {"rows": 64, "word_columns": 32},
    "excitation": {"mode": "config_b", "v_dd": DEFAULT_VDD,
                   "v_bias": DEFAULT_V_BIAS},
    "parasitics": {
        "r_bl_per_cell": 1.25,
        "r_sl_per_cell": 2.5,
        "lumped_inactive": True,
    },
    "drive_variant": {"kind": "tapped", "k": 16},
    "termination": {"kind": "ideal_opamp", "v_pos": DEFAULT_V_CLAMP, "r": 50.0},
    "variation": {
        "sigma_min": 0.030,
        "trials": 1000,
        "mc_voltages": [round(0.35 + 0.025 * k, 3) for k in range(14)],
        "mc_weights": list(range(16)),
        "mc_rows": 16,
    },
    "sweep": {
        "v_start": 0.0,
        "v_stop": DEFAULT_VDD,
        "v_step": 0.025,
        "iv_weights": [0, 4, 10, 15],
        "weight_voltages_a": [0.05, 0.10, 0.15],
        "weight_voltages_b": [0.50, 0.55, 0.60],
        "row_counts": [1, 2, 4, 8, 16, 32, 64],
        "sense_r": 50.0,
        "map_voltages": [round(0.35 + 0.025 * k, 3) for k in range(14)],
        "map_weights": list(range(16)),
        "map_active_rows": [16, 8],
    },
    "nn": {
        "epochs": 150,
        "lr": 0.5,
        "batch_size": 32,
        "train_per_class": 120,
        "test_per_class": 40,
        "noise_sigma": 0.10,
        "adc_bits": 8,
        "tile_rows": 16,
        "normalization_anchor": "center",
        "weights_in": None,
        "dataset_csv": None,
        "fit_voltages": [0.425, 0.5, 0.6, 0.675],
        "fit_weights": [3, 7, 11, 15],
        "fit_trials": 400,
    },
    "energy": {
        "params_file": None,
        "weight_level": 3,
        "input_level": 0.5,
        "rows": 16,
        "words": 16,
        "em_current_ceiling": None,
    },
}

#: Fields that must be above 0: step and bit-width divisors, tile and batch
#: sizes, row, word, trial, sample and epoch counts, the tap pitch and the
#: sense resistances.
_POSITIVE_FIELDS = ("sweep.v_step", "variation.trials", "variation.mc_rows",
                    "nn.tile_rows", "nn.fit_trials",
                    "nn.batch_size", "nn.train_per_class", "nn.test_per_class",
                    "nn.epochs", "geometry.rows", "geometry.word_columns",
                    "energy.rows", "energy.words", "drive_variant.k",
                    "sweep.sense_r", "termination.r")

#: Fields that must be at least 0: noise widths, line resistances, the
#: supply and the clamp voltage (read by every clamped evaluation, whatever
#: the termination).
_NONNEGATIVE_FIELDS = ("variation.sigma_min", "nn.noise_sigma",
                       "excitation.v_dd", "termination.v_pos",
                       "parasitics.r_bl_per_cell", "parasitics.r_sl_per_cell")

#: Drive voltages, each checked against the window ``Excitation`` accepts.
_DRIVE_FIELDS = ("sweep.v_start", "sweep.v_stop", "sweep.weight_voltages_a",
                 "sweep.weight_voltages_b", "sweep.map_voltages",
                 "variation.mc_voltages", "nn.fit_voltages",
                 "excitation.v_bias")

#: ``DeviceParams`` field of each device-profile override key.
_PROFILE_KEYS = {"vt0": "vt0", "k_prime": "k_prime", "w_over_l": "w_over_l",
                 "lambda": "lam", "subthreshold_i0": "subthreshold_i0",
                 "subthreshold_n": "subthreshold_n", "phi_t": "phi_t"}


def _merge_strict(defaults, given, path=""):
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) at {path or '<root>'}: {sorted(unknown)}"
        )
    out = copy.deepcopy(defaults)
    for key, val in given.items():
        here = f"{path}.{key}" if path else key
        if isinstance(defaults[key], dict) and defaults[key]:
            out[key] = _merge_strict(defaults[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


_TYPE_NAMES = {bool: "true or false", int: "an integer",
               float: "a finite number"}

#: Null-default fields that name input files, and whether each takes a list.
_FILE_FIELDS = (("energy.params_file", False), ("nn.dataset_csv", False),
                ("nn.weights_in", True))


def _has_type(kind, val) -> bool:
    if kind is bool or isinstance(val, bool):
        return kind is bool and isinstance(val, bool)
    if kind is int:
        return isinstance(val, int)
    return isinstance(val, (int, float)) and math.isfinite(val)


def _check_types(defaults, cfg, path=""):
    """Require every scalar and list element to have its default's type."""
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        val = cfg[key]
        if isinstance(default, dict):
            _check_types(default, val, here)
        elif isinstance(default, list):
            kind = type(default[0])
            if not (isinstance(val, list)
                    and all(_has_type(kind, v) for v in val)):
                raise ConfigError(f"{here} must be a list, each element "
                                  f"{_TYPE_NAMES[kind]}, got {val!r}")
        elif type(default) in _TYPE_NAMES and not _has_type(type(default), val):
            raise ConfigError(
                f"{here} must be {_TYPE_NAMES[type(default)]}, got {val!r}")


def _check_values(cfg):
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']!r}")
    if not cfg["sweep"]["row_counts"]:
        raise ConfigError("sweep.row_counts must list at least one row count")
    v_start, v_stop = cfg["sweep"]["v_start"], cfg["sweep"]["v_stop"]
    if v_stop < v_start:
        raise ConfigError(f"sweep.v_stop must be >= sweep.v_start, got "
                          f"{v_stop!r} < {v_start!r}")
    for field in _POSITIVE_FIELDS + _NONNEGATIVE_FIELDS:
        section, key = field.split(".")
        val = cfg[section][key]
        positive = field in _POSITIVE_FIELDS
        if val < 0 or (positive and val == 0):
            raise ConfigError(
                f"{field} must be {'>' if positive else '>='} 0, got {val!r}")
    v_step = cfg["sweep"]["v_step"]
    if (v_stop - v_start) / v_step + 1 > MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep.v_step {v_step!r} gives more than {MAX_SWEEP_POINTS} "
            f"points from sweep.v_start {v_start!r} to sweep.v_stop "
            f"{v_stop!r}")
    top = WEIGHT_LEVELS - 1
    v_hi = cfg["excitation"]["v_dd"] + DRIVE_HEADROOM
    # Upper bounds set by another field, named so that a refusal caused by
    # that field also names it.
    bound_by = {"sweep.map_active_rows": "geometry.rows",
                **dict.fromkeys(_DRIVE_FIELDS,
                                f"excitation.v_dd + {DRIVE_HEADROOM}")}
    for field, lo, hi in (("energy.input_level", 0, 1),
                          ("nn.adc_bits", 1, MAX_ADC_BITS),
                          ("sweep.row_counts", 1, math.inf),
                          ("sweep.iv_weights", 0, top),
                          ("sweep.map_weights", 0, top),
                          ("variation.mc_weights", 0, top),
                          ("nn.fit_weights", 0, top),
                          ("energy.weight_level", 0, top),
                          ("sweep.map_active_rows", 1, cfg["geometry"]["rows"]),
                          *((field, 0, v_hi) for field in _DRIVE_FIELDS)):
        section, key = field.split(".")
        val = cfg[section][key]
        vals = val if isinstance(val, list) else [val]
        if not all(lo <= x <= hi for x in vals):
            source = (f" (upper bound {bound_by[field]})"
                      if field in bound_by else "")
            raise ConfigError(f"{field} must lie in [{lo}, {hi}]{source}, "
                              f"got {val!r}")
    nn = cfg["nn"]
    n_volts, n_weights = len(nn["fit_voltages"]), len(nn["fit_weights"])
    if n_volts * n_weights < MIN_FIT_POINTS:
        raise ConfigError(
            f"nn.fit_voltages x nn.fit_weights must give at least "
            f"{MIN_FIT_POINTS} variation-fit points, got {n_volts} x "
            f"{n_weights}")
    ceiling = cfg["energy"]["em_current_ceiling"]
    if ceiling is not None and not _has_type(float, ceiling):
        raise ConfigError("energy.em_current_ceiling must be null or a finite "
                          f"number, got {ceiling!r}")
    for field, is_list in _FILE_FIELDS:
        section, key = field.split(".")
        val = cfg[section][key]
        if not val:
            continue
        if is_list and not isinstance(val, list):
            raise ConfigError(f"{field} must be null or a list of file paths, "
                              f"got {val!r}")
        for path in val if is_list else [val]:
            if not (isinstance(path, str) and Path(path).is_file()):
                raise ConfigError(f"{field} not found: {path!r}")


def require_drive(cfg: dict, v_in: float) -> None:
    """Exit 2 naming ``excitation.v_dd`` if ``Excitation`` would refuse a
    verb's fixed input ``v_in``, which no config field sets."""
    v_dd = cfg["excitation"]["v_dd"]
    if v_in > v_dd + DRIVE_HEADROOM:
        raise ConfigError(f"excitation.v_dd {v_dd!r} + {DRIVE_HEADROOM} V "
                          f"must admit this verb's fixed input of {v_in:g} V")


def resolve_config(raw: dict | None) -> dict:
    """Validate a raw config dict against the schema; fill defaults."""
    raw = dict(raw or {})
    profile = raw.pop("device_profile", DEFAULT_CONFIG["device_profile"])
    defaults = {k: v for k, v in DEFAULT_CONFIG.items() if k != "device_profile"}
    cfg = _merge_strict(defaults, raw)
    cfg["device_profile"] = _validate_profile(profile)
    _check_types(defaults, cfg)
    _check_values(cfg)
    if cfg["version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config version {cfg['version']} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    if cfg["excitation"]["mode"] not in ("config_a", "config_b"):
        raise ConfigError("excitation.mode must be 'config_a' or 'config_b'")
    if cfg["drive_variant"]["kind"] not in ("single_end", "both_ends", "tapped"):
        raise ConfigError("drive_variant.kind must be one of "
                          "single_end/both_ends/tapped")
    if cfg["termination"]["kind"] not in ("sense_resistor", "ideal_opamp"):
        raise ConfigError("termination.kind must be sense_resistor/ideal_opamp")
    anchor = cfg["nn"]["normalization_anchor"]
    if not (isinstance(anchor, str) and anchor in ANCHORS):
        raise ConfigError("nn.normalization_anchor must be one of "
                          f"{'/'.join(ANCHORS)}, got {anchor!r}")
    return cfg


def _validate_profile(profile):
    if not isinstance(profile, (str, dict)):
        raise ConfigError("device_profile must be a name or an object")
    fields = profile if isinstance(profile, dict) else {"name": profile}
    unknown = set(fields) - set(_PROFILE_KEYS) - {"name"}
    if unknown:
        raise ConfigError(f"unknown device_profile key(s): {sorted(unknown)}")
    name = fields.get("name", DEFAULT_CONFIG["device_profile"])
    if not (isinstance(name, str) and name in PROFILES):
        raise ConfigError(
            f"unknown device_profile {name!r}; known: {sorted(PROFILES)}"
        )
    for key, val in fields.items():
        if key == "name":
            continue
        if not _has_type(float, val):
            raise ConfigError(
                f"device_profile.{key} must be a finite number, got {val!r}")
        try:   # every bound is on one parameter, so test each alone
            replace(PROFILES[name], **{_PROFILE_KEYS[key]: float(val)})
        except InvalidInputError as exc:
            raise ConfigError(f"device_profile.{key}: {exc}") from exc
    return dict(profile) if isinstance(profile, dict) else profile


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str | Path | None) -> dict:
    if path is None:
        return resolve_config({})
    return resolve_config(_read_json(path, "config file"))


def config_sha256(cfg: dict) -> str:
    dump = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


# -- factories -------------------------------------------------------------


def device_profile(cfg: dict) -> DeviceParams:
    p = cfg["device_profile"]
    if isinstance(p, str):
        return PROFILES[p]
    base = PROFILES[p.get("name", DEFAULT_CONFIG["device_profile"])]
    return replace(base, **{field: float(p[key])
                            for key, field in _PROFILE_KEYS.items() if key in p})


def parasitics(cfg: dict) -> ParasiticSpec:
    p = cfg["parasitics"]
    return ParasiticSpec(
        r_bl_per_cell=float(p["r_bl_per_cell"]),
        r_sl_per_cell=float(p["r_sl_per_cell"]),
        lumped_inactive=bool(p["lumped_inactive"]),
    )


def drive_variant(cfg: dict):
    d = cfg["drive_variant"]
    if d["kind"] == "single_end":
        return SingleEnd()
    if d["kind"] == "both_ends":
        return BothEnds()
    return TappedEvery(int(d["k"]))


def termination(cfg: dict):
    t = cfg["termination"]
    if t["kind"] == "sense_resistor":
        return SenseResistor(float(t["r"]))
    return IdealOpamp(float(t["v_pos"]))


def drive_mode(cfg: dict) -> DriveMode:
    return DriveMode(cfg["excitation"]["mode"])


def energy_params(cfg: dict) -> EnergyParams:
    path = cfg["energy"]["params_file"]
    if not path:
        return EnergyParams()
    # The file's fields are checked like config keys.
    field = "energy.params_file"
    defaults = asdict(EnergyParams())
    params = _merge_strict(defaults, _read_json(path, field), field)
    _check_types(defaults, params, field)
    return EnergyParams(**params)
