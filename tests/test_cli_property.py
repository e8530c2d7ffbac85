"""Property test of the CLI contract on tiny arrays.

Any config built from edge values of its fields (bounds, empties, huge and
tiny numbers, one-row arrays, wrong types and names) must end in exit 0,
with every output the manifest lists written, or in exit 2; a config error
names the field it refuses. Every single (field, edge value) pair goes
through ``resolve_config``; CLI runs are sampled.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from sramdpe import cli
from sramdpe.config import DEFAULT_CONFIG, resolve_config
from sramdpe.errors import ConfigError
from sramdpe.experiments import RUNNERS

#: A 4 x 1-word array and the smallest sweeps, so every verb runs in tens of
#: milliseconds.
TINY = {
    "geometry": {"rows": 4, "word_columns": 1},
    "sweep": {"v_start": 0.1, "v_stop": 0.2, "v_step": 0.1,
              "iv_weights": [15], "weight_voltages_a": [0.15],
              "weight_voltages_b": [0.6], "row_counts": [1, 2],
              "map_voltages": [0.6], "map_weights": [15],
              "map_active_rows": [2]},
    "variation": {"trials": 10, "mc_rows": 2, "mc_voltages": [0.6],
                  "mc_weights": [15]},
    "nn": {"epochs": 1, "train_per_class": 2, "test_per_class": 1,
           "batch_size": 8, "fit_trials": 10, "fit_voltages": [0.5, 0.6, 0.675],
           "fit_weights": [7, 11, 13, 15]},
    "energy": {"rows": 2, "words": 1},
}


def _leaves(tree, path=""):
    for key, val in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(val, dict):
            yield from _leaves(val, here)
        else:
            yield here, val


DEFAULTS = dict(_leaves(DEFAULT_CONFIG))
_INTS = [-1, 0, 1, 2, 1.5]
_FLOATS = [-1.0, 0.0, 1e-12, 0.3, 0.7, 5.0, 1e12, "x"]
_CHOICES = {
    "device_profile": ["default-45", "bogus", 3],
    "excitation.mode": ["config_a", "config_b"],
    "drive_variant.kind": ["single_end", "both_ends", "tapped"],
    "termination.kind": ["sense_resistor", "ideal_opamp"],
    "nn.normalization_anchor": ["center", "top"],
}
_EXTRA = {"nn.adc_bits": [53, 54], "seed": [2**40], "version": [2]}


def _edges(field, default):
    if field in _CHOICES:
        return _CHOICES[field] + ["", "bogus"]
    if isinstance(default, bool):
        return [True, False, 0]
    if isinstance(default, int):
        return _INTS + _EXTRA.get(field, [])
    if isinstance(default, float):
        return _FLOATS
    if isinstance(default, list):
        return [[]] + [[v] for v in _edges(field, default[0])]
    return [None, "missing.json", []]    # the input-file fields


EDGES = {field: _edges(field, default) for field, default in DEFAULTS.items()}
EDGES.update({f"device_profile.{key}": _FLOATS
              for key in ("vt0", "k_prime", "w_over_l", "lambda",
                          "subthreshold_i0", "subthreshold_n", "phi_t")})


@st.composite
def _cases(draw):
    verb = draw(st.sampled_from(sorted(RUNNERS)))
    fields = draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=1,
                           max_size=2, unique=True))
    return verb, {f: draw(st.sampled_from(EDGES[f])) for f in fields}


def _config(changes):
    cfg = copy.deepcopy(TINY)
    for field, val in changes.items():
        *section, key = field.split(".")
        if section and not isinstance(cfg.get(section[0], {}), dict):
            continue   # a drawn profile name replaced the override object
        tree = cfg.setdefault(section[0], {}) if section else cfg
        tree[key] = val
    return cfg


def _names_a_field(message):
    return any(field in message for field in DEFAULTS)


def test_every_edge_value_resolves_or_is_refused_by_name():
    """Each (field, edge value) pair alone resolves, or raises a
    ``ConfigError`` that names that field."""
    for field, values in EDGES.items():
        for val in values:
            try:
                resolve_config(_config({field: val}))
            except ConfigError as exc:
                assert field in str(exc), (field, val, str(exc))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cases())
def test_cli_exits_0_or_2_and_keeps_its_contract(case):
    verb, changes = case
    cfg = _config(changes)
    try:
        resolve_config(copy.deepcopy(cfg))
    except ConfigError as exc:
        assert _names_a_field(str(exc)), exc
    refused = []

    def runner(*args, _run=RUNNERS[verb], **kwargs):
        try:
            return _run(*args, **kwargs)
        except ConfigError as exc:
            refused.append(exc)
            raise

    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        with mock.patch.dict(RUNNERS, {verb: runner}), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([verb, "--config", str(path), "--out", str(out)])
        assert rc in (0, 2)
        assert all(_names_a_field(str(exc)) for exc in refused), refused
        if rc == 0:
            listed = json.loads((out / "manifest.json").read_text())["outputs"]
            assert listed
            for name in listed + ["resolved_config.json"]:
                assert (out / name).is_file(), name
