"""Seeded request lists for the benchmark workloads.

A request is one ``sramdpe <verb>`` call with a generated config. The workload
seed picks values (voltages, weights, row counts, Monte Carlo and dataset
seeds) but never the volume of work: every seed gives the same verbs, the same
number of scenarios per request and the same array sizes, so run time moves
with the program, not with the seed.

Each workload also knows what a correct output looks like (the row count of
every CSV, implied by the request's config) and how many work items a request
finished, counted from the output rows.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

# The default 14-point Config-B input window of the lineres-map and
# montecarlo verbs.
WINDOW_B = [round(0.35 + 0.025 * k, 3) for k in range(14)]


@dataclass
class Request:
    verb: str
    config: dict


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list[Request]]
    min_passes: int        # passes a run always completes


def _iv_sweep(rng):
    step = 0.05
    start = rng.choice([0.05 * k for k in range(2, 9)])
    return Request("iv-sweep", {"sweep": {
        "v_start": round(start, 6),
        "v_stop": round(start + 4 * step, 6),       # 5 input points
        "v_step": step,
        "iv_weights": [rng.randrange(1, 16)],
        "sense_r": round(rng.uniform(40.0, 60.0), 3),
    }})


def _weight_sweep(rng, config):
    volts = {"a": [], "b": []}
    if config == "a":
        volts["a"] = [round(rng.uniform(0.05, 0.15), 3)]
    else:
        volts["b"] = [round(rng.uniform(0.45, 0.6), 3)]
    return Request("weight-sweep", {"sweep": {
        "weight_voltages_a": volts["a"],
        "weight_voltages_b": volts["b"],
        "sense_r": round(rng.uniform(40.0, 60.0), 3),
    }})


def _row_scaling(rng):
    return Request("row-scaling", {"sweep": {
        "row_counts": [1, rng.choice([8, 16]), 64],
        "sense_r": round(rng.uniform(40.0, 60.0), 3),
    }})


def cell_sweeps(rng):
    return [
        _iv_sweep(rng), _weight_sweep(rng, "a"), _iv_sweep(rng),
        _row_scaling(rng), _iv_sweep(rng), _weight_sweep(rng, "b"),
        _iv_sweep(rng),
    ]


def _lineres(rng, n_active, lumped):
    return Request("lineres-map", {
        "parasitics": {"lumped_inactive": lumped},
        "sweep": {
            "map_voltages": [rng.choice(WINDOW_B)],
            "map_weights": [rng.randrange(1, 16)],
            "map_active_rows": [n_active],
        },
    })


def mesh(rng):
    # The full-model request (all 8192 cells in the network) dominates a
    # pass; the lumped ones keep the default fast path in the mix.
    return [_lineres(rng, 16, False)] + [
        _lineres(rng, n_active, True) for n_active in (4, 4, 8, 4)
    ]


def montecarlo(rng):
    return [
        Request("montecarlo", {
            "seed": rng.randrange(2**31),
            "variation": {
                "mc_voltages": [rng.choice(WINDOW_B)],
                "mc_weights": [rng.randrange(1, 16)],
            },
        })
        for _ in range(8)
    ]


def nn_infer(rng):
    # Inference dominates each request: the fit and the training set are cut
    # down from their defaults, which would otherwise take most of the time.
    return [
        Request("nn", {
            "seed": rng.randrange(2**31),
            "nn": {"test_per_class": 70, "train_per_class": 60, "epochs": 100,
                   "fit_trials": 20},
        })
        for _ in range(4)
    ]


# A run holds at least 20 requests (min_passes x requests per pass), so the
# tail percentile with 10 samples beyond it is at or above the median.
# cell-sweeps is not in BENCHMARK.json: its interpreter-bound passes drift
# with the host by more than any allowed bound, so it is run by hand for its
# per-layer counts, which repeat exactly.
WORKLOADS = {
    "cell-sweeps": Workload(cell_sweeps, min_passes=6),
    "mesh": Workload(mesh, min_passes=4),
    "montecarlo": Workload(montecarlo, min_passes=5),
    "nn-infer": Workload(nn_infer, min_passes=5),
}


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = WORKLOADS[workload].build(rng)
    for req in reqs:
        req.config.setdefault("seed", rng.randrange(2**31))
    return reqs


# -- what a correct output looks like -------------------------------------


def expected_rows(verb: str, cfg: dict) -> dict[str, int]:
    """Data-row count of every CSV a request writes, from its resolved config."""
    sw, var = cfg["sweep"], cfg["variation"]
    if verb == "iv-sweep":
        n_v = round((sw["v_stop"] - sw["v_start"]) / sw["v_step"]) + 1
        return {"iv_sweep.csv": 2 * len(sw["iv_weights"]) * n_v}
    if verb == "weight-sweep":
        n_v = len(sw["weight_voltages_a"]) + len(sw["weight_voltages_b"])
        return {"weight_sweep.csv": 16 * n_v}
    if verb == "row-scaling":
        return {"row_scaling.csv": 4 * len(set(sw["row_counts"]))}
    if verb == "lineres-map":
        n_rows = len(sw["map_active_rows"])
        return {
            "lineres_map.csv":
                n_rows * len(sw["map_weights"]) * len(sw["map_voltages"]),
            "lineres_variants.csv": 4 * n_rows,
        }
    if verb == "montecarlo":
        points = len(var["mc_voltages"]) * len(var["mc_weights"])
        return {"montecarlo_stats.csv": points,
                "montecarlo_fit.csv": 1 if points >= 10 else 0}
    if verb == "nn":
        return {"nn_accuracy.csv": 3, "nn_layers.csv": 2}
    raise ValueError(f"no row rule for verb {verb!r}")


def items(verb: str, cfg: dict, tables: dict[str, list[dict]]) -> int:
    """Work items one request finished, counted from its output rows.

    cell sweeps: one solved scenario per row; lineres-map: one error scenario
    (two network solves) per row; montecarlo: one (grid point, trial) pair;
    nn: one test sample classified in one fidelity mode.
    """
    if verb == "montecarlo":
        return len(tables["montecarlo_stats.csv"]) * int(
            cfg["variation"]["trials"])
    if verb == "nn":
        return sum(int(row["n_test"]) for row in tables["nn_accuracy.csv"])
    return sum(len(rows) for rows in tables.values())
