"""Command-line experiment runner.

Each verb runs one experiment sweep and writes CSV files, the fully-resolved
config, and a manifest (config hash, seed, package version) into the output
directory. Given the same config and seed, every command
produces byte-identical CSV output.

Flags may also come from environment variables: SRAMDPE_CONFIG, SRAMDPE_OUT,
SRAMDPE_SEED, SRAMDPE_THREADS (a flag on the command line wins).

Warnings from the package's ``logging`` loggers go to stderr during a run. A
solver failure's message ends with the last residuals of its Newton history.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_sha256, load_config, resolve_config
from .errors import SimulationError
from .experiments import RUNNERS

ENV_PREFIX = "SRAMDPE_"

#: Newton residuals quoted in a solver failure's message.
RESIDUALS_SHOWN = 5


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, table, command: str, cfg: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# sramdpe {command} seed={cfg['seed']} "
            f"config_sha256={config_sha256(cfg)}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_fmt(v) for v in row])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sramdpe",
        description="Behavioral simulator for an 8T-SRAM analog "
                    "dot-product engine",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "iv-sweep": "single-cell current vs input voltage per config/weight",
        "weight-sweep": "current vs 4-bit weight level at fixed voltages",
        "row-scaling": "summed current vs active row count per termination",
        "lineres-map": "line-resistance error map and drive-variant bars",
        "montecarlo": "threshold-variation Monte Carlo stats and std fit",
        "nn": "quantized network accuracy in all three fidelity modes",
        "energy": "analog engine vs digital sequential energy comparison",
    }
    for name, desc in descriptions.items():
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--config", type=str, default=None,
                        help="experiment config JSON")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (default: ./out/<command>)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for independent scenarios")
    return parser


def _env_default(name: str, current, cast):
    raw = os.environ.get(ENV_PREFIX + name)
    if current is not None or raw is None:
        return current
    try:
        return cast(raw)
    except ValueError:
        raise SimulationError(f"{ENV_PREFIX}{name} must be an integer, "
                              f"got {raw!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Bound to this call's stderr, so a caller that swaps sys.stderr sees it.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(
        f"sramdpe {args.command}: %(levelname)s: %(message)s"))
    package_log = logging.getLogger("sramdpe")
    package_log.addHandler(handler)
    try:
        config_path = _env_default("CONFIG", args.config, str)
        out_arg = _env_default("OUT", args.out, str)
        seed = _env_default("SEED", args.seed, int)
        threads = _env_default("THREADS", args.threads, int) or 1
        cfg = load_config(config_path)
        if seed is not None:
            cfg = resolve_config({**cfg, "seed": seed})
        out_dir = Path(out_arg) if out_arg else Path("out") / args.command
        out_dir.mkdir(parents=True, exist_ok=True)
        tables = RUNNERS[args.command](cfg, out_dir, threads=threads)
    except SimulationError as exc:
        message = f"sramdpe {args.command}: {exc}"
        history = getattr(exc, "residual_history", None)
        if history:
            message += "; last residuals (A): " + ", ".join(
                f"{r:.3e}" for r in history[-RESIDUALS_SHOWN:])
        print(message, file=sys.stderr)
        return 2
    finally:
        package_log.removeHandler(handler)

    outputs = []
    for table in tables:
        _write_csv(out_dir / table.name, table, args.command, cfg)
        outputs.append(table.name)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n"
    )
    manifest = {
        "command": args.command,
        "config_sha256": config_sha256(cfg),
        "outputs": sorted(outputs),
        "package_version": __version__,
        "seed": cfg["seed"],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    for name in sorted(outputs):
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
