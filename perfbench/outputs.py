"""Checks on the files one request wrote, and their digest.

A request passes when every output its ``manifest.json`` lists exists, each
CSV has the row count its config implies, and every numeric field is finite.
The digest covers the request's CSVs, so reruns of one seed must repeat it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import workloads


def _table(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# sramdpe "):
        raise ValueError("missing provenance line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _finite(field) -> bool:
    if not isinstance(field, str):
        return False    # a short or overlong row
    try:
        return math.isfinite(float(field))
    except ValueError:
        return True     # a label, not a number


def check(verb: str, cfg: dict, out_dir: Path) -> tuple[str, int, str]:
    """Return (digest, work items, problem); ``problem`` is '' when correct."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return "", 0, f"manifest: {exc}"
    want = workloads.expected_rows(verb, cfg)
    if sorted(manifest.get("outputs", [])) != sorted(want):
        return "", 0, f"outputs {manifest.get('outputs')} != {sorted(want)}"
    digest = hashlib.sha256()
    tables = {}
    for name in sorted(want):
        path = out_dir / name
        if not path.is_file():
            return "", 0, f"{name} missing"
        raw = path.read_bytes()
        digest.update(name.encode() + b"\0" + raw)
        try:
            rows = _table(raw.decode())
        except ValueError as exc:
            return "", 0, f"{name}: {exc}"
        if len(rows) != want[name]:
            return "", 0, f"{name}: {len(rows)} rows, expected {want[name]}"
        for row in rows:
            if not all(_finite(v) for v in row.values()):
                return "", 0, f"{name}: non-finite field in {row}"
        tables[name] = rows
    return digest.hexdigest(), workloads.items(verb, cfg, tables), ""
