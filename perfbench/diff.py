"""Print two benchmark result files side by side, workload by workload.

    python3 perfbench/diff.py OLD.json NEW.json

For each workload it lists every per-layer metric of the traced runs and
every end-to-end metric of the untraced runs, the ratio new/old, and whether
the output digests match when both runs used the same seed. It reads only the
results files that ``run.py --results`` writes.
"""

import json
import sys
from pathlib import Path

KINDS = (("traced", "per-layer"), ("untraced", "end-to-end"))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _digests(old: dict, new: dict) -> str:
    seeds = (old["env"]["seed"], new["env"]["seed"])
    if seeds[0] != seeds[1]:
        return f"outputs: seeds differ {seeds}, digests not compared"
    moved = [i for i, (a, b) in enumerate(zip(old["digests"], new["digests"]))
             if a != b]
    if not moved and len(old["digests"]) == len(new["digests"]):
        return f"outputs: identical (seed {seeds[0]})"
    return f"outputs: differ in requests {moved} (seed {seeds[0]})"


def diff(old: dict, new: dict) -> list[str]:
    lines = []
    for workload in sorted(set(old) | set(new)):
        for kind, label in KINDS:
            a = old.get(workload, {}).get(kind)
            b = new.get(workload, {}).get(kind)
            if a is None and b is None:
                continue
            ma = a["metrics"] if a else {}
            mb = b["metrics"] if b else {}
            lines.append(f"== {workload} {label}")
            lines.append(f"  {'metric':32s} {'old':>14s} {'new':>14s} "
                         f"{'new/old':>8s}  unit")
            for name in list(ma) + [n for n in mb if n not in ma]:
                va = ma.get(name, {}).get("value")
                vb = mb.get(name, {}).get("value")
                unit = (ma.get(name) or mb.get(name))["unit"]
                ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
                lines.append(f"  {name:32s} {_fmt(va):>14s} {_fmt(vb):>14s} "
                             f"{ratio:>8s}  {unit}")
            if a and b:
                lines.append("  " + _digests(a, b))
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text())["workloads"] for p in argv)
    print("\n".join(diff(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
