"""Benchmark of the sramdpe command-line simulator.

One client runs a workload's seeded request list in a closed loop: each
request is one ``sramdpe <verb>`` call made through ``sramdpe.cli.main`` in
this process, with ``--threads 1``, and the next request starts when the
previous one returns. A pass is one walk over the list; a run repeats passes
for about ``--seconds`` seconds (and at least the workload's minimum).

    python3 perfbench/run.py --workload mesh --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mesh --seed 3 --trace 1
    python3 perfbench/run.py --workload mesh --seed 3 --profile-check
    python3 perfbench/run.py --oneshot

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of spans recorded around the package's public functions. The last
line of standard output is one JSON object; the full record, with the
environment and the output digests, is merged into ``--results``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import tracing
import workloads

# Pin the BLAS/OpenMP pools before numpy is imported (by sramdpe, in main).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10            # samples the tail percentile must leave above it


@dataclass
class Pass:
    seconds: float
    probe_s: float
    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    items: int = 0
    problems: list = field(default_factory=list)   # (request index, text)


class Bench:
    """One workload's requests, their config files and output directories."""

    def __init__(self, workload: str, seed: int):
        from sramdpe import config

        self.workload, self.seed = workload, seed
        self.requests = workloads.requests(workload, seed)
        self.resolved = [config.resolve_config(r.config)
                         for r in self.requests]
        work = OUT / "work" / workload
        work.mkdir(parents=True, exist_ok=True)
        self.cfg_paths, self.out_dirs = [], []
        for i, req in enumerate(self.requests):
            path = work / f"r{i}.json"
            path.write_text(json.dumps(req.config, sort_keys=True) + "\n")
            self.cfg_paths.append(path)
            self.out_dirs.append(work / f"r{i}")
        self.reference: list = [None] * len(self.requests)

    def run_pass(self, tracer=None) -> Pass:
        cli = sys.modules["sramdpe.cli"]
        for d in self.out_dirs:
            shutil.rmtree(d, ignore_errors=True)
        gc.collect()
        result = Pass(seconds=0.0, probe_s=numpy_probe())
        codes, logs = [], []
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
            log = io.StringIO()
            argv = [req.verb, "--config", str(self.cfg_paths[i]),
                    "--out", str(self.out_dirs[i]), "--threads", "1"]
            with contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:
                    code = f"raised {exc!r}"
                result.latencies.append(time.perf_counter() - t0)
            codes.append(code)
            logs.append(log.getvalue())
        result.seconds = time.perf_counter() - start

        for i, req in enumerate(self.requests):
            digest, n_items, problem = "", 0, ""
            if codes[i] != 0:
                problem = f"exit {codes[i]}: {logs[i].strip()[-300:]}"
            else:
                digest, n_items, problem = outputs.check(
                    req.verb, self.resolved[i], self.out_dirs[i])
            if not problem:
                if self.reference[i] is None:
                    self.reference[i] = digest
                elif digest != self.reference[i]:
                    problem = "output digest differs from the first pass"
            if problem:
                result.problems.append((i, problem))
            else:
                result.items += n_items
            result.digests.append(digest)
        return result


def numpy_probe() -> float:
    """Time a fixed numpy kernel; a host-drift diagnostic, never a divisor."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 100_000)
    t0 = time.perf_counter()
    for _ in range(50):
        np.exp(x)
    return time.perf_counter() - t0


def _tail_percent(n_samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    return max(1, min(99, (100 * (n_samples - TAIL_BEYOND)) // n_samples))


def _keep_going(passes: list, started: float, seconds: float,
                min_passes: int) -> bool:
    if len(passes) < min_passes:
        return True
    expected = statistics.median(p.seconds for p in passes)
    return time.perf_counter() - started + expected <= seconds


def _report_problems(passes: list) -> int:
    failed = 0
    for n, p in enumerate(passes):
        for i, text in p.problems:
            print(f"pass {n} request {i}: {text}", file=sys.stderr)
            failed += 1
    return failed


def setup_seconds(workload: str, seed: int) -> list:
    """Process start to first request ready, timed from outside."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter() - t0
            try:
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode})")
        times.append(ready)
    return times


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the record behind them."""
    setups = setup_seconds(bench.workload, bench.seed)
    min_passes = workloads.WORKLOADS[bench.workload].min_passes
    passes = []
    started = time.perf_counter()
    while _keep_going(passes, started, seconds, min_passes):
        passes.append(bench.run_pass())
    run_s = statistics.median(p.seconds for p in passes)
    latencies = sorted(t for p in passes for t in p.latencies)
    tail_pct = _tail_percent(len(bench.requests) * min_passes)
    tail = statistics.quantiles(latencies, n=100,
                                method="inclusive")[tail_pct - 1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "items_per_s": (statistics.median(p.items for p in passes) / run_s,
                        "items/s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "request_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    record = {
        "setup_s_samples": setups,
        "run_s_quartiles": statistics.quantiles(
            [p.seconds for p in passes], n=4, method="inclusive"),
        "run_s_samples": [p.seconds for p in passes],
        "request_latency_s": [p.latencies for p in passes],
        "passes": len(passes),
        "requests": len(latencies),
        "request_tail_percentile": tail_pct,
        "request_tail_samples_beyond": sum(t > tail for t in latencies),
        "items_per_pass": [p.items for p in passes],
        "numpy_probe_s": [p.probe_s for p in passes],
    }
    return metrics, _finish(bench, passes, record)


def traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced run: untraced and traced passes alternate."""
    plain, spanned, layers, spans = [], [], [], []
    started = time.perf_counter()
    while (len(spanned) < 2
           or _keep_going(plain + spanned, started, seconds, 0)):
        if len(plain) <= len(spanned):
            plain.append(bench.run_pass())
            continue
        with tracing.Tracer() as tracer:
            spanned.append(bench.run_pass(tracer))
        layers.append(tracing.per_layer(tracer.spans))
        spans.append(tracer.spans)
    problems = []
    for key in tracing.COUNT_METRICS:
        if len({p[key] for p in layers}) != 1:
            problems.append(f"{key} differs between traced passes: "
                            f"{[p[key] for p in layers]}")
    per_layer = tracing.median_per_layer(layers)
    per_layer["trace.overhead_frac"] = (
        statistics.median(p.seconds for p in spanned)
        / statistics.median(p.seconds for p in plain) - 1.0)
    metrics = {k: (v, tracing.PER_LAYER_UNITS[k])
               for k, v in per_layer.items()}
    spans_path = OUT / f"spans-{bench.workload}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "parent", "request", "start", "end", "quantity"],
        "passes": spans}) + "\n")
    record = {
        "untraced_run_s": [p.seconds for p in plain],
        "traced_run_s": [p.seconds for p in spanned],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "numpy_probe_s": [p.probe_s for p in plain + spanned],
    }
    return metrics, _finish(bench, plain + spanned, record, problems)


def _finish(bench, passes, record, problems=()) -> dict:
    for text in problems:
        print(text, file=sys.stderr)
    failed = _report_problems(passes)
    attempted = sum(len(p.latencies) for p in passes)
    record.update({
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": failed == 0 and not problems,
        "digests": bench.reference,
    })
    return record


def environment(seed) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def save(path: Path, workload: str, kind: str, entry: dict) -> None:
    """Merge one run's record into a results file keyed by workload."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = {"workloads": {}}
    data["workloads"].setdefault(workload, {})[kind] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def profile_check(bench: Bench) -> int:
    """Compare the traced stack-solve count with cProfile's count."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    plain = bench.run_pass()
    profiler.disable()
    profiled = sum(
        stat[1] for (_, _, func), stat in pstats.Stats(profiler).stats.items()
        if func == "stack_current_arrays")
    with tracing.Tracer() as tracer:
        spanned = bench.run_pass(tracer)
    counted = tracing.per_layer(tracer.spans)["device.stack_calls"]
    ok = (profiled == counted and not plain.problems and not spanned.problems
          and plain.digests == spanned.digests)
    print(json.dumps({"workload": bench.workload, "seed": bench.seed,
                      "cprofile_stack_calls": profiled,
                      "traced_stack_calls": counted,
                      "outputs_identical": plain.digests == spanned.digests,
                      "ok": ok}))
    return 0 if ok else 1


VERBS = ["iv-sweep", "weight-sweep", "row-scaling", "energy", "nn",
         "lineres-map", "montecarlo"]


def oneshot(results: Path) -> int:
    """Time every verb once at its default config (minutes; not gated)."""
    from sramdpe import cli, config

    cfg = config.resolve_config({})
    metrics, digests, ok = {}, [], True
    for verb in VERBS:
        out = OUT / "oneshot" / verb
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main([verb, "--out", str(out), "--threads", "1"])
            seconds = time.perf_counter() - t0
        digest, problem = "", f"exit {code}" if code != 0 else ""
        if verb != "energy" and not problem:
            digest, _, problem = outputs.check(verb, cfg, out)
        ok = ok and not problem
        metrics[f"{verb}.seconds"] = {"value": seconds, "unit": "s"}
        digests.append(digest)
        print(f"{verb:13s} {seconds:9.2f} s  {problem or 'ok'}",
              file=sys.stderr)
    save(results, "oneshot", "untraced",
         {"env": environment(cfg["seed"]), "metrics": metrics,
          "digests": digests, "correct": ok})
    print(json.dumps({"correct": ok, "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.json",
                        help="results file to merge this run into")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--profile-check", action="store_true",
                      help="one pass under cProfile against one traced pass")
    mode.add_argument("--oneshot", action="store_true",
                      help="every verb once at its default config")
    mode.add_argument("--setup-probe", action="store_true",
                      help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.oneshot and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "sramdpe" / "__init__.py").is_file():
        print(f"error: no sramdpe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sramdpe.cli  # noqa: F401  (what every CLI call imports)

    if args.oneshot:
        return oneshot(args.results)
    if args.setup_probe:
        from sramdpe import config

        for req in workloads.requests(args.workload, args.seed):
            config.resolve_config(req.config)
        print("ready", flush=True)
        return 0

    bench = Bench(args.workload, args.seed)
    if args.profile_check:
        return profile_check(bench)
    run = traced if args.trace else measure
    metrics, record = run(bench, args.seconds)
    record["env"] = environment(args.seed)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    save(args.results, args.workload, "traced" if args.trace else "untraced",
         record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
