#!/usr/bin/env python3
"""hsqcnet benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload train_toy|screen_small|assign_large \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the run is split into an untraced and a traced
half and the last line carries the per-layer metrics. Detailed results
(provenance, request sizes, spans) go to ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, here and in every child.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
CLI_PROBES = 3
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_layout() -> str | None:
    for needed in ("src/hsqcnet/__init__.py", "data/toy_1d.jsonl", "data/toy_hsqc.jsonl",
                   "data/toy_expert.jsonl"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}: run from an hsqcnet source checkout"
    return None


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import hsqcnet, build, load the checkpoint.
    Input generation in between is the benchmark's work and is not timed."""
    t0 = time.perf_counter()
    import workloads  # imports hsqcnet, numpy and scipy

    t1 = time.perf_counter()
    w = workloads.WORKLOADS[workload](seed, ROOT, OUT)
    w.plan()
    t2 = time.perf_counter()
    w.build()
    t3 = time.perf_counter()
    print(f"SETUP_S {(t1 - t0) + (t3 - t2)!r}")


def timed_children(args: list[str], count: int, marker: str | None) -> tuple[list[float], int]:
    """Run ``args`` ``count`` times, one at a time. Returns the timings
    (the child's ``marker`` line if given, else wall time) and failures."""
    times, failures = [], 0
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            args, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            failures += 1
            sys.stderr.write(proc.stderr[-2000:])
            continue
        if marker is None:
            times.append(wall)
        else:
            lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(marker)]
            times.append(float(lines[-1].split()[1]))
    return times, failures


def run_rounds(w, tracer, seconds: float) -> list[float]:
    """Whole rounds until ``seconds`` have passed; at least one."""
    start_count = len(w.rounds)
    deadline = time.perf_counter() + seconds
    while len(w.rounds) == start_count or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        w.run_round(tracer)
        w.rounds.append(time.perf_counter() - t0)
    return w.rounds[start_count:]


def provenance() -> dict:
    import numpy
    import scipy

    src = sorted((ROOT / "src" / "hsqcnet").rglob("*.py"))
    fingerprint = hashlib.sha256()
    for path in src:
        fingerprint.update(path.relative_to(ROOT).as_posix().encode())
        fingerprint.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": fingerprint.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; None when the
    checkout is not a repository."""
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


def request_table(records: list[dict]) -> list[dict]:
    keep = ("op", "round", "key", "at", "label", "solvent", "atoms", "predicted", "observed",
            "kind", "duplicated", "matcher", "tied", "latency_s", "wall_s", "scaled_s",
            "records", "error")
    return [{k: r[k] for k in keep if k in r} for r in records]


def end_to_end(w, setup_times: list[float]) -> tuple[dict, dict]:
    m = w.metrics()
    rate, rate_what = m["throughput"]
    lat = percentile_summary_ms(m["latency"][0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_per_s": {"value": rate, "unit": "1/s"},
        "latency_ms_p50": {"value": lat["p50"], "unit": "ms"},
        "latency_ms_tail": {"value": lat["tail"], "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "throughput_per_s": f"{rate_what}, at the reference speed",
        "latency_ms_p50": f"median of n={lat['n']} at the reference speed: {m['latency'][1]}",
        "latency_ms_tail": f"p{lat['tail_percentile']} of n={lat['n']} (nearest rank)",
        "peak_rss_mb": "max resident set of the workload process",
    }
    extra = {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in m["extra"].items()}
    return metrics, {"notes": notes, "workload_metrics": extra, "setup_samples": setup_times}


def percentile_summary_ms(values: list[float]) -> dict:
    """Median and the tail, in ms. The tail is the highest of p99.9, p99,
    p90 and p75 with at least ten samples beyond it (nearest rank), else
    the maximum. A fixed ladder keeps the tail off the few slowest samples,
    which an operating-system stall can replace."""
    ordered = sorted(values)
    n = len(ordered)
    pct = next((q for q in (99.9, 99.0, 90.0, 75.0) if n * (100.0 - q) / 100.0 >= 10), 100.0)
    return {
        "n": n,
        "p50": statistics.median(ordered) * 1e3,
        "tail": ordered[math.ceil(pct / 100.0 * n) - 1] * 1e3,
        "tail_percentile": pct,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_toy", "screen_small", "assign_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    problem = check_layout()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import layers
    import workloads
    from tracing import Tracer

    weights = OUT / "weights.ckpt"
    workloads.write_weights(weights)
    extra_failures = 0
    setup_times: list[float] = []
    if not args.trace:
        setup_times, extra_failures = timed_children(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            SETUP_PROBES, "SETUP_S",
        )

    w = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT)
    w.plan()
    w.speed.enabled = not args.trace
    tracer = Tracer() if args.trace else None
    if tracer is None:
        w.build()
        run_rounds(w, None, args.seconds)
    else:
        tracer.install(workloads.MODULES)
        with tracer.span("bench.setup"):
            w.build()
        tracer.uninstall()
        plain = run_rounds(w, None, args.seconds / 2)
        tracer.install(workloads.MODULES)
        traced = run_rounds(w, tracer, args.seconds / 2)
        tracer.uninstall()
        cli_times, cli_failures = timed_children(
            [sys.executable, "-m", "hsqcnet", "parse", "C"], CLI_PROBES, None
        )
        extra_failures += cli_failures

    w.finish()
    failed = sum(1 for r in w.records if "error" in r) + extra_failures
    attempted = len(w.records) + (0 if args.trace else SETUP_PROBES) + (
        CLI_PROBES if args.trace else 0
    )
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "rounds": len(w.rounds), "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
    }
    measured = any("error" not in r for r in w.records) and (args.trace or setup_times)
    if not measured:
        metrics = {}
    elif args.trace:
        metrics, detail = layers.per_layer(w, tracer, plain, traced, cli_times)
        result.update(detail)
        result["spans"] = tracer.spans
    else:
        metrics, detail = end_to_end(w, setup_times)
        result.update(detail)
    result["metrics"] = metrics
    result["requests"] = request_table(w.records)
    result["speed"] = w.speed.summary()

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=str))
    for record in w.records:
        if "error" in record:
            print(f"FAILED {record.get('op')} {record.get('label', '')}: "
                  f"{record['error'].strip().splitlines()[-1]}")
    print(f"workload {args.workload} seed {args.seed}: {len(w.rounds)} rounds, "
          f"{attempted} operations, failed_fraction {failed / attempted:.4f}")
    for key, value in metrics.items():
        note = result.get("notes", {}).get(key, "")
        print(f"  {key} = {value['value']:.6g} {value['unit']}  {note}")
    for key, value in result.get("workload_metrics", {}).items():
        print(f"  {args.workload}.{key} = {value['value']:.6g} {value['unit']} (n={value['n']})")
    for line in result.get("layer_lines", []):
        print("  " + line)
    print(f"  details: {OUT.relative_to(ROOT) / name}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
