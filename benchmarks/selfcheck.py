#!/usr/bin/env python3
"""Quick self-check of the benchmark itself (about a minute).

    python3 benchmarks/selfcheck.py

Checks that the same seed generates the same inputs and another seed other
ones; that a short run of every workload, untraced and traced, prints every
metric named in BENCHMARK.json with its unit and passes its output checks;
that traced spans nest; and that the benchmark refuses to run, without
printing a result, where there is no hsqcnet source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

WORKLOADS = ("train_toy", "screen_small", "assign_large")


def plans(seed: int) -> str:
    reference = inputs.load_reference()
    return inputs.digest({
        "screen": inputs.screen_plan(seed, reference),
        "assign": inputs.assign_plan(seed, reference),
        "train": inputs.train_variant(seed),
    })


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def main() -> int:
    problems: list[str] = []
    if plans(5) != plans(5):
        problems.append("seed 5 generated different inputs on two calls")
    if plans(5) == plans(6):
        problems.append("seeds 5 and 6 generated the same inputs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["benchmarks/run.py", "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", str(trace)], ROOT)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: output checks failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} differ "
                                f"or have other units")
            if trace:
                detail = json.loads(
                    (HERE / "out" / f"{workload}-seed5-trace1.json").read_text()
                )
                if detail["span_errors"] or not detail["spans"]:
                    problems.append(f"{tag}: spans missing or not nested")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["benchmarks/run.py", "--workload", "train_toy", "--seed", "1",
                "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("ran without an hsqcnet source tree")
    shutil.rmtree(bare)

    for line in problems:
        print("FAIL", line)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
