"""Tiny end-to-end check of the benchmark harness; timings are never a gate.

    python3 bench/self_check.py

For every workload, at ``--tiny`` size: two untraced runs and one traced run
on the default seed must exit 0, print a result line with exactly the
metrics and units of BENCHMARK.json, pass every output check, and agree on
the output digest. Then a copy holding only BENCHMARK.json and the benchmark
directory (no program) must exit non-zero without a result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    problems = []
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 0, 1):
            proc = bench(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            record = ROOT / ".bench_work" / f"{workload}-seed{DEFAULT_SEED}-trace{trace}"
            digests.update(json.loads((record / "record.json").read_text())["digests"])
            print(f"ok {tag}")
        if len(digests) != 1:
            problems.append(f"{workload}: output digests differ across runs: {digests}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, WORKLOADS[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the program the benchmark must fail without a result")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
