"""eesampler benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a source checkout (the program is used from ``src/``,
nothing is installed). The harness writes the workload's config files from
the seed into ``.bench_work/``, then, until ``--seconds`` have passed, runs
fresh unit processes one after another (``unit.py``): each imports the
package, resolves the configs and makes the workload's fixed ``cli.main``
calls. Every unit's outputs are checked, and every unit's output tree must
have the same SHA-256 digest.

``--trace 0`` reports the end-to-end metrics from untraced units.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones plus the tracing overhead; the traced
units' digests must equal the untraced ones, so the wrappers change no
output. Timings are quartiles or medians over the units of the run (see
:func:`end_to_end`). The last stdout line
is the JSON result; the exit code is 0 only if every check passed.
``--tiny`` shrinks each unit for ``self_check.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from unit import steal_s
from workloads import DEFAULT_SEED, WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_LAUNCHES = 5  # extra set-up samples per run, for a steady setup_s median
DEADLINE_S = 170  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("chain_steps_per_s", "1/s"),
    ("models_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_TIMED_SPANS = (
    "cli.main", "experiments.slln_rate_study", "experiments.run_experiment",
    "experiments.verify_suite", "experiments.fluctuation_bound_battery",
)
_COUNTED_SPANS = (
    "sampler.step_round", "sampler.trace_record", "kernels.mh_step",
    "kernels.interacting_step", "measures.insert", "measures.draw", "measures.masses",
    "measures.snapshot", "measures.monitor_check", "state_space.assign",
    "state_space.log_density", "exact.k_matrix", "exact.q_matrix",
    "exact.ee_jump_matrix", "exact.stationary", "exact.poisson_solve",
)
PER_LAYER = (
    [(f"{s}.self_s", "s") for s in _TIMED_SPANS]
    + [m for s in _COUNTED_SPANS for m in ((f"{s}.calls", "count"), (f"{s}.self_s", "s"))]
    + [
        ("sampler.trace_write.self_s", "s"),
        ("sampler.trace_write.bytes", "B"),
        ("kernels.swap_accept_frac", "frac"),
        ("kernels.fallback_frac", "frac"),
        ("kernels.mh_moved_frac", "frac"),
        ("state_space.log_density_per_step", "calls/step"),
        ("state_space.contains.self_s", "s"),
        ("exact.checks.self_s", "s"),
        ("config.resolve_s", "s"),
        ("trace_overhead_frac", "frac"),
        ("trace.uncovered_frac", "frac"),
        ("failed_frac", "frac"),
    ]
)


def _ratio(num, den):
    return num / den if den else 0.0


def environment() -> dict:
    """Where the numbers come from: cores, CPU, versions, BLAS threads, commit."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_parent": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads_unit": {v: "1" for v in BLAS_VARS},
        "git_commit": commit,
    }


class UnitError(RuntimeError):
    pass


def launch(plan_path: Path, out: Path, deadline: float, *flags) -> dict:
    """Run one unit process; returns its record with ``setup_s`` added."""
    env = dict(os.environ, **{v: "1" for v in BLAS_VARS})
    timeout = max(5.0, deadline - time.monotonic())
    t_launch, steal_launch = time.monotonic(), steal_s()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py"), str(plan_path), str(out), *flags],
            stdout=subprocess.PIPE, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise UnitError(f"unit timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitError(f"unit exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = (record.pop("setup_done") - t_launch
                         - (record.pop("setup_steal") - steal_launch))
    return record


def quartiles(values) -> list:
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def end_to_end(units: list, setups: list) -> dict:
    """Set-up is the median over launches. The work metrics take the slow
    quartile of the units (upper for times, lower for rates): the host runs
    bursts in which units finish up to 40% faster, and the median moves with
    the share of burst time in a run while the slow quartile does not."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": quartiles(u["wall_s"] for u in units)[2],
        "chain_steps_per_s": quartiles(u["steps"] / u["wall_s"] for u in units)[0],
        "models_per_s": quartiles(u["models"] / u["wall_s"] for u in units)[0],
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
    }


def layer_values(unit: dict) -> dict:
    """Per-layer metrics of one traced unit."""
    calls, self_s = {}, {}
    for row in unit["spans"]:
        calls[row["span"]] = calls.get(row["span"], 0) + row["count"]
        self_s[row["span"]] = self_s.get(row["span"], 0.0) + row["self_s"]
    c = unit["counters"]
    values = {f"{s}.self_s": self_s.get(s, 0.0) for s in _TIMED_SPANS}
    for s in _COUNTED_SPANS:
        values[f"{s}.calls"] = calls.get(s, 0)
        values[f"{s}.self_s"] = self_s.get(s, 0.0)
    values.update({
        "sampler.trace_write.self_s": self_s.get("sampler.trace_write", 0.0),
        "sampler.trace_write.bytes": c["trace_bytes"],
        "kernels.swap_accept_frac": _ratio(c["swap_accepted"], c["swap_attempts"]),
        "kernels.fallback_frac": _ratio(c["fallbacks"], calls.get("kernels.interacting_step", 0)),
        "kernels.mh_moved_frac": _ratio(c["mh_moved"], calls.get("kernels.mh_step", 0)),
        "state_space.log_density_per_step": _ratio(
            calls.get("state_space.log_density", 0), unit["steps"]),
        "state_space.contains.self_s": self_s.get("state_space.contains", 0.0),
        "exact.checks.self_s": self_s.get("exact.checks", 0.0),
        "trace.uncovered_frac": unit["uncovered_s"] / unit["elapsed_s"],
    })
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small units, for the self-check")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "eesampler" / "__init__.py").is_file():
        print(f"bench: no eesampler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:  # one CPU for the harness and its units, so its steal can be read
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, ROOT, work / "configs", args.tiny)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2) + "\n")
    env = environment()
    print(f"bench env: {json.dumps(env)}", file=sys.stderr)

    plain, traced, setups = [], [], []
    try:
        for _ in range(SETUP_ONLY_LAUNCHES):
            setups.append(launch(plan_path, work / "setup", deadline, "--setup-only")["setup_s"])
        t_measure = time.monotonic()
        while not plain or time.monotonic() - t_measure < args.seconds:
            for flags, sink in (((), plain), (("--trace",), traced))[: 1 + args.trace]:
                out = work / "out" / f"unit{len(plain) + len(traced)}"
                sink.append(launch(plan_path, out, deadline, *flags))
                setups.append(sink[-1]["setup_s"])
                shutil.rmtree(out, ignore_errors=True)
    except (UnitError, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    units = plain + traced
    attempted = sum(u["ops"] for u in units)
    findings = sorted({f for u in units for f in u["failed"]})
    failed = sum(len(u["failed"]) for u in units)
    digests = sorted({u["digest"] for u in units})
    correct = not failed and len(digests) == 1
    if args.trace:
        layers = [layer_values(u) for u in traced]
        metrics = {name: statistics.median_low(v[name] for v in layers)
                   for name in layers[0]}
        metrics["config.resolve_s"] = statistics.median(u["resolve_s"] for u in units)
        metrics["trace_overhead_frac"] = (
            statistics.median(u["wall_s"] for u in traced)
            / statistics.median(u["wall_s"] for u in plain) - 1.0)
        metrics["failed_frac"] = failed / attempted
        declared = PER_LAYER
    else:
        metrics = end_to_end(plain, setups)
        declared = END_TO_END

    for finding in findings:
        print(f"bench: FAILED op: {finding}", file=sys.stderr)
    if len(digests) != 1:
        print(f"bench: output digests differ between units: {digests}", file=sys.stderr)
    missing = sorted({m for u in traced for m in u["missing"]})
    if missing:
        print(f"bench: trace targets not found: {', '.join(missing)}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} units={len(plain)}+{len(traced)} traced "
          f"ops={attempted} failed={failed} digest={digests[0][:16]}", file=sys.stderr)
    (work / "record.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "digests": digests, "findings": findings,
        "setup_samples_s": setups, "metrics": metrics,
        "units": [{k: v for k, v in u.items() if k != "spans"} for u in units],
        "spans": [u["spans"] for u in traced],
    }, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
