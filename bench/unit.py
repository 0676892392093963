"""One benchmark unit in a fresh process: set up, run the CLI calls, check.

    python3 bench/unit.py PLAN OUT [--trace] [--setup-only]

Set-up is importing ``eesampler`` and resolving the plan's config files;
the process prints the ``time.monotonic()`` and steal reading at which it
ended so the harness can time it from launch. The CLI calls then run in
this process through ``eesampler.cli.main`` (stdout captured); with
``--trace`` they run under the span tracer. The last stdout line is one
JSON record.

Every time is elapsed time less the CPU time the hypervisor stole from the
benchmark's CPU meanwhile (:func:`steal_s`). On a shared virtual machine
steal bursts change elapsed times by tens of percent from minute to
minute, while the corrected times stay within a few percent.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def steal_s() -> float:
    """Seconds stolen so far from the one CPU this process is pinned to, from
    /proc/stat; 0.0 where that is unknown (not pinned, no steal column)."""
    try:
        (cpu,) = os.sched_getaffinity(0)
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (AttributeError, OSError, ValueError, IndexError):
        pass
    return 0.0


def tree_digest(out: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    out = Path(argv[2])
    traced = "--trace" in argv

    import eesampler.cli
    from eesampler.config import config_from_dict

    t_resolve = time.perf_counter()
    for cfg in plan["configs"]:
        config_from_dict(json.loads(Path(cfg).read_text()))
    resolve_s = time.perf_counter() - t_resolve
    setup_done, setup_steal = time.monotonic(), steal_s()
    if "--setup-only" in argv:
        print(json.dumps({"setup_done": setup_done, "setup_steal": setup_steal,
                          "resolve_s": resolve_s}))
        return 0

    from workloads import check_outputs

    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    calls = [[a.replace("{out}", str(out)) for a in call] for call in plan["calls"]]
    codes = []
    captured = io.StringIO()
    steal0, t0 = steal_s(), time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for call in calls:
            codes.append(eesampler.cli.main(call))
    elapsed_s = time.perf_counter() - t0
    wall_s = elapsed_s - (steal_s() - steal0)

    record = check_outputs(plan, out, codes)
    record.update(
        setup_done=setup_done,
        setup_steal=setup_steal,
        resolve_s=resolve_s,
        elapsed_s=elapsed_s,
        wall_s=wall_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=tree_digest(out),
    )
    if tracer is not None:
        record["spans"] = tracer.dump()
        record["counters"] = tracer.counters
        record["missing"] = tracer.missing
        record["uncovered_s"] = elapsed_s - tracer.root_seconds()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
