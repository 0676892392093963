"""The four benchmark workloads: seeded config generation, CLI calls, output checks.

Each workload is a fixed amount of ``eesampler.cli.main`` work (a "unit").
The harness generates the unit's config files from the workload seed, and
the unit process runs the listed CLI calls and checks their outputs with
:func:`check_outputs`. Only the config files and argv reach the program.

Why these four (see README.md for the prediction table):

* ``rate_finite``  -- criterion 8's rate study: the untraced two-chain finite
  hot loop (step_round -> kernels -> measures), where a batched engine and
  count-vector measures should show.
* ``run_finite_traced`` -- the same layers used differently: trace recording,
  CSV writers, strict snapshots, the ee-jump variant and a third chain.
* ``run_box`` -- the only continuous path (Python logpdf, energy-threshold
  assign, box contains, Gaussian walk); finite-only optimisations bypass it.
* ``oracle`` -- ``verify`` on generated small models: the only workload where
  the exact oracle does the work.

This module is imported by the unit process before the program is, so its
top level uses the standard library only.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

DEFAULT_SEED = 74321  # the seed of acceptance criterion 8

RATE_GRID = (128, 256, 512, 1024, 2048)
RATE_REPLICATES = 50  # the rate study's minimum
RUN_TRACED_SIZE, RUN_TRACED_ROUNDS, RUN_TRACED_REPLICATES = 16, 2500, 10
RUN_BOX_REPLICATES = 2
# (S, d, r, variant, proposal) of the oracle models; the seed draws their
# weights, temperatures, rings and epsilon. The shapes are fixed so that
# the work of one unit does not depend on the seed.
ORACLE_SHAPES = (
    (4, 2, 2, "selection-mutation", "uniform"),
    (5, 2, 3, "ee-jump", "neighbor"),
    (6, 3, 2, "ee-jump", "uniform"),
    (7, 3, 3, "selection-mutation", "neighbor"),
    (8, 2, 2, "selection-mutation", "neighbor"),
    (8, 3, 3, "ee-jump", "uniform"),
)

WORKLOADS = ("rate_finite", "run_finite_traced", "run_box", "oracle")
_SALTS = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def _energy_band_labels(log_target, d):
    """Rings as energy bands: states sorted by target energy, split into d
    contiguous groups of near-equal size (every ring non-empty)."""
    import numpy as np

    order = np.argsort(-np.asarray(log_target), kind="stable")
    labels = np.empty(len(order), dtype=int)
    for ring, members in enumerate(np.array_split(order, d)):
        labels[members] = ring
    return labels.tolist()


def _finite_model(rng, size, d, r, variant, proposal, temps, epsilon):
    import numpy as np

    base = rng.uniform(0.2, 5.0, size)
    return {
        "space": {"kind": "finite", "size": size},
        "ladder": {"base_weights": base.tolist(), "temperatures": temps},
        "partition": {"labels": _energy_band_labels(np.log(base), d)},
        "kernel": {"variant": variant, "proposal": proposal, "epsilon": epsilon},
        "initial_states": rng.integers(size, size=r).tolist(),
    }


def _write(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    return str(path)


def make_plan(workload: str, seed: int, root: Path, cfg_dir: Path, tiny: bool) -> dict:
    """Write the workload's config files and return its unit plan.

    ``calls`` are argv lists for ``cli.main`` in which ``{out}`` stands for
    the unit's output directory. ``tiny`` shrinks the work for the self-check.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, _SALTS[workload]]))
    cfg_dir.mkdir(parents=True, exist_ok=True)
    if workload == "rate_finite":
        raw = json.loads((root / "configs" / "four_state_rate.json").read_text())
        raw.update(seed=seed, replicates=RATE_REPLICATES)
        grid = RATE_GRID[:4] if tiny else RATE_GRID
        cfg = _write(cfg_dir / "rate.json", raw)
        calls = [["rate-study", "--config", cfg, "--out", "{out}",
                  "--n-grid", ",".join(map(str, grid))]]
        return {"verb": "rate-study", "configs": [cfg], "calls": calls, "grid_max": grid[-1]}
    if workload == "run_finite_traced":
        raw = _finite_model(rng, RUN_TRACED_SIZE, 3, 3, "ee-jump", "neighbor",
                            [6.0, 2.5, 1.0], 0.5)
        raw.update(
            seed=seed,
            replicates=2 if tiny else RUN_TRACED_REPLICATES,
            schedule={"offsets": [100, 100],
                      "total_rounds": 300 if tiny else RUN_TRACED_ROUNDS},
            stability={"policy": "warn", "theta": 0.05},
            test_functions=[{"kind": "ring_indicator", "name": "ring2", "ring": 2},
                            {"kind": "coordinate", "name": "coord"}],
            trace={"snapshot_every": 64, "strict_snapshot": True},
        )
        cfg = _write(cfg_dir / "run_finite.json", raw)
        return {"verb": "run", "configs": [cfg],
                "calls": [["run", "--config", cfg, "--out", "{out}"]]}
    if workload == "run_box":
        raw = json.loads((root / "configs" / "double_well.json").read_text())
        raw.update(seed=seed, replicates=1 if tiny else RUN_BOX_REPLICATES)
        if tiny:
            raw["schedule"] = {"offsets": [50], "total_rounds": 400}
        cfg = _write(cfg_dir / "run_box.json", raw)
        return {"verb": "run", "configs": [cfg],
                "calls": [["run", "--config", cfg, "--out", "{out}"]]}
    if workload == "oracle":
        configs, calls = [], []
        for i, (size, d, r, variant, proposal) in enumerate(ORACLE_SHAPES[:2] if tiny
                                                           else ORACLE_SHAPES):
            temps = sorted(rng.uniform(1.5, 6.0, r - 1).tolist(), reverse=True) + [1.0]
            raw = _finite_model(rng, size, d, r, variant, proposal, temps,
                                float(rng.uniform(0.2, 0.9)))
            raw.update(seed=seed + i, replicates=1,
                       schedule={"offsets": [10] * (r - 1), "total_rounds": 100})
            cfg = _write(cfg_dir / f"model_{i}.json", raw)
            configs.append(cfg)
            calls.append(["verify", "--config", cfg, "--out", f"{{out}}/model_{i}"])
        return {"verb": "verify", "configs": configs, "calls": calls}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks. An op is one rate-study test function, one run replicate, or
# one verify check of one model; each entry of "failed" is one failed op.
# A wrong exit code or unreadable output fails every op it covers.
# ---------------------------------------------------------------------------

def _moves(raw: dict, rounds: int) -> int:
    """Moving chain-steps of one replicate: chain k moves in every round after
    the sum of the first k activation offsets."""
    offsets = raw["schedule"]["offsets"]
    return sum(max(0, rounds - sum(offsets[:k])) for k in range(len(offsets) + 1))


def check_outputs(plan: dict, out: Path, codes: list) -> dict:
    """Check one unit's outputs; returns ops, failed ops, chain-steps, models."""
    if plan["verb"] == "rate-study":
        return _check_rate(plan, out, codes[0])
    if plan["verb"] == "run":
        return _check_run(plan, out, codes[0])
    return _check_verify(plan, out, codes)


def _check_rate(plan, out, code):
    raw = json.loads(Path(plan["configs"][0]).read_text())
    steps = raw["replicates"] * _moves(raw, plan["grid_max"])
    try:
        functions = json.loads((out / "rate_study.json").read_text())["functions"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        return {"ops": 1, "failed": [f"rate-study exit {code}: {exc}"], "steps": steps, "models": 1}
    bad = [f for f in functions if not (f["passed"] and f["monotone"])]
    if code != (5 if bad else 0):
        bad = functions
    failed = [f"rate-study {f['name']}: exit {code} slope={f['slope']} passed={f['passed']} "
              f"monotone={f['monotone']}" for f in bad]
    return {"ops": len(functions), "failed": failed, "steps": steps, "models": 1}


def _check_run(plan, out, code):
    raw = json.loads(Path(plan["configs"][0]).read_text())
    rounds, reps = raw["schedule"]["total_rounds"], raw["replicates"]
    r, space, moves = len(raw["initial_states"]), raw["space"], _moves(raw, rounds)
    try:
        if code != 0:
            raise ValueError(f"exit code {code}")
        meta = json.loads((out / "meta.json").read_text())["replicates"]
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
    except (OSError, ValueError, KeyError) as exc:
        return {"ops": reps, "failed": [f"replicate {i}: {exc}" for i in range(reps)],
                "steps": 0, "models": 1}
    failed, steps = [], 0
    for rep in range(reps):
        problems = []
        try:
            with open(out / f"trace_{rep:03d}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            rows = []
            problems.append(str(exc))
        if len(rows) != r * (rounds + 1):
            problems.append(f"{len(rows)} trace rows, expected {r * (rounds + 1)}")
        if not all(_in_domain(row, space) for row in rows):
            problems.append("a state lies outside the domain")
        moved = sum(1 for row in rows if row["round"] != "0" and row["holds"] == "0")
        if moved != moves:
            problems.append(f"{moved} moving steps, expected {moves}")
        steps += moved
        if rep >= len(meta) or meta[rep]["rounds"] != rounds:
            problems.append("meta.json rounds differ from the config")
        if space["kind"] == "finite":
            occ = sum(float(s["value"]) for s in summary
                      if s["replicate"] == str(rep) and s["quantity"].startswith("occupancy_"))
            if abs(occ - 1.0) > 1e-9:
                problems.append(f"occupancies sum to {occ!r}")
        if problems:
            failed.append(f"replicate {rep}: " + "; ".join(problems))
    return {"ops": reps, "failed": failed, "steps": steps, "models": 1}


def _in_domain(row: dict, space: dict) -> bool:
    if space["kind"] == "finite":
        return 0 <= int(row["state"]) < space["size"]
    coords = [float(row[f"state_{i}"]) for i in range(len(space["lower"]))]
    return all(lo <= x <= hi for x, lo, hi in zip(coords, space["lower"], space["upper"]))


_BATTERY_STEPS = re.compile(r"over (\d+) steps")


def _check_verify(plan, out, codes):
    ops, failed, steps = 0, [], 0
    for i, code in enumerate(codes):
        model = f"model {i} ({Path(plan['configs'][i]).name})"
        try:
            checks = json.loads((out / f"model_{i}" / "verification.json").read_text())["checks"]
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            ops += 1
            failed.append(f"{model}: exit {code}: {exc}")
            continue
        ops += len(checks)
        bad = [c for c in checks if not c["passed"]]
        if code != (5 if bad else 0):
            bad = checks
        failed += [f"{model}: {c['name']} statistic={c['statistic']!r} exit {code}" for c in bad]
        for c in checks:
            match = _BATTERY_STEPS.search(c["details"])
            if c["name"] == "fluctuation_bound" and match:
                steps += int(match.group(1))
    return {"ops": ops, "failed": failed, "steps": steps, "models": len(codes)}
