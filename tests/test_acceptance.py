"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run on fixed shipped seeds, so every run of this module
is deterministic. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eesampler
from conftest import as_vector, feeder_of, kernel_copy, make_model
from eesampler import exact
from eesampler.config import four_state_config, four_state_raw
from eesampler.experiments import bias_study, fluctuation_bound_battery, slln_rate_study
from eesampler.kernels import BufferedUniforms


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


@pytest.fixture(scope="module")
def fixture_config():
    return four_state_config()


def test_criterion_01_fixed_point_keystone(fixture_config):
    dens = fixture_config.ladder.density_table()
    worst = 0.0
    for eps in (0.0, 0.25, 0.5, 1.0):
        P = exact.interacting_matrix(fixture_config.kernels, 1, dens[0], eps)
        worst = max(worst, float(np.abs(exact.stationary(P) - dens[1]).max()))
    report(1, "fixed-point keystone", worst <= 1e-10, f"max deviation {worst:.3e}")


def test_criterion_02_poisson_residual_and_series():
    rng = np.random.default_rng(20_008)
    worst_res, worst_excess = 0.0, -np.inf
    for _ in range(20):
        P = rng.uniform(0.05, 1.0, (8, 8))
        P /= P.sum(axis=1, keepdims=True)
        f = rng.uniform(-1.0, 1.0, 8)
        sol = exact.poisson_solve(P, f)
        worst_res = max(worst_res, sol.residual)
        partial = exact.poisson_series_partial(P, f, 50)
        rate = exact.geometric_rate_estimate(P)
        envelope = 2.0 * rate.m * rate.rho**50 * np.abs(f).max() / (1.0 - rate.rho)
        worst_excess = max(worst_excess, float(np.abs(partial - sol.fhat).max()) - envelope)
    ok = worst_res <= 1e-10 and worst_excess <= 1e-12
    report(2, "poisson residual + series", ok,
           f"residual {worst_res:.3e}, series excess {worst_excess:.3e}")


def test_criterion_03_composition_identity(fixture_config):
    rng = np.random.default_rng(30_008)
    eight = make_model(
        [rng.normal(size=8), rng.normal(size=8)], labels=[0, 0, 0, 1, 1, 1, 2, 2]
    )
    worst = 0.0
    for model in (fixture_config.kernels, eight):
        size = model.ladder.space.size
        for q in (1, 2, 3):
            mu = rng.integers(1, 9, size).astype(float)  # random rational measure
            mu /= mu.sum()
            f = rng.uniform(-1.0, 1.0, size)
            worst = max(worst, exact.composition_identity_check(model, 1, mu, f, q))
    report(3, "composition identity", worst <= 1e-10, f"max discrepancy {worst:.3e}")


def test_criterion_04_mixture_expansion(fixture_config):
    model = fixture_config.kernels
    K = exact.k_matrix(model, 1)
    Q = exact.q_matrix(model, 1, fixture_config.ladder.density_table()[0])
    worst = 0.0
    for n in range(1, 7):
        for eps in (0.3, 0.5, 1.0):
            worst = max(worst, exact.mixture_expansion_check(K, Q, eps, n))
    report(4, "mixture expansion", worst <= 1e-10, f"max discrepancy {worst:.3e}")


def test_criterion_05_lipschitz_bound(fixture_config):
    model = fixture_config.kernels
    rng = np.random.default_rng(50_008)
    worst = 0.0
    for _ in range(25):  # 25 measure pairs x 20 functions = 500 triples
        mu = rng.uniform(0.05, 1.0, 4)
        mu /= mu.sum()
        xi = rng.uniform(0.05, 1.0, 4)
        xi /= xi.sum()
        fs = rng.uniform(-1.0, 1.0, (20, 4))
        worst = max(worst, exact.lipschitz_check(model, 1, mu, xi, fs))
    report(5, "lipschitz bound", worst <= 1.0 + 1e-9, f"max ratio {worst:.6f}")


def test_criterion_06_fluctuation_bound(fixture_config):
    out = fluctuation_bound_battery(fixture_config)
    ok = out["max_ratio"] <= 1.0 + 1e-9 and 0.0 < out["theta"] <= 0.5
    report(6, "fluctuation bound", ok,
           f"max ratio {out['max_ratio']:.4f} at theta {out['theta']:.4f}")


def test_criterion_07_simulation_vs_oracle(fixture_config):
    model = fixture_config.kernels
    feeder = feeder_of(model, (0, 1, 1, 2, 3, 3, 0, 2, 3, 1))
    mu = as_vector(feeder, fixture_config.space)
    # the selection kernel Q is the selection-mutation move at epsilon 1
    steppers = {
        "selection": kernel_copy(model, epsilon=1.0),
        "nonlinear": model,
        "ee_jump": kernel_copy(model, variant="ee-jump"),
    }
    kernels = {
        name: (exact.interacting_matrix(m, 1, mu),
               lambda x, rng, m=m: m.interacting_step(1, x, feeder, rng)[0])
        for name, m in steppers.items()
    }
    # the same values as the seeded Generator, drawn faster
    rng = BufferedUniforms(np.random.default_rng(np.random.SeedSequence([fixture_config.seed, 7])))
    n = 100_000
    worst = 0.0
    for name, (P, step) in kernels.items():
        for x0 in range(4):
            counts = np.zeros(4)
            for _ in range(n):
                counts[step(x0, rng)] += 1
            se = np.sqrt(P[x0] * (1.0 - P[x0]) / n)
            z = np.abs(counts / n - P[x0]) / np.maximum(se, 1e-12)
            worst = max(worst, float(z.max()))
    report(7, "simulation vs oracle", worst <= 3.0, f"max |z| {worst:.3f}")


def test_criterion_08_slln_rate():
    cfg = four_state_config(
        replicates=100, schedule={"offsets": [50], "total_rounds": 16384}
    )
    rep = slln_rate_study(cfg)  # default grid 2^7 .. 2^14
    assert list(rep.n_grid) == [2**k for k in range(7, 15)]
    details = ", ".join(
        f"{f.name}: slope {f.slope:+.3f}" for f in rep.functions if f.slope is not None
    )
    ok = all(
        f.slope is not None and -0.65 <= f.slope <= -0.35 and f.monotone
        for f in rep.functions
    )
    report(8, "slln rate", ok, details)


def test_criterion_09_frozen_feeder_bias():
    cfg = four_state_config(
        replicates=32, schedule={"offsets": [50], "total_rounds": 4096}
    )
    rep = bias_study(cfg, freeze_at=9)  # 10 frozen atoms
    assert len(rep.feeder_atoms) == 10
    ok = rep.agrees and rep.predicted_tv > 0.01 and rep.exact_feeder_tv <= 1e-10
    report(
        9, "frozen-feeder bias", ok,
        f"predicted tv {rep.predicted_tv:.4f}, max |z| {rep.max_z:.3f}, "
        f"exact-feeder tv {rep.exact_feeder_tv:.2e}",
    )


def _cli(args, cwd):
    # The child runs from ``cwd``, where a relative PYTHONPATH entry (such as
    # ``src``) no longer resolves; put the absolute directory holding the
    # imported package first, so the subprocess runs the code under test.
    package_root = str(Path(eesampler.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "eesampler.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_10_determinism(tmp_path):
    cfg_small = four_state_raw(schedule={"offsets": [10], "total_rounds": 512})
    cfg_path = tmp_path / "fixture.json"
    cfg_path.write_text(json.dumps(cfg_small))
    rate_raw = four_state_raw(
        replicates=50, schedule={"offsets": [10], "total_rounds": 1024}
    )
    rate_path = tmp_path / "rate.json"
    rate_path.write_text(json.dumps(rate_raw))

    verbs = {
        "run": ["run", "--config", str(cfg_path)],
        "verify": ["verify", "--config", str(cfg_path)],
        "bias-study": [
            "bias-study", "--config", str(cfg_path), "--freeze-at", "9",
            "--replicates", "6",
        ],
        "rate-study": [
            "rate-study", "--config", str(rate_path), "--n-grid", "128,256,512,1024",
        ],
    }
    mismatches = []
    for verb, argv in verbs.items():
        out_a = tmp_path / f"{verb}-a"
        out_b = tmp_path / f"{verb}-b"
        _cli(argv + ["--out", str(out_a)], tmp_path)
        _cli(argv + ["--out", str(out_b)], tmp_path)
        if _tree_bytes(out_a) != _tree_bytes(out_b):
            mismatches.append(verb)
    report(10, "determinism", not mismatches,
           f"verbs checked: {', '.join(verbs)}" + (f"; MISMATCH {mismatches}" if mismatches else ""))
