"""Statistical harness: experiment runner, SLLN rate study, bias study,
and the machine-verification suite over the exact oracle.

Every routine here is deterministic given (config, seed): replicates draw
from documented seed derivations, randomized batteries use their own salted
streams, and artifact files carry no timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import exact
from .config import ExperimentConfig
from .errors import ConfigurationError
from .measures import tv_distance
from .sampler import LockstepEnsemble, run
from .state_space import FiniteSpace

SLOPE_PASS_BAND = (-0.65, -0.35)
_VERIFY_SALT = 0x5EED
_BATTERY_SALT = 0xF1AC
_BATTERY_FUNCS = 4  # random test functions of the fluctuation battery
_BATTERY_STEPS = 10_000  # its insertions
_BIAS_BATCHES = 16  # batch means of a one-replicate bias study


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def json_data(value):
    """`value` as JSON data: a report dataclass as its fields plus its
    `passed`, a dict by its values, an array or a tuple as a list of Python
    numbers, and a non-finite float as None (JSON null)."""
    if is_dataclass(value):
        data = {f.name: getattr(value, f.name) for f in fields(value)}
        if hasattr(value, "passed"):
            data["passed"] = value.passed
        return json_data(data)
    if isinstance(value, dict):
        return {k: json_data(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [json_data(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(obj, path) -> None:
    """Write `json_data(obj)` to `path`, creating its directory: sorted keys,
    two-space indent, a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(json_data(obj), sort_keys=True, indent=2, allow_nan=False) + "\n")


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Run every replicate, write traces, summaries, and metadata.

    Produces trace_###.csv / masses_###.csv / events_###.csv per replicate
    plus summary.csv and meta.json; returns the path map.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    burn = sum(config.offsets)
    summary_rows = []
    metas = []
    paths = {"traces": [], "summary": str(out / "summary.csv"), "meta": str(out / "meta.json")}
    for rep in range(config.replicates):
        trace = run(config, replicate=rep)
        tpath = out / f"trace_{rep:03d}.csv"
        trace.write_csv(tpath)
        trace.write_mass_csv(out / f"masses_{rep:03d}.csv")
        trace.write_events_csv(out / f"events_{rep:03d}.csv")
        paths["traces"].append(str(tpath))
        metas.append(trace.meta)

        target_states = trace.states[config.r - 1][burn:]
        if isinstance(config.space, FiniteSpace):
            # the vector entries are the values f(s), so the mean reduces
            # the same floats in the same order as the per-state path
            states = np.array(target_states, dtype=np.intp)
            for f in config.test_functions:
                summary_rows.append((rep, f.name, repr(float(np.mean(f.vector[states])))))
            occ = np.bincount(states, minlength=config.space.size) / max(1, states.size)
            for s in range(config.space.size):
                summary_rows.append((rep, f"occupancy_{s}", repr(float(occ[s]))))
        else:
            for f in config.test_functions:
                est = float(np.mean([f(s) for s in target_states]))
                summary_rows.append((rep, f.name, repr(est)))

    with open(paths["summary"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "quantity", "value"])
        writer.writerows(summary_rows)
    write_json(
        {"config": config.raw, "config_hash": config.config_hash(), "replicates": metas},
        paths["meta"],
    )
    return paths


# ---------------------------------------------------------------------------
# SLLN rate study
# ---------------------------------------------------------------------------

@dataclass
class FunctionRate:
    name: str
    target: float
    moment1: np.ndarray  # E|S_n(f) - pi(f)| per grid point
    moment2: np.ndarray  # E[|.|^2]^(1/2) per grid point
    stderr: np.ndarray
    slope: float | None
    slope_stderr: float | None
    passed: bool
    monotone: bool  # terminal error below initial error


@dataclass
class RateReport:
    n_grid: np.ndarray
    burn_in: int
    replicates: int
    functions: list[FunctionRate]
    config_hash: str = ""
    # the feeder's ring-mass watch over all replicates, as in meta.json
    stability_violations: int = 0
    min_ring_mass: float = np.inf  # written as null when no feeder was watched

    @property
    def passed(self) -> bool:
        return all(f.passed and f.monotone for f in self.functions)


def slln_rate_study(
    config: ExperimentConfig,
    n_grid=None,
    min_replicates: int = 50,
) -> RateReport:
    """Estimate E|S_n^2(f) - pi_2(f)| over a round grid across replicates
    and fit the log-log decay slope against (n - N_1 + 1).

    The average S_n^2(f) runs over post-activation rounds N_1..n, matching
    the error normalization; the grid must lie within
    ``schedule.total_rounds``. The slope fit uses only n >= 2 N_1 and passes
    when it falls in the band around -1/2. All replicates run together in
    one :class:`LockstepEnsemble`, under the lockstep stream contract
    described in :mod:`eesampler.config`.
    """
    if not isinstance(config.space, FiniteSpace):
        raise ConfigurationError("the rate study needs a finite space (exact pi_2)")
    if config.r != 2:
        raise ConfigurationError("the rate study is defined for r = 2")
    if config.replicates < min_replicates:
        raise ConfigurationError(
            f"rate study needs at least {min_replicates} replicates, "
            f"got {config.replicates}"
        )
    if not config.test_functions:
        raise ConfigurationError("rate study needs at least one test function")
    if n_grid is None:
        # doubling grid from 128 up to the configured horizon
        top = int(np.log2(config.total_rounds))
        if 2**top > config.total_rounds:
            top -= 1
        if top < 8:
            raise ConfigurationError("total_rounds too short for the default grid")
        n_grid = 2 ** np.arange(7, top + 1)
    grid = np.array(sorted(int(n) for n in n_grid))
    if np.any(np.diff(grid) == 0):
        raise ConfigurationError(f"grid rounds must be distinct, got {grid.tolist()}")
    if grid[-1] > config.total_rounds:
        raise ConfigurationError(
            f"largest grid round {grid[-1]} exceeds schedule.total_rounds={config.total_rounds}"
        )
    burn = config.activation_threshold(1)
    if grid[0] <= burn:
        raise ConfigurationError(
            f"smallest grid round {grid[0]} must exceed the burn-in N_1={burn}"
        )
    fit_mask = grid >= 2 * burn
    if fit_mask.sum() < 3:
        raise ConfigurationError(
            f"the slope fit needs at least 3 grid rounds >= 2 N_1 = {2 * burn}, "
            f"got {grid.tolist()}"
        )
    pi_target = config.ladder.density_table()[-1]
    fvecs = np.array([f.vector for f in config.test_functions])  # (F, S)
    targets = fvecs @ pi_target

    ens = LockstepEnsemble(config)
    sums = np.zeros((len(fvecs), config.replicates))
    errs = np.zeros((config.replicates, len(grid), len(fvecs)))
    n = 0  # rounds before the block
    for block in ens.blocks(int(grid[-1])):
        # rounds n + 1 + t of the block's rows t >= skip are averaged; the
        # running sums are a cumulative sum from the previous block's, which
        # adds the same floats in the same order as a per-round loop
        skip = max(0, burn - n - 1)
        if skip < len(block):
            terms = fvecs[:, block[skip:, :, 1]]  # (F, rounds, R)
            terms[:, 0] += sums
            running = np.cumsum(terms, axis=1, out=terms)
            sums = running[:, -1]
            for gi in np.flatnonzero((grid > n) & (grid <= n + len(block))):
                at = int(grid[gi]) - n - 1 - skip
                errs[:, gi, :] = (running[:, at] / (int(grid[gi]) - burn + 1) - targets[:, None]).T
        n += len(block)

    functions = []
    for j, f in enumerate(config.test_functions):
        abs_err = np.abs(errs[:, :, j])
        m1 = abs_err.mean(axis=0)
        m2 = np.sqrt((abs_err**2).mean(axis=0))
        se = abs_err.std(axis=0, ddof=1) / np.sqrt(config.replicates)
        if np.all(m1 < 1e-14):  # constant functions: error identically zero
            functions.append(
                FunctionRate(f.name, float(targets[j]), m1, m2, se, None, None, True, True)
            )
            continue
        xs = np.log(grid[fit_mask] - burn + 1.0)
        ys = np.log(m1[fit_mask])
        coef, cov = np.polyfit(xs, ys, 1, cov=True)
        slope = float(coef[0])
        slope_se = float(np.sqrt(cov[0, 0]))
        passed = SLOPE_PASS_BAND[0] <= slope <= SLOPE_PASS_BAND[1]
        functions.append(
            FunctionRate(
                f.name,
                float(targets[j]),
                m1,
                m2,
                se,
                slope,
                slope_se,
                passed,
                bool(m1[-1] < m1[0]),
            )
        )
    return RateReport(
        n_grid=grid,
        burn_in=burn,
        replicates=config.replicates,
        functions=functions,
        config_hash=config.config_hash(),
        stability_violations=ens.monitor.violations,
        min_ring_mass=ens.monitor.min_mass_seen,
    )


def write_rate_report(report: RateReport, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "rate_study.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "n", "moment1", "moment2", "stderr"])
        for f in report.functions:
            for i, n in enumerate(report.n_grid):
                writer.writerow(
                    [f.name, int(n), repr(float(f.moment1[i])),
                     repr(float(f.moment2[i])), repr(float(f.stderr[i]))]
                )
    json_path = out / "rate_study.json"
    write_json(report, json_path)
    return {"csv": str(csv_path), "json": str(json_path)}


# ---------------------------------------------------------------------------
# frozen-feeder bias study
# ---------------------------------------------------------------------------

@dataclass
class BiasReport:
    freeze_at: int
    feeder_atoms: list
    predicted: np.ndarray  # oracle stationary vector of the frozen kernel
    pi_target: np.ndarray
    predicted_tv: float
    occupancy: np.ndarray
    occupancy_se: np.ndarray
    max_z: float
    agrees: bool
    exact_feeder_tv: float
    config_hash: str = ""

    @property
    def passed(self) -> bool:
        return self.agrees and self.predicted_tv > 0.0


def frozen_feeder_atoms(config: ExperimentConfig, freeze_at: int) -> list:
    """The feeder history a frozen run conditions on: the initial atom plus
    `freeze_at` MH moves, generated from replicate 0's chain-0 stream."""
    seq = config.replicate_seed_seq(0)
    rng = np.random.default_rng(seq.spawn(config.r)[0])
    x = config.initial_states[0]
    point = config.kernels.point(x)
    atoms = [x]
    for _ in range(freeze_at):
        x = config.kernels.mh_step(0, x, rng, point)
        atoms.append(x)
    return atoms


def bias_study(config: ExperimentConfig, freeze_at: int) -> BiasReport:
    """Freeze the feeder, predict the interacting chain's limit with the
    oracle, and compare replicate occupancies against the prediction.

    The frozen feeder is one realization, drawn from replicate 0's scalar
    chain-0 stream, and the frozen base of a :class:`LockstepEnsemble` whose
    replicates all step chain 1 from round 1; the prediction is the
    stationary vector of the exact frozen kernel. The study also reports the
    exact-feeder control: feeding pi_1 itself must reproduce pi_2 (zero
    predicted bias).

    The burn-in is ``max(64, total_rounds // 8)`` rounds; the occupancies
    average the rounds after it. A one-replicate study takes batch means
    over ``_BIAS_BATCHES`` batches of them, so it needs at least that many
    rounds after the burn-in."""
    if not isinstance(config.space, FiniteSpace):
        raise ConfigurationError("the bias study needs a finite space")
    if config.r != 2:
        raise ConfigurationError("the bias study is defined for r = 2")
    if config.kernels.ring_closed(config.kernels.epsilons[1]):
        raise ConfigurationError(
            "the bias study needs a frozen kernel with a unique limit, but the ee-jump "
            "at epsilon 1 is ring-closed: it never leaves the ring of its state"
        )
    if freeze_at < 0:
        raise ConfigurationError(f"freeze_at must be >= 0, got {freeze_at}")
    burn = max(64, config.total_rounds // 8)
    if burn >= config.total_rounds:
        raise ConfigurationError("burn-in must be shorter than the run")
    if config.replicates == 1 and config.total_rounds - burn < _BIAS_BATCHES:
        raise ConfigurationError(
            f"a one-replicate bias study needs at least {_BIAS_BATCHES} rounds after "
            f"its burn-in of {burn}, got {config.total_rounds - burn}"
        )
    atoms = frozen_feeder_atoms(config, freeze_at)
    counts = np.bincount(atoms, minlength=config.space.size)
    mu = counts / len(atoms)

    model = config.kernels
    omega = exact.stationary(exact.interacting_matrix(model, 1, mu))
    pi1, pi2 = config.ladder.density_table()[0], config.ladder.density_table()[-1]
    predicted_tv = tv_distance(omega, pi2)
    exact_feeder_tv = tv_distance(exact.stationary(exact.interacting_matrix(model, 1, pi1)), pi2)

    ens = LockstepEnsemble(config, frozen_feeder=counts)
    states = np.empty((config.total_rounds, config.replicates), dtype=np.intp)
    n = 0
    for block in ens.blocks(config.total_rounds):
        states[n:n + len(block)] = block[:, :, 1]
        n += len(block)
    sequences = states[burn:].T
    if config.replicates == 1:
        # batch means over the single run stand in for replicate spread
        sequences = np.array_split(sequences[0], _BIAS_BATCHES)
    occ = np.array([np.bincount(s, minlength=config.space.size) / s.size for s in sequences])
    mean = occ.mean(axis=0)
    se = occ.std(axis=0, ddof=1) / np.sqrt(len(sequences))
    z = np.abs(mean - omega) / np.maximum(se, 1e-12)
    max_z = float(z.max())
    return BiasReport(
        freeze_at=freeze_at,
        feeder_atoms=[int(a) for a in atoms],
        predicted=omega,
        pi_target=pi2,
        predicted_tv=predicted_tv,
        occupancy=mean,
        occupancy_se=se,
        max_z=max_z,
        agrees=bool(max_z <= 3.0),
        exact_feeder_tv=exact_feeder_tv,
        config_hash=config.config_hash(),
    )


# ---------------------------------------------------------------------------
# fluctuation-bound battery
# ---------------------------------------------------------------------------

def fluctuation_bound_battery(config: ExperimentConfig) -> dict:
    """Stream ``_BATTERY_STEPS`` random insertions and check the per-step
    restricted-mean drift |S_{m+1,x}(f) - S_{m,x}(f)| of ``_BATTERY_FUNCS``
    random test functions against (1/theta + 1/theta^2) ||f||_inf / (m+2)
    with theta the observed minimum ring mass over the whole run.

    Returns the worst observed ratio (must be <= 1), the theta used, and the
    number of steps checked."""
    if not isinstance(config.space, FiniteSpace):
        raise ConfigurationError("the fluctuation battery needs a finite space")
    size = config.space.size
    labels = config.partition.labels()
    d = config.partition.d
    steps = _BATTERY_STEPS
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _BATTERY_SALT]))
    fs = rng.uniform(-1.0, 1.0, size=(_BATTERY_FUNCS, size))

    stream = rng.integers(size, size=steps)
    stream_rings = labels[stream]

    # The empirical measure starts with one atom per ring, so every restricted
    # mean exists from the first step. Each ring's running sums are a cumsum
    # of its insertions in stream order, which adds in the same order as a
    # per-insertion loop; rings are done one at a time to keep memory flat.
    drift = np.empty(steps)
    min_count = np.full(steps, np.iinfo(np.int64).max)
    for j in range(d):
        in_ring = stream_rings == j
        at = np.flatnonzero(in_ring)
        seed_atom = np.flatnonzero(labels == j)[0]
        means = np.cumsum(fs.T[np.concatenate(([seed_atom], stream[at]))], axis=0)
        means /= np.arange(1, at.size + 2)[:, None]
        drift[at] = np.abs(np.diff(means, axis=0)).max(axis=1)
        np.minimum(min_count, np.cumsum(in_ring) + 1, out=min_count)

    # atoms after each insertion: S_m holds m+1 atoms and the bound uses m+2
    m_plus_2 = d + np.arange(1, steps + 1)
    theta = np.minimum.accumulate(np.concatenate(([1 / d], min_count / m_plus_2)))
    # float_power squares through C pow(), as theta**2 does on one float64,
    # so every bound is the float a per-insertion loop computes; on an array
    # theta**2 is x*x, which differs in the last bit for about 1 in 1000
    bound = (1.0 / theta[1:] + 1.0 / np.float_power(theta[1:], 2)) / m_plus_2
    worst = float(np.max(drift / bound, initial=0.0))
    return {"max_ratio": worst, "theta": float(theta[-1]), "steps": steps}


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    statistic: float
    tolerance: float | None
    passed: bool
    details: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    config_hash: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _random_positive_measure(rng, size) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, size)
    return w / w.sum()


def _random_chain(rng, size) -> np.ndarray:
    P = rng.uniform(0.05, 1.0, size=(size, size))
    return P / P.sum(axis=1, keepdims=True)


def _worst_ratio(per_level: list) -> float:
    """The largest value over per-level (B,) arrays or scalars of ratios or
    discrepancies, 0 when there are none; NaN if any is NaN, so that the
    check fails."""
    return float(np.max(np.concatenate([[0.0], np.ravel(per_level)])))


def verify_suite(config: ExperimentConfig) -> VerificationReport:
    """Run every oracle check against the configured model and emit a
    consolidated pass/fail report. Deterministic given the config seed."""
    if not isinstance(config.space, FiniteSpace):
        raise ConfigurationError("the verification suite needs a finite space")
    if config.r < 2:
        raise ConfigurationError("the verification suite needs a feeding chain (r >= 2)")
    model = config.kernels
    size = config.space.size
    d = config.partition.d
    if size > 8 or d > 3:
        raise ConfigurationError(
            f"verification enumeration is sized for S <= 8, d <= 3 "
            f"(got S={size}, d={d})"
        )
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _VERIFY_SALT]))
    dens = config.ladder.density_table()
    report = VerificationReport(config_hash=config.config_hash())

    # local kernels: invariance and reversibility, exact. Every fold below
    # is _worst_ratio, which keeps a NaN where max() would drop it
    discrepancies = []
    for level in range(config.r):
        K = exact.k_matrix(model, level)
        pi = dens[level]
        flow = pi[:, None] * K
        discrepancies += [np.abs(pi @ K - pi).max(), np.abs(flow - flow.T).max()]
    worst = _worst_ratio(discrepancies)
    report.checks.append(CheckResult("k_invariance_reversibility", worst, 1e-12, worst <= 1e-12))

    # fixed point: feeding the exact lower target reproduces the upper one;
    # a ring-closed kernel has no unique one, so its epsilon is left out
    discrepancies = []
    epsilons = [eps for eps in (0.0, 0.25, 0.5, 1.0) if not model.ring_closed(eps)]
    for level in range(1, config.r):
        Ps = np.stack([exact.interacting_matrix(model, level, dens[level - 1], eps)
                       for eps in epsilons])
        discrepancies.append(np.abs(exact.stationary(Ps) - dens[level]).max())
    worst = _worst_ratio(discrepancies)
    report.checks.append(CheckResult("fixed_point", worst, 1e-10, worst <= 1e-10))

    # Poisson equation: residual and series truncation on 20 random chains,
    # drawn chain then function, solved as one stack
    chains = [(_random_chain(rng, 8), rng.uniform(-1.0, 1.0, 8)) for _ in range(20)]
    Ps, fs = (np.array(batch) for batch in zip(*chains))
    sol = exact.poisson_solve(Ps, fs)
    worst_res = float(sol.residual.max())
    partial = exact.poisson_series_partial(Ps, fs, 50, omega=sol.omega)
    rate = exact.geometric_rate_estimate(Ps, n_max=50, omega=sol.omega)
    envelope = (
        2.0 * rate.m * rate.rho**50 * np.abs(fs).max(axis=-1)
        / np.maximum(1e-300, 1.0 - rate.rho)
    )
    worst_gap = float((np.abs(partial - sol.fhat).max(axis=-1) - envelope).max())
    report.checks.append(CheckResult("poisson_residual", worst_res, 1e-10, worst_res <= 1e-10))
    report.checks.append(
        CheckResult(
            "poisson_series_envelope", worst_gap, 1e-12, worst_gap <= 1e-12,
            details="max excess of |series_50 - solve| over the Doeblin envelope",
        )
    )

    # q-fold composition identity of the variant's interaction X (the kernel
    # at epsilon 1, as in the mixture and Lipschitz checks), by brute-force
    # enumeration; per q three (mu, f) pairs, drawn mu then f, one stack
    discrepancies = []
    for q in (1, 2, 3):
        pairs = [(_random_positive_measure(rng, size), rng.uniform(-1.0, 1.0, size))
                 for _ in range(3)]
        mus, fs = (np.array(batch) for batch in zip(*pairs))
        discrepancies += [exact.composition_identity_check(model, level, mus, fs, q)
                          for level in range(1, config.r)]
    worst = _worst_ratio(discrepancies)
    report.checks.append(CheckResult("composition_identity", worst, 1e-10, worst <= 1e-10))

    # mixture expansion of the pair (K, X): word sum vs matrix power
    level = config.r - 1
    K = exact.k_matrix(model, level)
    X = exact.interacting_matrix(model, level, dens[level - 1], 1.0)
    worst = _worst_ratio([exact.mixture_expansion_check(K, X, eps, n)
                          for n in range(1, 7) for eps in (0.3, 0.5, 1.0)])
    report.checks.append(CheckResult("mixture_expansion", worst, 1e-10, worst <= 1e-10))

    # Lipschitz continuity of the interaction in its feeder; each pair
    # draws mu, xi, then 20 functions per level
    draws = [
        (
            _random_positive_measure(rng, size),
            _random_positive_measure(rng, size),
            rng.uniform(-1.0, 1.0, (config.r - 1, 20, size)),
        )
        for _ in range(25)
    ]
    mus, xis, fs = (np.array(batch) for batch in zip(*draws))
    ratios = [
        exact.lipschitz_check(model, level, mus, xis, fs[:, level - 1])
        for level in range(1, config.r)
    ]
    worst = _worst_ratio(ratios)
    report.checks.append(CheckResult("lipschitz", worst, 1.0 + 1e-9, worst <= 1.0 + 1e-9))

    # empirical-measure fluctuation bound
    battery = fluctuation_bound_battery(config)
    report.checks.append(
        CheckResult(
            "fluctuation_bound", battery["max_ratio"], 1.0 + 1e-9,
            battery["max_ratio"] <= 1.0 + 1e-9,
            details=f"theta={battery['theta']:.6f} over {battery['steps']} steps",
        )
    )

    # geometric convergence: fitted rate never beats the Doeblin bound. A
    # ring-closed kernel has no unique stationary vector to converge to, so
    # this check and the continuity check leave its level out.
    closed = [lv for lv in range(1, config.r) if model.ring_closed(model.epsilons[lv])]
    open_levels = [lv for lv in range(1, config.r) if lv not in closed]
    left_out = (f"ring-closed kernel left out at level {', '.join(map(str, closed))}"
                if closed else "")
    mats = [exact.k_matrix(model, lv) for lv in range(config.r)]
    mats += [exact.interacting_matrix(model, level, dens[level - 1]) for level in open_levels]
    rate = exact.geometric_rate_estimate(np.stack(mats))
    worst = float((rate.rho_fitted - rate.rho).max())
    monotone = bool(np.all(np.diff(rate.tv_curve, axis=-1) <= 1e-12))
    report.checks.append(
        CheckResult("geometric_rate", worst, 1e-9, worst <= 1e-9 and monotone, details=left_out)
    )

    # continuity of invariant measures: exhibit a finite empirical constant
    pairs = [(_random_positive_measure(rng, size), _random_positive_measure(rng, size))
             for _ in range(100)]
    mus, xis = (np.array(batch) for batch in zip(*pairs))
    worst = _worst_ratio(
        [exact.invariant_continuity_check(model, level, mus, xis) for level in open_levels]
    )
    details = "max tv(omega(mu), omega(xi)) / ||K_mu - K_xi|| over the battery"
    report.checks.append(
        CheckResult(
            "invariant_continuity", worst, None, bool(np.isfinite(worst)),
            details=f"{details}; {left_out}" if closed else details,
        )
    )
    return report
