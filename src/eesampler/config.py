"""Experiment configuration: schema, validation, and object construction.

Configs are plain JSON-compatible dicts (see README for the schema). Loading
resolves them into live objects (space, ladder, partition, kernel set) and
validates every cross-reference; all failures, an unknown key among them,
raise :class:`ConfigurationError` so the CLI can map them to exit code 2.

Seeding rule: replicate ``i`` of a run with master seed ``s >= 0`` draws
from ``numpy.random.SeedSequence([s, i])``, whose spawned children seed the
per-chain generators in chain order; each random decision is one uniform
(see :mod:`eesampler.kernels`).

The rate and bias studies step all R replicates in lockstep and have their
own seeding rule: ``numpy.random.SeedSequence([s, LOCKSTEP_SALT])`` spawns
one generator per chain level, in chain order, shared by the replicates;
:mod:`eesampler.kernels` gives the uniforms each level draws per round.
The bias study runs the rate study's engine on a frozen base: chain 0
never moves, so its generator never draws and chain 1's level-1 generator
draws from round 1; the frozen atoms come from replicate 0's chain-0
stream above. Numbers of both studies at a given seed therefore differ
from those of the per-replicate streams; reruns stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError
from .kernels import (
    GaussianWalkProposal,
    KernelSet,
    NeighborProposal,
    UniformProposal,
)
from .state_space import (
    BoxSpace,
    DensityLadder,
    FiniteSpace,
    RingPartition,
    ladder_masses,
    tempered_ladder,
)

LOCKSTEP_SALT = 0x10C5
STABILITY_POLICIES = ("warn", "abort")


@dataclass(frozen=True)
class TestFunction:
    """Named bounded test function; on finite spaces also a vector."""

    name: str
    fn: Callable
    vector: np.ndarray | None = None

    def __call__(self, x) -> float:
        return float(self.fn(x))


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description. The space, the ladder and the
    partition are those of the kernel set."""

    raw: dict
    kernels: KernelSet
    offsets: tuple[int, ...]  # activation offsets N_1..N_{r-1}
    total_rounds: int
    initial_states: tuple
    replicates: int
    seed: int
    theta: float
    stability_policy: str
    strict_snapshot: bool
    snapshot_every: int
    test_functions: tuple[TestFunction, ...] = field(default_factory=tuple)

    @property
    def space(self) -> FiniteSpace | BoxSpace:
        return self.kernels.ladder.space

    @property
    def ladder(self) -> DensityLadder:
        return self.kernels.ladder

    @property
    def partition(self) -> RingPartition:
        return self.kernels.partition

    @property
    def r(self) -> int:
        return self.ladder.r

    def activation_threshold(self, chain: int) -> int:
        """Round after which `chain` (0-based) starts moving."""
        return int(sum(self.offsets[:chain]))

    def schedule_lengths(self) -> tuple[int, ...]:
        """N_1..N_r with N_r the remainder of the run."""
        burn = sum(self.offsets)
        return tuple(self.offsets) + (self.total_rounds - burn,)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def replicate_seed_seq(self, replicate: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, int(replicate)])

    def lockstep_seed_seq(self) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, LOCKSTEP_SALT])


def _pairwise_sum(values: list) -> float:
    """The sum of floats in numpy's order, that of ``pairwise_sum`` in a
    float64 add reduction: in sequence below 8 terms; up to 128 terms in 8
    strided partial sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the tail in sequence; above 128 terms the two halves (the first a
    multiple of 8 long) summed alike and added. Not ``sum()``, which
    compensates its rounding from Python 3.12."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = values[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[stop:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _gaussian_mixture_logpdf(means, scales, weights, dim: int) -> Callable:
    """log of sum_k w_k N(x; mean_k, scale_k^2 I), up to a constant, at a
    point x of a dim-dimensional box, a tuple of floats, with one scale
    and one weight per mean.

    The arithmetic is in Python floats on constants computed with numpy, in
    the operations and order of the array form
    ``logw - 0.5 * ((x - means) ** 2).sum(axis=1) / var - log_norm`` and a
    log-sum-exp over the components: both sums follow numpy's pairwise
    order and each exponential is ``np.exp``, whose float64 bits differ
    from ``math.exp``'s. So every value equals the array form's bit for
    bit, at a fraction of its per-call cost.
    """
    means = np.asarray(means, dtype=float)
    scales = np.asarray(scales, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    if means.ndim != 2 or means.shape[1] != dim:
        raise ConfigurationError(f"mixture means must be points of R^{dim}")
    k = means.shape[0]
    if k == 0 or scales.shape != (k,) or weights.shape != (k,):
        raise ConfigurationError("a mixture needs one scale and one weight per mean")
    if np.any(scales <= 0) or np.any(weights <= 0):
        raise ConfigurationError("mixture scales and weights must be positive")
    logw = np.log(weights / weights.sum())
    var = scales**2
    log_norm = dim * np.log(scales)
    components = tuple(zip(logw.tolist(), means.tolist(), var.tolist(), log_norm.tolist()))

    def logpdf(x):
        comp = [
            lw - 0.5 * _pairwise_sum([(xi - mi) * (xi - mi) for xi, mi in zip(x, mean)]) / v - ln
            for lw, mean, v, ln in components
        ]
        m = max(comp)
        # exp(0) is 1 exactly, which spares the call for the largest term
        return m + math.log(_pairwise_sum([float(np.exp(c - m)) if c != m else 1.0 for c in comp]))

    return logpdf


def _section(name: str, spec, keys=None) -> dict:
    """A config section that must be a JSON object (dict) and, given `keys`,
    hold no other key: a misspelt key raises instead of taking a default."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{name} must be an object, got {type(spec).__name__}")
    unknown = sorted(map(str, set(spec) - set(spec if keys is None else keys)))
    if unknown:
        raise ConfigurationError(f"{name}: unknown key(s) {', '.join(map(repr, unknown))}")
    return spec


def _real(name: str, value) -> float:
    """A finite JSON number; a bool, a string or null raises, not coerces."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.number))
            or not math.isfinite(value)):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _reals(name: str, value) -> np.ndarray:
    """A finite JSON number or a (nested) list of them, as a float array."""

    def check(v):
        if isinstance(v, (list, tuple, np.ndarray)):
            for item in v:
                check(item)
        else:
            _real(name, v)

    check(value)
    return np.asarray(value, dtype=float)


def _integer(name: str, value) -> int:
    """A JSON integer; a bool, a float or a string raises, not truncates."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _build_space(spec: dict):
    kind = spec.get("kind")
    if kind == "finite":
        _section("space", spec, ("kind", "size"))
        return FiniteSpace(_integer("space.size", spec["size"]))
    if kind == "box":
        _section("space", spec, ("kind", "lower", "upper"))
        return BoxSpace(_reals("space.lower", spec["lower"]), _reals("space.upper", spec["upper"]))
    raise ConfigurationError(f"unknown space kind {kind!r}")


def _build_ladder(spec: dict, space) -> DensityLadder:
    if "log_weights" in spec:
        _section("ladder", spec, ("log_weights",))
        return DensityLadder(space, [_reals("ladder.log_weights", row) for row in spec["log_weights"]])
    if "weights" in spec:
        _section("ladder", spec, ("weights",))
        rows = []
        for row in spec["weights"]:
            w = _reals("ladder.weights", row)
            if np.any(w <= 0):
                raise ConfigurationError("density weights must be strictly positive")
            rows.append(np.log(w))
        return DensityLadder(space, rows)
    if "temperatures" in spec:
        temps = [_real("ladder.temperatures", t) for t in spec["temperatures"]]
        if "base_weights" in spec:
            _section("ladder", spec, ("temperatures", "base_weights"))
            w = _reals("ladder.base_weights", spec["base_weights"])
            if np.any(w <= 0):
                raise ConfigurationError("base weights must be strictly positive")
            return tempered_ladder(space, np.log(w), temps)
        if "base" in spec:
            _section("ladder", spec, ("temperatures", "base"))
            base = _section("ladder.base", spec["base"], ("family", "means", "scales", "weights"))
            if base.get("family") != "gaussian_mixture":
                raise ConfigurationError(f"unknown density family {base.get('family')!r}")
            if not isinstance(space, BoxSpace):
                raise ConfigurationError("a base density family needs a box space")
            logpdf = _gaussian_mixture_logpdf(
                *(_reals(f"ladder.base.{key}", base[key]) for key in ("means", "scales", "weights")),
                space.dim,
            )
            return tempered_ladder(space, logpdf, temps)
    raise ConfigurationError(
        "ladder spec needs log_weights, weights, or a base with temperatures"
    )


def _build_partition(spec: dict, space, ladder: DensityLadder) -> RingPartition:
    if "labels" in spec:
        _section("partition", spec, ("labels",))
        return RingPartition(
            space, labels=[_integer("partition.labels", v) for v in spec["labels"]]
        )
    if "thresholds" in spec:
        _section("partition", spec, ("thresholds", "energy"))
        if spec.get("energy", "neg_log_target") != "neg_log_target":
            raise ConfigurationError(f"unknown energy function {spec['energy']!r}")
        return RingPartition(space, ladder=ladder,
                             thresholds=_reals("partition.thresholds", spec["thresholds"]))
    raise ConfigurationError("partition spec needs labels or thresholds")


_PROPOSALS = {p.kind: p for p in (UniformProposal, NeighborProposal, GaussianWalkProposal)}


def _build_proposals(spec, space, r: int):
    spec = {"kind": spec} if isinstance(spec, str) else _section("kernel.proposal", spec)
    kind = spec.get("kind", "uniform" if isinstance(space, FiniteSpace) else "gaussian_walk")
    proposal = _PROPOSALS.get(kind)
    if proposal is None:
        raise ConfigurationError(f"unknown proposal kind {kind!r}")
    if not fields(proposal):  # a kind without parameters is the same at every level
        _section("kernel.proposal", spec, ("kind",))
        return tuple(proposal() for _ in range(r))
    # the one kind with a parameter, the Gaussian walk, takes a step per level
    _section("kernel.proposal", spec, ("kind", "steps"))
    steps = spec.get("steps")
    if steps is None:
        raise ConfigurationError(f"{kind} proposal needs per-level steps")
    steps = [_real("kernel.proposal.steps", s) for s in steps]
    if len(steps) != r:
        raise ConfigurationError(f"need {r} step sizes, got {len(steps)}")
    return tuple(proposal(s) for s in steps)


def _build_test_functions(specs, space, partition) -> tuple[TestFunction, ...]:
    if not isinstance(specs, (list, tuple)):
        raise ConfigurationError(f"test_functions must be a list, got {type(specs).__name__}")
    out = []
    for i, spec in enumerate(specs):
        kind = _section(f"test_functions[{i}]", spec).get("kind")
        name = spec.get("name", f"f{i}")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"test_functions[{i}]: name must be a non-empty string")
        if any(name == f.name for f in out):
            raise ConfigurationError(f"test_functions[{i}]: duplicate name {name!r}")
        if kind == "ring_indicator":
            _section(f"test_functions[{i}]", spec, ("kind", "name", "ring"))
            ring = _integer(f"test function {name}: ring", spec["ring"])
            if not (0 <= ring < partition.d):
                raise ConfigurationError(f"test function {name}: no ring {ring}")
            fn = lambda x, _r=ring: 1.0 if partition.assign(x) == _r else 0.0
        elif kind == "coordinate":
            _section(f"test_functions[{i}]", spec, ("kind", "name", "axis"))
            axis = _integer(f"test function {name}: axis", spec.get("axis", 0))
            finite = isinstance(space, FiniteSpace)
            if not (0 <= axis < (1 if finite else space.dim)):
                raise ConfigurationError(f"test function {name}: no axis {axis}")
            fn = (lambda x: float(x)) if finite else (lambda x, _a=axis: x[_a])
        elif kind == "table":
            _section(f"test_functions[{i}]", spec, ("kind", "name", "values"))
            values = _reals(f"test function {name}: values", spec["values"])
            if not isinstance(space, FiniteSpace) or values.shape != (space.size,):
                raise ConfigurationError(f"test function {name}: table needs one value per state")
            fn = lambda x, _v=values: float(_v[int(x)])
        else:
            raise ConfigurationError(f"unknown test function kind {kind!r}")
        vector = None
        if isinstance(space, FiniteSpace):
            vector = np.array([fn(s) for s in range(space.size)])
        out.append(TestFunction(name=name, fn=fn, vector=vector))
    return tuple(out)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Resolve and validate a configuration dict.

    A missing key, or a value of the wrong type or form (say a string where
    a number belongs), raises :class:`ConfigurationError` like every other
    invalid config, so the CLI exits with 2 rather than a traceback.
    """
    try:
        return _resolve(raw)
    except (ConfigurationError, DomainError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed config ({type(exc).__name__}: {exc})") from exc


def _resolve(raw: dict) -> ExperimentConfig:
    _section("config", raw, ("space", "ladder", "partition", "kernel", "schedule", "initial_states",
                             "replicates", "seed", "stability", "trace", "test_functions"))
    space = _build_space(_section("space", raw["space"]))
    ladder = _build_ladder(_section("ladder", raw["ladder"]), space)
    partition = _build_partition(_section("partition", raw["partition"]), space, ladder)

    kernel_spec = _section("kernel", raw.get("kernel", {}), ("variant", "epsilon", "proposal"))
    epsilon = kernel_spec.get("epsilon", 1.0)
    if isinstance(epsilon, list):
        epsilon = [_real("kernel.epsilon", e) for e in epsilon]
    else:
        epsilon = _real("kernel.epsilon", epsilon)
    proposals = _build_proposals(kernel_spec.get("proposal", {}), space, ladder.r)
    variant = kernel_spec.get("variant", "selection-mutation")
    kernels = KernelSet(ladder, partition, proposals, epsilon, variant)

    sched = _section("schedule", raw.get("schedule", {}), ("offsets", "total_rounds"))
    offsets = tuple(_integer("schedule.offsets", n) for n in sched.get("offsets", []))
    if len(offsets) != ladder.r - 1:
        raise ConfigurationError(
            f"schedule needs {ladder.r - 1} activation offsets, got {len(offsets)}"
        )
    if any(n < 1 for n in offsets):
        raise ConfigurationError(f"activation offsets must be >= 1: {offsets}")
    total_rounds = _integer("schedule.total_rounds", sched.get("total_rounds", 0))
    if total_rounds <= sum(offsets):
        raise ConfigurationError(
            f"total_rounds ({total_rounds}) must exceed the activation burn-in "
            f"({sum(offsets)})"
        )

    initial = raw.get("initial_states")
    if initial is None or len(initial) != ladder.r:
        raise ConfigurationError(f"need {ladder.r} initial states")
    if isinstance(space, FiniteSpace):
        initial_states = tuple(space.require(_integer("initial_states", x)) for x in initial)
    else:
        initial_states = tuple(space.require(_reals("initial_states", x)) for x in initial)

    seed = _integer("seed", raw.get("seed", 0))
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")

    replicates = _integer("replicates", raw.get("replicates", 1))
    if replicates < 1:
        raise ConfigurationError(f"replicates must be >= 1, got {replicates}")

    stability = _section("stability", raw.get("stability", {}), ("theta", "policy"))
    theta = _real("stability.theta", stability.get("theta", 0.05))
    if not (0.0 < theta <= 1.0):
        raise ConfigurationError(f"theta must lie in (0, 1], got {theta}")
    policy = stability.get("policy", "warn")
    if policy not in STABILITY_POLICIES:
        raise ConfigurationError(f"stability policy must be one of {STABILITY_POLICIES}")

    trace_spec = _section("trace", raw.get("trace", {}), ("snapshot_every", "strict_snapshot"))
    snapshot_every = _integer("trace.snapshot_every", trace_spec.get("snapshot_every", 256))
    if snapshot_every < 1:
        raise ConfigurationError("snapshot_every must be >= 1")
    strict_snapshot = trace_spec.get("strict_snapshot", False)
    if not isinstance(strict_snapshot, bool):
        raise ConfigurationError(
            f"trace.strict_snapshot must be true or false, got {strict_snapshot!r}"
        )

    # partition validity: every ring charged by every level (exact on finite)
    if isinstance(space, FiniteSpace):
        ladder_masses(ladder, partition)

    return ExperimentConfig(
        raw=raw,
        kernels=kernels,
        offsets=offsets,
        total_rounds=total_rounds,
        initial_states=initial_states,
        replicates=replicates,
        seed=seed,
        theta=theta,
        stability_policy=policy,
        strict_snapshot=strict_snapshot,
        snapshot_every=snapshot_every,
        test_functions=_build_test_functions(raw.get("test_functions", []), space, partition),
    )


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_raw(path))


def _read_raw(path) -> dict:
    """The JSON object of a config file read as UTF-8; ConfigurationError
    for a file that cannot be read or is not UTF-8, not JSON or not an
    object."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not UTF-8 text: {exc}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"a config must be an object, got {type(raw).__name__}")
    return raw


def four_state_raw(**overrides) -> dict:
    """The shipped 4-state reference fixture: pi_1 uniform, pi_2 ~ (1,1,2,4),
    rings {0,1} and {2,3}, uniform-independent proposals."""
    raw = {
        "space": {"kind": "finite", "size": 4},
        "ladder": {"weights": [[1, 1, 1, 1], [1, 1, 2, 4]]},
        "partition": {"labels": [0, 0, 1, 1]},
        "kernel": {"variant": "selection-mutation", "epsilon": 0.5, "proposal": "uniform"},
        "schedule": {"offsets": [50], "total_rounds": 4096},
        "initial_states": [0, 0],
        "replicates": 1,
        "seed": 74321,
        "stability": {"theta": 0.05, "policy": "warn"},
        "trace": {"snapshot_every": 256, "strict_snapshot": False},
        "test_functions": [
            {"name": "ring1", "kind": "ring_indicator", "ring": 1},
            {"name": "coord", "kind": "coordinate"},
        ],
    }
    raw.update(overrides)
    return raw


def four_state_config(**overrides) -> ExperimentConfig:
    return config_from_dict(four_state_raw(**overrides))
