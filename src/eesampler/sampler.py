"""The staged multi-chain process: activation schedule, rounds, traces.

Chain 0 (the base feeder) moves by plain MH from round 1. Chain k activates
once chains 0..k-1 have completed N_k further rounds: it holds exactly
(state unchanged, measure untouched) until round ``sum(offsets[:k])`` has
passed, then advances by one interacting step per round, reading chain
k-1's empirical measure. Within a round chains update sequentially in
chain order, so chain k sees its feeder as already updated this round; the
optional strict-snapshot mode makes every chain read the feeder as it stood
at the round's start instead (the two differ by one atom of weight
1/(count+1)). Both engines keep that rule by holding the round's new atoms
back until every chain has moved, then adding them in chain order.

Records: each chain of :class:`ChainEnsemble` carries a
:class:`~eesampler.kernels.ChainPoint` (state, ring, level log-densities)
that the kernels update; inserts hand its ring and levels to the measure,
so the trace, the measure and later feeder draws evaluate nothing again.
On finite spaces each chain reads its uniforms, one per random decision,
through a :class:`~eesampler.kernels.BufferedUniforms`: its Generator's
values with less overhead per draw. Box chains keep the Generator for the
Gaussian walk's ``standard_normal``.

Lockstep: :class:`LockstepEnsemble` runs the same schedule for all
replicates of a finite-space run at once, with numpy arrays of states and
of the feeding chains' measure counts; the rate study uses it, and so does
the bias study, on a frozen base count vector whose long-run bias the oracle
predicts exactly. :class:`ChainEnsemble` stays the reference engine for
traced runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigurationError, StabilityError
from .kernels import BufferedUniforms
from .measures import EmpiricalMeasure, StabilityMonitor
from .state_space import FiniteSpace


@dataclass
class Trace:
    """Append-only record of a run: per-chain rows, mass snapshots, events."""

    r: int
    state_dim: int  # 0 for finite spaces, k for box spaces (states: tuples of k floats)
    rows: list = field(default_factory=list)  # (chain, round, state, ring, branch, swap, hold)
    mass_snapshots: list = field(default_factory=list)  # (round, chain, ring, mass)
    events: list = field(default_factory=list)  # (round, chain, kind, ring)
    meta: dict = field(default_factory=dict)

    def record(self, chain, rnd, state, ring, branch, swap, hold):
        self.rows.append((chain, rnd, state, ring, branch, swap, hold))

    def chain_rows(self, chain: int, first_round: int = 0) -> list:
        """Chain's rows from round `first_round` on. Rows are written r per
        round in chain order, so they are every r-th row from its row of
        that round."""
        return self.rows[first_round * self.r + chain::self.r]

    def snapshot_masses(self, rnd, chain, masses):
        for ring, mass in enumerate(masses):
            self.mass_snapshots.append((rnd, chain, ring, float(mass)))

    def _state_header(self) -> list[str]:
        if self.state_dim == 0:
            return ["state"]
        return [f"state_{i}" for i in range(self.state_dim)]

    # The writers format each file in one pass with the bytes csv.writer's
    # default dialect gives: CRLF line ends and no quoting, as no cell holds
    # a comma, a quote or a line break.
    def write_csv(self, path) -> None:
        header = ["chain", "round", *self._state_header(), "ring", "branch", "swap_accept", "holds"]
        swap_cell = {None: "", False: "0", True: "1"}
        if self.state_dim == 0:
            lines = [
                "%d,%d,%d,%d,%s,%s,%d\r\n" % (chain, rnd, state, ring, branch, swap_cell[swap], hold)
                for chain, rnd, state, ring, branch, swap, hold in self.rows
            ]
        else:
            lines = [
                "%d,%d,%s,%d,%s,%s,%d\r\n" % (
                    chain, rnd, ",".join(map(repr, state)),
                    ring, branch, swap_cell[swap], hold,
                )
                for chain, rnd, state, ring, branch, swap, hold in self.rows
            ]
        _write_lines(path, header, lines)

    def write_mass_csv(self, path) -> None:
        lines = ["%d,%d,%d,%r\r\n" % snap for snap in self.mass_snapshots]
        _write_lines(path, ["round", "chain", "ring", "mass"], lines)

    def write_events_csv(self, path) -> None:
        lines = ["%d,%d,%s,%d\r\n" % event for event in self.events]
        _write_lines(path, ["round", "chain", "kind", "ring"], lines)


def _write_lines(path, header: list, lines: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(lines))


class ChainEnsemble:
    """Chain records, per-chain empirical measures, and the round engine.

    ``points[k]`` is chain k's record, the state with its ring and level
    log-densities.
    """

    def __init__(self, config: ExperimentConfig, replicate: int = 0):
        self.config = config
        self.kernels = config.kernels
        self.r = config.r
        self.n = 0
        self.thresholds = [config.activation_threshold(k) for k in range(self.r)]
        seq = config.replicate_seed_seq(replicate)
        self.rngs = [np.random.default_rng(child) for child in seq.spawn(self.r)]
        if isinstance(config.space, FiniteSpace):  # box chains need standard_normal
            self.rngs = [BufferedUniforms(g) for g in self.rngs]
        self.monitor = StabilityMonitor(config.theta)

        self._fallbacks = 0
        self.points = [self.kernels.point(x) for x in config.initial_states]
        self.measures = [EmpiricalMeasure(config.partition) for _ in range(self.r)]
        for m, p in zip(self.measures, self.points):
            m.insert(p.x, p.ring, p.levels)

        state_dim = 0 if isinstance(config.space, FiniteSpace) else config.space.dim
        self.trace = Trace(r=self.r, state_dim=state_dim)
        for k, p in enumerate(self.points):
            self.trace.record(k, 0, p.x, p.ring, "init", None, 0)

    # -- the round engine -------------------------------------------------------
    def step_round(self) -> None:
        """Advance every active chain by one move; inactive chains hold."""
        cfg = self.config
        self.n = n = self.n + 1
        thresholds, measures, rngs = self.thresholds, self.measures, self.rngs
        kernels, trace = self.kernels, self.trace
        record, events = trace.record, trace.events
        # strict snapshots: the round's inserts wait for the chain loop, so
        # every chain reads its feeder as it stood at the round's start
        deferred = [] if cfg.strict_snapshot else None
        for k, point in enumerate(self.points):
            if n <= thresholds[k]:
                record(k, n, point.x, point.ring, "hold", None, 1)
                continue
            if k == 0:
                kernels.mh_step(0, point.x, rngs[0], point)
                branch, swap = "local", None
            else:
                ring = point.ring  # a fallback names the ring it left
                _, info = kernels.interacting_step(k, point.x, measures[k - 1], rngs[k], point)
                branch, swap = info.branch, info.swap_accepted
                if info.fallback:
                    events.append((n, k, "fallback", ring))
                    self._fallbacks += 1
            if deferred is None:
                measures[k].insert(point.x, point.ring, point.levels)
            else:
                deferred.append((measures[k], point.x, point.ring, point.levels))
            record(k, n, point.x, point.ring, branch, swap, 0)
        if deferred:
            for measure, x, ring, levels in deferred:
                measure.insert(x, ring, levels)
        self._monitor_feeders()
        if n % cfg.snapshot_every == 0:
            for k in range(self.r):
                trace.snapshot_masses(n, k, measures[k].masses())

    def _monitor_feeders(self) -> None:
        """A1 watch: each feeding chain's ring masses once its consumer runs."""
        n, thresholds = self.n, self.thresholds
        for k in range(self.r - 1):
            if n > thresholds[k + 1]:
                fresh = self.monitor.check(self.measures[k], n, chain=k)
                for v in fresh:
                    self.trace.events.append((n, k, "low_mass", v.ring))
                if fresh and self.config.stability_policy == "abort":
                    v = fresh[0]
                    raise StabilityError(
                        f"round {n}: chain {k} ring {v.ring} mass {v.mass:.4f} "
                        f"below theta={self.config.theta}"
                    )

    def run_rounds(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step_round()

    def finalize_trace(self, replicate: int = 0) -> Trace:
        if self.n % self.config.snapshot_every != 0:
            for k in range(self.r):
                self.trace.snapshot_masses(self.n, k, self.measures[k].masses())
        self.trace.meta = {
            "config_hash": self.config.config_hash(),
            "master_seed": self.config.seed,
            "replicate": replicate,
            "rounds": self.n,
            "chains": self.r,
            "schedule": list(self.config.schedule_lengths()),
            "theta": self.config.theta,
            "min_ring_mass": self.monitor.min_mass_seen,  # inf when no feeder was watched
            "stability_violations": self.monitor.violations,
            "fallbacks": self._fallbacks,
        }
        return self.trace


def run(config: ExperimentConfig, replicate: int = 0) -> Trace:
    """Execute the staged schedule for the configured rounds; returns the
    complete trace. Bit-reproducible per (config, seed, replicate)."""
    ens = ChainEnsemble(config, replicate=replicate)
    ens.run_rounds(config.total_rounds)
    return ens.finalize_trace(replicate)


class LockstepEnsemble:
    """All replicates of a finite-space run, stepped together with numpy.

    States are an (R, r) int array. Only a feeding chain k < r - 1 keeps its
    empirical measure: in replicate i the count vector ``counts[i, k]`` over
    the S states, summed per ring in ``ring_counts`` for the stability
    monitor, with ``sizes[k]`` atoms. Memory is O(R r S) whatever the number
    of rounds, plus the kernel set's O(r S^2) acceptance tables. The
    activation schedule, the chain-order updates within a round, strict
    snapshots and the stability policy are those of :class:`ChainEnsemble`;
    there is no trace.

    Frozen base: given ``frozen_feeder``, an (S,) count vector, chain 0
    holds it for the whole run and never moves or draws; its masses are
    checked once, at construction. Chain 1 moves from round 1, and chain
    k >= 2 after round ``sum(offsets[1:k])``.

    Stream contract: ``config.lockstep_seed_seq()`` spawns one generator per
    chain level, shared by all replicates. Each round, every active level
    draws the fixed set of (R,)-vectors documented in :mod:`.kernels`, in
    chain order, so reruns are bit-reproducible per (config, seed). The
    numbers differ from those of per-replicate ChainEnsemble runs.
    """

    def __init__(self, config: ExperimentConfig, frozen_feeder=None):
        if not isinstance(config.space, FiniteSpace):
            raise ConfigurationError("lockstep ensembles need a finite space")
        self.config = config
        self.kernels = config.kernels
        self.r = config.r
        self.n = 0
        self.thresholds = [config.activation_threshold(k) for k in range(self.r)]
        self.rngs = [np.random.default_rng(c) for c in config.lockstep_seed_seq().spawn(self.r)]
        self.violations = 0
        self.min_mass_seen = np.inf

        reps, size, feeding = config.replicates, config.space.size, self.r - 1
        self._rings = config.partition.labels()
        initial = np.array(config.initial_states, dtype=np.intp)
        # chain k's states are row k of (r, R), contiguous for the kernels
        self._x = np.tile(initial[:, None], (1, reps))
        self.states = self._x.T
        self.counts = np.zeros((reps, feeding, size), dtype=np.int64)
        self.counts[:, np.arange(feeding), initial[:-1]] = 1
        self.sizes = [1] * feeding
        self._watched = range(feeding)  # the moving feeders
        if frozen_feeder is not None:
            self.counts[:, 0] = frozen_feeder
            self.sizes[0] = int(self.counts[0, 0].sum())
            self.thresholds = [np.inf] + [t - self.thresholds[1] for t in self.thresholds[1:]]
            self._watched = range(1, feeding)
        self.ring_counts = self.counts @ np.eye(config.partition.d, dtype=np.int64)[self._rings]
        # a round adds one atom per replicate through flat indices into views
        # of the two count arrays: chain k's row in replicate i is row
        # i * feeding + k of each
        self._flat_counts = self.counts.reshape(-1)
        self._flat_ring_counts = self.ring_counts.reshape(-1)
        rows = np.arange(reps) * feeding
        self._row_starts = [((rows + k) * size, (rows + k) * config.partition.d)
                            for k in range(feeding)]
        if frozen_feeder is not None:
            self._check_feeder(0)

    def step_round(self) -> None:
        """Advance every active chain of every replicate by one move."""
        cfg = self.config
        self.n = n = self.n + 1
        # strict snapshots: the round's atoms are counted after the chain
        # loop, so every chain reads its feeder as it stood at the round's start
        added = [] if cfg.strict_snapshot else None
        for k in range(self.r):
            if n <= self.thresholds[k]:
                continue
            x = self._x[k]
            if k == 0:
                new = self.kernels.mh_step_lockstep(0, x, self.rngs[0])
            else:
                new = self.kernels.interacting_step_lockstep(
                    k, x, self.counts[:, k - 1], self.rngs[k])
            self._x[k] = new
            if k < self.r - 1:
                if added is None:
                    self._count(k, new)
                else:
                    added.append((k, new))
        if added:
            for k, new in added:
                self._count(k, new)
        for k in self._watched:
            if n > self.thresholds[k + 1]:
                self._check_feeder(k)

    def _count(self, k: int, new: np.ndarray) -> None:
        """Add the states `new`, one per replicate, to feeding chain k's counts."""
        at, ring_at = self._row_starts[k]
        self._flat_counts[at + new] += 1
        self._flat_ring_counts[ring_at + self._rings[new]] += 1
        self.sizes[k] += 1

    def _check_feeder(self, k: int) -> None:
        """A1 watch on feeding chain k: each round once its consumer moves,
        or once at construction for a frozen feeder, whose masses are fixed."""
        theta = self.config.theta
        # division by the positive atom count keeps the order of the ring
        # counts, so the smallest count gives the smallest mass's float
        lo = int(self.ring_counts[:, k].min()) / self.sizes[k]
        self.min_mass_seen = min(self.min_mass_seen, lo)
        if lo >= theta:
            return
        masses = self.ring_counts[:, k] / self.sizes[k]
        low = masses < theta
        self.violations += int(low.sum())
        if self.config.stability_policy == "abort":
            rep, ring = (int(i) for i in np.argwhere(low)[0])
            raise StabilityError(
                f"round {self.n}: replicate {rep} chain {k} ring {ring} "
                f"mass {masses[rep, ring]:.4f} below theta={theta}"
            )
