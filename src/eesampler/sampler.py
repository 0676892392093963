"""The staged multi-chain process: activation schedule, rounds, traces.

Chain 0 (the base feeder) moves by plain MH from round 1. Chain k activates
once chains 0..k-1 have completed N_k further rounds: it holds exactly
(state unchanged, measure untouched) until round ``sum(offsets[:k])`` has
passed, then advances by one interacting step per round, reading chain
k-1's empirical measure. Within a round chains update sequentially in
chain order, so chain k sees its feeder as already updated this round; the
optional strict-snapshot mode makes every chain read the feeder as it stood
at the round's start instead (the two differ by one atom of weight
1/(count+1)).

One schedule: both engines share the activation thresholds, the one block
planner and the one driver. Each engine's ``step_round(rounds=1)``
advances one block of at most `rounds` rounds, which also ends where a
chain activates and after the engine's own cap; ``blocks(rounds)`` runs
any number of rounds through it and yields what each block returns.

Level by level: chain k reads nothing but chain k-1's measure, so both
engines advance a block of rounds one chain at a time. Chain 0 makes every
move of the block first, then chain 1 all of its moves, and so on; each
consumer reads its feeder's atoms of the block as a prefix that grows by
one atom per round, before its move in sequential mode and after it under
strict snapshots. The numbers are those of stepping one round at a time.

Records: each chain of :class:`ChainEnsemble` carries a
:class:`~eesampler.kernels.ChainPoint` (state, ring, level log-densities)
that the kernels update; inserts hand its ring and levels to the measure,
so the trace, the measure and later feeder draws evaluate nothing again.
The :class:`Trace` keeps each chain's states, rings and step kinds as
columns: a block's moves append to per-chain lists, which enter the trace
in one ``record`` call per block, and the trace writer formats the columns
a slab of rounds at a time, with table lookups in place of per-row
formatting. A row costs three references until it is written.
On finite spaces each chain reads its uniforms, one per random decision,
through a :class:`~eesampler.kernels.BufferedUniforms`: its Generator's
values with less overhead per draw. Box chains keep the Generator for the
Gaussian walk's ``standard_normal``.

Lockstep: :class:`LockstepEnsemble` runs the same schedule for all
replicates of a finite-space run at once, with numpy arrays of states and
of the feeding chains' measure counts, a block of rounds at a time; the
rate study uses it, and so does the bias study, on a frozen base count
vector whose long-run bias the oracle predicts exactly. A block draws the
floats of the rounds it covers, so its numbers are those of stepping one
round at a time. :class:`ChainEnsemble` stays the reference engine for
traced runs: its consumer reads the feeder through a prefix view,
``EmpiricalMeasure.snapshot``, whose counts the engine raises one atom per
round, and a block's columns go into the trace in one call.

Stability: each engine holds one :class:`~eesampler.measures.StabilityMonitor`
as ``monitor``. Once a block's chains have moved, one check reads the ring
counts after each of its rounds of every moving feeder whose consumer
moves, in round order: a scalar measure's counts, built from the rings of
the feeder's new atoms, or the lockstep (R, d) array of all replicates.
Under the abort policy the monitor raises, naming the earliest round; under
warn the scalar engine logs a ``low_mass`` event per ring below theta,
after the round's fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigurationError
from .kernels import _HOLD, _INIT, _LOCAL, _STEP_KINDS, BufferedUniforms
from .measures import EmpiricalMeasure, StabilityMonitor
from .state_space import FiniteSpace

_ROUND_BLOCK = 2**14  # elements of a lockstep block's arrays: bounds its rounds
_SCALAR_ROUNDS = 1024  # rounds of a ChainEnsemble block and of a trace writer slab


@dataclass
class Trace:
    """Append-only record of a run: per-chain columns, mass snapshots, events.

    Columns: ``states[k]``, ``rings[k]`` and ``steps[k]`` hold chain k's
    state, ring and step kind after each round, round 0 first. A step kind
    is one of the :class:`~eesampler.kernels.StepInfo` constants, shared by
    every row that records it, so a row stores three references and builds
    no object. ``rows`` rebuilds the round-major row tuples for readers.

    The trace writer formats the columns a slab of at most
    ``_SCALAR_ROUNDS`` rounds at a time: each column of each chain fills
    its cells of the slab's row-major cell list with one extended-slice
    assignment, read from tables (the ``"i,"`` cell of each finite state
    and ring, each round of the slab, each step kind's tail), and the slab
    is joined and written. No table grows with the run beyond one slab.
    """

    r: int
    state_dim: int  # 0 for finite spaces, k for box spaces (states: tuples of k floats)
    states: list = field(init=False)
    rings: list = field(init=False)
    steps: list = field(init=False)
    mass_snapshots: list = field(init=False, default_factory=list)  # (round, chain, ring, mass)
    events: list = field(init=False, default_factory=list)  # (round, chain, kind, ring)
    meta: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.states, self.rings, self.steps = ([[] for _ in range(self.r)] for _ in range(3))

    def record(self, states, rings, steps) -> None:
        """Append a block of rounds: for each chain in chain order, the
        lists of its states, rings and step kinds after each round."""
        for columns, block in ((self.states, states), (self.rings, rings), (self.steps, steps)):
            for column, values in zip(columns, block):
                column.extend(values)

    @property
    def rows(self) -> list:
        """The (chain, round, state, ring, branch, swap_accepted, holds)
        tuples of the columns, r per round in chain order."""
        chains = [[(k, n, x, ring, kind.branch, kind.swap_accepted, int(kind is _HOLD))
                   for n, (x, ring, kind) in enumerate(zip(*columns))]
                  for k, columns in enumerate(zip(self.states, self.rings, self.steps))]
        return [row for rnd in zip(*chains) for row in rnd]

    def snapshot_masses(self, rnd, chain, masses):
        for ring, mass in enumerate(masses):
            self.mass_snapshots.append((rnd, chain, ring, float(mass)))

    def _state_header(self) -> list[str]:
        if self.state_dim == 0:
            return ["state"]
        return [f"state_{i}" for i in range(self.state_dim)]

    # The writers give the bytes csv.writer's default dialect gives: CRLF
    # line ends and no quoting, as no cell holds a comma, a quote or a line
    # break.
    def write_csv(self, path) -> None:
        header = ["chain", "round", *self._state_header(), "ring", "branch", "swap_accept", "holds"]
        r, width, length = self.r, 5 * self.r, len(self.states[0])
        finite = self.state_dim == 0
        # cells end in the comma that follows them; a row's tail cell ends it
        ints = _int_cells(self.rings + self.states if finite else self.rings)
        state_cell = ints.__getitem__ if finite else _box_cell
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for first in range(0, length, _SCALAR_ROUNDS):
                last = min(first + _SCALAR_ROUNDS, length)
                m = last - first
                rounds = [f"{n}," for n in range(first, last)]
                cells = [""] * (width * m)
                for k in range(r):
                    cells[5 * k::width] = [f"{k},"] * m
                    cells[5 * k + 1::width] = rounds
                    cells[5 * k + 2::width] = map(state_cell, self.states[k][first:last])
                    cells[5 * k + 3::width] = map(ints.__getitem__, self.rings[k][first:last])
                    cells[5 * k + 4::width] = map(_TAIL_CELLS.__getitem__,
                                                  map(id, self.steps[k][first:last]))
                fh.write("".join(cells))

    def write_mass_csv(self, path) -> None:
        lines = ["%d,%d,%d,%r\r\n" % snap for snap in self.mass_snapshots]
        _write_lines(path, ["round", "chain", "ring", "mass"], lines)

    def write_events_csv(self, path) -> None:
        lines = ["%d,%d,%s,%d\r\n" % event for event in self.events]
        _write_lines(path, ["round", "chain", "kind", "ring"], lines)


# each step kind's last cells (branch, swap_accept, holds) and the line end,
# keyed by identity: StepInfo's generated hash is Python code, far slower
_TAIL_CELLS = {
    id(kind): "%s,%s,%d\r\n" % (kind.branch, {None: "", False: "0", True: "1"}[kind.swap_accepted],
                                 kind is _HOLD)
    for kind in _STEP_KINDS
}


def _int_cells(columns) -> list[str]:
    """The ``"i,"`` cell of every integer from 0 to the largest in `columns`."""
    return [f"{i}," for i in range(1 + max(max(column) for column in columns))]


def _box_cell(x) -> str:
    return ",".join(map(repr, x)) + ","


def _write_lines(path, header: list, lines: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(lines))


class _Schedule:
    """The staged schedule both engines share: the activation thresholds,
    the round count ``n``, the stability ``monitor``, the one block planner
    and the one driver. An engine adds its own ``step_round(rounds=1)``,
    which advances one block of at most `rounds` rounds."""

    def __init__(self, config: ExperimentConfig, seq: np.random.SeedSequence):
        self.config = config
        self.kernels = config.kernels
        self.r = config.r
        self.n = 0
        self.thresholds = [config.activation_threshold(k) for k in range(self.r)]
        self.rngs = [np.random.default_rng(child) for child in seq.spawn(self.r)]
        self.monitor = StabilityMonitor(config.theta, config.stability_policy == "abort")

    def blocks(self, rounds: int):
        """Advance every chain by `rounds` rounds, a block at a time, and
        yield what each block's ``step_round`` returns."""
        end = self.n + rounds
        while self.n != end:
            yield self.step_round(end - self.n)

    def _block_length(self, rounds: int, longest: int) -> int:
        """The next block's length: at most `rounds` and `longest` rounds,
        ending where a chain activates, so that in all of its rounds each
        chain moves or each holds. A block of fewer than one round is a
        ConfigurationError."""
        if rounds < 1:
            raise ConfigurationError(f"a block needs at least one round, got {rounds}")
        n = self.n
        return min([rounds, longest] + [t - n for t in self.thresholds if n < t < n + rounds])

    def _watched(self) -> list:
        """The feeders the next block watches: each that moves, read by a
        consumer that moves."""
        return [k for k in range(self.r - 1) if max(self.thresholds[k:k + 2]) <= self.n]


class ChainEnsemble(_Schedule):
    """Chain records, per-chain empirical measures, and the round engine.

    ``points[k]`` is chain k's record, the state with its ring and level
    log-densities.

    Blocks: :meth:`step_round` advances one block of rounds, level by
    level, as :class:`LockstepEnsemble` does for all replicates, and
    ``blocks`` runs any number of rounds through it. A block holds at most
    ``_SCALAR_ROUNDS`` rounds and ends where a chain activates, so how the
    rounds are split into calls never shows in a run. After a
    StabilityError the ensemble's state is undefined: the abort names the
    right round, but the chains may have moved past it.
    """

    def __init__(self, config: ExperimentConfig, replicate: int = 0):
        super().__init__(config, config.replicate_seed_seq(replicate))
        self.replicate = replicate
        if isinstance(config.space, FiniteSpace):  # box chains need standard_normal
            self.rngs = [BufferedUniforms(g) for g in self.rngs]

        self.points = [self.kernels.point(x) for x in config.initial_states]
        self.measures = [EmpiricalMeasure(config.partition.d) for _ in range(self.r)]
        for m, p in zip(self.measures, self.points):
            m.insert(p.x, p.ring, p.levels)

        state_dim = 0 if isinstance(config.space, FiniteSpace) else config.space.dim
        self.trace = Trace(r=self.r, state_dim=state_dim)
        self.trace.record([[p.x] for p in self.points], [[p.ring] for p in self.points],
                          [[_INIT]] * self.r)

    # -- the round engine -------------------------------------------------------
    def step_round(self, rounds: int = 1) -> int:
        """Advance every chain by one block of at most `rounds` rounds, at
        most ``_SCALAR_ROUNDS``, and return its length.

        Level by level: chain 0 makes every move of the block, then each
        chain k its moves, reading chain k-1's measure through a prefix
        view that reveals one feeder atom per round. Then one watch and the
        block's mass snapshots read every chain's counts after each round."""
        n0, watched = self.n, self._watched()
        m = self._block_length(rounds, _SCALAR_ROUNDS)
        block = range(n0 + 1, n0 + m + 1)
        strict = self.config.strict_snapshot
        starts = [list(measure.counts) for measure in self.measures]
        columns, added, fallbacks = [], [], []
        feeder = None  # chain k-1's prefix view and the rings of its block's atoms
        for k, (point, measure, rng) in enumerate(zip(self.points, self.measures, self.rngs)):
            moves = n0 >= self.thresholds[k]
            view = measure.snapshot() if k in watched else None
            last_ring = point.ring  # the ring of the measure's last atom
            if not moves:
                level = [point.x] * m, [point.ring] * m, [_HOLD] * m
            elif k == 0:
                level = self._mh_rounds(point, measure, rng, block)
            else:
                level = self._interacting_rounds(k, point, measure, rng, block, feeder, fallbacks)
            columns.append(level)
            added.append(level[1] if moves else None)
            if view is not None:
                reveal = level[1]
                if strict:  # one atom behind: the view starts without the last atom
                    view.counts[last_ring] -= 1
                    reveal = [last_ring] + reveal[:-1]
                feeder = view, reveal
        self.n = n0 + m
        self.trace.record(*zip(*columns))
        self._close_block(n0, watched, starts, added, fallbacks)
        return m

    def _mh_rounds(self, point, measure, rng, block) -> tuple:
        """Chain 0's MH moves over the block's rounds; returns its states,
        rings and step kinds."""
        mh_step, insert = self.kernels.mh_step, measure.insert
        xs, rings = [], []
        for _ in block:
            mh_step(0, point.x, rng, point)
            insert(point.x, point.ring, point.levels)
            xs.append(point.x)
            rings.append(point.ring)
        return xs, rings, [_LOCAL] * len(xs)

    def _interacting_rounds(self, k, point, measure, rng, block, feeder, fallbacks) -> tuple:
        """Chain k's interacting moves over the block's rounds against the
        prefix view of chain k-1, which gains one revealed atom before each
        move; returns its states, rings and step kinds and adds its
        fallbacks to `fallbacks`."""
        step, insert = self.kernels.interacting_step, measure.insert
        view, reveal = feeder
        counts = view.counts
        xs, rings, kinds = [], [], []
        for n, revealed in zip(block, reveal):
            counts[revealed] += 1
            ring = point.ring  # a fallback names the ring it left
            _, info = step(k, point.x, view, rng, point)
            if info.fallback:
                fallbacks.append((n, k, "fallback", ring))
            insert(point.x, point.ring, point.levels)
            xs.append(point.x)
            rings.append(point.ring)
            kinds.append(info)
        return xs, rings, kinds

    def _close_block(self, n0: int, watched: list, starts: list, rings: list,
                     fallbacks: list) -> None:
        """The A1 watch of the `watched` feeders, the block's events in
        round order, and its mass snapshots. `starts` are each chain's ring
        counts before the block, `rings` the rings of the atoms each moving
        chain added (None for a holding chain)."""
        m, d, r = self.n - n0, self.config.partition.d, self.r
        every = self.config.snapshot_every
        snaps = range(every - 1 - n0 % every, m, every)
        lows = []
        if watched or snaps:
            # (r, m, d) counts and (r, m) totals after each round
            grown = np.zeros((r, m, d), dtype=np.int64)
            for k, added in enumerate(rings):
                if added is not None:
                    grown[k, np.arange(m), added] = 1
            counts = np.cumsum(grown, axis=1) + np.array(starts)[:, None, :]
            totals = counts.sum(axis=2)
            if watched:
                found = self.monitor.check(counts[watched].transpose(1, 0, 2),
                                           totals[watched].T, n0 + 1, watched)
                lows = [(n, k, "low_mass", ring) for n, k, ring in found]
            for t in snaps:
                for k in range(r):
                    self.trace.snapshot_masses(n0 + t + 1, k, counts[k, t] / totals[k, t])
        # by round; a round's fallbacks, in chain order, before its low_mass events
        self.trace.events.extend(sorted(fallbacks + lows, key=lambda e: (e[0], e[2] == "low_mass")))

    def finalize_trace(self) -> Trace:
        if self.n % self.config.snapshot_every != 0:
            for k in range(self.r):
                self.trace.snapshot_masses(self.n, k, self.measures[k].masses())
        self.trace.meta = {
            "config_hash": self.config.config_hash(),
            "master_seed": self.config.seed,
            "replicate": self.replicate,
            "rounds": self.n,
            "chains": self.r,
            "schedule": list(self.config.schedule_lengths()),
            "theta": self.config.theta,
            "min_ring_mass": self.monitor.min_mass_seen,  # inf when no feeder was watched
            "stability_violations": self.monitor.violations,
            "fallbacks": sum(event[2] == "fallback" for event in self.trace.events),
        }
        return self.trace


def run(config: ExperimentConfig, replicate: int = 0) -> Trace:
    """Execute the staged schedule for the configured rounds; returns the
    complete trace. Bit-reproducible per (config, seed, replicate)."""
    ens = ChainEnsemble(config, replicate=replicate)
    for _ in ens.blocks(config.total_rounds):
        pass
    return ens.finalize_trace()


class LockstepEnsemble(_Schedule):
    """All replicates of a finite-space run, stepped together with numpy.

    States are an (R, r) int array. Only a feeding chain k < r - 1 keeps its
    empirical measure: in replicate i its counts over the S states, held as
    ring-sorted cumulative counts (:class:`~eesampler.kernels.RingLayout`),
    and ``sizes[k]`` is the number of atoms. Memory is O(R r S) whatever
    the number of rounds, plus the kernel set's O(r S^2) acceptance tables
    and the arrays of one block. The activation schedule, the chain-order
    updates within a round, strict snapshots and the stability policy are
    those of :class:`ChainEnsemble`; there is no trace.

    Blocks: :meth:`step_round` advances one block of m rounds, with m
    chosen so that a block's arrays hold about ``_ROUND_BLOCK`` elements,
    and ``blocks`` runs any number of rounds through it; a block never
    straddles a chain's activation. Within a block the levels move in
    chain order, each for all m rounds: a feeding level's
    cumulative counts after each round are one cumulative sum over the
    block, and its consumer reads them as they stood after the feeder's
    move of that round, or at the round's start under strict snapshots.
    One gather of the feeder's ring edges serves its consumer's picks and
    the watch: one block-form check of the stability ``monitor`` reads
    every watched feeder's ring counts after each round, in round order.
    After a StabilityError the ensemble's state is undefined: the abort
    names the right round, but the other levels may have moved past it.

    Frozen base: given ``frozen_feeder``, an (S,) vector of non-negative
    integer counts with at least one atom (else ConfigurationError), chain 0
    holds it for the whole run and never moves or draws; its masses are
    checked once, at construction. Chain 1 moves from round 1, and chain
    k >= 2 after round ``sum(offsets[1:k])``.

    Streams: the lockstep seeding rule of :mod:`.config` and the draw
    order of :mod:`.kernels`, so reruns are bit-reproducible per (config,
    seed) and do not depend on the block length.
    """

    def __init__(self, config: ExperimentConfig, frozen_feeder=None):
        if not isinstance(config.space, FiniteSpace):
            raise ConfigurationError("lockstep ensembles need a finite space")
        if frozen_feeder is not None:
            frozen_feeder = _frozen_counts(frozen_feeder, config.space.size)
        super().__init__(config, config.lockstep_seed_seq())

        reps, feeding = config.replicates, self.r - 1
        self._layout = layout = self.kernels.ring_layout()
        initial = np.array(config.initial_states, dtype=np.intp)
        # chain k's states are row k of (r, R), contiguous for the kernels
        self._x = np.tile(initial[:, None], (1, reps))
        self.states = self._x.T
        # feeding chain k's (S, R) ring-sorted cumulative counts
        self._cum = list(layout.atoms(self._x[:-1]).astype(np.int64))
        self.sizes = [1] * feeding
        if frozen_feeder is not None:
            self._cum[0] = np.broadcast_to(layout.cumulative(frozen_feeder[:, None]),
                                           self._cum[0].shape)
            self.sizes[0] = int(frozen_feeder.sum())
            self.thresholds = [np.inf] + [t - self.thresholds[1] for t in self.thresholds[1:]]
            rings = layout.ring_totals(layout.edges(self._cum[0]))
            self.monitor.check(rings.T[None, None], [[self.sizes[0]]], 0, [0])

    def step_round(self, rounds: int = 1) -> np.ndarray:
        """Advance every active chain of every replicate by one block of at
        most `rounds` rounds, with at most about ``_ROUND_BLOCK`` elements
        in its arrays; returns its (m, R, r) array, the states after each
        of its m rounds."""
        reps, size = self._x.shape[1], self.config.space.size
        # a round's largest arrays hold S cumulative counts or 5 uniforms
        # per replicate
        m = self._block_length(rounds, max(1, _ROUND_BLOCK // (reps * max(size, 5))))
        n0, kernels, strict = self.n, self.kernels, self.config.strict_snapshot
        layout = self._layout
        block = np.empty((self.r, m, reps), dtype=np.intp)
        feeder = edges = None
        # the watched feeders' ring counts after each round, and their sizes before
        watched = self._watched()
        watch = np.empty((m, len(watched), reps, layout.d), dtype=np.int64)
        sizes = [self.sizes[k] for k in watched]
        for k in range(self.r):
            x = self._x[k]
            if n0 < self.thresholds[k]:
                block[k] = x
            elif k == 0:
                kernels.mh_rounds_lockstep(0, x, self.rngs[0], block[0])
            else:
                kernels.interacting_rounds_lockstep(k, x, feeder, edges, self.rngs[k], block[k])
            if k == self.r - 1:
                break
            start, consumed = self._cum[k], n0 >= self.thresholds[k + 1]
            if n0 < self.thresholds[k]:  # a holding feeder adds no atoms
                if consumed:
                    feeder = np.broadcast_to(start, (m, *start.shape))
                    edges = layout.edges(start)
                    edges = np.broadcast_to(edges, (m, *edges.shape))
                continue
            # rows: under strict snapshots the counts at the block's start,
            # then the cumulative counts after each round's atom; a loop over
            # the rounds adds far faster than an accumulate along them
            first = int(strict)
            cum = np.empty((m + first, *start.shape), dtype=np.int64)
            if strict:
                cum[0] = start
            after, previous = cum[first:], start
            for row, atom in zip(after, layout.atoms(block[k])):
                previous = np.add(previous, atom, out=row)
            self._cum[k] = after[-1]
            if consumed:  # one gather of ring edges for the picks and the watch
                all_edges = layout.edges(cum)
                feeder, edges = cum[:m], all_edges[:m]
                if k in watched:
                    layout.ring_totals(all_edges[first:],
                                       out=watch[:, watched.index(k)].transpose(0, 2, 1))
            self.sizes[k] += m
        self._x[...] = block[:, -1]
        self.n = n0 + m
        if watched:
            self.monitor.check(watch, np.add.outer(np.arange(1, m + 1), sizes), n0 + 1, watched)
        return block.transpose(1, 2, 0)


def _frozen_counts(frozen_feeder, size: int) -> np.ndarray:
    """A frozen base as given, once it is an (S,) vector of non-negative
    integer counts holding at least one atom."""
    counts = np.asarray(frozen_feeder)
    if (counts.shape != (size,) or counts.dtype.kind not in "iu"
            or (counts < 0).any() or counts.sum() == 0):
        raise ConfigurationError(
            f"a frozen base needs {size} non-negative integer counts holding "
            f"at least one atom, got {frozen_feeder!r}"
        )
    return counts
