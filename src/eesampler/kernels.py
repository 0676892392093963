"""Transition mechanisms: the local MH move and the interacting move.

A :class:`KernelSet` bundles a ladder, a ring partition, one proposal per
level, the per-level mixture weight epsilon and the interaction variant,
and exposes the two moves the sampler makes:

* ``mh_step``          -- one Metropolis-Hastings move targeting level i
* ``interacting_step`` -- (1 - epsilon) local move + epsilon interaction:
                          a feeder atom z drawn from ring(x), accepted with
                          the swap probability min(1, pi_i(z) pi_{i-1}(x) /
                          (pi_i(x) pi_{i-1}(z))). The ``selection-mutation``
                          variant then makes one local move from the
                          post-swap state; the ``ee-jump`` variant, the
                          original equi-energy jump, stops at the swap.

Randomness contract: each random decision of a step is one uniform u from
``rng.random()``, in the fixed order (branch coin, feeder draw, swap coin,
proposal, MH coin) of those the move makes, so runs are bit-reproducible
per seed. An index below n is ``int(n * u)``: the feeder draw takes atom
``int(n * u)`` of the n atoms in x's ring. Degenerate mixtures skip the
branch coin: epsilon == 0 always takes the local branch and epsilon == 1
always takes the interaction branch, without consuming a draw. Finite moves
take a numpy Generator or a :class:`BufferedUniforms`, its values at a
fraction of the call cost. On a box a state is a tuple of Python floats,
which the ladder's base callable receives as it is.

Each proposal class owns its move in every form the code needs: a finite
kind's ``index`` (scalar), ``indices`` (lockstep) and ``matrix`` (the
oracle's), the Gaussian walk's ``walk``. It names the space kind it needs,
so no other code branches on a proposal's kind.

If the feeder measure holds no atoms in the current state's ring, the
interaction branch falls back to the local kernel and flags the event; the
caller logs it as a stability fallback. What an interacting move did (its
branch, the swap coin's outcome, a fallback) is one of six frozen
:class:`StepInfo` constants, so a move builds no object. The feeder is any
measure with ``counts`` and ``draw``: the scalar engine passes a prefix
view of the feeding chain's measure.

Chain records: each scalar move reads x from its :class:`ChainPoint` (built
from x when not passed) and writes the new state's ring and level
log-densities into it. Only the candidate's evaluation depends on the
space. On a finite space the candidate's (ring, levels) is one read from a
per-state record list that the kernel set builds once, O(r S) in all. On a
box a proposal costs one ``DensityLadder.log_densities`` call and its ring
one ``RingPartition.assign_point``. A feeder atom brings the levels its
measure stored. The rest of a move is shared by both spaces: the MH
log-ratio is ``levels[i] - point.levels[i]``, and the swap ratio
``lz[i] + lx[i-1] - lx[i] - lz[i-1]`` is the one formula of
``_swap_prob``. Level log-densities must be finite. A
finite ladder checked them at construction; a box state is checked where
it is evaluated, in ``point`` and for a proposal, and raises
:class:`NumericalError` otherwise.

Lockstep moves make the same moves on finite spaces for R replicates at
once, for the m rounds of a block: ``mh_rounds_lockstep`` and
``interacting_rounds_lockstep``. States are an (R,) int array, and each
replicate's feeder is a column of an (S, R) array of counts kept in the
ring-sorted cumulative form of :class:`RingLayout`, so
the uniform draw with multiplicity from ring(x) becomes a categorical draw
over the ring's states weighted by their counts. They draw whole
(R,)-vectors in a fixed order, whatever branch each replicate takes: an
MH round (proposal, MH coin), an interacting round (branch coin, feeder
draw, swap coin, proposal, MH coin), for both variants and every epsilon.
A block of m rounds draws them as one ``rng.random((m, k, R))`` for the k
rows of its move, the floats that m one-round draws of ``(k, R)`` give, so
a run's numbers do not depend on how its rounds are cut into blocks. The
branch takes the interaction when its coin is below epsilon, so epsilon 0
and 1 need no special case. The parts of a move that do not depend on
the chain's state (the branch coins and every ring's feeder pick) are
computed for the whole block; each round then gathers by its states.
Acceptances are gathers from read-only S x S tables that the kernel set
builds on a level's first use: ``mh_table(i)`` (x, y) is
exp(min(0, log pi_i(y) - log pi_i(x))) and ``swap_table(i)`` (x, z) the
swap probability for levels 1..r-1; the interacting move reads a copy with
a column of zeros appended, the acceptance of no pick (z = S), so a round
without a swap needs no mask. Each table is computed with the
operations, in the order, of the per-element form, so it holds the same
floats; together they take O(r S^2) memory. The oracle reads the swap
table too, so the oracle and the sampler read one formula. Scalar moves
never build them.

Every per-model table is built once, on first use, through one memo,
``KernelSet._table``: the acceptance tables, the :class:`RingLayout`, the
lockstep feeder's per-R index rows and the oracle's ``exact.k_matrix``.
A kernel set's fields are set once in ``__init__``, so a table lives as
long as its kernel set; arrays are handed out read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError
from .state_space import DensityLadder, FiniteSpace, RingPartition

VARIANTS = ("selection-mutation", "ee-jump")


@dataclass(frozen=True)
class UniformProposal:
    """Independent uniform proposal over a finite space: each of the S
    states with mass 1/S. The proposal uniform u gives state int(S u),
    uniform on 0..S-1 up to a bias below S 2^-53."""

    kind = "uniform"
    space_kind = "finite"

    def index(self, x: int, u: float, size: int) -> int:
        """The state proposed from x by the uniform u."""
        return int(size * u)

    def indices(self, x: np.ndarray, u: np.ndarray, size: int) -> np.ndarray:
        """:meth:`index` over (R,) arrays of states and uniforms."""
        return (u * size).astype(np.intp)

    def matrix(self, size: int) -> np.ndarray:
        """(S, S) proposal law: entry (x, y) is the probability of proposing
        y from x."""
        return np.full((size, size), 1.0 / size)


@dataclass(frozen=True)
class NeighborProposal:
    """Lazy symmetric walk on the cycle 0..S-1: half the proposal mass stays
    put, a quarter goes to each neighbor. The holding mass keeps every level
    aperiodic whatever the target. The proposal uniform u holds for
    u < 1/2, steps up for u < 3/4 and down otherwise."""

    kind = "neighbor"
    space_kind = "finite"

    def index(self, x: int, u: float, size: int) -> int:
        """The state proposed from x by the uniform u."""
        return x if u < 0.5 else (x + (1 if u < 0.75 else -1)) % size

    def indices(self, x: np.ndarray, u: np.ndarray, size: int) -> np.ndarray:
        """:meth:`index` over (R,) arrays of states and uniforms."""
        return (x + np.where(u < 0.5, 0, np.where(u < 0.75, 1, -1))) % size

    def matrix(self, size: int) -> np.ndarray:
        """(S, S) proposal law: entry (x, y) is the probability of proposing
        y from x. On S = 2 both neighbours are the other state."""
        eye = np.eye(size)
        return 0.5 * eye + 0.25 * np.roll(eye, 1, axis=1) + 0.25 * np.roll(eye, -1, axis=1)


@dataclass(frozen=True)
class GaussianWalkProposal:
    """Isotropic Gaussian random-walk proposal on a box; out-of-box rejects."""

    step: float
    kind = "gaussian_walk"
    space_kind = "box"

    def __post_init__(self):
        if not (self.step > 0):
            raise ConfigurationError(f"gaussian walk step must be positive, got {self.step}")

    def walk(self, x: tuple, rng) -> tuple:
        """The proposal from box state x: one ``rng.standard_normal()`` per
        coordinate, in order, the values ``standard_normal(dim)`` gives,
        and the walk built in floats."""
        normal, step = rng.standard_normal, self.step
        return tuple([xi + step * normal() for xi in x])


@dataclass(frozen=True)
class StepInfo:
    """What a single interacting move did; recorded into the trace. A move
    builds none: it returns one of the six constants below. The trace
    records two more, for a chain's first row and for its holds."""

    branch: str  # "local" | "selection" | "jump" | "init" | "hold"
    swap_accepted: bool | None = None
    fallback: bool = False


_LOCAL = StepInfo("local")
_FALLBACK = StepInfo("local", fallback=True)
# indexed by the swap coin's outcome: rejected, accepted
_JUMPS = (StepInfo("jump", False), StepInfo("jump", True))
_SELECTIONS = (StepInfo("selection", False), StepInfo("selection", True))
# what a trace row of a chain that does not move records: its first row, a hold
_INIT = StepInfo("init")
_HOLD = StepInfo("hold")
_STEP_KINDS = (_LOCAL, _FALLBACK, *_JUMPS, *_SELECTIONS, _INIT, _HOLD)


@dataclass(slots=True)
class ChainPoint:
    """A state with its ring and its log-density at every level, computed
    once when the state is proposed; moves update the record in place."""

    x: object
    ring: int
    levels: tuple


_BLOCK = 256  # uniforms read per refill


class BufferedUniforms:
    """A Generator's ``random()`` values, read a block at a time: its
    ``random(n)`` gives the floats of n scalar calls. The read-ahead advances
    the wrapped Generator, which must not be drawn from directly after."""

    __slots__ = ("_rng", "_pending")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._pending = []  # buffered uniforms, next one last

    def random(self) -> float:
        """A uniform float on [0, 1), as ``Generator.random()``."""
        pending = self._pending
        if not pending:
            pending = self._pending = self._rng.random(_BLOCK)[::-1].tolist()
        return pending.pop()


def _swap_prob(level: int, x, lx: tuple, z, lz: tuple) -> float:
    """min(1, pi_i(z) pi_{i-1}(x) / (pi_i(x) pi_{i-1}(z))) at level i, in
    log space, from x's and z's level log-densities lx and lz."""
    ratio = lz[level] + lx[level - 1] - lx[level] - lz[level - 1]
    if math.isnan(ratio):
        raise NumericalError(f"swap ratio is NaN for pair ({x!r}, {z!r})")
    return math.exp(min(0.0, ratio))


class KernelSet:
    """All transition mechanisms of one ladder, partition, proposal set,
    per-level epsilon and interaction variant (one of ``VARIANTS``)."""

    def __init__(
        self,
        ladder: DensityLadder,
        partition: RingPartition,
        proposals: Sequence,  # one proposal object per level
        epsilon: float | Sequence[float] = 1.0,
        variant: str = "selection-mutation",
    ):
        if variant not in VARIANTS:
            raise ConfigurationError(f"kernel variant must be one of {VARIANTS}, got {variant!r}")
        if len(proposals) != ladder.r:
            raise ConfigurationError(
                f"need one proposal per level: got {len(proposals)} for r={ladder.r}"
            )
        self.variant = variant
        self.ladder = ladder
        self.partition = partition
        self.proposals = tuple(proposals)
        if np.isscalar(epsilon):
            eps = [float(epsilon)] * ladder.r
        else:
            eps = [float(e) for e in epsilon]
            if len(eps) == ladder.r - 1:  # convenience: one per interacting level
                eps = [0.0] + eps
            if len(eps) != ladder.r:
                raise ConfigurationError(
                    f"epsilon must be scalar or per-level ({ladder.r} values), got {len(eps)}"
                )
        if any(not (0.0 <= e <= 1.0) for e in eps):
            raise ConfigurationError(f"epsilon values must lie in [0, 1]: {eps}")
        self.epsilons = tuple(eps)
        finite = isinstance(ladder.space, FiniteSpace)
        for i, p in enumerate(self.proposals):
            if p.space_kind != ladder.space.kind:
                raise ConfigurationError(f"level {i}: {p.kind} needs a {p.space_kind} space")
        self._logw = ladder.log_table() if finite else None
        self._rings = partition.labels() if finite else None
        self._tables = {}  # every per-model table, built on first use by _table
        # scalar finite moves read each state's (ring, level tuple); None on a box
        self._records = None
        if finite:
            self._records = [(ring, ladder.log_densities(s))
                             for s, ring in enumerate(self._rings.tolist())]

    def ring_closed(self, epsilon: float) -> bool:
        """True when the interacting move at this epsilon never leaves the
        ring of its state: the ee-jump at epsilon 1, which only jumps to
        feeder atoms of that ring. Its kernel against a feeder is then
        reducible, with no unique stationary vector."""
        return self.variant == "ee-jump" and epsilon == 1.0

    def require_level(self, level: int, interacting: bool = False) -> int:
        """`level` if it is one of the ladder's levels, 0..r-1, or with
        `interacting` one with a feeder below it, 1..r-1; else raises
        :class:`ConfigurationError`."""
        r = self.ladder.r
        if interacting and not 1 <= level < r:
            raise ConfigurationError(
                f"swaps need a level with a feeder below it (1..{r - 1}), got {level}"
            )
        if not 0 <= level < r:
            raise ConfigurationError(f"levels are 0..{r - 1}, got {level}")
        return level

    def point(self, x) -> "ChainPoint":
        """The record of in-domain state x: its ring and level log-densities.
        The record holds x as the space's state type (an int, or on a box a
        tuple of floats)."""
        x = self.ladder.space.require(x)
        levels = self._levels(x)
        return ChainPoint(x, self.partition.assign_point(x, levels), levels)

    def _levels(self, x) -> tuple:
        """The level log-densities of in-domain state x, which must be finite."""
        levels = self.ladder.log_densities(x)
        if not all(map(math.isfinite, levels)):
            raise NumericalError(f"log-density is not finite at {x!r}: {levels}")
        return levels

    # -- local Metropolis-Hastings ------------------------------------------------
    def mh_step(self, level: int, x, rng: np.random.Generator, point=None):
        """One MH transition targeting level's density; proposals are
        symmetric so acceptance is min(1, pi(y)/pi(x)). `point` is the record
        of x (built from x when omitted); an accepted move updates it. A
        level outside 0..r-1 raises before any draw."""
        if not 0 <= level < len(self.proposals):
            self.require_level(level)
        prop = self.proposals[level]
        point = point or self.point(x)
        x = point.x
        records = self._records
        if records is not None:  # finite: the proposal's record is one read
            y = prop.index(x, rng.random(), len(records))
            u = rng.random()
            ring, levels = records[y]
        else:
            y = prop.walk(x, rng)
            u = rng.random()  # MH coin drawn unconditionally, keeps stream alignment
            if not self.ladder.space.contains(y):
                return x
            levels = self._levels(y)
            ring = self.partition.assign_point(y, levels)
        log_a = levels[level] - point.levels[level]
        if log_a >= 0.0 or u < math.exp(log_a):
            point.x, point.ring, point.levels = y, ring, levels
            return y
        return x

    # -- the interacting move ---------------------------------------------------------
    def interacting_step(self, level: int, x, feeder, rng, point=None):
        """One move of the level's interacting kernel against `feeder`:
        the local move with probability 1 - epsilon, else the variant's
        interaction. It draws z uniformly from the feeder's atoms in ring(x)
        and accepts it with the swap probability; selection-mutation then
        makes one local move from the post-swap state, the ee-jump stops
        there. An empty ring falls back to the local move. Returns the new
        state and its :class:`StepInfo`; `point` is x's record, as in
        :meth:`mh_step`. A level outside 1..r-1 raises before any draw."""
        if not 0 < level < len(self.epsilons):
            self.require_level(level, interacting=True)
        eps = self.epsilons[level]
        if eps <= 0.0 or (eps < 1.0 and rng.random() >= eps):
            return self.mh_step(level, x, rng, point), _LOCAL
        point = point or self.point(x)
        if feeder.counts[point.ring] == 0:
            return self.mh_step(level, x, rng, point), _FALLBACK
        z, z_levels = feeder.draw(point.ring, rng)
        accepted = rng.random() < _swap_prob(level, point.x, point.levels, z, z_levels)
        if accepted:  # z was drawn from ring(x), so the ring stays
            point.x, point.levels = z, z_levels
        if self.variant == "ee-jump":
            return point.x, _JUMPS[accepted]
        return self.mh_step(level, point.x, rng, point), _SELECTIONS[accepted]

    # -- per-model tables and lockstep moves on finite spaces -------------------------
    def _table(self, key, build):
        """The table `key`, built by `build` on first use, on a finite space
        only; an array is handed out read-only. A build checks its level, so
        only valid levels are kept."""
        table = self._tables.get(key)
        if table is None:
            if self._logw is None:
                raise ConfigurationError("per-model tables need a finite space")
            table = self._tables[key] = build()
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
        return table

    def mh_table(self, level: int) -> np.ndarray:
        """(S, S) MH acceptances at `level`, 0..r-1: entry (x, y) is
        exp(min(0, log pi_i(y) - log pi_i(x)))."""

        def build():
            logw = self._logw[self.require_level(level)]
            return np.exp(np.minimum(0.0, logw[None, :] - logw[:, None]))

        return self._table(("mh", level), build)

    def swap_table(self, level: int) -> np.ndarray:
        """(S, S) swap acceptances at `level`, 1..r-1: entry (x, z) is
        alpha_i(x, z) = min(1, pi_i(z) pi_{i-1}(x) / (pi_i(x) pi_{i-1}(z)))."""

        def build():
            self.require_level(level, interacting=True)
            li, lf = self._logw[level], self._logw[level - 1]
            return np.exp(np.minimum(0.0, li[None, :] + lf[:, None] - li[:, None] - lf[None, :]))

        return self._table(("swap", level), build)

    def ring_layout(self) -> "RingLayout":
        """The states sorted by ring, in which lockstep feeders keep their counts."""
        return self._table("layout", lambda: RingLayout(self._rings))

    def mh_rounds_lockstep(self, level: int, x: np.ndarray, rng, out: np.ndarray) -> np.ndarray:
        """MH moves targeting `level` from the (R,) states x for the m
        rounds of the (m, R) array `out`, which receives each round's
        states and is returned. Draws ``rng.random((m, 2, R))``."""
        mh = self.mh_table(level)  # checks the space and the level before drawing
        prop = self.proposals[level]
        u = rng.random((len(out), 2, x.shape[0]))
        for u_prop, u_mh, row in zip(u[:, 0], u[:, 1], out):
            x = row[...] = _mh_lockstep(mh, prop, x, u_prop, u_mh)
        return out

    def interacting_rounds_lockstep(
        self, level: int, x: np.ndarray, feeder: np.ndarray, edges: np.ndarray, rng,
        out: np.ndarray,
    ) -> np.ndarray:
        """Interacting moves at `level` from the (R,) states x for the m
        rounds of the (m, R) array `out`, which receives each round's
        states and is returned. ``feeder[t]`` is the (S, R) count array
        that round t reads, column i replicate i's feeder measure in the
        ring-sorted cumulative form of :class:`RingLayout`, and ``edges``
        its ``RingLayout.edges``, which the caller's watch reads too. Keeps the
        semantics of `interacting_step`, including the local fallback when
        a replicate's ring holds no feeder atoms. Draws
        ``rng.random((m, 5, R))``.

        What does not depend on the chain's state is done for the whole
        block: the branch coins and each ring's feeder pick. Each round
        then gathers the pick of ring(x) and applies the swap coin, the
        proposal and the MH coin."""
        swap = self._table(("swap or none", level), lambda: np.hstack(
            (self.swap_table(level), np.zeros((len(self._rings), 1)))))
        mh = self.mh_table(level)
        prop, size = self.proposals[level], self.ladder.space.size
        reps = x.shape[0]
        u = rng.random((len(out), 5, reps))
        # a round on the local branch draws past every atom: no pick
        u_feed = np.where(u[:, 0] < self.epsilons[level], u[:, 1], 1.0)
        picks = self.ring_layout().picks(feeder, edges, u_feed)
        # replicate i's entry of ring g's picks in a round's flat (d R) row
        ring_rows = self._table(("ring rows", reps), lambda: self._rings * reps)
        columns = self._table(("columns", reps), lambda: np.arange(reps))
        jump = self.variant == "ee-jump"
        for picks_t, u_swap, u_prop, u_mh, row in zip(picks, u[:, 2], u[:, 3], u[:, 4], out):
            z = picks_t.take(ring_rows.take(x) + columns)
            # against no pick (z == S) the swap probability is 0
            accepted = u_swap < swap.take(x * (size + 1) + z)
            if jump:
                local = _mh_lockstep(mh, prop, x, u_prop, u_mh)
                x = np.where(z < size, np.where(accepted, z, x), local)
            else:
                x = _mh_lockstep(mh, prop, np.where(accepted, z, x), u_prop, u_mh)
            row[...] = x
        return out


def _mh_lockstep(mh: np.ndarray, prop, x: np.ndarray, u_prop, u_mh) -> np.ndarray:
    """MH moves from the states x under the (S, S) acceptance table `mh`,
    given proposal uniforms and MH coins."""
    size = len(mh)
    y = prop.indices(x, u_prop, size)
    return np.where(u_mh < mh.take(x * size + y), y, x)


class RingLayout:
    """The states sorted by ring, stably, so that each ring is one run of
    positions. The lockstep engine keeps a feeder's counts in this order,
    as cumulative sums down the positions of an (S, R) array whose column
    i is replicate i: a ring's atoms are then the difference of two
    entries, and the feeder draw over ring(x) a count of the entries at or
    below a threshold. The methods take (..., S, R) arrays."""

    def __init__(self, rings: np.ndarray):
        order = np.argsort(rings, kind="stable")
        size = order.size
        self.d = int(rings.max()) + 1
        self.order = order  # position -> state
        self.positions = np.argsort(order)  # state -> position
        self.ring_at = rings[order]  # position -> ring
        starts = np.searchsorted(self.ring_at, np.arange(self.d))
        self.ends = np.append(starts[1:], size) - 1  # last position of each ring
        # ring g's states, then S for "no pick", from slot starts[g] + g on
        self._slots = starts + np.arange(self.d)
        self._slot_states = np.append(np.insert(order, starts[1:], size), size)
        # (d, S): row g sums ring g's positions, in float32, exact to 2^24
        self._ring_sums = (self.ring_at == np.arange(self.d)[:, None]).astype(np.float32)
        self._position_rows = np.arange(size)[:, None]  # row j holds position j
        for table in (order, self.positions, self.ring_at, self.ends, self._slots,
                      self._slot_states, self._ring_sums, self._position_rows):
            table.flags.writeable = False

    def cumulative(self, counts: np.ndarray) -> np.ndarray:
        """(..., S, R) counts in state order as ring-sorted cumulative counts."""
        return np.cumsum(counts[..., self.order, :], axis=-2)

    @staticmethod
    def ring_totals(edges: np.ndarray, out=None) -> np.ndarray:
        """(..., d, R) atoms per ring, from the (..., d + 1, R) :meth:`edges`
        of ring-sorted cumulative counts; into `out` when given."""
        return np.subtract(edges[..., 1:, :], edges[..., :-1, :], out=out)

    def edges(self, cumulative: np.ndarray) -> np.ndarray:
        """(..., d + 1, R): row g the cumulative count below ring g, row d
        the total."""
        *lead, size, reps = cumulative.shape
        edges = np.empty((*lead, self.d + 1, reps), dtype=cumulative.dtype)
        edges[..., 0, :] = 0
        # the indices are valid, and only a mode other than "raise" writes
        # to `out` without a buffer
        np.take(cumulative, self.ends, axis=-2, out=edges[..., 1:, :], mode="clip")
        return edges

    def atoms(self, states: np.ndarray) -> np.ndarray:
        """(..., S, R) cumulative counts of one atom per replicate at the
        (..., R) `states`."""
        return self.positions.take(states)[..., None, :] <= self._position_rows

    def picks(self, cumulative: np.ndarray, edges: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per ring, the feeder draws of (m, R) rounds from their uniforms u.

        `cumulative` is (m, S, R) ring-sorted cumulative counts and `edges`
        their (m, d + 1, R) :meth:`edges`. Of the n
        atoms that ring g holds before a round, the draw picks the atom
        ``int(n u)`` in state order: the first position j of the ring whose
        cumulative count exceeds ``before + n u``, with ``before`` the
        count below the ring, or in integers the one past every j with
        ``cum_j <= before + floor(n u)``. Returns an (m, d R) array whose
        entry ``g R + i`` is ring g's pick in replicate i, or S for no pick:
        where the ring is empty or u is 1, which passes every atom."""
        m, size, reps = cumulative.shape
        before = edges[:, :-1]
        below = before + (u[:, None] * (edges[:, 1:] - before)).astype(edges.dtype)
        passed = cumulative <= below.take(self.ring_at, axis=1)
        # positions first, so that the sums per ring are one matrix product
        by_position = passed.transpose(1, 0, 2).astype(np.float32, order="C")
        counts = (self._ring_sums @ by_position.reshape(size, -1)).reshape(self.d, m, reps)
        slots = np.empty((m, self.d, reps), dtype=np.intp)
        # the counts are whole floats, so the cast keeps them
        np.add(counts.transpose(1, 0, 2), self._slots[:, None], out=slots, casting="unsafe")
        return self._slot_states.take(slots).reshape(m, -1)
