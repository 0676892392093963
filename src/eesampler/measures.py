"""Running empirical measures, the ring-mass watch of both engines, and TV distance.

An :class:`EmpiricalMeasure` stores every atom a chain has visited, grouped
by energy ring at insertion time, with multiplicity (no weight collapsing):
the feeding chain's full realized history is exactly what the interaction
kernel conditions on, and uniform draws stay O(1). Each atom carries weight
1/(total count). A chain inserts an atom from its record, with the record's
ring and level log-densities; the measure keeps the levels with the atom,
so a feeder draw hands them to the kernel. It never evaluates a state, so
it needs only the number of rings d.
The conditional measure mu_x of the interaction kernel is the ring of x, and
``draw(ring, rng)`` samples it.

:class:`StabilityMonitor` is the one watch of the stability assumption
(every feeder ring keeps mass at least theta) for both engines. One
``check`` looks at every watched feeder over a whole block of rounds, in
round order: the ring counts after each round of a scalar measure, or of
every replicate of a lockstep feeder.

``EmpiricalMeasure.snapshot`` is the prefix view through which the scalar
engine's consumer reads its feeder during a block: the feeder has already
made the block's moves, and the engine reveals its atoms to the view one
round at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StabilityError


class EmpiricalMeasure:
    """Uniform measure on all states inserted so far, grouped by ring."""

    def __init__(self, d: int):
        self.d = d  # number of rings
        self._ring_atoms: list[list] = [[] for _ in range(d)]
        self._ring_levels: list[list] = [[] for _ in range(d)]
        self.counts: list[int] = [0] * d  # atoms per ring
        self._frozen = False

    # -- update ------------------------------------------------------------
    def insert(self, x, ring: int, levels: tuple) -> None:
        """Append atom x to `ring`, with its level log-densities, from a
        chain record; equivalent to the convex update
        S_n = S_{n-1} + 1/(n+1) [delta_x - S_{n-1}]."""
        if self._frozen:
            raise StabilityError("cannot insert into a measure snapshot")
        self._ring_atoms[ring].append(x)
        self._ring_levels[ring].append(levels)
        self.counts[ring] += 1

    # -- mass queries --------------------------------------------------------
    def masses(self) -> np.ndarray:
        total = sum(self.counts)
        if total == 0:
            return np.zeros(self.d)
        return np.array(self.counts, dtype=float) / total

    # -- sampling ----------------------------------------------------------------
    def draw(self, ring: int, rng: np.random.Generator):
        """Uniform draw (with multiplicity) from the stored atoms of a ring:
        (atom, its stored level log-densities). One uniform u picks
        atom ``int(n * u)`` of the ring's n atoms, in insertion order."""
        n = self.counts[ring]
        if n == 0:
            raise StabilityError(f"ring {ring} holds no atoms")
        i = int(n * rng.random())
        return self._ring_atoms[ring][i], self._ring_levels[ring][i]

    def snapshot(self) -> "EmpiricalMeasure":
        """Prefix view of the measure as it stands now: an EmpiricalMeasure
        sharing the atom lists, with counts of its own, that raises on
        insert. Later inserts stay hidden from draws. A ring's atoms keep
        insertion order, so raising the view's count of the ring of the
        measure's next atom reveals exactly that atom: the scalar engine
        replays a feeder's block of inserts this way, one per round."""
        snap = EmpiricalMeasure.__new__(EmpiricalMeasure)
        snap.d = self.d
        snap._ring_atoms = self._ring_atoms
        snap._ring_levels = self._ring_levels
        snap.counts = list(self.counts)
        snap._frozen = True
        return snap


@dataclass
class StabilityMonitor:
    """Watches feeder ring masses against the stability threshold theta.

    The threshold is an assumption about the run, not an algorithmic step,
    so by default rings below it are counted and reported, never fatal;
    with ``abort`` the first check that finds one raises StabilityError.
    """

    theta: float
    abort: bool = False
    violations: int = field(default=0, init=False)  # rings found below theta, over every check
    min_mass_seen: float = field(default=np.inf, init=False)

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ConfigurationError(f"theta must lie in (0, 1], got {self.theta}")

    def check(self, counts, totals, first_round: int, chains) -> list[tuple]:
        """Watch feeders' ring counts over a block of consecutive rounds.

        ``counts[t, j]`` holds the ring counts of feeder ``chains[j]`` after
        round ``first_round + t``: d counts (a scalar measure), or an (R, d)
        array with one row per replicate (a lockstep feeder). The (m, c)
        ``totals`` are the feeders' positive atom counts. Division by the
        atom count keeps the order of the counts, so a round's smallest
        count over its total is the float of its smallest mass. Returns the
        ``(round, chain, ring)`` or ``(round, chain, replicate, ring)``
        index of every ring below theta, in that order; under abort it
        raises StabilityError naming the first of them instead.
        """
        counts = np.asarray(counts)
        m, c = counts.shape[:2]
        totals = np.asarray(totals)
        lowest = min((counts.min(axis=tuple(range(2, counts.ndim))) / totals).ravel().tolist())
        self.min_mass_seen = min(self.min_mass_seen, lowest)
        if lowest >= self.theta:
            return []
        masses = counts / totals.reshape(m, c, *[1] * (counts.ndim - 2))
        low = np.argwhere(masses < self.theta)
        self.violations += len(low)
        if self.abort:
            t, j, *rest = low[0].tolist()
            where = f"replicate {rest[0]} " if len(rest) == 2 else ""
            raise StabilityError(
                f"round {first_round + t}: {where}chain {chains[j]} ring {rest[-1]} "
                f"mass {masses[tuple(low[0])]:.4f} below theta={self.theta}"
            )
        return [(first_round + t, chains[j], *rest) for t, j, *rest in low.tolist()]


def tv_distance(mu, xi):
    """Total variation distance between two probability vectors, or between
    the rows of two (B, S) stacks of them (an array of B distances).

    Computed as 0.5 * sum |mu - xi|, which equals the sup-over-sets
    definition on enumerated spaces; always in [0, 1]. Raises ValueError
    unless both are probability vectors with finite entries.
    """
    p = np.asarray(mu, dtype=float)
    q = np.asarray(xi, dtype=float)
    if p.shape != q.shape or p.ndim not in (1, 2):
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    for name, v in (("mu", p), ("xi", q)):
        sums = v.sum(axis=-1)  # non-finite if any entry is
        bad = np.any(v < -1e-12, axis=-1) | ~(np.abs(sums - 1.0) <= 1e-9)
        if bad.any():
            raise ValueError(
                f"{name} is not a probability vector (sum={sums.flat[np.argmax(bad)]!r})"
            )
    dist = 0.5 * np.abs(p - q).sum(axis=-1)
    return float(dist) if p.ndim == 1 else dist
