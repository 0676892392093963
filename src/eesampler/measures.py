"""Running empirical measures, the ring-mass watch of both engines, and TV distance.

An :class:`EmpiricalMeasure` stores every atom a chain has visited, grouped
by energy ring at insertion time, with multiplicity (no weight collapsing):
the feeding chain's full realized history is exactly what the interaction
kernel conditions on, and uniform draws stay O(1). Each atom carries weight
1/(total count). An atom inserted from a chain's record also keeps the
record's level log-densities, so a feeder draw hands them to the kernel.
The conditional measure mu_x of the interaction kernel is the ring of x, and
``draw(ring, rng)`` samples it.

:class:`StabilityMonitor` is the one watch of the stability assumption
(every feeder ring keeps mass at least theta) for both engines: it reads the
ring counts of a scalar measure and the per-replicate count arrays of the
lockstep engine alike.

``EmpiricalMeasure.snapshot`` (a frozen prefix view) is taken by no engine;
it stays only as a target of the benchmark's span tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StabilityError
from .state_space import RingPartition


class EmpiricalMeasure:
    """Uniform measure on all states inserted so far, grouped by ring."""

    def __init__(self, partition: RingPartition):
        self.partition = partition
        self._ring_atoms: list[list] = [[] for _ in range(partition.d)]
        self._ring_levels: list[list] = [[] for _ in range(partition.d)]
        self.counts: list[int] = [0] * partition.d  # atoms per ring
        self.total = 0
        self._frozen = False

    # -- update ------------------------------------------------------------
    def insert(self, x, ring: int | None = None, levels: tuple | None = None) -> int:
        """Append one atom and return the ring it was filed under; equivalent
        to the convex update S_n = S_{n-1} + 1/(n+1) [delta_x - S_{n-1}].

        A chain passes its record's ring and level log-densities; the levels
        are stored with the atom."""
        if self._frozen:
            raise StabilityError("cannot insert into a measure snapshot")
        if ring is None:
            ring = self.partition.assign(x)
        self._ring_atoms[ring].append(x)
        self._ring_levels[ring].append(levels)
        self.counts[ring] += 1
        self.total += 1
        return ring

    # -- mass queries --------------------------------------------------------
    @property
    def d(self) -> int:
        return self.partition.d

    def ring_count(self, ring: int) -> int:
        return self.counts[ring]

    def masses(self) -> np.ndarray:
        if self.total == 0:
            return np.zeros(self.d)
        return np.array(self.counts, dtype=float) / self.total

    # -- sampling ----------------------------------------------------------------
    def draw(self, ring: int, rng: np.random.Generator):
        """Uniform draw (with multiplicity) from the stored atoms of a ring:
        (atom, its stored level log-densities or None). One uniform u picks
        atom ``int(n * u)`` of the ring's n atoms, in insertion order."""
        n = self.counts[ring]
        if n == 0:
            raise StabilityError(f"ring {ring} holds no atoms")
        i = int(n * rng.random())
        return self._ring_atoms[ring][i], self._ring_levels[ring][i]

    def snapshot(self) -> "EmpiricalMeasure":
        """Immutable prefix view of the measure as it stands now: an
        EmpiricalMeasure sharing the atom lists, with frozen counts, that
        raises on insert."""
        snap = EmpiricalMeasure.__new__(EmpiricalMeasure)
        snap.partition = self.partition
        snap._ring_atoms = self._ring_atoms
        snap._ring_levels = self._ring_levels
        snap.counts = list(self.counts)
        snap.total = self.total
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
    violations: int = 0  # rings found below theta, over every check
    min_mass_seen: float = np.inf

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ConfigurationError(f"theta must lie in (0, 1], got {self.theta}")

    def check(self, counts, total: int, lowest: int, step: int, chain: int) -> list[tuple]:
        """Watch one feeder's ring counts over its ``total`` > 0 atoms.

        ``counts`` is a list of d ring counts (a scalar measure) or an
        (R, d) array with one row per replicate (a lockstep feeder), and
        ``lowest`` is its smallest entry. Division by the positive atom
        count keeps the order of the counts, so ``lowest / total`` is the
        float of the smallest mass; the caller's ``min`` of a short list
        costs far less than numpy's. Returns the ``(ring,)`` or
        ``(replicate, ring)`` index of every ring below theta, in row-major
        order, or raises StabilityError on the first of them under abort.
        """
        lo = lowest / total
        if lo < self.min_mass_seen:
            self.min_mass_seen = lo
        if lo >= self.theta:
            return []
        masses = np.asarray(counts) / total
        low = np.argwhere(masses < self.theta)
        self.violations += len(low)
        if self.abort:
            first = tuple(int(i) for i in low[0])
            where = f"replicate {first[0]} " if len(first) == 2 else ""
            raise StabilityError(
                f"round {step}: {where}chain {chain} ring {first[-1]} "
                f"mass {masses[first]:.4f} below theta={self.theta}"
            )
        return [tuple(index) for index in low.tolist()]


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
