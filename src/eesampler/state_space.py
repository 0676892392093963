"""State spaces, target ladders, and energy-ring partitions.

Two state-space flavours are supported:

* :class:`FiniteSpace` -- an enumerated space with states ``0 .. size-1``.
  Densities are with respect to counting measure and everything downstream
  (including the exact oracle) can be computed by enumeration.
* :class:`BoxSpace` -- a bounded box in ``R^k``. Densities are with respect
  to Lebesgue measure on the box; only the simulation path supports it. A
  box state is a tuple of k Python floats, and the base callable of a box
  ladder receives such a tuple.

A :class:`DensityLadder` holds ``r >= 1`` unnormalized log-densities over one
space, ordered feeder-to-target: level ``r-1`` (0-based) is the target. On a
finite space it is a table of per-state log-weights; on a box it is a
tempered base ``base^(1/T_i)``, built by :func:`tempered_ladder`.
A :class:`RingPartition` splits the space into ``d`` energy rings, either by
explicit per-state labels (finite spaces) or, in the style of the original
equi-energy construction, as bands of the target's energy ``-log pi_target``
between thresholds (either space). Ring indices are 0-based throughout.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, DomainError


class FiniteSpace:
    """Enumerated state space {0, ..., size-1}."""

    kind = "finite"

    def __init__(self, size: int):
        size = int(size)
        if size < 2:
            raise ConfigurationError(f"finite space needs at least 2 states, got {size}")
        self.size = size

    def contains(self, x) -> bool:
        return isinstance(x, (int, np.integer)) and 0 <= int(x) < self.size

    def require(self, x) -> int:
        if not self.contains(x):
            raise DomainError(f"state {x!r} not in finite space of size {self.size}")
        return int(x)

    def __repr__(self):
        return f"FiniteSpace(size={self.size})"


class BoxSpace:
    """Axis-aligned box [lower_i, upper_i] in R^k.

    Its points are tuples of k Python floats: :meth:`require` returns one,
    and the kernels, ladders, partitions and test functions pass them on
    as they are, so a chain-step does its arithmetic in plain floats.
    """

    kind = "box"

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ConfigurationError("lower/upper bounds must be 1-d and of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigurationError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ConfigurationError("each lower bound must be strictly below its upper bound")
        self.lower = lo
        self.upper = hi
        self.dim = lo.size
        self._bounds = tuple(zip(lo.tolist(), hi.tolist()))

    def contains(self, x) -> bool:
        """True when x is a point of the box: a tuple of floats, or any other
        flat sequence of numbers, of length dim with every coordinate within
        its bounds (NaN is not)."""
        if type(x) is not tuple:
            x = np.asarray(x, dtype=float)
            if x.ndim != 1:
                return False
            x = x.tolist()
        if len(x) != self.dim:
            return False
        for v, (lo, hi) in zip(x, self._bounds):
            if not lo <= v <= hi:
                return False
        return True

    def require(self, x) -> tuple:
        """x as a point of the box, a tuple of floats; raises DomainError
        when x is outside it."""
        if not self.contains(x):
            raise DomainError(f"state {x!r} outside box {self.lower}..{self.upper}")
        return tuple(map(float, x))

    def __repr__(self):
        return f"BoxSpace(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


Space = Union[FiniteSpace, BoxSpace]


class DensityLadder:
    """Ladder of r unnormalized log-densities over a shared space.

    Levels are 0-based and ordered feeder-to-target: level ``r-1`` is the
    target. This constructor tabulates a finite-space ladder, one
    log-weight row per level, and every entry must be finite, so all
    acceptance ratios downstream are well-defined. A box ladder is a
    tempered base; :func:`tempered_ladder` builds it.

    Parameters
    ----------
    space : FiniteSpace
    levels : sequence of array-likes
        Per-state unnormalized log-weights, one row per level.
    """

    def __init__(self, space: FiniteSpace, levels: Sequence):
        if not isinstance(space, FiniteSpace):
            raise ConfigurationError("a box ladder is a tempered base; see tempered_ladder")
        if len(levels) < 1:
            raise ConfigurationError("ladder needs at least one level")
        self.space = space
        self.r = len(levels)
        table = np.empty((self.r, space.size), dtype=float)
        for i, lev in enumerate(levels):
            row = np.asarray(lev, dtype=float)
            if row.shape != (space.size,):
                raise ConfigurationError(
                    f"level {i}: expected {space.size} log-weights, got shape {row.shape}"
                )
            if not np.all(np.isfinite(row)):
                raise ConfigurationError(f"level {i}: log-density must be finite on every state")
            table[i] = row
        self._table = table
        self._rows = [tuple(col) for col in table.T.tolist()]

    def log_density(self, level: int, x) -> float:
        """Unnormalized log-density of `level` at in-domain state x."""
        return self.log_densities(x)[level]

    def log_densities(self, x) -> tuple:
        """Log-densities of every level at in-domain state x: a tuple of r
        floats, entry i the log-density of level i."""
        return self._rows[int(x)]

    def log_table(self) -> np.ndarray:
        """(r, S) log-weight table; finite spaces only."""
        if self._table is None:
            raise ConfigurationError("log_table is only defined on finite spaces")
        return self._table.copy()

    def density_table(self) -> np.ndarray:
        """(r, S) table of normalized densities; finite spaces only."""
        if self._table is None:
            raise ConfigurationError("density_table is only defined on finite spaces")
        w = np.exp(self._table - self._table.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)


class _TemperedBoxLadder(DensityLadder):
    """Levels base(x) / T_i on a box: one base call gives every level."""

    def __init__(self, space: BoxSpace, base, temperatures: tuple):
        self.space = space
        self.r = len(temperatures)
        self._table = None
        self._base = base
        self._temperatures = temperatures

    def log_densities(self, x) -> tuple:
        h = self._base(x)
        return tuple([float(h / t) for t in self._temperatures])


def tempered_ladder(space: Space, base_log_density, temperatures: Sequence[float]) -> DensityLadder:
    """Build a ladder with level i proportional to base^(1/T_i).

    Temperatures must be strictly positive, non-increasing, and end at 1 so
    the last level is the target itself. On a finite space the base is a
    per-state log-weight vector; on a box it is a callable of a point, which
    :meth:`DensityLadder.log_densities` calls once for all levels.
    """
    temps = [float(t) for t in temperatures]
    if not temps:
        raise ConfigurationError("need at least one temperature")
    if any(t <= 0 for t in temps):
        raise ConfigurationError(f"temperatures must be strictly positive: {temps}")
    if any(a < b for a, b in zip(temps, temps[1:])):
        raise ConfigurationError(f"temperatures must be non-increasing: {temps}")
    if temps[-1] != 1.0:
        raise ConfigurationError(f"last temperature must be 1, got {temps[-1]}")
    if isinstance(space, FiniteSpace):
        base = np.asarray(base_log_density, dtype=float)
        return DensityLadder(space, [base / t for t in temps])
    if not callable(base_log_density):
        raise ConfigurationError("base log-density must be callable on box spaces")
    return _TemperedBoxLadder(space, base_log_density, tuple(temps))


class RingPartition:
    """Partition of the state space into d energy rings.

    Rings come from an explicit label per state (finite spaces) or, given
    the ladder, from the bands ``ring_j = {x : c_j <= H(x) < c_{j+1}}`` of
    the target's energy ``H = -log pi_target`` (the ladder's last level),
    with interior thresholds c_1 < ... < c_{d-1} (c_0 = -inf, c_d = +inf).
    A NaN energy falls in the last ring. On a finite space either kind is
    tabulated per state at construction, so ``labels()`` exists and
    ``assign`` reads the table. ``assign`` is total and deterministic and
    returns an index in 0..d-1.
    """

    def __init__(self, space: Space, *, labels=None, ladder: DensityLadder | None = None,
                 thresholds=None):
        self.space = space
        self._ladder = ladder
        if labels is not None:
            if not isinstance(space, FiniteSpace):
                raise ConfigurationError("label partitions require a finite space")
            raw = np.asarray(labels)
            if raw.shape != (space.size,):
                raise ConfigurationError(
                    f"expected one label per state ({space.size}), got shape {raw.shape}"
                )
            # canonicalize arbitrary labels to 0..d-1 in sorted label order;
            # sorted(set()) rather than np.unique, which imports numpy.ma
            uniq = sorted(set(raw.tolist()))
            self.d = len(uniq)
            remap = {lab: i for i, lab in enumerate(uniq)}
            self._labels = np.array([remap[v] for v in raw.tolist()], dtype=np.intp)
        elif ladder is not None:
            if ladder.space is not space:
                raise ConfigurationError("the ladder of a threshold partition must share its space")
            th = np.asarray([] if thresholds is None else thresholds, dtype=float)
            if th.ndim != 1 or (th.size > 1 and not np.all(np.diff(th) > 0)):
                raise ConfigurationError("thresholds must be strictly increasing")
            if not np.all(np.isfinite(th)):
                raise ConfigurationError("thresholds must be finite")
            self.d = th.size + 1
            self._thresholds = th.tolist()
            self._labels = None
            if isinstance(space, FiniteSpace):
                self._labels = np.array(
                    [self.assign_point(s, ladder.log_densities(s)) for s in range(space.size)],
                    dtype=np.intp,
                )
        else:
            raise ConfigurationError("provide either labels or a ladder with thresholds")

    def assign(self, x) -> int:
        """Ring index of in-domain state x (0-based)."""
        x = self.space.require(x)
        if self._labels is not None:
            return int(self._labels[x])
        return self.assign_point(x, self._ladder.log_densities(x))

    def assign_point(self, x, levels: tuple) -> int:
        """Ring of in-domain state x whose level log-densities are `levels`
        (as from :meth:`DensityLadder.log_densities`); equal to ``assign(x)``
        but without checking x again."""
        if self._labels is not None:
            return int(self._labels[x])
        # bisect_right is searchsorted(side="right"), NaN included
        return bisect_right(self._thresholds, -levels[-1])

    def labels(self) -> np.ndarray:
        """Per-state ring indices; finite spaces only."""
        if self._labels is None:
            raise ConfigurationError("labels() is only defined on finite spaces")
        return self._labels.copy()

    def __repr__(self):
        return f"RingPartition(d={self.d})"


def ladder_masses(ladder: DensityLadder, partition: RingPartition) -> np.ndarray:
    """(r, d) matrix of ring masses pi_i(E_j), each row summing to 1, summed
    exactly over a finite space. Any zero entry means a ring is invisible
    to some level, which breaks the standing positivity assumption, so it
    raises :class:`ConfigurationError`.
    """
    dens = ladder.density_table()
    labels = partition.labels()
    out = np.zeros((ladder.r, partition.d))
    for j in range(partition.d):
        out[:, j] = dens[:, labels == j].sum(axis=1)
    if np.any(out <= 0.0):
        bad = np.argwhere(out <= 0.0)[0]
        raise ConfigurationError(
            f"ring {bad[1]} has zero mass under ladder level {bad[0]}; "
            "every ring must be charged by every level"
        )
    return out
