"""State spaces, target ladders, and energy-ring partitions.

Two state-space flavours are supported:

* :class:`FiniteSpace` -- an enumerated space with states ``0 .. size-1``.
  Densities are with respect to counting measure and everything downstream
  (including the exact oracle) can be computed by enumeration.
* :class:`BoxSpace` -- a bounded box in ``R^k``. Densities are with respect
  to Lebesgue measure on the box; only the simulation path supports it. A
  box state is a tuple of k Python floats, and the base, energy and level
  callables of a box ladder or partition receive such a tuple.

A :class:`DensityLadder` holds ``r >= 1`` unnormalized log-densities over one
space, ordered feeder-to-target: level ``r-1`` (0-based) is the target.
A :class:`RingPartition` splits the space into ``d`` energy rings, either by
explicit per-state labels (finite spaces) or by thresholding a user-supplied
energy function (either space), in the style of the original equi-energy
construction. Ring indices are 0-based throughout.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DomainError

State = Union[int, tuple]
LogDensity = Callable[[State], float]


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
    target. On finite spaces each level is tabulated at construction into a
    log-weight vector and every entry must be finite, so all acceptance
    ratios downstream are well-defined.

    Parameters
    ----------
    space : FiniteSpace or BoxSpace
    levels : sequence of callables or, on finite spaces, array-likes
        Unnormalized log-densities. Array-likes are interpreted as per-state
        log-weights.
    """

    def __init__(self, space: Space, levels: Sequence):
        if len(levels) < 1:
            raise ConfigurationError("ladder needs at least one level")
        self.space = space
        self.r = len(levels)
        if isinstance(space, FiniteSpace):
            table = np.empty((self.r, space.size), dtype=float)
            for i, lev in enumerate(levels):
                if callable(lev):
                    row = np.array([float(lev(int(s))) for s in range(space.size)])
                else:
                    row = np.asarray(lev, dtype=float)
                    if row.shape != (space.size,):
                        raise ConfigurationError(
                            f"level {i}: expected {space.size} log-weights, got shape {row.shape}"
                        )
                if not np.all(np.isfinite(row)):
                    raise ConfigurationError(
                        f"level {i}: log-density must be finite on every state"
                    )
                table[i] = row
            self._table = table
            self._rows = [tuple(col) for col in table.T.tolist()]
            self._fns = None
        else:
            for i, lev in enumerate(levels):
                if not callable(lev):
                    raise ConfigurationError(
                        f"level {i}: box-space ladders need callable log-densities"
                    )
            self._table = None
            self._rows = None
            self._fns = tuple(levels)
        self._tempered = None  # (base, temperatures), set by tempered_ladder

    @property
    def is_finite(self) -> bool:
        return self._table is not None

    def log_density(self, level: int, x) -> float:
        """Unnormalized log-density of `level` at in-domain state x."""
        if self._table is not None:
            return float(self._table[level, int(x)])
        return float(self._fns[level](x))

    def log_densities(self, x) -> tuple:
        """Log-densities of every level at in-domain state x: a tuple of r
        floats, entry i equal to ``log_density(i, x)``. A tempered box ladder
        evaluates its base once for all levels."""
        if self._rows is not None:
            return self._rows[int(x)]
        if self._tempered is not None:
            base, temps = self._tempered
            h = base(x)
            return tuple([float(h / t) for t in temps])
        return tuple(float(f(x)) for f in self._fns)

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


def tempered_ladder(space: Space, base_log_density, temperatures: Sequence[float]) -> DensityLadder:
    """Build a ladder with level i proportional to base^(1/T_i).

    Temperatures must be strictly positive, non-increasing, and end at 1 so
    the last level is the target itself. On a box space
    :meth:`DensityLadder.log_densities` calls the base once for all levels.
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

    if isinstance(space, FiniteSpace) and not callable(base_log_density):
        base = np.asarray(base_log_density, dtype=float)
        levels = [base / t for t in temps]
    elif callable(base_log_density):
        levels = [lambda x, _t=t: base_log_density(x) / _t for t in temps]
    else:
        raise ConfigurationError("base log-density must be callable on box spaces")
    ladder = DensityLadder(space, levels)
    if not isinstance(space, FiniteSpace):
        ladder._tempered = (base_log_density, tuple(temps))
    return ladder


class RingPartition:
    """Partition of the state space into d energy rings.

    Rings come from an explicit label per state (finite spaces) or from the
    level sets ``ring_j = {x : c_j <= H(x) < c_{j+1}}`` of an energy function
    H with interior thresholds c_1 < ... < c_{d-1} (c_0 = -inf, c_d = +inf).
    On a finite space either kind is tabulated per state at construction, so
    ``labels()`` exists and ``assign`` reads the table.
    ``assign`` is total and deterministic and returns an index in 0..d-1.

    ``energy_level`` marks an energy that is minus that ladder level's
    log-density, which :meth:`assign_point` reads from a point's levels.
    """

    def __init__(self, space: Space, *, labels=None, energy=None, thresholds=None,
                 energy_level: int | None = None):
        self.space = space
        self.energy_level = energy_level
        if labels is not None:
            if not isinstance(space, FiniteSpace):
                raise ConfigurationError("label partitions require a finite space")
            raw = np.asarray(labels)
            if raw.shape != (space.size,):
                raise ConfigurationError(
                    f"expected one label per state ({space.size}), got shape {raw.shape}"
                )
            uniq = np.unique(raw)
            self.d = uniq.size
            # canonicalize arbitrary labels to 0..d-1 in sorted label order
            remap = {lab: i for i, lab in enumerate(uniq.tolist())}
            self._labels = np.array([remap[v] for v in raw.tolist()], dtype=np.intp)
            self._energy = None
            self._thresholds = None
        elif energy is not None:
            if not callable(energy):
                raise ConfigurationError("energy must be callable")
            th = np.asarray([] if thresholds is None else thresholds, dtype=float)
            if th.ndim != 1 or (th.size > 1 and not np.all(np.diff(th) > 0)):
                raise ConfigurationError("thresholds must be strictly increasing")
            if not np.all(np.isfinite(th)):
                raise ConfigurationError("thresholds must be finite")
            self.d = th.size + 1
            self._labels = None
            self._energy = energy
            self._thresholds = th
            self._threshold_list = th.tolist()
            if isinstance(space, FiniteSpace):
                self._labels = np.array(
                    [self.assign(s) for s in range(space.size)], dtype=np.intp
                )
        else:
            raise ConfigurationError("provide either labels or an energy function")

    def assign(self, x) -> int:
        """Ring index of in-domain state x (0-based)."""
        if self._labels is not None:
            return int(self._labels[self.space.require(x)])
        x = self.space.require(x)
        h = float(self._energy(x))
        return int(np.searchsorted(self._thresholds, h, side="right"))

    def assign_point(self, x, levels: tuple) -> int:
        """Ring of in-domain state x whose level log-densities are `levels`
        (as from :meth:`DensityLadder.log_densities`); equal to ``assign(x)``
        but without checking x again."""
        if self._labels is not None:
            return int(self._labels[x])
        if self.energy_level is not None:
            # bisect_right is searchsorted(side="right"), NaN included
            return bisect_right(self._threshold_list, -levels[self.energy_level])
        return self.assign(x)

    def labels(self) -> np.ndarray:
        """Per-state ring indices; finite spaces only."""
        if self._labels is None:
            raise ConfigurationError("labels() is only defined on finite spaces")
        return self._labels.copy()

    def __repr__(self):
        return f"RingPartition(d={self.d})"


def ladder_masses(
    ladder: DensityLadder,
    partition: RingPartition,
    grid: np.ndarray | None = None,
) -> np.ndarray:
    """(r, d) matrix of ring masses pi_i(E_j), each row summing to 1.

    Exact summation on finite spaces; on box spaces a quadrature grid of
    points must be supplied and masses are the normalized sums of the density
    over grid points per ring. Any zero entry means a ring is invisible to
    some level, which breaks the standing positivity assumption, so it raises
    :class:`ConfigurationError`.
    """
    r, d = ladder.r, partition.d
    out = np.zeros((r, d))
    if ladder.is_finite:
        dens = ladder.density_table()
        labels = partition.labels()
        for j in range(d):
            out[:, j] = dens[:, labels == j].sum(axis=1)
    else:
        if grid is None:
            raise ConfigurationError("box-space ladder masses need a quadrature grid")
        pts = np.asarray(grid, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        pts = [tuple(p) for p in pts.tolist()]
        labels = np.array([partition.assign(p) for p in pts])
        for i in range(r):
            logw = np.array([ladder.log_density(i, p) for p in pts])
            w = np.exp(logw - logw.max())
            w /= w.sum()
            for j in range(d):
                out[i, j] = w[labels == j].sum()
    if np.any(out <= 0.0):
        bad = np.argwhere(out <= 0.0)[0]
        raise ConfigurationError(
            f"ring {bad[1]} has zero mass under ladder level {bad[0]}; "
            "every ring must be charged by every level"
        )
    return out
