"""Transition mechanisms: local MH moves, ring swaps, and interaction steps.

A :class:`KernelSet` bundles a ladder, a ring partition, one proposal per
level, and the per-level mixture weight epsilon, and exposes every move the
sampler makes:

* ``mh_step``        -- one Metropolis-Hastings move targeting level i
* ``swap_step``      -- exchange attempt between a state and a feeder draw,
                        accepted with min(1, pi_i(y) pi_{i-1}(x) / (pi_i(x) pi_{i-1}(y)))
* ``selection_step`` -- feeder draw, swap attempt, then one local move from
                        the first post-swap coordinate (selection/mutation)
* ``nonlinear_step`` -- the epsilon-mixture of local and selection moves
* ``ee_jump_step``   -- the original equi-energy jump: feeder draw accepted
                        by the swap ratio, with no trailing local move

Randomness contract: each random decision of a step is one uniform u from
``rng.random()``, in the fixed order (branch coin, feeder draw, swap coin,
proposal, MH coin), so runs are bit-reproducible per seed. An index below n
is ``int(n * u)``: the uniform proposal takes state ``int(S * u)`` and the
feeder draw atom ``int(n * u)`` of the n atoms in x's ring. Degenerate
mixtures skip the branch coin: epsilon == 0 always takes the local branch
and epsilon == 1 always takes the interaction branch, without consuming a
draw. Finite moves take a numpy Generator or a :class:`BufferedUniforms`,
its values at a fraction of the call cost. On a box a state is a tuple of
Python floats, which the ladder's and the partition's callables receive as
it is; the Gaussian walk draws
``rng.standard_normal()`` once per coordinate, in order, the values
``standard_normal(dim)`` gives, and builds the proposal in floats.

If the feeder measure holds no atoms in the current state's ring, the
interaction branch falls back to the local kernel and flags the event; the
caller logs it as a stability fallback.

Chain records: each scalar move reads x's ring and level log-densities from
its :class:`ChainPoint` (built from x when not passed) and writes the new
state's into it; a proposal costs one ``DensityLadder.log_densities`` call
and a feeder atom brings the levels its measure stored.

Lockstep steps (``mh_step_lockstep``, ``interacting_step_lockstep``) make
the same moves on finite spaces for R replicates at once: states are an
(R,) int array and each replicate's feeder is a row of an (R, S) count
array, so the uniform draw with multiplicity from ring(x) becomes a
categorical draw over the ring's states weighted by their counts. They
draw whole (R,)-vectors in a fixed order, whatever branch each replicate
takes: the MH step draws a (2, R) block of uniforms on [0, 1), rows
(proposal, MH coin); the interacting step a (5, R) block, rows (branch
coin, feeder draw, swap coin, proposal, MH coin), for both variants and
every epsilon. The branch takes the interaction when its coin is below
epsilon, so epsilon 0 and 1 need no special case. A uniform proposal maps
its uniform u to state floor(S u), uniform on 0..S-1 up to a bias below
S 2^-53; a neighbour proposal holds for u < 1/2 and steps up for u < 3/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, NumericalError
from .state_space import DensityLadder, FiniteSpace, RingPartition


@dataclass(frozen=True)
class UniformProposal:
    """Independent uniform proposal over a finite space (all S states)."""

    kind = "uniform"


@dataclass(frozen=True)
class NeighborProposal:
    """Lazy symmetric walk on the cycle 0..S-1: half the proposal mass stays
    put, a quarter goes to each neighbor. The holding mass keeps every level
    aperiodic whatever the target."""

    kind = "neighbor"


@dataclass(frozen=True)
class GaussianWalkProposal:
    """Isotropic Gaussian random-walk proposal on a box; out-of-box rejects."""

    step: float
    kind = "gaussian_walk"

    def __post_init__(self):
        if not (self.step > 0):
            raise ConfigurationError(f"gaussian walk step must be positive, got {self.step}")


Proposal = Union[UniformProposal, NeighborProposal, GaussianWalkProposal]


@dataclass
class StepInfo:
    """What a single interacting move did; recorded into the trace."""

    branch: str  # "local" | "selection" | "jump"
    swap_accepted: bool | None = None
    fallback: bool = False


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


def _finite(levels: tuple, level: int, x) -> float:
    """levels[level], which must be finite."""
    v = levels[level]
    if not math.isfinite(v):
        raise NumericalError(f"log-density at level {level} is not finite at {x!r}")
    return v


class KernelSet:
    """All transition mechanisms for one ladder/partition/proposal setup."""

    def __init__(
        self,
        ladder: DensityLadder,
        partition: RingPartition,
        proposals: Sequence[Proposal],
        epsilon: float | Sequence[float] = 1.0,
    ):
        if len(proposals) != ladder.r:
            raise ConfigurationError(
                f"need one proposal per level: got {len(proposals)} for r={ladder.r}"
            )
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
            if finite and isinstance(p, GaussianWalkProposal):
                raise ConfigurationError(f"level {i}: gaussian walk needs a box space")
            if not finite and not isinstance(p, GaussianWalkProposal):
                raise ConfigurationError(f"level {i}: box spaces need a gaussian walk proposal")
        self._logw = ladder.log_table() if finite else None
        self._rings = partition.labels() if finite else None

    def point(self, x) -> "ChainPoint":
        """The record of in-domain state x: its ring and level log-densities.
        The record holds x as the space's state type (an int, or on a box a
        tuple of floats)."""
        x = self.ladder.space.require(x)
        levels = self.ladder.log_densities(x)
        return ChainPoint(x, self.partition.assign_point(x, levels), levels)

    # -- local Metropolis-Hastings ------------------------------------------------
    def mh_step(self, level: int, x, rng: np.random.Generator, point=None):
        """One MH transition targeting level's density; proposals are
        symmetric so acceptance is min(1, pi(y)/pi(x)). `point` is the record
        of x (built from x when omitted); an accepted move updates it."""
        point = point or self.point(x)
        x = point.x
        prop = self.proposals[level]
        space = self.ladder.space
        if isinstance(prop, UniformProposal):
            y = int(space.size * rng.random())
        elif isinstance(prop, NeighborProposal):
            u = rng.random()
            if u < 0.5:
                y = int(x)
            else:
                y = (int(x) + (1 if u < 0.75 else -1)) % space.size
        else:
            # one draw per coordinate in order, the values of standard_normal(dim)
            normal, step = rng.standard_normal, prop.step
            y = tuple([xi + step * normal() for xi in x])
        u = rng.random()  # MH coin drawn unconditionally, keeps stream alignment
        if isinstance(prop, GaussianWalkProposal) and not space.contains(y):
            return x
        levels = self.ladder.log_densities(y)
        log_a = _finite(levels, level, y) - _finite(point.levels, level, x)
        if log_a >= 0.0 or u < math.exp(log_a):
            point.x, point.ring, point.levels = y, self.partition.assign_point(y, levels), levels
            return y
        return x

    # -- swap mechanics ------------------------------------------------------------
    def swap_accept_prob(self, level: int, x, y, x_levels=None, y_levels=None) -> float:
        """min(1, pi_i(y) pi_{i-1}(x) / (pi_i(x) pi_{i-1}(y))), in log space;
        x_levels/y_levels are x's and y's level log-densities, if known."""
        if level < 1:
            raise ConfigurationError("swaps need a feeder level below them (level >= 1)")
        lx = x_levels or self.ladder.log_densities(x)
        ly = y_levels or self.ladder.log_densities(y)
        ratio = (
            _finite(ly, level, y)
            + _finite(lx, level - 1, x)
            - _finite(lx, level, x)
            - _finite(ly, level - 1, y)
        )
        if math.isnan(ratio):
            raise NumericalError(f"swap ratio is NaN for pair ({x!r}, {y!r})")
        return math.exp(min(0.0, ratio))

    def swap_step(self, level: int, x, y, rng: np.random.Generator, x_levels=None, y_levels=None):
        """Exchange (x, y) -> (y, x) with the swap probability.

        Returns (x', y', accepted); the output pair is always a permutation
        of the input pair.
        """
        alpha = self.swap_accept_prob(level, x, y, x_levels, y_levels)
        if rng.random() < alpha:
            return y, x, True
        return x, y, False

    # -- interaction moves -----------------------------------------------------------
    def _interacts(self, level: int, rng: np.random.Generator) -> bool:
        """The epsilon branch coin: True takes the interaction branch.
        Epsilon 0 and 1 decide without consuming a draw."""
        eps = self.epsilons[level]
        if eps >= 1.0:
            return True
        return eps > 0.0 and rng.random() < eps

    def _feeder_atom(self, point, feeder, rng: np.random.Generator):
        """A uniform draw (atom, level log-densities) from the feeder's atoms
        in the point's ring, or None when that ring holds none (the caller
        then falls back to the local move)."""
        if feeder.ring_count(point.ring) == 0:
            return None
        z, levels = feeder.draw(point.ring, rng)
        return z, levels or self.ladder.log_densities(z)

    def selection_step(self, level: int, x, feeder, rng: np.random.Generator, point=None):
        """Selection/mutation move: draw z from the feeder restricted to
        ring(x), attempt the swap, then one local move from the first
        post-swap coordinate. Falls back to the local kernel when the ring
        holds no feeder atoms."""
        point = point or self.point(x)
        drawn = self._feeder_atom(point, feeder, rng)
        if drawn is None:
            return self.mh_step(level, x, rng, point), StepInfo("local", fallback=True)
        z, z_levels = drawn
        x2, _, accepted = self.swap_step(level, x, z, rng, point.levels, z_levels)
        if accepted:  # z was drawn from ring(x), so the ring stays
            point.x, point.levels = z, z_levels
        out = self.mh_step(level, x2, rng, point)
        return out, StepInfo("selection", swap_accepted=accepted)

    def nonlinear_step(self, level: int, x, feeder, rng: np.random.Generator, point=None):
        """(1 - eps) local + eps selection; the branch uses its own draw."""
        if self._interacts(level, rng):
            return self.selection_step(level, x, feeder, rng, point)
        return self.mh_step(level, x, rng, point), StepInfo("local")

    def ee_jump_step(self, level: int, x, feeder, rng: np.random.Generator, point=None):
        """Original equi-energy variant: the interaction branch proposes a
        feeder atom from ring(x) and accepts it with the swap probability,
        with no trailing local move. The jump never leaves ring(x)."""
        if not self._interacts(level, rng):
            return self.mh_step(level, x, rng, point), StepInfo("local")
        point = point or self.point(x)
        drawn = self._feeder_atom(point, feeder, rng)
        if drawn is None:
            return self.mh_step(level, x, rng, point), StepInfo("local", fallback=True)
        z, z_levels = drawn
        alpha = self.swap_accept_prob(level, x, z, point.levels, z_levels)
        if rng.random() < alpha:
            point.x, point.levels = z, z_levels
            return z, StepInfo("jump", swap_accepted=True)
        return x, StepInfo("jump", swap_accepted=False)

    def interacting_step(self, level: int, x, feeder, rng, variant: str, point=None):
        if variant == "selection-mutation":
            return self.nonlinear_step(level, x, feeder, rng, point)
        if variant == "ee-jump":
            return self.ee_jump_step(level, x, feeder, rng, point)
        raise ConfigurationError(f"unknown kernel variant {variant!r}")

    # -- lockstep steps on finite spaces -----------------------------------------------
    def _mh_lockstep(self, level: int, x: np.ndarray, u_prop: np.ndarray, u_mh: np.ndarray):
        """MH moves from the states x, given proposal uniforms and MH coins."""
        size = self.ladder.space.size
        if isinstance(self.proposals[level], UniformProposal):
            y = (u_prop * size).astype(np.intp)
        else:
            y = (x + np.where(u_prop < 0.5, 0, np.where(u_prop < 0.75, 1, -1))) % size
        logw = self._logw[level]
        return np.where(u_mh < np.exp(np.minimum(0.0, logw[y] - logw[x])), y, x)

    def mh_step_lockstep(self, level: int, x: np.ndarray, rng: np.random.Generator):
        """One MH move targeting `level` for each entry of the (R,) state array."""
        if self._logw is None:
            raise ConfigurationError("lockstep steps need a finite space")
        u_prop, u_mh = rng.random((2, x.shape[0]))
        return self._mh_lockstep(level, x, u_prop, u_mh)

    def interacting_step_lockstep(
        self, level: int, x: np.ndarray, feeder_counts: np.ndarray,
        rng: np.random.Generator, variant: str,
    ):
        """One interacting move per replicate: x is (R,), feeder_counts is
        (R, S), row i the counts of replicate i's feeder measure. Keeps the
        semantics of `interacting_step`, including the local fallback when
        a replicate's ring holds no feeder atoms."""
        if variant not in ("selection-mutation", "ee-jump"):
            raise ConfigurationError(f"unknown kernel variant {variant!r}")
        if level < 1:
            raise ConfigurationError("interacting steps need a feeder level below them")
        if self._rings is None:
            raise ConfigurationError("lockstep steps need a finite space")
        rings = self._rings
        u_branch, u_feed, u_swap, u_prop, u_mh = rng.random((5, x.shape[0]))

        # categorical draw over ring(x), weighted by the feeder's counts; the
        # ufunc and method forms skip np.cumsum's and np.argmax's dispatch
        cum = np.add.accumulate(np.where(rings == rings[x][:, None], feeder_counts, 0), axis=1)
        held = cum[:, -1]
        z = (cum > (u_feed * held)[:, None]).argmax(axis=1)
        lf, li = self._logw[level - 1], self._logw[level]
        alpha = np.exp(np.minimum(0.0, li[z] + lf[x] - li[x] - lf[z]))
        take = (u_branch < self.epsilons[level]) & (held > 0)
        accepted = take & (u_swap < alpha)
        if variant == "ee-jump":
            local = self._mh_lockstep(level, x, u_prop, u_mh)
            return np.where(take, np.where(accepted, z, x), local)
        return self._mh_lockstep(level, np.where(accepted, z, x), u_prop, u_mh)
