import math

import numpy as np
import pytest

from eesampler import KernelSet, NeighborProposal, UniformProposal
from eesampler.config import config_from_dict, four_state_config, four_state_raw
from eesampler.measures import EmpiricalMeasure
from eesampler.sampler import LockstepEnsemble
from eesampler.state_space import DensityLadder, FiniteSpace, RingPartition


@pytest.fixture
def four_state():
    """Shipped reference fixture: pi_1 uniform, pi_2 ~ (1,1,2,4), rings {0,1},{2,3}."""
    return four_state_config()


@pytest.fixture
def two_state_model():
    """2-state ladder with pi_1 uniform and pi_2 = (1/3, 2/3), uniform proposals."""
    space = FiniteSpace(2)
    ladder = DensityLadder(space, [np.zeros(2), np.log([1.0, 2.0])])
    partition = single_ring(space)
    return KernelSet(ladder, partition, [UniformProposal(), UniformProposal()], epsilon=0.5)


def make_model(log_weights, labels, epsilon=0.5, variant="selection-mutation"):
    """Finite model from per-level log-weight rows and ring labels."""
    rows = [np.asarray(r, dtype=float) for r in log_weights]
    space = FiniteSpace(rows[0].size)
    ladder = DensityLadder(space, rows)
    partition = RingPartition(space, labels=labels)
    proposals = [UniformProposal() for _ in rows]
    return KernelSet(ladder, partition, proposals, epsilon=epsilon, variant=variant)


def kernel_copy(model, epsilon=None, variant=None):
    """The model with another epsilon or interaction variant."""
    return KernelSet(
        model.ladder, model.partition, model.proposals,
        model.epsilons if epsilon is None else epsilon,
        model.variant if variant is None else variant,
    )


def generated_model(i: int, seed: int):
    """Generated model i of a cross-check against the oracle: S <= 6,
    d <= 3, variant and proposal cycling with i, epsilon 0 and 1 for the
    first two and uniform on [0, 1] after, and feeder counts in which some
    rings may hold no atoms. Returns (kernel set, counts)."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 7))
    d = int(rng.integers(1, min(3, size) + 1))
    space = FiniteSpace(size)
    labels = rng.permutation(np.arange(size) % d)
    ladder = DensityLadder(space, [rng.normal(size=size) / 3.0, rng.normal(size=size)])
    proposal = (NeighborProposal, UniformProposal)[(i // 2) % 2]
    eps = (0.0, 1.0)[i] if i < 2 else float(rng.uniform())
    variant = ("selection-mutation", "ee-jump")[i % 2]
    model = KernelSet(ladder, RingPartition(space, labels=labels), [proposal()] * 2,
                      epsilon=eps, variant=variant)
    counts = rng.integers(0, 4, size)
    if i % 3 == 0 and d > 1:
        counts[labels == 0] = 0
    counts[labels == labels[-1]] += counts.sum() == 0  # keep one atom somewhere
    return model, counts


def insert_atoms(measure, model, atoms):
    """Insert `atoms` in order into an empirical measure, each from its
    chain record (its ring and level log-densities), as the engines insert;
    returns the measure."""
    for x in atoms:
        point = model.point(x)
        measure.insert(point.x, point.ring, point.levels)
    return measure


def feeder_of(model, atoms):
    """A new empirical measure over the model's rings holding `atoms`."""
    return insert_atoms(EmpiricalMeasure(model.partition.d), model, atoms)


def lockstep_step(model, level, x, rng, feeder_counts=None):
    """One lockstep round from the (R,) states x, a block of one round:
    an MH move targeting `level`, or with feeder counts an interacting move.
    The counts are (R, S), row i replicate i's feeder measure, or one (S,)
    vector for all replicates."""
    out = np.empty((1, x.shape[0]), np.intp)
    if feeder_counts is None:
        return model.mh_rounds_lockstep(level, x, rng, out)[0]
    counts = np.broadcast_to(feeder_counts, (x.shape[0], model.ladder.space.size))
    layout = model.ring_layout()
    feeder = layout.cumulative(counts.T)[None]
    return model.interacting_rounds_lockstep(level, x, feeder, layout.edges(feeder), rng, out)[0]


def single_ring(space, ladder=None):
    """The partition of a space into one ring; on a box, one band of the
    energy of the ladder's target."""
    if isinstance(space, FiniteSpace):
        return RingPartition(space, labels=np.zeros(space.size, dtype=int))
    return RingPartition(space, ladder=ladder, thresholds=[])


def advance(ens, rounds: int = 1):
    """Run `rounds` rounds of a ChainEnsemble or a LockstepEnsemble, a block
    at a time. Returns the lockstep engine's (rounds, R, r) states after
    each round, or the number of rounds the scalar engine's blocks held."""
    blocks = list(ens.blocks(rounds))
    return np.concatenate(blocks) if isinstance(ens, LockstepEnsemble) else sum(blocks)


def feeder_counts(ens, cumulative=None):
    """(R, r - 1, S) counts in state order of a LockstepEnsemble's feeding
    chains, read from their ring-sorted cumulative counts ``ens._cum``
    through its ring layout; or, for a given (..., S, R) array of such
    counts, its (R, ..., S) counts."""
    cum = np.stack(ens._cum) if cumulative is None else cumulative
    counts = np.diff(cum, axis=-2, prepend=0)[..., ens._layout.positions, :]
    return np.moveaxis(counts, -1, 0)


def chain_states(ensemble):
    """The states of a ChainEnsemble's chain records, in chain order."""
    return [point.x for point in ensemble.points]


def total_count(measure):
    """Number of atoms an empirical measure holds."""
    return sum(measure.counts)


def atoms(measure, ring):
    """The atoms an empirical measure (or a snapshot of one) holds in a
    ring, with multiplicity, in insertion order."""
    return measure._ring_atoms[ring][: measure.counts[ring]]


def ring_mass(measure, ring):
    """The share of a measure's atoms that lie in a ring (0.0 when empty)."""
    total = total_count(measure)
    return measure.counts[ring] / total if total else 0.0


def as_vector(measure, space):
    """Probability vector of an empirical measure over a finite space."""
    v = np.zeros(space.size)
    for ring in range(measure.d):
        for x in atoms(measure, ring):
            v[int(x)] += 1.0
    return v / total_count(measure)


def reference_numpy_logpdf(means, scales, weights):
    """The gaussian-mixture log-density in numpy array form: the reference
    the plain-float mixture of ``eesampler.config`` must equal bit for bit."""
    means = np.asarray(means, dtype=float)
    scales = np.asarray(scales, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    dim = means.shape[1]
    logw = np.log(weights / weights.sum())
    var = scales**2
    log_norm = dim * np.log(scales)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        comp = logw - 0.5 * np.sum((x[None, :] - means) ** 2, axis=1) / var - log_norm
        m = comp.max()
        return float(m + math.log(np.exp(comp - m).sum()))

    return logpdf


def ee_jump_neighbor_config():
    """3 chains, 3 rings, ee-jump with neighbour proposals, strict snapshots."""
    return config_from_dict({
        "space": {"kind": "finite", "size": 9},
        "ladder": {"base_weights": [1, 3, 2, 5, 1, 4, 2, 6, 3], "temperatures": [5.0, 2.0, 1.0]},
        "partition": {"labels": [2, 1, 1, 0, 2, 0, 1, 0, 2]},
        "kernel": {"variant": "ee-jump", "epsilon": 0.4, "proposal": "neighbor"},
        "schedule": {"offsets": [30, 30], "total_rounds": 1500},
        "stability": {"policy": "warn", "theta": 0.2},
        "trace": {"snapshot_every": 64, "strict_snapshot": True},
        "initial_states": [0, 4, 8],
        "seed": 2718,
    })


def eight_state_config(**changes):
    """The 8-state, 3-ring, three-chain model of CI's
    ``eight_state_three_chain``: ``four_state`` on 8 states with ee-jump at
    epsilon 0.5, uniform proposals and offsets [10, 10] over 400 rounds.
    `changes` replace whole top-level sections."""
    raw = four_state_raw(
        space={"kind": "finite", "size": 8},
        ladder={"temperatures": [4, 2, 1], "base_weights": [3, 1, 1.5, 1, 2, 1, 4, 2.5]},
        partition={"labels": [0, 2, 1, 2, 1, 2, 0, 0]}, initial_states=[0, 0, 0],
        kernel={"variant": "ee-jump", "epsilon": 0.5, "proposal": "uniform"},
        schedule={"offsets": [10, 10], "total_rounds": 400},
    )
    raw.update(changes)
    return config_from_dict(raw)


def eight_state_events_config(strict):
    """The 8-state model with selection-mutation, short offsets and theta
    0.1 (warn): fallbacks on chains 1 and 2 and ``low_mass`` events on
    feeders 0 and 1, in several rounds together."""
    return eight_state_config(
        kernel={"variant": "selection-mutation", "epsilon": 0.5, "proposal": "uniform"},
        schedule={"offsets": [2, 2], "total_rounds": 300},
        stability={"policy": "warn", "theta": 0.1}, seed=24,
        trace={"snapshot_every": 256, "strict_snapshot": strict},
    )
