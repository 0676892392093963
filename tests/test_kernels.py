import itertools
import math
import sys
from statistics import NormalDist

import numpy as np
import pytest

from conftest import (
    as_vector,
    feeder_of,
    generated_model,
    insert_atoms,
    kernel_copy,
    make_model,
    single_ring,
)
from eesampler import exact
from eesampler.errors import ConfigurationError, NumericalError
from eesampler.kernels import (
    BufferedUniforms,
    GaussianWalkProposal,
    KernelSet,
    NeighborProposal,
    UniformProposal,
    _swap_prob,
)
from eesampler.measures import EmpiricalMeasure
from eesampler.state_space import (
    BoxSpace,
    DensityLadder,
    FiniteSpace,
    RingPartition,
    tempered_ladder,
)

# hand-computed MH matrix: 2 states, uniform-independent proposal, pi = (1/3, 2/3)
#   from 0: propose 1 w.p. 1/2, accept ratio 2 -> always; stay otherwise
#   from 1: propose 0 w.p. 1/2, accept ratio 1/2
MH_2STATE = np.array([[0.5, 0.5], [0.25, 0.75]])

# Every random decision of a move is one uniform, and an index below n is
# int(n * u). The frequency tests draw through BufferedUniforms: the
# uniforms of the seeded Generator it wraps, so the same counts, at a
# fraction of the call cost.


@pytest.fixture
def pair_model():
    return make_model([[0.0, 0.0], np.log([1.0, 2.0])], labels=[0, 0])


@pytest.fixture
def four_model():
    return make_model([[0.0] * 4, np.log([1.0, 1.0, 2.0, 4.0])], labels=[0, 0, 1, 1])


# ---------------------------------------------------------------------------
# local MH
# ---------------------------------------------------------------------------

def test_mh_two_state_transition_frequencies(pair_model):
    rng = BufferedUniforms(np.random.default_rng(2024))
    n = 100_000
    for x0 in (0, 1):
        hits = sum(1 for _ in range(n) if pair_model.mh_step(1, x0, rng) == 1)
        p = MH_2STATE[x0, 1]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * se


def test_mh_occupation_matches_stationary():
    model = make_model([np.log([5.0, 1.0, 1.0, 2.0, 3.0])], labels=[0] * 5)
    target = exact.stationary(exact.k_matrix(model, 0))
    rng = BufferedUniforms(np.random.default_rng(55))
    x, counts = 0, np.zeros(5)
    n = 200_000
    for _ in range(n):
        x = model.mh_step(0, x, rng)
        counts[x] += 1
    assert np.abs(counts / n - target).max() < 0.01


def test_mh_neighbor_proposal_walks_cycle():
    model = KernelSet(
        DensityLadder(FiniteSpace(6), [np.zeros(6)]),
        single_ring(FiniteSpace(6)),
        [NeighborProposal()],
    )
    rng = np.random.default_rng(3)
    x, moved, held = 0, 0, 0
    for _ in range(400):
        y = model.mh_step(0, x, rng)
        assert y in (x, (x + 1) % 6, (x - 1) % 6)
        moved += y != x
        held += y == x
        x = y
    assert moved > 0 and held > 0  # lazy walk: both branches exercised


def test_neighbor_kernel_matrix_and_invariance():
    # oracle matrix of the lazy neighbor walk keeps the target invariant
    # and a strictly positive diagonal (aperiodicity)
    model = make_model([np.log([1.0, 2.0, 3.0, 2.0])], labels=[0] * 4)
    model = KernelSet(model.ladder, model.partition, [NeighborProposal()])
    K = exact.k_matrix(model, 0)
    pi = model.ladder.density_table()[0]
    assert np.abs(pi @ K - pi).max() < 1e-14
    assert np.all(np.diag(K) > 0)
    # simulated one-step frequencies agree with the matrix
    rng = BufferedUniforms(np.random.default_rng(12345))
    n = 60_000
    for x0 in range(4):
        counts = np.zeros(4)
        for _ in range(n):
            counts[model.mh_step(0, x0, rng)] += 1
        se = np.sqrt(K[x0] * (1 - K[x0]) / n)
        assert np.all(np.abs(counts / n - K[x0]) < 3.5 * se + 1e-12)


@pytest.mark.parametrize("size", [2, 3, 4, 7])
@pytest.mark.parametrize("proposal", [UniformProposal(), NeighborProposal()], ids=lambda p: p.kind)
def test_finite_proposal_forms_agree(proposal, size):
    # the midpoints of 4S equal u-cells: index and indices send each cell to
    # one state, and the share of cells on y is matrix[x, y] exactly (on
    # S = 2 both neighbours of x are the same state)
    cells = 4 * size
    u = (np.arange(cells) + 0.5) / cells
    matrix = proposal.matrix(size)
    assert matrix.shape == (size, size)
    for x in range(size):
        y = proposal.indices(np.full(cells, x), u, size)
        assert y.tolist() == [proposal.index(x, v, size) for v in u.tolist()]
        np.testing.assert_array_equal(np.bincount(y, minlength=size) / cells, matrix[x])


def test_mh_gaussian_walk_stays_in_box():
    space = BoxSpace([-1.0], [1.0])
    ladder = tempered_ladder(space, lambda x: 0.0, [1.0])
    model = KernelSet(ladder, single_ring(space, ladder), [GaussianWalkProposal(0.8)])
    rng = np.random.default_rng(8)
    x = np.array([0.9])
    for _ in range(300):
        x = model.mh_step(0, x, rng)
        assert space.contains(x)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_walk_gives_the_floats_of_the_array_form(dim):
    # a flat target on a wide box accepts every proposal, so each state is
    # the proposal x + step * standard_normal(dim) of a twin Generator
    space = BoxSpace([-1e6] * dim, [1e6] * dim)
    ladder = tempered_ladder(space, lambda x: 0.0, [1.0])
    model = KernelSet(ladder, single_ring(space, ladder), [GaussianWalkProposal(0.7)])
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    x = space.require([0.25] * dim)
    for _ in range(2000):
        y = model.mh_step(0, x, rng)
        want = np.asarray(x) + 0.7 * twin.standard_normal(dim)
        twin.random()  # the MH coin
        assert type(y) is tuple and all(type(v) is float for v in y)
        assert y == tuple(want.tolist())
        x = y


# ---------------------------------------------------------------------------
# one uniform per random decision
# ---------------------------------------------------------------------------

def flat_model(space):
    """Two flat levels in one ring: every MH move and every swap accepts."""
    if isinstance(space, FiniteSpace):
        proposals = [UniformProposal()] * 2
        ladder = DensityLadder(space, [np.zeros(space.size)] * 2)
    else:
        proposals = [GaussianWalkProposal(0.5)] * 2
        ladder = tempered_ladder(space, lambda x: 0.0, [1.0, 1.0])
    return KernelSet(ladder, single_ring(space, ladder), proposals, epsilon=1.0)


def test_uniform_proposal_is_int_s_u_of_its_uniform():
    space = FiniteSpace(7)
    model = flat_model(space)
    rng, twin = BufferedUniforms(np.random.default_rng(5)), np.random.default_rng(5)
    x = 0
    for _ in range(500):
        x = model.mh_step(1, x, rng)
        assert x == int(7 * twin.random())
        twin.random()  # the MH coin


@pytest.mark.parametrize("space", [FiniteSpace(5), BoxSpace([-1.0], [1.0])],
                         ids=["finite-buffered", "box-generator"])
def test_feeder_atom_is_int_n_u_of_its_uniform(space):
    model = flat_model(space)
    pick = np.random.default_rng(8)
    if isinstance(space, FiniteSpace):
        inserted = [int(v) for v in pick.integers(5, size=37)]
        rng = BufferedUniforms(np.random.default_rng(9))
    else:
        inserted = [(float(v),) for v in pick.uniform(-1.0, 1.0, size=37)]
        rng = np.random.default_rng(9)
    feeder = feeder_of(model, inserted)
    twin = np.random.default_rng(9)
    x = inserted[0]
    jump = kernel_copy(model, variant="ee-jump")
    for _ in range(500):
        # epsilon 1 draws no branch coin; a flat jump always accepts
        x, info = jump.interacting_step(1, x, feeder, rng)
        assert info.swap_accepted and x == inserted[int(37 * twin.random())]
        twin.random()  # the swap coin


class LargestUniform:
    """A stand-in generator whose every uniform is the largest float below 1."""

    def random(self):
        return 1.0 - 2.0**-53


class RecordingUniforms:
    """A stand-in generator that hands out scripted uniforms and records,
    for each, the function that drew it."""

    def __init__(self, values):
        self.values, self.callers = list(values), []

    def random(self):
        self.callers.append(sys._getframe(1).f_code.co_name)
        return self.values.pop(0)


# who draws each decision's uniform: the interacting move its coins, the
# feeder measure its atom and the local move its proposal and MH coin
BRANCH, FEED, SWAP, PROPOSAL, MH = ("interacting_step", "draw", "interacting_step",
                                    "mh_step", "mh_step")


@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
@pytest.mark.parametrize(
    "eps,script",
    [(0.5, [(BRANCH, 0.25), (FEED, 0.65), (SWAP, 0.5)]),
     (1.0, [(FEED, 0.65), (SWAP, 0.5)]),
     (0.0, [])],
    ids=["eps-0.5", "eps-1", "eps-0"],
)
def test_interacting_move_draw_order(variant, eps, script):
    # a flat model accepts every swap and MH move: the feeder uniform picks
    # atom int(5 * 0.65) = 3 and the proposal uniform state int(5 * 0.85) = 4
    model = kernel_copy(flat_model(FiniteSpace(5)), epsilon=eps, variant=variant)
    feeder = feeder_of(model, [0, 1, 2, 3, 4])
    local = variant == "selection-mutation" or eps == 0.0
    script = script + [(PROPOSAL, 0.85), (MH, 0.9)] * local
    rng = RecordingUniforms(value for _, value in script)
    y, info = model.interacting_step(1, 0, feeder, rng)
    assert rng.callers == [caller for caller, _ in script] and not rng.values
    assert y == (4 if local else 3)
    assert info.branch == ("local" if eps == 0.0 else "selection" if local else "jump")


@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
def test_empty_ring_fallback_draw_order(four_model, variant):
    # the branch coin takes the interaction; ring 1 of x = 2 holds no feeder
    # atoms, so the local move follows without a feeder draw or swap coin
    model = kernel_copy(four_model, variant=variant)
    rng = RecordingUniforms([0.25, 0.99, 0.0])  # proposal int(4 * 0.99) = 3
    y, info = model.interacting_step(1, 2, feeder_of(model, [0, 1]), rng)
    assert rng.callers == [BRANCH, PROPOSAL, MH]
    assert y == 3 and info.fallback and info.branch == "local"


def test_index_map_stays_below_n_at_the_largest_uniform():
    u = LargestUniform().random()
    sizes = list(range(1, 4097)) + [
        m for k in range(1, 41) for m in (2**k - 1, 2**k, 2**k + 1)
    ]
    assert all(int(n * u) == n - 1 for n in sizes)
    # through the code: the feeder draw after each of 4096 inserts, and the
    # uniform proposal on spaces of a few sizes
    model = flat_model(FiniteSpace(3))
    feeder = EmpiricalMeasure(model.partition.d)
    for n in range(4096):
        insert_atoms(feeder, model, [n % 3])
        assert feeder.draw(0, LargestUniform()) == (n % 3, model.point(n % 3).levels)
    for size in (2, 3, 4095, 4096, 4097):
        assert flat_model(FiniteSpace(size)).mh_step(1, 0, LargestUniform()) == size - 1


# ---------------------------------------------------------------------------
# swap acceptance
# ---------------------------------------------------------------------------

def swap_prob(model, level, x, z):
    """The swap probability of the moves, from x's and z's chain records."""
    return _swap_prob(level, x, model.point(x).levels, z, model.point(z).levels)


def test_swap_prob_same_state_is_one(four_model):
    for x in range(4):
        assert swap_prob(four_model, 1, x, x) == 1.0


def test_swap_prob_equal_levels_is_one():
    model = make_model([np.log([1, 2, 3, 4]), np.log([1, 2, 3, 4])], labels=[0, 0, 1, 1])
    for x in range(4):
        for y in range(4):
            assert swap_prob(model, 1, x, y) == pytest.approx(1.0)


def test_swap_prob_hand_values(pair_model):
    assert swap_prob(pair_model, 1, 0, 1) == 1.0  # min(1, 2) = 1
    assert swap_prob(pair_model, 1, 1, 0) == pytest.approx(0.5)


def test_swap_needs_feeder_level(four_model):
    # level 0 has no feeder below it, and level r is not a level; reading
    # level -1 in place of level 0 would take the target as its feeder
    for level in (-1, 0, four_model.ladder.r):
        with pytest.raises(ConfigurationError, match="feeder below it"):
            four_model.swap_table(level)


def test_swap_min_form_detailed_balance(four_model):
    # pi_i(x) pi_{i-1}(y) a(x,y) == pi_i(y) pi_{i-1}(x) a(y,x) for all pairs
    dens = four_model.ladder.density_table()
    for x in range(4):
        for y in range(4):
            lhs = dens[1, x] * dens[0, y] * swap_prob(four_model, 1, x, y)
            rhs = dens[1, y] * dens[0, x] * swap_prob(four_model, 1, y, x)
            assert lhs == pytest.approx(rhs, abs=1e-15)


def finite_swap_model():
    gen = np.random.default_rng(19)
    labels = [0, 1, 0, 1, 0, 1, 0]
    model = make_model([3.0 * gen.normal(size=7), 3.0 * gen.normal(size=7)], labels,
                       epsilon=1.0, variant="ee-jump")
    return model, list(range(7))


def box_swap_model():
    # a tempered double well on [-2, 2], cut into two energy bands
    space = BoxSpace([-2.0], [2.0])
    ladder = tempered_ladder(space, lambda x: -3.0 * (x[0] * x[0] - 1.0) ** 2, [4.0, 1.0])
    partition = RingPartition(space, ladder=ladder, thresholds=[1.0])
    model = KernelSet(ladder, partition, [GaussianWalkProposal(0.5)] * 2,
                      epsilon=1.0, variant="ee-jump")
    return model, [(v,) for v in np.linspace(-1.9, 1.9, 9).tolist()]


@pytest.mark.parametrize("make", [finite_swap_model, box_swap_model], ids=["finite", "box"])
def test_swap_coin_meets_swap_accept_prob_bit_for_bit(make):
    # the move's acceptance must be the float _swap_prob computes, in
    # the sampler's summation order: a coin at alpha rejects, one ulp below
    # accepts, for every same-ring pair; the ee-jump at epsilon 1 draws only
    # uniforms
    model, states = make()
    ring, levels = model.partition.assign, model.ladder.log_densities
    pairs = [(x, z) for x, z in itertools.product(states, repeat=2) if ring(x) == ring(z)]
    assert any(swap_prob(model, 1, x, z) < 1.0 for x, z in pairs)
    for x, z in pairs:
        alpha = swap_prob(model, 1, x, z)
        lx, lz = levels(x), levels(z)
        assert alpha == math.exp(min(0.0, lz[1] + lx[0] - lx[1] - lz[0])), (x, z)
        for coin, accepted in ((alpha, False), (math.nextafter(alpha, 0.0), True)):
            rng = RecordingUniforms([0.0, coin])  # the feeder's one atom, the swap coin
            y, info = model.interacting_step(1, x, feeder_of(model, [z]), rng)
            assert info.swap_accepted is accepted and y == (z if accepted else x), (x, z)


def test_swap_step_frequency(pair_model):
    # the ee-jump at epsilon 1 from x = 1 against the one atom z = 0 accepts
    # with alpha(1, 0) = 1/2: acceptance frequency within 3 s.e. of 0.5
    model = kernel_copy(pair_model, epsilon=1.0, variant="ee-jump")
    feeder = feeder_of(model, [0])
    rng = BufferedUniforms(np.random.default_rng(77))
    n = 100_000
    jumps = sum(1 for _ in range(n) if model.interacting_step(1, 1, feeder, rng)[1].swap_accepted)
    se = np.sqrt(0.25 / n)
    assert abs(jumps / n - 0.5) < 3 * se


# ---------------------------------------------------------------------------
# selection / mutation
# ---------------------------------------------------------------------------

def test_selection_forced_swap_moves_like_local_from_atom(four_model):
    # feeder holds only z=3 in ring(x=2); alpha(2, 3) = min(1, (4*1)/(2*1)) = 1,
    # so the move is distributed as K(3, .)
    model = kernel_copy(four_model, epsilon=1.0)
    feeder = feeder_of(model, [3])
    K = exact.k_matrix(model, 1)
    rng = BufferedUniforms(np.random.default_rng(41))
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        y, info = model.interacting_step(1, 2, feeder, rng)
        assert info.branch == "selection" and info.swap_accepted
        counts[y] += 1
    se = np.sqrt(K[3] * (1 - K[3]) / n)
    assert np.all(np.abs(counts / n - K[3]) < 3 * se + 1e-12)


def test_selection_rejected_swap_moves_like_local_from_start():
    # make the swap ratio tiny for the only feeder pair: pi_2 crushes state 1
    model = make_model(
        [[0.0, 0.0], [0.0, np.log(1e-12)]], labels=[0, 0], epsilon=1.0
    )
    feeder = feeder_of(model, [1])
    K = exact.k_matrix(model, 1)
    rng = BufferedUniforms(np.random.default_rng(4242))
    n = 50_000
    counts = np.zeros(2)
    for _ in range(n):
        y, info = model.interacting_step(1, 0, feeder, rng)
        assert not info.swap_accepted
        counts[y] += 1
    se = np.sqrt(K[0] * (1 - K[0]) / n)
    assert np.all(np.abs(counts / n - K[0]) < 3 * se + 1e-12)


def test_selection_frequencies_match_oracle_matrix(four_model):
    model = kernel_copy(four_model, epsilon=1.0)
    feeder = feeder_of(model, [0, 1, 1, 2, 3, 3, 3])
    mu = as_vector(feeder, model.ladder.space)
    Q = exact.q_matrix(model, 1, mu)
    rng = BufferedUniforms(np.random.default_rng(90210))
    n = 40_000
    for x0 in range(4):
        counts = np.zeros(4)
        for _ in range(n):
            y, _ = model.interacting_step(1, x0, feeder, rng)
            counts[y] += 1
        se = np.sqrt(Q[x0] * (1 - Q[x0]) / n)
        assert np.all(np.abs(counts / n - Q[x0]) < 3.5 * se + 1e-12)


def test_selection_fallback_on_empty_ring(four_model):
    feeder = feeder_of(four_model, [0])  # ring 1 empty
    rng = np.random.default_rng(6)
    y, info = kernel_copy(four_model, epsilon=1.0).interacting_step(1, 2, feeder, rng)
    assert info.branch == "local" and info.fallback


# ---------------------------------------------------------------------------
# mixture step
# ---------------------------------------------------------------------------

def test_nonlinear_degenerate_epsilon(four_model):
    feeder = feeder_of(four_model, [0, 1, 2, 3])
    rng = np.random.default_rng(12)
    model0 = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1], epsilon=0.0)
    for _ in range(50):
        _, info = model0.interacting_step(1, 2, feeder, rng)
        assert info.branch == "local" and not info.fallback
    model1 = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1], epsilon=1.0)
    for _ in range(50):
        _, info = model1.interacting_step(1, 2, feeder, rng)
        assert info.branch == "selection"


def test_nonlinear_branch_frequency():
    model = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1], epsilon=0.3)
    feeder = feeder_of(model, [0, 1, 2, 3])
    rng = BufferedUniforms(np.random.default_rng(13))
    n = 100_000
    picks = sum(
        1 for _ in range(n) if model.interacting_step(1, 2, feeder, rng)[1].branch == "selection"
    )
    se = np.sqrt(0.3 * 0.7 / n)
    assert abs(picks / n - 0.3) < 3 * se


def test_nonlinear_frequencies_match_oracle(four_model):
    feeder = feeder_of(four_model, [0, 0, 1, 2, 3])
    mu = as_vector(feeder, four_model.ladder.space)
    P = exact.interacting_matrix(four_model, 1, mu)  # fixture epsilon = 0.5
    rng = BufferedUniforms(np.random.default_rng(60))
    n = 40_000
    for x0 in range(4):
        counts = np.zeros(4)
        for _ in range(n):
            y, _ = four_model.interacting_step(1, x0, feeder, rng)
            counts[y] += 1
        se = np.sqrt(P[x0] * (1 - P[x0]) / n)
        assert np.all(np.abs(counts / n - P[x0]) < 3.5 * se + 1e-12)


# ---------------------------------------------------------------------------
# original EE jump
# ---------------------------------------------------------------------------

def test_ee_jump_stays_in_ring(four_model):
    feeder = feeder_of(four_model, [0, 1, 2, 3, 3])
    model = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1], epsilon=1.0,
                       variant="ee-jump")
    rng = np.random.default_rng(17)
    for x0 in range(4):
        ring = model.partition.assign(x0)
        for _ in range(300):
            y, info = model.interacting_step(1, x0, feeder, rng)
            assert info.branch == "jump"
            assert model.partition.assign(y) == ring


def test_ee_jump_forced_single_atom():
    model = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1], epsilon=1.0,
                       variant="ee-jump")
    feeder = feeder_of(model, [3])
    rng = np.random.default_rng(18)
    # alpha(2, 3) = 1: deterministic jump to the only atom
    for _ in range(50):
        y, info = model.interacting_step(1, 2, feeder, rng)
        assert y == 3 and info.swap_accepted


def test_ee_jump_epsilon_zero_is_local():
    model = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1], epsilon=0.0,
                       variant="ee-jump")
    feeder = feeder_of(model, [0, 1, 2, 3])
    rng = np.random.default_rng(19)
    for _ in range(50):
        _, info = model.interacting_step(1, 2, feeder, rng)
        assert info.branch == "local"


def test_ee_jump_frequencies_match_oracle(four_model):
    model = kernel_copy(four_model, variant="ee-jump")
    feeder = feeder_of(model, [0, 1, 1, 2, 3])
    mu = as_vector(feeder, model.ladder.space)
    P = exact.interacting_matrix(model, 1, mu)  # fixture epsilon = 0.5
    rng = BufferedUniforms(np.random.default_rng(61))
    n = 40_000
    for x0 in range(4):
        counts = np.zeros(4)
        for _ in range(n):
            y, _ = model.interacting_step(1, x0, feeder, rng)
            counts[y] += 1
        se = np.sqrt(P[x0] * (1 - P[x0]) / n)
        assert np.all(np.abs(counts / n - P[x0]) < 3.5 * se + 1e-12)


# Generated cross-check of the scalar moves `run` makes: one interacting
# step from every start state of 10 random models against the oracle row,
# the feeder filled from chain records as the engine fills it. The seed
# list, the family-wise level and the Bonferroni threshold over every
# (model, x, y) cell are fixed before any model is stepped; a failing model
# is a finding, never a reason to change its seed.
SCALAR_CROSSCHECK_SEEDS = tuple(range(4200, 4210))
SCALAR_CROSSCHECK_FWER = 1e-3
SCALAR_CROSSCHECK_DRAWS = 10_000


def test_generated_models_scalar_step_matches_oracle():
    models = [generated_model(i, seed) for i, seed in enumerate(SCALAR_CROSSCHECK_SEEDS)]
    cells = sum(model.ladder.space.size ** 2 for model, _ in models)
    z_max = NormalDist().inv_cdf(1.0 - SCALAR_CROSSCHECK_FWER / (2 * cells))
    assert {m.variant for m, _ in models} == {"selection-mutation", "ee-jump"}
    assert any(np.any(np.bincount(m.partition.labels(), weights=c) == 0) for m, c in models)
    n = SCALAR_CROSSCHECK_DRAWS
    failures = []
    for seed, (model, counts) in zip(SCALAR_CROSSCHECK_SEEDS, models):
        size = model.ladder.space.size
        feeder = feeder_of(model, np.repeat(np.arange(size), counts).tolist())
        P = np.clip(exact.interacting_matrix(model, 1, counts / counts.sum()), 0.0, 1.0)
        rng = BufferedUniforms(np.random.default_rng([seed, 2]))
        for x0 in range(size):
            hits = np.bincount(
                [model.interacting_step(1, x0, feeder, rng)[0] for _ in range(n)],
                minlength=size,
            )
            # a cell expected to see under one hit is judged at the one-hit scale
            se = np.sqrt(np.maximum(P[x0] * (1.0 - P[x0]), 1.0 / n) / n)
            z = np.abs(hits / n - P[x0]) / se
            if np.any(hits[P[x0] == 0.0] > 0) or z.max() > z_max:
                failures.append((seed, x0, model.variant, float(z.max())))
    assert not failures, f"z threshold {z_max:.3f}: {failures}"


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [-0.1, 1.5])
def test_epsilon_range_validation(eps):
    with pytest.raises(ConfigurationError):
        make_model([[0.0, 0.0], [0.0, 0.0]], labels=[0, 0], epsilon=eps)


def test_proposal_space_mismatch():
    box = BoxSpace([-1.0], [1.0])
    cases = [
        (DensityLadder(FiniteSpace(3), [np.zeros(3)]), GaussianWalkProposal(1.0)),
        (tempered_ladder(box, lambda x: 0.0, [1.0]), UniformProposal()),
    ]
    for ladder, proposal in cases:
        with pytest.raises(ConfigurationError, match=f"{proposal.kind} needs a"):
            KernelSet(ladder, single_ring(ladder.space, ladder), [proposal])


def test_proposal_count_mismatch():
    space = FiniteSpace(3)
    ladder = DensityLadder(space, [np.zeros(3), np.zeros(3)])
    with pytest.raises(ConfigurationError):
        KernelSet(ladder, single_ring(space), [UniformProposal()])


def test_box_nan_density_raises():
    # a box state is checked where it is evaluated: its record, and a
    # proposal from a state whose record is finite
    space = BoxSpace([-1.0], [1.0])
    for bad in (math.nan, -math.inf):
        ladder = tempered_ladder(space, lambda x: float(bad), [1.0])
        model = KernelSet(ladder, single_ring(space, ladder), [GaussianWalkProposal(0.5)])
        with pytest.raises(NumericalError):
            model.mh_step(0, np.array([0.0]), np.random.default_rng(1))
        with pytest.raises(NumericalError):
            model.point((0.0,))
        # finite at the current state only: the proposal's record raises
        ladder = tempered_ladder(space, lambda x: 0.0 if x[0] == 0.0 else float(bad), [1.0])
        model = KernelSet(ladder, single_ring(space, ladder), [GaussianWalkProposal(0.5)])
        with pytest.raises(NumericalError):
            model.mh_step(0, (0.0,), np.random.default_rng(1))


def test_ring_closed_is_exactly_the_kernel_that_never_leaves_its_ring(four_state):
    labels = four_state.partition.labels()
    across = labels[:, None] != labels[None, :]
    mu = four_state.ladder.density_table()[0]
    for variant in ("selection-mutation", "ee-jump"):
        for eps in (0.0, 0.5, 1.0):
            model = kernel_copy(four_state.kernels, eps, variant)
            P = exact.interacting_matrix(model, 1, mu)
            assert model.ring_closed(eps) == (P[across].max() == 0.0), (variant, eps)
