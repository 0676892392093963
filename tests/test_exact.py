import numpy as np
import pytest

from conftest import kernel_copy, make_model
from eesampler import exact
from eesampler.config import four_state_config
from eesampler.errors import ConfigurationError, NumericalError, StabilityError
from eesampler.experiments import json_data, verify_suite
from eesampler.kernels import KernelSet, NeighborProposal, UniformProposal
from eesampler.measures import tv_distance
from eesampler.state_space import DensityLadder, FiniteSpace, RingPartition

PROPOSALS = {"uniform": UniformProposal, "neighbor": NeighborProposal}


@pytest.fixture
def four_model():
    return make_model([[0.0] * 4, np.log([1.0, 1.0, 2.0, 4.0])], labels=[0, 0, 1, 1])


@pytest.fixture
def eight_model():
    rng = np.random.default_rng(808)
    return make_model(
        [rng.normal(size=8), rng.normal(size=8)], labels=[0, 0, 0, 1, 1, 1, 2, 2]
    )


# ---------------------------------------------------------------------------
# local kernel matrices
# ---------------------------------------------------------------------------

def test_k_matrix_two_state_uniform():
    model = make_model([[0.0, 0.0]], labels=[0, 0])
    np.testing.assert_allclose(exact.k_matrix(model, 0), [[0.5, 0.5], [0.5, 0.5]])


def test_k_matrix_two_state_hand_computed():
    model = make_model([np.log([1.0, 2.0])], labels=[0, 0])
    np.testing.assert_allclose(
        exact.k_matrix(model, 0), [[0.5, 0.5], [0.25, 0.75]], atol=1e-15
    )


def test_k_matrix_invariance_and_reversibility(four_model, eight_model):
    for model in (four_model, eight_model):
        dens = model.ladder.density_table()
        for level in range(model.ladder.r):
            K = exact.k_matrix(model, level)
            pi = dens[level]
            assert np.abs(pi @ K - pi).max() < 1e-12
            flux = pi[:, None] * K
            assert np.abs(flux - flux.T).max() < 1e-15


def test_shared_matrices_are_read_only(four_model):
    for M in (exact.k_matrix(four_model, 1), four_model.swap_table(1)):
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
    assert exact.k_matrix(four_model, 1) is exact.k_matrix(four_model, 1)


def test_k_matrix_needs_a_level_of_the_ladder(four_model):
    # level -1 would wrap onto level r - 1 and level r past the ladder
    for level in (-1, 2):
        with pytest.raises(ConfigurationError, match=r"levels are 0\.\.1, got"):
            exact.k_matrix(four_model, level)


def test_swap_alpha_needs_a_level_with_a_feeder(four_model):
    # level 0 has no feeder below it; reading level -1 in its place would
    # take the target as the feeder of level 0
    for level in (-1, 0, 2):
        with pytest.raises(ConfigurationError, match="feeder below it"):
            four_model.swap_table(level)
    pi_target = exact.stationary(exact.k_matrix(four_model, 1))
    for build in (exact.q_matrix, exact.ee_jump_matrix, exact.interacting_matrix):
        with pytest.raises(ConfigurationError, match="feeder below it"):
            build(four_model, 0, pi_target)


def test_verify_suite_same_report_cold_and_warm():
    cfg = four_state_config()
    cold = json_data(verify_suite(cfg))
    warm = json_data(verify_suite(cfg))
    assert cold == warm


def test_verify_suite_builds_each_k_once(monkeypatch):
    built = []
    table = KernelSet._table

    def counting(model, key, build):
        def counted():
            built.append(key)
            return build()

        return table(model, key, counted)

    monkeypatch.setattr(KernelSet, "_table", counting)
    assert verify_suite(four_state_config()).passed
    assert sorted(key[1] for key in built if key[0] == "k") == [0, 1]


def test_verify_suite_solves_each_poisson_chain_once(monkeypatch):
    # the battery's random chains are the 8-state matrices; each needs one
    # stationary solve, shared by the Poisson solve, series and rate fit
    solved = {}
    solve = exact.stationary

    def counting(P):
        if P.shape[-2:] == (8, 8):
            for item in P.reshape(-1, 8, 8):
                solved[item.tobytes()] = solved.get(item.tobytes(), 0) + 1
        return solve(P)

    monkeypatch.setattr(exact, "stationary", counting)
    assert verify_suite(four_state_config()).passed
    assert len(solved) == 20 and set(solved.values()) == {1}


def test_verify_suite_solver_calls_do_not_grow_with_the_batteries(monkeypatch):
    # one stacked solve each: the fixed point, the Poisson battery's
    # stationary and fundamental-matrix solves, the geometric rate, and the
    # mu and xi sides of the continuity battery at level 1
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    assert verify_suite(four_state_config()).passed
    assert len(calls) == 6


def test_poisson_helpers_same_with_given_omega():
    rng = np.random.default_rng(3)
    P = rng.uniform(0.1, 1.0, (6, 6))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.uniform(-1.0, 1.0, 6)
    w = exact.stationary(P)
    assert np.array_equal(exact.poisson_series_partial(P, f, 50, omega=w),
                          exact.poisson_series_partial(P, f, 50))
    given, solved = exact.geometric_rate_estimate(P, omega=w), exact.geometric_rate_estimate(P)
    assert (given.m, given.rho, given.rho_fitted) == (solved.m, solved.rho, solved.rho_fitted)
    assert np.array_equal(given.tv_curve, solved.tv_curve)


# ---------------------------------------------------------------------------
# selection kernel matrices
# ---------------------------------------------------------------------------

def test_q_matrix_singleton_rings_self_swap():
    # every ring a singleton and mu its point mass: swap with self, then K
    model = make_model([[0.0] * 3, np.log([1.0, 2.0, 3.0])], labels=[0, 1, 2])
    mu = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(
        exact.q_matrix(model, 1, mu), exact.k_matrix(model, 1), atol=1e-15
    )


def test_q_matrix_equal_levels_forced_acceptance(four_model):
    model = make_model(
        [np.log([1, 1, 2, 4]), np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1]
    )
    rng = np.random.default_rng(5)
    mu = rng.dirichlet(np.ones(4))
    K = exact.k_matrix(model, 1)
    labels = model.partition.labels()
    expected = np.zeros((4, 4))
    for x in range(4):
        ring = labels[x]
        cond = np.where(labels == ring, mu, 0.0)
        cond /= cond.sum()
        expected[x] = cond @ K
    np.testing.assert_allclose(exact.q_matrix(model, 1, mu), expected, atol=1e-14)


def test_q_matrix_zero_ring_raises(four_model):
    with pytest.raises(StabilityError):
        exact.ring_conditionals(four_model, np.array([0.5, 0.5, 0.0, 0.0]))


def test_q_matrix_empty_ring_fallback_rows(four_model):
    mu = np.array([0.5, 0.5, 0.0, 0.0])
    Q = exact.q_matrix(four_model, 1, mu)
    K = exact.k_matrix(four_model, 1)
    np.testing.assert_allclose(Q[2], K[2])
    np.testing.assert_allclose(Q[3], K[3])


def test_interacting_matrix_affine(four_model):
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    K = exact.k_matrix(four_model, 1)
    Q = exact.q_matrix(four_model, 1, mu)
    np.testing.assert_allclose(exact.interacting_matrix(four_model, 1, mu, 0.0), K)
    np.testing.assert_allclose(exact.interacting_matrix(four_model, 1, mu, 1.0), Q)
    np.testing.assert_allclose(
        exact.interacting_matrix(four_model, 1, mu, 0.5), 0.5 * K + 0.5 * Q
    )


def test_ee_jump_matrix_support(four_model):
    # the pure jump never leaves the ring: off-ring entries come only from K
    mu = np.array([0.25, 0.25, 0.25, 0.25])
    J = exact.ee_jump_matrix(four_model, 1, mu)
    labels = four_model.partition.labels()
    for x in range(4):
        for y in range(4):
            if labels[x] != labels[y]:
                assert J[x, y] == 0.0
    assert np.allclose(J.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# stationary vectors
# ---------------------------------------------------------------------------

def test_stationary_doubly_stochastic_is_uniform():
    P = np.array([[0.2, 0.5, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])
    np.testing.assert_allclose(exact.stationary(P), np.ones(3) / 3, atol=1e-12)


def test_stationary_of_k_matrix_is_target(four_model):
    dens = four_model.ladder.density_table()
    for level in range(2):
        w = exact.stationary(exact.k_matrix(four_model, level))
        np.testing.assert_allclose(w, dens[level], atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1.0])
def test_fixed_point_keystone(four_model, eps):
    # feeding the exact lower target through the mixture reproduces pi_2
    dens = four_model.ladder.density_table()
    P = exact.interacting_matrix(four_model, 1, dens[0], eps)
    np.testing.assert_allclose(exact.stationary(P), dens[1], atol=1e-10)


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_ee_jump_fixed_point(four_model, eight_model, eps):
    # the jump kernel fed pi_1 also keeps pi_2; at eps = 1 it never leaves
    # ring(x), so that kernel is reducible and has no unique stationary vector
    for model in (four_model, eight_model):
        dens = model.ladder.density_table()
        P = exact.interacting_matrix(kernel_copy(model, variant="ee-jump"), 1, dens[0], eps)
        np.testing.assert_allclose(exact.stationary(P), dens[1], atol=1e-10)


def test_stationary_rejects_non_stochastic():
    with pytest.raises(NumericalError):
        exact.stationary(np.array([[0.5, 0.4], [0.3, 0.7]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_stochastic_rejects_non_finite_entries(bad):
    P = np.array([[bad, 0.5], [0.5, 0.5]])
    with pytest.raises(NumericalError, match="non-finite"):
        exact.assert_row_stochastic(P)
    stack = np.stack([np.full((2, 2), 0.5), P])
    with pytest.raises(NumericalError, match="non-finite.*1"):
        exact.assert_row_stochastic(stack)
    with pytest.raises(NumericalError):
        exact.stationary(P)


# ---------------------------------------------------------------------------
# Poisson equation
# ---------------------------------------------------------------------------

def test_poisson_constant_function_maps_to_zero():
    P = np.array([[0.6, 0.4], [0.3, 0.7]])
    sol = exact.poisson_solve(P, np.array([2.5, 2.5]))
    np.testing.assert_allclose(sol.fhat, np.zeros(2), atol=1e-12)


def test_poisson_two_state_closed_form():
    # P = [[1-a, a], [b, 1-b]], f = (1, 0): omega = (b, a)/(a+b) and the
    # centered solution is fhat = (a, -b)/(a+b)^2, derived by hand from
    # fhat - P fhat = f - omega(f) and omega(fhat) = 0.
    a, b = 0.3, 0.2
    P = np.array([[1 - a, a], [b, 1 - b]])
    sol = exact.poisson_solve(P, np.array([1.0, 0.0]))
    np.testing.assert_allclose(sol.fhat, [1.2, -0.8], atol=1e-12)
    assert sol.omega_f == pytest.approx(b / (a + b))


def test_poisson_residual_identity_random_chains():
    rng = np.random.default_rng(1010)
    for _ in range(10):
        P = rng.uniform(0.05, 1.0, (10, 10))
        P /= P.sum(axis=1, keepdims=True)
        f = rng.uniform(-3.0, 3.0, 10)
        sol = exact.poisson_solve(P, f)
        lhs = sol.fhat - P @ sol.fhat
        np.testing.assert_allclose(lhs, f - sol.omega_f, atol=1e-10)
        assert abs(sol.omega @ sol.fhat) < 1e-10  # centering


def test_poisson_series_converges_to_solve():
    rng = np.random.default_rng(2020)
    P = rng.uniform(0.1, 1.0, (6, 6))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.uniform(-1.0, 1.0, 6)
    sol = exact.poisson_solve(P, f)
    rate = exact.geometric_rate_estimate(P)
    partial = exact.poisson_series_partial(P, f, 50)
    envelope = 2.0 * rate.m * rate.rho**50 * np.abs(f).max() / (1.0 - rate.rho)
    assert np.abs(partial - sol.fhat).max() <= envelope + 1e-12


# ---------------------------------------------------------------------------
# composition identity
# ---------------------------------------------------------------------------

def test_composition_identity_q1_is_definition(four_model):
    rng = np.random.default_rng(42)
    mu = rng.dirichlet(np.ones(4))
    f = rng.uniform(-1, 1, 4)
    assert exact.composition_identity_check(four_model, 1, mu, f, 1) < 1e-12


def test_composition_identity_single_ring_collapses():
    model = make_model([[0.0] * 4, np.log([1, 2, 3, 4])], labels=[0, 0, 0, 0])
    rng = np.random.default_rng(43)
    for q in (1, 2, 3):
        mu = rng.dirichlet(np.ones(4))
        f = rng.uniform(-1, 1, 4)
        assert exact.composition_identity_check(model, 1, mu, f, q) < 1e-11


def test_composition_identity_rational_measure(four_model):
    mu = np.array([1.0, 2.0, 3.0, 4.0]) / 10.0
    f = np.array([0.5, -1.0, 0.25, 1.0])
    assert exact.composition_identity_check(four_model, 1, mu, f, 2) < 1e-12


def test_composition_identity_eight_state(eight_model):
    rng = np.random.default_rng(44)
    for q in (1, 2, 3):
        mu = rng.uniform(0.05, 1.0, 8)
        mu /= mu.sum()
        f = rng.uniform(-1, 1, 8)
        assert exact.composition_identity_check(eight_model, 1, mu, f, q) < 1e-10


def test_composition_identity_size_contracts(four_model):
    rng = np.random.default_rng(45)
    mu = rng.dirichlet(np.ones(4))
    f = np.ones(4)
    with pytest.raises(ConfigurationError):
        exact.composition_identity_check(four_model, 1, mu, f, 4)
    big = make_model([np.zeros(9), np.zeros(9)], labels=[0, 1, 2] * 3)
    with pytest.raises(ConfigurationError):
        exact.composition_identity_check(big, 1, np.ones(9) / 9, np.ones(9), 2)


# ---------------------------------------------------------------------------
# mixture expansion
# ---------------------------------------------------------------------------

def test_mixture_expansion_eps_zero_single_word(four_model):
    K = exact.k_matrix(four_model, 1)
    Q = exact.q_matrix(four_model, 1, np.full(4, 0.25))
    assert exact.mixture_expansion_check(K, Q, 0.0, 4) < 1e-14


def test_mixture_expansion_n1_is_definition(four_model):
    K = exact.k_matrix(four_model, 1)
    Q = exact.q_matrix(four_model, 1, np.full(4, 0.25))
    assert exact.mixture_expansion_check(K, Q, 0.37, 1) < 1e-15


def test_mixture_expansion_explicit_four_words(four_model):
    K = exact.k_matrix(four_model, 1)
    Q = exact.q_matrix(four_model, 1, np.full(4, 0.25))
    mix = 0.5 * K + 0.5 * Q
    words = 0.25 * (K @ K + K @ Q + Q @ K + Q @ Q)
    np.testing.assert_allclose(mix @ mix, words, atol=1e-14)
    assert exact.mixture_expansion_check(K, Q, 0.5, 2) < 1e-14


def test_mixture_expansion_depth_contract(four_model):
    K = exact.k_matrix(four_model, 1)
    with pytest.raises(ConfigurationError):
        exact.mixture_expansion_check(K, K, 0.5, 7)


def sequential_mixture_sum(K, P, eps, n):
    """The word sum of the mixture expansion one word at a time, each
    product multiplied out from the identity: the reference the prefix-built
    stack must reproduce bit for bit."""
    import itertools

    total = np.zeros(K.shape)
    for word in itertools.product((0, 1), repeat=n):
        M = np.eye(len(K))
        for bit in word:
            M = M @ (P if bit else K)
        l = sum(word)
        total += eps**l * (1.0 - eps) ** (n - l) * M
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_mixture_expansion_matches_sequential_word_sum(eight_model, monkeypatch, n):
    rng = np.random.default_rng(n)
    K = exact.k_matrix(eight_model, 1)
    Q = exact.q_matrix(eight_model, 1, rng.dirichlet(np.ones(8)))
    for eps in (0.3, 0.5, 1.0):
        assert exact.mixture_expansion_check(K, Q, eps, n) < 1e-14
        # with the direct power replaced by the reference word sum, the
        # discrepancy is 0 only if every entry agrees bit for bit
        reference = sequential_mixture_sum(K, Q, eps, n)
        monkeypatch.setattr(np.linalg, "matrix_power", lambda M, k: reference)
        assert exact.mixture_expansion_check(K, Q, eps, n) == 0.0
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# geometric rates
# ---------------------------------------------------------------------------

def test_rate_rank_one_kernel_converges_in_one_step():
    P = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (4, 1))
    rate = exact.geometric_rate_estimate(P)
    assert rate.rho == pytest.approx(0.0)
    assert rate.tv_curve[0] == pytest.approx(0.0, abs=1e-15)
    assert rate.rho_fitted == 0.0


def test_rate_two_state_hand_computed():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    rate = exact.geometric_rate_estimate(P)
    assert rate.rho == pytest.approx(0.7)  # phi = 0.2 + 0.1
    ratios = rate.tv_curve[1:10] / rate.tv_curve[:9]
    assert np.all(ratios <= 0.7 + 1e-12)
    assert rate.rho_fitted <= 0.7 + 1e-9


def test_rate_tv_curve_non_increasing(four_model):
    for P in (
        exact.k_matrix(four_model, 1),
        exact.interacting_matrix(four_model, 1, np.full(4, 0.25), 0.5),
    ):
        rate = exact.geometric_rate_estimate(P)
        assert np.all(np.diff(rate.tv_curve) <= 1e-12)
        assert rate.rho_fitted <= rate.rho + 1e-9


# ---------------------------------------------------------------------------
# Lipschitz and invariant continuity
# ---------------------------------------------------------------------------

def test_lipschitz_identical_measures_zero(four_model):
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(50)
    assert exact.lipschitz_check(four_model, 1, mu, mu, rng.uniform(-1.0, 1.0, (10, 4))) == 0.0


def test_lipschitz_constant_function_contributes_nothing(four_model):
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    xi = np.array([0.4, 0.3, 0.2, 0.1])
    Qmu = exact.q_matrix(four_model, 1, mu)
    Qxi = exact.q_matrix(four_model, 1, xi)
    f = np.full(4, 0.7)
    assert np.abs(Qmu @ f - Qxi @ f).max() < 1e-14


def test_lipschitz_battery_respects_bound(four_model, eight_model):
    rng = np.random.default_rng(51)
    for model in (four_model, eight_model):
        size = model.ladder.space.size
        for _ in range(20):
            mu = rng.uniform(0.05, 1.0, size)
            mu /= mu.sum()
            xi = rng.uniform(0.05, 1.0, size)
            xi /= xi.sum()
            fs = rng.uniform(-1.0, 1.0, (10, size))
            assert exact.lipschitz_check(model, 1, mu, xi, fs) <= 1.0 + 1e-9


def test_invariant_continuity_guards(four_model):
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    assert exact.invariant_continuity_check(four_model, 1, mu, mu) == 0.0
    xi = np.array([0.4, 0.3, 0.2, 0.1])
    assert exact.invariant_continuity_check(kernel_copy(four_model, epsilon=0.0), 1, mu, xi) == 0.0


def test_invariant_continuity_finite_battery(four_model):
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.05, 1.0, 4)
        mu /= mu.sum()
        xi = rng.uniform(0.05, 1.0, 4)
        xi /= xi.sum()
        ratio = exact.invariant_continuity_check(four_model, 1, mu, xi)
        assert np.isfinite(ratio) and ratio >= 0.0
        worst = max(worst, ratio)
    assert worst > 0.0  # the battery actually exercises distinct kernels


def test_row_stochastic_everywhere(four_model, eight_model):
    rng = np.random.default_rng(53)
    for model in (four_model, eight_model):
        size = model.ladder.space.size
        mu = rng.uniform(0.05, 1.0, size)
        mu /= mu.sum()
        for M in (
            exact.k_matrix(model, 1),
            exact.q_matrix(model, 1, mu),
            exact.interacting_matrix(model, 1, mu, 0.3),
            exact.interacting_matrix(kernel_copy(model, variant="ee-jump"), 1, mu, 0.3),
        ):
            assert np.all(M >= 0.0)
            np.testing.assert_allclose(M.sum(axis=1), np.ones(size), atol=1e-12)


# ---------------------------------------------------------------------------
# stacks: a (B, S) battery gives item for item the bits of B single calls
# ---------------------------------------------------------------------------

STACK_SHAPES = [(4, 2, "neighbor"), (5, 2, "uniform"), (7, 3, "neighbor"), (8, 3, "uniform")]


def random_model(rng, size, d, proposal, variant="selection-mutation"):
    space = FiniteSpace(size)
    ladder = DensityLadder(space, [rng.normal(size=size) / 3.0, rng.normal(size=size)])
    partition = RingPartition(space, labels=rng.permutation(np.arange(size) % d))
    return KernelSet(ladder, partition, [PROPOSALS[proposal]()] * 2, epsilon=0.4,
                     variant=variant)


def random_measures(rng, n, size):
    mus = rng.uniform(0.05, 1.0, (n, size))
    return mus / mus.sum(axis=1, keepdims=True)


@pytest.fixture(params=STACK_SHAPES, ids=lambda shape: "S{}-d{}-{}".format(*shape))
def stack_case(request):
    size, d, proposal = request.param
    rng = np.random.default_rng([909, size, d])
    return random_model(rng, size, d, proposal), rng, random_measures(rng, 12, size)


def builders(model, eps):
    jump = kernel_copy(model, variant="ee-jump")
    return {
        "q": lambda mu: exact.q_matrix(model, 1, mu),
        "ee_jump": lambda mu: exact.ee_jump_matrix(model, 1, mu),
        "interacting": lambda mu: exact.interacting_matrix(model, 1, mu, eps),
        "interacting_ee_jump": lambda mu: exact.interacting_matrix(jump, 1, mu, eps),
    }


@pytest.mark.parametrize("eps", [None, 0.0, 0.7, 1.0])
def test_builders_on_a_stack_match_single_measures(stack_case, eps):
    model, _, mus = stack_case
    masses, W = exact.ring_conditionals(model, mus)
    singles = [exact.ring_conditionals(model, mu) for mu in mus]
    assert np.array_equal(masses, np.array([m for m, _ in singles]))
    assert np.array_equal(W, np.array([w for _, w in singles]))
    for name, build in builders(model, eps).items():
        stacked = build(mus)
        assert stacked.shape == (len(mus), *W.shape[1:]), name
        assert np.array_equal(stacked, np.array([build(mu) for mu in mus])), name


def test_builders_with_empty_rings_on_a_stack(stack_case):
    # every third measure loses ring 1, so those rows take the local K row
    model, _, mus = stack_case
    mus = mus.copy()
    mus[::3, model.partition.labels() == 1] = 0.0
    mus /= mus.sum(axis=1, keepdims=True)
    K = exact.k_matrix(model, 1)
    ring1 = model.partition.labels() == 1
    for name, build in builders(model, 0.6).items():
        stacked = build(mus)
        singles = np.array([build(mu) for mu in mus])
        assert np.array_equal(stacked, singles), name
    Q = exact.q_matrix(model, 1, mus)
    assert np.array_equal(Q[::3][:, ring1], np.broadcast_to(K[ring1], Q[::3][:, ring1].shape))


def test_stationary_and_tv_on_a_stack_match_single_calls(stack_case):
    model, _, mus = stack_case
    jump = kernel_copy(model, variant="ee-jump")
    for P in (exact.interacting_matrix(model, 1, mus), exact.interacting_matrix(jump, 1, mus, 0.5)):
        w = exact.stationary(P)
        assert np.array_equal(w, np.array([exact.stationary(p) for p in P]))
        xi = np.roll(w, 1, axis=0)
        tv = tv_distance(w, xi)
        assert tv.shape == (len(w),)
        assert np.array_equal(tv, np.array([tv_distance(a, b) for a, b in zip(w, xi)]))
    assert exact.stationary(np.empty((0, 3, 3))).shape == (0, 3)


def test_poisson_and_rate_on_a_stack_match_single_calls(stack_case):
    model, rng, mus = stack_case
    Ps = exact.interacting_matrix(model, 1, mus)
    fs = rng.uniform(-1.0, 1.0, mus.shape)
    sol = exact.poisson_solve(Ps, fs)
    singles = [exact.poisson_solve(P, f) for P, f in zip(Ps, fs)]
    for name in ("fhat", "f", "omega", "omega_f", "residual"):
        assert np.array_equal(getattr(sol, name), [getattr(s, name) for s in singles]), name
    assert isinstance(singles[0].omega_f, float) and isinstance(singles[0].residual, float)
    partials = [exact.poisson_series_partial(P, f, 30) for P, f in zip(Ps, fs)]
    rates = [exact.geometric_rate_estimate(P) for P in Ps]
    for omega in (None, sol.omega):
        assert np.array_equal(exact.poisson_series_partial(Ps, fs, 30, omega=omega), partials)
        rate = exact.geometric_rate_estimate(Ps, omega=omega)
        for name in ("rho", "rho_fitted", "tv_curve"):
            assert np.array_equal(getattr(rate, name), [getattr(r, name) for r in rates]), name
    assert isinstance(rates[0].rho, float) and isinstance(rates[0].rho_fitted, float)
    assert rate.tv_curve.shape == (len(Ps), 50)


def test_singular_system_raises_numerical_error(monkeypatch):
    # the identity is reducible: its square system (I - P + 1 1^T)^T is all ones
    with pytest.raises(NumericalError, match="stationary solve failed: Singular matrix"):
        exact.stationary(np.eye(3))
    solve = np.linalg.solve

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    good = np.full((2, 3, 3), 1.0 / 3.0)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalError, match="stationary solve failed: Singular matrix"):
        exact.stationary(good)
    solvers = iter([solve, singular])  # the stationary solve, then the fundamental matrix
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: next(solvers)(a, b))
    with pytest.raises(NumericalError, match="fundamental-matrix solve failed: Singular"):
        exact.poisson_solve(good, np.ones((2, 3)))


def test_feeder_checks_on_a_stack_match_single_pairs(stack_case):
    model, rng, mus = stack_case
    size = mus.shape[1]
    xis = random_measures(rng, len(mus), size)
    xis[4] = mus[4]  # identical conditionals: both checks report 0
    fs = rng.uniform(-1.0, 1.0, (len(mus), 15, size))
    lip = exact.lipschitz_check(model, 1, mus, xis, fs)
    cont = exact.invariant_continuity_check(model, 1, mus, xis)
    assert lip.shape == cont.shape == (len(mus),)
    assert np.array_equal(
        lip, [exact.lipschitz_check(model, 1, m, x, f) for m, x, f in zip(mus, xis, fs)]
    )
    assert np.array_equal(
        cont, [exact.invariant_continuity_check(model, 1, m, x) for m, x in zip(mus, xis)]
    )
    assert lip[4] == cont[4] == 0.0
    assert isinstance(exact.lipschitz_check(model, 1, mus[0], xis[0], fs[0]), float)
    assert isinstance(exact.invariant_continuity_check(model, 1, mus[0], xis[0]), float)


def test_stacked_zero_mass_ring_names_measure_and_ring(four_model):
    mus = np.full((3, 4), 0.25)
    mus[2] = [0.0, 0.0, 0.5, 0.5]
    with pytest.raises(StabilityError, match="feeder measure 2 has zero mass on ring 0"):
        exact.ring_conditionals(four_model, mus)
    with pytest.raises(StabilityError, match="feeder measure has zero mass on ring 0"):
        exact.ring_conditionals(four_model, mus[2])


def test_stacked_bad_matrix_names_its_index(monkeypatch):
    good = np.full((3, 3), 1.0 / 3.0)
    not_stochastic = np.array([[0.5, 0.4, 0.1], [0.3, 0.7, 0.1], [0.2, 0.2, 0.6]])
    negative = np.array([[1.2, -0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NumericalError, match=r"rows deviate .*matrix 1 of the stack"):
        exact.stationary(np.array([good, not_stochastic, good]))
    with pytest.raises(NumericalError, match=r"negative entries \(matrix 2 of the stack"):
        exact.assert_row_stochastic(np.array([good, good, negative]))
    # a solver answer off the residual contract for the second matrix only
    solve = np.linalg.solve

    def second_off(a, b):
        w = solve(a, b)
        w[1, :, 0] = [0.5, 0.5, 0.0]
        return w

    monkeypatch.setattr(np.linalg, "solve", second_off)
    with pytest.raises(NumericalError, match=r"stationary solve failed \(matrix 1 of"):
        exact.stationary(np.array([good, good]))


def sequential_composition_rhs(model, mu, f, q):
    """The ring-sum side of the composition identity, one draw tuple at a
    time: the reference the stacked enumeration must reproduce bit for bit.
    The move after the swap is K for selection-mutation and staying put for
    the ee-jump."""
    import itertools

    labels = model.partition.labels()
    d = model.partition.d
    masses, _ = exact.ring_conditionals(model, mu)
    K, A = exact.k_matrix(model, 1), model.swap_table(1)
    M = np.eye(len(mu)) if model.variant == "ee-jump" else K
    pair_kernel = A[:, :, None] * M[None, :, :] + (1.0 - A)[:, :, None] * M[:, None, :]
    indicator = [(labels == j).astype(float) for j in range(d)]
    rhs = np.zeros(len(mu))
    for rings in itertools.product(range(d), repeat=q):
        start_coeff = indicator[rings[0]] / np.prod([masses[j] for j in rings])
        members = (np.nonzero(labels == j)[0] for j in rings)
        for draws in itertools.product(*members):
            weight = np.prod([mu[x] for x in draws])
            vec = f
            for j in range(q - 1, 0, -1):
                vec = indicator[rings[j]] * (pair_kernel[:, draws[j], :] @ vec)
            rhs += start_coeff * weight * (pair_kernel[:, draws[0], :] @ vec)
    return rhs


@pytest.mark.parametrize("q", [1, 2, 3])
def test_composition_identity_matches_sequential_enumeration(stack_case, q):
    model, rng, mus = stack_case
    jump = kernel_copy(model, variant="ee-jump")
    for model, interaction in ((model, exact.q_matrix), (jump, exact.ee_jump_matrix)):
        for mu in mus[:3]:
            f = rng.uniform(-1.0, 1.0, len(mu))
            lhs = np.linalg.matrix_power(interaction(model, 1, mu), q) @ f
            expected = float(np.abs(lhs - sequential_composition_rhs(model, mu, f, q)).max())
            assert exact.composition_identity_check(model, 1, mu, f, q) == expected


@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
def test_composition_check_on_a_stack_matches_single_calls(variant):
    # S 4..8 and every ring count up to 3, single rings of 8 states too,
    # whose masses are summed pairwise; one measure has a zero-weight state
    for size in range(4, 9):
        for d in (1, 2, 3):
            rng = np.random.default_rng([913, size, d])
            model = random_model(rng, size, d, ("uniform", "neighbor")[size % 2], variant)
            mus = random_measures(rng, 4, size)
            mus[3, np.argmax(model.partition.labels() == 0)] = 0.0
            mus[3] /= mus[3].sum()
            masses = exact.ring_conditionals(model, mus)[0]
            assert np.array_equal(masses, [exact.ring_conditionals(model, mu)[0] for mu in mus])
            fs = rng.uniform(-1.0, 1.0, mus.shape)
            for q in (1, 2, 3):
                stacked = exact.composition_identity_check(model, 1, mus, fs, q)
                singles = [exact.composition_identity_check(model, 1, mu, f, q)
                           for mu, f in zip(mus, fs)]
                assert stacked.shape == (4,) and np.array_equal(stacked, singles), (size, d, q)
                assert stacked.max() < 1e-10
    assert isinstance(singles[0], float)


@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
def test_interacting_matrix_at_epsilon_one_is_the_interaction(stack_case, variant):
    # the checks read the variant's interaction as the kernel at epsilon 1
    model, _, mus = stack_case
    model = kernel_copy(model, variant=variant)
    interaction = exact.ee_jump_matrix if variant == "ee-jump" else exact.q_matrix
    assert np.array_equal(exact.interacting_matrix(model, 1, mus, 1.0),
                          interaction(model, 1, mus))
