import numpy as np
import pytest

from conftest import as_vector, atoms, make_model, ring_mass, single_ring, total_count
from eesampler import exact
from eesampler.errors import ConfigurationError, StabilityError
from eesampler.measures import EmpiricalMeasure, StabilityMonitor, tv_distance
from eesampler.state_space import BoxSpace, FiniteSpace, RingPartition, tempered_ladder


def two_ring_measure(inserted=()):
    part = RingPartition(FiniteSpace(4), labels=[0, 0, 1, 1])
    m = EmpiricalMeasure(part)
    for a in inserted:
        m.insert(a)
    return m


def conditional(m, x, size=4):
    """mu_x as a vector: the atoms of ring(x), with multiplicity, over their count."""
    ring = m.partition.assign(x)
    return np.bincount(list(atoms(m, ring)), minlength=size) / m.ring_count(ring)


# ---------------------------------------------------------------------------
# insertion / update consistency
# ---------------------------------------------------------------------------

def test_two_atom_average():
    m = two_ring_measure([0])
    m.insert(2)
    np.testing.assert_allclose(as_vector(m, FiniteSpace(4)), [0.5, 0.0, 0.5, 0.0])
    np.testing.assert_allclose(m.masses(), [0.5, 0.5])


def test_counting_with_multiplicity():
    m = two_ring_measure([0, 2])
    m.insert(0)
    np.testing.assert_allclose(as_vector(m, FiniteSpace(4)), [2 / 3, 0.0, 1 / 3, 0.0])


def test_recursive_update_matches_batch_recount():
    # oracle: recount ring membership from scratch after every insertion
    rng = np.random.default_rng(314)
    part = RingPartition(FiniteSpace(6), labels=[0, 1, 2, 0, 1, 2])
    m = EmpiricalMeasure(part)
    inserted = []
    for x in rng.integers(6, size=1000):
        m.insert(int(x))
        inserted.append(int(x))
        counts = np.zeros(3)
        for a in inserted:
            counts[part.assign(a)] += 1
        assert total_count(m) == len(inserted)
        np.testing.assert_array_equal(
            [m.ring_count(j) for j in range(3)], counts.astype(int)
        )
        np.testing.assert_allclose(m.masses(), counts / len(inserted))


def test_insert_returns_the_ring_of_the_atom():
    m = two_ring_measure()
    for x in (3, 0, 2, 1, 1):
        assert m.insert(x) == m.partition.assign(x)
    space = BoxSpace([-2.0], [2.0])
    box = RingPartition(space, ladder=tempered_ladder(space, lambda x: -float(x[0]) ** 2, [1.0]),
                        thresholds=[0.5, 2.0])
    m = EmpiricalMeasure(box)
    for v in (0.0, -1.0, 1.9, 0.5**0.5, -1.2):
        x = np.array([v])
        assert m.insert(x) == box.assign(x)
    assert [m.ring_count(j) for j in range(3)] == [1, 3, 1]


def test_insertion_order_preserved():
    m = two_ring_measure([0, 1, 0, 1])
    assert list(atoms(m, 0)) == [0, 1, 0, 1]


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_uniform_conditioning():
    m = two_ring_measure([0, 1, 2, 3])
    mu_x = conditional(m, 2)
    np.testing.assert_allclose(mu_x, [0, 0, 0.5, 0.5])
    assert mu_x[[2, 3]].sum() == 1.0


def test_restrict_single_atom_ring():
    m = two_ring_measure([0, 0, 2])
    np.testing.assert_allclose(conditional(m, 0), [1.0, 0, 0, 0])


def test_restrict_identity_battery():
    # the oracle's conditionals of the measure's vector are the ring's atom
    # frequencies, and mu_x(A) * S(E_ring) == S(E_ring intersect A)
    rng = np.random.default_rng(99)
    labels = [0, 0, 1, 1, 2, 2]
    model = make_model([np.zeros(6)], labels=labels)
    space = model.ladder.space
    for _ in range(100):
        m = EmpiricalMeasure(model.partition)
        for x in rng.integers(6, size=int(rng.integers(6, 60))):
            m.insert(int(x))
        _, W = exact.ring_conditionals(model, as_vector(m, space), allow_empty=True)
        for x in range(6):
            ring = labels[x]
            if m.ring_count(ring) == 0:
                np.testing.assert_array_equal(W[x], 0.0)
                continue
            mu_x = conditional(m, x, size=6)
            np.testing.assert_allclose(W[x], mu_x, rtol=0, atol=1e-14)
            subset = rng.choice(6, size=int(rng.integers(1, 6)), replace=False)
            rhs = sum(1 for a in atoms(m, ring) if a in subset) / total_count(m)
            assert mu_x[subset].sum() * ring_mass(m, ring) == pytest.approx(rhs, abs=1e-14)


def test_restrict_empty_ring_raises():
    model = make_model([np.zeros(4)], labels=[0, 0, 1, 1])
    m = EmpiricalMeasure(model.partition)
    m.insert(0)
    with pytest.raises(StabilityError):
        exact.ring_conditionals(model, as_vector(m, model.ladder.space))


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

def test_draw_single_atom():
    m = two_ring_measure([2])
    rng = np.random.default_rng(0)
    assert all(m.draw(1, rng)[0] == 2 for _ in range(10))


def test_draw_respects_multiplicity():
    # atoms (a, a, b) in one ring: a with prob 2/3 over 1e5 draws, 3 s.e. band
    m = two_ring_measure([0, 0, 1])
    rng = np.random.default_rng(123)
    n = 100_000
    hits = sum(1 for _ in range(n) if m.draw(0, rng)[0] == 0)
    p = 2.0 / 3.0
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_draw_deterministic_per_seed():
    m = two_ring_measure([0, 1, 0, 1, 1])
    rng = np.random.default_rng(7)
    draws1 = [m.draw(0, rng)[0] for _ in range(20)]
    rng = np.random.default_rng(7)
    draws2 = [m.draw(0, rng)[0] for _ in range(20)]
    assert draws1 == draws2


def test_draw_empty_ring_raises():
    m = two_ring_measure([0])
    with pytest.raises(StabilityError):
        m.draw(1, np.random.default_rng(1))


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_is_frozen_prefix():
    m = two_ring_measure([0, 2])
    snap = m.snapshot()
    m.insert(1)
    m.insert(3)
    assert total_count(snap) == 2
    assert snap.ring_count(0) == 1 and snap.ring_count(1) == 1
    np.testing.assert_allclose(as_vector(snap, FiniteSpace(4)), [0.5, 0, 0.5, 0])
    assert total_count(m) == 4
    rng = np.random.default_rng(5)
    assert all(snap.draw(0, rng)[0] == 0 for _ in range(20))  # atom 1 not visible


def test_snapshot_restrict():
    m = two_ring_measure([0, 2])
    snap = m.snapshot()
    m.insert(3)
    assert snap.ring_count(1) == 1 and list(atoms(snap, 1)) == [2]
    assert m.ring_count(1) == 2 and list(atoms(m, 1)) == [2, 3]
    np.testing.assert_allclose(conditional(snap, 3), [0, 0, 1.0, 0])


def test_snapshot_insert_raises():
    m = two_ring_measure([0, 2])
    snap = m.snapshot()
    with pytest.raises(StabilityError):
        snap.insert(3)
    assert total_count(snap) == 2 and total_count(m) == 2
    assert list(atoms(m, 1)) == [2]


# ---------------------------------------------------------------------------
# stability monitoring
# ---------------------------------------------------------------------------

def watch(monitor, m, step, chain=0):
    """The scalar engine's call: a measure's ring count list and its total."""
    return monitor.check(m.counts, m.total, min(m.counts), step, chain)


def test_single_ring_never_violates():
    part = single_ring(FiniteSpace(3))
    m = EmpiricalMeasure(part)
    m.insert(0)
    monitor = StabilityMonitor(theta=1.0)
    assert watch(monitor, m, step=1) == []
    assert monitor.violations == 0 and monitor.min_mass_seen == 1.0


def test_empty_ring_violates():
    m = two_ring_measure([0])
    monitor = StabilityMonitor(theta=0.1)
    assert watch(monitor, m, step=3) == [(1,)]
    assert monitor.violations == 1
    assert monitor.min_mass_seen == 0.0


def test_threshold_comparison():
    m = two_ring_measure([0, 2, 2, 2])  # masses (0.25, 0.75)
    monitor = StabilityMonitor(theta=0.3)
    assert watch(monitor, m, step=9) == [(0,)]
    assert monitor.min_mass_seen == pytest.approx(0.25)


@pytest.mark.parametrize("theta", [0.0, -0.2, 1.5])
def test_theta_validation(theta):
    with pytest.raises(ConfigurationError):
        StabilityMonitor(theta=theta)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_identity():
    assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_tv_disjoint_supports():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_tv_hand_value():
    assert tv_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25)


def test_tv_symmetry_and_triangle():
    rng = np.random.default_rng(202)
    for _ in range(50):
        p, q, s = (rng.dirichlet(np.ones(5)) for _ in range(3))
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, s) <= tv_distance(p, q) + tv_distance(q, s) + 1e-12
        assert 0.0 <= tv_distance(p, q) <= 1.0


@pytest.mark.parametrize(
    "mu,xi",
    [([0.5, 0.5], [0.3, 0.3, 0.4]), ([0.9, 0.3], [0.5, 0.5]), ([-0.1, 1.1], [0.5, 0.5])],
)
def test_tv_contract_errors(mu, xi):
    with pytest.raises(ValueError):
        tv_distance(mu, xi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tv_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        tv_distance([bad, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        tv_distance([0.5, 0.5], [1.0, bad])
    with pytest.raises(ValueError):
        tv_distance([[0.5, 0.5], [bad, 0.0]], [[0.5, 0.5], [0.5, 0.5]])


def test_monitor_fast_path_matches_array_form():
    # the reference is the per-ring array form: masses over the total, their
    # min, and an index for every ring strictly below theta. The same counts
    # go to check as the d-lists of scalar measures, one per replicate, and
    # as the rows of one (R, d) lockstep array
    rng = np.random.default_rng(0x7E7A)
    part = RingPartition(FiniteSpace(4), labels=[0, 1, 2, 3])
    for trial in range(400):
        reps = int(rng.integers(1, 4))
        total = int(rng.integers(1, 16))
        counts = rng.multinomial(total, rng.dirichlet(np.ones(4)), size=reps)
        masses = counts / total
        positive = counts[counts > 0]
        if trial % 2 == 0:  # a threshold exactly at one ring's mass
            theta = int(positive[trial % len(positive)]) / total
        else:
            theta = float(rng.uniform(0.01, 1.0))
        expected = [(i, ring) for i in range(reps) for ring in range(4)
                    if masses[i, ring] < theta]

        rows = StabilityMonitor(theta=theta)
        from_lists = []
        for i, row in enumerate(counts):
            m = EmpiricalMeasure(part)
            for state, c in enumerate(row):
                for _ in range(c):
                    m.insert(state)
            assert m.counts == row.tolist() and m.total == total
            np.testing.assert_array_equal(m.masses(), masses[i])
            from_lists += [(i, *index) for index in watch(rows, m, step=trial, chain=2)]
        array = StabilityMonitor(theta=theta)
        from_array = array.check(counts, total, int(counts.min()), trial, 2)

        assert from_array == expected and from_lists == expected
        assert array.violations == rows.violations == len(expected)
        assert array.min_mass_seen == rows.min_mass_seen == float(masses.min())


def test_monitor_abort_messages():
    # both forms name the round, the chain, the ring and its mass; the
    # lockstep form names the replicate too. The first ring below theta in
    # row-major order is the one reported, after every ring is counted
    scalar = StabilityMonitor(theta=0.5, abort=True)
    with pytest.raises(StabilityError) as info:
        scalar.check([3, 1, 0], 4, 0, 7, 2)
    assert str(info.value) == "round 7: chain 2 ring 1 mass 0.2500 below theta=0.5"
    assert scalar.violations == 2 and scalar.min_mass_seen == 0.0
    lockstep = StabilityMonitor(theta=0.45, abort=True)
    with pytest.raises(StabilityError) as info:
        lockstep.check(np.array([[5, 5], [6, 4], [3, 7]]), 10, 3, 51, 0)
    assert str(info.value) == "round 51: replicate 1 chain 0 ring 1 mass 0.4000 below theta=0.45"
    assert lockstep.violations == 2 and lockstep.min_mass_seen == 0.3
    assert lockstep.check(np.array([[5, 5]]), 10, 5, 52, 0) == []
