import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_numpy_logpdf, single_ring
from eesampler.config import _gaussian_mixture_logpdf
from eesampler.errors import ConfigurationError, DomainError
from eesampler.state_space import (
    BoxSpace,
    DensityLadder,
    FiniteSpace,
    RingPartition,
    ladder_masses,
    tempered_ladder,
)


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_finite_space_needs_two_states():
    with pytest.raises(ConfigurationError):
        FiniteSpace(1)


def test_finite_space_membership():
    space = FiniteSpace(4)
    assert space.contains(0) and space.contains(3)
    assert not space.contains(4) and not space.contains(-1)
    with pytest.raises(DomainError):
        space.require(7)


@pytest.mark.parametrize(
    "lower,upper",
    [([0.0], [0.0]), ([1.0], [0.0]), ([0.0, 0.0], [1.0]), ([-np.inf], [1.0])],
)
def test_box_space_bad_bounds(lower, upper):
    with pytest.raises(ConfigurationError):
        BoxSpace(lower, upper)


def test_box_space_membership():
    space = BoxSpace([-1.0, 0.0], [1.0, 2.0])
    assert space.contains(np.array([0.0, 1.0]))
    assert not space.contains(np.array([0.0, 3.0]))


def test_box_space_membership_edges():
    space = BoxSpace([-1.0, 0.0], [1.0, 2.0])
    assert space.contains(np.array([-1.0, 0.0])) and space.contains(np.array([1.0, 2.0]))
    assert space.contains([1.0, 0.0])
    assert not space.contains(np.array([np.nan, 1.0]))
    assert not space.contains(np.array([0.0, np.nan]))
    for wrong_shape in (np.array([0.0]), np.array([0.0, 1.0, 1.0]), np.zeros((2, 1)), 0.5):
        assert not space.contains(wrong_shape)


def test_box_points_are_tuples_of_floats():
    space = BoxSpace([-1.0, 0.0], [1.0, 2.0])
    for x in ([0.5, 1], np.array([0.5, 1.0]), (np.float64(0.5), 1)):
        point = space.require(x)
        assert point == (0.5, 1.0)
        assert type(point) is tuple and all(type(v) is float for v in point)
    assert not space.contains((0.5,)) and not space.contains((0.5, 1.0, 1.0))
    assert not space.contains((float("nan"), 1.0)) and not space.contains((0.5, 2.5))
    with pytest.raises(DomainError):
        space.require((0.5, 2.5))


# ---------------------------------------------------------------------------
# the gaussian mixture in floats
# ---------------------------------------------------------------------------

# 8 and 130 components reach numpy's 8-accumulator block and its split
# above 128 terms
@pytest.mark.parametrize("components", [1, 2, 7, 8, 9, 17, 130])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_float_mixture_equals_numpy_form_bit_for_bit(dim, components):
    rng = np.random.default_rng(100 * dim + components)
    means = rng.uniform(-3.0, 3.0, (components, dim))
    scales = rng.uniform(0.05, 1.0, components)
    scales[0] = 0.02  # a narrow component, negligible almost everywhere
    weights = rng.uniform(0.1, 1.0, components)
    logpdf = _gaussian_mixture_logpdf(means.tolist(), scales.tolist(), weights.tolist(), dim)
    reference = reference_numpy_logpdf(means, scales, weights)
    # box [-3, 3]^dim: its corners and edge midpoints, uniform points, the means
    points = [*itertools.product([-3.0, 0.0, 3.0], repeat=dim),
              *map(tuple, rng.uniform(-3.0, 3.0, (200, dim)).tolist()),
              *map(tuple, means.tolist())]
    underflows = 0
    for x in points:
        assert logpdf(x).hex() == reference(x).hex(), x
        comp = (np.log(weights) - 0.5 * ((np.asarray(x) - means) ** 2).sum(axis=1) / scales**2
                - dim * np.log(scales))
        underflows += bool(np.any(np.exp(comp - comp.max()) == 0.0))
    if components > 1:  # the set reaches tails where exp underflows to 0
        assert underflows > 0


@pytest.mark.parametrize(
    "means,scales,weights",
    [([[0.0, 1.0]], [1.0], [1.0]), ([[[0.0]]], [1.0], [1.0]),
     ([[0.0], [1.0]], [1.0, 1.0, 1.0], [1.0, 1.0]), ([[0.0], [1.0]], 0.5, [1.0, 1.0]),
     ([], [], [])],
    ids=["dim", "nested", "scales", "scalar-scale", "empty"],
)
def test_float_mixture_rejects_bad_shapes(means, scales, weights):
    with pytest.raises(ConfigurationError):
        _gaussian_mixture_logpdf(means, scales, weights, 1)


# ---------------------------------------------------------------------------
# tempered ladders
# ---------------------------------------------------------------------------

def test_single_temperature_is_identity():
    space = FiniteSpace(3)
    base = np.log([0.2, 0.3, 0.5])
    ladder = tempered_ladder(space, base, [1.0])
    assert ladder.r == 1
    np.testing.assert_allclose(ladder.log_table()[0], base)


def test_quadratic_tempering_on_box():
    space = BoxSpace([-5.0], [5.0])
    ladder = tempered_ladder(space, lambda x: -float(x[0]) ** 2, [4.0, 1.0])
    for v in (0.0, 0.5, 2.0):
        x = np.array([v])
        assert ladder.log_density(0, x) == pytest.approx(-(v**2) / 4.0)
        assert ladder.log_density(1, x) == pytest.approx(-(v**2))


def test_tempered_box_levels_share_one_base_evaluation():
    calls = []

    def base(x):
        calls.append(x.tobytes())
        return -float(np.sum(x**2)) + 0.1 * float(x[0])

    temps = [8.0, 3.0, 1.0]
    ladder = tempered_ladder(BoxSpace([-2.0, -2.0], [2.0, 2.0]), base, temps)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.0, 2.0, size=(20, 2)):
        before = len(calls)
        levels = ladder.log_densities(x)
        assert len(calls) - before == 1  # one base call for all levels
        assert len(levels) == len(temps)
        for i, t in enumerate(temps):
            assert levels[i] == base(x) / t  # exact, not approx
            assert levels[i] == ladder.log_density(i, x)


def test_finite_tempering_matches_direct_exponentiation():
    # oracle: density^(1/2) renormalized, computed by hand
    base = np.array([1.0, 1.0, 2.0, 4.0]) / 8.0
    expected = np.array([1.0, 1.0, np.sqrt(2.0), 2.0])
    expected /= expected.sum()
    ladder = tempered_ladder(FiniteSpace(4), np.log(base), [2.0, 1.0])
    np.testing.assert_allclose(ladder.density_table()[0], expected, atol=1e-14)
    np.testing.assert_allclose(ladder.density_table()[1], base, atol=1e-14)


@pytest.mark.parametrize(
    "temps", [[0.0, 1.0], [-2.0, 1.0], [1.0, 2.0], [4.0, 2.0], [2.0], []]
)
def test_temperature_validation(temps):
    with pytest.raises(ConfigurationError):
        tempered_ladder(FiniteSpace(2), np.zeros(2), temps)


def test_ladder_rejects_non_finite_log_density():
    with pytest.raises(ConfigurationError):
        DensityLadder(FiniteSpace(3), [np.array([0.0, -np.inf, 0.0])])


def test_ladder_level_count():
    with pytest.raises(ConfigurationError):
        DensityLadder(FiniteSpace(2), [])


def test_box_ladder_is_only_a_tempered_base():
    space = BoxSpace([0.0], [1.0])
    for levels in ([lambda x: 0.0], [np.zeros(3)]):  # per-level callables, a table
        with pytest.raises(ConfigurationError):
            DensityLadder(space, levels)
    with pytest.raises(ConfigurationError):
        tempered_ladder(space, np.zeros(3), [1.0])


# ---------------------------------------------------------------------------
# ring assignment
# ---------------------------------------------------------------------------

def test_single_ring_partition():
    part = single_ring(FiniteSpace(5))
    assert part.d == 1
    assert all(part.assign(s) == 0 for s in range(5))


def test_label_lookup_canonicalizes():
    part = RingPartition(FiniteSpace(4), labels=[1, 1, 2, 2])
    assert part.d == 2
    assert part.assign(2) == 1  # second ring, 0-based
    assert [part.assign(s) for s in range(4)] == [0, 0, 1, 1]


def test_labels_canonicalize_in_sorted_label_order():
    part = RingPartition(FiniteSpace(5), labels=np.array([5, -2, 5, 0, -2]))
    assert part.d == 3
    assert part.labels().tolist() == [2, 0, 2, 1, 0]


def test_config_resolution_leaves_numpy_ma_unimported():
    # numpy.ma costs a start-up its users never need; np.unique imports it
    src = Path(__file__).resolve().parent.parent / "src"
    configs = Path(__file__).resolve().parent.parent / "configs"
    code = (
        "import json, pathlib, sys\n"
        "import eesampler.cli\n"
        "from eesampler.config import config_from_dict\n"
        f"for path in sorted(pathlib.Path({str(configs)!r}).glob('*.json')):\n"
        "    config_from_dict(json.loads(path.read_text()))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_energy_threshold_assignment():
    space = BoxSpace([-3.0], [3.0])
    ladder = tempered_ladder(space, lambda x: -float(x[0]) ** 2, [1.0])
    part = RingPartition(space, ladder=ladder, thresholds=[1.0])
    assert part.d == 2
    assert part.assign(np.array([0.5])) == 0
    assert part.assign(np.array([2.0])) == 1


def test_assign_out_of_domain():
    part = RingPartition(FiniteSpace(4), labels=[0, 0, 1, 1])
    with pytest.raises(DomainError):
        part.assign(9)


def test_partition_totality():
    part = RingPartition(FiniteSpace(6), labels=[0, 2, 1, 0, 2, 1])
    seen = [part.assign(s) for s in range(6)]
    assert all(0 <= j < part.d for j in seen)


@pytest.mark.parametrize("labels", [[0, 0, 1], [0] * 5])
def test_label_shape_validation(labels):
    with pytest.raises(ConfigurationError):
        RingPartition(FiniteSpace(4), labels=labels)


def test_decreasing_thresholds_rejected():
    space = BoxSpace([0.0], [1.0])
    ladder = tempered_ladder(space, lambda x: 0.0, [1.0])
    with pytest.raises(ConfigurationError):
        RingPartition(space, ladder=ladder, thresholds=[2.0, 1.0])


def test_threshold_partition_needs_the_ladder_of_its_space():
    ladder = tempered_ladder(BoxSpace([0.0], [1.0]), lambda x: 0.0, [1.0])
    with pytest.raises(ConfigurationError):
        RingPartition(BoxSpace([0.0], [1.0]), ladder=ladder, thresholds=[1.0])
    with pytest.raises(ConfigurationError):
        RingPartition(FiniteSpace(3), thresholds=[1.0])


def _thresholds_on_energies(rng, energies):
    """Strictly increasing thresholds: some set exactly on given energies,
    some drawn around them."""
    finite = energies[np.isfinite(energies)]
    on = rng.choice(finite, size=int(rng.integers(0, min(3, finite.size) + 1)), replace=False)
    around = rng.uniform(finite.min() - 1.0, finite.max() + 1.0, int(rng.integers(0, 3)))
    return np.unique(np.concatenate([on, around]))


@pytest.mark.parametrize("kind", ["finite", "box"])
def test_threshold_rings_are_bands_of_the_target_energy(kind):
    # generated tempered ladders; the reference ring of x is
    # searchsorted(thresholds, -log_target(x), side="right"), with the
    # target's log-density computed here, so a NaN energy is the last ring
    for case in range(60):
        rng = np.random.default_rng([0xBA4D, case, kind == "box"])
        temps = sorted(rng.uniform(1.5, 6.0, int(rng.integers(0, 3))).tolist(),
                       reverse=True) + [1.0]
        if kind == "finite":
            size = int(rng.integers(2, 9))
            log_target = rng.normal(size=size)
            ladder = tempered_ladder(FiniteSpace(size), log_target, temps)
            points = list(range(size))
            energies = -log_target
        else:
            dim = int(rng.integers(1, 3))
            space = BoxSpace([-2.0] * dim, [2.0] * dim)
            points = [space.require(p) for p in rng.uniform(-2.0, 2.0, (12, dim))]
            coef = rng.uniform(0.5, 2.0, dim).tolist()
            nan_at = points[0]

            def log_target(x, coef=coef, nan_at=nan_at):
                if x == nan_at:
                    return float("nan")
                return -sum(c * v * v for c, v in zip(coef, x))

            ladder = tempered_ladder(space, log_target, temps)
            energies = np.array([-log_target(x) for x in points])
        thresholds = _thresholds_on_energies(rng, energies)
        part = RingPartition(ladder.space, ladder=ladder, thresholds=thresholds)
        assert part.d == thresholds.size + 1
        want = np.searchsorted(thresholds, energies, side="right")
        assert [part.assign(x) for x in points] == want.tolist(), case
        assert [part.assign_point(x, ladder.log_densities(x)) for x in points] == want.tolist()
        if kind == "finite":
            assert part.labels().tolist() == want.tolist()
        else:
            assert part.assign(points[0]) == part.d - 1  # the NaN energy


# ---------------------------------------------------------------------------
# ladder masses
# ---------------------------------------------------------------------------

def test_masses_uniform_equal_rings():
    ladder = DensityLadder(FiniteSpace(4), [np.zeros(4)])
    part = RingPartition(FiniteSpace(4), labels=[0, 0, 1, 1])
    np.testing.assert_allclose(ladder_masses(ladder, part), [[0.5, 0.5]])


def test_masses_hand_summed():
    # oracle: exact summation of (1,1,2,4)/8 over rings {0,1} and {2,3}
    ladder = DensityLadder(FiniteSpace(4), [np.log([1.0, 1.0, 2.0, 4.0])])
    part = RingPartition(FiniteSpace(4), labels=[0, 0, 1, 1])
    np.testing.assert_allclose(ladder_masses(ladder, part), [[0.25, 0.75]], atol=1e-14)


def test_masses_single_ring_is_total_mass():
    ladder = DensityLadder(FiniteSpace(3), [np.log([3.0, 2.0, 5.0])])
    part = single_ring(FiniteSpace(3))
    np.testing.assert_allclose(ladder_masses(ladder, part), [[1.0]], atol=1e-14)


def test_masses_rows_sum_to_one():
    rng = np.random.default_rng(11)
    ladder = DensityLadder(FiniteSpace(6), [rng.normal(size=6) for _ in range(3)])
    part = RingPartition(FiniteSpace(6), labels=[0, 1, 2, 0, 1, 2])
    masses = ladder_masses(ladder, part)
    np.testing.assert_allclose(masses.sum(axis=1), np.ones(3), atol=1e-12)
    assert np.all(masses > 0)


def test_masses_zero_ring_is_error():
    ladder = tempered_ladder(FiniteSpace(4), np.log([1.0, 1.0, 2.0, 4.0]), [1.0])
    part = RingPartition(ladder.space, ladder=ladder, thresholds=[5.0])  # ring 1 empty
    with pytest.raises(ConfigurationError):
        ladder_masses(ladder, part)


def test_masses_need_a_finite_space():
    space = BoxSpace([-3.0], [3.0])
    ladder = tempered_ladder(space, lambda x: -float(x[0]) ** 2, [2.0, 1.0])
    with pytest.raises(ConfigurationError):
        ladder_masses(ladder, single_ring(space, ladder))
