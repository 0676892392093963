"""Lockstep engine: vectorised finite-space kernels against the exact oracle,
and the all-replicates ensemble's schedule, snapshots, stability policy and
blocks of rounds."""

import copy
import json
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from conftest import advance, feeder_counts, feeder_of, generated_model, lockstep_step
from eesampler import exact, sampler
from eesampler.config import config_from_dict, four_state_config, four_state_raw
from eesampler.errors import ConfigurationError, StabilityError
from eesampler.experiments import slln_rate_study
from eesampler.kernels import KernelSet, NeighborProposal, UniformProposal
from eesampler.sampler import LockstepEnsemble
from eesampler.state_space import DensityLadder, FiniteSpace, RingPartition

R = 100_000
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CRITERION_7_FEEDER = (0, 1, 1, 2, 3, 3, 0, 2, 3, 1)
PROPOSALS = {"uniform": UniformProposal, "neighbor": NeighborProposal}


def four_model(proposal: str, eps: float = 0.5, variant: str = "selection-mutation"):
    space = FiniteSpace(4)
    ladder = DensityLadder(space, [np.zeros(4), np.log([1.0, 1.0, 2.0, 4.0])])
    partition = RingPartition(space, labels=[0, 0, 1, 1])
    return KernelSet(ladder, partition, [PROPOSALS[proposal]()] * 2, eps, variant)


def worst_z(P, step, rng) -> float:
    """Max |z| of one-step frequencies from every start state, R draws each,
    under criterion 7's rule (3 s.e. of a binomial proportion)."""
    worst = 0.0
    for x0 in range(P.shape[0]):
        freq = np.bincount(step(np.full(R, x0), rng), minlength=P.shape[0]) / R
        se = np.sqrt(P[x0] * (1.0 - P[x0]) / R)
        worst = max(worst, float((np.abs(freq - P[x0]) / np.maximum(se, 1e-12)).max()))
    return worst


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("proposal", sorted(PROPOSALS))
@pytest.mark.parametrize("level", [0, 1])
def test_mh_step_lockstep_matches_k_matrix(proposal, level):
    model = four_model(proposal)
    rng = np.random.default_rng([71, level])
    z = worst_z(exact.k_matrix(model, level),
                lambda x, g: lockstep_step(model, level, x, g), rng)
    assert z <= 3.0


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("proposal", sorted(PROPOSALS))
@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
def test_interacting_step_lockstep_matches_oracle(variant, proposal, eps):
    model = four_model(proposal, eps, variant)
    mu = np.bincount(CRITERION_7_FEEDER, minlength=4) / len(CRITERION_7_FEEDER)
    counts = np.tile(np.bincount(CRITERION_7_FEEDER, minlength=4), (R, 1))
    rng = np.random.default_rng(72)
    z = worst_z(exact.interacting_matrix(model, 1, mu),
                lambda x, g: lockstep_step(model, 1, x, g, counts), rng)
    assert z <= 3.0


@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
def test_interacting_step_lockstep_empty_ring_falls_back(variant):
    model = four_model("uniform", 0.5, variant)
    atoms = (0, 1, 1, 0)  # ring {2, 3} holds no feeder atoms
    mu = np.bincount(atoms, minlength=4) / len(atoms)
    counts = np.tile(np.bincount(atoms, minlength=4), (R, 1))
    P = exact.interacting_matrix(model, 1, mu)
    np.testing.assert_allclose(P[2:], exact.k_matrix(model, 1)[2:])
    rng = np.random.default_rng(73)
    z = worst_z(P, lambda x, g: lockstep_step(model, 1, x, g, counts), rng)
    assert z <= 3.0


def test_interacting_step_lockstep_reads_each_replicates_own_feeder():
    # replicate 0's feeder holds only state 3, replicate 1's only state 2; with
    # equal levels every swap is accepted, so an ee-jump lands on that atom
    space = FiniteSpace(4)
    logw = np.log([1.0, 1.0, 2.0, 4.0])
    partition = RingPartition(space, labels=[0, 0, 1, 1])
    model = KernelSet(DensityLadder(space, [logw, logw]), partition,
                      [UniformProposal()] * 2, epsilon=1.0, variant="ee-jump")
    counts = np.array([[5, 0, 0, 7], [0, 9, 4, 0]])
    rng = np.random.default_rng(74)
    for _ in range(20):
        out = lockstep_step(model, 1, np.array([2, 3]), rng, counts)
        assert out.tolist() == [3, 2]


# Generated cross-check: one lockstep interacting step from every start
# state of 20 random models against the oracle row. The seed list, the
# family-wise level and the Bonferroni threshold over every (model, x, y)
# cell are fixed before any model is stepped; a failing model is a finding,
# never a reason to change its seed.
CROSSCHECK_SEEDS = tuple(range(4100, 4120))
CROSSCHECK_FWER = 1e-3
VARIANTS = ("selection-mutation", "ee-jump")


def test_generated_models_lockstep_matches_oracle():
    models = [generated_model(i, seed) for i, seed in enumerate(CROSSCHECK_SEEDS)]
    cells = sum(model.ladder.space.size ** 2 for model, _ in models)
    z_max = NormalDist().inv_cdf(1.0 - CROSSCHECK_FWER / (2 * cells))
    assert {m.variant for m, _ in models} == set(VARIANTS)
    assert any(np.any(np.bincount(m.partition.labels(), weights=c) == 0) for m, c in models)
    failures = []
    for seed, (model, counts) in zip(CROSSCHECK_SEEDS, models):
        size = model.ladder.space.size
        P = np.clip(exact.interacting_matrix(model, 1, counts / counts.sum()), 0.0, 1.0)
        rng = np.random.default_rng([seed, 1])
        for x0 in range(size):
            new = lockstep_step(model, 1, np.full(R, x0), rng, counts)
            hits = np.bincount(new, minlength=size)
            # a cell expected to see under one hit is judged at the one-hit scale
            se = np.sqrt(np.maximum(P[x0] * (1.0 - P[x0]), 1.0 / R) / R)
            z = np.abs(hits / R - P[x0]) / se
            if np.any(hits[P[x0] == 0.0] > 0) or z.max() > z_max:
                failures.append((seed, x0, model.variant, float(z.max())))
    assert not failures, f"z threshold {z_max:.3f}: {failures}"


# ---------------------------------------------------------------------------
# acceptance tables
# ---------------------------------------------------------------------------

def table_model(size: int, variant: str, proposal: str, seed: int):
    """A random 3-level model on `size` states with up to 4 rings."""
    rng = np.random.default_rng([seed, size])
    space = FiniteSpace(size)
    d = min(4, size)
    labels = rng.permutation(np.arange(size) % d)
    ladder = DensityLadder(space, [rng.normal(size=size) * s for s in (0.3, 1.0, 3.0)])
    return KernelSet(ladder, RingPartition(space, labels=labels),
                     [PROPOSALS[proposal]()] * 3, 0.5, variant)


@pytest.mark.parametrize("proposal", sorted(PROPOSALS))
@pytest.mark.parametrize("variant", ["selection-mutation", "ee-jump"])
@pytest.mark.parametrize("size", [2, 5, 17, 64])
def test_tables_equal_the_per_pair_form_bit_for_bit(size, variant, proposal):
    # the per-pair form the lockstep steps computed before the tables: 1-D
    # gathers over every (x, y) pair, row-major like the tables
    model = table_model(size, variant, proposal, seed=5)
    logw, rings = model.ladder.log_table(), model.partition.labels()
    x = np.repeat(np.arange(size), size)
    y = np.tile(np.arange(size), size)
    for level in range(3):
        lw = logw[level]
        old = np.exp(np.minimum(0.0, lw[y] - lw[x]))
        assert model.mh_table(level).tobytes() == old.tobytes()
    for level in (1, 2):
        lf, li = logw[level - 1], logw[level]
        old = np.exp(np.minimum(0.0, li[y] + lf[x] - li[x] - lf[y]))
        assert model.swap_table(level).tobytes() == old.tobytes()
    layout = model.ring_layout()
    assert layout.order.tolist() == sorted(range(size), key=lambda s: (rings[s], s))
    np.testing.assert_array_equal(layout.ring_at, rings[layout.order])
    assert layout.ends.tolist() == [int(np.flatnonzero(layout.ring_at == g)[-1])
                                    for g in range(layout.d)]
    for table in (model.mh_table(0), model.swap_table(1)):
        assert table.shape == (size, size)
        with pytest.raises(ValueError):
            table[0, 0] = table[0, 0]
    assert model.mh_table(2) is model.mh_table(2)


def test_lockstep_steps_check_their_level():
    model = table_model(5, "ee-jump", "uniform", seed=6)
    x, counts = np.zeros(3, dtype=np.intp), np.ones((3, 5), dtype=np.int64)
    rng = np.random.default_rng(0)
    idle = rng.bit_generator.state
    for level in (-1, 3):
        with pytest.raises(ConfigurationError, match=r"levels are 0\.\.2"):
            lockstep_step(model, level, x, rng)
    for level in (-1, 0, 3):
        with pytest.raises(ConfigurationError, match="feeder below it"):
            lockstep_step(model, level, x, rng, counts)
    assert rng.bit_generator.state == idle  # checked before any draw


def test_scalar_steps_check_their_level():
    model = table_model(5, "ee-jump", "uniform", seed=6)
    feeder = feeder_of(model, range(5))
    rng = np.random.default_rng(0)
    idle = rng.bit_generator.state
    for level in (-1, 3):
        with pytest.raises(ConfigurationError, match=r"levels are 0\.\.2"):
            model.mh_step(level, 0, rng)
    for level in (-1, 0, 3):
        with pytest.raises(ConfigurationError, match="feeder below it"):
            model.interacting_step(level, 0, feeder, rng)
    assert rng.bit_generator.state == idle  # checked before any draw


# ---------------------------------------------------------------------------
# the engine against its per-element form
# ---------------------------------------------------------------------------

def reference_mh(model, level, x, u_prop, u_mh):
    """The MH move in the per-element gather form."""
    size = model.ladder.space.size
    if isinstance(model.proposals[level], UniformProposal):
        y = (u_prop * size).astype(np.intp)
    else:
        y = (x + np.where(u_prop < 0.5, 0, np.where(u_prop < 0.75, 1, -1))) % size
    logw = model.ladder.log_table()[level]
    return np.where(u_mh < np.exp(np.minimum(0.0, logw[y] - logw[x])), y, x)


def reference_interacting(model, level, x, feeder_counts, rng):
    """The interacting move in the per-element gather form; also returns
    how many replicates took the interaction with an empty feeder ring."""
    rings, logw = model.partition.labels(), model.ladder.log_table()
    u_branch, u_feed, u_swap, u_prop, u_mh = rng.random((5, x.shape[0]))
    cum = np.cumsum(np.where(rings == rings[x][:, None], feeder_counts, 0), axis=1)
    held = cum[:, -1]
    z = np.argmax(cum > (u_feed * held)[:, None], axis=1)
    lf, li = logw[level - 1], logw[level]
    alpha = np.exp(np.minimum(0.0, li[z] + lf[x] - li[x] - lf[z]))
    branch = u_branch < model.epsilons[level]
    take = branch & (held > 0)
    accepted = take & (u_swap < alpha)
    fallbacks = int((branch & (held == 0)).sum())
    if model.variant == "ee-jump":
        local = reference_mh(model, level, x, u_prop, u_mh)
        return np.where(take, np.where(accepted, z, x), local), fallbacks
    return reference_mh(model, level, np.where(accepted, z, x), u_prop, u_mh), fallbacks


def reference_rounds(ens, rounds: int):
    """Replay `rounds` rounds of a fresh LockstepEnsemble one round at a
    time in the gather form, from copies of its generators and arrays, with
    three-index count updates. Returns (the (rounds, R, r) states after
    each round, the (R, r - 1, S) feeder counts, fallbacks)."""
    model, cfg = ens.kernels, ens.config
    rngs = copy.deepcopy(ens.rngs)
    x, counts = ens.states.T.copy(), feeder_counts(ens)
    reps = x.shape[1]
    rows, fallbacks = np.arange(reps), 0
    history = np.empty((rounds, reps, ens.r), dtype=np.intp)
    for n in range(1, rounds + 1):
        feeders = counts.copy() if cfg.strict_snapshot else counts
        for k in range(ens.r):
            if n <= ens.thresholds[k]:
                continue
            if k == 0:
                u_prop, u_mh = rngs[0].random((2, reps))
                new = reference_mh(model, 0, x[0], u_prop, u_mh)
            else:
                new, empty = reference_interacting(model, k, x[k], feeders[:, k - 1], rngs[k])
                fallbacks += empty
            x[k] = new
            if k < ens.r - 1:
                counts[rows, k, new] += 1
        history[n - 1] = x.T
    return history, counts, fallbacks


ENGINE_CASES = {
    # three chains, so chain 1 both reads a feeder and feeds chain 2
    "sequential": dict(kernel={"variant": "selection-mutation", "epsilon": 0.5,
                               "proposal": "neighbor"}),
    "strict": dict(kernel={"variant": "ee-jump", "epsilon": 0.5, "proposal": "uniform"},
                   trace={"snapshot_every": 256, "strict_snapshot": True}),
    # chain 1 starts in ring 1 a round after chain 0, whose atoms then lie
    # in ring 1 in only some replicates
    "empty at activation": dict(kernel={"variant": "ee-jump", "epsilon": 0.9,
                                        "proposal": "uniform"},
                                initial_states=[0, 3, 2],
                                schedule={"offsets": [1, 3], "total_rounds": 64}),
    "frozen": dict(kernel={"variant": "selection-mutation", "epsilon": 0.7,
                           "proposal": "uniform"}),
}


# block budgets: one round per block, three rounds (40 replicates on 4
# states), and the engine's own
BUDGETS = {"one round": 1, "three rounds": 3 * 40 * 5, "default": sampler._ROUND_BLOCK}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_matches_the_gather_form(case, monkeypatch):
    cfg = three_chain_config(replicates=40, **ENGINE_CASES[case])
    # the frozen base holds no atom in ring 1 (a violation the warn policy records)
    frozen = np.array([3, 1, 0, 0]) if case == "frozen" else None
    watched = set()
    for budget, elements in BUDGETS.items():
        monkeypatch.setattr(sampler, "_ROUND_BLOCK", elements)
        ens = LockstepEnsemble(cfg, frozen_feeder=frozen)
        history, counts, fallbacks = reference_rounds(ens, 50)
        blocks = list(ens.blocks(50))
        lengths = [len(block) for block in blocks]
        assert sum(lengths) == 50 and ens.n == 50
        if budget == "one round":
            assert set(lengths) == {1}
        else:  # blocks of several rounds, also ending where a chain activates
            assert len(lengths) > 1 and max(lengths) > 1
            assert budget == "default" or max(lengths) == 3
        np.testing.assert_array_equal(np.concatenate(blocks), history)
        np.testing.assert_array_equal(ens.states, history[-1])
        np.testing.assert_array_equal(feeder_counts(ens), counts)
        assert len({row.tobytes() for row in history[-1]}) > 1
        # the watch sees every round's masses, whatever the blocks
        watched.add((ens.monitor.violations, ens.monitor.min_mass_seen))
    assert len(watched) == 1
    if case == "frozen":
        assert fallbacks > 0 and ens.monitor.violations > 0
    if case == "empty at activation":  # chain 1 first moves in round 2
        assert reference_rounds(LockstepEnsemble(cfg), 2)[2] > 0


def lockstep_split(cfg, chunks, frozen=None, one_round_calls=False):
    """Everything a lockstep run leaves, after stepping it in `chunks` of
    rounds: the states after each round, the feeder counts and sizes, and
    the stability monitor's record."""
    ens = LockstepEnsemble(cfg, frozen_feeder=frozen)
    if one_round_calls:
        states = [ens.step_round() for _ in chunks]
        assert {len(block) for block in states} == {1}
    else:
        states = [advance(ens, rounds) for rounds in chunks]
    assert ens.n == cfg.total_rounds
    return (np.concatenate(states), feeder_counts(ens), ens.sizes,
            ens.monitor.violations, ens.monitor.min_mass_seen)


@pytest.mark.parametrize("case", ["sequential", "strict", "frozen"])
def test_any_split_of_the_rounds_gives_the_same_lockstep_run(case):
    cfg = three_chain_config(
        replicates=20, stability={"policy": "warn", "theta": 0.45},
        schedule={"offsets": [5, 7], "total_rounds": 300},
        trace={"snapshot_every": 256, "strict_snapshot": case == "strict"},
    )
    frozen = np.array([3, 1, 2, 0]) if case == "frozen" else None
    total = cfg.total_rounds
    uneven = [1, 2, 17, 5, 100, 3, 64, 1]
    uneven.append(total - sum(uneven))
    whole = lockstep_split(cfg, [total], frozen)
    assert whole[3] > 0  # rounds with rings below theta
    for split in (lockstep_split(cfg, [1] * total, frozen, one_round_calls=True),
                  lockstep_split(cfg, uneven, frozen)):
        for got, want in zip(split, whole):
            np.testing.assert_array_equal(got, want)


def test_lockstep_steps_need_finite_space_and_known_variant():
    with pytest.raises(ConfigurationError):
        four_model("uniform", variant="x")
    model = four_model("uniform", variant="ee-jump")
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        lockstep_step(model, 0, np.zeros(3, dtype=int), rng, np.ones((3, 4)))
    box = config_from_dict(json.loads((CONFIGS / "double_well.json").read_text()))
    with pytest.raises(ConfigurationError):
        lockstep_step(box.kernels, 0, np.zeros(3, dtype=int), rng)
    with pytest.raises(ConfigurationError):
        LockstepEnsemble(box)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def three_chain_config(**overrides):
    raw = four_state_raw(
        ladder={"weights": [[1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 2, 4]]},
        schedule={"offsets": [5, 7], "total_rounds": 40},
        initial_states=[0, 1, 2],
        replicates=6,
        seed=11,
    )
    raw.update(overrides)
    return config_from_dict(raw)


def test_chain_one_holds_through_burn_in():
    cfg = four_state_config(replicates=8, schedule={"offsets": [20], "total_rounds": 64})
    ens = LockstepEnsemble(cfg)
    idle = ens.rngs[1].bit_generator.state
    assert feeder_counts(ens).shape == (8, 1, 4)  # the last chain keeps no measure
    for n in range(1, 21):
        advance(ens)
        assert np.all(ens.states[:, 1] == 0)
        assert np.all(feeder_counts(ens)[:, 0].sum(axis=1) == n + 1)
        assert ens.rngs[1].bit_generator.state == idle
    advance(ens)
    assert ens.rngs[1].bit_generator.state != idle


def test_each_active_chain_adds_one_atom_per_round():
    cfg = three_chain_config()
    ens = LockstepEnsemble(cfg)
    assert feeder_counts(ens).shape == (6, 2, 4)
    for n in range(1, 31):
        advance(ens)
        counts = feeder_counts(ens)
        for k, threshold in enumerate((0, 5)):  # the feeding chains
            assert np.all(counts[:, k].sum(axis=1) == 1 + max(0, n - threshold))
            assert ens.sizes[k] == 1 + max(0, n - threshold)
            assert np.all(counts[np.arange(6), k, ens.states[:, k]] >= 1)


def test_rerun_identical_and_replicates_differ():
    cfg = three_chain_config()
    a, b = LockstepEnsemble(cfg), LockstepEnsemble(cfg)
    advance(a, 30)
    advance(b, 30)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(feeder_counts(a), feeder_counts(b))
    assert len({row.tobytes() for row in feeder_counts(a)}) > 1


@pytest.mark.parametrize("strict", [True, False])
def test_strict_snapshot_reads_round_start_counts(strict, monkeypatch):
    raw = four_state_raw(replicates=4, schedule={"offsets": [3], "total_rounds": 64})
    raw["trace"] = {"snapshot_every": 256, "strict_snapshot": strict}
    cfg = config_from_dict(raw)
    ens = LockstepEnsemble(cfg)
    seen = []
    step = cfg.kernels.interacting_rounds_lockstep

    def spy(level, x, feeder, edges, rng, out):
        seen.append(feeder_counts(ens, feeder[0]))
        return step(level, x, feeder, edges, rng, out)

    monkeypatch.setattr(cfg.kernels, "interacting_rounds_lockstep", spy)
    for _ in range(10):
        start = feeder_counts(ens)[:, 0]
        advance(ens)
        if ens.n > 3:
            expected = start if strict else feeder_counts(ens)[:, 0]
            np.testing.assert_array_equal(seen[-1], expected)
            assert np.all(seen[-1].sum(axis=1) == ens.n + (0 if strict else 1))
    assert len(seen) == 7


def test_abort_policy_raises_with_round_replicate_ring_and_mass():
    # two rings cannot both hold mass >= 0.9, so the monitor trips as soon
    # as chain 1 activates at round 11
    cfg = four_state_config(replicates=5, schedule={"offsets": [10], "total_rounds": 64},
                            stability={"theta": 0.9, "policy": "abort"})
    ens = LockstepEnsemble(cfg)
    advance(ens, 10)
    with pytest.raises(StabilityError, match=r"round 11: replicate 0 chain 0 ring \d mass 0\."):
        advance(ens)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_rate_study_abort_names_its_round_in_every_block_length(budget, monkeypatch):
    # the theta 0.45 copy of the rate study's config trips in round 51, the
    # first round its feeder is watched; with blocks of several rounds the
    # abort comes from inside a block that runs on past it
    monkeypatch.setattr(sampler, "_ROUND_BLOCK", BUDGETS[budget])
    raw = json.loads((CONFIGS / "four_state_rate.json").read_text())
    raw.update(stability={"theta": 0.45, "policy": "abort"}, replicates=50,
               schedule={"offsets": [50], "total_rounds": 2048})
    with pytest.raises(StabilityError) as caught:
        slln_rate_study(config_from_dict(raw))
    assert str(caught.value) == "round 51: replicate 0 chain 0 ring 1 mass 0.4038 below theta=0.45"


def test_warn_policy_only_records():
    cfg = four_state_config(replicates=5, schedule={"offsets": [10], "total_rounds": 64},
                            stability={"theta": 0.9, "policy": "warn"})
    ens = LockstepEnsemble(cfg)
    advance(ens, 40)
    assert ens.monitor.violations >= 5 * 30
    assert ens.monitor.min_mass_seen < 0.9


# ---------------------------------------------------------------------------
# frozen base
# ---------------------------------------------------------------------------

THIN_FEEDER = (0, 0, 1, 2, 3, 3, 3, 3, 3, 3)  # ring 0 holds 3 of 10 atoms


def frozen_chain_one(cfg, atoms) -> np.ndarray:
    """Chain 1's states after each round against the frozen feeder of
    `atoms`, as a (total_rounds, replicates) array."""
    ens = LockstepEnsemble(cfg, frozen_feeder=np.bincount(atoms, minlength=cfg.space.size))
    return advance(ens, cfg.total_rounds)[:, :, 1]


def spy_levels(cfg, monkeypatch) -> list:
    """Record the level of every round of lockstep interacting moves."""
    levels = []
    step = cfg.kernels.interacting_rounds_lockstep

    def spy(level, x, feeder, edges, rng, out):
        levels.extend([level] * len(out))
        return step(level, x, feeder, edges, rng, out)

    monkeypatch.setattr(cfg.kernels, "interacting_rounds_lockstep", spy)
    return levels


def test_frozen_base_holds_its_counts_and_never_draws(monkeypatch):
    cfg = four_state_config(replicates=6, schedule={"offsets": [50], "total_rounds": 200})
    frozen = np.array([2, 1, 0, 3])
    ens = LockstepEnsemble(cfg, frozen_feeder=frozen)
    idle = ens.rngs[0].bit_generator.state
    levels = spy_levels(cfg, monkeypatch)
    for n in range(1, 31):
        advance(ens)
        np.testing.assert_array_equal(feeder_counts(ens)[:, 0], np.tile(frozen, (6, 1)))
        assert ens.sizes == [6]
        assert np.all(ens.states[:, 0] == cfg.initial_states[0])
        assert levels == [1] * n  # chain 1 moves from round 1
    assert ens.rngs[0].bit_generator.state == idle


def test_frozen_base_schedule_counts_from_chain_one(monkeypatch):
    cfg = three_chain_config()  # offsets [5, 7]: chain 2 moves 7 rounds after chain 1
    ens = LockstepEnsemble(cfg, frozen_feeder=np.array([1, 2, 3, 4]))
    levels = spy_levels(cfg, monkeypatch)
    for n in range(1, 31):
        advance(ens)
        # chain 2 first moves at round offsets[1] + 1 = 8
        assert levels.count(2) == max(0, n - 7)
        if n <= 7:
            assert np.all(ens.states[:, 2] == cfg.initial_states[2])
        assert levels.count(1) == n
        assert ens.sizes == [10, 1 + n]
        np.testing.assert_array_equal(feeder_counts(ens).sum(axis=2),
                                      np.tile([10, 1 + n], (6, 1)))


def test_frozen_feeder_abort_policy_on_thin_ring(monkeypatch):
    frozen = np.bincount(THIN_FEEDER, minlength=4)
    abort = four_state_config(replicates=3, stability={"theta": 0.35, "policy": "abort"})
    levels = spy_levels(abort, monkeypatch)
    with pytest.raises(StabilityError,
                       match=r"round 0: replicate 0 chain 0 ring 0 mass 0\.3000 below theta"):
        LockstepEnsemble(abort, frozen_feeder=frozen)
    assert levels == []
    warn = four_state_config(replicates=3, stability={"theta": 0.35, "policy": "warn"})
    assert frozen_chain_one(warn, THIN_FEEDER).shape == (warn.total_rounds, 3)
    ens = LockstepEnsemble(warn, frozen_feeder=frozen)
    advance(ens, 10)
    # checked once, at construction
    assert ens.monitor.violations == 3 and ens.monitor.min_mass_seen == 0.3
    ens = LockstepEnsemble(four_state_config(stability={"theta": 0.3, "policy": "abort"}),
                           frozen_feeder=frozen)
    advance(ens)


@pytest.mark.parametrize("frozen", [
    np.zeros(4, dtype=np.int64),  # no atom to draw or to weigh
    [-1, 2, 3, 4],  # a negative count
    [1.5, 1, 1, 1],  # not integer counts
    np.array([1.0, 1.0, 1.0, 1.0]),  # integral floats are not counts either
    [1, 2, 3],  # not one count per state
    np.ones((2, 4), dtype=np.int64),
])
def test_frozen_base_must_be_counts_over_the_states(frozen, monkeypatch):
    cfg = four_state_config(replicates=3)
    levels = spy_levels(cfg, monkeypatch)
    with pytest.raises(ConfigurationError, match="frozen base"):
        LockstepEnsemble(cfg, frozen_feeder=frozen)
    assert levels == []
    advance(LockstepEnsemble(cfg, frozen_feeder=[0, 0, 0, 1]))
    assert levels == [1]


def test_frozen_base_rerun_identical():
    cfg = three_chain_config(trace={"snapshot_every": 256, "strict_snapshot": True})
    frozen = np.array([0, 2, 1, 1])
    a = LockstepEnsemble(cfg, frozen_feeder=frozen)
    b = LockstepEnsemble(cfg, frozen_feeder=frozen)
    advance(a, 30)
    advance(b, 30)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(feeder_counts(a), feeder_counts(b))
    assert len({row.tobytes() for row in feeder_counts(a)}) > 1


def test_fixed_feeder_runs_against_supplied_atoms():
    cfg = four_state_config(replicates=4, schedule={"offsets": [50], "total_rounds": 5200})
    states = frozen_chain_one(cfg, [0, 1, 2, 3])
    assert states.shape == (5200, 4)
    # feeder is exactly pi_1 = uniform, so chain 2 must equilibrate to pi_2
    post = states[200:]
    occ = np.bincount(post.ravel(), minlength=4) / post.size
    pi2 = cfg.ladder.density_table()[1]
    assert np.abs(occ - pi2).max() < 0.02


def test_frozen_occupancy_matches_oracle_prediction():
    cfg = four_state_config(replicates=8, schedule={"offsets": [50], "total_rounds": 8000})
    atoms = [0, 0, 1, 2, 2, 2, 3, 3]
    states = frozen_chain_one(cfg, atoms)[500:]
    mu = np.bincount(atoms, minlength=4) / len(atoms)
    omega = exact.stationary(exact.interacting_matrix(cfg.kernels, 1, mu))
    occ = np.bincount(states.ravel(), minlength=4) / states.size
    assert np.abs(occ - omega).max() < 0.015
