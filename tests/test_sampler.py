import csv
import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    advance,
    as_vector,
    atoms,
    chain_states,
    ee_jump_neighbor_config,
    eight_state_config,
    eight_state_events_config,
    total_count,
)
from eesampler import config as config_module
from eesampler import kernels, sampler
from eesampler.config import config_from_dict, four_state_config, four_state_raw
from eesampler.errors import ConfigurationError, StabilityError
from eesampler.measures import EmpiricalMeasure
from eesampler.sampler import ChainEnsemble, LockstepEnsemble, Trace, run
from eesampler.state_space import BoxSpace, DensityLadder, RingPartition


def three_chain_config(**overrides):
    raw = {
        "space": {"kind": "finite", "size": 4},
        "ladder": {"weights": [[1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 2, 4]]},
        "partition": {"labels": [0, 0, 1, 1]},
        "kernel": {"variant": "selection-mutation", "epsilon": 0.5, "proposal": "uniform"},
        "schedule": {"offsets": [5, 7], "total_rounds": 25},
        "initial_states": [0, 1, 2],
        "seed": 11,
    }
    raw.update(overrides)
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_point_masses(four_state):
    ens = ChainEnsemble(four_state)
    assert ens.n == 0
    assert chain_states(ens) == [0, 0]
    for k in range(2):
        assert total_count(ens.measures[k]) == 1
        np.testing.assert_allclose(
            as_vector(ens.measures[k], four_state.space), [1.0, 0, 0, 0]
        )


def test_init_total_atoms_equals_chain_count():
    cfg = three_chain_config()
    ens = ChainEnsemble(cfg)
    assert sum(total_count(m) for m in ens.measures) == cfg.r


def test_init_same_seed_identical(four_state):
    a, b = ChainEnsemble(four_state), ChainEnsemble(four_state)
    advance(a, 64)
    advance(b, 64)
    assert chain_states(a) == chain_states(b)
    assert a.trace.rows == b.trace.rows


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def moves(trace, chain):
    """How many times `chain` has moved in the trace so far."""
    return sum(1 for row in trace.rows if row[0] == chain and row[4] not in ("init", "hold"))


def test_schedule_fidelity_three_chains():
    cfg = three_chain_config()
    ens = ChainEnsemble(cfg)
    thresholds = [0, 5, 12]  # N_1 = 5, N_1 + N_2 = 12
    for n in range(1, 26):
        ens.step_round()
        for k in range(3):
            assert moves(ens.trace, k) == max(0, n - thresholds[k])
    # inactive rounds are exact holds
    for k in (1, 2):
        states = [row[2] for row in ens.trace.rows if row[0] == k]
        for n in range(1, thresholds[k] + 1):
            assert states[n] == states[0]


def test_chain2_never_moves_when_run_too_short():
    with pytest.raises(ConfigurationError):  # schedule validation: total <= N_1
        four_state_config(schedule={"offsets": [50], "total_rounds": 49})

    cfg = four_state_config(
        schedule={"offsets": [50], "total_rounds": 51}, initial_states=[0, 3]
    )
    ens = ChainEnsemble(cfg)
    advance(ens, 50)
    assert chain_states(ens)[1] == 3 and moves(ens.trace, 1) == 0
    ens.step_round()
    assert moves(ens.trace, 1) == 1


def test_epsilon_zero_chains_are_independent_mh():
    cfg = four_state_config(kernel={"variant": "selection-mutation",
                                    "epsilon": 0.0, "proposal": "uniform"})
    trace = run(cfg)
    chain2 = [row[2] for row in trace.rows if row[0] == 1 and row[1] >= 1]
    # replay chain 2 standalone with the same spawned stream and activation
    seq = cfg.replicate_seed_seq(0)
    rng = np.random.default_rng(seq.spawn(2)[1])
    x = cfg.initial_states[1]
    expected = []
    for n in range(1, cfg.total_rounds + 1):
        if n > cfg.activation_threshold(1):
            x = cfg.kernels.mh_step(1, x, rng)
        expected.append(x)
    assert chain2 == expected


def test_active_chain_inserts_one_atom_per_round(four_state):
    ens = ChainEnsemble(four_state)
    for n in range(1, 80):
        before = [total_count(m) for m in ens.measures]
        ens.step_round()
        for k in range(2):
            grew = total_count(ens.measures[k]) - before[k]
            assert grew == (1 if ens.n > ens.thresholds[k] else 0)


# ---------------------------------------------------------------------------
# run and trace
# ---------------------------------------------------------------------------

def test_run_occupation_reaches_target():
    # chain-2 occupation -> pi_2 within 3 batch-means standard errors
    cfg = four_state_config(seed=1, schedule={"offsets": [50], "total_rounds": 100_000})
    trace = run(cfg)
    states = np.array([row[2] for row in trace.rows if row[0] == 1 and row[1] >= 50])
    occ = np.bincount(states, minlength=4) / len(states)
    pi2 = cfg.ladder.density_table()[1]
    batches = np.array_split(states, 20)
    batch_occ = np.array([np.bincount(b, minlength=4) / len(b) for b in batches])
    se = batch_occ.std(axis=0, ddof=1) / np.sqrt(len(batches))
    assert np.all(np.abs(occ - pi2) <= 3 * se)


@pytest.mark.parametrize(
    "make_config",
    [lambda: three_chain_config(),
     lambda: config_from_dict(four_state_raw(ladder={"weights": [[1, 1, 2, 4]]},
                                             initial_states=[0],
                                             schedule={"offsets": [], "total_rounds": 40}))],
    ids=["three-chains-holding", "one-chain"],
)
def test_chain_rows_are_the_filtered_rows(make_config):
    cfg = make_config()
    trace = run(cfg)
    rows = trace.rows
    rounds = cfg.total_rounds + 1
    assert [row[:2] for row in rows] == [(k, n) for n in range(rounds) for k in range(cfg.r)]
    for chain in range(cfg.r):
        assert [len(trace.states[chain]), len(trace.rings[chain]),
                len(trace.steps[chain])] == [rounds] * 3
        for first in (0, 1, cfg.activation_threshold(chain), sum(cfg.offsets),
                      cfg.total_rounds, cfg.total_rounds + 1):
            mine = [row for row in rows if row[0] == chain and row[1] >= first]
            assert trace.states[chain][first:] == [row[2] for row in mine], (chain, first)
            assert trace.rings[chain][first:] == [row[3] for row in mine], (chain, first)
            assert [(kind.branch, kind.swap_accepted) for kind in trace.steps[chain][first:]] \
                == [row[4:6] for row in mine], (chain, first)
        # every row's step kind is one of the shared constants: a chain's
        # first row is its init, and only hold rows write holds = 1
        steps = trace.steps[chain]
        assert all(any(kind is known for known in kernels._STEP_KINDS) for kind in steps)
        assert steps[0] is kernels._INIT and kernels._INIT not in steps[1:]
        assert [row[6] for row in rows if row[0] == chain] \
            == [int(kind is kernels._HOLD) for kind in steps]
    if cfg.r > 1:
        assert kernels._HOLD in trace.steps[cfg.r - 1]


def test_trace_replay_matches_mass_snapshots(four_state):
    trace = run(four_state)
    rows = trace.rows  # built from the columns on each read
    for k in range(2):
        snaps = [(rnd, ring, mass) for rnd, ch, ring, mass in trace.mass_snapshots if ch == k]
        for rnd, ring, mass in snaps:
            # recompute the measure from recorded moves (holds insert nothing)
            atoms = [
                row[2] for row in rows
                if row[0] == k and row[1] <= rnd and row[4] not in ("hold",)
            ]
            counts = np.bincount(
                [four_state.partition.assign(a) for a in atoms], minlength=2
            )
            assert mass == counts[ring] / len(atoms)


def test_strict_snapshot_excludes_same_round_atom():
    seen = {}
    for strict in (False, True):
        cfg = four_state_config(
            trace={"snapshot_every": 256, "strict_snapshot": strict},
            schedule={"offsets": [10], "total_rounds": 40},
        )
        counts = []
        orig = cfg.kernels.interacting_step

        def spy(level, x, feeder, rng, *rest, _orig=orig, _counts=counts):
            _counts.append(_orig.__self__ and total_count(feeder))
            return _orig(level, x, feeder, rng, *rest)

        cfg.kernels.interacting_step = spy
        ens = ChainEnsemble(cfg)
        advance(ens, 40)
        seen[strict] = counts
    # chain 1 holds 1 + n atoms after its round-n move; the strict snapshot
    # was taken before that move, so it shows one atom fewer
    rounds = list(range(11, 41))
    assert seen[False] == [1 + n for n in rounds]
    assert seen[True] == [n for n in rounds]


def test_run_deterministic(four_state):
    t1, t2 = run(four_state), run(four_state)
    assert t1.rows == t2.rows
    assert t1.mass_snapshots == t2.mass_snapshots
    assert t1.meta == t2.meta


def test_trace_csv_round_trip(tmp_path, four_state):
    cfg = four_state_config(schedule={"offsets": [50], "total_rounds": 60})
    trace = run(cfg)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "round", "state", "ring", "branch", "swap_accept", "holds"]
    assert len(rows) - 1 == (cfg.total_rounds + 1) * cfg.r
    # every recorded row reproduces the in-memory trace
    for raw, row in zip(rows[1:], trace.rows):
        assert int(raw[0]) == row[0] and int(raw[1]) == row[1]
        assert int(raw[2]) == row[2]


def write_reference(trace, tmp_path) -> dict:
    """The three trace files as csv.writer writes them, one row at a time."""
    state_header = (["state"] if trace.state_dim == 0
                    else [f"state_{i}" for i in range(trace.state_dim)])
    tables = {
        "trace": ([["chain", "round", *state_header, "ring", "branch", "swap_accept", "holds"]]
                  + [[chain, rnd,
                      *([str(int(state))] if trace.state_dim == 0
                        else [repr(float(v)) for v in np.asarray(state, dtype=float)]),
                      ring, branch, "" if swap is None else str(int(swap)), int(hold)]
                     for chain, rnd, state, ring, branch, swap, hold in trace.rows]),
        "masses": ([["round", "chain", "ring", "mass"]]
                   + [[rnd, chain, ring, repr(mass)]
                      for rnd, chain, ring, mass in trace.mass_snapshots]),
        "events": [["round", "chain", "kind", "ring"], *map(list, trace.events)],
    }
    out = {}
    for name, table in tables.items():
        path = tmp_path / f"{name}_reference.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        out[name] = path.read_bytes()
    return out


def assert_writers_match_reference(trace, tmp_path):
    trace.write_csv(tmp_path / "trace.csv")
    trace.write_mass_csv(tmp_path / "masses.csv")
    trace.write_events_csv(tmp_path / "events.csv")
    for name, expected in write_reference(trace, tmp_path).items():
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name


def test_writers_match_csv_writer_on_a_finite_run(tmp_path):
    # a fallback by construction: the feeder starts at state 4, two
    # neighbour steps from ring 0 = {0, 1}, so the snapshot chain 1 reads in
    # round 2 (its first move, from state 0) holds only ring-1 atoms; with
    # epsilon 1 that move falls back, and ring 0's feeder mass is below theta
    cfg = three_chain_config(
        space={"kind": "finite", "size": 6},
        ladder={"weights": [[1] * 6, [1, 1, 2, 2, 3, 3], [1, 2, 2, 4, 3, 5]]},
        partition={"labels": [0, 0, 1, 1, 1, 1]},
        kernel={"variant": "selection-mutation", "epsilon": 1.0, "proposal": "neighbor"},
        schedule={"offsets": [1, 3], "total_rounds": 400},
        initial_states=[4, 0, 0],
        stability={"policy": "warn", "theta": 0.45},
        trace={"snapshot_every": 16, "strict_snapshot": True},
    )
    trace = run(cfg)
    assert {(2, 1, "fallback"), (2, 0, "low_mass")} <= {event[:3] for event in trace.events}
    assert (2, 1, "fallback", 0) in trace.events  # the ring that held no atoms
    assert {row[5] for row in trace.rows} == {None, True, False}
    assert {row[6] for row in trace.rows} == {0, 1}
    assert_writers_match_reference(trace, tmp_path)


def test_writers_match_csv_writer_on_box_traces(tmp_path):
    trace = run(double_well_config(schedule={"offsets": [50], "total_rounds": 300}))
    assert {row[5] for row in trace.rows} == {None, True, False}
    assert_writers_match_reference(trace, tmp_path)
    # hand-made cells: awkward floats in box states (tuples of floats), an
    # empty event list, two blocks of columns
    hand = Trace(r=2, state_dim=2)
    hand.record([[(-0.0, 1e-300)], [(2.5e16, -1 / 3)]], [[0], [1]],
                [[kernels._INIT], [kernels._HOLD]])
    hand.record([[(0.1, 7.0)], [(2.5e16, -1 / 3)]], [[1], [1]],
                [[kernels._SELECTIONS[True]], [kernels._HOLD]])
    assert [row[4:] for row in hand.rows] == [
        ("init", None, 0), ("hold", None, 1), ("selection", True, 0), ("hold", None, 1)]
    hand.snapshot_masses(1, 0, np.array([1 / 3, 2 / 3]))
    assert_writers_match_reference(hand, tmp_path)


@pytest.mark.parametrize("space", ["finite", "box"])
@pytest.mark.parametrize("rounds", [2 * sampler._SCALAR_ROUNDS + 7, 2 * sampler._SCALAR_ROUNDS,
                                    2 * sampler._SCALAR_ROUNDS - 1])
def test_writers_match_csv_writer_across_slabs(space, rounds, tmp_path):
    # the writer formats slabs of at most _SCALAR_ROUNDS rounds: the last
    # one is short, holds one round, or ends exactly where the trace ends
    schedule = {"offsets": [50], "total_rounds": rounds}
    cfg = (four_state_config(schedule=schedule) if space == "finite"
           else double_well_config(schedule=schedule))
    trace = run(cfg)
    assert len(trace.rows) == cfg.r * (rounds + 1)
    assert_writers_match_reference(trace, tmp_path)


def test_a_finished_run_holds_under_100_bytes_per_round():
    # the live heap a finished two-chain four_state run holds, measured by
    # tracemalloc, grows by less than 100 B per round: the trace keeps
    # three references per row (the bound was fixed before the test first
    # ran; one tuple per row took about 270 B)
    def live(rounds):
        cfg = four_state_config(schedule={"offsets": [50], "total_rounds": rounds})
        gc.collect()
        tracemalloc.start()
        try:
            trace = run(cfg)  # held while the heap is read
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    live(100)  # any table a first run builds and keeps
    growth = (live(30_000) - live(10_000)) / 20_000
    assert growth < 100, f"{growth:.0f} B per round"


def test_stability_abort_policy():
    # theta = 0.9 with two rings cannot hold once chain 2 consumes the feeder
    cfg = four_state_config(stability={"theta": 0.9, "policy": "abort"})
    with pytest.raises(StabilityError,
                       match=r"^round \d+: chain 0 ring \d mass 0\.\d{4} below theta=0\.9$"):
        run(cfg)


def test_abort_names_the_earliest_round_over_all_feeders():
    # chain 1's ring 1 empties in round 21, chain 0's first drops below
    # theta in round 27: the block's watch goes round by round over every
    # feeder, so a level-by-level order would wrongly name round 27, chain 0
    cfg = eight_state_config(seed=7, stability={"policy": "abort", "theta": 0.18})
    with pytest.raises(StabilityError) as caught:
        run(cfg)
    assert str(caught.value) == "round 21: chain 1 ring 1 mass 0.0000 below theta=0.18"
    warn = run(eight_state_config(seed=7, stability={"policy": "warn", "theta": 0.18}))
    lows = [event[:2] for event in warn.events if event[2] == "low_mass"]
    assert lows[0] == (21, 1) and min(n for n, chain in lows if chain == 0) == 27


def split_state(cfg, chunks, one_round_calls=False):
    """Everything a run leaves, after stepping it in `chunks` of rounds."""
    ens = ChainEnsemble(cfg)
    for rounds in chunks:
        if one_round_calls:
            assert ens.step_round() == 1
        else:
            advance(ens, rounds)
    assert ens.n == cfg.total_rounds
    trace = ens.finalize_trace()
    measures = [(m.counts, sum(m.counts), [(atoms(m, g), m._ring_levels[g]) for g in range(m.d)])
                for m in ens.measures]
    points = [(p.x, p.ring, p.levels) for p in ens.points]
    return (trace.rows, trace.events, trace.mass_snapshots, trace.meta, measures, points,
            ens.monitor.violations, ens.monitor.min_mass_seen)


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: four_state_config(schedule={"offsets": [20], "total_rounds": 300},
                                  stability={"policy": "warn", "theta": 0.45}),
        lambda: four_state_config(schedule={"offsets": [20], "total_rounds": 300},
                                  stability={"policy": "warn", "theta": 0.45},
                                  trace={"snapshot_every": 7, "strict_snapshot": True}),
        lambda: eight_state_events_config(strict=False),
        lambda: eight_state_events_config(strict=True),
        lambda: double_well_config(schedule={"offsets": [50], "total_rounds": 300},
                                   trace={"snapshot_every": 32, "strict_snapshot": False}),
    ],
    ids=["two-chains", "two-chains-strict", "three-chains", "three-chains-strict", "box"],
)
def test_any_split_of_the_rounds_gives_the_same_run(make_config, monkeypatch):
    cfg = make_config()
    total = cfg.total_rounds
    uneven = [1, 2, 17, 5, 100, 3, 64, 1]
    uneven.append(total - sum(uneven))
    whole = split_state(cfg, [total])
    rows, events, snapshots = whole[:3]
    assert len(rows) == cfg.r * (total + 1) and snapshots
    if cfg.r == 3:  # rounds that hold both kinds of event
        assert {"fallback", "low_mass"} == {event[2] for event in events}
    assert split_state(cfg, [1] * total, one_round_calls=True) == whole
    assert split_state(cfg, uneven) == whole
    monkeypatch.setattr(sampler, "_SCALAR_ROUNDS", 5)  # blocks of at most 5 rounds
    assert split_state(cfg, [total]) == whole
    assert split_state(cfg, uneven) == whole


@pytest.mark.parametrize("engine", [ChainEnsemble, LockstepEnsemble])
def test_a_block_needs_at_least_one_round(engine):
    ens = engine(four_state_config(replicates=3))  # chain 1 activates after round 50
    for rounds in (10, 50):
        advance(ens, rounds)
        n = ens.n
        for bad in (0, -3):
            with pytest.raises(ConfigurationError, match="at least one round"):
                ens.step_round(bad)
            assert ens.n == n
        with pytest.raises(ConfigurationError, match="at least one round"):
            advance(ens, -3)
        assert list(ens.blocks(0)) == [] and ens.n == n
    if engine is ChainEnsemble:
        assert len(ens.trace.rows) == ens.r * (ens.n + 1)


def test_meta_records_run_facts(four_state):
    trace = run(four_state)
    meta = trace.meta
    assert meta["config_hash"] == four_state.config_hash()
    assert meta["rounds"] == four_state.total_rounds
    assert meta["chains"] == 2
    assert meta["schedule"] == [50, four_state.total_rounds - 50]
    assert 0 < meta["min_ring_mass"] <= 1


def test_meta_records_the_ensembles_own_replicate():
    # an ensemble built for replicate 2 writes replicate 2 into its meta,
    # beside the rows of replicate 2's streams
    cfg = four_state_config(replicates=3)
    ens = ChainEnsemble(cfg, replicate=2)
    advance(ens, cfg.total_rounds)
    trace = ens.finalize_trace()
    assert trace.meta["replicate"] == 2
    assert trace.rows == run(cfg, replicate=2).rows != run(cfg).rows
    assert run(cfg, replicate=1).meta["replicate"] == 1


# ---------------------------------------------------------------------------
# evaluation and ring caches
# ---------------------------------------------------------------------------

def double_well_config(**overrides):
    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "configs" / "double_well.json").read_text()
    )
    raw.update(overrides)
    return config_from_dict(raw)


def test_double_well_evaluates_each_step_about_once(monkeypatch):
    calls = [0]
    build = config_module._gaussian_mixture_logpdf

    def counting_build(*args):
        logpdf = build(*args)

        def counted(x):
            calls[0] += 1
            return logpdf(x)

        return counted

    monkeypatch.setattr(config_module, "_gaussian_mixture_logpdf", counting_build)
    cfg = double_well_config(schedule={"offsets": [100], "total_rounds": 400})
    calls[0] = 0
    run(cfg)
    moving_steps = 400 + (400 - 100)
    # every level, the ring of a state and the state's next visit share one
    # evaluation; without the memo a step costs about 4.6
    assert calls[0] <= 1.5 * moving_steps


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: double_well_config(schedule={"offsets": [50], "total_rounds": 300}),
        lambda: three_chain_config(trace={"strict_snapshot": True}),
    ],
    ids=["box", "finite-three-chains"],
)
def test_trace_ring_is_the_ring_of_the_state(make_config):
    cfg = make_config()
    trace = run(cfg)
    assert {"init", "hold"} <= {row[4] for row in trace.rows}
    for chain, rnd, state, ring, *_ in trace.rows:
        assert ring == cfg.partition.assign(state), (chain, rnd)


def test_double_well_step_reads_carried_values(monkeypatch):
    calls = {"base": 0, "log_densities": 0, "contains": 0}
    build = config_module._gaussian_mixture_logpdf

    def counting_build(*args):
        logpdf = build(*args)

        def counted(x):
            calls["base"] += 1
            return logpdf(x)

        return counted

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(config_module, "_gaussian_mixture_logpdf", counting_build)
    monkeypatch.setattr(BoxSpace, "contains", counting("contains", BoxSpace.contains))
    cfg = double_well_config(schedule={"offsets": [100], "total_rounds": 400})
    # the tempered box ladder has its own log_densities, the one the steps call
    ladder_type = type(cfg.ladder)
    monkeypatch.setattr(ladder_type, "log_densities",
                        counting("log_densities", ladder_type.log_densities))
    calls.update(base=0, log_densities=0, contains=0)
    run(cfg)
    moving_steps = 400 + (400 - 100)
    # a proposal is evaluated once, at every level; the state's ring, the
    # next step and a later feeder draw read the carried values
    assert calls["base"] <= 1.0 * moving_steps
    assert 0 < calls["log_densities"] <= 1.0 * moving_steps
    assert calls["contains"] <= 1.1 * moving_steps


def test_finite_strict_step_reads_its_lists(monkeypatch):
    # the finite counterpart of the test above: once the ensemble is built,
    # the moves read the kernel set's per-state records, and a consumer
    # reads its feeder through one prefix view per block, not one per round
    monkeypatch.setattr(sampler, "_SCALAR_ROUNDS", 1000)
    cfg = ee_jump_neighbor_config()
    ens = ChainEnsemble(cfg)
    calls = dict.fromkeys(("log_densities", "assign_point", "snapshot"), 0)

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(DensityLadder, "log_densities")
    counting(RingPartition, "assign_point")
    counting(EmpiricalMeasure, "snapshot")
    advance(ens, cfg.total_rounds)
    trace = ens.finalize_trace()
    # the blocks end at rounds 30, 60, 1060 and 1500 (offsets 30 and 30):
    # chain 0 feeds a moving chain in the last three, chain 1 in the last two
    assert calls == {"log_densities": 0, "assign_point": 0, "snapshot": 3 + 2}
    assert {row[4] for row in trace.rows} >= {"local", "jump", "hold"}
    assert {row[5] for row in trace.rows} >= {True, False}


@pytest.mark.parametrize(
    "make_config,rounds",
    [
        (lambda: double_well_config(schedule={"offsets": [50], "total_rounds": 300}), 300),
        (lambda: double_well_config(
            kernel={"variant": "ee-jump", "epsilon": 0.5,
                    "proposal": {"kind": "gaussian_walk", "steps": [1.2, 0.35]}},
            schedule={"offsets": [50], "total_rounds": 300}), 300),
        (lambda: three_chain_config(trace={"strict_snapshot": True}), 25),
    ],
    ids=["box", "box-ee-jump", "finite-three-chains-strict"],
)
def test_records_and_atoms_carry_exact_levels_and_rings(make_config, rounds):
    cfg = make_config()
    ens = ChainEnsemble(cfg)
    advance(ens, rounds)

    def exact_levels(x):
        return tuple(cfg.ladder.log_density(i, x) for i in range(cfg.r))

    for point in ens.points:
        assert point.levels == exact_levels(point.x)
        assert point.ring == cfg.partition.assign(point.x)
    stored = 0
    for measure in ens.measures:
        for ring in range(cfg.partition.d):
            held = atoms(measure, ring)
            levels = measure._ring_levels[ring][: len(held)]
            for x, lv in zip(held, levels):
                assert lv == exact_levels(x)
                assert cfg.partition.assign(x) == ring
            stored += len(held)
    assert stored == sum(total_count(m) for m in ens.measures)
