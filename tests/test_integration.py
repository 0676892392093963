"""Cross-module paths not covered by the per-module tests: box-space runs,
the ee-jump variant through the full engine, and mutation tests showing the
oracle checks actually bite."""

import csv
import dataclasses

import numpy as np
import pytest

from conftest import advance, make_model, reference_numpy_logpdf
from eesampler import exact
from eesampler.config import config_from_dict, four_state_config
from eesampler.kernels import KernelSet
from eesampler.sampler import ChainEnsemble, run
from eesampler.state_space import RingPartition, tempered_ladder


def double_well_raw(**overrides):
    raw = {
        "space": {"kind": "box", "lower": [-3.0], "upper": [3.0]},
        "ladder": {
            "base": {"family": "gaussian_mixture", "means": [[-1.5], [1.5]],
                     "scales": [0.25, 0.25], "weights": [0.5, 0.5]},
            "temperatures": [8, 1],
        },
        "partition": {"thresholds": [3.0], "energy": "neg_log_target"},
        "kernel": {"variant": "selection-mutation", "epsilon": 0.3,
                   "proposal": {"kind": "gaussian_walk", "steps": [1.2, 0.35]}},
        "schedule": {"offsets": [100], "total_rounds": 800},
        "initial_states": [[-1.5], [1.5]],
        "seed": 99,
        "stability": {"theta": 0.02, "policy": "warn"},
        "trace": {"snapshot_every": 200},
        "test_functions": [{"name": "coord", "kind": "coordinate"}],
    }
    raw.update(overrides)
    return raw


def test_box_space_run_and_trace(tmp_path):
    cfg = config_from_dict(double_well_raw())
    trace = run(cfg)
    assert trace.meta["rounds"] == 800
    # every recorded state lies in the box, rings are total
    for row in trace.rows:
        if row[4] != "hold":
            assert cfg.space.contains(np.asarray(row[2]))
        assert row[3] in (0, 1)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "round", "state_0", "ring", "branch", "swap_accept", "holds"]
    assert float(rows[1][2]) == -1.5


def test_box_space_run_deterministic():
    cfg = config_from_dict(double_well_raw())
    t1, t2 = run(cfg), run(cfg)
    s1 = [(r[0], r[1], float(np.asarray(r[2])[0])) for r in t1.rows]
    s2 = [(r[0], r[1], float(np.asarray(r[2])[0])) for r in t2.rows]
    assert s1 == s2


def test_box_space_interaction_crosses_barrier():
    # eps = 0: the cold walker started at +1.5 stays in its well; with the
    # interaction on it visits both wells
    stuck_cfg = config_from_dict(double_well_raw(
        kernel={"variant": "selection-mutation", "epsilon": 0.0,
                "proposal": {"kind": "gaussian_walk", "steps": [1.2, 0.35]}},
        schedule={"offsets": [100], "total_rounds": 2000},
    ))
    cold = [float(np.asarray(r[2])[0]) for r in run(stuck_cfg).rows
            if r[0] == 1 and r[1] > 200]
    assert min(cold) > 0.0  # never crosses

    ee_cfg = config_from_dict(double_well_raw(
        schedule={"offsets": [100], "total_rounds": 2000}))
    mixed = [float(np.asarray(r[2])[0]) for r in run(ee_cfg).rows
             if r[0] == 1 and r[1] > 200]
    assert min(mixed) < 0.0 < max(mixed)  # visits both wells


def test_float_mixture_run_equals_numpy_mixture_run():
    # no shipped config has dim > 1 or more than 2 components: a 2-d,
    # 9-component tempered model run as built, and again with the mixture
    # in numpy array form, gives the same trace and carries the same
    # log-densities
    rng = np.random.default_rng(9)
    base = {"family": "gaussian_mixture", "means": rng.uniform(-2.5, 2.5, (9, 2)).tolist(),
            "scales": rng.uniform(0.2, 0.5, 9).tolist(),
            "weights": rng.uniform(0.5, 1.0, 9).tolist()}
    cfg = config_from_dict(double_well_raw(
        space={"kind": "box", "lower": [-3.0, -3.0], "upper": [3.0, 3.0]},
        ladder={"base": base, "temperatures": [6, 1]},
        partition={"thresholds": [2.0], "energy": "neg_log_target"},
        kernel={"variant": "selection-mutation", "epsilon": 0.5,
                "proposal": {"kind": "gaussian_walk", "steps": [1.0, 0.4]}},
        schedule={"offsets": [100], "total_rounds": 1500},
        initial_states=[[0.0, 0.0], [1.0, -1.0]],
    ))
    ladder = tempered_ladder(
        cfg.space, reference_numpy_logpdf(base["means"], base["scales"], base["weights"]), [6, 1])
    partition = RingPartition(cfg.space, ladder=ladder, thresholds=[2.0])
    kernels = KernelSet(ladder, partition, cfg.kernels.proposals, cfg.kernels.epsilons)
    runs = []
    for config in (cfg, dataclasses.replace(cfg, kernels=kernels)):
        ens = ChainEnsemble(config)
        advance(ens, config.total_rounds)
        # every atom's carried log-densities, to the last bit
        levels = [[v.hex() for lv in m._ring_levels[ring] for v in lv]
                  for m in ens.measures for ring in range(config.partition.d)]
        runs.append((ens.finalize_trace(), levels))
    (fast, fast_levels), (slow, slow_levels) = runs
    # both chains visit both rings and some swaps are accepted
    assert {(row[0], row[3]) for row in fast.rows} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert any(row[5] for row in fast.rows)
    assert len(fast.rows) == len(slow.rows)
    for a, b in zip(fast.rows, slow.rows):
        assert a == b
    assert fast.mass_snapshots == slow.mass_snapshots
    assert fast_levels == slow_levels


def test_ee_jump_variant_full_run():
    cfg = four_state_config(
        kernel={"variant": "ee-jump", "epsilon": 0.5, "proposal": "uniform"},
        schedule={"offsets": [50], "total_rounds": 2000},
    )
    trace = run(cfg)
    rows = [r for r in trace.rows if r[0] == 1]
    assert any(r[4] == "jump" for r in rows)
    # jump moves never change ring
    for prev, cur in zip(rows, rows[1:]):
        if cur[4] == "jump":
            assert cur[3] == prev[3]


def test_ee_jump_occupation_still_reaches_target():
    cfg = four_state_config(
        seed=5,
        kernel={"variant": "ee-jump", "epsilon": 0.5, "proposal": "uniform"},
        schedule={"offsets": [50], "total_rounds": 60_000},
    )
    trace = run(cfg)
    states = [r[2] for r in trace.rows if r[0] == 1 and r[1] >= 50]
    occ = np.bincount(states, minlength=4) / len(states)
    pi2 = cfg.ladder.density_table()[1]
    assert np.abs(occ - pi2).max() < 0.02


def test_composition_check_detects_wrong_selection_matrix(monkeypatch):
    # perturb the selection matrix the LHS uses: the brute-force RHS must
    # disagree, proving the identity check is not a tautology
    model = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1])
    true_q = exact.q_matrix

    def crooked(model_, level, mu, **kwargs):
        Q = true_q(model_, level, mu, **kwargs)
        Q = 0.9 * Q + 0.1 * np.full_like(Q, 0.25)
        return Q

    monkeypatch.setattr(exact, "q_matrix", crooked)
    mu = np.array([0.2, 0.3, 0.3, 0.2])
    f = np.array([1.0, -1.0, 0.5, 0.0])
    assert exact.composition_identity_check(model, 1, mu, f, 2) > 1e-3


def test_mixture_check_detects_wrong_weighting():
    # word sum with the wrong epsilon must not match the matrix power
    model = make_model([[0.0] * 4, np.log([1, 1, 2, 4])], labels=[0, 0, 1, 1])
    K = exact.k_matrix(model, 1)
    Q = exact.q_matrix(model, 1, np.full(4, 0.25))
    direct = np.linalg.matrix_power(0.6 * K + 0.4 * Q, 3)
    mism = np.abs(direct - np.linalg.matrix_power(0.5 * K + 0.5 * Q, 3)).max()
    assert mism > 1e-3
    assert exact.mixture_expansion_check(K, Q, 0.4, 3) < 1e-12


def test_three_chain_end_to_end_targets():
    raw = {
        "space": {"kind": "finite", "size": 4},
        "ladder": {"weights": [[1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 2, 4]]},
        "partition": {"labels": [0, 0, 1, 1]},
        "kernel": {"variant": "selection-mutation", "epsilon": 0.5,
                   "proposal": "uniform"},
        "schedule": {"offsets": [100, 100], "total_rounds": 60_000},
        "initial_states": [0, 0, 0],
        "seed": 21,
    }
    cfg = config_from_dict(raw)
    trace = run(cfg)
    dens = cfg.ladder.density_table()
    for k in (1, 2):
        states = [r[2] for r in trace.rows if r[0] == k and r[1] >= 200]
        occ = np.bincount(states, minlength=4) / len(states)
        assert np.abs(occ - dens[k]).max() < 0.02
