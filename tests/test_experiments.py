import copy
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eesampler import KernelSet, cli, exact, experiments
from eesampler.config import config_from_dict, four_state_config, four_state_raw, load_config
from eesampler.errors import ConfigurationError
from eesampler.experiments import (
    bias_study,
    fluctuation_bound_battery,
    json_data,
    run_experiment,
    slln_rate_study,
    verify_suite,
    write_json,
    write_rate_report,
)
from eesampler.sampler import run


# ---------------------------------------------------------------------------
# run_experiment artifacts
# ---------------------------------------------------------------------------

def test_run_experiment_smoke(tmp_path):
    cfg = four_state_config(schedule={"offsets": [10], "total_rounds": 40})
    paths = run_experiment(cfg, tmp_path)
    assert Path(paths["traces"][0]).read_text().startswith("chain,round,state,ring")
    meta = json.loads(Path(paths["meta"]).read_text())
    assert meta["config_hash"] == cfg.config_hash()
    assert len(meta["replicates"]) == 1
    summary = Path(paths["summary"]).read_text().splitlines()
    assert summary[0] == "replicate,quantity,value"
    assert len(summary) > 1


def test_run_experiment_replicates_differ(tmp_path):
    cfg = four_state_config(
        replicates=2, schedule={"offsets": [10], "total_rounds": 200}
    )
    paths = run_experiment(cfg, tmp_path)
    a = Path(paths["traces"][0]).read_text()
    b = Path(paths["traces"][1]).read_text()
    assert a != b


def test_run_experiment_byte_identical(tmp_path):
    cfg = four_state_config(schedule={"offsets": [10], "total_rounds": 100})
    p1 = run_experiment(cfg, tmp_path / "a")
    p2 = run_experiment(cfg, tmp_path / "b")
    for key in ("summary", "meta"):
        assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()
    assert Path(p1["traces"][0]).read_bytes() == Path(p2["traces"][0]).read_bytes()


# ---------------------------------------------------------------------------
# rate study
# ---------------------------------------------------------------------------

def test_rate_study_refuses_thin_replication():
    cfg = four_state_config(replicates=10)
    with pytest.raises(ConfigurationError):
        slln_rate_study(cfg)


def three_chain_raw(**overrides) -> dict:
    raw = four_state_raw(
        ladder={"weights": [[1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 2, 4]]},
        schedule={"offsets": [10, 10], "total_rounds": 300},
        initial_states=[0, 0, 0],
    )
    raw.update(overrides)
    return raw


def test_rate_study_needs_two_chains():
    with pytest.raises(ConfigurationError):
        slln_rate_study(config_from_dict(three_chain_raw(replicates=50)))


def test_rate_study_constant_function_zero_error():
    cfg = four_state_config(
        replicates=3,
        schedule={"offsets": [10], "total_rounds": 128},
        test_functions=[{"name": "const", "kind": "table", "values": [0.7] * 4}],
    )
    report = slln_rate_study(cfg, n_grid=[32, 64, 128], min_replicates=2)
    f = report.functions[0]
    assert np.all(f.moment1 < 1e-13)  # zero up to summation roundoff
    assert f.slope is None and f.passed and f.monotone


def test_rate_study_grid_validation():
    cfg = four_state_config(replicates=2)
    with pytest.raises(ConfigurationError):
        slln_rate_study(cfg, n_grid=[8, 16], min_replicates=2)  # below burn-in


def test_rate_study_rejects_duplicate_grid_points():
    cfg = four_state_config(replicates=2, schedule={"offsets": [10], "total_rounds": 512})
    with pytest.raises(ConfigurationError, match="distinct"):
        slln_rate_study(cfg, n_grid=[128, 256, 256, 512], min_replicates=2)


def test_rate_study_grid_past_the_horizon_raises_before_stepping(monkeypatch):
    import eesampler.experiments as experiments

    def never(config):
        raise AssertionError("the study stepped before checking its grid")

    monkeypatch.setattr(experiments, "LockstepEnsemble", never)
    cfg = four_state_config(replicates=2, schedule={"offsets": [10], "total_rounds": 256})
    with pytest.raises(ConfigurationError, match="257 exceeds schedule.total_rounds=256"):
        slln_rate_study(cfg, n_grid=[64, 128, 257], min_replicates=2)


def test_rate_study_rerun_identical():
    cfg = four_state_config(replicates=3, schedule={"offsets": [10], "total_rounds": 256})
    a = slln_rate_study(cfg, n_grid=[64, 128, 256], min_replicates=2)
    b = slln_rate_study(cfg, n_grid=[64, 128, 256], min_replicates=2)
    assert json_data(a) == json_data(b)


def test_rate_report_artifacts(tmp_path):
    cfg = four_state_config(replicates=4, schedule={"offsets": [10], "total_rounds": 256})
    report = slln_rate_study(cfg, n_grid=[64, 128, 256], min_replicates=2)
    paths = write_rate_report(report, tmp_path)
    lines = Path(paths["csv"]).read_text().splitlines()
    assert lines[0] == "function,n,moment1,moment2,stderr"
    assert len(lines) == 1 + 3 * len(report.functions)
    blob = json.loads(Path(paths["json"]).read_text())
    assert set(blob) == {
        "config_hash", "n_grid", "burn_in", "replicates", "passed", "functions",
        "stability_violations", "min_ring_mass",
    }
    assert blob["config_hash"] == cfg.config_hash()


def test_rate_report_counts_stability_violations():
    # theta above any feeder ring mass two rings can share: every watched
    # round of every replicate records violations, and the watch draws nothing
    small = {"offsets": [10], "total_rounds": 256}
    low = json_data(slln_rate_study(four_state_config(replicates=3, schedule=small),
                                    n_grid=[64, 128, 256], min_replicates=2))
    high = json_data(slln_rate_study(
        four_state_config(replicates=3, schedule=small,
                          stability={"theta": 0.9, "policy": "warn"}),
        n_grid=[64, 128, 256], min_replicates=2,
    ))
    assert high["stability_violations"] > 0
    assert high["min_ring_mass"] < 0.9
    assert low["stability_violations"] == 0 and low["min_ring_mass"] >= 0.05
    assert json.dumps(high["functions"]) == json.dumps(low["functions"])


def test_rate_study_needs_three_fit_rounds_before_stepping(monkeypatch):
    import eesampler.experiments as experiments

    def never(config):
        raise AssertionError("the study stepped before checking its grid")

    monkeypatch.setattr(experiments, "LockstepEnsemble", never)
    cfg = four_state_config(replicates=2, schedule={"offsets": [50], "total_rounds": 512})
    with pytest.raises(ConfigurationError, match="at least 3 grid rounds >= 2 N_1 = 100"):
        slln_rate_study(cfg, n_grid=[64, 128, 256], min_replicates=2)


# ---------------------------------------------------------------------------
# bias study
# ---------------------------------------------------------------------------

def test_bias_study_smoke():
    cfg = four_state_config(replicates=6, schedule={"offsets": [50], "total_rounds": 2048})
    report = bias_study(cfg, freeze_at=9)
    assert len(report.feeder_atoms) == 10
    assert report.predicted_tv > 0.0
    assert report.exact_feeder_tv < 1e-10
    assert np.isfinite(report.max_z)
    json.dumps(json_data(report), allow_nan=False)  # serializable


def test_bias_study_oracle_follows_variant():
    cfg = four_state_config(
        kernel={"variant": "ee-jump", "epsilon": 0.5, "proposal": "uniform"},
        replicates=4,
        schedule={"offsets": [50], "total_rounds": 2048},
    )
    report = bias_study(cfg, freeze_at=9)
    mu = np.bincount(report.feeder_atoms, minlength=4) / len(report.feeder_atoms)
    expected = exact.stationary(exact.interacting_matrix(cfg.kernels, 1, mu))
    np.testing.assert_allclose(report.predicted, expected)


def test_bias_study_needs_two_chains(tmp_path, capsys):
    raw = three_chain_raw(replicates=6)
    with pytest.raises(ConfigurationError, match="r = 2"):
        bias_study(config_from_dict(raw), freeze_at=9)
    out = tmp_path / "never"
    code = cli.main(["bias-study", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 2
    assert "r = 2" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fluctuation battery
# ---------------------------------------------------------------------------

def test_fluctuation_battery_respects_drift_bound():
    # the smallest ring share theta can never exceed 1/d
    for model in sorted(BATTERY_MODELS):
        cfg = four_state_config(**BATTERY_MODELS[model])
        out = fluctuation_bound_battery(cfg)
        assert out["max_ratio"] <= 1.0 + 1e-9, model
        assert 0.0 < out["theta"] <= 1.0 / cfg.partition.d, model


def scalar_fluctuation_battery(config):
    """Reference for fluctuation_bound_battery: one insertion at a time."""
    size = config.space.size
    labels = config.partition.labels()
    d = config.partition.d
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, experiments._BATTERY_SALT]))
    fs = rng.uniform(-1.0, 1.0, size=(experiments._BATTERY_FUNCS, size))
    ring_sums = np.zeros((d, experiments._BATTERY_FUNCS))
    ring_counts = np.zeros(d, dtype=int)
    for j in range(d):
        ring_sums[j] += fs[:, np.nonzero(labels == j)[0][0]]
        ring_counts[j] += 1
    total = d
    theta_obs = ring_counts.min() / total
    worst = 0.0
    for x in rng.integers(size, size=experiments._BATTERY_STEPS):
        m_plus_2 = total + 1
        before = ring_sums[labels[x]] / ring_counts[labels[x]]
        ring_sums[labels[x]] += fs[:, x]
        ring_counts[labels[x]] += 1
        total += 1
        after = ring_sums[labels[x]] / ring_counts[labels[x]]
        theta_obs = min(theta_obs, ring_counts.min() / total)
        bound = (1.0 / theta_obs + 1.0 / theta_obs**2) / m_plus_2
        worst = max(worst, float(np.abs(after - before).max()) / bound)
    return float(worst), float(theta_obs)


BATTERY_MODELS = {
    "four_state": {},
    "thresholds": {"partition": {"thresholds": [-1.0], "energy": "neg_log_target"}},
    "single_ring": {
        "partition": {"labels": [0, 0, 0, 0]},
        "test_functions": [{"name": "coord", "kind": "coordinate"}],
    },
    "eight_state": {
        "space": {"kind": "finite", "size": 8},
        "ladder": {"weights": [[1] * 8, [1, 3, 2, 5, 1, 4, 2, 6]]},
        "partition": {"labels": [2, 0, 1, 0, 2, 1, 0, 2]},
    },
}


@pytest.mark.parametrize("model", sorted(BATTERY_MODELS))
@pytest.mark.parametrize("seed", [74321, 1, 2], ids=["shipped-seed", "1", "2"])
def test_fluctuation_battery_matches_scalar_loop(model, seed):
    cfg = four_state_config(seed=seed, **BATTERY_MODELS[model])
    out = fluctuation_bound_battery(cfg)
    assert (out["max_ratio"], out["theta"]) == scalar_fluctuation_battery(cfg)
    assert out["steps"] == experiments._BATTERY_STEPS == 10_000


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_verify_suite_passes_on_fixture(four_state):
    report = verify_suite(four_state)
    assert report.passed, report.failing()
    names = {c.name for c in report.checks}
    assert {
        "fixed_point",
        "poisson_residual",
        "composition_identity",
        "mixture_expansion",
        "lipschitz",
        "fluctuation_bound",
        "geometric_rate",
        "invariant_continuity",
    } <= names


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_verify_suite_checks_the_ee_jump_kernel(monkeypatch, epsilon):
    cfg = four_state_config(
        kernel={"variant": "ee-jump", "epsilon": epsilon, "proposal": "uniform"}
    )
    calls = {"q_matrix": [], "ee_jump_matrix": []}
    for name, build in [(name, getattr(exact, name)) for name in calls]:

        def counting(model, level, mu, build=build, name=name):
            calls[name].append(level)
            return build(model, level, mu)

        monkeypatch.setattr(exact, name, counting)
    report = verify_suite(cfg)
    assert report.passed, report.failing()
    # every check reads the jump, never the selection kernel: three
    # fixed-point epsilons, one composition stack per q, the mixture pair,
    # the Lipschitz pair, then the geometric-rate kernel and the continuity
    # pair at level 1; at epsilon 1 the kernel is ring-closed, and the rate
    # and continuity checks leave it out and say so
    closed = cfg.kernels.ring_closed(epsilon)
    assert calls == {"q_matrix": [], "ee_jump_matrix": [1] * (3 + 3 + 1 + 2 + 3 * (not closed))}
    checks = {c.name: c for c in report.checks}
    left_out = "ring-closed kernel left out at level 1"
    assert checks["geometric_rate"].details == (left_out if closed else "")
    assert checks["invariant_continuity"].details.endswith(left_out) == closed
    assert (checks["invariant_continuity"].statistic == 0.0) == closed


def test_verify_suite_detects_corrupted_acceptance(four_state, monkeypatch):
    # sign-flip the swap log-ratio inside the oracle: the fixed point must break
    def corrupted(model, level):
        logw = model.ladder.log_table()
        li, lf = logw[level], logw[level - 1]
        log_ratio = li[None, :] + lf[:, None] - li[:, None] - lf[None, :]
        return np.exp(np.minimum(0.0, -log_ratio))

    monkeypatch.setattr(KernelSet, "swap_table", corrupted)
    report = verify_suite(four_state)
    assert not report.passed
    assert "fixed_point" in report.failing()


@pytest.mark.parametrize(
    "check,ratios_of", [("lipschitz", "lipschitz_check"),
                      ("invariant_continuity", "invariant_continuity_check")]
)
def test_verify_suite_fails_a_check_on_a_nan_ratio(four_state, monkeypatch, check, ratios_of):
    # a NaN ratio in the middle of the battery, after larger finite ones
    build = getattr(exact, ratios_of)

    def with_nan(*args):
        ratios = np.array(build(*args), dtype=float)
        ratios[3] = np.nan
        return ratios

    monkeypatch.setattr(exact, ratios_of, with_nan)
    result = {c.name: c for c in verify_suite(four_state).checks}[check]
    assert not result.passed
    assert np.isnan(result.statistic)


@pytest.mark.parametrize(
    "check,computed_by", [("k_invariance_reversibility", "k_matrix"),
                          ("fixed_point", "stationary"),
                          ("mixture_expansion", "mixture_expansion_check")]
)
def test_verify_suite_fails_a_check_on_a_nan_discrepancy(four_state, monkeypatch, check,
                                                         computed_by):
    # the first value the check computes holds a NaN and the later ones are
    # finite, so a fold with max() would keep its running worst and pass
    build = getattr(exact, computed_by)
    calls = []

    def first_nan(*args):
        value = np.array(build(*args), dtype=float)
        if not calls:
            value.flat[0] = np.nan
        calls.append(args)
        return value

    monkeypatch.setattr(exact, computed_by, first_nan)
    result = {c.name: c for c in verify_suite(four_state).checks}[check]
    assert len(calls) > 1
    assert not result.passed
    assert np.isnan(result.statistic)


def test_cli_writes_a_nan_statistic_as_strict_json_null(tmp_path, monkeypatch, capsys):
    build = exact.lipschitz_check
    monkeypatch.setattr(exact, "lipschitz_check", lambda *args: build(*args) * np.nan)
    cfg_path = write_config(tmp_path, four_state_raw())
    code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")])
    assert code == cli.EXIT_VERIFY
    assert "lipschitz" in capsys.readouterr().err

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "v" / "verification.json").read_text()
    checks = {c["name"]: c for c in json.loads(text, parse_constant=reject)["checks"]}
    assert checks["lipschitz"]["statistic"] is None
    assert checks["lipschitz"]["passed"] is False
    assert isinstance(checks["fixed_point"]["statistic"], float)


def test_verify_suite_single_ring_degenerate():
    cfg = four_state_config(
        partition={"labels": [0, 0, 0, 0]},
        test_functions=[{"name": "coord", "kind": "coordinate"}],
    )
    report = verify_suite(cfg)
    assert report.passed, report.failing()


def test_verify_suite_rejects_oversized_space():
    raw = four_state_raw()
    raw["space"] = {"kind": "finite", "size": 9}
    raw["ladder"] = {"weights": [[1] * 9, list(range(1, 10))]}
    raw["partition"] = {"labels": [0, 0, 0, 1, 1, 1, 2, 2, 2]}
    raw["initial_states"] = [0, 0]
    with pytest.raises(ConfigurationError):
        verify_suite(config_from_dict(raw))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_threshold_partition_matches_its_labels(tmp_path):
    # energy -log pi_2 = -log (1, 1, 2, 4) cut at -1.0 puts state 3 alone in ring 0
    small = {"offsets": [50], "total_rounds": 1024}
    thresholds = four_state_raw(
        partition={"thresholds": [-1.0], "energy": "neg_log_target"}, schedule=small
    )
    labels = config_from_dict(four_state_raw(partition={"labels": [1, 1, 1, 0]}, schedule=small))
    np.testing.assert_array_equal(config_from_dict(thresholds).partition.labels(), [1, 1, 1, 0])

    cfg_path = write_config(tmp_path, thresholds)
    assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0
    verified = json.loads((tmp_path / "v" / "verification.json").read_text())
    expected = json.loads(json.dumps(json_data(verify_suite(labels))))
    for report in (verified, expected):
        report.pop("config_hash")
    assert verified == expected

    biased = json_data(bias_study(config_from_dict(thresholds), freeze_at=9))
    expected = json_data(bias_study(labels, freeze_at=9))
    for report in (biased, expected):
        report.pop("config_hash")
    assert biased == expected


@pytest.mark.parametrize(
    "override",
    [
        {"replicates": "many"},
        {"seed": "abc"},
        {"schedule": {"offsets": ["x"], "total_rounds": 4096}},
        {"stability": {"theta": "small", "policy": "warn"}},
        {"initial_states": ["a", 0]},
        {"test_functions": [{"name": "r", "kind": "ring_indicator", "ring": "one"}]},
        {"space": {"kind": "finite", "size": "four"}},
        {"kernel": {"variant": "selection-mutation", "epsilon": "half", "proposal": "uniform"}},
    ],
    ids=["replicates", "seed", "offsets", "theta", "initial_states", "ring", "size", "epsilon"],
)
def test_cli_malformed_scalar_exits_2(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, four_state_raw(**override))
    code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "never")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"trace": {"snapshot_every": 256, "strict_snapshot": "false"}},
        {"trace": {"snapshot_every": 256, "strict_snapshot": 1}},
        {"trace": {"snapshot_every": 256.0, "strict_snapshot": False}},
        {"replicates": 2.7},
        {"replicates": True},
        {"seed": 1.5},
        {"seed": False},
        {"schedule": {"offsets": [50.9], "total_rounds": 4096}},
        {"schedule": {"offsets": [True], "total_rounds": 4096}},
        {"schedule": {"offsets": [50], "total_rounds": 4096.5}},
        {"initial_states": [0.0, 0]},
        {"initial_states": [0, True]},
        {"test_functions": [{"name": "r", "kind": "ring_indicator", "ring": 1.0}]},
    ],
    ids=["strict-string", "strict-int", "snapshot-every-float", "replicates-float",
         "replicates-bool", "seed-float", "seed-bool", "offsets-float", "offsets-bool",
         "total-rounds-float", "initial-float", "initial-bool", "ring-float"],
)
def test_cli_integer_and_bool_fields_not_coerced(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, four_state_raw(**override))
    code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "never")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"kernel": "uniform"},
        {"schedule": 5},
        {"stability": [0.1]},
        {"test_functions": ["ring1"]},
        {"trace": 3},
    ],
    ids=["kernel", "schedule", "stability", "test_function", "trace"],
)
def test_cli_section_of_wrong_type_exits_2(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, four_state_raw(**override))
    code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "never")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "raw,flags",
    [
        (four_state_raw(stability=[0.1]), ["--abort-on-stability"]),
        ([four_state_raw()], ["--seed", "3"]),
        ("four_state", ["--replicates", "2"]),
    ],
    ids=["abort-on-stability", "seed", "replicates"],
)
def test_cli_override_flag_on_malformed_config_exits_2(tmp_path, capsys, raw, flags):
    cfg_path = write_config(tmp_path, raw)
    code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "never")] + flags)
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "test_functions",
    [
        [{"kind": "coordinate", "name": "a"}, {"kind": "ring_indicator", "ring": 1, "name": "a"}],
        [{"kind": "coordinate", "name": "f1"}, {"kind": "coordinate"}],
        [{"kind": "coordinate", "name": []}],
        [{"kind": "coordinate", "name": ""}],
    ],
    ids=["duplicate", "duplicate-default", "list", "empty"],
)
def test_cli_bad_test_function_name_exits_2(tmp_path, capsys, test_functions):
    cfg_path = write_config(tmp_path, four_state_raw(test_functions=test_functions))
    code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "never")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


KERNEL = {"variant": "selection-mutation", "epsilon": 0.5, "proposal": "uniform"}
SCHEDULE = {"offsets": [50], "total_rounds": 4096}
NESTED_FUZZ = {
    "weights-string": {"ladder": {"weights": "1124"}},
    "weights-row-string": {"ladder": {"weights": [[1, 1, 1, 1], "1124"]}},
    "weights-entry-string": {"ladder": {"weights": [[1, 1, 1, 1], [1, 1, "a", 4]]}},
    "weights-ragged": {"ladder": {"weights": [[1, 1, 1, 1], [1, 1, 2]]}},
    "weights-nested": {"ladder": {"weights": [[[1]] * 4, [[1], [1], [2], [4]]]}},
    "log-weights-null": {"ladder": {"log_weights": [[0, 0, 0, 0], [0, 0, None, 0]]}},
    "temperatures-nested": {"ladder": {"base_weights": [1, 1, 2, 4], "temperatures": [[2.0], [1.0]]}},
    "temperatures-string": {"ladder": {"base_weights": [1, 1, 2, 4], "temperatures": "hot"}},
    "base-weights-string": {"ladder": {"base_weights": "1124", "temperatures": [2.0, 1.0]}},
    "proposal-list": {"kernel": dict(KERNEL, proposal=[])},
    "proposal-kind-int": {"kernel": dict(KERNEL, proposal={"kind": 5})},
    "proposal-kind-list": {"kernel": dict(KERNEL, proposal={"kind": ["uniform"]})},
    "epsilon-object": {"kernel": dict(KERNEL, epsilon={})},
    "epsilon-list-string": {"kernel": dict(KERNEL, epsilon=["a"])},
    "epsilon-nested": {"kernel": dict(KERNEL, epsilon=[[0.5], [0.5]])},
    "variant-list": {"kernel": dict(KERNEL, variant=["ee-jump"])},
    "ring-string": {"test_functions": [{"kind": "ring_indicator", "ring": "a"}]},
    "ring-out-of-range": {"test_functions": [{"kind": "ring_indicator", "ring": 99}]},
    "ring-list": {"test_functions": [{"kind": "ring_indicator", "ring": [1]}]},
    "table-values-string": {"test_functions": [{"kind": "table", "values": "abcd"}]},
    "table-values-short": {"test_functions": [{"kind": "table", "values": [1, 2]}]},
    "function-kind-list": {"test_functions": [{"kind": ["coordinate"]}]},
    "labels-short": {"partition": {"labels": [0, 1]}},
    "labels-nested": {"partition": {"labels": [[0, 0], [1, 1]]}},
    "energy-int": {"partition": {"thresholds": [-1.0], "energy": 5}},
    "thresholds-string": {"partition": {"thresholds": "low"}},
    "initial-states-int": {"initial_states": 5},
    "initial-states-nested": {"initial_states": [[0], [0]]},
    "offsets-nested": {"schedule": dict(SCHEDULE, offsets=[[1]])},
    "total-rounds-list": {"schedule": dict(SCHEDULE, total_rounds=[4096])},
    "size-list": {"space": {"kind": "finite", "size": []}},
    "snapshot-every-list": {"trace": {"snapshot_every": [], "strict_snapshot": False}},
}


@pytest.mark.parametrize("case", sorted(NESTED_FUZZ))
def test_cli_nested_value_of_wrong_type_exits_2(tmp_path, capsys, case):
    cfg_path = write_config(tmp_path, four_state_raw(**NESTED_FUZZ[case]))
    code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "never")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def double_well_raw(**overrides) -> dict:
    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "configs" / "double_well.json").read_text()
    )
    raw.update(overrides)
    return raw


MIXTURE = {"family": "gaussian_mixture", "means": [[-1.5], [1.5]],
           "scales": [0.25, 0.25], "weights": [0.5, 0.5]}
STRICT_VALUES = {
    "weights-bool": four_state_raw(ladder={"weights": [[1, 1, 1, 1], [1, 1, True, 4]]}),
    "epsilon-bool": four_state_raw(kernel=dict(KERNEL, epsilon=True)),
    "epsilon-string": four_state_raw(kernel=dict(KERNEL, epsilon="0.5")),
    "theta-string": four_state_raw(stability={"theta": "0.1", "policy": "warn"}),
    "labels-string": four_state_raw(partition={"labels": ["a", "a", "b", "b"]}),
    "test-functions-null": four_state_raw(test_functions=None),
    "base-on-finite-space": four_state_raw(ladder={"base": MIXTURE, "temperatures": [2, 1]}),
    "means-null": double_well_raw(ladder={"base": dict(MIXTURE, means=[[None], [1.5]]),
                                          "temperatures": [8, 1]}),
    "means-of-another-dim": double_well_raw(
        ladder={"base": dict(MIXTURE, means=[[-1.5, 0.0], [1.5, 0.0]]), "temperatures": [8, 1]}),
    "scale-scalar": double_well_raw(ladder={"base": dict(MIXTURE, scales=0.25),
                                            "temperatures": [8, 1]}),
    "steps-bool": double_well_raw(
        kernel={"variant": "selection-mutation", "epsilon": 0.3,
                "proposal": {"kind": "gaussian_walk", "steps": [True, 0.35]}}),
    "initial-state-string": double_well_raw(initial_states=[["-1.5"], [1.5]]),
    "thresholds-bool": double_well_raw(partition={"thresholds": [True]}),
    "axis-out-of-range": double_well_raw(test_functions=[{"kind": "coordinate", "axis": 1}]),
    "axis-negative": double_well_raw(test_functions=[{"kind": "coordinate", "axis": -1}]),
    "axis-on-finite-space": four_state_raw(test_functions=[{"kind": "coordinate", "axis": 7}]),
    # a key the resolver does not read for the section's form
    "epsilom": four_state_raw(kernel=dict(KERNEL, epsilom=0.1)),
    "sedd": four_state_raw(sedd=7),
    "proposal-keys": four_state_raw(kernel=dict(KERNEL, proposal={"steps": None, "a": "x"})),
    "space-key": four_state_raw(space={"kind": "finite", "size": 4, "dim": 1}),
    "base-log-weights": four_state_raw(ladder={"base_log_weights": [0, 0, 1, 2],
                                               "temperatures": [2, 1]}),
    "ladder-second-form": four_state_raw(ladder={"weights": [[1, 1, 1, 1], [1, 1, 2, 4]],
                                                 "temperatures": [2, 1]}),
    "base-key": double_well_raw(ladder={"base": dict(MIXTURE, mean=[0.0]),
                                        "temperatures": [8, 1]}),
    "partition-energy-with-labels": four_state_raw(partition={"labels": [0, 0, 1, 1],
                                                              "energy": "neg_log_target"}),
    "schedule-key": four_state_raw(schedule=dict(SCHEDULE, burn_in=10)),
    "stability-key": four_state_raw(stability={"theta": 0.05, "polcy": "abort"}),
    "trace-key": four_state_raw(trace={"snapshot_every": 256, "strict": True}),
    "function-key": four_state_raw(test_functions=[{"kind": "ring_indicator", "ring": 1,
                                                    "axis": 0}]),
    "box-space-key": double_well_raw(space={"kind": "box", "lower": [-3.0], "upper": [3.0],
                                            "size": 4}),
    "seed-negative": four_state_raw(seed=-1),
}


@pytest.mark.parametrize("case", sorted(STRICT_VALUES))
def test_cli_value_the_schema_does_not_take_exits_2(tmp_path, capsys, case):
    # coercions (a bool or a string as a number, a string label), nulls as
    # NaN mixture parameters, indices past the space and unknown keys all
    # exit 2
    cfg_path = write_config(tmp_path, STRICT_VALUES[case])
    code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "never")])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


JSON_KINDS = (type(None), bool, (int, float), str, list, dict)


def _json_kind(value) -> int:
    if isinstance(value, bool):
        return 1
    return next(i for i, t in enumerate(JSON_KINDS) if isinstance(value, t))


def _random_json(kind: int, rnd: random.Random, depth: int = 0):
    """A random JSON value of the given kind (an index into JSON_KINDS).

    Every array holds a null and every object a non-string "kind", so no
    value is valid where a config takes more than one type: a number or an
    array for kernel.epsilon, a name or an object for kernel.proposal."""
    if kind == 0:
        return None
    if kind == 1:
        return rnd.random() < 0.5
    if kind == 2:
        return rnd.choice([0, 1, -1, 3, 2.5, 0.25, -7.5, 1e12])
    if kind == 3:
        return rnd.choice(["", "x", "0.5", "1", "true", "null", "uniform", "box"])
    items = [_random_json(rnd.randrange(6 if depth < 2 else 4), rnd, depth + 1)
             for _ in range(rnd.randrange(3))]
    if kind == 4:
        return items + [None]
    return {"kind": rnd.choice([None, 0, [], False]),
            **{key: item for key, item in zip(("size", "steps", "a"), items)}}


def _json_paths(node, prefix=()):
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def generated_config_cases(count: int, seed: int):
    """(name, config) pairs: a valid config, finite or box, with the value at
    one random path, at any depth, replaced by a random JSON value of
    another type."""
    rnd = random.Random(seed)
    bases = {"four_state": four_state_raw(), "double_well": double_well_raw()}
    for _ in range(count):
        base = rnd.choice(sorted(bases))
        raw = copy.deepcopy(bases[base])
        path = rnd.choice(list(_json_paths(raw)))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        old = _json_kind(parent[path[-1]])
        parent[path[-1]] = _random_json(rnd.choice([k for k in range(6) if k != old]), rnd)
        yield f"{base}:{'.'.join(map(str, path))}={parent[path[-1]]!r}", raw


def test_cli_generated_configs_of_wrong_type_exit_2(tmp_path, capsys):
    failed = []
    for i, (name, raw) in enumerate(generated_config_cases(240, seed=20240611)):
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / f"never_{i}"
        try:
            code = cli.main(["run", "--config", cfg_path, "--out", str(out)])
        except Exception as exc:  # a traceback: the resolver let the value through
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code != 2 or "configuration error:" not in err or out.exists():
            failed.append((name, code))
    assert not failed, failed


def test_cli_run_and_verify(tmp_path):
    cfg_path = write_config(
        tmp_path, four_state_raw(schedule={"offsets": [10], "total_rounds": 50})
    )
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "trace_000.csv").exists()
    assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0
    blob = json.loads((tmp_path / "v" / "verification.json").read_text())
    assert blob["passed"] is True


def test_cli_options_do_not_leak_into_the_next_call(tmp_path):
    # one parser serves every call of a process: a call without the
    # override options writes what a fresh process writes
    cfg_path = write_config(
        tmp_path, four_state_raw(replicates=50, schedule={"offsets": [10], "total_rounds": 512})
    )
    cli.main(["rate-study", "--config", cfg_path, "--out", str(tmp_path / "first"),
              "--seed", "5", "--replicates", "60", "--abort-on-stability",
              "--n-grid", "128,256,512"])
    code = cli.main(["rate-study", "--config", cfg_path, "--out", str(tmp_path / "second")])
    package_root = str(Path(experiments.__file__).resolve().parent.parent)
    fresh = subprocess.run(
        [sys.executable, "-m", "eesampler.cli", "rate-study", "--config", cfg_path,
         "--out", str(tmp_path / "fresh")],
        env={**os.environ, "PYTHONPATH": package_root}, capture_output=True,
    )
    assert code == fresh.returncode
    files = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert sorted(p.name for p in (tmp_path / "second").iterdir()) == files
    for name in files:
        assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    # the first call's options took: its report differs
    report = "rate_study.json"
    assert (tmp_path / "first" / report).read_bytes() != (tmp_path / "fresh" / report).read_bytes()


def test_cli_bad_theta_exits_2_without_outputs(tmp_path):
    raw = four_state_raw(stability={"theta": 1.5, "policy": "warn"})
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_missing_config_exits_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_stability_abort_exits_3(tmp_path):
    # two rings cannot both hold mass >= 0.9, so the monitor must trip
    raw = four_state_raw(
        schedule={"offsets": [10], "total_rounds": 100},
        stability={"theta": 0.9, "policy": "warn"},
    )
    cfg_path = write_config(tmp_path, raw)
    code = cli.main(
        ["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
         "--abort-on-stability"]
    )
    assert code == 3


def test_cli_bias_study_negative_freeze_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, four_state_raw(replicates=6))
    out = tmp_path / "never"
    code = cli.main(
        ["bias-study", "--config", cfg_path, "--out", str(out), "--freeze-at", "-3"]
    )
    assert code == 2
    assert "freeze_at" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bias_study_refuses_the_ring_closed_kernel(tmp_path, monkeypatch, capsys):
    # the frozen ee-jump kernel at epsilon 1 never leaves the ring of its
    # state, so it has no unique limit to compare against: exit 2 before
    # the frozen atoms are drawn. verify leaves that epsilon out and passes.
    raw = four_state_raw(kernel={"variant": "ee-jump", "epsilon": 1.0, "proposal": "neighbor"})
    cfg_path = write_config(tmp_path, raw)

    def no_atoms(*args, **kwargs):
        raise AssertionError("the frozen atoms were drawn")

    monkeypatch.setattr(experiments, "frozen_feeder_atoms", no_atoms)
    out = tmp_path / "never"
    assert cli.main(["bias-study", "--config", cfg_path, "--out", str(out)]) == 2
    assert "ring-closed" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0


def test_cli_one_replicate_bias_study_too_short_for_its_batches_exits_2(tmp_path, capsys):
    # 70 rounds leave 6 after the 64-round burn-in, fewer than the batch
    # means need: exit 2 before any work, with no warning and no artifact
    raw = four_state_raw(schedule={"offsets": [50], "total_rounds": 70})
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["bias-study", "--config", cfg_path, "--out", str(out)])
    assert code == 2
    assert not caught
    assert "one-replicate bias study needs at least 16 rounds" in capsys.readouterr().err
    assert not (out / "bias_study.json").exists()


def test_cli_rate_study_malformed_grid_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, four_state_raw(replicates=50))
    out = tmp_path / "never"
    # an empty grid is malformed too, not the default grid
    for grid in ("128,abc", ""):
        code = cli.main(
            ["rate-study", "--config", cfg_path, "--out", str(out), "--n-grid", grid]
        )
        assert code == 2
        assert "--n-grid" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rate_study_grid_too_short_for_the_fit_exits_2(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "never"
    code = cli.main(["rate-study", "--config", str(root / "configs" / "four_state_rate.json"),
                     "--out", str(out), "--n-grid", "128,256"])
    assert code == 2
    assert "at least 3 grid rounds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "verify", "bias-study", "rate-study"])
def test_cli_negative_seed_flag_exits_2(tmp_path, capsys, verb):
    cfg_path = write_config(tmp_path, four_state_raw(replicates=50))
    out = tmp_path / "never"
    assert cli.main([verb, "--config", cfg_path, "--out", str(out), "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rate_study_grid_past_the_horizon_exits_2(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "never"
    code = cli.main(["rate-study", "--config", str(root / "configs" / "four_state_rate.json"),
                     "--out", str(out), "--n-grid", "128,256,512,1024,40000"])
    assert code == 2
    assert "exceeds schedule.total_rounds=16384" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(four_state_raw()).encode("utf-8").replace(b"ring1", b"ring\xff"))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # a UTF-16 byte-order mark: not UTF-8
    b"{\"seed\": 1",  # not JSON
    b"[1, 2]",  # not an object
    b"",
    None,  # no file
], ids=["not-utf8", "not-json", "not-an-object", "empty", "missing"])
def test_load_config_and_the_cli_read_a_config_alike(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigurationError) as caught:
        load_config(path)
    out = tmp_path / "never"
    assert cli.main(["run", "--config", str(path), "--out", str(out), "--seed", "3"]) == 2
    assert capsys.readouterr().err == f"configuration error: {caught.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "verify", "bias-study", "rate-study"])
@pytest.mark.parametrize("below", [False, True])
def test_cli_out_on_a_file_exits_2_before_any_work(tmp_path, monkeypatch, capsys, verb, below):
    def no_work(*args, **kwargs):
        raise AssertionError("the verb ran before its --out was checked")

    for name in ("run_experiment", "verify_suite", "bias_study", "slln_rate_study"):
        monkeypatch.setattr(cli, name, no_work)
    cfg_path = write_config(tmp_path, four_state_raw(replicates=50))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    out = taken / "sub" if below else taken
    assert cli.main([verb, "--config", cfg_path, "--out", str(out)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


def test_cli_numerical_error_exits_4(tmp_path, monkeypatch):
    from eesampler.errors import NumericalError

    cfg_path = write_config(
        tmp_path, four_state_raw(schedule={"offsets": [10], "total_rounds": 50})
    )
    def boom(config, out):
        raise NumericalError("synthetic solver failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 4


def test_cli_seed_override_changes_hash(tmp_path):
    cfg_path = write_config(
        tmp_path, four_state_raw(schedule={"offsets": [10], "total_rounds": 50})
    )
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(
        ["run", "--config", cfg_path, "--out", str(tmp_path / "b"), "--seed", "999"]
    ) == 0
    ha = json.loads((tmp_path / "a" / "meta.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "meta.json").read_text())["config_hash"]
    assert ha != hb


def test_cli_bias_study(tmp_path):
    cfg_path = write_config(
        tmp_path,
        four_state_raw(replicates=6, schedule={"offsets": [50], "total_rounds": 1024}),
    )
    code = cli.main(
        ["bias-study", "--config", cfg_path, "--out", str(tmp_path / "bias"),
         "--freeze-at", "9"]
    )
    blob = json.loads((tmp_path / "bias" / "bias_study.json").read_text())
    assert blob["predicted_tv"] > 0.0
    assert code in (0, 5)  # pass flag depends on the noise band; file always lands


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------

def strict_json(path):
    """An artifact parsed as JSON proper: NaN and Infinity raise."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def one_level_raw():
    return four_state_raw(ladder={"weights": [[1, 1, 2, 4]]}, initial_states=[0],
                          schedule={"offsets": [], "total_rounds": 400})


def test_json_data_is_the_report_fields_and_passed():
    check = experiments.CheckResult("lipschitz", float("nan"), 1.0, False)
    assert json_data(check) == {"name": "lipschitz", "statistic": None, "tolerance": 1.0,
                                "passed": False, "details": ""}
    report = experiments.VerificationReport([check], config_hash="h")
    assert json_data(report) == {"checks": [json_data(check)], "config_hash": "h",
                                 "passed": False}
    mixed = {"a": (np.int64(1), np.float64(-np.inf), np.bool_(True)), "b": np.array([0.5, np.nan])}
    assert json_data(mixed) == {"a": [1, None, True], "b": [0.5, None]}
    assert type(json_data(mixed)["a"][0]) is int
    # no feeder watched: the default minimum mass is written as null
    rate = experiments.RateReport(n_grid=np.array([64, 128]), burn_in=10, replicates=2,
                                  functions=[])
    assert json_data(rate)["min_ring_mass"] is None and json_data(rate)["n_grid"] == [64, 128]


def test_write_json_writes_a_nan_statistic_as_null(tmp_path):
    report = experiments.VerificationReport(
        [experiments.CheckResult("lipschitz", float("nan"), 1.0, False)])
    path = tmp_path / "new" / "verification.json"
    write_json(report, path)
    text = path.read_text()
    assert text == json.dumps(json_data(report), sort_keys=True, indent=2) + "\n"
    assert strict_json(path)["checks"][0]["statistic"] is None


def test_one_level_run_writes_its_min_ring_mass_as_null(tmp_path):
    # no chain feeds another, so no ring mass is ever watched
    cfg = config_from_dict(one_level_raw())
    assert run(cfg).meta["min_ring_mass"] == np.inf
    paths = run_experiment(cfg, tmp_path)
    assert strict_json(paths["meta"])["replicates"][0]["min_ring_mass"] is None


def test_cli_verify_refuses_a_single_level(tmp_path, capsys):
    # with no feeding chain there is no interacting kernel to check; the
    # oracle must not take the target as the feeder of level 0
    raw = one_level_raw()
    with pytest.raises(ConfigurationError, match="r >= 2"):
        verify_suite(config_from_dict(raw))
    out = tmp_path / "never"
    code = cli.main(["verify", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 2
    assert "r >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_every_artifact_is_strict_json_with_fixed_keys(tmp_path):
    cfg_path = write_config(
        tmp_path, four_state_raw(replicates=50, schedule={"offsets": [10], "total_rounds": 256}))
    calls = {"run": ["--replicates", "2"], "rate-study": ["--n-grid", "64,128,256"],
             "bias-study": [], "verify": []}
    for verb, flags in calls.items():
        code = cli.main([verb, "--config", cfg_path, "--out", str(tmp_path / verb), *flags])
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY), verb
    artifacts = {p.relative_to(tmp_path).as_posix(): strict_json(p)
                 for p in tmp_path.rglob("*.json") if p.name != "config.json"}
    assert set(artifacts) == {"run/meta.json", "rate-study/rate_study.json",
                              "bias-study/bias_study.json", "verify/verification.json"}
    assert set(artifacts["bias-study/bias_study.json"]) == {
        "config_hash", "freeze_at", "feeder_atoms", "predicted", "pi_target", "predicted_tv",
        "occupancy", "occupancy_se", "max_z", "agrees", "exact_feeder_tv", "passed",
    }
    verification = artifacts["verify/verification.json"]
    assert set(verification) == {"config_hash", "passed", "checks"}
    for check in verification["checks"]:
        assert set(check) == {"name", "statistic", "tolerance", "passed", "details"}
    meta = artifacts["run/meta.json"]
    assert set(meta) == {"config", "config_hash", "replicates"}
    for rep in meta["replicates"]:
        assert set(rep) == {"config_hash", "master_seed", "replicate", "rounds", "chains",
                            "schedule", "theta", "min_ring_mass", "stability_violations",
                            "fallbacks"}
