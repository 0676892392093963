"""Golden outputs: the SHA-256 of every ``run`` artifact on three finite
configs is pinned, so a change to the engine's speed that moves one byte
of a trace, a mass snapshot, an event, a summary or the metadata fails here.

The configs are the shipped ``four_state`` and ``four_state_ee_jump``, the
strict-snapshot three-chain ee-jump model ``ee_jump_neighbor_config``, and
an 8-state, 3-ring, three-chain selection-mutation model in both snapshot
modes whose rounds hold fallbacks and ``low_mass`` events together (rounds
5, 6, 16 and 18 under strict snapshots), so the order of a round's events
is pinned too.
Box configs are left out: their floats follow numpy's arithmetic, which
differs between the supported numpy versions.

The lockstep engine's outputs are pinned too: ``rate_study.csv`` of the
rate study on ``four_state_rate`` (50 replicates, grid 128..2048) and on its
strict-snapshot copy, and the bias study's occupancies, their standard
errors and the frozen atoms on criterion 9's config and an ee-jump copy.
Fields computed through LAPACK (the rate study's slope, the bias study's
prediction) are left out, as the box configs are.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import ee_jump_neighbor_config, eight_state_events_config
from eesampler.config import config_from_dict, four_state_config
from eesampler.experiments import (
    bias_study,
    json_data,
    run_experiment,
    slln_rate_study,
    write_rate_report,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "four_state": {
        "events_000.csv": "bd840dd75f2322892825223549df55b322b75d88c1eaa277ae3c6f738aa886c4",
        "masses_000.csv": "b87856c0c60cd90980e70074acbecddf1549d560f8c3835fe4d005c00e0998f9",
        "meta.json": "65bcf0064f6ac6b94aafa9341f4767d38703a2ca3e9e580dfaf069e10458c9ab",
        "summary.csv": "173b51e4b996602f2b35638d09fc0f525e47f16085666080885659214c62a674",
        "trace_000.csv": "fbe466566f72b413f22b46b184d45506dc41706013b6be38e8f90379a4369c48",
    },
    "four_state_ee_jump": {
        "events_000.csv": "bd840dd75f2322892825223549df55b322b75d88c1eaa277ae3c6f738aa886c4",
        "masses_000.csv": "b536346d92658a9a040d5431b4c86f1fc71eca977cebef8ce2b081cecf9fa256",
        "meta.json": "7a32de7517ad8c3107d021c46593bfb2004a108ca77b8c3644c23c8cf09f0983",
        "summary.csv": "46d82bfed52821a5bf7ac5d17033faf11ed34a4dc3b8b64a789187cd8280b364",
        "trace_000.csv": "4c1e7fc381b63378d138eab90cbe09c700f5778698fa30da393c58359fccef31",
    },
    "ee_jump_neighbor_strict": {
        "events_000.csv": "9d6742fca2e85b762f7cc353185707d64b04af689f7f89f5776c4bd6d5e719fe",
        "masses_000.csv": "3cb6047688656c681838db662e4aa18dcd94c794700826a026c3ffa1263b3292",
        "meta.json": "80ce71adc93632121bf4d481cdee37b4c56f41b631900f08941172c64b8c2a9e",
        "summary.csv": "46d3facb2ccc47b59ff8ec6f8e591247baa618477d490d111e251b7552b5675b",
        "trace_000.csv": "12a8e9cb6f4a7d25bcaa29ee71583a99264d984639e1b9a07915de4ed662a93e",
    },
    "eight_state_strict": {
        "events_000.csv": "4241c35064f513e7bcbebc7dcc116530bec03fd6cbe744c089dfdc3aa988f090",
        "masses_000.csv": "5e03e52e9e5beb62706fd1485edf69343c0927490e1e476758ad3ca0b90985f6",
        "meta.json": "81533dc3671969bb74449de6aeac50d093d571ace1e1bf81d0baf9dad3136384",
        "summary.csv": "53fe538a4dd84e371f2fc4f432c150bf55f2647108db070471e700212b0c7475",
        "trace_000.csv": "8292aa588e4371067cada1062c55e4e24ef5256ab527571ba80c69fd4119ed2e",
    },
    "eight_state_sequential": {
        "events_000.csv": "485515cdf6ff69be8157e9c49b7fa3c7ecc4348f57fd7cd564449ca21478825f",
        "masses_000.csv": "0cae7ff3f8cdff1a7efb7071f4ba84fdeaa6cc8de4032a8d1a188442151d869d",
        "meta.json": "519ad7cacf2922456b60d77a0cd8188d8939a62ca6f2723b6bd5d17038c05591",
        "summary.csv": "b2861e001023823012a1a0082e51e3c69146abe98769f1afcb2cf5ae67875e84",
        "trace_000.csv": "2ce8c091a701feaee5da0402c588433469e3a00594dd9673af5c3836a9960e94",
    },
}


def golden_config(name):
    if name == "ee_jump_neighbor_strict":
        return ee_jump_neighbor_config()
    if name.startswith("eight_state_"):
        return eight_state_events_config(strict=name.endswith("_strict"))
    return config_from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_artifacts_match_their_golden_digests(name, tmp_path):
    run_experiment(golden_config(name), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN[name]


RATE_GRID = (128, 256, 512, 1024, 2048)
RATE_GOLDEN = {
    "four_state_rate": "fb52238c6aef71ad34d0a42011a4f7cda0d2ce7ad28461e7c3cf96f5be55884a",
    "four_state_rate_strict": "a6ed6de8aa18c5ae9985defaaa99133fd19f70ecb6a66cb0f6c34c08b36f1bec",
}
BIAS_GOLDEN = {
    "criterion_9": "84f950019ca4e418a1206ca53bc68f2bb490a75edabf8ceb669b8ab653560ab3",
    "ee_jump_neighbor": "b714e476c6885794fc5c1ca465c1aebfb3ae31767f5226925800082f3eb45ec2",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RATE_GOLDEN))
def test_rate_study_csv_matches_its_golden_digest(name, tmp_path):
    raw = json.loads((CONFIGS / "four_state_rate.json").read_text())
    raw["replicates"] = 50
    if name.endswith("_strict"):
        raw["trace"] = {"snapshot_every": 256, "strict_snapshot": True}
    report = slln_rate_study(config_from_dict(raw), n_grid=RATE_GRID)
    csv_path = write_rate_report(report, tmp_path)["csv"]
    assert sha256(Path(csv_path).read_bytes()) == RATE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BIAS_GOLDEN))
def test_bias_study_occupancy_matches_its_golden_digest(name):
    kernel = {"ee_jump_neighbor": {"variant": "ee-jump", "epsilon": 0.5, "proposal": "neighbor"}}
    overrides = {"kernel": kernel[name]} if name in kernel else {}
    cfg = four_state_config(replicates=32, schedule={"offsets": [50], "total_rounds": 4096},
                            **overrides)
    rep = bias_study(cfg, freeze_at=9)
    fields = {"occupancy": rep.occupancy, "occupancy_se": rep.occupancy_se,
              "feeder_atoms": rep.feeder_atoms}
    assert sha256(json.dumps(json_data(fields), sort_keys=True).encode()) == BIAS_GOLDEN[name]
