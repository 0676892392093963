"""Pcg64Draws returns exactly the values of the Generator it wraps.

The replica follows the installed numpy's Generator algorithms (``random``:
the top 53 bits of a raw output; ``integers(n)``: Lemire's bounded method
on 32-bit halves with PCG64's cached upper half, whole outputs above 2**32),
so this module is also run against the oldest supported numpy.
"""

import numpy as np
import pytest

from eesampler import kernels, sampler
from eesampler.config import config_from_dict, four_state_config
from eesampler.kernels import Pcg64Draws
from eesampler.sampler import ChainEnsemble

SPECIAL_N = (1, 2, 3, 57, 2**31 + 11, 2**32 - 1, 2**32, 2**40 + 3)


def call_script(seed: int, count: int) -> list:
    """A seeded list of interleaved calls: None for random(), n for integers(n)."""
    pick = np.random.default_rng([seed, 99])
    calls = []
    for _ in range(count):
        u = pick.random()
        if u < 0.35:
            calls.append(None)
        elif u < 0.75:
            calls.append(SPECIAL_N[pick.integers(len(SPECIAL_N))])
        else:  # a random bound of 1 to 62 bits
            calls.append(int(pick.integers(1, 2 ** int(pick.integers(1, 63)))))
    return calls


def replay(source, calls) -> list:
    return [source.random() if n is None else int(source.integers(n)) for n in calls]


@pytest.fixture(params=[1, 7, 256], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    """Small read-ahead blocks make the draws cross refills often."""
    monkeypatch.setattr(kernels, "_BLOCK", request.param)
    return request.param


def test_draws_equal_the_generator(block):
    for seed in range(120):
        calls = call_script(seed, 200)
        expected = replay(np.random.default_rng(seed), calls)
        assert replay(Pcg64Draws(np.random.default_rng(seed)), calls) == expected, seed


def test_each_bound_alone_equals_the_generator(block):
    for n in SPECIAL_N:
        calls = [n] * 300
        expected = replay(np.random.default_rng([n % 1000, 5]), calls)
        assert replay(Pcg64Draws(np.random.default_rng([n % 1000, 5])), calls) == expected


def test_cached_half_survives_a_refill():
    # 255 random() calls leave one raw output of the first block; integers(3)
    # takes its low half and caches the upper half; random() refills with
    # output 256; the next integers(3) reads the cached half, no refill
    calls = [None] * 255 + [3, None, 3, 3, None, 2**40 + 3, 57, None, 57]
    expected = replay(np.random.default_rng(404), calls)
    assert replay(Pcg64Draws(np.random.default_rng(404)), calls) == expected


def test_draws_take_over_a_pending_half(block):
    ref, wrapped = np.random.default_rng(9), np.random.default_rng(9)
    assert ref.integers(5) == wrapped.integers(5)  # both now cache an upper half
    calls = [5, None, 5, 5]
    assert replay(Pcg64Draws(wrapped), calls) == replay(ref, calls)


def test_unit_bound_consumes_no_draw():
    draws = Pcg64Draws(np.random.default_rng(3))
    assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert draws.random() == np.random.default_rng(3).random()


def test_numpy_integer_bounds_equal_python_int_bounds():
    calls = [np.int64(57), np.int64(2**40 + 3), np.uint32(2**32 - 1), None, np.int64(3)]
    expected = replay(np.random.default_rng(8), calls)
    assert replay(Pcg64Draws(np.random.default_rng(8)), calls) == expected


def test_contracts():
    draws = Pcg64Draws(np.random.default_rng(1))
    for n in (0, -3, 2**63 + 1):
        with pytest.raises(ValueError):
            draws.integers(n)
        with pytest.raises(ValueError):
            np.random.default_rng(1).integers(n)
    with pytest.raises(TypeError):
        Pcg64Draws(np.random.Generator(np.random.Philox(1)))


# ---------------------------------------------------------------------------
# the engine gives the same traces with plain Generators
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize(
    "make_config",
    [lambda: four_state_config(schedule={"offsets": [50], "total_rounds": 3000}),
     ee_jump_neighbor_config],
    ids=["four_state", "ee-jump-neighbor-strict"],
)
def test_engine_traces_equal_plain_generator_traces(make_config, monkeypatch):
    config = make_config()
    ens = ChainEnsemble(config)
    assert all(isinstance(rng, Pcg64Draws) for rng in ens.rngs)
    ens.run_rounds(config.total_rounds)
    replica = ens.finalize_trace()

    monkeypatch.setattr(sampler, "Pcg64Draws", lambda rng: rng)
    plain_ens = ChainEnsemble(config)
    assert all(isinstance(rng, np.random.Generator) for rng in plain_ens.rngs)
    plain_ens.run_rounds(config.total_rounds)
    plain = plain_ens.finalize_trace()

    assert len(replica.rows) == len(plain.rows)
    for a, b in zip(replica.rows, plain.rows):
        assert a == b
    assert replica.mass_snapshots == plain.mass_snapshots
    assert replica.events == plain.events
    assert replica.meta == plain.meta
    assert {row[5] for row in replica.rows} >= {True, False}
