"""BufferedUniforms returns exactly the uniforms of the Generator it wraps.

``Generator.random(n)`` gives the floats of n scalar ``random()`` calls for
every bit generator, so the buffer is checked on PCG64, which the chains
use, and on Philox; and the engine gives the same traces with plain
Generators.
"""

import numpy as np
import pytest

from conftest import advance, ee_jump_neighbor_config
from eesampler import kernels, sampler
from eesampler.config import four_state_config
from eesampler.kernels import BufferedUniforms
from eesampler.sampler import ChainEnsemble


@pytest.fixture(params=[1, 7, 256], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    """Small read-ahead blocks make the draws cross refills often."""
    monkeypatch.setattr(kernels, "_BLOCK", request.param)
    return request.param


def test_draws_equal_the_generator(block):
    for bit_generator in (np.random.PCG64, np.random.Philox):
        for seed in range(20):
            ref = np.random.Generator(bit_generator(seed))
            buffered = BufferedUniforms(np.random.Generator(bit_generator(seed)))
            draws = [buffered.random() for _ in range(600)]
            assert draws == [ref.random() for _ in range(600)], (bit_generator, seed)


# ---------------------------------------------------------------------------
# the engine gives the same traces with plain Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make_config",
    [lambda: four_state_config(schedule={"offsets": [50], "total_rounds": 3000}),
     ee_jump_neighbor_config],
    ids=["four_state", "ee-jump-neighbor-strict"],
)
def test_engine_traces_equal_plain_generator_traces(make_config, monkeypatch):
    config = make_config()
    ens = ChainEnsemble(config)
    assert all(isinstance(rng, BufferedUniforms) for rng in ens.rngs)
    advance(ens, config.total_rounds)
    buffered = ens.finalize_trace()

    monkeypatch.setattr(sampler, "BufferedUniforms", lambda rng: rng)
    plain_ens = ChainEnsemble(config)
    assert all(isinstance(rng, np.random.Generator) for rng in plain_ens.rngs)
    advance(plain_ens, config.total_rounds)
    plain = plain_ens.finalize_trace()

    assert len(buffered.rows) == len(plain.rows)
    for a, b in zip(buffered.rows, plain.rows):
        assert a == b
    assert buffered.mass_snapshots == plain.mass_snapshots
    assert buffered.events == plain.events
    assert buffered.meta == plain.meta
    assert {row[5] for row in buffered.rows} >= {True, False}
