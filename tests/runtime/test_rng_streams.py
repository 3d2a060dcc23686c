"""Property tests: every spawn-key-derived RNG stream survives a checkpoint.

The engine (``task_seed_sequences``), the lock-step backend (same streams),
and the config compiler (``SeedSequence(seed, spawn_key=(stream_id,))``) all
hand out PCG64 generators derived from spawn keys.  Checkpoint transparency
rests on one property: capture a stream's bit-generator state anywhere in its
life, push it through the JSON codec, transplant it into *any* fresh PCG64
generator — and the continuation is bit-identical.  These tests pin that
property across the whole stream zoo rather than one hand-picked seed.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.compile import _SENSING_STREAM, _TRACKER_STREAM, _WORLD_STREAM
from repro.experiments.engine import task_seed_sequences
from repro.runtime.checkpoint import decode_state, encode_state, restore_rng, snapshot_rng

SETTINGS = settings(deadline=None, max_examples=30)

base_seeds = st.integers(min_value=0, max_value=2**31 - 1)
cell_seeds = st.integers(min_value=0, max_value=999)
densities = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
n_draws = st.integers(min_value=0, max_value=200)


def advance(rng, n):
    """Burn a mixed diet of draws — uniforms, normals, integers, permutation —
    so the cached-uint32 half-state gets exercised, not just the counter."""
    for _ in range(n % 7):
        rng.integers(0, 2**63)
    rng.standard_normal(n)
    if n % 2:
        rng.random()  # leaves a cached uint32 behind on odd counts
    rng.permutation(5 + n % 11)


def roundtrip_state(rng):
    """snapshot -> encode -> JSON text -> decode, the full checkpoint path."""
    return decode_state(json.loads(json.dumps(encode_state(snapshot_rng(rng)))))


def assert_stream_resumes(make_rng, n):
    rng = make_rng()
    advance(rng, n)
    state = roundtrip_state(rng)
    expected = rng.standard_normal(64)

    fresh = make_rng()  # same stream, back at its origin
    restore_rng(fresh, state)
    assert np.array_equal(fresh.standard_normal(64), expected)

    foreign = np.random.default_rng(0)  # transplant overwrites everything
    restore_rng(foreign, state)
    # the first restore already consumed `expected`; re-restore to replay
    restore_rng(foreign, state)
    assert np.array_equal(foreign.standard_normal(64), expected)


class TestEngineStreams:
    @SETTINGS
    @given(base=base_seeds, density=densities, seed=cell_seeds, n=n_draws)
    def test_every_stream_roundtrips(self, base, density, seed, n):
        streams = task_seed_sequences(base, density, seed)
        for name in ("world", "tracker", "sensing"):
            assert_stream_resumes(
                lambda: np.random.default_rng(streams[name]), n
            )

    @SETTINGS
    @given(base=base_seeds, density=densities, seed=cell_seeds)
    def test_snapshot_is_isolated_from_the_source(self, base, density, seed):
        """Advancing the source after the snapshot must not disturb it."""
        rng = np.random.default_rng(task_seed_sequences(base, density, seed)["world"])
        state = snapshot_rng(rng)
        frozen = json.dumps(encode_state(state), sort_keys=True)
        rng.standard_normal(100)
        assert json.dumps(encode_state(state), sort_keys=True) == frozen


class TestConfigCompilerStreams:
    @SETTINGS
    @given(seed=base_seeds, n=n_draws)
    def test_compiler_streams_roundtrip(self, seed, n):
        for stream_id in (_WORLD_STREAM, _TRACKER_STREAM, _SENSING_STREAM):
            assert_stream_resumes(
                lambda: np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(stream_id,))
                ),
                n,
            )

    @SETTINGS
    @given(seed=base_seeds, n=n_draws)
    def test_trajectory_child_stream_roundtrips(self, seed, n):
        # the compiler's dedicated trajectory stream (world root, child 1)
        assert_stream_resumes(
            lambda: np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(_WORLD_STREAM, 1))
            ),
            n,
        )


class TestLockstepStreams:
    """The lock-step backend builds its generators from the very same
    task_seed_sequences streams; what matters for checkpointing is that a
    state captured under one backend restores under the other."""

    @SETTINGS
    @given(base=base_seeds, density=densities, seed=cell_seeds, n=n_draws)
    def test_states_are_backend_agnostic(self, base, density, seed, n):
        streams = task_seed_sequences(base, density, seed)
        serial = np.random.default_rng(streams["tracker"])
        lockstep = np.random.default_rng(streams["tracker"])
        advance(serial, n)
        state = roundtrip_state(serial)
        restore_rng(lockstep, state)
        assert np.array_equal(
            lockstep.standard_normal(32), serial.standard_normal(32)
        )


class TestBatchedDraws:
    """The tracker's creation gate and the sensing layer take n draws as one
    ``size=n`` call; that is only exact if it yields the scalar stream."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_uniform_and_normal_batches_equal_scalar_draws(self, n):
        a, b = np.random.default_rng(99), np.random.default_rng(99)
        assert a.uniform(size=n).tolist() == [b.uniform() for _ in range(n)]
        assert a.normal(0.0, 0.05, size=n).tolist() == [b.normal(0.0, 0.05) for _ in range(n)]
        assert a.random() == b.random()
