"""The batched streams reproduce ``derive_rng`` bit for bit."""

import numpy as np
import pytest

from carpetlab.seeding import derive_rng, draw_uniforms, stream_integers, stream_states

SEEDS = [0, 42, 2**40 + 3, 2**64 - 1]  # one and two entropy words, both extremes
LABELS = ["coupled-walk", "upgrade-trial"]
INDICES = [0, 1, 10**6]


def draws(states, calls):
    """``calls`` draws of four uniforms per stream, side by side."""
    rows = np.arange(len(states))
    return np.concatenate([draw_uniforms(states, rows) for _ in range(calls)], axis=1)


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_derive_rng(seed, label):
    states = stream_states(seed, label, INDICES)
    for i, index in enumerate(INDICES):
        pcg = derive_rng(seed, label, index).bit_generator.state["state"]
        assert int(states[i, 0]) << 64 | int(states[i, 1]) == pcg["state"]
        assert int(states[i, 2]) << 64 | int(states[i, 3]) == pcg["inc"]
    u = draws(states, 5)
    assert u.shape == (len(INDICES), 20)
    for i, index in enumerate(INDICES):
        assert np.array_equal(u[i], derive_rng(seed, label, index).random(20))


def test_draws_advance_only_the_given_rows():
    states = stream_states(5, "coupled-walk", range(6))
    rows = np.array([1, 4])
    first = draw_uniforms(states, rows)
    second = draw_uniforms(states, np.arange(6))
    for i in range(6):
        stream = derive_rng(5, "coupled-walk", i).random(8)
        if i in rows:
            assert np.array_equal(first[list(rows).index(i)], stream[:4])
            assert np.array_equal(second[i], stream[4:])
        else:
            assert np.array_equal(second[i], stream[:4])


@pytest.mark.parametrize("bound", [1, 5, 2**31 + 1])
def test_bounded_draw_then_uniforms_equal_derive_rng(bound):
    indices = np.arange(64)
    states = stream_states(42, "upgrade-trial", indices)
    picks = stream_integers(states, bound)
    u = draws(states, 2)
    used_high_half = past_buffer = 0
    for i in indices:
        rng = derive_rng(42, "upgrade-trial", int(i))
        assert picks[i] == rng.integers(bound)
        state = rng.bit_generator.state
        # Accepting a low half leaves the high half buffered; a rejection
        # moves on to the buffer, or past it to another 64-bit output.
        used_high_half += state["has_uint32"] == 0
        one_output = derive_rng(42, "upgrade-trial", int(i))
        one_output.bit_generator.random_raw()
        past_buffer += state["state"] != one_output.bit_generator.state["state"]
        assert np.array_equal(u[i], rng.random(8))
    if bound > 2**31:  # about half the 32-bit draws are rejected here
        assert used_high_half > 0 and past_buffer > 0


def test_batched_streams_reject_what_they_cannot_reproduce():
    with pytest.raises(ValueError, match="below 2\\^32"):
        stream_states(0, "coupled-walk", [2**32])
    with pytest.raises(ValueError, match="nonnegative"):
        stream_states(0, "coupled-walk", [-1])
    with pytest.raises(ValueError, match="bound"):
        stream_integers(stream_states(0, "coupled-walk", [0]), 2**32)
    # The largest index that needs no extra entropy word still matches.
    u = draws(stream_states(7, "coupled-walk", [2**32 - 1]), 1)
    assert np.array_equal(u[0], derive_rng(7, "coupled-walk", 2**32 - 1).random(4))
