"""Keyed random substreams: reproducibility and independence."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard.determinism import (
    DOMAIN_NET,
    DOMAIN_SENSE,
    NODE_ID_BOUND,
    SEED_BOUND,
    sense_stream,
    substream,
    transport_stream,
)


def test_same_key_replays_identically():
    a = substream(7, DOMAIN_SENSE, 1, 2)
    b = substream(7, DOMAIN_SENSE, 1, 2)
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_different_parts_give_different_sequences():
    base = [substream(7, DOMAIN_SENSE, 1, 2).random() for _ in range(1)]
    assert substream(7, DOMAIN_SENSE, 1, 3).random() != base[0]
    assert substream(7, DOMAIN_SENSE, 2, 2).random() != base[0]
    assert substream(8, DOMAIN_SENSE, 1, 2).random() != base[0]
    assert substream(7, DOMAIN_NET, 1, 2).random() != base[0]


def test_streams_are_mutually_independent():
    """Interleaving draws from one stream never shifts another."""
    solo = sense_stream(3, 4, 5)
    expected = [solo.random() for _ in range(10)]
    probe = sense_stream(3, 4, 5)
    noise = transport_stream(3, 4, 5, 6)
    got = []
    for _ in range(10):
        noise.random()
        got.append(probe.random())
    assert got == expected


def test_random_is_in_unit_interval():
    stream = substream(0, DOMAIN_NET, 0)
    for _ in range(10000):
        value = stream.random()
        assert 0.0 <= value < 1.0


def test_randint_bounds_are_inclusive():
    stream = substream(11, DOMAIN_NET, 9)
    seen = {stream.randint(0, 3) for _ in range(2000)}
    assert seen == {0, 1, 2, 3}


def test_randint_degenerate_interval():
    stream = substream(11, DOMAIN_NET, 10)
    assert all(stream.randint(10000, 10000) == 10000 for _ in range(20))


def test_randint_rejects_inverted_bounds():
    stream = substream(11, DOMAIN_NET, 11)
    with pytest.raises(ValueError):
        stream.randint(5, 4)


def test_frozen_reference_draws():
    """Regression pin: these exact values must never drift between releases."""
    stream = sense_stream(0, 1, 1)
    assert [stream.random() for _ in range(3)] == [
        0.15655582973229087,
        0.2607198345420969,
        0.7862981227662075,
    ]
    wire = transport_stream(0, 1, 0, 2)
    assert wire.random() == 0.2753723320841639
    assert wire.randint(2000, 8000) == 3164


def test_randint_mean_is_roughly_central():
    stream = substream(2, DOMAIN_NET, 1)
    draws = [stream.randint(0, 100) for _ in range(20000)]
    assert 48.0 < sum(draws) / len(draws) < 52.0


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    node=st.integers(min_value=0, max_value=2**31),
    session=st.integers(min_value=1, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_sense_stream_replay_property(seed, node, session):
    first = sense_stream(seed, node, session).random()
    again = sense_stream(seed, node, session).random()
    assert first == again
    assert 0.0 <= first < 1.0


def test_keyed_stream_distinguishes_part_boundaries():
    """Fixed-width packing must keep (1, 23) and (12, 3) style keys distinct."""
    a = substream(0, DOMAIN_SENSE, 1, 23)
    b = substream(0, DOMAIN_SENSE, 12, 3)
    assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]


def test_key_bounds_are_the_ones_the_key_packing_imposes():
    sense_stream(SEED_BOUND - 1, NODE_ID_BOUND - 1, 1)
    with pytest.raises(struct.error):
        sense_stream(SEED_BOUND, 1, 1)
    with pytest.raises(struct.error):
        sense_stream(0, NODE_ID_BOUND, 1)
