"""Keyed random substreams: reproducibility and independence."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard import determinism
from crossguard.determinism import (
    DOMAIN_NET,
    DOMAIN_SENSE,
    NODE_ID_BOUND,
    SEED_BOUND,
    KeyedStream,
    sense_stream,
    transport_stream,
)

import make_golden
from oracles import substream


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


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="the built-in SHA-256 modules are CPython's")
def test_draws_hash_through_the_built_in_sha256():
    """CPython's own SHA-256 is bound, not OpenSSL's through hashlib: a later
    edit cannot fall back to the slower constructor unseen."""
    builtin = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert determinism._sha256 is builtin.sha256


# Imports crossguard with no built-in SHA-256 module, then prints whether
# hashlib.sha256 was bound and the digests of every g22 golden case.
FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from crossguard import determinism
from crossguard.runner import run_once
from crossguard.scenario import load_scenario
import make_golden
entries = {}
for key, path, semantics, seed, truth in make_golden.cases():
    if path.stem == "g22":
        records, metrics = run_once(load_scenario(path), semantics, seed=seed, truth_mode=truth)
        entries[key] = make_golden.digest_entry(records, metrics)
print(json.dumps({"hashlib": determinism._sha256 is hashlib.sha256, "entries": entries}))
"""


def test_the_hashlib_fallback_draws_the_same_bytes():
    """Where neither built-in module exists, hashlib.sha256 is bound and the
    golden cases of g22 still hash to their stored trace and metrics digests."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", FALLBACK], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    stored = json.loads(make_golden.DIGESTS.read_text(encoding="utf-8"))
    assert out["hashlib"]
    assert len(out["entries"]) == 16
    assert out["entries"] == {key: stored[key] for key in out["entries"]}


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
    assert first == substream(seed, DOMAIN_SENSE, node, session).random()
    assert transport_stream(seed, node, session, 3).random() == substream(seed, DOMAIN_NET, node, session, 3).random()
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


class ByteSlicingStream:
    """The keyed stream as first written: each word sliced from its block and
    converted on its own. Kept here as the reference for the stream format."""

    def __init__(self, key: bytes) -> None:
        self.key = key
        self.block = b""
        self.offset = 32
        self.counter = 0
        self.rejected = 0

    def word(self) -> int:
        if self.offset >= 32:
            self.block = hashlib.sha256(self.key + self.counter.to_bytes(8, "little")).digest()
            self.counter += 1
            self.offset = 0
        word = int.from_bytes(self.block[self.offset : self.offset + 8], "little")
        self.offset += 8
        return word

    def random(self) -> float:
        return (self.word() >> 11) / float(1 << 53)

    def randint(self, low: int, high: int) -> int:
        span = high - low + 1
        limit = 2**64 - 2**64 % span
        while True:
            word = self.word()
            if word < limit:
                return low + word % span
            self.rejected += 1


# One draw: ("word",) reads a raw word through randint(0, 2^64 - 1), ("random",)
# a float, ("randint", low, span) an integer. A span s in (2^63, 2^64) rejects
# a share (2^64 - s) / 2^64 of all words, so the rejection loop runs often.
DRAWS = st.one_of(
    st.just(("word",)),
    st.just(("random",)),
    st.tuples(
        st.just("randint"),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.one_of(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2**63, max_value=2**64)),
    ),
)


def draw(stream, op):
    if op[0] == "word":
        return stream.randint(0, 2**64 - 1)
    if op[0] == "random":
        return stream.random()
    _, low, span = op
    return stream.randint(low, low + span - 1)


@given(key=st.binary(max_size=48), ops=st.lists(DRAWS, max_size=40))
@settings(max_examples=200, deadline=None)
def test_draws_match_the_byte_slicing_reference(key, ops):
    """Unpacking a block into four words keeps every draw of the stream."""
    ours, reference = KeyedStream(key), ByteSlicingStream(key)
    assert [draw(ours, op) for op in ops] == [draw(reference, op) for op in ops]
    # Both streams sit at the same word: the next one agrees too.
    assert ours.randint(0, 2**64 - 1) == reference.word()


@pytest.mark.parametrize("count", [1, 3, 4, 5, 8, 9, 17])
def test_raw_words_cross_block_boundaries_unchanged(count):
    key = DOMAIN_NET + struct.pack("<Qqqq", 3, 1, 2, 4)
    ours, reference = KeyedStream(key), ByteSlicingStream(key)
    assert [ours.randint(0, 2**64 - 1) for _ in range(count)] == [reference.word() for _ in range(count)]


def test_rejection_near_two_to_the_64_consumes_the_same_words():
    span = 2**63 + 1  # words at or above 2^63 + 1 are rejected
    ours, reference = sense_stream(9, 2, 5), ByteSlicingStream(DOMAIN_SENSE + struct.pack("<Qqq", 9, 2, 5))
    assert [ours.randint(7, 6 + span) for _ in range(64)] == [reference.randint(7, 6 + span) for _ in range(64)]
    assert reference.rejected > 0
    assert ours.random() == reference.random()


class CappedStream(KeyedStream):
    """Fails instead of drawing forever, so a missing range check cannot hang.

    Draws read words inline and call _word once per block after the first,
    so the cap counts blocks: 16 blocks are 64 words.
    """

    __slots__ = ("blocks",)

    def __init__(self, key: bytes) -> None:
        super().__init__(key)
        self.blocks = 0

    def _word(self) -> int:
        self.blocks += 1
        if self.blocks > 16:
            raise AssertionError("randint kept drawing")
        return super()._word()


def test_randint_refuses_a_span_wider_than_one_word():
    """A wider span has no acceptance limit, so rejection would never end."""
    stream = CappedStream(DOMAIN_NET + struct.pack("<Qq", 11, 12))
    stream.randint(0, 2**64 - 1)
    stream.randint(-5, 2**64 - 6)
    for low, high in [(0, 2**64), (-1, 2**64 - 1), (0, 2**65)]:
        with pytest.raises(ValueError, match="2\\^64"):
            stream.randint(low, high)


def test_randint_rejects_a_word_equal_to_its_limit():
    """Words at or above limit = 2^64 - (2^64 mod span) are rejected, and
    limit - 1 is the largest accepted word. Both are injected, in order, as
    the words the stream reads next."""
    span = 3
    limit = 2**64 - 2**64 % span
    stream = KeyedStream(b"")
    stream._words, stream._index = (limit, limit - 1, 0, 0), 0
    assert stream.randint(10, 12) == 10 + (limit - 1) % span == 12
    assert stream._index == 2  # limit was read and rejected, then limit - 1 accepted
