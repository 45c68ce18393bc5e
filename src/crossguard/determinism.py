"""Keyed RNG substreams.

Every random draw in a run comes from a substream derived from the run seed
plus a structural key (who is drawing, for what). Two runs with the same seed
replay identically, and no draw site shares a stream with another, so a draw
changes only when its key does. Adding a node that is not actuated changes
no existing key; an actuated one shifts the master's message numbers, and so
the keys of its later messages. The words are SHA-256 from CPython's built-in
`_sha2` (3.12+) or `_sha256` (3.10, 3.11), else `hashlib.sha256`: the same
function, so the choice changes no byte, only what a short key costs to hash.
"""

from __future__ import annotations

import struct

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# Domain tags keep sense draws and transport draws in disjoint key spaces.
DOMAIN_SENSE = b"sense"
DOMAIN_NET = b"net"

TWO_53 = float(1 << 53)  # a float draw is the top 53 bits of a word over 2^53
_WORD_SPAN = 1 << 64
_BLOCK_WORDS = struct.Struct("<4Q")  # one SHA-256 block as four little-endian words
_BLOCK_INDEX = struct.Struct("<Q")
_BLOCK_0 = _BLOCK_INDEX.pack(0)  # the suffix of every stream's first block


def word_limit(span: int) -> int:
    """randint over span values accepts the words below 2^64 - (2^64 mod
    span); rejecting the rest removes the (tiny) modulo bias exactly. For a
    span that is empty or wider than one word, where randint raises, the
    limit is 0: no word is accepted."""
    return _WORD_SPAN - _WORD_SPAN % span if span > 0 else 0


class KeyedStream:
    """Deterministic uniform draws expanded from a hashed key.

    Blocks are SHA-256(key || block index), consumed eight bytes per draw,
    so the i-th draw of a stream is a pure function of (key, i) that is
    stable across platforms and Python versions. Each block is unpacked
    into its four words once. Every stream a run builds is drawn from, so
    block 0 is hashed when the stream is built; the draws read words from
    the current block inline and call _word only at a block boundary.
    """

    __slots__ = ("_key", "_words", "_index", "_counter")

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._words: tuple[int, ...] = _BLOCK_WORDS.unpack(_sha256(key + _BLOCK_0).digest())
        self._index = 0
        self._counter = 1

    def _word(self) -> int:
        """The first word of the next block, read once the current one is used up."""
        block = _sha256(self._key + _BLOCK_INDEX.pack(self._counter)).digest()
        self._words = _BLOCK_WORDS.unpack(block)
        self._counter += 1
        self._index = 1
        return self._words[0]

    def random(self) -> float:
        """Uniform float in [0, 1), from the top 53 bits of one word."""
        index = self._index
        if index < 4:
            self._index = index + 1
            return (self._words[index] >> 11) / TWO_53
        return (self._word() >> 11) / TWO_53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends inclusive.

        The span high - low + 1 may be at most 2^64, the range of one word.
        """
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        if span > _WORD_SPAN:
            raise ValueError(f"range [{low}, {high}] spans more than 2^64 values")
        limit = word_limit(span)
        while True:
            index = self._index
            if index < 4:
                self._index = index + 1
                word = self._words[index]
            else:
                word = self._word()
            if word < limit:
                return low + (word % span)


# Substream keys pack the seed as an unsigned 64-bit integer and every other
# part, node ids included, as a signed one; these bounds follow from that.
SEED_BOUND = 1 << 64
NODE_ID_BOUND = 1 << 63
# A latency is drawn by randint over [latency_min, latency_max], which one
# 64-bit word must span.
LATENCY_BOUND = 1 << 64


def _key_packer(domain: bytes, parts: int):
    """Packs (domain, seed, *parts) into a stream key: the domain's bytes, then the seed and `parts` parts."""
    return struct.Struct(f"<{len(domain)}sQ{parts}q").pack


_pack_sense_key = _key_packer(DOMAIN_SENSE, 2)
_pack_net_key = _key_packer(DOMAIN_NET, 3)
# The transport key followed by block index 0: what block 0 of the stream hashes.
_pack_net_block_0 = struct.Struct(f"<{len(DOMAIN_NET)}sQ3qQ").pack


def sense_stream(seed: int, node: int, session: int) -> KeyedStream:
    """Substream for one node's perception draw in one session."""
    return KeyedStream(_pack_sense_key(DOMAIN_SENSE, seed, node, session))


def transport_stream(seed: int, src: int, seq: int, dst: int) -> KeyedStream:
    """Substream for one message's delivery draws toward one recipient."""
    return KeyedStream(_pack_net_key(DOMAIN_NET, seed, src, seq, dst))


def transport_words(seed: int, src: int, seq: int, dst: int) -> tuple[int, int, int, int]:
    """Block 0 of transport_stream(seed, src, seq, dst), as its four words.

    A copy's drop draw, the stream's first random(), is (words[0] >> 11) /
    2^53. Its latency draw, the randint(low, high) after it, is low +
    words[1] % span when words[1] < word_limit(span), span being high - low
    + 1. Only a rejected words[1] needs the stream itself, replayed from its
    first draw, to read on.
    """
    return _BLOCK_WORDS.unpack(_sha256(_pack_net_block_0(DOMAIN_NET, seed, src, seq, dst, 0)).digest())
