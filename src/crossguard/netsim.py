"""Deterministic lossy-network and event-queue layer: transport only.

The network numbers each sender's messages (Network.number) and draws each
copy's drop and latency (Network.latency). Network.send does both for one
copy and returns its seq and latency; it schedules nothing. A broadcast is
numbered once and drawn copy by copy by its caller. The caller builds and
queues every copy it keeps, as one plain tuple (see EventQueue): a
transmission has no record of its own, and its copies share its kind, src,
seq, sent_at and payload. The network knows nothing of the protocol carried
in the payloads, of the queue or of the trace format.

The queue holds only the copies it is given. It pops them in (due, src,
seq, recipient) order, and only up to a bound its caller gives, so the
caller can run its own steps at an instant after every copy due at or
before it.
"""

from __future__ import annotations

import heapq
from enum import Enum

from .determinism import TWO_53, transport_stream, transport_words, word_limit
from .model import NetworkConfig, NodeId, ProtocolError, SimTime


class MessageKind(Enum):
    SESSION_START = "session_start"
    CLAIM = "claim"
    ACTUATION = "actuation"


class EventQueue:
    """Copy queue with a total, deterministic pop order. A copy is the tuple
    (due, src, seq, recipient, kind, sent_at, payload): the fields of its
    deliver trace record plus the payload. The pop order is the tuple's own:
    no two copies share (src, seq, recipient), as a sender numbers each
    message once and sends one copy per recipient, so the heap never
    compares a kind or a payload."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._now: SimTime = 0

    def schedule(self, copy: tuple) -> None:
        if copy[0] < self._now:
            raise ProtocolError(f"copy {copy!r} is due before current time {self._now}")
        heapq.heappush(self._heap, copy)

    def pop(self, bound: SimTime) -> tuple | None:
        """The next copy due at or before bound, or None; later ones stay queued."""
        heap = self._heap
        if not heap or heap[0][0] > bound:
            return None
        copy = heapq.heappop(heap)
        self._now = copy[0]
        return copy

    def __len__(self) -> int:
        return len(self._heap)


class Network:
    """Numbers each sender's messages and draws each copy's drop and latency; it queues nothing.

    Draws come from substreams keyed by (seed, src, seq, recipient): resending
    with the same seed replays identically, and adding a node leaves every
    existing key's draws untouched, though one more actuated node shifts the
    master's seqs, hence its later copies' keys. A copy reads its drop and
    latency words from block 0 of its stream (determinism.transport_words)
    and replays the stream only when the latency word is rejected.
    """

    def __init__(self, node_ids: list[NodeId], config: NetworkConfig, seed: int) -> None:
        self.node_ids = sorted(node_ids)
        self.config = config
        self.seed = seed
        self._next_seq: dict[NodeId, int] = {node: 0 for node in self.node_ids}
        self._low = config.latency_min
        self._span = config.latency_max - config.latency_min + 1
        self._limit = word_limit(self._span)
        # (word >> 11) / 2^53 < p exactly when word >> 11 < p * 2^53: both scalings by 2^53 are exact.
        self._drop_below = config.drop_probability * TWO_53

    def send(self, src: NodeId, dst: NodeId) -> tuple[int, SimTime | None]:
        """Number one message from src and draw its one copy to dst: returns (seq, latency), latency None if dropped."""
        seq = self.number(src)
        return seq, self.latency(src, seq, dst)

    def number(self, src: NodeId) -> int:
        """Take src's next seq: each message src sends is numbered once, in send order."""
        seq = self._next_seq[src]
        self._next_seq[src] = seq + 1
        return seq

    def latency(self, src: NodeId, seq: int, dst: NodeId) -> SimTime | None:
        """The latency the copy of (src, seq) to dst draws, or None if it is dropped."""
        drop_word, latency_word, _, _ = transport_words(self.seed, src, seq, dst)
        if drop_word >> 11 < self._drop_below:
            return None
        if latency_word < self._limit:
            return self._low + latency_word % self._span
        stream = transport_stream(self.seed, src, seq, dst)
        stream.random()
        return stream.randint(self._low, self.config.latency_max)
