"""Deterministic lossy-network and event-queue layer: transport only.

The network draws each copy's drop and latency, schedules the deliveries
and tells its caller which copies it dropped. It knows nothing of the
protocol carried in the payloads or of the trace format.

The queue pops in (due, tie_order) lexicographic order where tie_order is
(event class rank, src, seq, recipient). Deliveries rank before session
deadlines, which rank before actuation ticks, so a claim landing exactly on
the deadline is still collected and the inclusive boundary is well defined.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .determinism import transport_stream
from .model import NetworkConfig, NodeId, ProtocolError, SessionId, SimTime


class MessageKind(Enum):
    SESSION_START = "session_start"
    CLAIM = "claim"
    ACTUATION = "actuation"


# Message and Delivery are built once per transmission and per copy, so they
# are slotted rather than frozen: a frozen dataclass's __init__ costs several
# times as much. Nothing mutates them after construction.
@dataclass(slots=True)
class Message:
    """One transmission; dst None means broadcast to every node, sender included."""

    kind: MessageKind
    src: NodeId
    dst: NodeId | None
    seq: int
    sent_at: SimTime
    payload: object


@dataclass(slots=True)
class Delivery:
    """A message arriving at one recipient."""

    message: Message
    recipient: NodeId

    RANK = 0

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.RANK, self.message.src, self.message.seq, self.recipient)


@dataclass(frozen=True)
class SessionDeadline:
    """The master's collection window for one session has ended."""

    master: NodeId
    session: SessionId

    RANK = 1

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.RANK, self.master, self.session, self.master)


@dataclass(frozen=True)
class ActuationTick:
    """Settle interval elapsed; the session may close and the next may open."""

    master: NodeId
    session: SessionId

    RANK = 2

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.RANK, self.master, self.session, self.master)


Event = Delivery | SessionDeadline | ActuationTick


class EventQueue:
    """Priority queue with a total, deterministic pop order."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._now: SimTime = 0
        self._pushes = itertools.count()

    @property
    def now(self) -> SimTime:
        return self._now

    def schedule(self, due: SimTime, event: Event) -> None:
        if due < self._now:
            raise ProtocolError(
                f"event {event!r} scheduled at {due}, before current time {self._now}"
            )
        heapq.heappush(self._heap, (due, *event.sort_key(), next(self._pushes), event))

    def pop(self) -> tuple[SimTime, Event] | None:
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        due, event = entry[0], entry[-1]
        self._now = due
        return due, event

    def __len__(self) -> int:
        return len(self._heap)


class Network:
    """Applies per-recipient drop and latency draws and schedules deliveries.

    Draws come from substreams keyed by (seed, src, seq, recipient): resending
    with the same seed replays identically, and adding a node never perturbs
    the draws any existing pair sees.
    """

    def __init__(
        self,
        node_ids: list[NodeId],
        config: NetworkConfig,
        seed: int,
        queue: EventQueue,
    ) -> None:
        self.node_ids = sorted(node_ids)
        self.config = config
        self.seed = seed
        self.queue = queue
        self._next_seq: dict[NodeId, int] = {node: 0 for node in self.node_ids}
        self.dropped = 0

    def send(
        self,
        kind: MessageKind,
        src: NodeId,
        dst: NodeId | None,
        payload: object,
        now: SimTime,
    ) -> tuple[Message, list[NodeId]]:
        """Transmit; returns the message and the recipients whose copy was
        dropped, in ascending id order, after scheduling every other copy."""
        seq = self._next_seq[src]
        self._next_seq[src] = seq + 1
        message = Message(kind, src, dst, seq, now, payload)

        dropped = []
        config = self.config
        drop_probability = config.drop_probability
        seed = self.seed
        schedule = self.queue.schedule
        for recipient in self.node_ids if dst is None else (dst,):
            stream = transport_stream(seed, src, seq, recipient)
            if stream.random() < drop_probability:
                dropped.append(recipient)
                continue
            latency = stream.randint(config.latency_min, config.latency_max)
            schedule(now + latency, Delivery(message, recipient))
        self.dropped += len(dropped)
        return message, dropped


def run(queue: EventQueue, handlers: Mapping[type, Callable[[SimTime, Event], None]]) -> None:
    """Drain the queue, dispatching each event by type; stops at quiescence."""
    while True:
        popped = queue.pop()
        if popped is None:
            return
        due, event = popped
        handler = handlers.get(type(event))
        if handler is None:
            raise ProtocolError(f"no handler registered for {type(event).__name__}")
        handler(due, event)
