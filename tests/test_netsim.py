"""Copy ordering, lossy transport, and per-message random keying."""

from __future__ import annotations

import inspect
import math
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossguard import netsim
from crossguard.determinism import transport_stream
from crossguard.model import NetworkConfig, ProtocolError
from crossguard.netsim import EventQueue, MessageKind, Network


def lossless(latency_min=1000, latency_max=5000, drop=0.0, seed=7):
    return NetworkConfig(
        latency_min=latency_min, latency_max=latency_max, drop_probability=drop, seed=seed
    )


def build_net(node_ids, config, seed=None):
    return Network(node_ids=node_ids, config=config, seed=config.seed if seed is None else seed)


class Copy(NamedTuple):
    """Names for the fields of a queued copy tuple, in the tuple's order."""

    due: int
    src: int
    seq: int
    recipient: int
    kind: MessageKind
    sent_at: int
    payload: object


def view(copy):
    """A popped copy tuple as (due, copy viewed through Copy)."""
    return copy[0], Copy(*copy)


def drain(queue):
    """Pop everything, returning (due, view) pairs in pop order."""
    out = []
    while True:
        popped = queue.pop(math.inf)
        if popped is None:
            return out
        out.append(view(popped))


def broadcast(network, src):
    """Number one message from src and draw its copy to every node, sender
    included, as a run's broadcast does: returns (seq, {node: latency, or
    None if dropped})."""
    seq = network.number(src)
    return seq, {node: network.latency(src, seq, node) for node in network.node_ids}


def delivery_at(due, src=1, seq=0, recipient=2, kind=MessageKind.CLAIM):
    return (due, src, seq, recipient, kind, 0, None)


class TestEventQueue:
    def test_orders_by_due_time(self):
        queue = EventQueue()
        queue.schedule(delivery_at(300))
        queue.schedule(delivery_at(100, seq=1))
        queue.schedule(delivery_at(200, seq=2))
        assert [due for due, _ in drain(queue)] == [100, 200, 300]

    def test_pop_bound_is_inclusive_and_later_deliveries_stay_queued(self):
        queue = EventQueue()
        queue.schedule(delivery_at(500))
        queue.schedule(delivery_at(501, seq=1))
        assert queue.pop(499) is None
        due, delivery = view(queue.pop(500))
        assert (due, delivery.seq) == (500, 0)
        assert queue.pop(500) is None
        assert len(queue) == 1
        with pytest.raises(ProtocolError):
            queue.schedule(delivery_at(499, seq=2))
        queue.schedule(delivery_at(500, seq=2))
        assert [due for due, _ in drain(queue)] == [500, 501]

    def test_simultaneous_deliveries_order_by_src_seq_recipient(self):
        queue = EventQueue()
        queue.schedule(delivery_at(100, src=2, seq=0, recipient=1))
        queue.schedule(delivery_at(100, src=1, seq=1, recipient=3))
        queue.schedule(delivery_at(100, src=1, seq=1, recipient=2))
        queue.schedule(delivery_at(100, src=1, seq=0, recipient=9))
        order = [
            (event.src, event.seq, event.recipient)
            for _, event in drain(queue)
        ]
        assert order == [(1, 0, 9), (1, 1, 2), (1, 1, 3), (2, 0, 1)]

    def test_scheduling_in_the_past_is_a_protocol_error(self):
        queue = EventQueue()
        queue.schedule(delivery_at(100))
        queue.pop(100)
        with pytest.raises(ProtocolError):
            queue.schedule(delivery_at(99, seq=1))

    def test_pop_advances_the_clock(self):
        queue = EventQueue()
        queue.schedule(delivery_at(250))
        queue.schedule(delivery_at(0, seq=1))  # the clock starts at 0
        assert [queue.pop(250)[0], queue.pop(250)[0]] == [0, 250]
        with pytest.raises(ProtocolError):
            queue.schedule(delivery_at(249, seq=2))
        queue.schedule(delivery_at(250, seq=2))
        assert len(queue) == 1

    def test_pop_returns_the_scheduled_copy_itself(self):
        queue = EventQueue()
        copy = delivery_at(100)
        queue.schedule(copy)
        assert queue.pop(100) is copy

    def test_empty_queue_pops_none(self):
        assert EventQueue().pop(math.inf) is None


class TestNetworkTransport:
    def test_the_network_numbers_and_draws_and_queues_nothing(self, monkeypatch):
        """Network takes no queue and keeps none: send numbers one message and
        draws its one copy, and schedules nothing, so a run can draw a copy
        without building an EventQueue."""
        assert list(inspect.signature(Network).parameters) == ["node_ids", "config", "seed"]
        assert list(inspect.signature(Network.send).parameters) == ["self", "src", "dst"]
        monkeypatch.setattr(EventQueue, "schedule", lambda *args: pytest.fail("the network scheduled a copy"))
        network = build_net([1, 2, 3], lossless(drop=0.5))
        sent = [network.send(1, node) for node in (1, 2, 3) * 10]
        assert not any(isinstance(value, EventQueue) for value in vars(network).values())
        assert not hasattr(network, "queue")
        assert [seq for seq, _ in sent] == list(range(30))
        assert {latency is None for _, latency in sent} == {True, False}

    def test_broadcast_reaches_every_node_including_the_sender(self):
        """A broadcast draws one copy per node, in ascending id order, the
        sender's own among them; at drop 0 every copy is kept."""
        network = build_net([3, 1, 2], lossless())
        seq, draws = broadcast(network, 1)
        assert list(draws) == network.node_ids == [1, 2, 3]
        assert None not in draws.values()

    def test_unicast_reaches_only_the_target(self):
        """send numbers one message from src and draws the copy to dst alone:
        its latency is latency(src, seq, dst), and no other sender's seq moves."""
        network = build_net([1, 2, 3], lossless())
        seq, latency = network.send(src=2, dst=1)
        assert seq == 0 and latency is not None
        assert latency == build_net([1, 2, 3], lossless()).latency(2, 0, 1)
        assert [network.number(node) for node in (1, 2, 3)] == [0, 1, 0]

    def test_drop_probability_zero_delivers_everything(self):
        network = build_net([1, 2, 3], lossless(drop=0.0))
        assert None not in [network.send(src=1, dst=2)[1] for _ in range(50)]

    def test_drop_probability_one_drops_everything(self):
        network = build_net([1, 2, 3], lossless(drop=1.0))
        assert broadcast(network, 1) == (0, {1: None, 2: None, 3: None})
        sent = [network.send(src=1, dst=node) for node in (1, 2, 3)]
        assert sent == [(1, None), (2, None), (3, None)]

    def test_send_reports_exactly_the_copies_it_dropped(self):
        """Every copy send returns is the copy latency(src, seq, dst) draws for
        the seq send returned, dropped (None) or kept; seqs run in send order."""
        network = build_net([1, 2, 3, 4, 5], lossless(drop=0.5))
        fresh = build_net([1, 2, 3, 4, 5], lossless(drop=0.5))
        sent = {(network.send(src=1, dst=node), node) for _ in range(40) for node in range(1, 6)}
        assert sorted(seq for (seq, _), _ in sent) == list(range(200))
        for (seq, latency), node in sent:
            assert latency == fresh.latency(1, seq, node)
        dropped = sum(latency is None for (_, latency), _ in sent)
        assert 0 < dropped < 200

    def test_degenerate_latency_is_exact(self):
        """latency_min == latency_max == 10 000 puts every arrival at send+10 000."""
        network = build_net([1, 2], lossless(latency_min=10000, latency_max=10000))
        assert [network.send(src=1, dst=2), network.send(src=2, dst=1)] == [(0, 10000), (0, 10000)]

    def test_latency_draws_stay_inside_the_configured_band(self):
        network = build_net([1, 2], lossless(latency_min=2000, latency_max=8000))
        latencies = sorted(network.send(src=1, dst=2)[1] for _ in range(2000))
        assert latencies[0] >= 2000
        assert latencies[-1] <= 8000

    def test_latency_band_endpoints_are_inclusive(self):
        network = build_net([1, 2], lossless(latency_min=0, latency_max=3))
        latencies = {network.send(src=1, dst=2)[1] for _ in range(2000)}
        assert latencies == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "drop_word, delivered",
        [(2**51 << 11, True), ((2**51 - 1) << 11, False)],
        ids=["equal_is_delivered", "just_below_is_dropped"],
    )
    def test_a_drop_draw_equal_to_the_probability_is_delivered(self, monkeypatch, drop_word, delivered):
        """A copy is dropped iff its draw is strictly below drop_probability.
        The drop draw is the top 53 bits of block 0's word 0 over 2^53, so
        2^51 << 11 draws exactly 0.25 and (2^51 - 1) << 11 one 2^-53 step
        below it; both are injected as that word."""
        monkeypatch.setattr(netsim, "transport_words", lambda *key: (drop_word, 0, 0, 0))
        network = build_net([1, 2], lossless(drop=0.25))
        assert network.send(src=1, dst=2) == (0, 1000 if delivered else None)

    @given(
        drop=st.sampled_from([0.0, 5e-324, 2**-53, 0.25, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        low_bits=st.integers(min_value=0, max_value=2**11 - 1),
        random_words=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6),
    )
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    def test_the_integer_drop_test_agrees_with_the_float_draw(self, drop, low_bits, random_words):
        """send drops a copy iff drop_word >> 11 < drop_probability * 2^53,
        which must be the float form (drop_word >> 11) / 2^53 <
        drop_probability word for word: here at the draws a step below, at
        and a step above the threshold, either way it rounds, and at random
        words."""
        threshold = drop * 2**53
        draws = {
            draw
            for edge in (math.floor(threshold), math.ceil(threshold))
            for draw in (edge - 1, edge, edge + 1)
            if 0 <= draw < 2**53
        }
        words = [draw << 11 | low_bits for draw in sorted(draws)] + random_words
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netsim, "transport_words", lambda *key: (words[key[2]], 0, 0, 0))
            network = build_net([1, 2], lossless(drop=drop))
            for word in words:
                _, latency = network.send(src=1, dst=2)
                assert (latency is None) is ((word >> 11) / 2**53 < drop), (drop, word)

    @pytest.mark.parametrize("offset, replayed", [(0, True), (-1, False)], ids=["limit_is_replayed", "below_it_is_read"])
    def test_a_latency_word_equal_to_its_limit_replays_the_stream(self, monkeypatch, offset, replayed):
        """Block 0's word 1 is the latency draw while it is below limit =
        2^64 - (2^64 mod span); limit itself is rejected, and the copy's
        latency then comes from transport_stream, replayed through random()
        and randint() as a stream is read."""
        span = 3
        limit = 2**64 - 2**64 % span
        replays = []

        class Replay:
            def random(self):
                replays.append("random")
                return 0.0

            def randint(self, low, high):
                replays.append(("randint", low, high))
                return 11

        def transport_stream(*key):
            replays.append(key)
            return Replay()

        monkeypatch.setattr(netsim, "transport_words", lambda *key: (0, limit + offset, 0, 0))
        monkeypatch.setattr(netsim, "transport_stream", transport_stream)
        network = build_net([1, 2], lossless(latency_min=10, latency_max=12), seed=5)
        _, latency = network.send(src=1, dst=2)
        if replayed:
            assert replays == [(5, 1, 0, 2), "random", ("randint", 10, 12)] and latency == 11
        else:
            assert replays == [] and latency == 10 + (limit - 1) % span == 12

    @pytest.mark.parametrize(
        "latency_min, latency_max",
        [(5000, 4999), (0, -1), (0, 2**64), (-(2**63), 2**63)],
        ids=["inverted", "inverted_at_zero", "span_past_2^64", "wide_span_past_2^64"],
    )
    def test_an_unvalidated_latency_range_fails_at_the_first_kept_copy(self, latency_min, latency_max):
        """A Network built from a NetworkConfig that validate_scenario would
        refuse raises randint's ValueError when a copy is kept, and sends
        without error while every copy is dropped."""
        config = lossless(latency_min=latency_min, latency_max=latency_max, drop=1.0)
        network = build_net([1, 2, 3], config)
        assert broadcast(network, 1) == (0, {1: None, 2: None, 3: None})
        assert network.send(src=2, dst=1) == (0, None)
        network = build_net([1, 2, 3], lossless(latency_min=latency_min, latency_max=latency_max))
        with pytest.raises(ValueError, match="empty range|2\\^64"):
            network.send(src=1, dst=2)

    def test_drop_rate_matches_the_configured_probability(self):
        """100 000 unicast sends at drop 0.3: frozen observation 0.30079,
        inside the 99.9% binomial interval around 0.3."""
        network = build_net([1, 2], lossless(drop=0.3), seed=7)
        dropped = sum(network.send(src=1, dst=2)[1] is None for _ in range(100000))
        fraction = dropped / 100000
        assert fraction == pytest.approx(0.30079)
        assert 0.2952 <= fraction <= 0.3048
        assert 0.293 <= fraction <= 0.307

    def test_sequence_numbers_count_per_sender(self):
        """send and number take from one counter per sender."""
        network = build_net([1, 2], lossless())
        a, _ = network.send(src=1, dst=2)
        b = network.number(1)
        c, _ = network.send(src=1, dst=2)
        d, _ = network.send(src=2, dst=1)
        assert (a, b, c, d) == (0, 1, 2, 0)


def stream_replay(network, src, seq, recipients):
    """What transport_stream(seed, src, seq, recipient) draws for each copy,
    read as a stream: random() for the drop, then randint() for the latency.
    Returns {recipient: latency, or None if dropped}, as broadcast does."""
    config = network.config
    draws = {}
    for recipient in recipients:
        stream = transport_stream(network.seed, src, seq, recipient)
        if stream.random() < config.drop_probability:
            draws[recipient] = None
        else:
            draws[recipient] = stream.randint(config.latency_min, config.latency_max)
    return draws


def copy_of(node_ids, config, seed, src, to, seq, dst):
    """Send seq + 1 messages from src on a fresh network, each a unicast
    through send to `to` or, if `to` is None, a broadcast; return
    transmission seq's copy to dst: its latency, or None if dropped."""
    network = build_net(node_ids, config, seed=seed)
    if to is None:
        return [broadcast(network, src) for _ in range(seq + 1)][seq][1][dst]
    return [network.send(src=src, dst=to) for _ in range(seq + 1)][seq][1]


# latency_max = 2^63 over latency_min = 0 is a span of 2^63 + 1: about half of
# all latency words are rejected and replayed.
SPANS = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2**63 + 1, 2**64 - 1, 2**64]),
    st.integers(min_value=2**63, max_value=2**64),
)


class TestKeyedTransportDraws:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        src=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        nodes=st.sets(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=6),
        drop=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        latency_min=st.integers(min_value=0, max_value=10**9),
        span=SPANS,
        sends=st.integers(min_value=1, max_value=3),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_send_draws_what_the_stream_replay_draws(self, seed, src, nodes, drop, latency_min, span, sends):
        """Reading block 0's words inline keeps every copy's drop and latency,
        both for a broadcast's copies, drawn alone by Network.latency, and
        for a unicast's one copy, numbered and drawn by send: each round
        broadcasts, then sends one unicast to each node."""
        config = lossless(latency_min=latency_min, latency_max=latency_min + span - 1, drop=drop)
        network = build_net(sorted(nodes | {src}), config, seed=seed)
        sent = {}
        for _ in range(sends):
            seq, draws = broadcast(network, src)
            sent[seq] = draws
            for node in network.node_ids:
                seq, latency = network.send(src=src, dst=node)
                sent[seq] = {node: latency}
        assert sent == {seq: stream_replay(network, src, seq, draws) for seq, draws in sent.items()}

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        src=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        nodes=st.sets(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=6),
        pick=st.integers(min_value=0, max_value=6),
        drop=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        latency_min=st.integers(min_value=0, max_value=10**9),
        span=SPANS,
        seq=st.integers(min_value=0, max_value=2),
    )
    @example(seed=0, src=1, nodes={2, 3}, pick=1, drop=0.0, latency_min=10, span=5, seq=0)
    @example(seed=0, src=1, nodes={2, 3}, pick=1, drop=1.0, latency_min=10, span=5, seq=1)
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    def test_a_unicast_draws_the_broadcast_copy_to_its_node(self, seed, src, nodes, pick, drop, latency_min, span, seq):
        """A unicast to d and a broadcast's copy to d, sent as the same
        (src, seq) on two networks with one seed, are dropped alike or due
        alike."""
        config = lossless(latency_min=latency_min, latency_max=latency_min + span - 1, drop=drop)
        node_ids = sorted(nodes | {src})
        dst = node_ids[pick % len(node_ids)]
        broadcast, unicast = (copy_of(node_ids, config, seed, src, to, seq, dst) for to in (None, dst))
        assert unicast == broadcast

    def test_a_unicast_replays_a_rejected_latency_word_as_the_broadcast_does(self, monkeypatch):
        """With every latency word rejected, both paths replay the stream,
        once per kept copy, and still agree."""
        replays = []

        def counted(*key):
            replays.append(key)
            return transport_stream(*key)

        span = 3  # 2^64 - 1 is the limit, so the largest word is rejected
        monkeypatch.setattr(netsim, "transport_words", lambda *key: (0, 2**64 - 1, 0, 0))
        monkeypatch.setattr(netsim, "transport_stream", counted)
        config = lossless(latency_min=10, latency_max=10 + span - 1)
        broadcast = copy_of([1, 2, 3], config, 9, 1, None, 0, 2)
        assert replays == [(9, 1, 0, 1), (9, 1, 0, 2), (9, 1, 0, 3)]
        unicast = copy_of([1, 2, 3], config, 9, 1, 2, 0, 2)
        assert replays[3:] == [(9, 1, 0, 2)]
        assert unicast == broadcast

    def test_half_the_latency_words_are_replayed_at_a_span_of_2_to_the_63(self, monkeypatch):
        """At latency (0, 2^63) about half of 40 copies reject their latency
        word and replay the stream, and every copy still draws what the
        stream draws."""
        replays = []

        def counted(*key):
            replays.append(key)
            return transport_stream(*key)

        monkeypatch.setattr(netsim, "transport_stream", counted)
        network = build_net(list(range(40)), lossless(latency_min=0, latency_max=2**63), seed=3)
        sent = broadcast(network, 0)
        monkeypatch.undo()
        assert sent == (0, stream_replay(network, 0, 0, range(40)))
        assert 10 <= len(replays) <= 30


    def test_same_seed_replays_the_same_schedule(self):
        net_a = build_net([1, 2, 3], lossless(drop=0.2))
        first = [broadcast(net_a, 1) for _ in range(4)]
        net_b = build_net([1, 2, 3], lossless(drop=0.2))
        assert [broadcast(net_b, 1) for _ in range(4)] == first

    def test_adding_a_node_never_perturbs_existing_pairs(self):
        """Draws are keyed by (seed, src, seq, recipient): a fourth node adds
        its own draws without shifting the three the trio already saw."""
        net_a = build_net([1, 2, 3], lossless(drop=0.2))
        _, trio = broadcast(net_a, 1)
        net_b = build_net([1, 2, 3, 4], lossless(drop=0.2))
        _, quartet = broadcast(net_b, 1)
        for recipient, latency in trio.items():
            assert quartet[recipient] == latency

    def test_different_seeds_change_the_schedule(self):
        net_a = build_net([1, 2], lossless(latency_min=0, latency_max=10**6), seed=1)
        net_b = build_net([1, 2], lossless(latency_min=0, latency_max=10**6), seed=2)
        assert [net_a.send(src=1, dst=2) for _ in range(5)] != [net_b.send(src=1, dst=2) for _ in range(5)]

