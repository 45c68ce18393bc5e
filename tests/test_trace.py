"""Trace serialization: canonical bytes, the declared schema, the line writers and claim payload round-trips."""

from __future__ import annotations

import dataclasses
import inspect
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard import trace
from crossguard.aggregation import AggregationSemantics
from crossguard.model import Detection, SensorKind
from crossguard.runner import run_once
from crossguard.trace import (
    CLAIM_FIELDS,
    RECORD_KINDS,
    claim_payload,
    dumps_record,
    dumps_records,
    loads_records,
    write,
)

from helpers import make_claim, make_scenario, record_keys
from oracles import claim_from_payload

README = Path(__file__).resolve().parent.parent / "README.md"
ENCODE = json.JSONEncoder(separators=(",", ":")).encode
TRUTH_MODES = ("fixed", "alternating")


def lossy_runs(truth_mode: str) -> list[list[dict]]:
    """Records of lossy multi-session runs: drops, late claims and orphans in each."""
    runs = []
    for seed in (26, 27):
        scenario = make_scenario(
            node_count=5, fn=0.2, fp=0.2, drop=0.2, latency=(2000, 30000), window=20000,
            settle=30000, sessions=6, actuate_all=True,
        )
        semantics = AggregationSemantics.TRUST_WEIGHTED_MAJORITY
        runs.append(run_once(scenario, semantics, seed=seed, truth_mode=truth_mode)[0])
    for seed in (0, 1):
        scenario = make_scenario(
            node_count=6, fn=0.25, fp=0.25, drop=0.2, latency=(1000, 40000), window=20000,
            settle=40000, sessions=8, actuate_all=True,
        )
        runs.append(run_once(scenario, AggregationSemantics.MAJORITY, seed=seed, truth_mode=truth_mode)[0])
    return runs


def record_kind(record: dict):
    """The declared kind with exactly this record's ev and keys, in order, or None."""
    keys = tuple(record)
    return next((kind for kind in RECORD_KINDS if kind.ev == record["ev"] and record_keys(kind) == keys), None)


RUNS = {mode: lossy_runs(mode) for mode in TRUTH_MODES}
# The kinds with a line writer: every kind but those with an array field.
WRITTEN = [kind for kind in RECORD_KINDS if all(field_type is not list for _, field_type in kind.fields)]
SEND_CLAIM = next(kind for kind in RECORD_KINDS if kind.name == "send_claim")


def written_line(kind, values) -> str:
    """The line kind's writer writes for `values`: "t", then the kind's field values."""
    return getattr(write, kind.name)(*values)


def encoded_line(kind, values) -> str:
    """The encoder's text for the record of kind with `values`, as written_line takes them, and its newline."""
    t, *fields = values
    return ENCODE(dict(zip(record_keys(kind), (t, kind.ev, *fields)))) + "\n"


def sample_values(kind, number) -> list:
    """Writer arguments for kind: `number` in "t" and in every int and float
    field, nested ones too, and the first allowed value in every other field."""

    def value(field_type):
        if field_type in (int, float):
            return number
        if field_type is bool:
            return True
        if isinstance(field_type, tuple):
            return {key: value(nested) for key, nested in field_type}
        return field_type if isinstance(field_type, str) else next(iter(field_type)).value

    return [value(field_type) for _, field_type in (("t", int), *kind.fields)]


def test_claim_payload_round_trip():
    claim = make_claim(
        node=3,
        detection=Detection.PEDESTRIAN_DETECTED,
        kind=SensorKind.LIDAR,
        distance=1.4142135623730951,
        fn=0.015,
        fp=0.01,
        session=9,
        emitted_at=123456,
    )
    assert claim_from_payload(claim_payload(claim)) == claim


def test_claim_payload_field_order_is_stable():
    payload = claim_payload(make_claim())
    assert list(payload) == [
        "node",
        "session",
        "detection",
        "sensor",
        "base_false_negative",
        "base_false_positive",
        "effective_range",
        "distance_to_target",
        "emitted_at",
    ]


def test_dumps_record_is_compact():
    assert dumps_record({"t": 0, "ev": "send", "src": 1}) == '{"t":0,"ev":"send","src":1}'


def test_dumps_records_is_newline_delimited_with_trailing_newline():
    text = dumps_records([{"a": 1}, {"b": 2}])
    assert text == '{"a":1}\n{"b":2}\n'


def test_loads_records_round_trip():
    records = [{"t": 0, "ev": "send"}, {"t": 5, "ev": "deliver", "dst": 2}]
    assert loads_records(dumps_records(records)) == records


@pytest.mark.parametrize(
    "text",
    ["1\n2\n", '{"a":1},{"b":2}\n', '{"a":"x\n y"},{"b":1}\n', "[]\n"],
    ids=["numbers", "two_objects_on_a_line", "a_line_break_in_a_string", "an_array"],
)
def test_loads_records_refuses_a_line_that_is_not_one_json_object(text):
    """A reader that parsed all lines in one call would read these as
    [1, 2], as two records from one line, as {"a": "x, y"} and as [[]]."""
    with pytest.raises(ValueError, match="^trace line 1 "):
        loads_records(text)


def test_loads_records_skips_empty_lines_and_counts_them_in_a_bad_line_s_number():
    assert loads_records('\n{"a":1}\n\n{"b":2}\r\n\r\n') == [{"a": 1}, {"b": 2}]
    with pytest.raises(ValueError, match="^trace line 4 is not one JSON object$"):
        loads_records('{"a":1}\n\n\n{"b":2} \n')
    with pytest.raises(ValueError, match="^trace line 2 is not one JSON object: Expecting value, column 6$"):
        loads_records('{"a":1}\n{"b":')


def test_float_values_round_trip_exactly():
    claim = make_claim(distance=14.142135623730951, fn=0.2, fp=0.02)
    text = dumps_record(claim_payload(claim))
    restored = claim_from_payload(loads_records(text + "\n")[0])
    assert restored.distance_to_target == claim.distance_to_target
    assert restored.profile.base_false_negative == claim.profile.base_false_negative


class TestSchema:
    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_every_record_of_a_lossy_run_is_its_kind_s_writer_line(self, truth_mode):
        """Each record has a declared kind, and the kind's writer, given the
        record's values, writes the encoder's text for it and a newline; only
        a kind with an array field has no writer."""
        seen = Counter()
        for records in RUNS[truth_mode]:
            for record in records:
                kind = record_kind(record)
                assert kind is not None, f"no declared kind matches {record}"
                t, _, *values = record.values()
                if kind in WRITTEN:
                    assert written_line(kind, [t, *values]) == ENCODE(record) + "\n"
                else:
                    assert not hasattr(write, kind.name)
                seen[record["ev"], record.get("reason", record.get("verdict", kind.shape))] += 1
        for ev, detail in [
            ("drop", ""),
            ("claim_excluded", "late"),
            ("claim_orphan", ""),
            ("decision", "stop"),
            ("decision", "go"),
            ("send", "session start"),
            ("send", "claim"),
            ("send", "actuation"),
        ]:
            assert seen[ev, detail], f"the runs never emit {ev} {detail}"

    def test_readme_lists_every_kind_s_fields_in_order(self):
        text = README.read_text(encoding="utf-8")
        listed = re.findall(r"^- (`\w+`(?: \([^)]*\))?|the claim payload[^:]*): (.*)$", text, re.MULTILINE)
        documented = [(name, re.findall(r"`(\w+)`", fields)) for name, fields in listed]
        declared = [
            (f"`{kind.ev}`" + (f" ({kind.shape})" if kind.shape else ""), list(record_keys(kind)))
            for kind in RECORD_KINDS
        ]
        declared.append(("the claim payload (`claim` above)", [name for name, _ in CLAIM_FIELDS]))
        assert documented == declared


class Rate(float):
    """A float subclass with a repr of its own, as numpy.float64 has; validation admits it."""

    def __repr__(self) -> str:
        return f"Rate({float.__repr__(self)})"


class NodeNumber(int):
    """An int subclass whose repr and str are its own; validation admits it as a node id."""

    def __repr__(self) -> str:
        return f"NodeNumber({int.__repr__(self)})"

    __str__ = __repr__


# Zeros and the smallest subnormal of either sign, a larger subnormal, the smallest normal, the largest of either sign.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1.5e-310, sys.float_info.min, sys.float_info.max, -sys.float_info.max
)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# What validation admits in a float field: a finite float, an int, or a float subclass.
ADMITTED_FLOATS = FINITE_FLOATS | st.integers(-(2**64), 2**64) | FINITE_FLOATS.map(Rate)
ADMITTED_INTS = st.integers(0, 2**64 - 1) | st.integers(0, 2**63 - 1).map(NodeNumber)


def field_values(draw, fields, floats):
    """One admitted value per field; each float field draws from `floats`."""
    values = []
    for _, field_type in fields:
        if field_type is int:
            values.append(draw(ADMITTED_INTS))
        elif field_type is float:
            values.append(draw(floats))
        elif field_type is bool:
            values.append(draw(st.booleans()))
        elif isinstance(field_type, tuple):
            nested = field_values(draw, field_type, floats)
            values.append(dict(zip((key for key, _ in field_type), nested)))
        elif isinstance(field_type, str):
            values.append(field_type)
        else:
            values.append(draw(st.sampled_from([member.value for member in field_type])))
    return values


@st.composite
def writer_calls(draw):
    """Calls of one kind's writer, each float drawn from a small pool, so
    that values recur within a call and across calls."""
    kind = draw(st.sampled_from(WRITTEN))
    pool = st.sampled_from(draw(st.lists(ADMITTED_FLOATS, min_size=1, max_size=4)))
    calls = draw(st.integers(1, 4))
    return kind, [[draw(ADMITTED_INTS), *field_values(draw, kind.fields, pool)] for _ in range(calls)]


class TestWriters:
    """Each kind's writer writes exactly the encoder's text for its kind's record, then a newline."""

    def test_every_kind_without_an_array_field_has_a_writer_taking_t_and_its_fields(self):
        names = [kind.name for kind in RECORD_KINDS]
        assert len(set(names)) == len(names)
        assert sorted(name for name in vars(write) if not name.startswith("_")) == sorted(kind.name for kind in WRITTEN)
        assert [kind.name for kind in RECORD_KINDS if kind not in WRITTEN] == ["decision"]
        for kind in WRITTEN:
            parameters = list(inspect.signature(getattr(write, kind.name)).parameters)
            assert parameters == ["t", *(name for name, _ in kind.fields)], kind.name

    @pytest.mark.parametrize("kind", WRITTEN, ids=lambda kind: kind.name)
    def test_a_writer_s_line_reads_back_as_exactly_its_kind_s_keys(self, kind):
        values = sample_values(kind, 12)
        record = json.loads(written_line(kind, values))
        assert tuple(record) == record_keys(kind)
        assert list(record.values()) == [values[0], kind.ev, *values[1:]]

    def test_a_writer_needs_every_field_and_no_more(self):
        with pytest.raises(TypeError):
            write.claim_orphan(5, 7)
        with pytest.raises(TypeError):
            write.claim_orphan(5, 7, 2, "extra")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(writer_calls())
    def test_a_writer_matches_the_encoder_on_admitted_values(self, calls):
        kind, arguments = calls
        for values in arguments:
            assert written_line(kind, values) == encoded_line(kind, values)

    @pytest.mark.parametrize("kind", WRITTEN, ids=lambda kind: kind.name)
    @pytest.mark.parametrize(
        "number",
        [50, 50.0, Rate(50.0), NodeNumber(50), -0.0, 5e-324],
        ids=["int", "float", "Rate", "NodeNumber", "-0.0", "subnormal"],
    )
    def test_every_number_field_takes_an_int_a_float_or_a_subclass(self, kind, number):
        """One number in every int and float field, nested ones too, once
        50.0 has been written, so that the memo holds it."""
        written_line(SEND_CLAIM, claim_send(50.0))
        values = sample_values(kind, number)
        assert written_line(kind, values) == encoded_line(kind, values)


def claim_send(*floats: float) -> list:
    """A claim send's writer arguments, its four floats `floats`, one value repeated if only one is given."""
    fn, fp, reach, distance = floats * 4 if len(floats) == 1 else floats
    return [0, "claim", 2, 1, 3, claim_payload(make_claim(fn=fn, fp=fp, reach=reach, distance=distance))]


@st.composite
def claim_sends_with_repeats(draw):
    """Claim sends whose floats come from a small pool, so values recur within and across records."""
    pool = draw(st.lists(FINITE_FLOATS, min_size=1, max_size=5))
    value = st.sampled_from(pool)
    return [draw(st.tuples(value, value, value, value)) for _ in range(draw(st.integers(1, 6)))]


class TestFloatText:
    """A float's text comes from a memo once seen; no line depends on what the memo holds."""

    def line(self, *floats: float) -> tuple[str, str]:
        """A claim send's line from its writer, and from the encoder."""
        values = claim_send(*floats)
        return written_line(SEND_CLAIM, values), encoded_line(SEND_CLAIM, values)

    def test_zeros_of_either_sign_keep_their_own_text(self):
        lines = [self.line(zero) for zero in (0.0, -0.0, 0.0)]
        assert all(written == encoded for written, encoded in lines)
        assert '"base_false_negative":-0.0,' in lines[1][0]
        assert "-0.0" not in lines[0][0] + lines[2][0]

    def test_a_float_seen_twice_prints_the_same(self):
        assert self.line(0.2, 0.02, 30.0, 14.142135623730951) == self.line(0.2, 0.02, 30.0, 14.142135623730951)

    def test_the_memo_is_cleared_past_its_limit(self):
        values = [1 + i / 4096 for i in range(3 * 1024)]
        for value in values + values:
            written, encoded = self.line(value)
            assert written == encoded
            assert len(trace._FLOAT_TEXT) <= 1025
        assert self.line(-0.0)[0] == self.line(-0.0)[1]

    def test_an_equal_int_or_float_subclass_never_takes_or_leaves_the_memo_s_text(self):
        """50 after 50.0 is written 50, as the encoder writes it, and 50.0 after 50 stays 50.0."""
        for value in (50.0, 50, Rate(50.0), 50.0, Rate(0.4375), 0.4375):
            written, encoded = self.line(value)
            assert written == encoded, value
        assert all(type(key) is float for key in trace._FLOAT_TEXT)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(claim_sends_with_repeats())
    def test_claim_sends_match_the_encoder(self, sends):
        for floats in sends:
            written, encoded = self.line(*floats)
            assert written == encoded


def test_a_run_streams_an_int_or_a_subclass_after_an_equal_float():
    """A scenario built in code may hold an int or a float subclass in a
    float field, and an int subclass as a node id. Each is streamed after a
    run that wrote 50.0, and the stream must be the JSON of the run's records."""
    scenario = make_scenario(node_count=4, drop=0.2, latency=(1000, 30000), settle=30000, sessions=3)

    def with_sensor(**change):
        nodes = tuple(
            dataclasses.replace(node, sensor=dataclasses.replace(node.sensor, **change)) for node in scenario.nodes
        )
        return dataclasses.replace(scenario, nodes=nodes)

    def streamed(scenario) -> tuple[str, list[dict]]:
        stream = io.StringIO()
        run_once(scenario, AggregationSemantics.MAJORITY, seed=4, collect_trace=False, trace_stream=stream)
        records, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=4)
        return stream.getvalue(), records

    renumbered = dataclasses.replace(
        scenario, nodes=tuple(dataclasses.replace(node, id=NodeNumber(node.id)) for node in scenario.nodes)
    )
    for odd in (with_sensor(effective_range=50), with_sensor(base_false_negative=Rate(0.1171875)), renumbered):
        text, _ = streamed(with_sensor(effective_range=50.0))
        assert '"effective_range":50.0,' in text
        text, records = streamed(odd)
        assert text == "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records)
        assert loads_records(text) == records


def typed(value):
    """value with each number, string and bool paired with its type, so that == compares type for type."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return type(value), value


def test_collected_records_are_the_streamed_text_read_back_type_for_type():
    """Int-subclass node ids and a float-subclass rate are collected as the
    plain int and float that loads_records reads back from the stream."""
    scenario = make_scenario(node_count=4, drop=0.2, latency=(1000, 30000), settle=30000, sessions=3)
    odd = dataclasses.replace(
        scenario,
        nodes=tuple(
            dataclasses.replace(
                node,
                id=NodeNumber(node.id),
                sensor=dataclasses.replace(node.sensor, base_false_negative=Rate(node.sensor.base_false_negative)),
            )
            for node in scenario.nodes
        ),
    )
    stream = io.StringIO()
    records, _ = run_once(odd, AggregationSemantics.MAJORITY, seed=4, trace_stream=stream)
    assert typed(records) == typed(loads_records(stream.getvalue()))
    claims = [record["claim"] for record in records if record["ev"] == "send" and record["kind"] == "claim"]
    assert claims and all(type(claim["node"]) is int and type(claim["base_false_negative"]) is float for claim in claims)
