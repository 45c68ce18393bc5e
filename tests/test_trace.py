"""Trace serialization: canonical bytes, the declared schema, the line templates and claim payload round-trips."""

from __future__ import annotations

import dataclasses
import io
import json
import re
import sys
from collections import Counter
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard import trace
from crossguard.aggregation import AggregationSemantics
from crossguard.model import Detection, SensorKind
from crossguard.runner import _claim_lines, run_once
from crossguard.trace import (
    CLAIM_FIELDS,
    HOLE,
    RECORD_KINDS,
    RecordKind,
    claim_payload,
    dumps_record,
    dumps_records,
    loads_records,
    template,
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
# The kinds with a write template: every kind but decision, with its arrays, and a claim send, with its payload.
WRITTEN = [kind for kind in RECORD_KINDS if kind.name not in ("decision", "send_claim")]


def filled(kind, values) -> str:
    """kind's write template filled with `values`: "t", then the kind's field values in table order. A
    bool field picks one of a pair of templates, and a str field is the template's own text."""
    t, *fields = values
    line, holes = getattr(write, kind.name), [t]
    for (_, field_type), value in zip(kind.fields, fields):
        if field_type is bool:
            line = line[value]
        elif not isinstance(field_type, str):
            holes.append(value)
    return line % tuple(holes)


def encoded_line(kind, values) -> str:
    """The encoder's text for the record of kind with `values`, as filled takes them, and its newline."""
    t, *fields = values
    return ENCODE(dict(zip(record_keys(kind), (t, kind.ev, *fields)))) + "\n"


def sample_values(kind, number) -> list:
    """Template values for kind: `number` in "t" and in every int field, and the first allowed value in
    every other field."""

    def value(field_type):
        if field_type is int:
            return number
        if field_type is bool:
            return True
        return field_type if isinstance(field_type, str) else next(iter(field_type)).value

    return [value(field_type) for _, field_type in (("t", int), *kind.fields)]


def claim_template(payload: dict, src=2, dst=1) -> str:
    """A claim send's template with `payload` as its claim, its session and emitted_at left open."""
    claim = {**payload, "session": HOLE, "emitted_at": HOLE}
    return template("send_claim", kind="claim", src=src, dst=dst, claim=claim)


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


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["line_sep", "paragraph_sep", "next_line"])
def test_loads_records_breaks_lines_at_a_line_feed_only(separator):
    """str.splitlines also breaks at these, which a JSON string may hold as they are."""
    text = f'{{"a":"x{separator}y"}}\n{{"b":1}}\n'
    assert loads_records(text) == [{"a": f"x{separator}y"}, {"b": 1}]
    with pytest.raises(ValueError, match="^trace line 2 is not one JSON object: Expecting value, column 6$"):
        loads_records(f'{{"a":"x{separator}y"}}\n{{"b":')


def test_float_values_round_trip_exactly():
    claim = make_claim(distance=14.142135623730951, fn=0.2, fp=0.02)
    text = dumps_record(claim_payload(claim))
    restored = claim_from_payload(loads_records(text + "\n")[0])
    assert restored.distance_to_target == claim.distance_to_target
    assert restored.profile.base_false_negative == claim.profile.base_false_negative


class TestSchema:
    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_every_record_of_a_lossy_run_is_its_kind_s_template_line(self, truth_mode):
        """Each record has a declared kind, and the kind's template, filled
        with the record's values, is the encoder's text for it and a newline.
        A claim send's template is cut with its payload; decision has none."""
        seen = Counter()
        for records in RUNS[truth_mode]:
            for record in records:
                kind = record_kind(record)
                assert kind is not None, f"no declared kind matches {record}"
                t, _, *values = record.values()
                if kind in WRITTEN:
                    assert filled(kind, [t, *values]) == ENCODE(record) + "\n"
                elif kind.name == "send_claim":
                    claim = record["claim"]
                    line = claim_template(claim, record["src"], record["dst"])
                    assert line % (t, record["seq"], claim["session"], claim["emitted_at"]) == ENCODE(record) + "\n"
                else:
                    assert kind.name == "decision" and not hasattr(write, kind.name)
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


class Tick(NodeNumber):
    """A NodeNumber whose sums are Ticks too: a run's times grow from the scenario's."""

    def __add__(self, other):
        return Tick(int(self) + other)

    __radd__ = __add__


# Zeros and the smallest subnormal of either sign, a larger subnormal, the smallest normal, the largest of either sign.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1.5e-310, sys.float_info.min, sys.float_info.max, -sys.float_info.max
)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# What validation admits in a float field: a finite float, an int, or a float subclass.
ADMITTED_FLOATS = FINITE_FLOATS | st.integers(-(2**64), 2**64) | FINITE_FLOATS.map(Rate)
# What validation admits in an int field, and the times a run grows from them.
ADMITTED_INTS = (
    st.integers(0, 2**64 - 1) | st.integers(0, 2**63 - 1).map(NodeNumber) | st.integers(0, 2**63 - 1).map(Tick)
)


def field_values(draw, fields) -> list:
    """One admitted value per field of a kind with a template."""
    values = []
    for _, field_type in fields:
        if field_type is int:
            values.append(draw(ADMITTED_INTS))
        elif field_type is bool:
            values.append(draw(st.booleans()))
        elif isinstance(field_type, str):
            values.append(field_type)
        else:
            values.append(draw(st.sampled_from([member.value for member in field_type])))
    return values


@st.composite
def template_fills(draw):
    """One kind with a template and admitted values for it, "t" first."""
    kind = draw(st.sampled_from(WRITTEN))
    return kind, [draw(ADMITTED_INTS), *field_values(draw, kind.fields)]


class TestTemplates:
    """Each kind's template, filled, is exactly the encoder's text for its kind's record, then a newline."""

    def test_every_scalar_kind_has_a_template_and_session_open_a_pair(self):
        names = [kind.name for kind in RECORD_KINDS]
        assert len(set(names)) == len(names)
        assert sorted(name for name in vars(write) if not name.startswith("_")) == sorted(kind.name for kind in WRITTEN)
        for kind in WRITTEN:
            line = getattr(write, kind.name)
            lines = line if kind.name == "session_open" else (line,)
            assert len(lines) == (2 if kind.name == "session_open" else 1)
            assert all(type(text) is str and text.endswith("}\n") for text in lines), kind.name
        assert '"pedestrian_present":false}' in write.session_open[False]
        assert '"pedestrian_present":true}' in write.session_open[True]

    def test_a_kind_with_an_array_or_a_nested_object_needs_it_fixed(self):
        for name in ("decision", "send_claim"):
            with pytest.raises(TypeError, match="must be fixed"):
                template(name)

    @pytest.mark.parametrize("kind", WRITTEN, ids=lambda kind: kind.name)
    def test_a_template_s_line_reads_back_as_exactly_its_kind_s_keys(self, kind):
        values = sample_values(kind, 12)
        record = json.loads(filled(kind, values))
        assert tuple(record) == record_keys(kind)
        assert list(record.values()) == [values[0], kind.ev, *values[1:]]

    def test_a_template_needs_every_value_and_no_more(self):
        with pytest.raises(TypeError):
            write.claim_orphan % (5, 7)
        with pytest.raises(TypeError):
            write.claim_orphan % (5, 7, 2, "extra")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(template_fills())
    def test_a_template_matches_the_encoder_on_admitted_values(self, fill):
        kind, values = fill
        assert filled(kind, values) == encoded_line(kind, values)

    @pytest.mark.parametrize("kind", WRITTEN, ids=lambda kind: kind.name)
    @pytest.mark.parametrize(
        "number", [0, 50, 2**64 - 1, NodeNumber(50), Tick(50)], ids=["0", "int", "2^64-1", "NodeNumber", "Tick"]
    )
    def test_every_int_field_takes_an_int_or_a_subclass(self, kind, number):
        """One number in every int field."""
        values = sample_values(kind, number)
        assert filled(kind, values) == encoded_line(kind, values)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ADMITTED_INTS)
    def test_an_int_s_d_text_is_the_encoder_s(self, number):
        """%d writes int's own digits, as the encoder does, whatever a subclass's str, repr or format."""
        assert "%d" % number == dumps_record(number)

    def test_a_constant_text_holding_a_percent_sign_survives_template(self, monkeypatch):
        probe = RecordKind("50%", "", (("dst", "%d%s%%"), ("seq", int)))
        monkeypatch.setattr(trace, "RECORD_KINDS", (*RECORD_KINDS, probe))
        assert template("50%") % (1, 2) == encoded_line(probe, [1, "%d%s%%", 2])
        line = template("send_session_start", kind="100%")
        assert line % (1, 2, 3) == ENCODE({"t": 1, "ev": "send", "kind": "100%", "src": 2, "dst": "*", "seq": 3}) + "\n"

    @pytest.mark.parametrize("text", ['say "go"', "back\\slash", "new\nline", "café"], ids=repr)
    def test_an_enum_whose_value_the_encoder_escapes_is_refused(self, monkeypatch, text):
        """A %s writes an Enum value as it is, so a value whose JSON text is not itself in quotes has no template."""
        probe = RecordKind("probe", "", (("state", Enum("Escaped", {"PLAIN": "plain", "ODD": text})),))
        monkeypatch.setattr(trace, "RECORD_KINDS", (*RECORD_KINDS, probe))
        with pytest.raises(ValueError, match="^a state string needs escaping$"):
            template("probe")

    def test_an_enum_value_holding_a_percent_sign_fills_as_it_is(self, monkeypatch):
        probe = RecordKind("probe", "", (("state", Enum("Percent", {"ODD": "50%d"})), ("seq", int)))
        monkeypatch.setattr(trace, "RECORD_KINDS", (*RECORD_KINDS, probe))
        assert template("probe") % (1, "50%d", 2) == encoded_line(probe, [1, "50%d", 2])

    def test_no_template_and_no_line_of_a_lossy_run_holds_a_hole(self):
        lines = [claim_template(claim_payload(make_claim()))]
        for name, line in vars(write).items():
            if not name.startswith("_"):
                lines += line if isinstance(line, tuple) else [line]
        lines += [dumps_records(records) for runs in RUNS.values() for records in runs]
        for text in lines:
            assert not any(hole in text for hole in ("\0", "\1", "\\u0000", "\\u0001")), text


class TestClaimTemplate:
    """A claim send's template, cut once with its payload, fills to the encoder's text, floats and all."""

    def line(self, *floats: float, t=0, seq=3, session=1, emitted_at=0) -> tuple[str, str]:
        """A claim send's line from its template, and from the encoder; one float is used for all four."""
        fn, fp, reach, distance = floats * 4 if len(floats) == 1 else floats
        claim = make_claim(fn=fn, fp=fp, reach=reach, distance=distance, session=session, emitted_at=emitted_at)
        payload = claim_payload(claim)
        record = {"t": t, "ev": "send", "kind": "claim", "src": 2, "dst": 1, "seq": seq, "claim": payload}
        return claim_template(payload) % (t, seq, session, emitted_at), ENCODE(record) + "\n"

    def test_zeros_of_either_sign_keep_their_own_text(self):
        lines = [self.line(zero) for zero in (0.0, -0.0, 0.0)]
        assert all(written == encoded for written, encoded in lines)
        assert '"base_false_negative":-0.0,' in lines[1][0]
        assert "-0.0" not in lines[0][0] + lines[2][0]

    def test_a_float_seen_twice_prints_the_same(self):
        assert self.line(0.2, 0.02, 30.0, 14.142135623730951) == self.line(0.2, 0.02, 30.0, 14.142135623730951)

    @pytest.mark.parametrize("number", [*EDGE_FLOATS, Rate(0.1171875), Rate(-0.0), 50], ids=repr)
    def test_an_edge_float_a_rate_or_an_int_matches_the_encoder(self, number):
        written, encoded = self.line(number)
        assert written == encoded

    def test_a_run_s_node_templates_are_its_clear_then_its_detected_claim(self):
        """runner._claim_lines fills in a node's fixed fields; t, seq, session and emitted_at stay open."""
        profile = make_claim().profile
        lines = _claim_lines(4, 0, profile, 12.5)
        assert len(lines) == 2
        for line, detection in zip(lines, (Detection.CLEAR, Detection.PEDESTRIAN_DETECTED)):
            payload = claim_payload(make_claim(node=4, detection=detection, distance=12.5, session=7, emitted_at=90))
            record = {"t": 90, "ev": "send", "kind": "claim", "src": 4, "dst": 0, "seq": 3, "claim": payload}
            assert line % (90, 3, 7, 90) == ENCODE(record) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.tuples(*[ADMITTED_FLOATS] * 4), st.tuples(*[ADMITTED_INTS] * 4))
    def test_claim_sends_match_the_encoder(self, floats, ints):
        t, seq, session, emitted_at = ints
        written, encoded = self.line(*floats, t=t, seq=seq, session=session, emitted_at=emitted_at)
        assert written == encoded


def test_a_run_streams_an_int_or_a_subclass_in_a_number_field():
    """A scenario built in code may hold an int or a float subclass in a
    float field, and an int subclass as a node id or a time, even one whose
    sums keep its type, so that every later time in the run is one too. The
    stream must be the JSON of the run's records."""
    scenario = make_scenario(node_count=4, drop=0.2, latency=(1000, 30000), settle=30000, sessions=3)

    def with_sensor(**change):
        nodes = tuple(
            dataclasses.replace(node, sensor=dataclasses.replace(node.sensor, **change)) for node in scenario.nodes
        )
        return dataclasses.replace(scenario, nodes=nodes)

    renumbered = dataclasses.replace(
        scenario, nodes=tuple(dataclasses.replace(node, id=NodeNumber(node.id)) for node in scenario.nodes)
    )
    network = dataclasses.replace(scenario.network, latency_min=Tick(scenario.network.latency_min))
    ticking = dataclasses.replace(scenario, session_window=Tick(scenario.session_window), network=network)
    for odd in (with_sensor(effective_range=50), with_sensor(base_false_negative=Rate(0.1171875)), renumbered, ticking):
        stream = io.StringIO()
        run_once(odd, AggregationSemantics.MAJORITY, seed=4, collect_trace=False, trace_stream=stream)
        records, _ = run_once(odd, AggregationSemantics.MAJORITY, seed=4)
        assert stream.getvalue() == "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records)
        assert loads_records(stream.getvalue()) == records


def test_a_run_streams_each_node_s_own_zero_sign_rate_type_and_id():
    """A traced run encodes each node's claim fields once. Nodes holding a
    0.0 and a -0.0 base rate, a Rate rate and NodeNumber ids, in one run,
    must still stream exactly the JSON of the run's records, each node's
    claims with its own text."""
    scenario = make_scenario(
        node_count=4, fn=0.3, fp=0.3, drop=0.2, latency=(1000, 30000), settle=30000, sessions=6
    )
    changes = [
        {"base_false_positive": 0.0},
        {"base_false_positive": -0.0},
        {"base_false_negative": Rate(0.1171875)},
        {},
    ]
    nodes = tuple(
        dataclasses.replace(node, id=NodeNumber(node.id), sensor=dataclasses.replace(node.sensor, **change))
        for node, change in zip(scenario.nodes, changes)
    )
    odd = dataclasses.replace(scenario, nodes=nodes)
    for truth_mode in TRUTH_MODES:
        stream = io.StringIO()
        run_once(odd, AggregationSemantics.MAJORITY, 4, truth_mode, collect_trace=False, trace_stream=stream)
        records, _ = run_once(odd, AggregationSemantics.MAJORITY, 4, truth_mode)
        assert stream.getvalue() == dumps_records(records)
        claims = [record["claim"] for record in records if record["ev"] == "send" and record["kind"] == "claim"]
        detections = {(claim["node"], claim["detection"]) for claim in claims}
        assert len(detections) > len(nodes), "some node must claim both detections"
        fp_text = {claim["node"]: repr(claim["base_false_positive"]) for claim in claims}
        assert (fp_text[1], fp_text[2]) == ("0.0", "-0.0")
        assert '"base_false_negative":0.1171875,' in stream.getvalue()


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
