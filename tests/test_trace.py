"""Trace serialization: canonical bytes, the declared schema and claim payload round-trips."""

from __future__ import annotations

import copy
import json
import math
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
    build,
    claim_payload,
    dumps_record,
    dumps_records,
    format_line,
    loads_records,
)

from helpers import make_claim, make_scenario
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
    return next((kind for kind in RECORD_KINDS if kind.ev == record["ev"] and kind.keys == keys), None)


RUNS = {mode: lossy_runs(mode) for mode in TRUTH_MODES}
REAL_RECORDS = [record for runs in RUNS.values() for run in runs for record in run]
# The real records by kind, so that rare kinds are drawn as often as common ones.
BY_KIND = {}
for _record in REAL_RECORDS:
    BY_KIND.setdefault(record_kind(_record), []).append(_record)


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


def test_float_values_round_trip_exactly():
    claim = make_claim(distance=14.142135623730951, fn=0.2, fp=0.02)
    text = dumps_record(claim_payload(claim))
    restored = claim_from_payload(loads_records(text + "\n")[0])
    assert restored.distance_to_target == claim.distance_to_target
    assert restored.profile.base_false_negative == claim.profile.base_false_negative


class TestBuilders:
    def test_there_is_one_builder_per_kind(self):
        names = [kind.name for kind in RECORD_KINDS]
        assert len(set(names)) == len(names)
        assert sorted(name for name in vars(build) if not name.startswith("_")) == sorted(names)

    @pytest.mark.parametrize("kind", RECORD_KINDS, ids=lambda kind: kind.name)
    def test_a_builder_returns_exactly_its_kind_s_keys(self, kind):
        values = [f"value {i}" for i in range(len(kind.fields))]
        record = getattr(build, kind.name)(12, *values)
        assert tuple(record) == kind.keys
        assert list(record.values()) == [12, kind.ev, *values]

    def test_a_builder_needs_every_field_and_no_more(self):
        with pytest.raises(TypeError):
            build.claim_orphan(5, 7)
        with pytest.raises(TypeError):
            build.claim_orphan(5, 7, 2, "extra")


class TestSchema:
    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_every_record_of_a_lossy_run_takes_its_kind_s_formatter(self, truth_mode):
        """Only a kind with an array field keeps the JSON path."""
        seen = Counter()
        for records in RUNS[truth_mode]:
            for record in records:
                kind = record_kind(record)
                assert kind is not None, f"no declared kind matches {record}"
                if any(field_type is list for _, field_type in kind.fields):
                    assert format_line(record) is None
                else:
                    assert format_line(record) == ENCODE(record), f"{record} took the JSON path"
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
            (f"`{kind.ev}`" + (f" ({kind.shape})" if kind.shape else ""), list(kind.keys))
            for kind in RECORD_KINDS
        ]
        declared.append(("the claim payload (`claim` above)", [name for name, _ in CLAIM_FIELDS]))
        assert documented == declared


# JSON-encodable values that no field declares, or that sit at a declared type's edge.
ODD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(
        ['quote"', "back\\slash", "tab\t", "line\nbreak", "caf\u00e9", "\u65e5\u672c", "\u2028", "\x01"]
    ),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, 5e-324]),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
FIELD_NAMES = sorted(
    {name for kind in RECORD_KINDS for name in kind.keys} | {name for name, _ in CLAIM_FIELDS}
)
KEYS = st.one_of(st.sampled_from(FIELD_NAMES), st.text(max_size=4), st.integers(), st.none(), st.booleans())
EV_VALUES = st.one_of(
    st.sampled_from(sorted({kind.ev for kind in RECORD_KINDS})),
    st.text(max_size=4),
    st.integers(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def _mutate(draw, target: dict) -> None:
    """One edit of a dict in place: a value replaced, or a key dropped, added, renamed or moved."""
    keys = list(target)
    edit = draw(st.sampled_from(["value", "value", "value", "drop", "add", "rename", "move"]))
    if edit == "add" or not keys:
        target[draw(KEYS)] = draw(ODD_VALUES)
    elif edit == "value":
        target[draw(st.sampled_from(keys))] = draw(ODD_VALUES)
    elif edit == "drop":
        del target[draw(st.sampled_from(keys))]
    elif edit == "rename":
        old, new = draw(st.sampled_from(keys)), draw(KEYS)
        items = [(new if key == old else key, value) for key, value in target.items()]
        target.clear()
        target.update(items)
    else:
        order = draw(st.permutations(keys))
        items = [(key, target[key]) for key in order]
        target.clear()
        target.update(items)


@st.composite
def mutated_records(draw):
    """A record of a real lossy run, edited once or twice: its own fields,
    its ev, or its nested claim payload."""
    record = copy.deepcopy(draw(st.sampled_from(list(BY_KIND.values())).flatmap(st.sampled_from)))
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(["record", "ev", "claim"]))
        if where == "ev":
            record["ev"] = draw(EV_VALUES)
        elif where == "claim" and isinstance(record.get("claim"), dict):
            _mutate(draw, record["claim"])
        else:
            _mutate(draw, record)
    return record


@st.composite
def kind_shaped_dicts(draw):
    """A declared kind's keys in order, ev kept, each other value arbitrary JSON."""
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=4,
    )
    kind = draw(st.sampled_from(RECORD_KINDS))
    return {key: kind.ev if key == "ev" else draw(json_values) for key in kind.keys}


class TestExactness:
    """dumps_record writes exactly the JSON encoder's bytes for every dict."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_records())
    def test_mutated_records_of_real_runs(self, record):
        assert dumps_record(record) == ENCODE(record)

    @settings(max_examples=100, deadline=None)
    @given(kind_shaped_dicts())
    def test_declared_keys_with_arbitrary_values(self, record):
        assert dumps_record(record) == ENCODE(record)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(KEYS, st.one_of(ODD_VALUES, EV_VALUES), max_size=6))
    def test_arbitrary_dicts(self, record):
        assert dumps_record(record) == ENCODE(record)

    @pytest.mark.parametrize(
        "odd",
        [True, False, None, 7, 2**63, -(2**64), 1.5, -0.0, math.nan, math.inf, -math.inf,
         "stopp", 'quote"', "caf\u00e9", "*", "", [1], {"node": 1}],
        ids=repr,
    )
    def test_each_field_of_each_kind_replaced(self, odd):
        """One real record per kind with one value, nested ones included, replaced."""
        for records in BY_KIND.values():
            for path in _paths(records[0]):
                record = copy.deepcopy(records[0])
                *parents, key = path
                target = record
                for parent in parents:
                    target = target[parent]
                target[key] = odd
                assert dumps_record(record) == ENCODE(record), path


def claim_send(*floats: float) -> dict:
    """A claim's send record whose four floats are `floats`, one value repeated if only one is given."""
    fn, fp, reach, distance = floats * 4 if len(floats) == 1 else floats
    claim = make_claim(fn=fn, fp=fp, reach=reach, distance=distance)
    return build.send_claim(0, "claim", 2, 1, 3, claim_payload(claim))


# Zeros and the smallest subnormal of either sign, a larger subnormal, the smallest normal, the largest of either sign.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1.5e-310, sys.float_info.min, sys.float_info.max, -sys.float_info.max
)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def claim_sends_with_repeats(draw):
    """Claim sends whose floats come from a small pool, so values recur within and across records."""
    pool = draw(st.lists(FINITE_FLOATS, min_size=1, max_size=5))
    value = st.sampled_from(pool)
    return [draw(st.tuples(value, value, value, value)) for _ in range(draw(st.integers(1, 6)))]


class TestFloatText:
    """A float's text comes from a memo once seen; no line depends on what the memo holds."""

    def test_zeros_of_either_sign_keep_their_own_text(self):
        lines = [dumps_record(claim_send(zero)) for zero in (0.0, -0.0, 0.0)]
        assert lines == [ENCODE(claim_send(zero)) for zero in (0.0, -0.0, 0.0)]
        assert '"base_false_negative":-0.0,' in lines[1]
        assert "-0.0" not in lines[0] + lines[2]

    def test_a_float_seen_twice_prints_the_same(self):
        record = claim_send(0.2, 0.02, 30.0, 14.142135623730951)
        assert dumps_record(record) == dumps_record(copy.deepcopy(record)) == ENCODE(record)

    def test_the_memo_is_cleared_past_its_limit(self):
        values = [1 + i / 4096 for i in range(3 * 1024)]
        for value in values + values:
            assert dumps_record(claim_send(value)) == ENCODE(claim_send(value))
            assert len(trace._FLOAT_TEXT) <= 1025
        assert dumps_record(claim_send(-0.0)) == ENCODE(claim_send(-0.0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(claim_sends_with_repeats())
    def test_claim_sends_match_the_encoder(self, sends):
        for floats in sends:
            record = claim_send(*floats)
            assert format_line(record) is not None
            assert dumps_record(record) == ENCODE(record)


def _paths(record: dict) -> list[tuple[str, ...]]:
    """The key path of every value in a record, into nested objects too."""
    paths = []
    for key, value in record.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, *path) for path in _paths(value))
    return paths
