"""The golden-digest corpus as the byte-identity gate.

Every case stored in tests/golden/digests.json runs again, and its trace
bytes and RunMetrics must hash to the stored digests. Each case also runs
lean, with no trace, and its RunMetrics must hash to the same digest: a
lean run takes its own path through the protocol. tests/make_golden.py
describes the corpus and regenerates the digests; a regeneration is a trace
format change. The corpus must also reach every record kind and each of a
few timing edges, so that the gate holds them.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from crossguard.aggregation import AggregationSemantics
from crossguard.model import ExclusionReason
from crossguard.runner import run_once
from crossguard.trace import RECORD_KINDS, dumps_records

import make_golden
from helpers import make_scenario


@pytest.fixture(scope="module")
def stored():
    return json.loads(make_golden.DIGESTS.read_text(encoding="utf-8"))


def edges(records: list[dict]) -> set[str]:
    """The timing and ordering edges a case's trace reaches, each by name."""
    opens = [record for record in records if record["ev"] == "session_open"]
    deadlines = {record["session"]: record["deadline"] for record in opens}
    opened = {record["t"]: record["deadline"] for record in opens}  # a session's deadline by when it opened
    due_times = Counter(record["t"] for record in records if record["ev"] == "deliver")
    found = set()
    for record in records:
        ev, kind = record["ev"], record.get("kind")
        if ev == "send" and kind == "actuation" and record["issue_order"] == 2:
            found.add("a session's third command")
        elif ev == "claim_accepted" and record["t"] == deadlines[record["session"]]:
            found.add("a claim accepted exactly at its deadline")
        elif ev == "deliver" and kind == "actuation" and due_times[record["t"]] > 1:
            found.add("a command delivered at a due time another copy shares")
        elif ev == "deliver" and kind == "session_start" and record["src"] == record["dst"]:
            if record["t"] > opened[record["sent_at"]]:
                found.add("the master's start copy delivered after its deadline")
    return found


EDGES = {
    "a session's third command",
    "a claim accepted exactly at its deadline",
    "a command delivered at a due time another copy shares",
    "the master's start copy delivered after its deadline",
}


@pytest.fixture(scope="module")
def recomputed(stored):
    """The stored table, and (id, mismatch or None, (ev, reason) pairs reached,
    edges reached) for every case of the corpus, in id order."""
    results = []
    for key, records, entry, streamed in make_golden.run_corpus():
        reached = {(record["ev"], record.get("reason")) for record in records}
        problem = make_golden.mismatch(key, records, stored.get(key), entry, streamed)
        results.append((key, problem, reached, edges(records)))
    return stored, results


def test_every_case_reproduces_its_stored_digests(recomputed):
    _, results = recomputed
    problems = [problem for _, problem, _, _ in results if problem]
    if problems:
        pytest.fail(f"{len(problems)} of {len(results)} golden cases differ; the first: {problems[0]}")


def test_a_lean_run_of_every_case_books_the_stored_metrics(stored):
    """Lean runs take their own path: they answer start copies and commands as
    they are drawn, and queue only claims and the master's late start copies."""
    differ = [
        key
        for key, scenario, semantics, seed, truth in make_golden.loaded_cases()
        if make_golden.metrics_digest(run_once(scenario, semantics, seed, truth, collect_trace=False)[1])
        != stored[key]["metrics"]
    ]
    assert differ == [], f"{len(differ)} golden cases book other metrics when run lean; the first: {differ[:1]}"


def test_every_stored_case_is_still_in_the_corpus(recomputed):
    stored, results = recomputed
    assert sorted(stored) == [key for key, *_ in results]
    assert len(stored) > 1000


def test_the_corpus_reaches_every_record_kind_and_live_exclusion(recomputed):
    """A live run can exclude a claim only as late or as a duplicate: its node
    table and evidence come from the validated scenario."""
    _, results = recomputed
    reached = set().union(*(pairs for _, _, pairs, _ in results))
    assert {kind.ev for kind in RECORD_KINDS} <= {ev for ev, _ in reached}
    excluded = {reason for ev, reason in reached if ev == "claim_excluded"}
    assert excluded == {ExclusionReason.LATE.value, ExclusionReason.DUPLICATE.value}


def test_the_corpus_reaches_every_timing_edge(recomputed):
    """The gate holds what these edges do to trace bytes and lean metrics
    only while some case reaches each of them."""
    _, results = recomputed
    assert set().union(*(found for *_, found in results)) == EDGES


def test_a_mismatch_names_the_case_and_the_first_changed_record():
    scenario = make_scenario(drop=0.2, latency=(1000, 30000), settle=30000, sessions=3)
    records, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=0)
    stored = make_golden.digest_entry(records, metrics)
    text = dumps_records(records)
    assert make_golden.mismatch("case", records, stored, stored, text) is None
    changed = [*records[:7], {**records[7], "t": records[7]["t"] + 1}, *records[8:]]
    problem = make_golden.mismatch("case", changed, stored, make_golden.digest_entry(changed, metrics), text)
    assert problem.startswith(f"case: trace differs first at record 7 ({len(records)} records stored")
    shorter = make_golden.mismatch("case", records[:-2], stored, make_golden.digest_entry(records[:-2], metrics), text)
    assert f"first at record {len(records) - 2} " in shorter
    lines = text.splitlines(keepends=True)
    streamed = "".join([*lines[:5], lines[5].replace('"t":', '"t": '), *lines[6:]])
    assert make_golden.mismatch("case", records, stored, stored, streamed) == (
        f"case: the collected trace matches but the streamed one differs first at line 5: {streamed.splitlines()[5]}"
    )
    assert make_golden.mismatch("case", records, stored, stored, text + lines[-1]).endswith(
        f"differs in length: {len(records) + 1} lines"
    )
    metrics.decisions += 1
    assert make_golden.mismatch("case", records, stored, make_golden.digest_entry(records, metrics), text) == (
        "case: the trace matches but RunMetrics differ"
    )
