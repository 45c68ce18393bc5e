"""The benchmark's own tests: generators, span wrappers and the output check.

Run with ``python -m pytest -q bench``; they are not part of the main suite
and gate nothing on time.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import spans
import workloads
from crossguard import SensorKind, validate_scenario
from crossguard import session as session_mod
from crossguard.aggregation import Verdict


@pytest.fixture(scope="module")
def template():
    return workloads.load_template()


def test_generators_are_deterministic_per_seed(template):
    assert workloads.sweep_scenarios(5, template) == workloads.sweep_scenarios(5, template)
    assert workloads.fleet_inputs(5, template) == workloads.fleet_inputs(5, template)
    assert workloads.sweep_scenarios(5, template) != workloads.sweep_scenarios(6, template)
    assert workloads.fleet_inputs(5, template) != workloads.fleet_inputs(6, template)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1, workloads.HELD_OUT_SEED])
def test_every_generated_scenario_validates(template, seed):
    for scenario in workloads.sweep_scenarios(seed, template):
        assert validate_scenario(scenario) == []
    for scenario, _, _ in workloads.fleet_inputs(seed, template):
        assert validate_scenario(scenario) == []


def test_sweep_variants_keep_the_crossing_character(template):
    for scenario in workloads.sweep_scenarios(1, template):
        center = scenario.perception.query_center
        master = scenario.master_node()
        lidars = [node for node in scenario.nodes if node.sensor.kind is SensorKind.LIDAR]
        assert len(scenario.nodes) == 3 and scenario.sessions == 1
        assert master.sensor.kind is SensorKind.RGB_CAMERA and master.pose.distance_to(center) > 12.0
        assert len(lidars) == 1 and lidars[0].pose.distance_to(center) < 2.5


def test_fleet_inputs_cover_the_promised_mix(template):
    inputs = workloads.fleet_inputs(1, template)
    pairs = sorted((len(scenario.nodes), semantics.value) for scenario, semantics, _ in inputs)
    assert pairs == sorted((n, semantics.value) for n in range(3, 31) for semantics in workloads.SEMANTICS)
    beyond_range = 0
    for scenario, _, _ in inputs:
        assert scenario.network.drop_probability == 0.1 and scenario.sessions >= 20
        assert 2 * scenario.network.latency_max > scenario.session_window  # two hops can land late
        assert len(scenario.actuated_ids()) >= 2
        for node in scenario.nodes:
            distance = node.pose.distance_to(scenario.perception.query_center)
            assert 1.0 - 1e-9 <= distance <= 40.0 + 1e-9
            beyond_range += distance > node.sensor.effective_range
    assert beyond_range > 0
    assert {node.sensor.kind for scenario, _, _ in inputs for node in scenario.nodes} == set(SensorKind)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return vars(owner)[attribute]


def test_wrappers_do_not_change_outputs_and_uninstall_cleanly(template, tmp_path):
    originals = [_resolve(module, path) for module, path, _, _ in spans.TARGETS]
    calls = workloads.build_calls("fleet_traced", 1, template, tmp_path)[:12]
    plain = [workloads.check(call, call.run(), None, deep=False)[0] for call in calls]

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [workloads.check(call, call.run(), None, deep=False)[0] for call in calls]
    finally:
        tracer.uninstall()

    assert traced == plain
    assert tracer.calls("runner.run_once") == len(calls)
    assert tracer.calls("trace.dumps_record") == tracer.calls("runner.feed") > 0
    assert all(_resolve(module, path) is original
               for (module, path, _, _), original in zip(spans.TARGETS, originals))


def test_a_missing_target_fails_install_and_wraps_nothing(monkeypatch):
    originals = [_resolve(module, path) for module, path, _, _ in spans.TARGETS]
    moved = ("crossguard.session", "rank_moved_away", "trust.rank", None)
    monkeypatch.setattr(spans, "TARGETS", (*spans.TARGETS, moved))
    with pytest.raises(LookupError, match="rank_moved_away"):
        spans.Tracer().install()
    assert all(_resolve(module, path) is original
               for (module, path, _, _), original in zip(spans.TARGETS, originals))


def test_a_bypassed_layer_fails_the_traced_run(template, tmp_path, monkeypatch):
    """A caller that reaches rank by a name the wrappers do not cover must
    not read as a layer that costs nothing."""
    monkeypatch.setattr(spans, "TARGETS", tuple(t for t in spans.TARGETS if t[2] != "trust.rank"))
    calls = workloads.build_calls("fleet_collector", 1, template, tmp_path)[:2]
    args = run.argparse.Namespace(workload="fleet_collector", seed=1, seconds=0.0)
    with pytest.raises(SystemExit, match="trust.rank"):
        run.measure_traced(args, calls, spans.Tracer())


def test_the_reference_work_calls_nothing_in_the_program():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert reference.timed() > 0
    finally:
        tracer.uninstall()
    assert all(calls == 0 for calls, _ in tracer.stats.values())
    assert reference.scaled(0.004, 2 * reference.REFERENCE_SECONDS) == pytest.approx(0.002)


def test_sweep_simulates_each_seed_once_per_semantics(template, tmp_path):
    call = workloads.build_calls("sweep_crossing", 1, template, tmp_path)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        call.run()
    finally:
        tracer.uninstall()
    assert tracer.calls("runner.Simulation_init") == len(workloads.SEMANTICS) * call.seeds
    assert tracer.calls("trace.dumps_record") == 0


def test_spans_nest_and_self_time_excludes_children(template, tmp_path):
    call = workloads.build_calls("fleet_collector", 1, template, tmp_path)[0]
    tracer = spans.Tracer()
    tracer.record_spans = True
    tracer.install()
    try:
        call.run()
    finally:
        tracer.uninstall()
    by_id = {span[0]: span for span in tracer.spans}
    for _, name, start, end, parent in tracer.spans:
        if parent is not None:
            _, _, parent_start, parent_end, _ = by_id[parent]
            assert parent_start <= start <= end <= parent_end
    (root,) = [span for span in tracer.spans if span[4] is None]
    assert root[1] == "runner.run_once"
    total_self = sum(tracer.self_seconds(name) for name in tracer.stats)
    assert total_self == pytest.approx(root[3] - root[2], rel=1e-6)


@pytest.mark.parametrize("workload", ["sweep_crossing", "fleet_collector"])
def test_output_check_catches_one_flipped_verdict(template, tmp_path, monkeypatch, workload):
    call = workloads.build_calls(workload, workloads.DEFAULT_SEED, template, tmp_path)[0]
    expected = workloads.load_expected(workload)[call.key]
    assert workloads.check(call, call.run(), expected, deep=True)[1] == []

    decide = session_mod.decide
    flipped = []

    def flip_the_first_verdict(claims, ranking, semantics):
        verdict = decide(claims, ranking, semantics)
        if flipped:
            return verdict
        flipped.append(verdict)
        return Verdict.GO if verdict is Verdict.STOP else Verdict.STOP

    monkeypatch.setattr(session_mod, "decide", flip_the_first_verdict)
    assert workloads.check(call, call.run(), expected, deep=True)[1]
    assert flipped


def test_output_check_catches_one_changed_trace_byte(template, tmp_path):
    call = workloads.build_calls("fleet_traced", workloads.DEFAULT_SEED, template, tmp_path)[0]
    expected = workloads.load_expected("fleet_traced")[call.key]
    metrics = call.run()
    assert workloads.check(call, metrics, expected, deep=True)[1] == []

    data = bytearray(call.trace_path.read_bytes())
    at = data.index(b'"t":') + 4  # a digit of the first record's time
    data[at] = ord("7") if data[at] != ord("7") else ord("8")
    call.trace_path.write_bytes(bytes(data))
    assert workloads.check(call, metrics, expected, deep=False)[1]


def test_replay_catches_a_trace_that_disagrees_with_the_metrics(template, tmp_path):
    """Without recorded digests (any seed but the default) the invariants
    still see a verdict the trace and the returned metrics disagree on."""
    call = workloads.build_calls("fleet_traced", 1, template, tmp_path)[0]
    metrics = call.run()
    assert workloads.check(call, metrics, None, deep=True)[1] == []

    text = call.trace_path.read_text(encoding="utf-8")
    verdict = '"verdict":"stop"' if '"verdict":"stop"' in text else '"verdict":"go"'
    other = '"verdict":"go"' if verdict.endswith('"stop"') else '"verdict":"stop"'
    call.trace_path.write_text(text.replace(verdict, other, 1), encoding="utf-8")
    problems = workloads.check(call, metrics, None, deep=True)[1]
    assert any("replay" in problem for problem in problems)


def test_run_pass_counts_raising_and_mismatched_calls(template, tmp_path):
    calls = workloads.build_calls("fleet_collector", 1, template, tmp_path)[:2]
    _, failed, digests, _ = run.run_pass(calls, {}, deep=True)
    assert failed == 0 and len(digests) == 2

    def boom():
        raise RuntimeError("planted")

    calls[0].run = boom
    wrong = {calls[1].key: "0" * 64}
    times, failed, _, _ = run.run_pass(calls, wrong, deep=False)
    assert failed == 2 and len(times) == 2  # a raising call is timed and counted as failed


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    config = json.loads((tmp_path / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if arg == "python3" else arg for arg in config["command"]]
    done = subprocess.run(
        [*command, "--workload", "fleet_collector", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
