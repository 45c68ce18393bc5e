"""The benchmark's span tracer must still find and reach every layer it needs.

bench/spans.py wraps hot-path functions by the names the program calls them
by, and a traced bench run fails when a layer in bench/run.py's required
lists is never called. A renamed or moved function, or a call path that
goes round a wrapped name, would otherwise fail only a traced bench run;
these tests make it fail the main suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
from pathlib import Path

from crossguard import runner
from crossguard.aggregation import AggregationSemantics

from helpers import make_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """bench/<name>.py as a module; run.py is import-safe, it acts only under __main__."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return vars(owner)[attribute]


def test_tracer_finds_every_target_and_uninstalls_cleanly():
    spans = load_bench("spans")
    originals = [resolve(module, path) for module, path, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()  # raises LookupError naming any target the program lost
    try:
        wrapped = [resolve(module, path) for module, path, _, _ in spans.TARGETS]
        assert all(now is not before for now, before in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert all(resolve(module, path) is original for (module, path, _, _), original in zip(spans.TARGETS, originals))


def test_a_sweep_and_a_traced_run_reach_every_required_layer():
    """What the traced bench requires of sweep_crossing (run_sweep alone), of
    fleet_collector (a lean run_once with no extra_semantics) and of
    fleet_traced (run_once with a trace stream), on a small lossy run."""
    bench = load_bench("run")
    tracer = load_bench("spans").Tracer()
    scenario = make_scenario(drop=0.2, latency=(1000, 30000), window=20000, settle=30000, sessions=4)
    calls = {
        # Called through the module, so that the wrappers install() put there run.
        "run_sweep": (
            bench.REQUIRED_LAYERS,
            lambda: runner.run_sweep(scenario, list(AggregationSemantics), seeds=2),
        ),
        "lean run_once": (
            bench.REQUIRED_LAYERS,
            lambda: runner.run_once(scenario, AggregationSemantics.MAJORITY, 3, "alternating", collect_trace=False),
        ),
        "traced run_once": (
            bench.REQUIRED_LAYERS + bench.REQUIRED_TRACE_LAYERS,
            lambda: runner.run_once(
                scenario, AggregationSemantics.MAJORITY, 3, collect_trace=False, trace_stream=io.StringIO()
            ),
        ),
    }
    tracer.install()
    try:
        for name, (layers, call) in calls.items():
            tracer.reset()
            call()
            assert [layer for layer in layers if tracer.calls(layer) == 0] == [], f"{name} bypassed these layers"
    finally:
        tracer.uninstall()
