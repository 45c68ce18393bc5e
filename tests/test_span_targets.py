"""The benchmark's span tracer must still find every function it wraps.

bench/spans.py wraps hot-path functions by the names the program calls them
by. A renamed or moved function would otherwise fail only a traced bench
run; this makes it fail the main suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
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
    spans = load_spans()
    originals = [resolve(module, path) for module, path, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()  # raises LookupError naming any target the program lost
    try:
        wrapped = [resolve(module, path) for module, path, _, _ in spans.TARGETS]
        assert all(now is not before for now, before in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert all(resolve(module, path) is original for (module, path, _, _), original in zip(spans.TARGETS, originals))
