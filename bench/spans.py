"""Span tracing installed from outside the program.

Each traced function is replaced, at the name the program calls it by (a
module global or a class attribute), with a wrapper that records a span:
name, start, end and the enclosing span. A span's self time is its duration
minus the time its child spans cover. Nothing under ``src/`` changes, and
``uninstall`` puts every original object back. ``install`` fails if the
program no longer has a target, so a moved or renamed function cannot read
as a layer that costs nothing.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path


def _count(counter: str):
    def observe(tracer: "Tracer", args: tuple, result: object) -> None:
        tracer.counters[counter] += 1

    return observe


def _count_if(counter: str, test):
    def observe(tracer: "Tracer", args: tuple, result: object) -> None:
        if test(result):
            tracer.counters[counter] += 1

    return observe


def _queue_depth(tracer: "Tracer", args: tuple, result: object) -> None:
    depth = len(args[0])
    if depth > tracer.counters["netsim.queue_depth_max"]:
        tracer.counters["netsim.queue_depth_max"] = depth


def _is_delivery(popped: object) -> bool:
    return popped is not None and type(popped[1]).__name__ == "Delivery"


# (module, attribute path, span name, observer of the call's result)
TARGETS = (
    ("crossguard.determinism", "KeyedStream.random", "determinism.draw", None),
    ("crossguard.determinism", "KeyedStream.randint", "determinism.draw", None),
    ("crossguard.runner", "sense_stream", "determinism.stream", None),
    ("crossguard.netsim", "transport_stream", "determinism.stream", _count("netsim.copies")),
    ("crossguard.runner", "sense", "perception.sense", None),
    ("crossguard.netsim", "Network.send", "netsim.send", None),
    ("crossguard.netsim", "EventQueue.schedule", "netsim.schedule", _queue_depth),
    ("crossguard.netsim", "EventQueue.pop", "netsim.pop", _count_if("netsim.delivered", _is_delivery)),
    ("crossguard.runner", "accept_claim", "session.accept_claim", _count_if("session.accepted", lambda r: r is None)),
    (
        "crossguard.runner",
        "close_and_decide",
        "session.close_and_decide",
        _count_if("session.empty", lambda decision: not decision.used_claims),
    ),
    ("crossguard.session", "rank", "trust.rank", None),
    ("crossguard.session", "decide", "aggregation.decide", None),
    ("crossguard.runner", "sequence_actuation", "actuation.sequence_actuation", None),
    ("crossguard.runner", "apply_command", "actuation.apply_command", _count_if("actuation.stale", lambda r: r is False)),
    ("crossguard.runner", "Simulation.__init__", "runner.Simulation_init", None),
    ("crossguard.runner", "MetricsCollector.feed", "runner.feed", None),
    ("crossguard.runner", "run_once", "runner.run_once", None),
    ("crossguard.runner", "run_sweep", "runner.run_sweep", None),
    ("crossguard.runner", "validate_scenario", "model.validate_scenario", None),
    ("crossguard.scenario", "validate_scenario", "model.validate_scenario", None),
    ("crossguard.runner", "dumps_record", "trace.dumps_record", None),
    ("crossguard.runner", "claim_payload", "trace.claim_payload", None),
    ("crossguard.scenario", "load_scenario", "scenario.load_scenario", None),
)

SPAN_LIMIT = 100_000  # spans kept for writing out; counts and self times cover every call

COUNTERS = (
    "netsim.copies",
    "netsim.delivered",
    "netsim.queue_depth_max",
    "session.accepted",
    "session.empty",
    "actuation.stale",
)


class Tracer:
    """Wraps the TARGETS and keeps spans in memory until written out."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.record_spans = False
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._next_id = 0
        self._installed: list[tuple] = []  # (owner, attribute, original)

    def install(self) -> None:
        """Wrap every target; raises LookupError, wrapping none, if one is missing."""
        found, missing = [], []
        for module_name, path, name, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{path}")
            found.append((owner, attribute, original, name, observe))
        if missing:
            raise LookupError(f"the program no longer has {', '.join(missing)}; update bench/spans.py")
        for owner, attribute, original, name, observe in found:
            self.stats.setdefault(name, [0, 0.0])
            setattr(owner, attribute, self._wrap(name, original, observe))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def reset(self) -> None:
        """Zero every count, keeping the lists the wrappers hold."""
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def _wrap(self, name: str, function, observe):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if tracer.record_spans and len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((frame[1], name, start, end, parent))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        """One JSON array per line after a header naming the fields; times in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "name", "start", "end", "parent"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
