"""The golden-digest corpus: Tier-1's byte-identity gate for traces and metrics.

tests/golden/ holds the corpus as scenario files: generated ones (g00 to
g63) biased toward the protocol's timing and loss edges, copies of the
bundled scenarios, and hand-built cases that random draws almost never
reach. digests.json holds, for each case, a sha256 digest of its trace as
dumps_records writes it, a sha256 digest of its RunMetrics as sorted JSON,
and a one-byte fingerprint of each trace line (the low byte of its CRC-32,
base64-packed), so that a mismatch can name the first record that changed.
A changed line keeps its fingerprint one time in 256; the record named is
then a later one. Each case runs once, collecting its records and
streaming its trace as `crossguard run --trace` writes it, and the
streamed bytes must hash to the same trace digest.

    pytest tests/test_golden.py              # check every case
    python tests/make_golden.py --write      # recompute digests.json from the stored scenarios
    python tests/make_golden.py --scenarios  # rewrite the generated and hand-built scenario files

Run with src/ on PYTHONPATH or crossguard installed. The gate reads only
the stored files, never the generator, so it does not depend on the
algorithms behind `random`. Rewriting digests.json changes what the gate
accepts: it is a trace-format change and is named in CHANGES.md with its
reason.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import io
import json
import random
import sys
import zlib
from pathlib import Path

from crossguard.aggregation import AggregationSemantics
from crossguard.model import GroundTruth, NetworkConfig, NodeSpec, PerceptionModel, Pose, Scenario, SensorKind, SensorProfile
from crossguard.runner import TRUTH_MODES, RunMetrics, run_once
from crossguard.scenario import load_scenario
from crossguard.trace import dumps_record

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
SEEDS = (0, 2**64 - 1)
SEMANTICS = sorted(AggregationSemantics, key=lambda s: s.value)
GENERATED = 64

# Hand-built cases run only these (semantics, seed, truth) combinations.
HAND_BUILT = {
    # A node's claim for the current session is accepted before its older
    # claim lands: the one way a live run books a duplicate.
    "duplicate": [("majority", 1, "fixed")],
    # Fixed latency 5 000 and window 10 000: every kept claim lands exactly
    # on its session's deadline.
    "deadline": [("majority", 0, "fixed"), ("expert_override", 0, "alternating")],
}


def cases() -> list[tuple[str, Path, AggregationSemantics, int, str]]:
    """Every case of the corpus as (id, scenario file, semantics, seed, truth), in id order."""
    out = []
    for path in sorted(GOLDEN.glob("*.scenario")):
        combos = HAND_BUILT.get(path.stem) or [
            (semantics.value, seed, truth) for semantics in SEMANTICS for seed in SEEDS for truth in TRUTH_MODES
        ]
        for semantics, seed, truth in combos:
            out.append((f"{path.stem}/{semantics}/{seed}/{truth}", path, AggregationSemantics(semantics), seed, truth))
    return sorted(out, key=lambda case: case[0])


def metrics_digest(metrics: RunMetrics) -> str:
    """The sha256 digest of a RunMetrics as sorted JSON: no dict's key order counts."""
    return hashlib.sha256(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode("utf-8")).hexdigest()


def digest_entry(records: list[dict], metrics: RunMetrics) -> dict:
    """A run's entry in digests.json."""
    lines = [(dumps_record(record) + "\n").encode("utf-8") for record in records]
    return {
        "trace": hashlib.sha256(b"".join(lines)).hexdigest(),
        "metrics": metrics_digest(metrics),
        "lines": base64.b64encode(bytes(zlib.crc32(line) & 0xFF for line in lines)).decode("ascii"),
    }


def loaded_cases():
    """Yield (id, scenario, semantics, seed, truth) for every case, loading each scenario file once."""
    loaded: dict[Path, Scenario] = {}
    for key, path, semantics, seed, truth in cases():
        if path not in loaded:
            loaded[path] = load_scenario(path)
        yield key, loaded[path], semantics, seed, truth


def run_corpus():
    """Yield (id, trace records, digest entry, streamed trace) for every case."""
    for key, scenario, semantics, seed, truth in loaded_cases():
        stream = io.StringIO()
        records, metrics = run_once(scenario, semantics, seed=seed, truth_mode=truth, trace_stream=stream)
        yield key, records, digest_entry(records, metrics), stream.getvalue()


def mismatch(key: str, records: list[dict], want: dict | None, got: dict, streamed: str) -> str | None:
    """What differs between a case's stored and recomputed entries, or between
    its stored trace digest and its streamed trace, or None."""
    if want is None:
        return f"{key}: no stored digests; regenerate with tests/make_golden.py --write"
    if want["trace"] != got["trace"]:
        old, new = base64.b64decode(want["lines"]), base64.b64decode(got["lines"])
        index = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        now = dumps_record(records[index]) if index < len(records) else "(no such record now)"
        return (
            f"{key}: trace differs first at record {index} "
            f"({len(old)} records stored, {len(new)} now); record {index} now reads {now}"
        )
    if want["metrics"] != got["metrics"]:
        return f"{key}: the trace matches but RunMetrics differ"
    if hashlib.sha256(streamed.encode("utf-8")).hexdigest() != want["trace"]:
        lines = streamed.splitlines()
        index = next((i for i, (line, record) in enumerate(zip(lines, records)) if line != dumps_record(record)), None)
        where = f"first at line {index}: {lines[index]}" if index is not None else f"in length: {len(lines)} lines"
        return f"{key}: the collected trace matches but the streamed one differs {where}"
    return None


# -- the one-off generator behind g00..g63 and the hand-built files --------


def _number(value: float) -> str:
    text = repr(float(value))
    if "e" in text or "n" in text:
        raise ValueError(f"{value!r} has no plain YAML float form")
    return text


def scenario_text(scenario: Scenario) -> str:
    """A scenario file that load_scenario reads back as an equal Scenario."""

    def pose(p: Pose) -> str:
        return f"{{x: {_number(p.x)}, y: {_number(p.y)}}}"

    out = ["nodes:"]
    for node in scenario.nodes:
        sensor = node.sensor
        out += [
            f"  - id: {node.id}",
            f"    pose: {pose(node.pose)}",
            "    sensor:",
            f"      kind: {sensor.kind.value}",
            f"      base_false_negative: {_number(sensor.base_false_negative)}",
            f"      base_false_positive: {_number(sensor.base_false_positive)}",
            f"      effective_range: {_number(sensor.effective_range)}",
            f"    master: {str(node.master).lower()}",
            f"    actuated: {str(node.actuated).lower()}",
        ]
    truth, net = scenario.ground_truth, scenario.network
    out += ["ground_truth:", f"  pedestrian_present: {str(truth.pedestrian_present).lower()}"]
    if truth.pedestrian_pose is not None:
        out.append(f"  pedestrian_pose: {pose(truth.pedestrian_pose)}")
    out += [
        f"query_region_center: {pose(scenario.perception.query_center)}",
        "perception:",
        f"  distance_reference: {_number(scenario.perception.distance_reference)}",
        "network:",
        f"  latency_min: {net.latency_min}",
        f"  latency_max: {net.latency_max}",
        f"  drop_probability: {_number(net.drop_probability)}",
        f"  seed: {net.seed}",
        f"session_window: {scenario.session_window}",
        f"settle_interval: {scenario.settle_interval}",
        f"sessions: {scenario.sessions}",
    ]
    return "\n".join(out) + "\n"


def edge_scenario(rng: random.Random) -> Scenario:
    """A valid scenario biased toward the edges: latency_min 0, drop 0, 0.1,
    0.3 or 1, a window below latency_max (claims spill into the next
    session), settle_interval equal to latency_max, 1 to 16 sessions."""
    ids = sorted(rng.sample(range(40), rng.randint(1, 7)))
    if rng.random() < 0.15:
        ids[-1] = 2**63 - 1  # the largest node id a scenario allows
    master = rng.choice(ids)
    center = Pose(round(rng.uniform(-10, 10), 2), round(rng.uniform(-10, 10), 2))

    def rate() -> float:
        return rng.choice([0.0, round(rng.uniform(0, 0.49), 3)])

    nodes = tuple(
        NodeSpec(
            id=node,
            pose=Pose(round(rng.uniform(-30, 30), 2), round(rng.uniform(-30, 30), 2)),
            sensor=SensorProfile(rng.choice(list(SensorKind)), rate(), rate(), round(rng.uniform(5, 80), 1)),
            master=node == master,
            actuated=node == master or rng.random() < 0.4,
        )
        for node in ids
    )
    latency_min = rng.choice([0, 0, rng.randint(0, 5000)])
    latency_max = latency_min + rng.choice([0, rng.randint(0, 10000), rng.randint(10000, 40000)])
    window = rng.randint(1, latency_max) if latency_max and rng.random() < 0.4 else rng.randint(5000, 60000)
    settle = latency_max if rng.random() < 0.5 else latency_max + rng.randint(0, 10000)
    present = rng.random() < 0.5
    pedestrian = None if not present and rng.random() < 0.5 else Pose(center.x + 1.5, center.y - 0.5)
    return Scenario(
        nodes=nodes,
        ground_truth=GroundTruth(present, pedestrian),
        perception=PerceptionModel(round(rng.uniform(5, 20), 1), center),
        network=NetworkConfig(latency_min, latency_max, rng.choice([0.0, 0.1, 0.3, 1.0]), rng.randrange(2**64)),
        session_window=window,
        settle_interval=settle,
        sessions=rng.randint(1, 16),
    )


def write_scenarios() -> None:
    from helpers import INTERSECTION, REFERENCE, make_scenario

    rng = random.Random(20261019)
    written = {f"g{i:02d}": edge_scenario(rng) for i in range(GENERATED)}
    written["duplicate"] = make_scenario(latency=(0, 30000), window=10000, settle=30000, sessions=200)
    written["deadline"] = make_scenario(node_count=4, drop=0.1, latency=(5000, 5000), window=10000, settle=5000, sessions=4)
    written["intersection"] = load_scenario(INTERSECTION)
    written["reference"] = load_scenario(REFERENCE)
    GOLDEN.mkdir(exist_ok=True)
    for stem, scenario in written.items():
        path = GOLDEN / f"{stem}.scenario"
        path.write_text(scenario_text(scenario), encoding="utf-8")
        if load_scenario(path) != scenario:
            raise SystemExit(f"{path} does not read back as the scenario written")


def main(argv: list[str]) -> int:
    if argv == ["--scenarios"]:
        write_scenarios()
        print(f"wrote the scenario files in {GOLDEN}; run --write to recompute digests.json")
        return 0
    if argv == ["--write"]:
        table = {key: entry for key, _, entry, _ in run_corpus()}
        rows = (f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}" for key, entry in table.items())
        DIGESTS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(table)} cases to {DIGESTS}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
