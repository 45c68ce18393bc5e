#!/usr/bin/env python3
"""crossguard benchmark: one entry point for every workload.

    python3 bench/run.py --workload fleet_collector --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10     # every workload, one table
    python3 bench/run.py --workload fleet_collector --trace 1     # per-layer spans and counts
    python3 bench/run.py --workload sweep_crossing --profile      # cProfile top-20 by self time
    python3 bench/run.py --record                                 # re-record the seed-0 digests

One process and one thread drive the program as a closed loop: the next
public call (`run_sweep` or `run_once`) starts only after the previous one
returns. Calls are timed from outside with the calling thread's host CPU
time, scaled to a fixed processor speed by a reference work timed just
before each call (bench/reference.py); output checks run between calls,
outside the timed region. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. Artefacts
(result files, spans, profiles) go to bench/out/.
"""

import argparse
import cProfile
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep_crossing", "fleet_collector", "fleet_traced")
SETUPS = 9  # set-ups per run; setup_s is their median
LOADS = 5  # traced loads of the template; scenario.load_scenario.self_s is their median
# Layers every simulated session passes through. A traced run that finds one
# of them never called fails instead of reporting zero cost: the program
# reached the layer by a name the wrappers do not cover.
REQUIRED_LAYERS = (
    "determinism.draw",
    "determinism.stream",
    "perception.sense",
    "netsim.send",
    "netsim.schedule",
    "netsim.pop",
    "session.accept_claim",
    "session.close_and_decide",
    "trust.rank",
    "aggregation.decide",
    "actuation.sequence_actuation",
    "actuation.apply_command",
    "runner.Simulation_init",
    "runner.run_once",
    "model.validate_scenario",
)
REQUIRED_TRACE_LAYERS = ("trace.dumps_record",)  # required on fleet_traced as well

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "determinism.draw.calls": "count",
    "determinism.draw.self_s": "s",
    "determinism.stream.calls": "count",
    "perception.sense.calls": "count",
    "perception.sense.self_s": "s",
    "netsim.send.calls": "count",
    "netsim.send.self_s": "s",
    "netsim.schedule.calls": "count",
    "netsim.schedule.self_s": "s",
    "netsim.pop.calls": "count",
    "netsim.pop.self_s": "s",
    "netsim.queue_depth_max": "count",
    "netsim.delivered_frac": "ratio",
    "session.accept_claim.calls": "count",
    "session.accept_claim.self_s": "s",
    "session.accepted_frac": "ratio",
    "session.close_and_decide.calls": "count",
    "session.close_and_decide.self_s": "s",
    "session.empty_frac": "ratio",
    "trust.rank.calls": "count",
    "trust.rank.self_s": "s",
    "aggregation.decide.calls": "count",
    "aggregation.decide.self_s": "s",
    "actuation.sequence_actuation.calls": "count",
    "actuation.sequence_actuation.self_s": "s",
    "actuation.apply_command.calls": "count",
    "actuation.apply_command.self_s": "s",
    "actuation.stale_frac": "ratio",
    "runner.Simulation_init.calls": "count",
    "runner.Simulation_init.self_s": "s",
    "runner.simulations_per_seed": "sims/seed",
    "runner.feed.calls": "count",
    "runner.feed.self_s": "s",
    "runner.records_per_decision": "records/decision",
    "runner.run_once.self_s": "s",
    "model.validate_scenario.calls": "count",
    "model.validate_scenario.self_s": "s",
    "trace.dumps_record.calls": "count",
    "trace.dumps_record.self_s": "s",
    "trace.claim_payload.calls": "count",
    "trace.claim_payload.self_s": "s",
    "trace.bytes_per_decision": "B/decision",
    "scenario.load_scenario.self_s": "s",
    "bench.trace_overhead": "ratio",
}


def import_program() -> None:
    """Put this checkout's src/ first on the path and import crossguard from it."""
    if not (SRC / "crossguard" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no crossguard package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import crossguard

    if Path(crossguard.__file__).resolve().parent != SRC / "crossguard":
        raise SystemExit(f"run.py: imported crossguard from {crossguard.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, trace_dir: Path) -> list:
    """Load and validate the template, then generate and validate the inputs."""
    import workloads
    from crossguard import validate_scenario

    template = workloads.load_template()
    calls = workloads.build_calls(workload, seed, template, trace_dir)
    errors = [error for call in calls for error in validate_scenario(call.scenario)]
    if errors:
        raise SystemExit(f"run.py: generated {workload} inputs fail validation: {errors[:3]}")
    return calls


def run_pass(calls: list, expected: dict, deep: bool):
    """Time every call once; returns (call times, failed calls, digests, trace bytes).

    A call's time is a pair: the host CPU time of this thread while the call
    runs, and that of the reference work run just before it. CPU time holds
    user and kernel time, so it includes garbage collection and the trace
    file's write calls, and leaves out time other processes hold the
    processor.
    """
    import reference
    import workloads

    clock = time.thread_time
    times = []
    failed = 0
    digests = {}
    trace_bytes = 0
    for call in calls:
        reference_seconds = reference.timed()
        start = clock()
        try:
            output = call.run()
        except Exception:  # a failed call is counted and reported, and the run goes on
            times.append((clock() - start, reference_seconds))
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        times.append((clock() - start, reference_seconds))
        # A call missing from a non-empty record is a mismatch, not a pass.
        want = expected.get(call.key, "not recorded" if expected else None)
        digests[call.key], problems = workloads.check(call, output, want, deep)
        if problems:
            failed += 1
            print("\n".join(problems), file=sys.stderr)
        if call.trace_path is not None:
            # Deleted before writeback, so the next call writes a fresh file and no disk I/O is timed.
            trace_bytes += call.trace_path.stat().st_size
            call.trace_path.unlink()
    return times, failed, digests, trace_bytes


def expected_digests(workload: str, seed: int) -> dict:
    import workloads

    return workloads.load_expected(workload) if seed == workloads.DEFAULT_SEED else {}


def git_sha() -> str:
    """HEAD's commit from .git, read directly so nothing outside the checkout is touched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, samples: dict) -> dict:
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "samples": samples,
    }


def setup_time() -> tuple[float, float]:
    """This process's set-up: its CPU time since it started (starting Python,
    imports, loading and generating the inputs), and the reference work's
    time right after, which scales it. Waits for other processes do not count."""
    import reference

    seconds = time.process_time()
    return seconds, reference.timed()


def child_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process, which imports crossguard cold."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    seconds, reference_seconds = done.stdout.split()[-2:]
    return float(seconds), float(reference_seconds)


def measure(args, calls: list, setup: tuple[float, float]):
    """The untraced run: whole passes until --seconds have gone by.

    Every timed call of every pass is one sample, scaled to the reference
    speed. decisions_per_s is all decisions over all scaled call time, and
    the percentiles are taken over all samples, so a slow path that fires in
    some passes only still counts, and nothing depends on how many passes
    fit in the run.
    """
    import reference

    expected = expected_digests(args.workload, args.seed)
    passes = []
    setups = [setup]
    failed = 0
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < args.seconds:
        times, pass_failed, digests, _ = run_pass(calls, expected, deep=not passes)
        expected = expected or digests
        passes.append(times)
        failed += pass_failed
        # Set-ups are spread over the run, between passes, so that one burst
        # of outside load cannot slow them all.
        if len(setups) < SETUPS and time.perf_counter() - began >= len(setups) * args.seconds / SETUPS:
            setups.append(child_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [child_setup(args) for _ in range(SETUPS - len(setups))]

    pairs = [pair for times in passes for pair in times]
    call_seconds = [reference.scaled(*pair) for pair in pairs]
    p90 = statistics.quantiles(call_seconds, n=10)[8]
    decisions = sum(call.decisions for call in calls) * len(passes)
    metrics = {
        "decisions_per_s": decisions / sum(call_seconds),
        "call_ms_p50": statistics.median(call_seconds) * 1000,
        "call_ms_p90": p90 * 1000,
        "setup_s": statistics.median(reference.scaled(*pair) for pair in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    host_seconds = [seconds for seconds, _ in pairs]
    samples = {
        "passes": len(passes),
        "calls": len(pairs),
        "calls_per_pass": len(calls),
        "calls_above_p90": sum(1 for seconds in call_seconds if seconds > p90),
        "setups": len(setups),
        "decisions": decisions,
        # Unscaled, for reading beside the scaled metrics.
        "host_decisions_per_s": decisions / sum(host_seconds),
        "host_call_ms_p50": statistics.median(host_seconds) * 1000,
        "host_setup_s": statistics.median(seconds for seconds, _ in setups),
        "reference_ms_p50": statistics.median(reference_seconds for _, reference_seconds in pairs) * 1000,
    }
    attempted = len(pairs)
    return metrics, attempted, failed, samples


def measure_traced(args, calls: list, tracer):
    """The traced run: untraced and traced passes alternate until --seconds
    have gone by; counts come from one pass, times from the fastest pass.
    A layer in REQUIRED_LAYERS that no traced call reached fails the run."""
    import reference

    expected = expected_digests(args.workload, args.seed)
    untraced, traced, counts = [], [], []
    self_seconds: dict[str, list] = {}
    failed = 0
    trace_bytes = 0
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < args.seconds:
        times, pass_failed, digests, _ = run_pass(calls, expected, deep=not untraced)
        expected = expected or digests
        untraced.append(sum(reference.scaled(*pair) for pair in times))
        failed += pass_failed

        tracer.reset()
        tracer.record_spans = not traced
        tracer.install()
        try:
            times, pass_failed, _, trace_bytes = run_pass(calls, expected, deep=False)
        finally:
            tracer.uninstall()
        traced.append(sum(reference.scaled(*pair) for pair in times))
        failed += pass_failed
        counts.append((dict((name, stat[0]) for name, stat in tracer.stats.items()), dict(tracer.counters)))
        for name in tracer.stats:
            self_seconds.setdefault(name, []).append(tracer.self_seconds(name))
    if any(count != counts[0] for count in counts):
        failed += 1
        print("traced passes disagree on call counts", file=sys.stderr)

    calls_of, counters = counts[0]
    required = REQUIRED_LAYERS + (REQUIRED_TRACE_LAYERS if args.workload == "fleet_traced" else ())
    bypassed = [layer for layer in required if not calls_of.get(layer)]
    if bypassed:
        raise SystemExit(f"run.py: the traced {args.workload} pass never reached {', '.join(bypassed)}")
    decisions = sum(call.decisions for call in calls)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for metric in PER_LAYER_UNITS:
        module, _, stat = metric.rpartition(".")
        if stat == "calls":
            metrics[metric] = calls_of.get(module, 0)
        elif stat == "self_s" and module != "scenario.load_scenario":
            metrics[metric] = min(self_seconds.get(module, [0.0]))
    metrics.update(
        {
            "netsim.queue_depth_max": counters["netsim.queue_depth_max"],
            "netsim.delivered_frac": ratio(counters["netsim.delivered"], counters["netsim.copies"]),
            "session.accepted_frac": ratio(counters["session.accepted"], calls_of.get("session.accept_claim", 0)),
            "session.empty_frac": ratio(counters["session.empty"], calls_of.get("session.close_and_decide", 0)),
            "actuation.stale_frac": ratio(counters["actuation.stale"], calls_of.get("actuation.apply_command", 0)),
            "runner.simulations_per_seed": ratio(
                calls_of.get("runner.Simulation_init", 0), sum(call.seeds for call in calls)
            ),
            "runner.records_per_decision": ratio(calls_of.get("runner.feed", 0), decisions),
            "trace.bytes_per_decision": ratio(trace_bytes, decisions),
            "bench.trace_overhead": min(traced) / min(untraced),
        }
    )
    attempted = (len(untraced) + len(traced)) * len(calls)
    samples = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "calls": attempted,
        "decisions_per_pass": decisions,
        "spans_written": len(tracer.spans),
    }
    return metrics, attempted, failed, samples


def traced_loads(tracer) -> float:
    """Median self time of load_scenario over LOADS traced loads of the template."""
    import workloads

    loads = []
    tracer.install()
    try:
        for _ in range(LOADS):
            tracer.reset()
            workloads.load_template()
            loads.append(tracer.self_seconds("scenario.load_scenario"))
    finally:
        tracer.uninstall()
    return statistics.median(loads)


def profile(args, calls: list) -> str:
    """cProfile top-20 by self time over whole passes; no metric uses it."""
    profiler = cProfile.Profile()
    began = time.perf_counter()
    profiler.enable()
    while time.perf_counter() - began < args.seconds:
        for call in calls:
            call.run()
    profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(20)
    return text.getvalue()


def print_table(args, metrics: dict, units: dict, samples: dict, attempted: int, failed: int) -> None:
    import reference

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  seconds={args.seconds}")
    per_call = f"{samples.get('calls')} calls in {samples.get('passes')} passes"
    sample_notes = {
        "decisions_per_s": f"{per_call}; unscaled {samples.get('host_decisions_per_s', 0):.6g}",
        "call_ms_p50": f"{per_call}; unscaled {samples.get('host_call_ms_p50', 0):.6g}",
        "call_ms_p90": f"{per_call}; {samples.get('calls_above_p90')} above",
        "setup_s": f"median of {samples.get('setups')} set-ups; unscaled {samples.get('host_setup_s', 0):.6g}",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, value in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {units[name]:16s} {sample_notes.get(name, '')}")
    print(f"  {'failed_frac':38s} {failed / attempted:>16.6g} {'ratio':16s} {attempted} calls")
    if "reference_ms_p50" in samples:
        print(f"  times scaled to the speed at which the reference work takes {reference.REFERENCE_SECONDS * 1000:g} ms;"
              f" it took {samples['reference_ms_p50']:.4g} ms (median)")


def record(args) -> None:
    """Write the digests of one pass of every workload at DEFAULT_SEED."""
    import workloads

    recorded = {}
    for workload in WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory(dir=OUT) as trace_dir:
            calls = set_up(workload, workloads.DEFAULT_SEED, Path(trace_dir))
            _, failed, digests, _ = run_pass(calls, {}, deep=True)
        if failed:
            raise SystemExit(f"run.py: {workload} failed its invariants; nothing recorded")
        recorded[workload] = digests
    workloads.EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    with open(workloads.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, "git_sha": git_sha(), "workloads": recorded}, handle, indent=1)
        handle.write("\n")
    print(f"recorded {sum(map(len, recorded.values()))} digests to {workloads.EXPECTED}")


def run_all(args) -> None:
    """Every workload in its own process, one table per workload."""
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: {workload} exited with {done.returncode}")
        print("\n".join(line for line in done.stdout.splitlines()[:-1] if not line.startswith("provenance")))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is checked against recorded digests")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer spans instead of end-to-end")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--profile", action="store_true", help="write a cProfile top-20 by self time")
    mode.add_argument("--record", action="store_true", help="re-record the digests for seed 0")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.workload == "all" and not args.record:
        run_all(args)
        return
    OUT.mkdir(exist_ok=True)
    if args.record:
        record(args)
        return

    import spans

    with tempfile.TemporaryDirectory(dir=OUT) as trace_dir:
        calls = set_up(args.workload, args.seed, Path(trace_dir))
        setup = setup_time()
        if args.setup_only:
            print(*setup)
            return
        if args.profile:
            text = profile(args, calls)
            target = OUT / f"profile-{args.workload}-seed{args.seed}.txt"
            target.write_text(text, encoding="utf-8")
            print(text)
            print(f"profile written to {target}")
            return
        if args.trace:
            tracer = spans.Tracer()
            try:
                load_self = traced_loads(tracer)
            except LookupError as error:
                raise SystemExit(f"run.py: {error}") from None
            metrics, attempted, failed, samples = measure_traced(args, calls, tracer)
            metrics["scenario.load_scenario.self_s"] = load_self
            units = PER_LAYER_UNITS
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.ndjson"
            tracer.write_spans(span_file)
            samples["span_file"] = str(span_file.relative_to(ROOT))
        else:
            metrics, attempted, failed, samples = measure(args, calls, setup)
            units = END_TO_END_UNITS

    metrics = {name: metrics[name] for name in units}
    print_table(args, metrics, units, samples, attempted, failed)
    info = provenance(args, samples)
    print("provenance " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
