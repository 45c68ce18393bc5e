"""The crossguard command line: subcommands, exit codes, and outputs."""

from __future__ import annotations

import sys

import pytest

from crossguard import cli
from crossguard.model import ProtocolError, validate_scenario
from crossguard.scenario import parse_scenario
from crossguard.trace import loads_records

from helpers import INTERSECTION, REFERENCE, SCENARIO_DIR

REPO = SCENARIO_DIR.parent

# A hex literal YAML builds into an int too long for repr, and how messages show it.
LONG_HEX = "0x" + "f" * 4000
HEX_SHOWN = "an integer of 16000 bits"

BROKEN_VALIDATION = """
nodes:
  - id: 1
    pose: {x: 0.0, y: 0.0}
    sensor:
      kind: rgb_camera
      base_false_negative: 0.9
      base_false_positive: 0.1
      effective_range: 30.0
    master: true
    actuated: true
ground_truth:
  pedestrian_present: false
query_region_center: {x: 0.0, y: 0.0}
perception:
  distance_reference: 10.0
network:
  latency_min: 1000
  latency_max: 5000
  drop_probability: 0.0
  seed: 3
session_window: 20000
settle_interval: 5000
sessions: 1
"""


@pytest.fixture
def huge_node_id_file(tmp_path):
    """Valid except node 2's id, which does not fit a signed 64-bit key."""
    text = INTERSECTION.read_text(encoding="utf-8")
    assert text.count("- id: 2 ") == 1
    path = tmp_path / "huge_id.scenario"
    path.write_text(text.replace("- id: 2 ", f"- id: {2**63} "), encoding="utf-8")
    return path


@pytest.fixture
def huge_latency_file(tmp_path):
    """The bundled crossing with a latency band wider than one 64-bit draw."""
    text = INTERSECTION.read_text(encoding="utf-8")
    assert text.count("latency_max: 8000\n") == 1 and text.count("settle_interval: 10000\n") == 1
    text = text.replace("latency_max: 8000\n", f"latency_max: {2**65}\n")
    text = text.replace("settle_interval: 10000\n", f"settle_interval: {2**65}\n")
    path = tmp_path / "huge_latency.scenario"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def long_hex_id_file(tmp_path):
    """The bundled crossing with node 2's id a hex literal too long for repr."""
    text = INTERSECTION.read_text(encoding="utf-8")
    assert text.count("- id: 2 ") == 1
    path = tmp_path / "long_hex_id.scenario"
    path.write_text(text.replace("- id: 2 ", f"- id: {LONG_HEX} "), encoding="utf-8")
    return path


@pytest.fixture
def far_center_file(tmp_path):
    """The bundled crossing with its query-region center near the float limits."""
    text = INTERSECTION.read_text(encoding="utf-8")
    center = "query_region_center: {x: 10.0, y: 10.0}\n"
    assert text.count(center) == 1
    path = tmp_path / "far_center.scenario"
    path.write_text(text.replace(center, "query_region_center: {x: -1.0e+308, y: 1.7e+308}\n"), encoding="utf-8")
    return path


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "invalid.scenario"
    path.write_text(BROKEN_VALIDATION, encoding="utf-8")
    return path


@pytest.fixture
def garbled_file(tmp_path):
    path = tmp_path / "garbled.scenario"
    path.write_text("nodes: [oops", encoding="utf-8")
    return path


class TestValidateCommand:
    def test_good_scenario_exits_zero_and_says_ok(self, capsys):
        code = cli.main(["validate", str(INTERSECTION)])
        assert code == cli.EXIT_OK
        assert f"{INTERSECTION}: OK" in capsys.readouterr().out

    def test_reference_scenario_is_valid(self):
        assert cli.main(["validate", str(REFERENCE)]) == cli.EXIT_OK

    def test_parse_error_exits_two(self, garbled_file, capsys):
        code = cli.main(["validate", str(garbled_file)])
        assert code == cli.EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["validate", str(tmp_path / "ghost.scenario")])
        assert code == cli.EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("sessions: 1\n", "sessions: 1\n1: 2\n", "scenario: unknown field(s) 1"),
            ("sessions: 1\n", "sessions: 1\nnull: 1\n", "scenario: unknown field(s) None"),
            ("pose: {x: 0.0, y: 0.0}", "pose: {x: 0, y: 0, 7: 1}", "nodes[0].pose: unknown field(s) 7"),
            (
                "effective_range: 50.0",
                "effective_range: 1" + "0" * 400,
                "nodes[2].sensor.effective_range: number too large for a float",
            ),
            pytest.param(
                "sessions: 1\n",
                "sessions: " + "1" * 5000 + "\n",
                "not valid YAML: ",
                marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"),
            ),
            ("master: true", f"master: {LONG_HEX}", "nodes[0].master: expected true or false, got " + HEX_SHOWN),
            (
                "kind: lidar",
                f"kind: {LONG_HEX}",
                "nodes[2].sensor.kind: expected one of lidar, optical_camera, rgb_camera, got " + HEX_SHOWN,
            ),
            pytest.param(
                "sessions: 1\n",
                f"sessions: [{LONG_HEX}]\n",
                "sessions: expected an integer, got a list holding an integer too long to print",
                marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"),
            ),
            ("sessions: 1\n", f"sessions: 1\n? {LONG_HEX}\n: 1\n", "scenario: unknown field(s) " + HEX_SHOWN),
            ("sessions: 1\n", 'sessions: 1\n"a\\nb": 1\n', "scenario: unknown field(s) 'a\\nb'"),
            (
                "  drop_probability: 0.0\n",
                "  drop_probability: 0.0\n  drop_probability: 1.0\n",
                "duplicate key 'drop_probability' at line 48",
            ),
            (
                "sessions: 1\n",
                f"sessions: 1\n? {LONG_HEX}\n: 1\n? {LONG_HEX}\n: 2\n",
                f"duplicate key {HEX_SHOWN} at line 55",
            ),
        ],
        ids=[
            "int-key", "null-key", "nested-int-key", "401-digit-float", "5000-digit-int",
            "long-hex-bool", "long-hex-kind", "long-hex-in-a-list", "long-hex-key", "newline-key",
            "duplicate-key", "duplicate-long-hex-key",
        ],
    )
    def test_malformed_input_exits_two_on_one_line(self, tmp_path, capsys, old, new, message):
        text = INTERSECTION.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path = tmp_path / "malformed.scenario"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"parse error: {message}")

    def test_deep_nesting_exits_two_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.scenario"
        path.write_text("nodes: " + "[" * 1000 + "]" * 1000 + "\n", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("parse error: not valid YAML: nested too deeply")

    def test_validation_error_exits_three_listing_problems(self, invalid_file, capsys):
        code = cli.main(["validate", str(invalid_file)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "base_false_negative" in err


class TestRunCommand:
    def test_runs_the_bundled_scenario(self, capsys):
        code = cli.main(["run", str(INTERSECTION), "--semantics", "expert_override"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "decisions: 1" in out
        assert "semantics: expert_override" in out
        assert "seed: 42" in out
        assert "node 3 solo error rate" in out

    def test_explicit_seed_is_echoed(self, capsys):
        code = cli.main(["run", str(INTERSECTION), "--seed", "5"])
        assert code == cli.EXIT_OK
        assert "seed: 5" in capsys.readouterr().out

    def test_trace_file_holds_the_full_run(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.ndjson"
        code = cli.main(["run", str(INTERSECTION), "--trace", str(trace_path)])
        assert code == cli.EXIT_OK
        records = loads_records(trace_path.read_text(encoding="utf-8"))
        assert records[0]["ev"] == "session_open"
        assert records[-1]["ev"] == "session_close"
        assert sum(1 for r in records if r["ev"] == "decision") == 1
        assert f"trace written to {trace_path}" in capsys.readouterr().out

    def test_parse_error_exits_two(self, garbled_file):
        assert cli.main(["run", str(garbled_file)]) == cli.EXIT_PARSE

    def test_validation_error_exits_three(self, invalid_file):
        assert cli.main(["run", str(invalid_file)]) == cli.EXIT_VALIDATION

    def test_protocol_error_exits_four(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise ProtocolError("backdated event")

        monkeypatch.setattr(cli, "run_once", explode)
        code = cli.main(["run", str(INTERSECTION)])
        assert code == cli.EXIT_PROTOCOL
        assert "protocol error" in capsys.readouterr().err

    def test_a_refused_actuation_command_exits_four(self, monkeypatch, capsys):
        monkeypatch.setattr("crossguard.runner.apply_command", lambda motion, command: False)
        assert cli.main(["run", str(INTERSECTION)]) == cli.EXIT_PROTOCOL
        assert capsys.readouterr().err == "protocol error: node 1 refused session 1's command as stale\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "seven"])
    def test_seed_outside_64_bits_is_an_argument_error(self, seed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", str(INTERSECTION), "--seed", seed])
        assert excinfo.value.code == 2
        assert "seed" in capsys.readouterr().err

    def test_largest_seed_runs(self, capsys):
        assert cli.main(["run", str(INTERSECTION), "--seed", str(2**64 - 1)]) == cli.EXIT_OK
        assert f"seed: {2**64 - 1}" in capsys.readouterr().out

    def test_trace_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "t.ndjson"
        assert cli.main(["run", str(INTERSECTION), "--trace", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(target) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_node_id_beyond_63_bits_exits_three(self, command, huge_node_id_file, capsys):
        assert cli.main([command, str(huge_node_id_file)]) == cli.EXIT_VALIDATION
        assert "< 2^63" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_long_hex_node_id_exits_three(self, command, long_hex_id_file, capsys):
        assert cli.main([command, str(long_hex_id_file)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"nodes[1].id: must be an integer >= 0 and < 2^63, got {HEX_SHOWN}" in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_distance_no_float_can_hold_exits_three(self, command, far_center_file, capsys):
        # Both poses are finite, but each node's distance to the center overflows:
        # a run would book every claim malformed and write Infinity into its trace.
        assert cli.main([command, str(far_center_file)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        for index in range(3):
            assert f"nodes[{index}].pose: distance to query_region_center must be finite" in err

    @pytest.mark.parametrize("field", ["session_window: 50000", "settle_interval: 10000"])
    def test_time_too_long_to_print_exits_three(self, field, tmp_path, capsys):
        # A traced run would have to print this time, and str() refuses it.
        text = INTERSECTION.read_text(encoding="utf-8")
        assert text.count(field + "\n") == 1
        path = tmp_path / "long_time.scenario"
        path.write_text(text.replace(field, field.split(":")[0] + f": {LONG_HEX}"), encoding="utf-8")
        trace = tmp_path / "trace.ndjson"
        assert cli.main(["run", str(path), "--trace", str(trace)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: {field.split(':')[0]}: must be < 2^64, got {HEX_SHOWN}\n"
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_latency_beyond_64_bits_exits_three(self, command, huge_latency_file, capsys):
        # Checked first: a run that got past validation would never return.
        errors = validate_scenario(parse_scenario(huge_latency_file.read_text(encoding="utf-8")))
        assert any("network.latency_max" in error for error in errors)
        assert cli.main([command, str(huge_latency_file)]) == cli.EXIT_VALIDATION
        assert "< 2^64" in capsys.readouterr().err

    def test_unknown_semantics_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", str(INTERSECTION), "--semantics", "vibes"])
        assert excinfo.value.code == 2
        assert "unknown semantics" in capsys.readouterr().err

    def test_unknown_truth_mode_is_an_argument_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", str(INTERSECTION), "--truth", "chaotic"])
        assert excinfo.value.code == 2


class TestSweepCommand:
    def test_sweep_prints_a_comparison_table(self, capsys):
        code = cli.main(["sweep", str(INTERSECTION), "--seeds", "3"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "semantics" in out
        for name in ("expert_override", "majority", "trust_weighted_majority", "unanimity_safe"):
            assert name in out
        assert "node 1 solo error rate" in out

    def test_readme_sweep_example_is_the_commands_output(self, monkeypatch, capsys):
        """README's sweep table is what the command prints, byte for byte."""
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        start = readme.index("```text\nscenario: scenarios/intersection.scenario  seeds: 200") + len("```text\n")
        expected = readme[start : readme.index("```", start)]
        monkeypatch.chdir(REPO)
        assert cli.main(["sweep", "scenarios/intersection.scenario", "--seeds", "200"]) == cli.EXIT_OK
        assert capsys.readouterr().out == expected

    def test_sweep_writes_outputs_when_asked(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = cli.main(
            [
                "sweep",
                str(INTERSECTION),
                "--semantics",
                "majority,expert_override",
                "--seeds",
                "2",
                "--out",
                str(out_dir),
            ]
        )
        assert code == cli.EXIT_OK
        assert (out_dir / "summary.csv").exists()
        named = sorted(p.name for p in out_dir.iterdir())
        assert "intersection__majority__seed0.metrics.ndjson" in named
        assert "intersection__expert_override__seed1.metrics.ndjson" in named
        assert "wrote 5 file(s)" in capsys.readouterr().out

    def test_repeated_semantics_print_one_row_per_entry(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", str(INTERSECTION), "--semantics", "majority,majority", "--seeds", "2", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        rows = [line for line in printed if line.startswith("majority ")]
        assert len(rows) == 2 and rows[0] == rows[1]
        files = sorted(out.iterdir())
        assert len(files) == 3  # one metrics file per seed, then summary.csv
        assert f"wrote {len(files)} file(s) under {out}" in printed
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert len(summary) == 3 and summary[1] == summary[2]

    @pytest.mark.parametrize("name", ["taken.txt", ""], ids=["existing_file", "empty"])
    def test_out_naming_no_directory_exits_two(self, tmp_path, monkeypatch, capsys, name):
        """An empty name would be the current directory: it is refused, and nothing is written there."""
        monkeypatch.chdir(tmp_path)
        if name:
            (tmp_path / name).write_text("keep me", encoding="utf-8")
        assert cli.main(["sweep", str(INTERSECTION), "--seeds", "1", "--out", name]) == 2
        err = capsys.readouterr().err
        assert f"{name}'" in err
        assert len(err.strip().splitlines()) == 1
        assert [(path.name, path.read_text(encoding="utf-8")) for path in tmp_path.iterdir()] == (
            [(name, "keep me")] if name else []
        )

    @pytest.mark.parametrize(
        "seeds, message",
        [("0", "seed count must be >= 1, got 0"), ("x", "invalid seed count 'x'; expected an integer")],
    )
    def test_sweep_seed_count_must_be_positive(self, capsys, seeds, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", str(INTERSECTION), "--seeds", seeds])
        assert excinfo.value.code == cli.EXIT_PARSE
        assert capsys.readouterr().err.endswith(f"error: argument --seeds: {message}\n")

    def test_sweep_parse_error_exits_two(self, garbled_file):
        assert cli.main(["sweep", str(garbled_file)]) == cli.EXIT_PARSE


class TestParser:
    def test_missing_subcommand_is_an_argument_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("text", ["", ",", " , "])
    def test_empty_semantics_list_is_an_argument_error(self, text, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", str(INTERSECTION), "--semantics", text])
        assert excinfo.value.code == 2
        assert "at least one semantics is required" in capsys.readouterr().err

    def test_semantics_list_parser_accepts_all(self):
        from crossguard.aggregation import AggregationSemantics

        assert cli._parse_semantics_list("all") == list(AggregationSemantics)
        assert cli._parse_semantics_list("majority") == [AggregationSemantics.MAJORITY]
        assert cli._parse_semantics_list("majority, expert_override") == [
            AggregationSemantics.MAJORITY,
            AggregationSemantics.EXPERT_OVERRIDE,
        ]
