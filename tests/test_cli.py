"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTable1Command:
    def test_prints_the_trace(self):
        code, text = run_cli("table1")
        assert code == 0
        assert "Round" in text
        assert "sender,T7,receiver" in text
        assert text.count("0.76") >= 7  # the seven 0.76 rounds


class TestFigure6Command:
    def test_with_t7(self):
        code, text = run_cli("figure6")
        assert code == 0
        assert "sender,T7,receiver" in text
        assert "0.6583" in text

    def test_without_t7(self):
        code, text = run_cli("figure6", "--without-t7")
        assert code == 0
        assert "sender,T8,receiver" in text


class TestSyntheticCommand:
    def test_select_only(self):
        code, text = run_cli("synthetic", "--seed", "3", "--services", "12")
        assert code == 0
        assert "12 services" in text
        assert "satisfaction" in text

    def test_with_delivery(self):
        code, text = run_cli(
            "synthetic", "--seed", "3", "--services", "12", "--deliver", "3"
        )
        assert code == 0
        assert "startup latency" in text
        assert "frames:" in text

    def test_deterministic(self):
        _, first = run_cli("synthetic", "--seed", "5")
        _, second = run_cli("synthetic", "--seed", "5")
        assert first == second


class TestAnalyzeCommand:
    def test_paper_scenario(self):
        code, text = run_cli("analyze", "figure6")
        assert code == 0
        assert "17 transcoders" in text
        assert "dead services" in text

    def test_synthetic_seed(self):
        code, text = run_cli("analyze", "4")
        assert code == 0
        assert "vertices:" in text

    def test_bad_scenario_exits(self):
        with pytest.raises(SystemExit):
            run_cli("analyze", "not-a-thing")


class TestCatalogCommand:
    def test_paper_catalog_is_xml(self):
        code, text = run_cli("catalog", "--paper", "figure3")
        assert code == 0
        assert text.startswith("<catalog>")
        assert 'name="T1"' in text

    def test_synthetic_catalog_round_trips(self):
        from repro.discovery.wsdl import catalog_from_wsdl

        code, text = run_cli("catalog", "--seed", "2")
        assert code == 0
        catalog = catalog_from_wsdl(text.strip())
        assert len(catalog) > 0


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestExportSolveCommands:
    def test_export_then_solve(self, tmp_path):
        import io as _io
        from repro.cli import main as _main

        path = str(tmp_path / "fig6.json")
        out = _io.StringIO()
        assert _main(["export", path, "--paper", "figure6"], out=out) == 0
        assert "figure6" in out.getvalue()

        out = _io.StringIO()
        assert _main(["solve", path], out=out) == 0
        assert "sender,T7,receiver" in out.getvalue()

    def test_solve_with_trace(self, tmp_path):
        import io as _io
        from repro.cli import main as _main

        path = str(tmp_path / "fig6.json")
        _main(["export", path, "--paper", "figure6"], out=_io.StringIO())
        out = _io.StringIO()
        assert _main(["solve", path, "--trace"], out=out) == 0
        assert "Round" in out.getvalue()

    def test_export_synthetic_round_trips(self, tmp_path):
        import io as _io
        from repro.cli import main as _main

        path = str(tmp_path / "synth.json")
        assert _main(["export", path, "--seed", "5"], out=_io.StringIO()) == 0
        out = _io.StringIO()
        assert _main(["solve", path], out=out) == 0
        assert "satisfaction" in out.getvalue()


class TestSimulateCommand:
    ARGS = ("simulate", "--scenario", "steady", "--seed", "2", "--sessions", "8")

    def test_summary_output(self):
        code, text = run_cli(*self.ARGS)
        assert code == 0
        assert "scenario:          steady (seed 2)" in text
        assert "trace digest:" in text

    def test_deterministic_across_invocations(self):
        _, first = run_cli(*self.ARGS)
        _, second = run_cli(*self.ARGS)
        assert first == second

    def test_json_output(self):
        import json

        code, text = run_cli(*self.ARGS, "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["fleet"]["sessions"] == 8
        assert len(payload["sessions"]) == 8

    def test_fleet_only_json(self):
        import json

        code, text = run_cli(*self.ARGS, "--json", "--fleet-only")
        assert code == 0
        assert "sessions" not in json.loads(text)

    def test_markdown_output(self):
        code, text = run_cli(*self.ARGS, "--markdown")
        assert code == 0
        assert "| sessions | 8 |" in text

    def test_output_file(self, tmp_path):
        import json

        path = str(tmp_path / "report.json")
        code, text = run_cli(*self.ARGS, "--output", path)
        assert code == 0
        assert path in text
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["fleet"]["sessions"] == 8

    def test_faults_and_no_faults_differ(self):
        base = ("simulate", "--scenario", "failover-storm", "--seed", "3",
                "--sessions", "8")
        _, with_faults = run_cli(*base)
        _, without = run_cli(*base, "--no-faults")
        assert with_faults != without

    def test_horizon_and_trace_capacity(self):
        code, text = run_cli(
            *self.ARGS, "--horizon", "10", "--trace-capacity", "4"
        )
        assert code == 0
        assert "virtual horizon:   10.0s" in text

    def test_unknown_scenario_fails(self, capsys):
        from repro.sim import scenario_names

        # Checked at parse time against the campaign registry.
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["simulate", "--scenario", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert "policy-mix" in scenario_names()
        for name in scenario_names():
            args = parser.parse_args(["simulate", "--scenario", name])
            assert args.scenario == name


class TestScenarioFileErrors:
    """solve/export/lint report file problems as one-line errors, exit 2."""

    def one_line_error(self, text: str) -> str:
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 1, f"expected exactly one error line, got {text!r}"
        assert lines[0].startswith("error:")
        assert "Traceback" not in text
        return lines[0]

    def test_solve_missing_file(self, tmp_path):
        path = str(tmp_path / "does-not-exist.json")
        code, text = run_cli("solve", path)
        assert code == 2
        line = self.one_line_error(text)
        assert "cannot read scenario file" in line
        assert "does-not-exist.json" in line

    def test_solve_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, text = run_cli("solve", str(path))
        assert code == 2
        self.one_line_error(text)

    def test_solve_valid_json_wrong_document(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"document": "something-else"}', encoding="utf-8")
        code, text = run_cli("solve", str(path))
        assert code == 2
        self.one_line_error(text)

    def test_lint_missing_file(self, tmp_path):
        code, text = run_cli("lint", str(tmp_path / "gone.json"))
        assert code == 2
        self.one_line_error(text)

    def test_lint_truncated_file(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"document": "repro-scenario"', encoding="utf-8")
        code, text = run_cli("lint", str(path))
        assert code == 2
        self.one_line_error(text)

    def test_export_to_unwritable_path(self, tmp_path):
        path = str(tmp_path / "no-such-dir" / "out.json")
        code, text = run_cli("export", path, "--paper", "figure3")
        assert code == 2
        line = self.one_line_error(text)
        assert "cannot write scenario file" in line

    def test_loadgen_missing_scenario_file(self, tmp_path):
        code, text = run_cli(
            "loadgen", "--scenario", str(tmp_path / "gone.json")
        )
        assert code == 2
        self.one_line_error(text)

    def test_serve_missing_scenario_file(self, tmp_path):
        code, text = run_cli(
            "serve", "--scenario", str(tmp_path / "gone.json")
        )
        assert code == 2
        self.one_line_error(text)

    def test_serve_invalid_rate_limit_config(self):
        # Misconfiguration fails at daemon start with the one-line idiom,
        # not with a traceback (and never on the first request).
        code, text = run_cli(
            "serve", "--rate-limit", "10", "--burst", "0.5"
        )
        assert code == 2
        line = self.one_line_error(text)
        assert "burst" in line

    def test_serve_zero_workers(self):
        code, text = run_cli("serve", "--workers", "0")
        assert code == 2
        line = self.one_line_error(text)
        assert "--workers" in line

    def test_serve_negative_workers(self):
        code, text = run_cli("serve", "--workers", "-2")
        assert code == 2
        line = self.one_line_error(text)
        assert "-2" in line

    def test_loadgen_affinity_without_admin_port(self):
        code, text = run_cli(
            "loadgen", "--shard-affinity", "--requests", "5"
        )
        assert code == 2
        line = self.one_line_error(text)
        assert "admin" in line

    def test_loadgen_affinity_with_unreachable_cluster(self):
        # Nothing listens on this admin port: operational failure, not a
        # traceback.
        code, text = run_cli(
            "loadgen", "--shard-affinity", "--admin-port", "1",
            "--requests", "5",
        )
        assert code == 2
        self.one_line_error(text)


class TestServeLoadgenParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8077
        assert args.queue_depth == 256
        # --workers counts processes (1 = the classic single daemon);
        # --threads carries the old planning-thread meaning.
        assert args.workers == 1
        assert args.threads == 4
        assert args.admin_port is None
        assert args.rate_limit == 0.0
        assert args.service_floor_ms == 0.0
        assert args.scenario is None

    def test_serve_cluster_flags(self):
        args = build_parser().parse_args([
            "serve", "--workers", "4", "--threads", "2",
            "--admin-port", "9100",
        ])
        assert args.workers == 4
        assert args.threads == 2
        assert args.admin_port == 9100

    def test_loadgen_flags(self):
        args = build_parser().parse_args([
            "loadgen", "--port", "9000", "--requests", "100",
            "--rate", "250", "--seed-arrivals", "4", "--json",
        ])
        assert args.command == "loadgen"
        assert args.port == 9000
        assert args.requests == 100
        assert args.rate == 250.0
        assert args.seed_arrivals == 4
        assert args.json is True
        assert args.shard_affinity is False
        assert args.admin_port is None

    def test_loadgen_affinity_flags(self):
        args = build_parser().parse_args([
            "loadgen", "--shard-affinity", "--admin-port", "8078",
        ])
        assert args.shard_affinity is True
        assert args.admin_port == 8078


class TestLintCommand:
    def test_clean_scenario(self, tmp_path):
        import io as _io
        from repro.cli import main as _main

        path = str(tmp_path / "fig3.json")
        _main(["export", path, "--paper", "figure3"], out=_io.StringIO())
        out = _io.StringIO()
        assert _main(["lint", path], out=out) == 0
        assert "clean" in out.getvalue()

    def test_scenario_with_warnings_still_passes(self, tmp_path):
        import io as _io
        from repro.cli import main as _main

        path = str(tmp_path / "fig6.json")
        _main(["export", path, "--paper", "figure6"], out=_io.StringIO())
        out = _io.StringIO()
        # Figure 6 has dead-end services -> warnings, but no errors.
        assert _main(["lint", path], out=out) == 0
        assert "[warning]" in out.getvalue()


class TestPlanBatchCommand:
    ARGS = ("plan-batch", "--seed", "7", "--sessions", "40", "--distinct", "4")

    def test_compare_prints_the_uncached_baseline(self):
        code, text = run_cli(*self.ARGS, "--compare")
        assert code == 0
        assert "40 sessions, 4 device classes" in text
        assert "cache hits:        36" in text
        lines = text.splitlines()
        assert lines[-3] == ""
        assert lines[-2].startswith("uncached:          ")
        assert lines[-2].endswith(" ms")
        assert lines[-1].startswith("speedup:           ")
        assert lines[-1].endswith("x")

    def test_without_compare_prints_no_baseline(self):
        _, text = run_cli(*self.ARGS)
        assert "uncached:" not in text
        assert "speedup:" not in text


class TestPlanGroupCommand:
    ARGS = ("plan-group", "--seed", "7", "--sessions", "40", "--classes", "8")

    def test_summary_output(self):
        code, text = run_cli(*self.ARGS)
        assert code == 0
        assert "40 sessions, 8 receiver classes" in text
        assert "tree:" in text
        assert "saved:" in text
        assert "digest:" in text

    def test_deterministic_across_invocations(self):
        _, first = run_cli(*self.ARGS)
        _, second = run_cli(*self.ARGS)
        first_digest = [l for l in first.splitlines() if "digest" in l]
        second_digest = [l for l in second.splitlines() if "digest" in l]
        assert first_digest == second_digest

    def test_compare_prints_the_baseline(self):
        code, text = run_cli(*self.ARGS, "--compare")
        assert code == 0
        assert "per-session baseline:" in text
        assert "speedup:" in text

    def test_more_classes_than_sessions_is_an_error(self):
        code, text = run_cli(
            "plan-group", "--sessions", "4", "--classes", "8"
        )
        assert code == 2
        assert "error:" in text
