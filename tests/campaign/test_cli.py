"""The ``python -m repro`` command line (in-process via cli.main)."""

import numpy as np
import pytest

from repro.campaign.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCacheCommands:
    def test_ls_empty(self, tmp_path, capsys):
        code, out = run_cli(capsys, "cache", "ls",
                            "--cache-dir", str(tmp_path))
        assert code == 0 and "empty" in out

    def test_clear_empty(self, tmp_path, capsys):
        code, out = run_cli(capsys, "cache", "clear",
                            "--cache-dir", str(tmp_path))
        assert code == 0 and "removed 0" in out

    def test_report_without_runs(self, tmp_path, capsys):
        code, out = run_cli(capsys, "report",
                            "--cache-dir", str(tmp_path))
        assert code == 1 and "no saved reports" in out

    def test_report_rejects_unknown_experiment(self, tmp_path, capsys):
        code, out = run_cli(capsys, "report", "nope",
                            "--cache-dir", str(tmp_path))
        assert code == 2 and "unknown experiment" in out


class TestCacheGcAndMerge:
    def _fill(self, capsys, cache_dir, *extra):
        run_cli(capsys, "run", "table2", "--fast",
                "--cache-dir", str(cache_dir), *extra)

    def test_gc_requires_a_limit(self, tmp_path, capsys):
        code, out = run_cli(capsys, "cache", "gc",
                            "--cache-dir", str(tmp_path))
        assert code == 2 and "--max-bytes" in out

    def test_gc_evicts_and_reports(self, tmp_path, capsys):
        self._fill(capsys, tmp_path)
        code, out = run_cli(capsys, "cache", "gc", "--max-bytes", "0",
                            "--cache-dir", str(tmp_path))
        assert code == 0 and "evicted 2 stored results" in out
        code, out = run_cli(capsys, "cache", "ls",
                            "--cache-dir", str(tmp_path))
        assert "empty" in out

    @pytest.mark.parametrize("flag", ["--max-bytes", "--max-age"])
    def test_gc_rejects_negative_limits(self, tmp_path, capsys, flag):
        self._fill(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", flag, "-1", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err
        code, out = run_cli(capsys, "cache", "ls",
                            "--cache-dir", str(tmp_path))
        assert "2 results" in out

    def test_merge_unions_another_cache(self, tmp_path, capsys):
        self._fill(capsys, tmp_path / "src")
        code, out = run_cli(capsys, "cache", "merge",
                            str(tmp_path / "src"),
                            "--cache-dir", str(tmp_path / "dst"))
        assert code == 0 and "merged 2 entries" in out
        # the merged store satisfies a re-run outright
        code, out = run_cli(capsys, "run", "table2", "--fast",
                            "--cache-dir", str(tmp_path / "dst"))
        assert code == 0 and "executed=0 cached=2" in out

    def test_clear_reports_entries_and_bytes(self, tmp_path, capsys):
        self._fill(capsys, tmp_path)
        code, out = run_cli(capsys, "cache", "clear",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 2 stored results" in out and "KiB" in out


class TestListCommand:
    def test_list_enumerates_registered_experiments(self, capsys):
        from repro.experiments import EXPERIMENTS

        code, out = run_cli(capsys, "run", "--list")
        assert code == 0
        # One line per table row, in table order.
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("  ")]
        assert listed == list(EXPERIMENTS)
        for name, (_fn, description) in EXPERIMENTS.items():
            assert f"  {name:<12s} {description}" in out
        assert f"{len(EXPERIMENTS)} experiments" in out

    def test_run_without_experiments_errors(self, capsys):
        code, out = run_cli(capsys, "run")
        assert code == 2 and "--list" in out

    def test_run_unknown_experiment_errors(self, capsys):
        code, out = run_cli(capsys, "run", "nope")
        assert code == 2 and "unknown experiment" in out


class TestRunCommand:
    def test_run_table2_twice_hits_cache(self, tmp_path, capsys):
        argv = ("run", "table2", "--fast",
                "--cache-dir", str(tmp_path))
        code, first = run_cli(capsys, *argv)
        assert code == 0
        assert "Table 2 - TWR" in first
        assert "executed=2 cached=0" in first
        code, second = run_cli(capsys, *argv)
        assert code == 0
        assert "executed=0 cached=2" in second
        # identical report modulo the campaign accounting line
        strip = lambda text: "\n".join(
            l for l in text.splitlines() if not l.startswith("campaign["))
        assert strip(first) == strip(second)

    def test_run_populates_cache_and_report(self, tmp_path, capsys):
        run_cli(capsys, "run", "table2", "--fast",
                "--cache-dir", str(tmp_path))
        code, out = run_cli(capsys, "cache", "ls",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "repro.link.ops:ranging" in out and "2 results" in out
        code, out = run_cli(capsys, "report", "table2",
                            "--cache-dir", str(tmp_path))
        assert code == 0 and "Table 2 - TWR" in out

    def test_no_cache_flag(self, tmp_path, capsys):
        code, out = run_cli(capsys, "run", "table2", "--fast",
                            "--no-cache", "--cache-dir", str(tmp_path))
        assert code == 0 and "uncached" in out
        code, out = run_cli(capsys, "cache", "ls",
                            "--cache-dir", str(tmp_path))
        assert "empty" in out

    def test_seed_override_changes_results(self, tmp_path, capsys):
        _, a = run_cli(capsys, "run", "table2", "--fast", "--seed", "1",
                       "--cache-dir", str(tmp_path / "a"))
        _, b = run_cli(capsys, "run", "table2", "--fast", "--seed", "2",
                       "--cache-dir", str(tmp_path / "b"))
        # different seeds must not share cache entries
        assert "executed=2" in a and "executed=2" in b

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("flag", ["--seed", "--processes"])
    def test_rejects_negative_budget_flags(self, tmp_path, capsys,
                                           command, flag):
        """A negative --seed used to die in numpy with a traceback; a
        negative --processes silently ran serially."""
        argv = [command, "table2", flag, "-1"]
        if command == "run":
            argv += ["--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_zero_processes_runs_serially(self, tmp_path, capsys):
        code, out = run_cli(capsys, "run", "table2", "--processes", "0",
                            "--cache-dir", str(tmp_path))
        assert code == 0 and "executed=2 cached=0" in out

    def test_module_invocation(self, tmp_path):
        """python -m repro works end-to-end (the acceptance path)."""
        import os
        import pathlib
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table2", "--fast",
             "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "campaign[table2]" in proc.stdout


BROKEN_NETLIST = """* broken fixture
v1 in 0 dc 1
r1 in out 1k
c1 out 0 1p
rdang hang out 1k
.end
"""

CLEAN_NETLIST = """* clean fixture
v1 in 0 dc 1
r1 in out 1k
r2 out 0 1k
.end
"""


class TestLintCommand:
    def test_list_shows_builtins_and_rules(self, capsys):
        code, out = run_cli(capsys, "lint", "--list")
        assert code == 0
        assert "id_testbench" in out
        assert "SP-FLOAT-001" in out
        assert "SP-DCPATH-001" in out

    def test_no_targets_errors(self, capsys):
        code, out = run_cli(capsys, "lint")
        assert code == 2 and "--list" in out

    def test_unknown_target_errors(self, capsys):
        code, out = run_cli(capsys, "lint", "no_such_thing")
        assert code == 2 and "unknown target" in out

    def test_builtin_lints_clean(self, capsys):
        code, out = run_cli(capsys, "lint", "id_testbench")
        assert code == 0
        assert "result: CLEAN" in out

    def test_builtin_subckt_lints_clean(self, capsys):
        code, out = run_cli(capsys, "lint", "int_spice")
        assert code == 0
        assert "result: CLEAN" in out

    def test_broken_file_fails_with_named_rule(self, tmp_path, capsys):
        path = tmp_path / "broken.cir"
        path.write_text(BROKEN_NETLIST)
        code, out = run_cli(capsys, "lint", str(path))
        assert code == 1
        assert "SP-FLOAT-001" in out
        assert "hang" in out
        assert "result: FAIL" in out

    def test_clean_file_passes(self, tmp_path, capsys):
        path = tmp_path / "clean.cir"
        path.write_text(CLEAN_NETLIST)
        code, out = run_cli(capsys, "lint", str(path))
        assert code == 0 and "result: CLEAN" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        from repro.spice.lint import LintReport, Severity

        path = tmp_path / "broken.cir"
        path.write_text(BROKEN_NETLIST)
        code, out = run_cli(capsys, "lint", str(path), "--format", "json")
        assert code == 1
        report = LintReport.from_json(out)
        assert not report.ok
        assert report.errors[0].severity is Severity.ERROR
        assert {f.rule_id for f in report.errors} == {"SP-FLOAT-001"}

    def test_fail_on_warn_tightens_gate(self, tmp_path, capsys):
        path = tmp_path / "warny.cir"
        # A shorted resistor: warn-level only.
        path.write_text("* warn fixture\n"
                        "v1 a 0 dc 1\nr1 a 0 1k\nrs a a 1k\n")
        code, _ = run_cli(capsys, "lint", str(path))
        assert code == 0
        code, _ = run_cli(capsys, "lint", str(path), "--fail-on", "warn")
        assert code == 1

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cir"
        path.write_text("* bad\nq1 a b c\n")
        code, out = run_cli(capsys, "lint", str(path))
        assert code == 2 and "parse error" in out

    def test_multiple_targets_worst_wins(self, tmp_path, capsys):
        clean = tmp_path / "clean.cir"
        clean.write_text(CLEAN_NETLIST)
        broken = tmp_path / "broken.cir"
        broken.write_text(BROKEN_NETLIST)
        code, out = run_cli(capsys, "lint", str(clean), str(broken))
        assert code == 1
        assert out.count("lint ") == 2

    def test_no_title_line_mode(self, tmp_path, capsys):
        path = tmp_path / "headless.cir"
        path.write_text("v1 in 0 dc 1\nr1 in 0 1k\n")
        code, out = run_cli(capsys, "lint", str(path),
                            "--no-title-line")
        assert code == 0 and "result: CLEAN" in out


class TestTraceCommand:
    def test_unknown_experiment_errors(self, capsys):
        code, out = run_cli(capsys, "trace", "nope")
        assert code == 2 and "unknown experiment" in out

    def test_text_trace_shows_tree_and_coverage(self, capsys):
        code, out = run_cli(capsys, "trace", "fig6", "--fast")
        assert code == 0
        assert "trace: fig6" in out
        # The five pipeline stages appear in the flame tree, and the
        # trailing line quantifies how much wall the leaves explain.
        for stage in ("link.tx", "link.combine", "link.afe",
                      "link.decision"):
            assert stage in out
        assert "coverage:" in out and "explained by leaf spans" in out

    def test_json_trace_round_trips_with_tight_coverage(self, capsys):
        """The acceptance path: `repro trace fig6 --fast --format json`
        emits a repro.trace/2 document whose per-stage walls sum to
        within 10% of the traced total wall."""
        from repro.obs.export import TraceReport

        code, out = run_cli(capsys, "trace", "fig6", "--fast",
                            "--format", "json")
        assert code == 0
        report = TraceReport.from_json(out)
        assert report.experiment == "fig6"
        assert report.wall_s > 0
        explained = sum(report.stage_walls.values())
        assert explained >= 0.90 * report.wall_s
        assert explained <= report.wall_s * 1.001
        # The metrics snapshot rode along (fastsim fig6 with no store
        # touches at most the link's look-ahead counter).
        from repro.obs.metrics import MetricsSnapshot

        assert isinstance(report.metrics, MetricsSnapshot)

    def test_trace_leaves_tracing_disabled(self, capsys):
        from repro.obs import trace

        run_cli(capsys, "trace", "table2", "--fast")
        assert not trace.ENABLED

    def test_text_trace_prints_histograms(self, capsys):
        code, out = run_cli(capsys, "trace", "table2", "--fast")
        assert code == 0
        section = out.split("histograms:\n", 1)[1].splitlines()
        # table2 runs two scenarios: one wall histogram with n=2 and
        # its non-empty buckets on the next line.
        assert section[0].split()[:2] == ["campaign.scenario.wall_s",
                                          "n=2"]
        assert sum(int(b.rsplit(":", 1)[1])
                   for b in section[1].split()) == 2


class TestStatsCommand:
    def _fill(self, capsys, cache_dir):
        run_cli(capsys, "run", "table2", "--fast",
                "--cache-dir", str(cache_dir))

    def test_empty_stats(self, tmp_path, capsys):
        code, out = run_cli(capsys, "stats",
                            "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        assert "0 results" in out and "0 B" in out

    def test_stats_aggregates_store(self, tmp_path, capsys):
        cache = ("--cache-dir", str(tmp_path / "cache"))
        self._fill(capsys, tmp_path / "cache")
        code, out = run_cli(capsys, "stats", *cache)
        assert code == 0
        assert "2 results" in out and "KiB" in out
        assert "repro.link.ops:ranging" in out

    def test_stats_json_round_trips(self, tmp_path, capsys):
        from repro.campaign.cli import STATS_FORMAT
        from repro.core.serialization import load_tagged

        self._fill(capsys, tmp_path / "cache")
        code, out = run_cli(capsys, "stats",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--format", "json")
        assert code == 0
        payload = load_tagged(STATS_FORMAT, out)
        assert set(payload) == {"store"}
        assert payload["store"]["results"] == 2
        assert payload["store"]["bytes"] > 0
        fn, = payload["store"]["by_fn"]
        assert fn == "repro.link.ops:ranging"
        assert payload["store"]["by_fn"][fn]["results"] == 2


class TestFormatBytes:
    def test_units_and_precision(self):
        from repro.obs.export import format_bytes

        assert format_bytes(0) == "0 B"
        assert format_bytes(512) == "512 B"
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(1024) == "1.0 KiB"
        assert format_bytes(1536) == "1.5 KiB"
        assert format_bytes(3 * 1024 ** 2) == "3.0 MiB"
        assert format_bytes(5.5 * 1024 ** 3) == "5.5 GiB"
        assert format_bytes(2 * 1024 ** 4) == "2.0 TiB"

    def test_cache_clear_and_gc_share_the_formatter(self, tmp_path,
                                                    capsys):
        run_cli(capsys, "run", "table2", "--fast",
                "--cache-dir", str(tmp_path / "classic"))
        code, out = run_cli(capsys, "cache", "clear",
                            "--cache-dir", str(tmp_path / "classic"))
        assert code == 0
        assert "removed 2 stored results (" in out
        assert "KiB)" in out
        run_cli(capsys, "run", "table2", "--fast",
                "--cache-dir", str(tmp_path / "gc"))
        code, out = run_cli(capsys, "cache", "gc", "--max-bytes", "0",
                            "--cache-dir", str(tmp_path / "gc"))
        assert code == 0
        assert "evicted 2 stored results (" in out
        assert "KiB)" in out
