"""Scenario / SweepRunner: seeding, sweeps, fan-out."""

import numpy as np
import pytest

from repro.core.scenario import (
    Scenario,
    SweepReport,
    SweepRunner,
    _execute,
)
from repro.uwb.modulation import random_bits


class TestScenario:
    def test_plain_call(self):
        sc = Scenario(name="add", fn=lambda a, b: a + b,
                      params={"a": 2, "b": 3})
        assert sc.run() == 5

    def test_rng_param_seeding_reproducible(self):
        sc = Scenario(name="draw", fn=lambda rng: rng.integers(1 << 30),
                      seed=99, rng_param="rng")
        assert sc.run() == sc.run()
        other = Scenario(name="draw2", fn=lambda rng: rng.integers(1 << 30),
                         seed=100, rng_param="rng")
        assert sc.run() != other.run()

    def test_seed_param_passthrough(self):
        sc = Scenario(name="s", fn=lambda seed: seed, seed=42,
                      seed_param="seed")
        assert sc.run() == 42

    def test_seed_param_from_seed_sequence(self):
        ss = np.random.SeedSequence(7).spawn(1)[0]
        sc = Scenario(name="s", fn=lambda seed: seed, seed=ss,
                      seed_param="seed")
        assert isinstance(sc.run(), int)

    def test_unseeded_scenario_still_injects_rng_and_seed(self):
        """seed=None means unseeded, not 'skip the injection': the fn
        still receives a working generator / integer seed."""
        sc = Scenario(name="u", fn=lambda rng: rng.integers(10),
                      rng_param="rng")
        assert 0 <= sc.run() < 10
        sc2 = Scenario(name="u2", fn=lambda seed: seed,
                       seed_param="seed")
        assert isinstance(sc2.run(), int)

    def test_execute_reports_wall_time(self):
        res = _execute(Scenario(name="x", fn=lambda: 1))
        assert res.value == 1 and res.wall_time >= 0.0
        assert res.name == "x"


class TestSweepRunner:
    def test_serial_run_preserves_order(self):
        runner = SweepRunner(
            Scenario(name=f"n{i}", fn=lambda i=i: i) for i in range(5))
        report = runner.run()
        assert report.values() == [0, 1, 2, 3, 4]
        assert report["n3"] == 3
        assert len(report) == 5

    def test_empty_runner(self):
        assert SweepRunner().run().values() == []

    def test_unknown_name_raises(self):
        report = SweepReport(results=[])
        with pytest.raises(KeyError):
            report["nope"]

    def test_sweep_cartesian_product(self):
        runner = SweepRunner.sweep(
            "grid", lambda a, b, c: (a, b, c),
            axes={"a": [1, 2], "b": ["x", "y"]}, base={"c": 0})
        report = runner.run()
        assert report.values() == [(1, "x", 0), (1, "y", 0),
                                   (2, "x", 0), (2, "y", 0)]
        assert report["grid[a=2,b=x]"] == (2, "x", 0)

    def test_sweep_duplicate_labels_stay_unique(self):
        """Axis values sharing a display label (e.g. model instances of
        one class) must not collapse in by_name()."""
        from repro.uwb.integrator import TwoPoleIntegrator

        runner = SweepRunner.sweep(
            "fp2", lambda integrator: integrator.fp2_hz,
            axes={"integrator": [TwoPoleIntegrator(fp2_hz=1e9),
                                 TwoPoleIntegrator(fp2_hz=3e9)]})
        report = runner.run()
        assert len(report.by_name()) == 2
        assert sorted(report.by_name()) == [
            "fp2[integrator=two_pole]", "fp2[integrator=two_pole]#2"]
        assert sorted(report.by_name().values()) == [1e9, 3e9]

    def test_sweep_seeds_deterministic_and_distinct(self):
        def draw(arm, rng):
            return int(rng.integers(1 << 30))

        def build():
            return SweepRunner.sweep(
                "seeded", draw, axes={"arm": [0, 1, 2]},
                base_seed=11, rng_param="rng")

        first = build().run().values()
        second = build().run().values()
        assert first == second
        assert len(set(first)) == 3  # per-run streams differ

    def test_parallel_matches_serial(self):
        """Process fan-out returns the same results as serial execution
        (picklable top-level fn + params)."""
        def build(processes):
            runner = SweepRunner(processes=processes)
            for n in (8, 16):
                runner.add(Scenario(
                    name=f"bits{n}", fn=random_bits, seed=5,
                    rng_param="rng", params={"n": n}))
            return runner

        serial = build(None).run()
        parallel = build(2).run()
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.value, p.value)

    def test_total_wall_time_and_table(self):
        report = SweepRunner(
            [Scenario(name="a", fn=lambda: 1)]).run()
        assert report.total_wall_time >= 0.0
        assert "a" in report.format_table()


class TestSweepReportJson:
    def build_report(self):
        runner = SweepRunner()
        for n in (4, 8):
            runner.add(Scenario(name=f"bits{n}", fn=random_bits, seed=5,
                                rng_param="rng", params={"n": n}))
        return runner.run()

    def test_round_trip(self):
        report = self.build_report()
        back = SweepReport.from_json(report.to_json())
        assert len(back) == len(report)
        for a, b in zip(report, back):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)
            assert a.wall_time == b.wall_time
            assert b.scenario.fn is random_bits
            assert b.scenario.params == {"n": a.params["n"]}

    def test_round_trip_preserves_seeds(self):
        runner = SweepRunner.sweep(
            "g", random_bits, axes={"n": [4, 8]}, base_seed=3,
            rng_param="rng")
        report = runner.run()
        back = SweepReport.from_json(report.to_json())
        # decoded scenarios re-run to identical draws
        for orig, dec in zip(report, back):
            assert np.array_equal(dec.scenario.run(), orig.value)

    def test_json_is_plain_text(self):
        import json

        payload = json.loads(self.build_report().to_json(indent=2))
        assert payload["format"] == SweepReport.JSON_FORMAT
        assert len(payload["results"]) == 2

    def test_format_version_checked(self):
        with pytest.raises(ValueError):
            SweepReport.from_json('{"format": "bogus", "results": []}')

    def test_lambda_report_rejected(self):
        from repro.core.serialization import UnserializableError

        report = SweepRunner([Scenario(name="l", fn=lambda: 1)]).run()
        with pytest.raises(UnserializableError):
            report.to_json()

    def test_cached_flag_round_trips(self):
        report = self.build_report()
        report.results[0].cached = True
        back = SweepReport.from_json(report.to_json())
        assert back.results[0].cached is True
        assert back.results[1].cached is False
