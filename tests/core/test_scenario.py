"""Scenario / SweepRunner: seeding and fan-out."""

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
