"""Scenario: seeding and execution (fan-out is tested through
``CampaignRunner`` in tests/campaign/test_runner.py)."""

from repro.core.scenario import Scenario, _execute


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

    def test_unseeded_scenario_still_injects_rng_and_seed(self):
        """seed=None means unseeded, not 'skip the injection': the fn
        still receives a working generator."""
        sc = Scenario(name="u", fn=lambda rng: rng.integers(10),
                      rng_param="rng")
        assert 0 <= sc.run() < 10

    def test_execute_reports_wall_time(self):
        res = _execute(Scenario(name="x", fn=lambda: 1))
        assert res.value == 1 and res.wall_time >= 0.0
        assert res.name == "x"

