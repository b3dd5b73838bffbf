"""CampaignRunner: cache hits, resume, fan-out, harness integration."""

import numpy as np
import pytest

from repro.campaign.runner import CampaignError, CampaignReport, CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.scenario import Scenario
from repro.uwb.modulation import random_bits


def build_runner(store, processes=None, ns=(4, 8, 16)):
    runner = CampaignRunner(processes=processes, store=store)
    for n in ns:
        runner.add(Scenario(name=f"bits{n}", fn=random_bits, seed=5,
                            rng_param="rng", params={"n": n}))
    return runner


class TestCaching:
    def test_second_run_executes_zero(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        first = build_runner(store).run()
        assert (first.executed, first.cached) == (3, 0)
        second = build_runner(store).run()
        assert (second.executed, second.cached) == (0, 3)
        assert store.misses == 3 and store.hits == 3
        for a, b in zip(first.results, second.results):
            assert np.array_equal(a.value, b.value)
            assert b.cached and not a.cached

    def test_interrupted_campaign_resumes(self, tmp_path):
        """Only the missing scenarios execute after an 'interrupt'
        (simulated by a first run over a prefix of the campaign)."""
        store = ResultStore(tmp_path, salt="s")
        build_runner(store, ns=(4,)).run()          # checkpointed part
        resumed = build_runner(store).run()          # full campaign
        assert (resumed.executed, resumed.cached) == (2, 1)
        # values equal a fresh uncached run of the full campaign
        fresh = build_runner(None).run()
        for a, b in zip(resumed.results, fresh.results):
            assert np.array_equal(a.value, b.value)

    def test_scenario_wall_observed_per_completed_scenario(self, tmp_path):
        """``campaign.scenario.wall_s`` gets one sample per completed
        scenario, cache hits (with their original wall time) included."""
        from repro.obs.metrics import REGISTRY

        hist = REGISTRY.histogram("campaign.scenario.wall_s")
        store = ResultStore(tmp_path, salt="s")
        count, total = hist.count, hist.total
        first = build_runner(store).run()
        assert hist.count == count + 3
        build_runner(store).run()
        assert hist.count == count + 6
        assert hist.total - total == pytest.approx(
            2 * sum(r.wall_time for r in first.results))

    def test_no_store_passthrough(self):
        """Without a store the runner is a plain serial runner: every
        scenario executes, in submission order, including unpicklable
        ones and an empty batch."""
        report = build_runner(None).run()
        assert isinstance(report, CampaignReport)
        assert (report.executed, report.cached) == (3, 0)
        for n, r in zip((4, 8, 16), report.results):
            assert r.name == f"bits{n}" and not r.cached
            assert np.array_equal(
                r.value, random_bits(n, rng=np.random.default_rng(5)))
        lambdas = CampaignRunner(
            Scenario(name=f"n{i}", fn=lambda i=i: i) for i in range(5))
        assert lambdas.run().values() == [0, 1, 2, 3, 4]
        empty = CampaignRunner().run()
        assert (empty.values(), empty.executed, empty.cached) == ([], 0, 0)

    def test_report_interface_preserved(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        report = build_runner(store).run()
        assert len(report.results) == 3
        assert set(report.by_name()) == {"bits4", "bits8", "bits16"}
        assert not any(r.cached for r in report.results)
        report2 = build_runner(store).run()
        assert all(r.cached for r in report2.results)
        assert (report2.executed, report2.cached) == (0, 3)

    def test_uncacheable_scenarios_always_execute(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        def build():
            r = CampaignRunner(store=store)
            r.add(Scenario(name="u", fn=random_bits, rng_param="rng",
                           params={"n": 4}))
            return r
        assert build().run().executed == 1
        assert build().run().executed == 1
        assert store.entries() == []


def _flaky(n, fail):
    if fail:
        raise RuntimeError("boom")
    return n * 2


class TestFailureCheckpointing:
    def build(self, store, fail_first, processes=None):
        runner = CampaignRunner(processes=processes, store=store)
        runner.add(Scenario(name="bad", fn=_flaky,
                            params={"n": 1, "fail": fail_first}))
        runner.add(Scenario(name="good", fn=_flaky,
                            params={"n": 2, "fail": False}))
        return runner

    @pytest.mark.parametrize("processes", [None, 2])
    def test_sibling_results_survive_a_failure(self, tmp_path, processes):
        """One failing scenario must not discard completed siblings'
        checkpoints (the 'loses at most the run in flight' contract).
        Serial execution fails fast, so only earlier scenarios are
        checkpointed; the pool drains every completed future."""
        store = ResultStore(tmp_path, salt="s")
        with pytest.raises(CampaignError, match="boom"):
            self.build(store, fail_first=True, processes=processes).run()
        resumed = self.build(store, fail_first=False,
                             processes=processes).run()
        if processes:
            # the pool finished 'good' before the failure surfaced
            assert resumed.cached == 1 and resumed.executed == 1
        assert resumed.by_name() == {"bad": 2, "good": 4}

    @pytest.mark.parametrize("processes", [None, 2])
    def test_error_names_scenario_and_checkpoints(self, tmp_path,
                                                  processes):
        """CampaignError carries context: which scenario failed, the
        original exception as __cause__, and how many sibling results
        were still checkpointed."""
        store = ResultStore(tmp_path, salt="s")
        with pytest.raises(CampaignError) as info:
            self.build(store, fail_first=True, processes=processes).run()
        exc = info.value
        assert [name for name, _ in exc.failures] == ["bad"]
        assert isinstance(exc.failures[0][1], RuntimeError)
        assert isinstance(exc.__cause__, RuntimeError)
        assert "bad" in str(exc) and "checkpointed" in str(exc)
        if processes:
            # the pool drained 'good' before raising
            assert exc.checkpointed == 1
        # the message count matches what is really in the store
        assert len(store.entries()) == exc.checkpointed

    @pytest.mark.parametrize("processes", [None, 2])
    def test_no_store_raises_the_scenario_error(self, processes):
        """Without a store nothing is checkpointed, so the scenario's
        own exception propagates unwrapped - the contract every
        harness relies on."""
        with pytest.raises(RuntimeError, match="boom") as info:
            self.build(None, fail_first=True, processes=processes).run()
        assert type(info.value) is RuntimeError
        assert not isinstance(info.value, CampaignError)

    def test_plain_runtime_error_still_catchable(self, tmp_path):
        """CampaignError subclasses RuntimeError, so pre-existing
        harness code catching RuntimeError keeps working."""
        store = ResultStore(tmp_path, salt="s")
        with pytest.raises(RuntimeError, match="boom"):
            self.build(store, fail_first=True).run()


class TestParallel:
    def test_parallel_campaign_caches(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        first = build_runner(store, processes=2).run()
        assert first.executed == 3
        second = build_runner(store, processes=2).run()
        assert (second.executed, second.cached) == (0, 3)
        for a, b in zip(first.results, second.results):
            assert np.array_equal(a.value, b.value)

    def test_parallel_matches_serial_order_and_values(self, tmp_path):
        serial = build_runner(
            ResultStore(tmp_path / "a", salt="s")).run()
        parallel = build_runner(
            ResultStore(tmp_path / "b", salt="s"), processes=2).run()
        assert ([r.name for r in serial.results]
                == [r.name for r in parallel.results])
        for a, b in zip(serial.results, parallel.results):
            assert np.array_equal(a.value, b.value)


class TestHarnessIntegration:
    def test_fig6_campaign_cache_hits_and_artifact(self, tmp_path):
        from repro.experiments.fig6_ber import run_fig6
        from repro.uwb.fastsim import AdaptiveStopping

        store = ResultStore(tmp_path, salt="s")
        grid = (4.0, 10.0)
        kwargs = dict(ebn0_grid=grid, quick=True, store=store,
                      adaptive=AdaptiveStopping(ber_floor=1e-3))
        # The batched default runs the whole figure as one sweep
        # scenario (both curves share the seed, hence the front end).
        first = run_fig6(**kwargs)
        assert store.misses == 1 and store.hits == 0
        second = run_fig6(**kwargs)
        assert store.misses == 1 and store.hits == 1  # 0 new executions
        assert np.array_equal(first.comparison.ber_a,
                              second.comparison.ber_a)
        assert np.array_equal(first.comparison.ber_b,
                              second.comparison.ber_b)
        # adaptive artifact: error counts + Wilson bounds survive the
        # store round trip
        for curve in second.curves.values():
            assert curve.ci_low is not None and curve.ci_high is not None
            assert np.all(curve.ci_low <= curve.ber + 1e-12)
            assert np.all(curve.ber <= curve.ci_high + 1e-12)
            assert np.all(curve.errors >= 0)

    def test_table2_campaign_matches_uncached(self, tmp_path):
        from repro.experiments.table2_twr import run_table2

        store = ResultStore(tmp_path, salt="s")
        cached = run_table2(iterations=3, store=store)
        replay = run_table2(iterations=3, store=store)
        plain = run_table2(iterations=3)
        for label in ("ideal", "circuit"):
            assert np.array_equal(
                cached.comparison.entries[label].distances,
                plain.comparison.entries[label].distances)
            assert np.array_equal(
                replay.comparison.entries[label].distances,
                plain.comparison.entries[label].distances)
