"""The ``mui`` experiment harness: grid, report, caching, CLI table."""

import numpy as np
import pytest

from repro.campaign.store import ResultStore
from repro.experiments import EXPERIMENTS
from repro.experiments.mui_network import (
    default_victim,
    interference_network,
    mui_experiment,
    near_far_network,
    run_mui,
)
from repro.link.spec import LinkSpec, NetworkSpec
from repro.uwb.channel.ieee802154a import path_loss_db
from repro.uwb.config import TEST_CONFIG

#: a light victim for harness tests (TEST_CONFIG rates, pulse-derived
#: band - the fig6 wide band does not fit TEST_CONFIG's Nyquist).
VICTIM = LinkSpec(config=TEST_CONFIG)

FAST = dict(victim=VICTIM, ebn0_grid=(8.0, 14.0), counts=(0, 1, 2),
            sir_grid=(0.0,), near_far_distances=(3.0, 9.9),
            near_far_ebn0=12.0, seed=5,
            budget=dict(target_errors=40, max_bits=4_000,
                        min_bits=2_000))


class TestNetworkBuilders:
    def test_interference_network_grid(self):
        net = interference_network(VICTIM, 3, sir_db=6.0)
        assert isinstance(net, NetworkSpec)
        assert net.n_interferers == 3
        assert all(i.rel_power_db == -6.0 for i in net.interferers)
        offsets = [i.timing_offset for i in net.interferers]
        assert len(set(offsets)) == 3
        assert all(0 < off < VICTIM.config.slot for off in offsets)

    def test_near_far_power_mapping(self):
        """Near-far maps distances onto rel_power_db through the TG4a
        path-loss law."""
        net = near_far_network(VICTIM, 3.0)
        (aggressor,) = net.interferers
        expected = path_loss_db(VICTIM.channel.distance) \
            - path_loss_db(3.0)
        assert aggressor.rel_power_db == pytest.approx(expected)
        assert expected > 0  # closer than the victim's 9.9m -> hotter
        even = near_far_network(VICTIM, VICTIM.channel.distance)
        assert even.interferers[0].rel_power_db == pytest.approx(0.0)

    def test_default_victim_follows_fig6_conventions(self):
        victim = default_victim()
        assert victim.integrator == "ideal"
        assert victim.frontend.band is not None


class TestRunMui:
    def test_result_shape_and_claims(self):
        result = run_mui(**FAST)
        assert set(result.curves) == {"n0", "n1-sir0", "n2-sir0"}
        assert set(result.near_far) == {3.0, 9.9}
        sweep = result.count_sweep(0.0)
        assert [n for n, _ in sweep] == [0, 1, 2]
        assert result.monotone_in_interferers
        assert result.near_far_monotone

    def test_report_mentions_every_scenario(self):
        result = run_mui(**FAST)
        report = result.format_report()
        for token in ("n0", "n1-sir0", "n2-sir0", "SIR 0 dB",
                      "near-far", "d=  3.0 m", "path_loss_db"):
            assert token in report

    def test_campaign_cached_and_resumable(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_mui(store=store, **FAST)
        assert store.misses > 0 and store.hits == 0
        store.hits = store.misses = 0
        second = run_mui(store=store, **FAST)
        assert store.misses == 0 and store.hits > 0
        for name in first.curves:
            assert np.array_equal(first.curves[name].errors,
                                  second.curves[name].errors)
            assert np.array_equal(first.curves[name].bits,
                                  second.curves[name].bits)

    def test_registered_in_cli_registry(self):
        fn, description = EXPERIMENTS["mui"]
        assert fn is mui_experiment
        assert "interferer" in description
