"""The experiment table: menu order, descriptions, adapters, context."""

from repro.campaign.cli import _known_experiments
from repro.experiments import EXPERIMENTS
from repro.experiments.context import ExperimentContext
from repro.experiments.fig6_ber import fig6_experiment


class TestRegistration:
    def test_canonical_experiments_registered(self):
        for name in ("fig6", "table1", "fig5", "table2", "ablations"):
            assert name in EXPERIMENTS
        # the redesign's additions ride along
        assert "equivalence" in EXPERIMENTS and "phase1" in EXPERIMENTS

    def test_menu_order(self):
        assert list(EXPERIMENTS) == [
            "fig6", "table1", "fig5", "table2", "ablations", "mui",
            "phase1", "equivalence", "fig4"]

    def test_every_experiment_has_description(self):
        for name, (fn, description) in EXPERIMENTS.items():
            assert callable(fn) and description, name

    def test_get_experiment(self):
        fn, description = EXPERIMENTS["fig6"]
        assert fn is fig6_experiment
        assert description.startswith("BER vs Eb/N0")

    def test_unknown_name_lists_registered(self, capsys):
        assert _known_experiments(["fig6", "fig7"]) is None
        out = capsys.readouterr().out
        assert "unknown experiment(s): fig7" in out
        assert f"(choose from {', '.join(EXPERIMENTS)})" in out
        assert _known_experiments(["fig6"]) is EXPERIMENTS


class TestContext:
    def test_seed_kwargs(self):
        assert ExperimentContext().seed_kwargs() == {}
        assert ExperimentContext(seed=9).seed_kwargs() == {"seed": 9}

    def test_defaults(self):
        ctx = ExperimentContext()
        assert not ctx.full
        assert ctx.processes is None and ctx.store is None


class TestAdaptersEndToEnd:
    def test_fig4_adapter_renders_report(self):
        report = EXPERIMENTS["fig4"][0](ExperimentContext())
        assert "DC gain" in report

    def test_equivalence_adapter_renders_report(self):
        report = EXPERIMENTS["equivalence"][0](ExperimentContext(seed=5))
        assert "bit-identical" in report

    def test_phase1_adapter_renders_report(self):
        report = EXPERIMENTS["phase1"][0](ExperimentContext())
        assert "119/120" in report
        assert report.count("all backends agree:    True") == 1
