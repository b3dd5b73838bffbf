"""The @experiment registry: declaration, discovery, CLI contract."""

import pytest

from repro.experiments.registry import (
    Experiment,
    ExperimentContext,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
)
from repro.experiments import registry as registry_module


class TestRegistration:
    def test_canonical_experiments_registered(self):
        names = experiment_names()
        for name in ("fig6", "table1", "fig5", "table2", "ablations"):
            assert name in names
        # the redesign's additions ride along
        assert "equivalence" in names and "phase1" in names

    def test_menu_order(self):
        names = experiment_names()
        head = [n for n in names
                if n in ("fig6", "table1", "fig5", "table2",
                         "ablations")]
        assert head == ["fig6", "table1", "fig5", "table2", "ablations"]

    def test_every_experiment_has_description(self):
        for exp in all_experiments():
            assert exp.description, exp.name

    def test_get_experiment(self):
        exp = get_experiment("fig6")
        assert isinstance(exp, Experiment) and exp.name == "fig6"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="fig6"):
            get_experiment("fig7")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already"):
            experiment("fig6")(lambda ctx: "")

    def test_decorator_registers_and_returns_fn(self):
        calls = []

        def adapter(ctx):
            calls.append(ctx)
            return "ok"

        name = "pytest-scratch-experiment"
        try:
            returned = experiment(name, description="scratch",
                                  order=999)(adapter)
            assert returned is adapter
            exp = get_experiment(name)
            assert exp.run(ExperimentContext()) == "ok"
            assert len(calls) == 1
        finally:
            registry_module._EXPERIMENTS.pop(name, None)


class TestContext:
    def test_seed_kwargs(self):
        assert ExperimentContext().seed_kwargs() == {}
        assert ExperimentContext(seed=9).seed_kwargs() == {"seed": 9}
        assert ExperimentContext(seed=9).seed_kwargs("base_seed") == \
            {"base_seed": 9}

    def test_defaults(self):
        ctx = ExperimentContext()
        assert not ctx.full
        assert ctx.processes is None and ctx.store is None


class TestAdaptersEndToEnd:
    def test_fig4_adapter_renders_report(self):
        report = get_experiment("fig4").run(ExperimentContext())
        assert "DC gain" in report

    def test_equivalence_adapter_renders_report(self):
        report = get_experiment("equivalence").run(
            ExperimentContext(seed=5))
        assert "bit-identical" in report

    def test_phase1_adapter_renders_report(self):
        report = get_experiment("phase1").run(ExperimentContext())
        assert "119/120" in report
        assert report.count("all backends agree:    True") == 1
