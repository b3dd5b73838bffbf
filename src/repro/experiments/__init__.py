"""Experiment harnesses: one module per table/figure of the paper.

Every harness is a plain function returning a result object with a
``format_report()`` method; the ``benchmarks/`` tree wraps them in
pytest-benchmark targets, and the ``examples/`` scripts call them
directly.  The three Monte-Carlo harnesses (``run_fig6``, ``run_mui``
and ``run_noise_shaping_ablation``) accept a ``quick`` flag that trades
depth for runtime (it defaults to ``True``; pass ``quick=False`` for
paper-scale runs); fig4, fig5, table1, table2 and the AGC ablation
have none.

:data:`EXPERIMENTS` is the menu of ``python -m repro run``: it maps
each CLI name, in menu order, to its adapter (a function from an
:class:`~repro.experiments.context.ExperimentContext` to the rendered
report) and a one-line description.  Adding an experiment means adding
its row there.
"""

from repro.experiments.ablations import ablations_experiment
from repro.experiments.context import ExperimentContext, ExperimentFn
from repro.experiments.fig4_ac import fig4_experiment
from repro.experiments.fig5_transient import fig5_experiment
from repro.experiments.fig6_ber import fig6_experiment
from repro.experiments.mui_network import mui_experiment
from repro.experiments.table1_cpu import table1_experiment
from repro.experiments.table2_twr import table2_experiment
from repro.link.equivalence import DEFAULT_SPEC, PHASE1_SPEC, run_equivalence


def phase1_experiment(ctx: ExperimentContext) -> str:
    """Paper, section 3 (Phase I): the AMS-kernel BER curves "perfectly
    overlapped the Matlab ones" - the Eb/N0 grid on
    :data:`~repro.link.equivalence.PHASE1_SPEC`, compiled engine."""
    result = run_equivalence(PHASE1_SPEC, ebn0_grid=(6.0, 10.0),
                             bits=120 if ctx.full else 60,
                             engines=("compiled",), **ctx.seed_kwargs())
    return result.format_report()


def equivalence_experiment(ctx: ExperimentContext) -> str:
    """One point on :data:`~repro.link.equivalence.DEFAULT_SPEC`, both
    kernel engines against the golden model."""
    result = run_equivalence(DEFAULT_SPEC,
                             bits=400 if ctx.full else 150,
                             **ctx.seed_kwargs())
    return result.format_report()


#: the ``python -m repro run`` menu, in menu order: CLI name ->
#: (adapter, one-line description shown by ``run --list``).
EXPERIMENTS: dict[str, tuple[ExperimentFn, str]] = {
    "fig6": (fig6_experiment,
             "BER vs Eb/N0, ideal vs circuit integrator (paired "
             "Monte-Carlo)"),
    "table1": (table1_experiment,
               "CPU time of a system simulation per integrator model "
               "(+ engine speedup)"),
    "fig5": (fig5_experiment,
             "Integrate/hold/dump transient, circuit vs behavioral "
             "models, across drive levels"),
    "table2": (table2_experiment,
               "Two-way ranging at 9.9 m over CM1 LOS, ideal vs circuit "
               "integrator"),
    "ablations": (ablations_experiment,
                  "Two-stage AGC fix + noise-shaping second-pole sweep"),
    "mui": (mui_experiment,
            "BER vs Eb/N0 under 0/1/2/4 same-band interferers + "
            "near-far sweep (NetworkSpec, multi-user fastsim)"),
    "phase1": (phase1_experiment,
               "Phase-I overlap: AMS-kernel BER vs the gate-mirrored "
               "golden model"),
    "equivalence": (equivalence_experiment,
                    "Cross-backend equivalence: golden model vs kernel "
                    "(both engines) on one seeded burst"),
    "fig4": (fig4_experiment,
             "Integrator AC response: circuit netlist vs the extracted "
             "two-pole model"),
}
