"""Experiment harnesses: one module per table/figure of the paper.

Every harness is a plain function returning a result object with a
``format_report()`` method; the ``benchmarks/`` tree wraps them in
pytest-benchmark targets, and the ``examples/`` scripts call them
directly.  Each accepts a ``quick`` flag that trades Monte-Carlo depth
for runtime (benchmarks default to quick settings; pass ``quick=False``
for paper-scale runs).

Each module additionally registers a CLI adapter with the
:func:`repro.experiments.registry.experiment` decorator, so
``python -m repro run <name>`` / ``--list`` discover experiments here
instead of hard-coding them - importing this package *is* the
discovery step.
"""

from repro.experiments.registry import (
    Experiment,
    ExperimentContext,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
)
from repro.experiments.fig4_ac import Fig4Result, run_fig4
from repro.experiments.fig5_transient import (
    Fig5Result,
    run_fig5,
    run_fig5_drive_sweep,
)
from repro.experiments.fig6_ber import Fig6Result, run_fig6
from repro.experiments.mui_network import (
    MuiResult,
    default_victim,
    interference_network,
    near_far_network,
    run_mui,
)
from repro.experiments.table1_cpu import Table1Result, run_table1
from repro.experiments.table2_twr import Table2Result, run_table2
# registers the ``phase1`` and ``equivalence`` adapters
from repro.experiments import phase1_overlap  # noqa: F401
from repro.experiments.ablations import (
    AgcAblationResult,
    NoiseShapingResult,
    run_agc_ablation,
    run_noise_shaping_ablation,
)

__all__ = [
    "AgcAblationResult",
    "Experiment",
    "ExperimentContext",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "MuiResult",
    "NoiseShapingResult",
    "Table1Result",
    "Table2Result",
    "all_experiments",
    "default_victim",
    "experiment",
    "experiment_names",
    "get_experiment",
    "interference_network",
    "near_far_network",
    "run_agc_ablation",
    "run_fig4",
    "run_fig5",
    "run_fig5_drive_sweep",
    "run_fig6",
    "run_mui",
    "run_noise_shaping_ablation",
    "run_table1",
    "run_table2",
]
