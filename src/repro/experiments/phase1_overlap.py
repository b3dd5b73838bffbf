"""Phase-I validation: AMS-kernel BER overlaps the golden model.

Paper, section 3 (Phase I): "we obtained BER curves which perfectly
overlapped the Matlab ones."  Both experiments here are adapters on
:func:`~repro.link.equivalence.run_equivalence`: ``phase1`` runs its
Eb/N0 grid on :data:`~repro.link.equivalence.PHASE1_SPEC` with the
compiled engine, ``equivalence`` runs one point on
:data:`~repro.link.equivalence.DEFAULT_SPEC` with both engines.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentContext, experiment
from repro.link import run_equivalence
from repro.link.equivalence import DEFAULT_SPEC, PHASE1_SPEC


@experiment("phase1", order=60,
            description="Phase-I overlap: AMS-kernel BER vs the "
                        "gate-mirrored golden model")
def phase1_experiment(ctx: ExperimentContext) -> str:
    result = run_equivalence(PHASE1_SPEC, ebn0_grid=(6.0, 10.0),
                             bits=120 if ctx.full else 60,
                             engines=("compiled",), **ctx.seed_kwargs())
    return result.format_report()


@experiment("equivalence", order=70,
            description="Cross-backend equivalence: golden model vs kernel "
                        "(both engines) on one seeded burst")
def equivalence_experiment(ctx: ExperimentContext) -> str:
    result = run_equivalence(DEFAULT_SPEC,
                             bits=400 if ctx.full else 150,
                             **ctx.seed_kwargs())
    return result.format_report()
