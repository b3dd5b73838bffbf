"""Record the BER reference counts the benchmark checks against.

For each BER workload, runs one operation per reference seed and pools
the ``(errors, bits)`` counters of every (integrator or scenario,
Eb/N0) cell into ``reference.json``.  Re-record only when a change is
meant to move the BER statistics, and say so where the change is
described.  Run from the repository root::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

#: seeds pooled into the reference; none of them is the held-out seed
#: (README.md) or a seed the benchmark runs by default.
REFERENCE_SEEDS = tuple(range(900, 916))


def record(name: str) -> dict:
    pooled: dict[str, list[int]] = {}
    for seed in REFERENCE_SEEDS:
        result = workloads.make(name, seed).op()
        if result.problems:
            raise SystemExit(f"{name} seed {seed}: {result.problems}")
        for cell, (errors, bits) in result.cells.items():
            total = pooled.setdefault(cell, [0, 0])
            total[0] += errors
            total[1] += bits
    return {"seeds": list(REFERENCE_SEEDS), "cells": pooled}


def dumps(reference: dict) -> str:
    """JSON with one cell per line."""
    blocks = []
    for name, entry in sorted(reference.items()):
        cells = ",\n".join(f"   {json.dumps(cell)}: {json.dumps(counts)}"
                           for cell, counts in sorted(
                               entry["cells"].items()))
        blocks.append(f' {json.dumps(name)}: {{\n'
                      f'  "seeds": {json.dumps(entry["seeds"])},\n'
                      f'  "cells": {{\n{cells}\n  }}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    reference = {name: record(name)
                 for name, cls in workloads.WORKLOADS.items()
                 if cls.checks_reference}
    workloads.REFERENCE_PATH.write_text(dumps(reference))
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
