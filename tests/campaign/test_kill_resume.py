"""A ``repro run`` campaign killed mid-way resumes by running it again.

The campaign runs in a subprocess whose third scenario SIGKILLs its own
process - no signal handler, no cleanup, no timer.  Every scenario that
completed before the kill is already checkpointed, so a re-run executes
only the rest, and its values equal a fresh uncached run.
"""

import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.scenario import Scenario

#: index of the scenario that kills its process; only the subprocess
#: sets it, so the re-run in the test process completes normally.
_KILL_AT = None


def _draw(index, rng):
    if index == _KILL_AT:
        os.kill(os.getpid(), signal.SIGKILL)
    return rng.standard_normal(8)


def build_campaign(store):
    """Four seeded scenarios, run serially."""
    runner = CampaignRunner(store=store)
    for i in range(4):
        runner.add(Scenario(name=f"draw{i}", fn=_draw, params={"index": i},
                            seed=100 + i, rng_param="rng"))
    return runner


_CHILD = """
import sys
import {module} as t
from repro.campaign.store import ResultStore
t._KILL_AT = 2
t.build_campaign(ResultStore(sys.argv[1], salt="s")).run()
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="needs POSIX SIGKILL")
def test_killed_campaign_resumes_with_the_remaining_scenarios(tmp_path):
    # The child imports this module under the name pytest gave it.
    here = pathlib.Path(__file__).resolve()
    import_root = here.parents[__name__.count(".")]
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), str(import_root)]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(module=__name__),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    store = ResultStore(tmp_path, salt="s")
    assert len(store.entries()) == 2

    resumed = build_campaign(store).run()
    assert (resumed.executed, resumed.cached) == (2, 2)
    assert [r.cached for r in resumed.results] == [True, True, False, False]
    fresh = build_campaign(None).run()
    for a, b in zip(resumed.results, fresh.results):
        assert np.array_equal(a.value, b.value)
