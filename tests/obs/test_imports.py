"""Import-order safety of the observability package.

The instrumented AMS engines import ``repro.obs`` at module scope, so
``repro.obs.__init__`` must not eagerly pull the export layer:
``repro.obs.export`` -> ``repro.core.serialization`` -> the
``repro.core`` package __init__ -> ``repro.uwb.integrator``, which is
a cycle when ``repro.uwb`` is the very first import of the process.
The export symbols load lazily on first attribute access instead.
"""

import os
import pathlib
import subprocess
import sys


def _run(code: str) -> str:
    repo = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_uwb_first_import_does_not_cycle():
    out = _run("import repro.uwb\n"
               "from repro.obs import format_bytes\n"
               "print(format_bytes(1536))\n")
    assert out.strip() == "1.5 KiB"


def test_obs_first_import_still_exports_everything():
    out = _run("from repro.obs import (TraceReport, export,\n"
               "                       format_bytes, render_trace)\n"
               "import repro.obs\n"
               "print(format_bytes(2048), export.TRACE_FORMAT)\n")
    assert out.strip() == "2.0 KiB repro.trace/2"


def test_unknown_attribute_raises_attribute_error():
    out = _run("import repro.obs\n"
               "try:\n"
               "    repro.obs.nonsense\n"
               "except AttributeError:\n"
               "    print('ok')\n")
    assert out.strip() == "ok"
