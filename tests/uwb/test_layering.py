"""Import layering of the ``repro`` package.

``repro.uwb`` is the substrate under ``repro.link``: it never imports
it (not even lazily inside a function).  The module-level import graph
of ``src/repro`` has no cycle, and every name is imported from the
module that defines it, never through a package that re-exports it.
Setting a simulation up loads no SciPy module: ``src/`` imports SciPy
only inside the functions that need it.  Every public name ``src/``
defines is reached from the program, not only from its tests."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
UWB_MODULES = sorted((SRC / "repro" / "uwb").rglob("*.py"))


def imported_modules(source: str, package: tuple[str, ...]) -> set[str]:
    """Absolute names of every module (and ``from`` target) *source*
    imports anywhere, relative imports resolved against *package*."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def link_imports(source: str, package: tuple[str, ...]) -> list[str]:
    return sorted(name for name in imported_modules(source, package)
                  if name == "repro.link" or name.startswith("repro.link."))


@pytest.mark.parametrize("path", UWB_MODULES,
                         ids=[p.relative_to(SRC).as_posix()
                              for p in UWB_MODULES])
def test_uwb_does_not_import_link(path):
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    offending = link_imports(path.read_text(), package)
    assert not offending, f"{path.name} imports {offending}"


@pytest.mark.parametrize("source", [
    "import repro.link.ops\n",
    "from repro import link\n",
    "def f():\n    from repro.link.registry import COSIM\n",
    "from ..link import ops\n",
])
def test_every_import_form_is_caught(source):
    assert link_imports(source, ("repro", "uwb"))


#: what the exact BER oracle must not import: the Monte-Carlo loop it
#: judges (the link pipeline and the golden model's bookkeeping).
MONTE_CARLO = ("repro.link", "repro.uwb.fastsim")
THEORY = SRC / "repro" / "uwb" / "theory.py"


def monte_carlo_imports(source: str, package: tuple[str, ...]) -> list[str]:
    return sorted(name for name in imported_modules(source, package)
                  if any(name == root or name.startswith(root + ".")
                         for root in MONTE_CARLO))


def test_oracle_shares_no_code_with_the_monte_carlo_loop():
    offending = monte_carlo_imports(THEORY.read_text(), ("repro", "uwb"))
    assert not offending, f"theory.py imports {offending}"


@pytest.mark.parametrize("source", [
    "from repro.uwb.fastsim import wilson_interval\n",
    "import repro.uwb.fastsim\n",
    "from . import fastsim\n",
    "from .fastsim import AdaptiveStopping\n",
    "def f():\n    from repro.link.pipeline import DecisionStage\n",
    "from ..link import backends\n",
])
def test_every_monte_carlo_import_form_is_caught(source):
    assert monte_carlo_imports(source, ("repro", "uwb"))


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: every module of ``src/repro`` -> its file.
MODULES = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _package_of(module: str) -> tuple[str, ...]:
    """The package relative imports in *module* resolve against."""
    parts = tuple(module.split("."))
    return parts if MODULES[module].name == "__init__.py" else parts[:-1]


def module_level_imports(source: str) -> str:
    """The import statements of *source* that run when the module is
    imported: everything outside function bodies (class bodies run)."""
    kept = []

    def visit(body):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept.append(node)
            elif not isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return ast.unparse(ast.Module(body=kept, type_ignores=[]))


def import_edges(module: str) -> set[str]:
    """The ``repro`` modules that importing *module* executes first.

    Importing ``a.b.c`` runs the ``a`` and ``a.b`` package
    ``__init__`` files too, so each prefix counts - except the
    packages that hold *module*, which are already importing."""
    names = imported_modules(module_level_imports(MODULES[module]
                                                  .read_text()),
                             _package_of(module))
    ancestors = {".".join(module.split(".")[:i])
                 for i in range(1, module.count(".") + 1)}
    edges = set()
    for name in names:
        parts = name.split(".")
        edges.update(prefix for prefix in (".".join(parts[:i]) for i in
                                           range(1, len(parts) + 1))
                     if prefix in MODULES)
    return edges - ancestors - {module}


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of *graph* as a closed path, or ``[]``."""
    state: dict[str, int] = {}  # 1: on the DFS path, 2: finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt)):
                return cycle
        path.pop()
        state[node] = 2
        return []

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return []


def test_module_level_import_graph_is_acyclic():
    graph = {module: import_edges(module) for module in MODULES}
    assert find_cycle(graph) == []


def test_a_package_init_edge_closes_a_cycle():
    # a.x -> b.y runs b's __init__, which imports a.z: a -> ... -> a.
    graph = {"a.x": {"b", "b.y"}, "b": {"a", "a.z"}, "a": set(),
             "a.z": {"a.x"}, "b.y": set()}
    assert find_cycle(graph) == ["a.x", "b", "a.z", "a.x"]
    assert find_cycle({"a": {"b"}, "b": set()}) == []


def package_defines(package: str) -> set[str]:
    """Names *package*'s ``__init__`` binds itself (not by import)."""
    names = set()
    for node in ast.parse(MODULES[package].read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


PACKAGES = {name: package_defines(name) for name, path in MODULES.items()
            if path.name == "__init__.py"}


def reexport_imports(source: str, package: tuple[str, ...]) -> list[str]:
    """``pkg.name`` for every name *source* imports through a package
    that neither defines it nor holds it as a submodule."""
    offending = []
    for name in imported_modules(source, package):
        parent, _, attr = name.rpartition(".")
        if (parent in PACKAGES and name not in MODULES
                and attr not in PACKAGES[parent]):
            offending.append(name)
    return sorted(offending)


PY_FILES = sorted(p for top in ("src", "tests", "examples", "benchmarks")
                  for p in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", PY_FILES,
                         ids=[p.relative_to(ROOT).as_posix()
                              for p in PY_FILES])
def test_names_come_from_their_defining_module(path):
    package = (_package_of(_module_name(path)) if path.is_relative_to(SRC)
               else ())
    offending = reexport_imports(path.read_text(), package)
    assert not offending, f"{path.name} imports {offending}"


@pytest.mark.parametrize("source, caught", [
    ("from repro.link import LinkSpec\n", ["repro.link.LinkSpec"]),
    ("def f():\n    from repro.spice import Circuit\n",
     ["repro.spice.Circuit"]),
    ("from repro.link import ops\n", []),
    ("from repro.link.spec import LinkSpec\n", []),
    ("from repro.experiments import EXPERIMENTS\n", []),
    ("from repro import __version__\n", []),
])
def test_every_reexport_form_is_caught(source, caught):
    assert reexport_imports(source, ()) == caught


def module_level_scipy_imports(source: str) -> list[str]:
    return sorted(name for name in imported_modules(
        module_level_imports(source), ())
        if name == "scipy" or name.startswith("scipy."))


@pytest.mark.parametrize("path", list(MODULES.values()),
                         ids=list(MODULES))
def test_src_imports_scipy_only_inside_functions(path):
    """Only the exact-BER integral (``scipy.integrate``) and the
    Phase-IV fit (``scipy.optimize``) use SciPy, and they import it
    where they use it."""
    offending = module_level_scipy_imports(path.read_text())
    assert not offending, f"{path.name} imports {offending}"


@pytest.mark.parametrize("source, caught", [
    ("import scipy\n", ["scipy"]),
    ("from scipy.special import ndtri\n",
     ["scipy.special", "scipy.special.ndtri"]),
    ("class A:\n    from scipy import linalg\n",
     ["scipy", "scipy.linalg"]),
    ("def f():\n    from scipy.integrate import quad_vec\n", []),
])
def test_every_module_level_scipy_import_is_caught(source, caught):
    assert module_level_scipy_imports(source) == caught


SET_UP = """
import sys

import repro.campaign.runner
import repro.experiments
import repro.link.ops
from repro.experiments.fig6_ber import BER_DRIVE, WIDE_FRONT_END
from repro.experiments.table1_cpu import make_table1_waveform
from repro.link.backends import calibrate
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.system import build_ams_receiver

config = UwbConfig()
waveform, _bits = make_table1_waveform(config, 4, 11)
calibrate(LinkSpec(config=config, integrator="ideal",
                   frontend=FrontEndSpec(band=WIDE_FRONT_END,
                                         squarer_drive=BER_DRIVE)))
simulator, _harvest = build_ams_receiver(config, "circuit", waveform)
simulator.run_steps(5)
print(*sorted(sys.modules))
"""


def test_simulation_set_up_stays_off_heavy_scipy():
    """A fresh interpreter that imports the experiments, the link ops
    and the campaign runner, builds the Table-1 stimulus, calibrates
    the fig6 link and takes a few ELDO-row transient steps (Newton
    solves included) has loaded no ``scipy`` module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SET_UP], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert "repro.spice.mna" in modules
    loaded = sorted(m for m in modules
                    if m == "scipy" or m.startswith("scipy."))
    assert loaded == []


#: where the program reaches a name: the package itself, its examples,
#: the paper benchmarks and the speed benchmark.
USER_FILES = sorted(p for top in ("src", "examples", "benchmarks",
                                  "perfbench")
                    for p in (ROOT / top).rglob("*.py"))

#: public names only tests reach, each kept for the reason given.
TEST_ONLY_KEEP = {
    "Simulator.initialize": "stepping API: the signal and reset tests "
                            "apply time-zero events without a step",
    "Simulator.run_steps": "stepping API: the kernel, engine, "
                           "co-simulation and set-up tests take exactly "
                           "n analog steps",
    "TransientStepper.run_until": "stepping API: the transient and "
                                  "Newton-failure tests step to a time",
    "TraceReport.from_json": "reads the CLI's trace JSON back: CI's "
                             "trace-smoke job and the export tests",
    "LintReport.from_json": "reads the CLI's lint JSON back: CI's "
                            "lint-smoke job and the report tests",
    **{f"{model}.response": "per-row reference the parity tests compare "
                            "the sweep's window_outputs against"
       for model in ("WindowIntegrator", "IdealIntegrator",
                     "TwoPoleIntegrator")},
}

#: a string that is code, not prose: an identifier or a dotted one, as in
#: a ``getattr`` argument or a patch target.
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def public_definitions(source: str) -> list[str]:
    """Every public top-level function and class of *source*, and every
    public method (``Class.method``) of its top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs + (ast.ClassDef,)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, defs))
    return [name for name in names
            if not name.rpartition(".")[2].startswith("_")]


def named_in(source: str) -> set[str]:
    """The identifiers the code of *source* names: every name, attribute
    and import, and every string that is a whole (dotted) identifier,
    such as a ``getattr`` argument or a patch target.  Prose does not
    count: a docstring, a word inside a message or an f-string, and an
    ``__all__`` entry name nothing.  A ``def`` or ``class`` statement
    does not name what it defines."""
    tree = ast.parse(source)
    prose = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            prose.add(id(node.value))
        elif isinstance(node, ast.JoinedStr):
            prose.update(map(id, node.values))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                prose.update(map(id, ast.walk(node.value)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose
              and _IDENTIFIER.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def unreached(defining: list[str], users: list[str]) -> list[str]:
    """The public definitions of the *defining* sources that none of
    the *users* sources names."""
    named = set().union(*map(named_in, users))
    return sorted(name for source in defining
                  for name in public_definitions(source)
                  if name.rpartition(".")[2] not in named)


def test_every_public_name_is_reached_from_the_program():
    """A public name of ``src/`` that only tests reach is surface every
    reader still carries: delete it (or move its computation into the
    test that needs it), or keep it in :data:`TEST_ONLY_KEEP` with a
    reason."""
    found = unreached([p.read_text() for p in MODULES.values()],
                      [p.read_text() for p in USER_FILES])
    assert found == sorted(TEST_ONLY_KEEP)


def test_a_planted_test_only_name_is_caught():
    defining = ("def used():\n    pass\n\n"
                "def planted():\n    return 1\n\n"
                "class Box:\n"
                "    def lid(self):\n        pass\n\n"
                "    def _hinge(self):\n        pass\n\n"
                "    def open(self):\n        return self.lid()\n")
    caller = "from pkg.mod import Box, used\n\nused()\nBox().open()\n"
    assert unreached([defining], [defining, caller]) == ["planted"]
    # its own def does not reach a name; a call inside the defining
    # module does (Box.lid)
    assert unreached([defining], [defining]) == [
        "Box", "Box.open", "planted", "used"]
    # prose does not reach it: a docstring, a message, an f-string or
    # an __all__ entry that names it
    for prose in ('def f():\n    """Call planted() first."""\n',
                  'def g():\n    """planted"""\n',
                  '"""Module docstring: planted."""\n',
                  'raise ValueError("planted: no such thing")\n',
                  'raise ValueError(f"{x!r} is no planted")\n',
                  'label = f"{prefix}planted"\n',
                  '__all__ = ["planted"]\n',
                  '__all__ += ["planted"]\n'):
        assert unreached([defining], [defining, caller, prose]) == [
            "planted"], prose
    # a string that is the whole (dotted) name is code: a getattr
    # argument or a patch target reaches it
    for code in ('getattr(mod, "planted")()\n',
                 'hasattr(mod, "planted")\n',
                 'patch_function(mod, "planted", wrap)\n',
                 'monkeypatch.setattr("pkg.mod.planted", stub)\n'):
        assert unreached([defining], [defining, caller, code]) == [], code
