"""``repro.uwb`` is the substrate under ``repro.link``: it never
imports it (not even lazily inside a function)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
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
