"""Mutation testing of the lint rules.

Procedurally generate known-good random ladder circuits, apply one
defect-injecting mutation per circuit, and require the matching rule to
catch *every single mutant* (100/100 per category).  A rule that only
catches most mutants has a hole in its graph reasoning.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import VoltageSource
from repro.spice.lint.engine import lint_circuit
from repro.spice.lint.report import Severity
from repro.spice.netlist import Circuit, Subckt

N_MUTANTS = 100


def random_ladder(rng: random.Random) -> Circuit:
    """A randomized, lint-clean RC ladder.

    ``v1`` drives ``n0``; a chain of resistors walks to ``n<k>``; every
    intermediate node may get a decoupling cap to ground; the far end is
    resistively terminated.  Always exactly one DC-connected, grounded
    component with every node at degree >= 2.
    """
    n_stages = rng.randint(2, 8)
    ckt = Circuit(f"ladder{n_stages}")
    ckt.add(VoltageSource("v1", "n0", "0", dc=rng.uniform(0.5, 5.0)))
    for k in range(n_stages):
        ckt.add(Resistor(f"r{k}", f"n{k}", f"n{k + 1}",
                         rng.uniform(10.0, 1e5)))
        if rng.random() < 0.5:
            ckt.add(Capacitor(f"c{k}", f"n{k + 1}", "0",
                              rng.uniform(1e-15, 1e-9)))
    ckt.add(Resistor("rend", f"n{n_stages}", "0", rng.uniform(10.0, 1e5)))
    return ckt


def replace(ckt: Circuit, device) -> None:
    """Swap *device* in for the device of *ckt* with its name (the
    mutants use the ladder's own lower-case names and nodes)."""
    names = [dev.name for dev in ckt.devices]
    ckt.devices[names.index(device.name)] = device


def rule_ids(report):
    return {f.rule_id for f in report.findings}


class TestBaseGeneratorIsClean:
    """The mutation premise: un-mutated ladders carry zero defects."""

    def test_hundred_random_ladders_clean(self):
        for seed in range(N_MUTANTS):
            report = lint_circuit(random_ladder(random.Random(seed)))
            assert report.at_least(Severity.WARN) == (), (
                f"seed {seed}: base ladder not clean:\n"
                + report.format_text())

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_any_seed_yields_clean_ladder(self, seed):
        assert lint_circuit(
            random_ladder(random.Random(seed))).at_least(
                Severity.WARN) == ()


class TestFloatingNodeMutants:
    def test_catch_rate_100_of_100(self):
        caught = 0
        for seed in range(N_MUTANTS):
            rng = random.Random(seed)
            ckt = random_ladder(rng)
            # Detach one terminal of a random resistor onto a fresh
            # node: that node now has exactly one connection.
            victims = [d for d in ckt.devices if isinstance(d, Resistor)]
            victim = rng.choice(victims)
            side = rng.choice(["n1", "n2"])
            kept = victim.n2 if side == "n1" else victim.n1
            repl = (Resistor(victim.name, "mut_detached", kept,
                             victim.value) if side == "n1" else
                    Resistor(victim.name, victim.n1, "mut_detached",
                             victim.value))
            replace(ckt, repl)
            if "SP-FLOAT-001" in rule_ids(lint_circuit(ckt)):
                caught += 1
        assert caught == N_MUTANTS


class TestCapacitorOnlyPathMutants:
    def test_catch_rate_100_of_100(self):
        caught = 0
        for seed in range(N_MUTANTS):
            rng = random.Random(seed)
            ckt = random_ladder(rng)
            # Swap one series resistor of the chain for a capacitor:
            # every node beyond the swap loses its DC path to ground
            # (any decoupling caps to ground conduct nothing).
            chain = [d for d in ckt.devices
                     if isinstance(d, Resistor) and d.name != "rend"]
            victim = rng.choice(chain)
            replace(ckt, Capacitor(victim.name, victim.n1, victim.n2, 1e-12))
            # ... and cut the resistive termination the same way, so
            # the far end cannot sneak back to ground through rend.
            rend = ckt.device("rend")
            replace(ckt, Capacitor("rend", rend.n1, rend.n2, 1e-12))
            if "SP-DCPATH-001" in rule_ids(lint_circuit(ckt)):
                caught += 1
        assert caught == N_MUTANTS


class TestIsolatedIslandMutants:
    def test_catch_rate_100_of_100(self):
        caught = 0
        for seed in range(N_MUTANTS):
            rng = random.Random(seed)
            ckt = random_ladder(rng)
            # Add a resistor ring on fresh nodes: structurally sound on
            # its own (every node degree 2) but unreachable from the
            # rest of the circuit.
            ring = rng.randint(2, 5)
            for k in range(ring):
                ckt.add(Resistor(f"isl{k}", f"isl_n{k}",
                                 f"isl_n{(k + 1) % ring}",
                                 rng.uniform(10.0, 1e5)))
            if "SP-ISLAND-001" in rule_ids(lint_circuit(ckt)):
                caught += 1
        assert caught == N_MUTANTS


class TestDanglingPortMutants:
    def test_catch_rate_100_of_100(self):
        caught = 0
        for seed in range(N_MUTANTS):
            rng = random.Random(seed)
            inner = random_ladder(rng)
            # Expose a random internal node plus one port name that no
            # internal device ever touches.
            exposed = rng.choice(inner.node_names())
            sub = Subckt(name="mut", ports=[exposed, "mut_nc"],
                         circuit=inner)
            host = Circuit("host")
            host.add_subckt(sub)
            report = lint_circuit(host)
            findings = [f for f in report.findings
                        if f.rule_id == "SP-PORT-001"]
            if findings and any("mut_nc" in f.nodes for f in findings):
                caught += 1
        assert caught == N_MUTANTS


class TestMutantsAreErrors:
    """Spot-check that mutants trip the pre-flight gate, not just the
    full report (the cosim path runs error-severity rules only)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_float_mutant_fails_preflight(self, seed):
        from repro.spice.errors import NetlistLintError
        from repro.spice.lint.engine import preflight_check

        rng = random.Random(seed)
        ckt = random_ladder(rng)
        ckt.add(Resistor("rmut", f"n{rng.randint(0, 2)}", "mut_hang",
                         1e3))
        with pytest.raises(NetlistLintError, match="SP-FLOAT-001"):
            preflight_check(ckt)
