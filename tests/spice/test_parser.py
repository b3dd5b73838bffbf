"""Spice-format netlist parser."""

import math

import pytest

from repro.spice.devices.controlled import Vccs, Vcvs
from repro.spice.devices.diode import Diode
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Inductor, Resistor
from repro.spice.devices.sources import (
    CurrentSource,
    Pulse,
    Pwl,
    Sin,
    VoltageSource,
)
from repro.spice.devices.switch import VSwitch
from repro.spice.errors import ParseError
from repro.spice.library import GENERIC_018_CARDS
from repro.spice.parser import parse_netlist


class TestBasics:
    def test_title_line(self):
        ckt = parse_netlist("my title\nr1 a 0 1k\n")
        assert ckt.title == "my title"
        assert len(ckt) == 1

    def test_no_title_mode(self):
        ckt = parse_netlist("r1 a 0 1k\n", title_line=False)
        assert len(ckt) == 1

    def test_comments_and_blank_lines(self):
        text = """title
* a comment
r1 a 0 1k  ; trailing comment

r2 a 0 2k $ another
"""
        ckt = parse_netlist(text)
        assert len(ckt) == 2

    def test_continuation_lines(self):
        text = "title\nr1 a\n+ 0\n+ 1k\n"
        ckt = parse_netlist(text)
        assert ckt.device("r1").value == 1000.0

    def test_continuation_without_start_fails(self):
        with pytest.raises(ParseError):
            parse_netlist("+ 0 1k\n", title_line=False)

    def test_end_card_ignored(self):
        ckt = parse_netlist("t\nr1 a 0 1\n.end\n")
        assert len(ckt) == 1

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_netlist("t\n.tran 1n 1u\n")

    def test_line_number_in_error(self):
        with pytest.raises(ParseError) as exc:
            parse_netlist("t\nr1 a 0 1k\nq5 a b c\n")
        assert "line 3" in str(exc.value)


class TestElements:
    def test_all_two_terminal(self):
        text = """t
r1 a 0 1k
c1 a 0 1p
l1 a 0 1n
c2 a 0 1p ic=0.5
"""
        ckt = parse_netlist(text)
        assert isinstance(ckt.device("r1"), Resistor)
        assert isinstance(ckt.device("c1"), Capacitor)
        assert isinstance(ckt.device("l1"), Inductor)
        assert ckt.device("c2").ic == 0.5

    def test_controlled_sources(self):
        text = "t\ne1 o 0 a b 10\ng1 o 0 a b 1m\n"
        ckt = parse_netlist(text)
        assert isinstance(ckt.device("e1"), Vcvs)
        assert ckt.device("e1").gain == 10.0
        assert isinstance(ckt.device("g1"), Vccs)
        assert ckt.device("g1").gain == 1e-3

    def test_mosfet(self):
        text = ("t\n.model nch nmos (vto=0.4 kp=200u)\n"
                "m1 d g 0 0 nch w=10u l=0.18u m=2\n")
        ckt = parse_netlist(text)
        m = ckt.device("m1")
        assert isinstance(m, Mosfet)
        assert m.w == pytest.approx(10e-6)
        assert m.l == pytest.approx(0.18e-6)
        assert m.m == 2.0

    def test_mosfet_missing_wl(self):
        with pytest.raises(ParseError):
            parse_netlist("t\nm1 d g 0 0 nch\n")

    def test_diode_and_switch(self):
        text = ("t\n.model dm d (is=1e-15)\n.model sw1 sw (ron=10)\n"
                "d1 a 0 dm\ns1 a 0 c 0 sw1\n")
        ckt = parse_netlist(text)
        assert isinstance(ckt.device("d1"), Diode)
        assert isinstance(ckt.device("s1"), VSwitch)

    def test_too_few_fields(self):
        with pytest.raises(ParseError):
            parse_netlist("t\nr1 a\n")


class TestSources:
    def test_dc_forms(self):
        ckt = parse_netlist("t\nv1 a 0 5\nv2 b 0 dc 3\ni1 a 0 1m\n")
        assert ckt.device("v1").dc == 5.0
        assert ckt.device("v2").dc == 3.0
        assert ckt.device("i1").dc == 1e-3

    def test_ac_spec(self):
        ckt = parse_netlist("t\nv1 a 0 dc 1 ac 2 45\n")
        v = ckt.device("v1")
        assert v.ac_mag == 2.0
        assert v.ac_phase == 45.0

    def test_pulse(self):
        ckt = parse_netlist("t\nv1 a 0 pulse(0 1.8 1n 0.1n 0.1n 5n 10n)\n")
        wave = ckt.device("v1").wave
        assert isinstance(wave, Pulse)
        assert wave.v2 == 1.8
        assert wave.per == 10e-9

    def test_pulse_defaults(self):
        ckt = parse_netlist("t\nv1 a 0 pulse(0 1)\n")
        assert math.isinf(ckt.device("v1").wave.per)

    def test_sin(self):
        ckt = parse_netlist("t\nv1 a 0 sin(0 1 1meg)\n")
        wave = ckt.device("v1").wave
        assert isinstance(wave, Sin)
        assert wave.freq == 1e6

    def test_pwl(self):
        ckt = parse_netlist("t\nv1 a 0 pwl(0 0 1n 1 2n 0)\n")
        wave = ckt.device("v1").wave
        assert isinstance(wave, Pwl)
        assert wave.value(0.5e-9) == pytest.approx(0.5)

    def test_pwl_odd_values_rejected(self):
        with pytest.raises(ParseError):
            parse_netlist("t\nv1 a 0 pwl(0 0 1n)\n")


class TestParamsAndExpressions:
    def test_param_use(self):
        text = "t\n.param rr=2k cc={1p*2}\nr1 a 0 rr\nc1 a 0 cc\n"
        ckt = parse_netlist(text)
        assert ckt.device("r1").value == 2000.0
        assert ckt.device("c1").value == pytest.approx(2e-12)

    def test_expression_with_suffix_literals(self):
        ckt = parse_netlist("t\nr1 a 0 {10k/2}\n")
        assert ckt.device("r1").value == pytest.approx(5000.0)

    def test_expression_functions(self):
        ckt = parse_netlist("t\nr1 a 0 {sqrt(4)*1k}\n")
        assert ckt.device("r1").value == pytest.approx(2000.0)

    def test_quoted_expression(self):
        ckt = parse_netlist("t\n.param x=3\nr1 a 0 'x*1k'\n")
        assert ckt.device("r1").value == 3000.0

    def test_bad_expression(self):
        with pytest.raises(ParseError):
            parse_netlist("t\nr1 a 0 {nope+1}\n")


class TestModelsAndSubckts:
    def test_library_cards_parse(self):
        ckt = parse_netlist("cards\n" + GENERIC_018_CARDS)
        assert set(ckt.models) >= {"nch", "pch", "nch_lv", "pch_lv"}
        assert ckt.models["nch"].vto == pytest.approx(0.45)
        assert ckt.models["pch"].lambd == pytest.approx(0.26)

    def test_unknown_model_param(self):
        with pytest.raises(ParseError):
            parse_netlist("t\n.model bad nmos (wobble=3)\n")

    def test_unsupported_model_type(self):
        with pytest.raises(ParseError):
            parse_netlist("t\n.model bad npn (bf=100)\n")

    def test_subckt_roundtrip(self):
        text = """t
.subckt div in out
r1 in out 1k
r2 out 0 1k
.ends
x1 a b div
"""
        ckt = parse_netlist(text)
        assert ckt.device("x1.r1").nodes == ("a", "b")
        assert ckt.device("x1.r2").nodes == ("b", "0")

    def test_subckt_missing_ends(self):
        with pytest.raises(ParseError):
            parse_netlist("t\n.subckt div a b\nr1 a b 1\n")

    def test_nested_subckt_definition_rejected(self):
        text = "t\n.subckt a x\n.subckt b y\n.ends\n.ends\n"
        with pytest.raises(ParseError):
            parse_netlist(text)

    def test_subckt_instantiating_subckt(self):
        text = """t
.subckt unit a b
r1 a b 1k
.ends
.subckt pair p q
x1 p m unit
x2 m q unit
.ends
xtop n1 n2 pair
"""
        ckt = parse_netlist(text)
        assert ckt.device("xtop.x1.r1").nodes == ("n1", "xtop.m")
        assert ckt.device("xtop.x2.r1").nodes == ("xtop.m", "n2")


class TestEdgeCases:
    """Corner cases of real-world deck formatting."""

    def test_title_may_be_a_comment(self):
        # Classic Spice: the first raw line is the title even when it
        # looks like a comment; the first element must NOT be eaten.
        text = "* extracted by hand\nv1 in 0 dc 1\nr1 in 0 1k\n"
        ckt = parse_netlist(text)
        assert ckt.title == "* extracted by hand"
        assert len(ckt) == 2
        assert ckt.device("v1").dc == 1.0

    def test_continuations_interleaved_with_comments(self):
        text = """title
r1 a
* resistance chosen per figure 4
+ 0
; units: ohms
+ 1k
r2 a 0 2k
"""
        ckt = parse_netlist(text)
        assert ckt.device("r1").nodes == ("a", "0")
        assert ckt.device("r1").value == 1000.0
        assert len(ckt) == 2

    def test_continuation_across_blank_line(self):
        ckt = parse_netlist("title\nr1 a\n\n+ 0 1k\n")
        assert ckt.device("r1").value == 1000.0

    def test_subckt_directives_case_insensitive(self):
        text = """t
.SUBCKT DIV IN OUT
R1 IN OUT 1K
.ENDS
Xdiv n1 n2 div
"""
        ckt = parse_netlist(text)
        assert "div" in ckt.subckts
        assert ckt.device("xdiv.r1").nodes == ("n1", "n2")

    def test_mixed_case_ends_with_name(self):
        text = "t\n.SubCkt u a\nr1 a 0 1\n.EnDs U\nxu n u\n"
        ckt = parse_netlist(text)
        assert len(ckt) == 1

    def test_duplicate_device_name_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_netlist("t\nr1 a 0 1k\nr1 a 0 2k\n")
        msg = str(exc.value)
        assert "line 3" in msg
        assert "r1" in msg

    def test_duplicate_differs_only_by_case(self):
        with pytest.raises(ParseError):
            parse_netlist("t\nr1 a 0 1k\nR1 b 0 2k\n")
