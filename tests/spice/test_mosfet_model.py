"""Level-1 MOSFET model: regions, body effect, symmetry, capacitances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.analysis.op import operating_point
from repro.spice.devices.mosfet import CAP_NAMES, Mosfet, MosGroup, MosModel
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.library import generic_018
from repro.spice.netlist import Circuit

CARDS = generic_018()


def mos_bias(vg, vd, vs=0.0, vb=0.0, model="nch", w=2e-6, l=1e-6):
    """Operating point of a single MOSFET with ideal bias sources."""
    ckt = Circuit("bias", models=CARDS.values())
    ckt.add(VoltageSource("vg", "g", "0", dc=vg))
    ckt.add(VoltageSource("vd", "d", "0", dc=vd))
    ckt.add(VoltageSource("vs", "s", "0", dc=vs))
    ckt.add(VoltageSource("vb", "b", "0", dc=vb))
    ckt.add(Mosfet("m1", "d", "g", "s", "b", model, w=w, l=l))
    op = operating_point(ckt)
    return op, op.mos_info()["m1"]


class TestRegions:
    def test_cutoff(self):
        _op, info = mos_bias(vg=0.2, vd=1.0)
        assert info["region"] == 0
        assert info["ids"] == pytest.approx(0.0, abs=1e-12)

    def test_saturation_square_law(self):
        _op, info = mos_bias(vg=1.0, vd=1.8)
        model = CARDS["nch"]
        vov = 1.0 - model.vto
        beta = model.kp * 2e-6 / 1e-6
        expected = 0.5 * beta * vov**2 * (1 + model.lambd * 1.8)
        assert info["region"] == 2
        assert info["ids"] == pytest.approx(expected, rel=1e-6)

    def test_triode(self):
        _op, info = mos_bias(vg=1.8, vd=0.1)
        model = CARDS["nch"]
        vov = 1.8 - model.vto
        beta = model.kp * 2.0
        expected = beta * (vov * 0.1 - 0.005) * (1 + model.lambd * 0.1)
        assert info["region"] == 1
        assert info["ids"] == pytest.approx(expected, rel=1e-6)

    def test_region_boundary_continuous(self):
        model = CARDS["nch"]
        vov = 1.0 - model.vto
        _op, lo = mos_bias(vg=1.0, vd=vov - 1e-6)
        _op, hi = mos_bias(vg=1.0, vd=vov + 1e-6)
        assert lo["ids"] == pytest.approx(hi["ids"], rel=1e-3)

    def test_pmos_polarity(self):
        _op, info = mos_bias(vg=0.8, vd=0.0, vs=1.8, vb=1.8, model="pch")
        assert info["region"] == 2
        assert info["vgs"] > 0  # NMOS-frame quantities
        # physical current flows source -> drain (into the drain node
        # from the supply through the channel): i(vd) sinks it
    def test_body_effect_raises_vt(self):
        _op, no_body = mos_bias(vg=1.0, vd=1.8, vs=0.0, vb=0.0)
        _op, body = mos_bias(vg=1.5, vd=1.8, vs=0.5, vb=0.0)
        # same vgs=1.0 but vsb=0.5 -> higher VT -> lower current
        assert body["ids"] < no_body["ids"]

    def test_drain_source_swap(self):
        """The device is symmetric: swapping D and S mirrors the
        current."""
        _op, fwd = mos_bias(vg=1.2, vd=0.3, vs=0.0)
        ckt = Circuit("rev", models=CARDS.values())
        ckt.add(VoltageSource("vg", "g", "0", dc=1.2))
        ckt.add(VoltageSource("vd", "d", "0", dc=0.3))
        # same device, terminals swapped
        ckt.add(Mosfet("m1", "0", "g", "d", "0", "nch", w=2e-6, l=1e-6))
        op = operating_point(ckt)
        rev_current = op.i("vd")
        # Same channel current magnitude; the source now *delivers* the
        # current into the (swapped) drain, so its branch current is
        # negative by the Spice passive convention.
        assert abs(rev_current) == pytest.approx(fwd["ids"], rel=1e-4)
        assert rev_current < 0

    @given(vg=st.floats(0.0, 1.8), vd=st.floats(0.0, 1.8))
    @settings(max_examples=30, deadline=None)
    def test_current_nonnegative_nmos(self, vg, vd):
        _op, info = mos_bias(vg=vg, vd=vd)
        assert info["ids"] >= -1e-12

    @given(vg=st.floats(0.6, 1.8))
    @settings(max_examples=20, deadline=None)
    def test_gm_positive_in_saturation(self, vg):
        _op, info = mos_bias(vg=vg, vd=1.8)
        assert info["gm"] > 0
        assert info["gds"] > 0


class TestCapacitances:
    def _caps(self, vg, vd):
        ckt = Circuit("c", models=CARDS.values())
        ckt.add(VoltageSource("vg", "g", "0", dc=vg))
        ckt.add(VoltageSource("vd", "d", "0", dc=vd))
        ckt.add(Mosfet("m1", "d", "g", "0", "0", "nch", w=2e-6, l=1e-6))
        op = operating_point(ckt)
        grp = op.system.mos_group
        ev = grp.evaluate(op.system.full_vector(op.x))
        return dict(zip(CAP_NAMES, grp.cap_values(ev)))

    def test_cutoff_gate_bulk(self):
        caps = self._caps(vg=0.0, vd=1.0)
        assert caps["cgb"][0] > caps["cgs"][0]

    def test_saturation_cgs_dominates(self):
        caps = self._caps(vg=1.2, vd=1.8)
        assert caps["cgs"][0] > caps["cgd"][0]

    def test_triode_symmetric(self):
        caps = self._caps(vg=1.8, vd=0.05)
        assert caps["cgs"][0] == pytest.approx(caps["cgd"][0], rel=1e-9)

    def test_all_positive(self):
        caps = self._caps(vg=0.9, vd=0.9)
        for arr in caps.values():
            assert np.all(arr >= 0)


class TestCapTable:
    """The compiled ``(region, reversed)`` capacitance table against the
    Meyer definition and against the per-call ``np.where`` chain it
    replaced."""

    #: Unequal overlaps and a lateral diffusion, so a swapped or
    #: misplaced term shows.
    MODELS = {
        "nx": MosModel("nx", "n", cgso=2e-10, cgdo=3.5e-10, cgbo=1.5e-10,
                       ld=0.02e-6),
        "px": MosModel("px", "p", vto=-0.45, kp=7e-5, cgso=2.5e-10,
                       cgdo=1e-10, cgbo=0.5e-10, ld=0.03e-6),
    }
    W, L, M = 3e-6, 0.5e-6, 2.0
    #: Effective-frame (vgs, vds) of each region.
    BIAS = {0: (0.2, 0.5), 1: (1.3, 0.2), 2: (0.9, 1.2)}

    @classmethod
    def group(cls, models, nodes):
        devices = [Mosfet(f"m{i}", *terms, model, w=cls.W, l=cls.L,
                          m=cls.M)
                   for i, (model, terms) in enumerate(zip(models, nodes))]
        # Nodes in order of appearance, then the ground sentinel.
        names = dict.fromkeys(n for t in nodes for n in t if n != "0")
        node_index = {name: i for i, name in enumerate(names)}
        node_index["0"] = len(node_index)
        return MosGroup(devices, cls.MODELS, node_index), node_index

    @classmethod
    def constants(cls, mod):
        """Cox, overlaps and junction cap written from the model card."""
        width = cls.W * cls.M
        leff = cls.L - 2 * mod.ld
        cox = mod.cox * width * leff
        jxn = (mod.cj * width * mod.ldiff
               + mod.cjsw * (width + 2 * mod.ldiff))
        return cox, mod.cgso * width, mod.cgdo * width, mod.cgbo * leff, jxn

    @pytest.mark.parametrize("model", ["nx", "px"])
    @pytest.mark.parametrize("region", [0, 1, 2])
    @pytest.mark.parametrize("reversed_", [False, True])
    def test_lookup_is_the_meyer_definition(self, model, region,
                                            reversed_):
        grp, _ = self.group([model], [("d", "g", "s", "b")])
        vgs, vds = self.BIAS[region]
        ev, _ids = TestDerivativeOracle.evaluate(grp, vgs, vds, 0.0,
                                                 reversed_)
        assert int(ev.region[0]) == region
        assert bool(ev.reversed[0]) is reversed_
        cox, ov_gs, ov_gd, ov_gb, jxn = self.constants(self.MODELS[model])
        # Meyer caps to the effective source, drain and bulk.
        src, drn, blk = {0: (0.0, 0.0, cox),
                         1: (cox / 2, cox / 2, 0.0),
                         2: (2 * cox / 3, 0.0, 0.0)}[region]
        if reversed_:
            src, drn = drn, src
        expect = {"cgs": src + ov_gs, "cgd": drn + ov_gd,
                  "cgb": blk + ov_gb, "cbd": jxn, "cbs": jxn}
        caps = dict(zip(CAP_NAMES, grp.cap_values(ev)))
        assert set(caps) == set(expect)
        for name, value in expect.items():
            assert caps[name][0] == pytest.approx(value, rel=1e-12,
                                                  abs=0.0), name

    def test_bit_equal_to_where_chain_at_random_biases(self):
        rng = np.random.default_rng(5)
        n_dev = 12
        models = ["nx", "px"] * (n_dev // 2)
        nodes = [tuple(rng.choice(["a", "b", "c", "d", "e", "0"], 4,
                                  replace=False)) for _ in range(n_dev)]
        grp, node_index = self.group(models, nodes)
        consts = np.array([self.constants(self.MODELS[m]) for m in models]).T
        cox, ov_gs, ov_gd, ov_gb, jxn = consts
        seen = set()
        for _ in range(200):
            v = np.append(rng.uniform(-0.6, 2.4, len(node_index) - 1), 0.0)
            ev = grp.evaluate(v)
            caps = dict(zip(CAP_NAMES, grp.cap_values(ev)))
            # The chain the table replaced, verbatim.
            cutoff, triode = ev.cutoff, ev.triode
            cgb_i = np.where(cutoff, cox, 0.0)
            cgd_i = np.where(triode, 0.5 * cox, 0.0)
            cgs_i = np.where(triode, 0.5 * cox,
                             np.where(cutoff, 0.0, (2.0 / 3.0) * cox))
            chain = {
                "cgs": np.where(ev.reversed, cgd_i, cgs_i) + ov_gs,
                "cgd": np.where(ev.reversed, cgs_i, cgd_i) + ov_gd,
                "cgb": cgb_i + ov_gb, "cbd": jxn, "cbs": jxn}
            for name, want in chain.items():
                np.testing.assert_array_equal(caps[name], want, name)
            seen.update(zip(grp.sign, 2 * ev.region + ev.reversed))
        assert len(seen) == 12  # both types in all six cases


class TestDerivativeOracle:
    """``gm``, ``gds`` and ``gmb`` of :meth:`MosGroup.evaluate` against
    central finite differences of ``ids`` in ``vgs``, ``vds`` and
    ``vsb`` (effective NMOS frame), away from region edges."""

    STEP = 1e-6
    #: (model, vgs, vds, vsb, reversed, region) in the effective frame.
    CASES = {
        "cutoff": ("nch", 0.2, 0.5, 0.0, False, 0),
        "triode": ("nch", 1.2, 0.2, 0.0, False, 1),
        "saturation": ("nch", 0.9, 1.0, 0.0, False, 2),
        "reversed-triode": ("nch", 1.2, 0.3, 0.0, True, 1),
        "reversed-saturation": ("nch", 0.9, 1.0, 0.2, True, 2),
        "pmos-triode": ("pch", 1.3, 0.25, 0.0, False, 1),
        "pmos-saturation": ("pch", 1.0, 1.2, 0.0, False, 2),
        "pmos-reversed": ("pch", 1.0, 1.2, 0.3, True, 2),
        "forward-body-bias": ("nch", 0.9, 1.0, -0.3, False, 2),
        "reverse-body-bias": ("nch", 1.4, 0.3, 0.6, False, 1),
        "pmos-forward-body-bias": ("pch", 1.3, 0.25, -0.3, False, 1),
    }

    @staticmethod
    def group(model):
        from repro.spice.devices.mosfet import MosGroup

        nodes = {"d": 0, "g": 1, "s": 2, "b": 3, "0": 4}
        dev = Mosfet("m1", "d", "g", "s", "b", model, w=2e-6, l=0.5e-6)
        return MosGroup([dev], CARDS, nodes)

    @staticmethod
    def evaluate(group, vgs, vds, vsb, reversed_):
        """Evaluate at effective-frame voltages; the physical drain and
        source trade places when *reversed_*."""
        sign = group.sign[0]
        v_src = 0.4
        v_drn = v_src + sign * vds
        d, s = (v_src, v_drn) if reversed_ else (v_drn, v_src)
        v = np.array([d, v_src + sign * vgs, s, v_src - sign * vsb, 0.0])
        ev = group.evaluate(v)
        # NMOS-frame current: ev.ids carries the device sign.
        return ev, sign * ev.ids[0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_conductances_match_finite_differences(self, case):
        model, vgs, vds, vsb, reversed_, region = self.CASES[case]
        grp = self.group(model)
        ev, _ids = self.evaluate(grp, vgs, vds, vsb, reversed_)
        assert bool(ev.reversed[0]) is reversed_
        assert int(ev.region[0]) == region
        h = self.STEP

        def slope(dvgs=0.0, dvds=0.0, dvsb=0.0):
            hi = self.evaluate(grp, vgs + dvgs, vds + dvds, vsb + dvsb,
                               reversed_)[1]
            lo = self.evaluate(grp, vgs - dvgs, vds - dvds, vsb - dvsb,
                               reversed_)[1]
            return (hi - lo) / (2 * h)

        scale = max(abs(ev.gm[0]), abs(ev.gds[0]), 1e-12)
        for name, fd in (("gm", slope(dvgs=h)), ("gds", slope(dvds=h)),
                         # vt rises with vsb, so ids falls: gmb = -dids/dvsb
                         ("gmb", -slope(dvsb=h))):
            assert getattr(ev, name)[0] == pytest.approx(
                fd, rel=1e-6, abs=1e-9 * scale), name
