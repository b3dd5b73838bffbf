"""Codec + stable hashing (repro.core.serialization)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.serialization import (
    UnserializableError,
    callable_spec,
    canonical_json,
    from_jsonable,
    resolve_callable,
    stable_hash,
    to_jsonable,
)
from repro.link.spec import ChannelSpec, FrontEndSpec, LinkSpec
from repro.spice.lint.report import LintFinding, Severity
from repro.uwb.bpf import BandPassFilter
from repro.uwb.config import TEST_CONFIG, UwbConfig
from repro.uwb.fastsim import BerResult
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    SoftLimiter,
)
from repro.uwb.modulation import random_bits


def roundtrip(value, arrays=None):
    encoded = to_jsonable(value, arrays)
    json.dumps(encoded)  # must be pure JSON
    return from_jsonable(encoded, arrays)


class TestScalarsAndContainers:
    def test_primitives(self):
        for v in (None, True, False, 3, -1, 2.5, "x", ""):
            assert roundtrip(v) == v

    def test_tuple_list_set_dict(self):
        v = {"a": (1, 2.0, "x"), "b": [1, [2, (3,)]], "c": {4, 5}}
        back = roundtrip(v)
        assert back == v
        assert isinstance(back["a"], tuple)
        assert isinstance(back["a"][2], str)
        assert isinstance(back["c"], set)

    def test_complex_and_bytes(self):
        assert roundtrip(1 + 2j) == 1 + 2j
        assert roundtrip(b"\x00\xff") == b"\x00\xff"

    def test_non_string_dict_keys(self):
        v = {1: "a", (2, 3): "b"}
        back = roundtrip(v)
        assert back == v

    def test_dict_keys_colliding_with_tags(self):
        v = {"__tuple__": [1, 2], "__pickle__": "x"}
        assert roundtrip(v) == v

    def test_numpy_scalars_decay(self):
        assert roundtrip(np.float64(1.5)) == 1.5
        assert roundtrip(np.int64(7)) == 7


class TestArrays:
    def test_inline_roundtrip_preserves_dtype_shape(self):
        for arr in (np.arange(6.0).reshape(2, 3),
                    np.array([1, -2, 3], dtype=np.int64),
                    np.zeros(0),
                    np.array([[True, False]])):
            back = roundtrip(arr)
            assert np.array_equal(back, arr)
            assert back.dtype == arr.dtype and back.shape == arr.shape

    def test_external_arrays_collected(self):
        arrays = {}
        v = {"x": np.arange(4), "y": [np.ones(2)]}
        encoded = to_jsonable(v, arrays)
        assert len(arrays) == 2
        assert "data" not in json.dumps(encoded)  # refs only
        back = from_jsonable(encoded, arrays)
        assert np.array_equal(back["x"], v["x"])
        assert np.array_equal(back["y"][0], v["y"][0])

    def test_external_ref_without_table_raises(self):
        arrays = {}
        encoded = to_jsonable(np.arange(3), arrays)
        with pytest.raises(ValueError):
            from_jsonable(encoded, None)


class TestDataclassesAndObjects:
    def test_frozen_dataclass(self):
        cfg = UwbConfig(fs=8e9, symbol_period=16e-9)
        back = roundtrip(cfg)
        assert back == cfg

    def test_dataclass_with_arrays(self):
        res = BerResult(ebn0_db=np.array([4.0]), ber=np.array([0.1]),
                        errors=np.array([10]), bits=np.array([100]),
                        label="x", ci_low=np.array([0.05]),
                        ci_high=np.array([0.2]))
        back = roundtrip(res)
        assert isinstance(back, BerResult)
        assert back.label == "x"
        assert np.array_equal(back.ci_high, res.ci_high)

    def test_missing_field_gets_default(self):
        """Payloads written before a field existed decode with the
        field's default."""
        encoded = to_jsonable(BerResult(
            ebn0_db=np.zeros(1), ber=np.zeros(1),
            errors=np.zeros(1, dtype=int), bits=np.ones(1, dtype=int)))
        del encoded["fields"]["ci_low"]
        back = from_jsonable(encoded)
        assert back.ci_low is None

    def test_vanished_field_names_class_and_field(self):
        """A payload with a field the dataclass no longer declares is
        refused, naming both, instead of decoding with it dropped."""
        encoded = to_jsonable(LinkSpec())
        encoded["fields"]["phase"] = "II"
        with pytest.raises(TypeError, match=r"LinkSpec.*'phase'"):
            from_jsonable(encoded)

    def test_pickle_fallback_objects(self):
        bpf = BandPassFilter((2e9, 9e9), 20e9)
        back = roundtrip(bpf)
        assert isinstance(back, BandPassFilter)
        assert back.band == bpf.band
        assert np.array_equal(back.sos, bpf.sos)

    def test_callable_instances_keep_state(self):
        lim = SoftLimiter(0.1)
        back = roundtrip(lim)
        assert isinstance(back, SoftLimiter) and back.scale == 0.1

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(42).spawn(3)[2]
        back = roundtrip(ss)
        assert back.entropy == ss.entropy
        assert back.spawn_key == ss.spawn_key
        a = np.random.default_rng(ss).integers(1 << 30)
        b = np.random.default_rng(back).integers(1 << 30)
        assert a == b


class TestCallables:
    def test_function_by_import_path(self):
        spec = callable_spec(random_bits)
        assert spec == "repro.uwb.modulation:random_bits"
        assert resolve_callable(spec) is random_bits
        assert roundtrip(random_bits) is random_bits

    def test_class_by_import_path(self):
        assert roundtrip(IdealIntegrator) is IdealIntegrator

    def test_lambda_rejected(self):
        with pytest.raises(UnserializableError):
            to_jsonable(lambda x: x)


class TestEnums:
    def test_intenum_keeps_type(self):
        """An IntEnum must not decay to a plain int - a decoded
        Severity has to compare and read like a Severity."""
        back = roundtrip(Severity.WARN)
        assert back is Severity.WARN
        assert back.label == "warn"

    def test_enum_inside_containers_and_dataclasses(self):
        v = {"levels": [Severity.INFO, Severity.ERROR],
             "pick": Severity.WARN}
        back = roundtrip(v)
        assert back == v and back["pick"] is Severity.WARN
        finding = LintFinding(rule_id="SP-FLOAT-001",
                              severity=Severity.ERROR,
                              title="floating node", message="n1")
        assert roundtrip(finding).severity is Severity.ERROR

    def test_enum_hash_distinct_from_raw_value(self):
        assert stable_hash(Severity.WARN) != stable_hash(20)


def _spec_variants() -> list[LinkSpec]:
    """A property-style sample of the LinkSpec space: every layer and
    option exercised at least once."""
    return [
        LinkSpec(),
        LinkSpec(config=TEST_CONFIG, integrator="two_pole"),
        LinkSpec(integrator="circuit"),
        LinkSpec(integrator="two_pole",
                 integrator_params={"fp2_hz": 3e9, "gain": 4.0}),
        LinkSpec(channel=ChannelSpec(kind="cm1", distance=3.3)),
        LinkSpec(frontend=FrontEndSpec(band=(2e9, 9e9),
                                       squarer_drive=0.35,
                                       adc="config", agc="two_stage",
                                       agc_amp_target=0.06,
                                       detection_factor=8.0,
                                       toa_threshold_fraction=0.5)),
        LinkSpec(config=TEST_CONFIG,
                 channel=ChannelSpec(kind="cm1", distance=9.9),
                 frontend=FrontEndSpec(adc="none", bpf_order=2,
                                       t_dump=1e-9, t_hold=1e-9),
                 integrator="surrogate"),
    ]


class TestLinkSpecRoundTrip:
    """Campaign cache keys are built from specs; the codec must carry
    them losslessly (the serialization satellite of the front-door
    redesign)."""

    @pytest.mark.parametrize("spec", _spec_variants(),
                             ids=lambda s: stable_hash(s)[:8])
    def test_codec_roundtrip_is_lossless(self, spec):
        back = roundtrip(spec)
        assert isinstance(back, LinkSpec)
        assert back == spec
        assert hash(back) == hash(spec)

    @pytest.mark.parametrize("spec", _spec_variants(),
                             ids=lambda s: stable_hash(s)[:8])
    def test_json_roundtrip_preserves_key(self, spec):
        back = from_jsonable(json.loads(json.dumps(to_jsonable(spec))))
        assert back == spec
        assert stable_hash(back) == stable_hash(spec)

    def test_keys_pairwise_distinct(self):
        keys = [stable_hash(s) for s in _spec_variants()]
        assert len(set(keys)) == len(keys)

    def test_decoded_spec_still_resolves(self):
        from repro.link.backends import build_integrator
        from repro.uwb.integrator import TwoPoleIntegrator

        spec = LinkSpec(integrator="two_pole",
                        integrator_params={"fp2_hz": 3e9})
        back = roundtrip(spec)
        model = build_integrator(back)
        assert isinstance(model, TwoPoleIntegrator)
        assert model.fp2_hz == 3e9


class TestStableHash:
    def test_deterministic_and_key_order_insensitive(self):
        a = {"x": 1, "y": np.arange(3), "z": UwbConfig()}
        b = {"z": UwbConfig(), "y": np.arange(3), "x": 1}
        assert stable_hash(a) == stable_hash(b)

    def test_sensitive_to_content(self):
        base = dict(config=UwbConfig(), seed=7)
        assert stable_hash(base) != stable_hash(dict(base, seed=8))
        assert stable_hash(base) != stable_hash(
            dict(base, config=UwbConfig(fs=8e9, symbol_period=16e-9)))

    def test_array_content_hashes(self):
        assert stable_hash(np.arange(4)) != stable_hash(np.arange(5))
        assert stable_hash(np.arange(4)) == stable_hash(np.arange(4))
        # dtype matters
        assert stable_hash(np.arange(4, dtype=np.int64)) != stable_hash(
            np.arange(4, dtype=np.float64))

    def test_model_hash_independent_of_use(self):
        """Running a model must not move its content address (lazy
        caches are excluded from the pickled state)."""
        fresh = CircuitSurrogateIntegrator()
        used = CircuitSurrogateIntegrator()
        used.window_outputs(np.ones((2, 8)), 1e-10)
        assert stable_hash(fresh) == stable_hash(used)

    def test_canonical_json_is_json(self):
        text = canonical_json({"a": (1, np.arange(2))})
        json.loads(text)
