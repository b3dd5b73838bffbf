"""LinkSpec: validation, hashing, serialization, integrator resolution."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.serialization import (
    from_jsonable,
    stable_hash,
    to_jsonable,
)
from repro.link import (
    COSIM,
    INTEGRATORS,
    ChannelSpec,
    FrontEndSpec,
    LinkSpec,
    build_integrator,
)
from repro.uwb.config import TEST_CONFIG, UwbConfig
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
)


class TestSpecConstruction:
    def test_defaults_validate(self):
        spec = LinkSpec()
        assert spec.integrator == "ideal"
        assert spec.channel.kind == "none"
        assert spec.frontend.adc == "auto"

    def test_frozen_and_hashable(self):
        spec = LinkSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.integrator = "two_pole"
        assert spec == LinkSpec()
        assert hash(spec) == hash(LinkSpec())
        assert spec != spec.with_(integrator="two_pole")

    def test_integrator_params_normalized(self):
        a = LinkSpec(integrator="two_pole",
                     integrator_params={"fp2_hz": 3e9, "gain": 2.0})
        b = LinkSpec(integrator="two_pole",
                     integrator_params=(("gain", 2.0), ("fp2_hz", 3e9)))
        assert a == b
        assert a.params_dict() == {"fp2_hz": 3e9, "gain": 2.0}

    def test_instance_integrator_rejected(self):
        with pytest.raises(TypeError, match="repro.link.ops"):
            LinkSpec(integrator=IdealIntegrator())

    def test_unknown_integrator_rejected(self):
        """A typo fails at construction, naming the known models - not
        later inside a scenario worker."""
        with pytest.raises(ValueError, match="unknown integrator") as exc:
            LinkSpec(integrator="quantum")
        for name in ("ideal", "two_pole", "surrogate", "circuit"):
            assert name in str(exc.value)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(config=UwbConfig(fs=-1.0))

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="cm9")
        with pytest.raises(ValueError):
            ChannelSpec(distance=0.0)

    def test_frontend_validation(self):
        with pytest.raises(ValueError):
            FrontEndSpec(band=(5e9, 2e9))
        with pytest.raises(ValueError):
            FrontEndSpec(adc="maybe")
        with pytest.raises(ValueError):
            FrontEndSpec(agc="three_stage")
        with pytest.raises(ValueError):
            FrontEndSpec(squarer_drive=0.0)

    def test_with_helpers(self):
        spec = LinkSpec()
        assert spec.with_config(fs=8e9).config.fs == 8e9
        assert spec.with_channel(kind="cm1").channel.kind == "cm1"
        assert spec.with_frontend(agc="two_stage").frontend.agc \
            == "two_stage"
        # originals untouched
        assert spec.config.fs == 20e9 and spec.channel.kind == "none"


class TestSpecIdentity:
    def test_key_stable_across_equal_specs(self):
        a = LinkSpec(config=TEST_CONFIG, integrator="two_pole")
        b = LinkSpec(config=TEST_CONFIG, integrator="two_pole")
        assert stable_hash(a) == stable_hash(b)

    def test_key_sensitive_to_every_layer(self):
        base = LinkSpec()
        for other in (base.with_(integrator="two_pole"),
                      base.with_config(fs=8e9, symbol_period=32e-9),
                      base.with_channel(kind="cm1"),
                      base.with_frontend(squarer_drive=0.2),
                      base.with_(integrator_params={"k": 1e8})):
            assert stable_hash(other) != stable_hash(base)

    def test_json_roundtrip(self):
        spec = LinkSpec(config=TEST_CONFIG,
                        channel=ChannelSpec(kind="cm1", distance=3.0),
                        frontend=FrontEndSpec(band=(2e9, 3.5e9),
                                              agc="two_stage"),
                        integrator="two_pole",
                        integrator_params={"fp2_hz": 3e9})
        back = from_jsonable(json.loads(json.dumps(to_jsonable(spec))))
        assert back == spec
        assert stable_hash(back) == stable_hash(spec)


class TestRegistryResolution:
    """``build_integrator`` over the closed :data:`INTEGRATORS` table."""

    @staticmethod
    def resolve(integrator, **params):
        return build_integrator(LinkSpec(integrator_params=params),
                                integrator)

    def test_builtin_names(self):
        assert set(INTEGRATORS) == {"ideal", "two_pole", "surrogate",
                                    "circuit"}

    def test_names_resolve_to_models(self):
        assert isinstance(self.resolve("ideal"), IdealIntegrator)
        assert isinstance(self.resolve("two_pole"), TwoPoleIntegrator)
        assert isinstance(self.resolve("surrogate"),
                          CircuitSurrogateIntegrator)

    def test_circuit_resolution_depends_on_cosim(self):
        spec = LinkSpec(integrator="circuit")
        assert build_integrator(spec, cosim=True) == COSIM
        assert isinstance(build_integrator(spec, cosim=False),
                          CircuitSurrogateIntegrator)

    def test_instance_passthrough(self):
        inst = TwoPoleIntegrator()
        assert self.resolve(inst) is inst

    def test_params_forwarded_to_factory(self):
        model = self.resolve("two_pole", fp2_hz=3e9, gain=4.0)
        assert model.fp2_hz == 3e9 and model.gain == 4.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown integrator"):
            self.resolve("quantum")
