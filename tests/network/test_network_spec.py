"""InterfererSpec / NetworkSpec: validation, hashing, serialization."""

import dataclasses

import pytest

from repro.core.serialization import from_jsonable, stable_hash, to_jsonable
from repro.link.spec import ChannelSpec, InterfererSpec, LinkSpec, NetworkSpec
from repro.uwb.config import TEST_CONFIG


class TestInterfererSpec:
    def test_defaults(self):
        intf = InterfererSpec()
        assert intf.rel_power_db == 0.0
        assert intf.sir_db == 0.0
        assert intf.timing_offset == 0.0
        assert intf.channel.kind == "none"

    def test_sir_convention(self):
        assert InterfererSpec(rel_power_db=-6.0).sir_db == 6.0
        assert InterfererSpec(rel_power_db=10).rel_power_db == 10.0

    def test_near_far_mode(self):
        intf = InterfererSpec(rel_power_db=None,
                              channel=ChannelSpec(kind="cm1",
                                                  distance=3.0))
        assert intf.rel_power_db is None
        assert intf.sir_db is None

    def test_channel_type_enforced(self):
        with pytest.raises(TypeError):
            InterfererSpec(channel="cm1")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            InterfererSpec().timing_offset = 1e-9


class TestNetworkSpec:
    def test_defaults_degenerate(self):
        net = NetworkSpec()
        assert net.victim == LinkSpec()
        assert net.interferers == ()
        assert net.n_interferers == 0

    def test_interferers_normalized_to_tuple(self):
        net = NetworkSpec(interferers=[InterfererSpec(),
                                       InterfererSpec(rel_power_db=-6)])
        assert isinstance(net.interferers, tuple)
        assert net.n_interferers == 2

    def test_type_validation(self):
        with pytest.raises(TypeError):
            NetworkSpec(victim="link")
        with pytest.raises(TypeError):
            NetworkSpec(interferers=(LinkSpec(),))

    def test_hashable_and_order_sensitive(self):
        a = InterfererSpec(rel_power_db=-6.0)
        b = InterfererSpec(rel_power_db=0.0)
        assert hash(NetworkSpec(interferers=(a, b)))
        # Interferer order is part of the identity (it fixes the
        # generator draw order).
        assert NetworkSpec(interferers=(a, b)) \
            != NetworkSpec(interferers=(b, a))


def _network():
    victim = LinkSpec(config=TEST_CONFIG, integrator="two_pole",
                      integrator_params={"fp2_hz": 3e9})
    return NetworkSpec(
        victim=victim,
        interferers=(
            InterfererSpec(rel_power_db=-6.0, timing_offset=1.7e-9),
            InterfererSpec(rel_power_db=None,
                           channel=ChannelSpec(kind="cm1",
                                               distance=3.0,
                                               realization_seed=99)),
        ))


class TestSerialization:
    def test_jsonable_round_trip_preserves_types(self):
        net = _network()
        decoded = from_jsonable(to_jsonable(net))
        assert isinstance(decoded, NetworkSpec)
        assert isinstance(decoded.interferers[0], InterfererSpec)
        assert decoded.victim.integrator_params == (("fp2_hz", 3e9),)
        assert decoded == net

    def test_stable_hash_is_stable_and_discriminates(self):
        net = _network()
        assert stable_hash(net) == stable_hash(_network())
        assert stable_hash(net) != stable_hash(NetworkSpec(victim=net.victim))
        nudged = dataclasses.replace(net, interferers=(
            InterfererSpec(rel_power_db=-6.001, timing_offset=1.7e-9),
            net.interferers[1]))
        assert stable_hash(nudged) != stable_hash(net)

    def test_hash_differs_from_bare_victim(self):
        """An interferer-free network and its victim link hash apart
        (different campaign content addresses by design)."""
        assert stable_hash(NetworkSpec()) != stable_hash(LinkSpec())
