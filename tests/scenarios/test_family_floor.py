"""The ``family_floor`` injector raises each family's floor in that
family's native type: a TcbVersion for SEV-SNP and the e-vTPM, an SVN
integer for TDX and CCA."""

import pytest

from repro.core import RevelioDeployment
from repro.fleet import FleetGateway, LiteFleet
from repro.scenarios.injectors import FamilyFloor


class _World:
    """The slice of a storm world the injector touches."""

    def __init__(self, gateway, victim):
        self.gateway = gateway
        self._victim = victim

    def victim_ip(self, index):
        return self._victim


@pytest.fixture(scope="module")
def mixed_gateway(scenario_build):
    deployment = RevelioDeployment(scenario_build, num_nodes=1).deploy()
    gateway = FleetGateway.for_deployment(deployment)
    assert all(v.ok for v in gateway.admit_all())
    fleet = LiteFleet(deployment)
    fleet.add_backend("10.1.0.10", "tdx")
    fleet.add_backend("10.1.0.40", "arm-cca")
    assert all(v.ok for v in fleet.attach_gateway(gateway))
    return deployment, gateway


@pytest.mark.parametrize(
    "family, params",
    [
        ("tdx", {}),
        ("tdx", {"floor": 4}),
        ("arm-cca", {"floor": 255}),
        ("sev-snp", {"floor": [255, 255, 255, 255]}),
    ],
)
def test_family_floor_lands_in_the_native_type(mixed_gateway, family, params):
    deployment, gateway = mixed_gateway
    victim = {
        "tdx": "10.1.0.10",
        "arm-cca": "10.1.0.40",
        "sev-snp": deployment.nodes[0].host.ip_address,
    }[family]
    injection = FamilyFloor(_World(gateway, victim), {"family": family, **params})
    injection.inject()
    assert not injection.provoke()
    assert injection.observed == {"family_tcb_floor"}
    injection.revert()
    assert gateway.families[family].minimum_tcb is None
    assert injection.recovered()
