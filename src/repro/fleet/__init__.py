"""Attestation-aware fleet serving: gateway, mesh, rollouts, workloads.

The paper's deployments (CryptPad, IC boundary nodes — sections
6.2-6.3) are *fleets* behind a load balancer, serving end-users at
scale.  This package puts a gateway in front of N
:class:`~repro.core.guest.RevelioNode` VMs that admits a backend only
while its :mod:`repro.attest` verdict is fresh and passing (DESIGN.md
invariant 11), probes liveness and re-attests periodically, drains
connections for zero-downtime rollouts under load, and generates open-
and closed-loop end-user traffic on the :mod:`repro.sim` event kernel.

One class, :class:`LiteFleet`, models every backend outside the SNP
deployment (any TEE family, serving full TLS and lite sessions); its
``attach_gateway`` wires it to one gateway and
:meth:`GatewayMesh.attach_lite_fleet` to a sharded mesh.  Updates roll
through :func:`rolling_rollout` behind one gateway and through
:class:`FleetProvisioner` across a mesh.
"""

from repro.fleet.drain import RollingRolloutReport, drain_backend, rolling_rollout
from repro.fleet.faults import (
    FaultHandle,
    KdsBlackhole,
    blackhole_kds,
    corrupt_disk,
    kill_backend,
    raise_family_tcb_floor,
    raise_tcb_floor,
    revoke_family,
    slow_disk,
)
from repro.fleet.gateway import (
    GATEWAY_REASON_CODES,
    AdmissionVerdict,
    BackendState,
    FleetGateway,
    GatewayError,
)
from repro.fleet.health import HealthMonitor
from repro.fleet.mesh import (
    GOSSIP_REJECT_REASONS,
    ConsistentHashRing,
    GatewayMesh,
    GossipedVerdict,
    LiteBackend,
    LiteFleet,
    MeshWorkload,
)
from repro.fleet.provision import FleetProvisioner, ProvisionReport
from repro.fleet.workload import FleetWorkload, UserPool

__all__ = [
    "GATEWAY_REASON_CODES",
    "GOSSIP_REJECT_REASONS",
    "AdmissionVerdict",
    "BackendState",
    "ConsistentHashRing",
    "FaultHandle",
    "FleetGateway",
    "FleetProvisioner",
    "FleetWorkload",
    "GatewayError",
    "GatewayMesh",
    "GossipedVerdict",
    "HealthMonitor",
    "KdsBlackhole",
    "LiteBackend",
    "LiteFleet",
    "MeshWorkload",
    "ProvisionReport",
    "RollingRolloutReport",
    "UserPool",
    "blackhole_kds",
    "corrupt_disk",
    "drain_backend",
    "kill_backend",
    "raise_family_tcb_floor",
    "raise_tcb_floor",
    "revoke_family",
    "rolling_rollout",
    "slow_disk",
]
