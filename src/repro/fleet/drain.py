"""Connection draining and the zero-downtime rolling rollout.

The drain protocol: mark the backend *draining* (the gateway stops
sending it new sessions; existing sessions keep working), poll until
its outstanding request count hits zero (session think-time guarantees
gaps), then *retire* it — remaining idle sessions are severed and their
clients transparently re-handshake onto a healthy peer, losing zero
requests because every fleet node serves the same attested TLS key.

:func:`rolling_rollout` turns :func:`repro.core.rollout.roll_out_image`
into a traffic-safe procedure: one node at a time is drained, replaced
with the new image on the same address (``replace_node``), admitted
back into the fleet by the SP (``admit_node`` — the newcomer pulls the
*existing* TLS private key from a still-serving peer over the mutually
attested bootstrap channel, so end-users' pinned keys never change),
and re-attested by the gateway against the widened golden set before it
takes traffic again.  Only after every node runs the new image is the
old measurement revoked fleet-wide.

Prerequisite (documented in PROTOCOLS.md): during the transition both
measurements must be endorsed — old nodes attest new peers during key
hand-over and vice versa, so a cross-version trusted registry (or the
equivalent baked goldens) is installed on the nodes, and end-users'
extensions must know both goldens to ride through without disruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from ..attest import TeeFamily
from ..core.deployment import AppFactory, default_app
from ..core.rollout import RolloutError, replace_node, update_golden_set
from ..core.trusted_registry import StaticRegistry
from ..sim.kernel import sleep
from .gateway import FleetGateway


@dataclass
class RollingRolloutReport:
    """What a rollout under load did, in simulated time."""

    old_measurement: str
    new_measurement: str
    replacements: List[dict] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def sim_seconds(self) -> float:
        return self.finished_at - self.started_at


def drain_backend(
    gateways: Sequence[FleetGateway],
    ip_address: str,
    poll_interval: float = 0.05,
    deadline: float = 60.0,
):
    """Kernel process: drain one backend on every gateway that routes
    to it, then retire it on all of them.  The gateways share the
    backend's service station, so its outstanding count is the drain's
    condition.  Returns the number of poll rounds waited.
    """
    for gateway in gateways:
        gateway.mark_draining(ip_address)
    server = gateways[0].backends[ip_address].server
    clock = gateways[0].network.clock
    started = clock.now
    rounds = 0
    while server is not None and server.outstanding > 0:
        if clock.now - started >= deadline:
            break
        rounds += 1
        yield sleep(poll_interval)
    for gateway in gateways:
        gateway.retire(ip_address)
    return rounds


def _key_holder_ip(deployment, exclude_ip: str) -> str:
    """Any still-serving node other than *exclude_ip* — every
    provisioned node holds the shared TLS private key, so any of them
    can answer a newcomer's key request."""
    for deployed in deployment.nodes:
        if (
            deployed.host.ip_address != exclude_ip
            and deployed.node.serving
            and deployed.vm.state == "running"
        ):
            return deployed.host.ip_address
    raise RolloutError("no serving node left to hand over the TLS key")


def rolling_rollout(
    gateway: FleetGateway,
    deployment,
    new_build,
    app_factory: AppFactory = default_app,
    node_registry=None,
    drain_poll: float = 0.05,
    drain_deadline: float = 60.0,
    concurrency: int = 4,
    report: Optional[RollingRolloutReport] = None,
    families=None,
):
    """Kernel process: replace the whole fleet under load, one node at
    a time, with zero failed end-user requests.  Pass *report* to
    observe progress; it is also the generator's return value.

    In a heterogeneous fleet an image rollout only concerns the nodes
    that *run* that image: *families* restricts the rollout to backends
    whose registered TEE family is in the set (``None`` = every
    deployment node, the homogeneous-SNP behaviour)."""
    if deployment.sp is None or deployment.provisioning is None:
        raise RolloutError("fleet not provisioned; nothing to roll out")
    old_measurement = bytes(deployment.build.expected_measurement)
    new_measurement = bytes(new_build.expected_measurement)
    if old_measurement == new_measurement:
        raise RolloutError("new image has the identical measurement; nothing to do")
    clock = gateway.network.clock
    if report is None:
        report = RollingRolloutReport(
            old_measurement=old_measurement.hex(),
            new_measurement=new_measurement.hex(),
        )
    report.started_at = clock.now

    # Transition trust: both images endorsed on every node (key
    # hand-over attests in both directions), at the SP, and at the
    # gateway, until the last old node is gone.
    registry = node_registry
    if registry is None:
        registry = StaticRegistry(
            golden={deployment.domain: [old_measurement, new_measurement]}
        )
    for deployed in deployment.nodes:
        deployed.node.trusted_registry = registry
    if new_measurement not in deployment.sp.expected_measurements:
        deployment.sp.expected_measurements.append(new_measurement)
    snp = str(TeeFamily.SEV_SNP)
    gateway.families[snp] = replace(
        gateway.families[snp],
        golden_measurements=sorted({old_measurement, new_measurement}),
    )

    rolled_families = (
        None if families is None else {str(family) for family in families}
    )
    for index in range(len(deployment.nodes)):
        ip_address = deployment.nodes[index].host.ip_address
        if rolled_families is not None:
            backend = gateway.backends.get(ip_address)
            if backend is None or backend.family not in rolled_families:
                continue
        node_started = clock.now
        rounds = yield from drain_backend(
            [gateway], ip_address, poll_interval=drain_poll, deadline=drain_deadline
        )
        key_holder = _key_holder_ip(deployment, exclude_ip=ip_address)
        replace_node(
            deployment, index, new_build, app_factory, node_registry=registry
        )
        deployment.sp.admit_node(
            ip_address, key_holder, deployment.provisioning.certificate_chain
        )
        gateway.add_backend(ip_address, concurrency=concurrency)
        verdict = gateway.attest_and_admit(ip_address)
        if not verdict.ok:
            raise RolloutError(
                f"replacement node {ip_address} failed admission: "
                f"{verdict.reason} ({verdict.detail})"
            )
        report.replacements.append(
            {
                "ip_address": ip_address,
                "drain_poll_rounds": rounds,
                "sim_seconds": clock.now - node_started,
            }
        )

    # Finalise: the fleet is homogeneous on the new image — revoke the
    # old measurement everywhere (section 6.1.4 rollback prevention).
    update_golden_set(deployment, old_measurement, new_measurement)
    deployment.build = new_build
    entry = gateway.families[snp]
    gateway.families[snp] = replace(
        entry,
        golden_measurements=[new_measurement],
        revoked_measurements=sorted(
            {*entry.revoked_measurements, old_measurement}
        ),
    )
    report.finished_at = clock.now
    return report
