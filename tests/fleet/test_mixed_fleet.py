"""Mixed-fleet serving: SNP + TDX + CCA + e-vTPM backends behind one
tier-aware gateway, tiered traffic, and a mid-storm family revocation
that costs the survivors nothing."""

import json

import pytest

from repro.crypto import ec, sigcache
from repro.fleet import (
    FleetWorkload,
    LiteFleet,
    UserPool,
    revoke_family,
)
from repro.net.http import HTTPS_PORT
from repro.net.tls import TlsError
from repro.sim import SimRng
from repro.sim.kernel import sleep
from tests.crypto.test_encoding import nested_lists
from tests.fleet.conftest import make_world

TIER_WEIGHTS = {"high": 0.3, "bulk": 0.7}
HIGH_TIER_FAMILIES = {"sev-snp", "e-vtpm"}


def attach_hetero(deployment, gateway):
    """Two TDX + one CCA + one e-vTPM backend joined to the fleet."""
    fleet = LiteFleet(deployment)
    fleet.add_backend("10.1.0.10", "tdx")
    fleet.add_backend("10.1.0.11", "tdx")
    fleet.add_backend("10.1.0.40", "arm-cca")
    fleet.add_backend("10.1.0.70", "e-vtpm")
    verdicts = fleet.attach_gateway(gateway)
    assert all(v.ok for v in verdicts), [
        (v.ip_address, v.reason) for v in verdicts if not v.ok
    ]
    return fleet


def extension_setup_for(deployment, fleet):
    family_goldens = {
        family: goldens
        for family, goldens in fleet.goldens().items()
        if family != "sev-snp"
    }

    def setup(extension):
        extension.verifier.contexts.update(fleet.contexts())
        extension.register_site(
            deployment.domain, family_measurements=family_goldens
        )

    return setup


def run_mixed_storm(build, seed=0, sessions=80, revoke_at=3.0):
    """Seeded open-loop storm over the mixed fleet with the tdx family
    revoked mid-storm; returns (gateway, workload snapshot)."""
    sigcache.reset_cache()
    ec.reset_point_cache()
    deployment, gateway, kernel = make_world(
        build, num_nodes=2, with_kernel=True, seed=seed
    )
    fleet = attach_hetero(deployment, gateway)
    pool = UserPool(
        deployment,
        kernel,
        size=16,
        expected_measurements=[build.expected_measurement],
        extension_setup=extension_setup_for(deployment, fleet),
    )
    workload = FleetWorkload(
        kernel, gateway, pool, rng=SimRng(seed), tier_weights=TIER_WEIGHTS
    )

    def revocation():
        yield sleep(revoke_at)
        revoke_family(gateway, "tdx")

    storm = kernel.spawn(
        workload.open_loop(sessions=sessions, arrival_rate=10.0),
        name="storm",
    )
    kernel.spawn(revocation(), name="revocation")
    kernel.run()
    assert storm.finished
    if storm.error is not None:
        raise storm.error
    return gateway, workload.snapshot()


class TestMixedAdmission:
    def test_every_family_admits_with_per_family_counters(self, sync_world):
        deployment, gateway, _ = sync_world
        attach_hetero(deployment, gateway)
        for family in ("sev-snp", "tdx", "arm-cca", "e-vtpm"):
            assert gateway.counters[f"admissions.{family}"] >= 1, family
            assert (
                gateway.counters[f"family.{family}.attestations_ok"] >= 1
            ), family

    def test_high_tier_routes_only_to_snp_and_vtpm(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = attach_hetero(deployment, gateway)
        setup = extension_setup_for(deployment, fleet)
        for index in range(6):
            browser, extension = deployment.make_user(
                name=f"high-user-{index}", ip_address=f"10.2.9.{index + 1}"
            )
            setup(extension)
            browser.session_tier = "high"
            browser.new_session()
            result = browser.navigate(f"https://{deployment.domain}/")
            assert not result.blocked, result.block_reason
        used = {
            gateway.backends[ip].family for ip in gateway._affinity.values()
        }
        assert used <= HIGH_TIER_FAMILIES, used
        assert gateway.counters["tier.high.sessions_opened"] >= 6

    def test_unknown_tier_falls_back_to_bulk(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = attach_hetero(deployment, gateway)
        browser, extension = deployment.make_user(
            name="odd-tier-user", ip_address="10.2.9.50"
        )
        extension_setup_for(deployment, fleet)(extension)
        browser.session_tier = "platinum"
        browser.new_session()
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked, result.block_reason
        assert gateway.counters["tier.bulk.sessions_opened"] >= 1


    def test_deeply_nested_payload_is_a_tls_error_on_every_backend(
        self, sync_world
    ):
        # Hostile nesting reaches the lite dispatcher and then the TLS
        # handler of every backend kind; both must fail typed, never
        # with RecursionError.
        deployment, gateway, _ = sync_world
        attach_hetero(deployment, gateway)
        client = deployment.network.add_host("nesting-client", "10.66.0.2")
        for ip in ("10.1.0.10", "10.1.0.70", deployment.node_ip(0)):
            with pytest.raises(TlsError, match="malformed"):
                client.request(ip, HTTPS_PORT, nested_lists(600))


class TestMixedStorm:
    def test_mid_storm_family_revocation_costs_survivors_nothing(
        self, fleet_build
    ):
        gateway, snapshot = run_mixed_storm(fleet_build)
        assert snapshot.get("requests_failed", 0) == 0
        assert snapshot.get("requests_blocked", 0) == 0
        assert snapshot["requests_ok"] == snapshot["requests_total"]
        # Both tdx backends evicted under the family-scoped stable code.
        assert (
            snapshot["gateway.family.tdx.evictions.family_not_allowed"] == 2
        )
        for ip, backend in sorted(gateway.backends.items()):
            if backend.family == "tdx":
                assert backend.state == "evicted", ip
                assert backend.verdict_reason == "family_not_allowed", ip
            else:
                assert backend.state == "admitted", ip
        # A revoked family stays out: re-attestation fails closed.
        verdict = gateway.attest_and_admit("10.1.0.10")
        assert not verdict.ok
        assert verdict.reason == "family_not_allowed"
        # Tiered traffic actually flowed, with per-tier tails recorded.
        for tier in TIER_WEIGHTS:
            assert snapshot[f"gateway.tier.{tier}.sessions_opened"] > 0
            assert snapshot[f"latency.tier.{tier}.p99"] > 0

    def test_same_seed_storms_are_byte_identical(self, fleet_build):
        _, first = run_mixed_storm(fleet_build, seed=7, sessions=40)
        _, second = run_mixed_storm(fleet_build, seed=7, sessions=40)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
