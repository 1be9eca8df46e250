"""Simulated network, DNS, firewall, and latency accounting tests."""

import pytest

from repro.build import NetworkPolicy
from repro.net.dns import DnsError, DnsRegistry
from repro.net.firewall import ConnectionRefused, Firewall
from repro.net.latency import ZERO_LATENCY, LatencyModel, SimClock
from repro.net.simnet import Network, NetworkError


def _echo(payload, context):
    return b"echo:" + payload


class TestHostsAndRouting:
    @pytest.fixture
    def net(self):
        return Network(ZERO_LATENCY)

    def test_round_trip(self, net):
        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(8080, _echo)
        assert client.request("10.0.0.1", 8080, b"hi") == b"echo:hi"

    def test_no_route(self, net):
        client = net.add_host("client", "10.0.0.2")
        with pytest.raises(NetworkError, match="no route"):
            client.request("10.9.9.9", 80, b"x")

    def test_closed_port(self, net):
        net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        with pytest.raises(NetworkError, match="refused"):
            client.request("10.0.0.1", 80, b"x")

    def test_duplicate_ip_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(NetworkError):
            net.add_host("b", "10.0.0.1")

    def test_close_port(self, net):
        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(80, _echo)
        server.close_port(80)
        with pytest.raises(NetworkError):
            client.request("10.0.0.1", 80, b"x")

    def test_invalid_port(self, net):
        server = net.add_host("server", "10.0.0.1")
        with pytest.raises(NetworkError):
            server.listen(0, _echo)


class TestFirewall:
    def test_revelio_policy_blocks_ssh(self):
        firewall = Firewall.from_network_policy(NetworkPolicy())
        assert firewall.allows_inbound(443)
        assert firewall.allows_inbound(8080)  # Revelio bootstrap endpoint
        assert not firewall.allows_inbound(22)
        assert not firewall.allows_inbound(9999)

    def test_ssh_must_be_explicitly_enabled(self):
        # Port 22 listed but ssh_enabled False -> still blocked.
        firewall = Firewall(allowed_inbound_ports=(443, 22), ssh_enabled=False)
        assert not firewall.allows_inbound(22)
        enabled = Firewall(allowed_inbound_ports=(443,), ssh_enabled=True)
        assert enabled.allows_inbound(22)

    def test_open_firewalls_share_one_port_tuple(self):
        first, second = Firewall.open_firewall(), Firewall.open_firewall()
        assert first.allowed_inbound_ports is second.allowed_inbound_ports
        for port, allowed in ((0, False), (1, True), (22, True), (443, True),
                              (65535, True), (65536, False)):
            assert first.allows_inbound(port) is allowed

    def test_network_enforces_firewall(self):
        net = Network(ZERO_LATENCY)
        vm = net.add_host(
            "revelio-vm", "10.0.0.1",
            firewall=Firewall.from_network_policy(NetworkPolicy()),
        )
        attacker = net.add_host("attacker", "10.6.6.6")
        vm.listen(443, _echo)
        assert attacker.request("10.0.0.1", 443, b"ok") == b"echo:ok"
        with pytest.raises(ConnectionRefused):
            attacker.request("10.0.0.1", 22, b"ssh")


class TestInterceptors:
    @pytest.fixture
    def net(self):
        return Network(ZERO_LATENCY)

    def test_redirect(self, net):
        honest = net.add_host("honest", "10.0.0.1")
        evil = net.add_host("evil", "10.6.6.6")
        client = net.add_host("client", "10.0.0.2")
        honest.listen(80, lambda p, c: b"honest")
        evil.listen(80, lambda p, c: b"evil")
        net.add_interceptor(
            lambda src, dst, port, payload: (src, "10.6.6.6", port, payload)
            if dst == "10.0.0.1"
            else (src, dst, port, payload)
        )
        assert client.request("10.0.0.1", 80, b"x") == b"evil"

    def test_tamper(self, net):
        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(80, _echo)
        net.add_interceptor(lambda s, d, p, payload: (s, d, p, b"tampered"))
        assert client.request("10.0.0.1", 80, b"original") == b"echo:tampered"

    def test_drop(self, net):
        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(80, _echo)
        net.add_interceptor(lambda s, d, p, payload: None)
        with pytest.raises(NetworkError, match="dropped"):
            client.request("10.0.0.1", 80, b"x")

    def test_remove_interceptor(self, net):
        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(80, _echo)
        dropper = lambda s, d, p, payload: None  # noqa: E731
        net.add_interceptor(dropper)
        net.remove_interceptor(dropper)
        assert client.request("10.0.0.1", 80, b"x") == b"echo:x"


class TestClockAndLatency:
    def test_rtt_charged(self):
        net = Network(LatencyModel(base_rtt=0.01))
        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(80, _echo)
        client.request("10.0.0.1", 80, b"x")
        client.request("10.0.0.1", 80, b"x")
        assert net.clock.now == pytest.approx(0.02)

    def test_processing_time_charged(self):
        net = Network(LatencyModel(base_rtt=0.0))

        def slow(payload, context):
            context.add_processing_time(0.5)
            return b"done"

        server = net.add_host("server", "10.0.0.1")
        client = net.add_host("client", "10.0.0.2")
        server.listen(80, slow)
        client.request("10.0.0.1", 80, b"x")
        assert net.clock.now == pytest.approx(0.5)

    def test_pair_override(self):
        model = LatencyModel(base_rtt=0.005, pair_rtt={("client", "kds"): 0.4})
        assert model.rtt("client", "kds") == 0.4
        assert model.rtt("kds", "client") == 0.4
        assert model.rtt("client", "server") == 0.005

    def test_clock_monotonic(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestRegions:
    def _model(self):
        return LatencyModel(
            base_rtt=0.005,
            pair_rtt={("client", "kds"): 0.4},
            region_rtt={("us-east", "eu"): 0.08},
        )

    def test_cross_region_uses_region_map_either_order(self):
        model = self._model()
        assert model.rtt_between("a", "b", "us-east", "eu") == 0.08
        assert model.rtt_between("a", "b", "eu", "us-east") == 0.08

    def test_same_or_missing_region_uses_base(self):
        model = self._model()
        assert model.rtt_between("a", "b", "eu", "eu") == 0.005
        assert model.rtt_between("a", "b", None, "eu") == 0.005
        assert model.rtt_between("a", "b", "us-east", None) == 0.005
        assert model.rtt_between("a", "b") == 0.005

    def test_unmapped_region_pair_falls_back_to_base(self):
        model = self._model()
        assert model.rtt_between("a", "b", "us-east", "ap") == 0.005

    def test_pair_override_beats_region_map(self):
        model = self._model()
        assert model.rtt_between("client", "kds", "us-east", "eu") == 0.4
        assert model.rtt_between("kds", "client", "eu", "us-east") == 0.4

    def test_network_charges_region_rtt_on_exchange(self):
        net = Network(self._model())
        server = net.add_host("server", "10.0.0.1", region="eu")
        client = net.add_host("client", "10.0.0.2", region="us-east")
        local = net.add_host("local", "10.0.0.3", region="eu")
        server.listen(80, _echo)
        client.request("10.0.0.1", 80, b"x")
        assert net.clock.now == pytest.approx(0.08)
        local.request("10.0.0.1", 80, b"x")
        assert net.clock.now == pytest.approx(0.085)
        assert net.rtt_between(client, server) == 0.08
        assert net.rtt_between(local, server) == 0.005


class TestDns:
    def test_register_resolve(self):
        dns = DnsRegistry()
        dns.register("example.com", "10.0.0.1")
        assert dns.resolve("example.com") == "10.0.0.1"
        assert dns.resolve("EXAMPLE.COM") == "10.0.0.1"

    def test_nxdomain(self):
        with pytest.raises(DnsError):
            DnsRegistry().resolve("missing.example")

    def test_txt_records(self):
        dns = DnsRegistry()
        dns.set_txt("_acme-challenge.example.com", ["token123"])
        assert dns.get_txt("_acme-challenge.example.com") == ["token123"]
        assert dns.get_txt("other.example.com") == []

    def test_redirect_attack(self):
        dns = DnsRegistry()
        dns.register("service.example", "10.0.0.1")
        previous = dns.redirect("service.example", "10.6.6.6")
        assert previous == ["10.0.0.1"]
        assert dns.resolve("service.example") == "10.6.6.6"

    def test_round_robin(self):
        dns = DnsRegistry()
        dns.register("fleet.example", ["10.0.0.1", "10.0.0.2"])
        dns.add_record("fleet.example", "10.0.0.3")
        seen = [dns.resolve("fleet.example") for _ in range(6)]
        assert seen == ["10.0.0.1", "10.0.0.2", "10.0.0.3"] * 2
        assert dns.resolve_all("fleet.example") == [
            "10.0.0.1", "10.0.0.2", "10.0.0.3",
        ]

    def test_empty_record_set_rejected(self):
        import pytest as _pytest

        with _pytest.raises(DnsError):
            DnsRegistry().register("x.example", [])
