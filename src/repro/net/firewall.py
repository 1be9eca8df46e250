"""Host firewalls: the network lockdown of requirement F4.

A Revelio VM's firewall configuration is part of the measured rootfs
(``/etc/revelio/network.conf``), so "just open ssh" is not something a
service provider can do after attestation — the config they ship is
what end-users verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

SSH_PORT = 22

# Every open firewall shares this one tuple rather than building its own.
_ALL_PORTS = tuple(range(1, 65536))


class ConnectionRefused(ConnectionError):
    """The destination host's firewall dropped the connection."""


@dataclass(frozen=True)
class Firewall:
    """Inbound filtering rules for one host."""

    allowed_inbound_ports: Tuple[int, ...] = (443,)
    ssh_enabled: bool = False
    allow_outbound: bool = True

    def allows_inbound(self, port: int) -> bool:
        """Whether the firewall admits inbound traffic on a port."""
        if port == SSH_PORT:
            return self.ssh_enabled
        return port in self.allowed_inbound_ports

    def check_inbound(self, port: int, host_name: str = "") -> None:
        """Raise ConnectionRefused unless the port is admitted."""
        if not self.allows_inbound(port):
            raise ConnectionRefused(
                f"connection to {host_name or 'host'}:{port} refused by firewall"
            )

    @classmethod
    def open_firewall(cls) -> "Firewall":
        """An allow-everything firewall (ordinary, non-Revelio hosts)."""
        return cls(allowed_inbound_ports=_ALL_PORTS, ssh_enabled=True)

    @classmethod
    def from_network_policy(cls, policy) -> "Firewall":
        """Build from a :class:`repro.build.image_builder.NetworkPolicy`
        (the measured policy baked into the rootfs at
        ``/etc/revelio/network.conf``).

        Raises :class:`TypeError` for anything else — a guest must not
        silently accept a look-alike policy object from an unmeasured
        source.  The import is lazy because ``repro.net`` is otherwise
        independent of the build layer.
        """
        from ..build.image_builder import NetworkPolicy

        if not isinstance(policy, NetworkPolicy):
            raise TypeError(
                "from_network_policy expects a repro.build.NetworkPolicy, "
                f"got {type(policy).__name__}"
            )
        return cls(
            allowed_inbound_ports=tuple(policy.allowed_inbound_ports),
            ssh_enabled=policy.ssh_enabled,
            allow_outbound=policy.allow_outbound,
        )
