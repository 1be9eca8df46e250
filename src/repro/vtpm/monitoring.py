"""Runtime monitoring of Revelio VMs via the vTPM.

Glue between the vTPM and the Revelio guest/verifier:

* the ``vtpm-init`` init step (opt-in per image — and therefore part of
  the measured initrd) attaches a vTPM to the VM and endorses its AK
  with an AMD-SP report,
* :func:`measure_service_start` records application service launches
  into PCR 8,
* :class:`RuntimeMonitor` is the verifier: it challenges the VM with a
  nonce, receives (quote, event log, AK endorsement), validates the AK
  against the hardware RoT, replays the log, and checks the observed
  runtime events against an allow-list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..amd.report import AttestationReport
from ..attest import (
    STEP_QUOTE_LOG,
    STEP_QUOTE_SIGNATURE,
    STEP_REPORT_DATA,
    STEP_SERVICE_ALLOWLIST,
    AttestationVerifier,
    FamilyPolicy,
    TeeFamily,
    VerificationPolicy,
    VtpmTrust,
    vtpm_evidence,
)
from ..crypto import encoding
from ..crypto.ecdsa import EcdsaPublicKey
from ..virt.image import register_init_step
from ..virt.vm import VirtualMachine
from .vtpm import (
    PCR_SERVICES,
    EventLogEntry,
    Quote,
    Vtpm,
    VtpmError,
)
from ..core.kds_client import KdsClient
from ..core.key_sharing import report_data_for


@register_init_step("vtpm-init")
def _init_vtpm(vm: VirtualMachine) -> None:
    """Attach a vTPM and endorse its AK with the AMD-SP (e-vTPM)."""
    vtpm = Vtpm(vm.rng.fork(b"vtpm"))
    endorsement = vm.guest.get_report(
        report_data_for(
            hashlib.sha256(vtpm.ak_public.encode()).digest()
        )
    )
    vm.services["vtpm"] = vtpm
    vm.services["vtpm_ak_endorsement"] = endorsement


def vm_vtpm(vm: VirtualMachine) -> Vtpm:
    """The VM's attached vTPM (raises if the image lacks vtpm-init)."""
    vtpm = vm.services.get("vtpm")
    if vtpm is None:
        raise VtpmError("VM has no vTPM (image built without vtpm-init)")
    return vtpm


def measure_service_start(vm: VirtualMachine, name: str, binary: bytes) -> None:
    """Record a service start in PCR 8 (call before launching it)."""
    vm_vtpm(vm).measure_event(
        PCR_SERVICES, binary, description=f"service-start:{name}"
    )


@dataclass(frozen=True)
class MonitoringEvidence:
    """What the VM returns for a monitoring challenge."""

    quote: Quote
    event_log: List[EventLogEntry]
    ak_public: EcdsaPublicKey
    ak_endorsement: AttestationReport

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode(
            {
                "quote": self.quote.encode(),
                "log": [entry.to_dict() for entry in self.event_log],
                "ak": self.ak_public.encode(),
                "endorsement": self.ak_endorsement.encode(),
            }
        )

    @classmethod
    def decode(cls, data: bytes) -> "MonitoringEvidence":
        """Parse an instance back out of canonical TLV bytes."""
        decoded = encoding.decode(data)
        return cls(
            quote=Quote.decode(decoded["quote"]),
            event_log=[EventLogEntry.from_dict(e) for e in decoded["log"]],
            ak_public=EcdsaPublicKey.decode(decoded["ak"]),
            ak_endorsement=AttestationReport.decode(decoded["endorsement"]),
        )


def produce_evidence(vm: VirtualMachine, nonce: bytes) -> MonitoringEvidence:
    """Guest side: answer a monitoring challenge."""
    vtpm = vm_vtpm(vm)
    return MonitoringEvidence(
        quote=vtpm.quote(nonce, [PCR_SERVICES]),
        event_log=list(vtpm.event_log),
        ak_public=vtpm.ak_public,
        ak_endorsement=vm.services["vtpm_ak_endorsement"],
    )


#: Quote-side pipeline steps whose failures surface as the historical
#: :class:`VtpmError` (endorsement-side failures keep raising
#: :class:`~repro.amd.verify.AttestationError`).
_QUOTE_SIDE_STEPS = frozenset(
    {STEP_REPORT_DATA, STEP_QUOTE_SIGNATURE, STEP_QUOTE_LOG, STEP_SERVICE_ALLOWLIST}
)


class RuntimeMonitor:
    """The verifier tracking a VM's runtime state over its lifetime."""

    def __init__(
        self,
        kds: KdsClient,
        expected_measurement: bytes,
        allowed_service_digests: Optional[Iterable[bytes]] = None,
    ):
        self.kds = kds
        self.expected_measurement = bytes(expected_measurement)
        self.allowed_service_digests = (
            {bytes(d) for d in allowed_service_digests}
            if allowed_service_digests is not None
            else None
        )
        #: The full bundle — AK endorsement *and* quote/log half — runs
        #: through the unified pipeline's e-vTPM step provider.
        self.verifier = AttestationVerifier(
            kds,
            site="vtpm_monitor",
            contexts={
                TeeFamily.VTPM: VtpmTrust(
                    kds, allowed_service_digests=self.allowed_service_digests
                )
            },
        )

    def verify(self, evidence: MonitoringEvidence, nonce: bytes, now: int) -> None:
        """Validate evidence end to end; raises :class:`VtpmError` or
        :class:`~repro.amd.verify.AttestationError` on any failure."""
        policy = VerificationPolicy(
            expected_report_data=nonce,
            families={
                str(TeeFamily.VTPM): FamilyPolicy(
                    golden_measurements=[self.expected_measurement]
                )
            },
        )
        outcome = self.verifier.verify(
            vtpm_evidence(evidence), now=now, policy=policy
        )
        failure = outcome.failure
        if failure is None:
            return
        if failure.name in _QUOTE_SIDE_STEPS:
            raise VtpmError(failure.detail)
        outcome.raise_for_failure()
