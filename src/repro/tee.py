"""The hardware-agnostic TEE evidence layer.

Revelio's design is TEE-portable (paper section 1: "Revelio can be
deployed in a hardware-agnostic fashion, as long as the TEE follows the
VM model").  This module is the *thin* convenience seam over the
family-dispatched engine in :mod:`repro.attest`: evidence from
different VM-model TEEs is wrapped in a tagged envelope, and a
:class:`TeeVerifier` reduces every technology to the same question —
*does this evidence bind (measurement, report_data) to a genuine
platform?* — by running the registered
:mod:`repro.attest.families` step provider for the evidence kind.

Shipped backends: AMD SEV-SNP (:mod:`repro.amd`), Intel TDX
(:mod:`repro.tdx`), ARM CCA (:mod:`repro.cca`), and the SNP-endorsed
e-vTPM (:mod:`repro.vtpm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .attest import (
    AttestationVerifier,
    CcaTrust,
    Evidence,
    FamilyPolicy,
    TdxTrust,
    TeeFamily,
    VerificationPolicy,
    provider_for,
    registered_families,
)
from .crypto import encoding

KIND_SEV_SNP = str(TeeFamily.SEV_SNP)
KIND_TDX = str(TeeFamily.TDX)
KIND_CCA = str(TeeFamily.CCA)
KIND_VTPM = str(TeeFamily.VTPM)


class TeeError(RuntimeError):
    """Evidence envelope or verification failures."""


@dataclass(frozen=True)
class TeeEvidence:
    """A tagged evidence envelope."""

    kind: str
    body: bytes  # encoded AttestationReport, TdQuote, CcaToken, ...

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode({"kind": self.kind, "body": self.body})

    @classmethod
    def decode(cls, data: bytes) -> "TeeEvidence":
        """Parse an instance back out of canonical TLV bytes."""
        try:
            decoded = encoding.decode(data)
            return cls(kind=decoded["kind"], body=decoded["body"])
        except (ValueError, KeyError, TypeError) as exc:
            raise TeeError("malformed evidence envelope") from exc


@dataclass(frozen=True)
class VerifiedEvidence:
    """The technology-independent verification outcome."""

    kind: str
    measurement: bytes
    report_data: bytes


def _normalize_context(kind: str, context):
    """Adapt the historical raw context conventions — a bare KdsClient
    for SNP, a bare PCS handle for TDX, a ``(cpak_lookup, anchors)``
    pair for CCA — to the engine's trust-context types."""
    if kind == KIND_TDX and not isinstance(context, TdxTrust):
        return TdxTrust(context)
    if kind == KIND_CCA and isinstance(context, (tuple, list)):
        lookup, anchors = context
        return CcaTrust(lookup, tuple(anchors))
    return context


class TeeVerifier:
    """A verifier holding per-technology trust material.

    ``contexts`` maps evidence kind to whatever that technology's
    verifier needs (a KdsClient for SNP, a PCS handle for TDX, a
    ``(cpak_lookup, anchors)`` pair for CCA, a
    :class:`~repro.attest.VtpmTrust` for the e-vTPM).
    """

    def __init__(self, contexts: Dict[str, object]):
        self._contexts = {
            str(kind): _normalize_context(str(kind), context)
            for kind, context in contexts.items()
        }
        self._engine = AttestationVerifier(
            self._contexts.get(KIND_SEV_SNP),
            site="tee",
            contexts=self._contexts,
        )

    def supported_kinds(self) -> Iterable[str]:
        """Evidence kinds this verifier can handle."""
        known = {str(family) for family in registered_families()}
        return sorted(set(self._contexts) & known)

    def verify(
        self,
        evidence: TeeEvidence,
        now: int,
        expected_measurements: Iterable[bytes],
        expected_report_data: Optional[bytes] = None,
    ) -> VerifiedEvidence:
        """Dispatch on evidence kind; raise :class:`TeeError` on failure."""
        if evidence.kind not in set(self.supported_kinds()):
            raise TeeError(f"no verifier configured for {evidence.kind!r}")
        policy = VerificationPolicy(
            expected_report_data=expected_report_data,
            families={
                evidence.kind: FamilyPolicy(
                    golden_measurements=[bytes(m) for m in expected_measurements]
                )
            },
        )
        outcome = self._engine.verify(
            Evidence(evidence.kind, evidence.body),
            now=now,
            policy=policy,
            site=f"tee:{evidence.kind}",
        )
        if not outcome.ok:
            raise TeeError(
                f"{evidence.kind} verification failed: "
                f"{outcome.reason}: {outcome.detail}"
            )
        provider = provider_for(TeeFamily(evidence.kind))
        return VerifiedEvidence(
            kind=evidence.kind,
            measurement=provider.measurement(outcome.report),
            report_data=provider.report_data(outcome.report),
        )


def snp_evidence(report) -> TeeEvidence:
    """Wrap an SNP attestation report."""
    return TeeEvidence(kind=KIND_SEV_SNP, body=report.encode())


def tdx_evidence(quote) -> TeeEvidence:
    """Wrap a TDX quote."""
    return TeeEvidence(kind=KIND_TDX, body=quote.encode())


def cca_evidence(token) -> TeeEvidence:
    """Wrap a CCA token bundle."""
    return TeeEvidence(kind=KIND_CCA, body=token.encode())


def vtpm_evidence(monitoring_evidence) -> TeeEvidence:
    """Wrap an e-vTPM monitoring-evidence bundle."""
    return TeeEvidence(kind=KIND_VTPM, body=monitoring_evidence.encode())
