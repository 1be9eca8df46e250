"""Per-TEE-family step providers for the unified verification engine.

Each supported :class:`~repro.attest.evidence.TeeFamily` registers a
:class:`StepProvider` that adapts its native verification primitives
(:mod:`repro.amd.verify`, :mod:`repro.tdx.module`,
:mod:`repro.cca.realms`, :mod:`repro.vtpm.vtpm`) into the engine's
ordered ``(step name, check callable)`` pipeline.  The engine stays
family-agnostic: it asks the provider to decode the evidence body, then
runs whatever steps the provider yields, recording each one with the
same :class:`~repro.attest.engine.StepRecord` machinery.

The step-name constants and the stable reason-code taxonomy live here
(re-exported by :mod:`repro.attest.engine` for compatibility).  Shared
checks keep their SNP-era names and codes across families — a TDX MRTD
not in the golden set fails ``measurement`` with
``measurement_mismatch``, exactly like an SNP launch digest — so policy
violations map to the *same* reason code in every family.  Checks with
no SNP analogue get family-scoped names (``lifecycle``, ``rak_binding``,
``quote_log``, ...).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..amd.report import AttestationReport, ReportError
from ..amd.verify import (
    AttestationError,
    check_certificate_chain,
    check_chip_id_allowed,
    check_chip_id_binding,
    check_debug_policy,
    check_measurement,
    check_minimum_tcb,
    check_report_data,
    check_signature,
    check_tcb_binding,
)
from ..crypto import sigcache
from ..crypto.x509 import (
    Certificate,
    CertificateError,
    _find_anchor_for,
    validate_chain,
)
from .evidence import TeeFamily
from .policy import FamilyPolicy, VerificationPolicy

# -- step names ----------------------------------------------------------------
#
# The SNP pipeline's original step vocabulary (PR 2), now shared by
# every family that runs the equivalent check.

STEP_REVOCATION = "revocation"
STEP_VCEK_FETCH = "vcek_fetch"
STEP_CERT_CHAIN = "cert_chain"
STEP_CHIP_ID_BINDING = "chip_id_binding"
STEP_TCB_BINDING = "tcb_binding"
STEP_SIGNATURE = "signature"
STEP_DEBUG_POLICY = "debug_policy"
STEP_MEASUREMENT = "measurement"
STEP_REPORT_DATA = "report_data"
STEP_CHIP_ID_ALLOWLIST = "chip_id_allowlist"
STEP_TCB_FLOOR = "tcb_floor"

# Family-dispatch steps run by the engine before any provider step.
STEP_FAMILY_ALLOWED = "family_allowed"
STEP_EVIDENCE_DECODE = "evidence_decode"
STEP_TRUST_CONTEXT = "trust_context"

# Speculative verify-farm pass (engine-emitted, farm-wired runs only):
# endorsement fetch + one batched settlement of every signature the
# pipeline is about to check.
STEP_BATCH_PREPARE = "batch_prepare"

# Family-specific checks with no SNP analogue.
STEP_FAMILY_TCB_FLOOR = "family_tcb_floor"
STEP_ENDORSEMENT_FETCH = "endorsement_fetch"
STEP_PLATFORM_SIGNATURE = "platform_signature"
STEP_LIFECYCLE = "lifecycle"
STEP_RAK_BINDING = "rak_binding"
STEP_AK_ENDORSEMENT = "ak_endorsement"
STEP_QUOTE_SIGNATURE = "quote_signature"
STEP_QUOTE_LOG = "quote_log"
STEP_SERVICE_ALLOWLIST = "service_allowlist"

#: The SNP pipeline in execution order; optional steps are skipped
#: (not recorded) when the policy does not configure them.
STEP_ORDER: Tuple[str, ...] = (
    STEP_REVOCATION,
    STEP_VCEK_FETCH,
    STEP_CERT_CHAIN,
    STEP_CHIP_ID_BINDING,
    STEP_TCB_BINDING,
    STEP_SIGNATURE,
    STEP_DEBUG_POLICY,
    STEP_MEASUREMENT,
    STEP_REPORT_DATA,
    STEP_CHIP_ID_ALLOWLIST,
    STEP_TCB_FLOOR,
)


def _report_data_for(payload_digest: bytes) -> bytes:
    """A 32-byte digest in the 64-byte REPORT_DATA field (the
    :func:`repro.core.key_sharing.report_data_for` convention, local to
    avoid a layering cycle)."""
    return payload_digest + b"\x00" * 32


def _chain_signature_jobs(chain, anchors) -> list:
    """The ``(issuer key, tbs bytes, signature, hash)`` equations
    :func:`~repro.crypto.x509.validate_chain` will check for *chain*
    (leaf first) against *anchors* — mirrored exactly, so verify-farm
    batch verdicts land on the same signature-cache keys the chain walk
    looks up.  Link structure that the walk would reject (issuer
    mismatch, missing signature) stops enumeration: the pipeline step
    reports those failures itself."""
    jobs = []
    for child, parent in zip(chain, chain[1:]):
        if child.issuer != parent.subject or not child.signature:
            return jobs
        jobs.append(
            (parent.public_key, child.tbs_bytes(), child.signature,
             child.signature_hash)
        )
    top = chain[-1]
    anchor_map = {anchor.fingerprint(): anchor for anchor in anchors}
    if top.fingerprint() not in anchor_map and top.signature:
        anchor = _find_anchor_for(top, anchor_map.values())
        if anchor is not None:
            jobs.append(
                (anchor.public_key, top.tbs_bytes(), top.signature,
                 top.signature_hash)
            )
    return jobs


# -- trust contexts ------------------------------------------------------------
#
# What each family's verifier needs beyond the policy.  SEV-SNP and the
# e-vTPM use the KDS client the engine already holds; the others carry
# their own endorsement services.


@dataclass
class TdxTrust:
    """Verifier-side trust material for Intel TDX."""

    #: A :class:`~repro.tdx.module.ProvisioningCertificationService`.
    pcs: object
    #: Pinned anchors; ``None`` defaults to the PCS root certificate.
    trust_anchors: Optional[Tuple[Certificate, ...]] = None


@dataclass
class CcaTrust:
    """Verifier-side trust material for ARM CCA."""

    #: ``cpak_lookup(platform_id) -> Certificate`` (the CPAK endorsement).
    cpak_lookup: Callable[[bytes], Certificate]
    #: Pinned ARM root anchors.
    trust_anchors: Tuple[Certificate, ...] = ()


@dataclass
class VtpmTrust:
    """Verifier-side trust material for the SNP-endorsed e-vTPM."""

    #: The KDS client validating the AK endorsement report.
    kds: object
    #: Runtime-event allow-list; ``None`` skips the check.
    allowed_service_digests: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.allowed_service_digests is not None:
            self.allowed_service_digests = frozenset(
                bytes(d) for d in self.allowed_service_digests
            )


# -- provider protocol and registry --------------------------------------------


class StepProvider:
    """One family's adapter: decode native evidence, yield check steps."""

    family: TeeFamily

    def decode(self, body: bytes):
        """Parse the envelope body into the family's native evidence;
        raise ``AttestationError("evidence_malformed", ...)`` on junk."""
        raise NotImplementedError

    def measurement(self, native) -> bytes:
        """The native evidence's launch measurement."""
        raise NotImplementedError

    def report_data(self, native) -> bytes:
        """The native evidence's challenge/REPORT_DATA binding."""
        raise NotImplementedError

    def steps(
        self,
        native,
        now: int,
        policy: VerificationPolicy,
        fam: FamilyPolicy,
        context,
        state: dict,
    ) -> Iterator[Tuple[str, Callable[[], None]]]:
        """Yield ``(step name, check)`` pairs in verification order."""
        raise NotImplementedError

    def signature_jobs(
        self,
        native,
        now: int,
        policy: VerificationPolicy,
        fam: FamilyPolicy,
        context,
        state: dict,
    ) -> list:
        """The speculative verify-farm pass: fetch endorsements into
        *state* (so the pipeline's fetch step becomes a no-op) and
        return every ``(key, message, signature, hash_name)`` the step
        list is about to verify, for one batched settlement.  Families
        that cannot prejudge (fetch failure, custom signature formats)
        return ``[]`` and the pipeline runs — and fails — normally."""
        return []


_PROVIDERS: Dict[TeeFamily, StepProvider] = {}


def register_step_provider(provider: StepProvider) -> StepProvider:
    """Register a family's step provider (module import time)."""
    _PROVIDERS[provider.family] = provider
    return provider


def provider_for(family: TeeFamily) -> Optional[StepProvider]:
    """The registered provider for *family* (None if unknown)."""
    return _PROVIDERS.get(family)


def registered_families() -> Tuple[TeeFamily, ...]:
    """Every family with a registered provider."""
    return tuple(_PROVIDERS)


def _malformed(exc: Exception) -> AttestationError:
    return AttestationError("evidence_malformed", f"undecodable evidence: {exc}")


# -- SEV-SNP -------------------------------------------------------------------


class SnpStepProvider(StepProvider):
    """The original PR-2 pipeline, expressed as a step provider.

    *context* is the engine's :class:`~repro.core.kds_client.KdsClient`.
    The step sequence is the historical SNP-only engine's, plus a
    trailing ``family_tcb_floor`` step when the SNP entry sets a floor.
    """

    family = TeeFamily.SEV_SNP

    def decode(self, body: bytes) -> AttestationReport:
        try:
            return AttestationReport.decode(body)
        except (ReportError, ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native: AttestationReport) -> bytes:
        return native.measurement

    def report_data(self, native: AttestationReport) -> bytes:
        return native.report_data

    def signature_jobs(self, report, now, policy, fam, kds, state):
        try:
            state["vcek"] = kds.get_vcek(report.chip_id, report.reported_tcb)
            state["chain"] = kds.cert_chain()
        except LookupError:
            return []  # the vcek_fetch step reports unknown_platform
        anchors = (
            list(fam.trust_anchors)
            if fam.trust_anchors is not None
            else [kds.trust_anchor]
        )
        jobs = _chain_signature_jobs(
            [state["vcek"], *state["chain"]], anchors
        )
        vcek_key = state["vcek"].public_key
        if vcek_key.algorithm == "ecdsa" and report.signature:
            jobs.append(
                (vcek_key.inner, report.signed_bytes(), report.signature,
                 "sha384")
            )
        return jobs

    def steps(self, report, now, policy, fam, kds, state):
        revoked = {bytes(m) for m in fam.revoked_measurements}

        def revocation():
            if bytes(report.measurement) in revoked:
                raise AttestationError(
                    "measurement_revoked",
                    "measurement has been revoked (rollback?)",
                )

        if revoked:
            yield STEP_REVOCATION, revocation

        def vcek_fetch():
            if state["vcek"] is not None and state["chain"] is not None:
                return  # the verify-farm prepare pass already fetched
            try:
                state["vcek"] = kds.get_vcek(report.chip_id, report.reported_tcb)
                state["chain"] = kds.cert_chain()
            except LookupError as exc:
                raise AttestationError(
                    "unknown_platform", f"KDS has no VCEK for this chip: {exc}"
                ) from exc

        yield STEP_VCEK_FETCH, vcek_fetch

        anchors = (
            list(fam.trust_anchors)
            if fam.trust_anchors is not None
            else [kds.trust_anchor]
        )
        yield STEP_CERT_CHAIN, lambda: check_certificate_chain(
            state["vcek"], state["chain"], anchors, now
        )
        yield STEP_CHIP_ID_BINDING, lambda: check_chip_id_binding(
            report, state["vcek"]
        )
        yield STEP_TCB_BINDING, lambda: check_tcb_binding(report, state["vcek"])
        yield STEP_SIGNATURE, lambda: check_signature(report, state["vcek"])
        yield STEP_DEBUG_POLICY, lambda: check_debug_policy(
            report, policy.allow_debug
        )

        golden = fam.effective_golden()
        if golden is not None:
            yield STEP_MEASUREMENT, lambda: check_measurement(report, golden)
        if policy.expected_report_data is not None:
            yield STEP_REPORT_DATA, lambda: check_report_data(
                report, policy.expected_report_data
            )
        if policy.allowed_chip_ids is not None:
            yield STEP_CHIP_ID_ALLOWLIST, lambda: check_chip_id_allowed(
                report, policy.allowed_chip_ids
            )
        if policy.minimum_tcb is not None:
            yield STEP_TCB_FLOOR, lambda: check_minimum_tcb(
                report, policy.minimum_tcb
            )

        def family_tcb_floor():
            try:
                check_minimum_tcb(report, fam.minimum_tcb)
            except AttestationError as exc:
                raise AttestationError("family_tcb_floor", exc.detail) from exc

        if fam.minimum_tcb is not None:
            yield STEP_FAMILY_TCB_FLOOR, family_tcb_floor


# -- Intel TDX -----------------------------------------------------------------


class TdxStepProvider(StepProvider):
    """TDX quote verification (the go-tdx-guest flow) as engine steps.

    *context* is a :class:`TdxTrust` (or a bare PCS handle).
    """

    family = TeeFamily.TDX

    def decode(self, body: bytes):
        from ..tdx.module import TdQuote

        try:
            return TdQuote.decode(body)
        except (ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native) -> bytes:
        return native.mrtd

    def report_data(self, native) -> bytes:
        return native.report_data

    def signature_jobs(self, quote, now, policy, fam, context, state):
        from ..tdx.module import TdxError

        trust = context if isinstance(context, TdxTrust) else TdxTrust(context)
        pcs = trust.pcs
        try:
            state["vcek"] = pcs.get_pck_certificate(
                quote.platform_id, quote.tee_tcb_svn
            )
            state["chain"] = pcs.cert_chain()
        except (TdxError, LookupError):
            return []  # the endorsement_fetch step reports unknown_platform
        anchors = (
            fam.trust_anchors or trust.trust_anchors or (pcs.root_certificate,)
        )
        jobs = _chain_signature_jobs(
            [state["vcek"], *state["chain"]], list(anchors)
        )
        if quote.signature:
            jobs.append(
                (state["vcek"].public_key, quote.signed_payload(),
                 quote.signature, "sha384")
            )
        return jobs

    def steps(self, quote, now, policy, fam, context, state):
        from ..tdx.module import TdxError

        trust = context if isinstance(context, TdxTrust) else TdxTrust(context)
        pcs = trust.pcs
        revoked = {bytes(m) for m in fam.revoked_measurements}

        def revocation():
            if bytes(quote.mrtd) in revoked:
                raise AttestationError(
                    "measurement_revoked",
                    "measurement has been revoked (rollback?)",
                )

        if revoked:
            yield STEP_REVOCATION, revocation

        def endorsement_fetch():
            if state["vcek"] is not None and state["chain"] is not None:
                return  # the verify-farm prepare pass already fetched
            try:
                state["vcek"] = pcs.get_pck_certificate(
                    quote.platform_id, quote.tee_tcb_svn
                )
                state["chain"] = pcs.cert_chain()
            except (TdxError, LookupError) as exc:
                raise AttestationError(
                    "unknown_platform", f"PCS has no PCK for this platform: {exc}"
                ) from exc

        yield STEP_ENDORSEMENT_FETCH, endorsement_fetch

        anchors = (
            fam.trust_anchors
            or trust.trust_anchors
            or (pcs.root_certificate,)
        )

        def cert_chain():
            try:
                validate_chain(
                    [state["vcek"], *state["chain"]], list(anchors), now=now
                )
            except CertificateError as exc:
                raise AttestationError("bad_cert_chain", str(exc)) from exc

        yield STEP_CERT_CHAIN, cert_chain

        def chip_id_binding():
            cert_platform = state["vcek"].extension("intel.platform_id")
            if cert_platform is None or cert_platform != quote.platform_id:
                raise AttestationError(
                    "chip_id_mismatch",
                    "PCK certificate platform id does not match the quote",
                )

        yield STEP_CHIP_ID_BINDING, chip_id_binding

        def tcb_binding():
            cert_svn = state["vcek"].extension("intel.tcb_svn")
            if (
                cert_svn is None
                or int.from_bytes(cert_svn, "little") != quote.tee_tcb_svn
            ):
                raise AttestationError(
                    "tcb_mismatch", "PCK certificate TCB SVN mismatch"
                )

        yield STEP_TCB_BINDING, tcb_binding

        def signature():
            if not state["vcek"].public_key.verify(
                quote.signed_payload(), quote.signature, "sha384"
            ):
                raise AttestationError(
                    "bad_signature",
                    "quote signature does not verify under the PCK",
                )

        yield STEP_SIGNATURE, signature

        golden = fam.effective_golden()

        def measurement():
            if bytes(quote.mrtd) not in golden:
                raise AttestationError(
                    "measurement_mismatch",
                    f"measurement {quote.mrtd.hex()[:16]}... is not in the "
                    f"golden set ({len(golden)} value(s))",
                )

        if golden is not None:
            yield STEP_MEASUREMENT, measurement

        def report_data():
            if quote.report_data != policy.expected_report_data:
                raise AttestationError(
                    "report_data_mismatch",
                    "REPORT_DATA does not match expectation",
                )

        if policy.expected_report_data is not None:
            yield STEP_REPORT_DATA, report_data

        def family_tcb_floor():
            if quote.tee_tcb_svn < fam.minimum_tcb:
                raise AttestationError(
                    "family_tcb_floor",
                    "platform TCB below the required minimum",
                )

        if fam.minimum_tcb is not None:
            yield STEP_FAMILY_TCB_FLOOR, family_tcb_floor


# -- ARM CCA -------------------------------------------------------------------


class CcaStepProvider(StepProvider):
    """CCA two-token verification (token chaining) as engine steps.

    *context* is a :class:`CcaTrust`.
    """

    family = TeeFamily.CCA

    def decode(self, body: bytes):
        from ..cca.realms import CcaError, CcaToken

        try:
            return CcaToken.decode(body)
        except (CcaError, ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native) -> bytes:
        return native.realm_token.rim

    def report_data(self, native) -> bytes:
        return native.realm_token.challenge

    def signature_jobs(self, token, now, policy, fam, context, state):
        from ..cca.realms import CcaError
        from ..crypto.ecdsa import EcdsaPublicKey, SignatureError

        trust = (
            context
            if isinstance(context, CcaTrust)
            else CcaTrust(context[0], tuple(context[1]))
        )
        realm = token.realm_token
        platform = token.platform_token
        try:
            state["vcek"] = trust.cpak_lookup(platform.platform_id)
        except (CcaError, LookupError):
            return []  # the endorsement_fetch step reports unknown_platform
        anchors = fam.trust_anchors or tuple(trust.trust_anchors)
        jobs = _chain_signature_jobs([state["vcek"]], list(anchors))
        if platform.signature:
            jobs.append(
                (state["vcek"].public_key, platform.signed_payload(),
                 platform.signature, "sha384")
            )
        try:
            rak = EcdsaPublicKey.decode(realm.rak_public)
        except (SignatureError, ValueError):
            return jobs  # the signature step reports the bad RAK
        if realm.signature:
            jobs.append(
                (rak, realm.signed_payload(), realm.signature, "sha384")
            )
        return jobs

    def steps(self, token, now, policy, fam, context, state):
        from ..cca.realms import CcaError
        from ..crypto.ecdsa import EcdsaPublicKey

        trust = (
            context
            if isinstance(context, CcaTrust)
            else CcaTrust(context[0], tuple(context[1]))
        )
        realm = token.realm_token
        platform = token.platform_token
        revoked = {bytes(m) for m in fam.revoked_measurements}

        def revocation():
            if bytes(realm.rim) in revoked:
                raise AttestationError(
                    "measurement_revoked",
                    "measurement has been revoked (rollback?)",
                )

        if revoked:
            yield STEP_REVOCATION, revocation

        def endorsement_fetch():
            if state["vcek"] is not None:
                return  # the verify-farm prepare pass already fetched
            try:
                state["vcek"] = trust.cpak_lookup(platform.platform_id)
            except (CcaError, LookupError) as exc:
                raise AttestationError(
                    "unknown_platform", f"no CPAK for this platform: {exc}"
                ) from exc

        yield STEP_ENDORSEMENT_FETCH, endorsement_fetch

        anchors = fam.trust_anchors or tuple(trust.trust_anchors)

        def cert_chain():
            try:
                validate_chain([state["vcek"]], list(anchors), now=now)
            except CertificateError as exc:
                raise AttestationError("bad_cert_chain", str(exc)) from exc

        yield STEP_CERT_CHAIN, cert_chain

        def chip_id_binding():
            cert_platform = state["vcek"].extension("arm.platform_id")
            if cert_platform is None or cert_platform != platform.platform_id:
                raise AttestationError(
                    "chip_id_mismatch",
                    "CPAK certificate is for a different platform",
                )

        yield STEP_CHIP_ID_BINDING, chip_id_binding

        def platform_signature():
            if not state["vcek"].public_key.verify(
                platform.signed_payload(), platform.signature, "sha384"
            ):
                raise AttestationError(
                    "bad_signature", "platform token signature invalid"
                )

        yield STEP_PLATFORM_SIGNATURE, platform_signature

        def lifecycle():
            if platform.lifecycle_state != "secured":
                raise AttestationError(
                    "lifecycle_not_secured",
                    f"platform lifecycle is {platform.lifecycle_state!r}, "
                    "not secured",
                )

        yield STEP_LIFECYCLE, lifecycle

        def rak_binding():
            if hashlib.sha256(realm.rak_public).digest() != platform.rak_hash:
                raise AttestationError(
                    "rak_not_endorsed",
                    "platform token does not endorse this realm's RAK",
                )

        yield STEP_RAK_BINDING, rak_binding

        def signature():
            rak = EcdsaPublicKey.decode(realm.rak_public)
            if not sigcache.cached_verify(
                rak, realm.signed_payload(), realm.signature, "sha384"
            ):
                raise AttestationError(
                    "bad_signature", "realm token signature invalid"
                )

        yield STEP_SIGNATURE, signature

        golden = fam.effective_golden()

        def measurement():
            if bytes(realm.rim) not in golden:
                raise AttestationError(
                    "measurement_mismatch",
                    f"measurement {realm.rim.hex()[:16]}... is not in the "
                    f"golden set ({len(golden)} value(s))",
                )

        if golden is not None:
            yield STEP_MEASUREMENT, measurement

        def report_data():
            if realm.challenge != policy.expected_report_data:
                raise AttestationError(
                    "report_data_mismatch",
                    "REPORT_DATA does not match expectation",
                )

        if policy.expected_report_data is not None:
            yield STEP_REPORT_DATA, report_data

        def family_tcb_floor():
            if platform.platform_svn < fam.minimum_tcb:
                raise AttestationError(
                    "family_tcb_floor",
                    "platform TCB below the required minimum",
                )

        if fam.minimum_tcb is not None:
            yield STEP_FAMILY_TCB_FLOOR, family_tcb_floor


# -- SNP-endorsed e-vTPM -------------------------------------------------------


class VtpmStepProvider(StepProvider):
    """e-vTPM monitoring-evidence verification as engine steps.

    *context* is a :class:`VtpmTrust`.  The SNP endorsement report is
    verified with the full SNP sub-pipeline (the AK is only as strong
    as the hardware RoT vouching for it), then the quote/log half runs:
    nonce freshness, quote signature, event-log replay, and the runtime
    allow-list.  ``policy.expected_report_data`` binds the *quote
    nonce*; the endorsement's own REPORT_DATA binding to the AK is the
    dedicated ``ak_endorsement`` step.
    """

    family = TeeFamily.VTPM

    def decode(self, body: bytes):
        from ..vtpm.monitoring import MonitoringEvidence

        try:
            return MonitoringEvidence.decode(body)
        except (ReportError, ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native) -> bytes:
        return native.ak_endorsement.measurement

    def report_data(self, native) -> bytes:
        return native.quote.nonce

    def signature_jobs(self, evidence, now, policy, fam, context, state):
        trust = context if isinstance(context, VtpmTrust) else VtpmTrust(context)
        kds = trust.kds
        endorsement = evidence.ak_endorsement
        try:
            state["vcek"] = kds.get_vcek(
                endorsement.chip_id, endorsement.reported_tcb
            )
            state["chain"] = kds.cert_chain()
        except LookupError:
            return []  # the vcek_fetch step reports unknown_platform
        anchors = (
            list(fam.trust_anchors)
            if fam.trust_anchors is not None
            else [kds.trust_anchor]
        )
        jobs = _chain_signature_jobs(
            [state["vcek"], *state["chain"]], anchors
        )
        vcek_key = state["vcek"].public_key
        if vcek_key.algorithm == "ecdsa" and endorsement.signature:
            jobs.append(
                (vcek_key.inner, endorsement.signed_bytes(),
                 endorsement.signature, "sha384")
            )
        # The TPM quote signature (STEP_QUOTE_SIGNATURE) uses the
        # quote's own composite verify and is not batchable here.
        return jobs

    def steps(self, evidence, now, policy, fam, context, state):
        from ..vtpm.vtpm import PCR_SERVICES, VtpmError, replay_event_log

        trust = context if isinstance(context, VtpmTrust) else VtpmTrust(context)
        kds = trust.kds
        endorsement = evidence.ak_endorsement
        revoked = {bytes(m) for m in fam.revoked_measurements}

        def revocation():
            if bytes(endorsement.measurement) in revoked:
                raise AttestationError(
                    "measurement_revoked",
                    "measurement has been revoked (rollback?)",
                )

        if revoked:
            yield STEP_REVOCATION, revocation

        def vcek_fetch():
            if state["vcek"] is not None and state["chain"] is not None:
                return  # the verify-farm prepare pass already fetched
            try:
                state["vcek"] = kds.get_vcek(
                    endorsement.chip_id, endorsement.reported_tcb
                )
                state["chain"] = kds.cert_chain()
            except LookupError as exc:
                raise AttestationError(
                    "unknown_platform", f"KDS has no VCEK for this chip: {exc}"
                ) from exc

        yield STEP_VCEK_FETCH, vcek_fetch

        anchors = (
            list(fam.trust_anchors)
            if fam.trust_anchors is not None
            else [kds.trust_anchor]
        )
        yield STEP_CERT_CHAIN, lambda: check_certificate_chain(
            state["vcek"], state["chain"], anchors, now
        )
        yield STEP_CHIP_ID_BINDING, lambda: check_chip_id_binding(
            endorsement, state["vcek"]
        )
        yield STEP_TCB_BINDING, lambda: check_tcb_binding(
            endorsement, state["vcek"]
        )
        yield STEP_SIGNATURE, lambda: check_signature(endorsement, state["vcek"])
        yield STEP_DEBUG_POLICY, lambda: check_debug_policy(
            endorsement, policy.allow_debug
        )

        def ak_endorsement():
            expected = _report_data_for(
                hashlib.sha256(evidence.ak_public.encode()).digest()
            )
            if endorsement.report_data != expected:
                raise AttestationError(
                    "ak_not_endorsed",
                    "endorsement REPORT_DATA does not bind this AK",
                )

        yield STEP_AK_ENDORSEMENT, ak_endorsement

        golden = fam.effective_golden()
        if golden is not None:
            yield STEP_MEASUREMENT, lambda: check_measurement(
                endorsement, golden
            )

        def report_data():
            if evidence.quote.nonce != policy.expected_report_data:
                raise AttestationError(
                    "report_data_mismatch", "quote nonce mismatch (replay?)"
                )

        if policy.expected_report_data is not None:
            yield STEP_REPORT_DATA, report_data

        if policy.allowed_chip_ids is not None:
            yield STEP_CHIP_ID_ALLOWLIST, lambda: check_chip_id_allowed(
                endorsement, policy.allowed_chip_ids
            )
        if policy.minimum_tcb is not None:
            yield STEP_TCB_FLOOR, lambda: check_minimum_tcb(
                endorsement, policy.minimum_tcb
            )

        def family_tcb_floor():
            try:
                check_minimum_tcb(endorsement, fam.minimum_tcb)
            except AttestationError as exc:
                raise AttestationError("family_tcb_floor", exc.detail) from exc

        if fam.minimum_tcb is not None:
            yield STEP_FAMILY_TCB_FLOOR, family_tcb_floor

        def quote_signature():
            if not evidence.quote.verify(evidence.ak_public):
                raise AttestationError(
                    "bad_signature", "quote signature invalid"
                )

        yield STEP_QUOTE_SIGNATURE, quote_signature

        def quote_log():
            try:
                replayed = replay_event_log(evidence.event_log)
            except VtpmError as exc:
                raise AttestationError("quote_log_mismatch", str(exc)) from exc
            for index, value in evidence.quote.pcr_values:
                expected = replayed.get(index, b"\x00" * 32)
                if value != expected:
                    raise AttestationError(
                        "quote_log_mismatch",
                        f"PCR {index} does not match the event log "
                        "(unlogged runtime event detected)",
                    )

        yield STEP_QUOTE_LOG, quote_log

        def service_allowlist():
            for entry in evidence.event_log:
                if entry.pcr_index != PCR_SERVICES:
                    continue
                if entry.digest not in trust.allowed_service_digests:
                    raise AttestationError(
                        "service_not_allowed",
                        f"unapproved runtime event: {entry.description!r}",
                    )

        if trust.allowed_service_digests is not None:
            yield STEP_SERVICE_ALLOWLIST, service_allowlist


register_step_provider(SnpStepProvider())
register_step_provider(TdxStepProvider())
register_step_provider(CcaStepProvider())
register_step_provider(VtpmStepProvider())
