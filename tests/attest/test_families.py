"""Cross-family parity: the same policy violation yields the same
stable reason code whether the evidence is SEV-SNP, TDX, CCA, or an
SNP-endorsed e-vTPM — the heterogeneous-fleet promise of the verdict
seam."""

import hashlib

import pytest

from repro.amd.policy import GuestPolicy
from repro.amd.kds import KeyDistributionServer
from repro.amd.report import AttestationReport
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.amd.tcb import TcbVersion
from repro.attest import (
    STEP_FAMILY_ALLOWED,
    STEP_MEASUREMENT,
    STEP_REVOCATION,
    AttestationTracer,
    AttestationVerifier,
    CcaTrust,
    Evidence,
    FamilyPolicy,
    TdxTrust,
    TeeFamily,
    VerificationPolicy,
    VtpmTrust,
)
from repro.cca.realms import ArmInfrastructure
from repro.core.kds_client import KdsClient
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import LatencyModel, SimClock
from repro.tdx.module import IntelInfrastructure, ProvisioningCertificationService
from repro.vtpm.monitoring import MonitoringEvidence
from repro.vtpm.vtpm import PCR_SERVICES, Vtpm

NOW = 1_000_000
BINDING = hashlib.sha256(b"family-parity").digest() + b"\x00" * 32
WRONG_BINDING = hashlib.sha256(b"someone-else").digest() + b"\x00" * 32


class FamilyCase:
    """One family's evidence factory plus the knobs the matrix turns."""

    def __init__(self, family, make_evidence, measurement, floor_too_high):
        self.family = str(family)
        self.make_evidence = make_evidence
        self.measurement = bytes(measurement)
        self.floor_too_high = floor_too_high


@pytest.fixture(scope="module")
def harness():
    """One backend per family, all bound to the same challenge, and a
    verifier holding every family's trust material."""
    rng = HmacDrbg(b"family-parity")
    amd = AmdKeyInfrastructure(rng.fork(b"amd"))
    kds = KdsClient(KeyDistributionServer(amd), SimClock(), LatencyModel())

    snp_guest = amd.provision_chip("parity-snp").launch_vm(
        b"parity-snp-image", GuestPolicy()
    )

    intel = IntelInfrastructure(rng.fork(b"intel"))
    pcs = ProvisioningCertificationService(intel)
    td = intel.provision_platform("parity-tdx").launch_td(b"parity-td-image")

    arm = ArmInfrastructure(rng.fork(b"arm"))
    cca_platform = arm.provision_platform("parity-cca")
    cpak = arm.cpak_certificate(cca_platform)
    realm = cca_platform.launch_realm(b"parity-realm-image")

    vtpm_guest = amd.provision_chip("parity-vtpm").launch_vm(
        b"parity-vtpm-image", GuestPolicy()
    )
    vtpm = Vtpm(rng.fork(b"vtpm"))
    ak_endorsement = vtpm_guest.get_report(
        hashlib.sha256(vtpm.ak_public.encode()).digest() + b"\x00" * 32
    )

    def vtpm_evidence(binding):
        return MonitoringEvidence(
            quote=vtpm.quote(binding, [PCR_SERVICES]),
            event_log=list(vtpm.event_log),
            ak_public=vtpm.ak_public,
            ak_endorsement=ak_endorsement,
        ).encode()

    cases = [
        FamilyCase(
            TeeFamily.SEV_SNP,
            lambda binding: snp_guest.get_report(binding).encode(),
            snp_guest.measurement,
            TcbVersion(99, 0, 8, 115),
        ),
        FamilyCase(
            TeeFamily.TDX,
            lambda binding: td.get_quote(binding).encode(),
            td.mrtd,
            99,
        ),
        FamilyCase(
            TeeFamily.CCA,
            lambda binding: realm.attest(binding).encode(),
            realm.rim,
            99,
        ),
        FamilyCase(
            TeeFamily.VTPM,
            vtpm_evidence,
            vtpm_guest.measurement,
            TcbVersion(99, 0, 8, 115),
        ),
    ]
    verifier = AttestationVerifier(
        kds,
        site="parity",
        tracer=AttestationTracer(),
        contexts={
            str(TeeFamily.TDX): TdxTrust(pcs),
            str(TeeFamily.CCA): CcaTrust(
                lambda platform_id: cpak, (arm.root.certificate,)
            ),
            str(TeeFamily.VTPM): VtpmTrust(kds),
        },
    )
    return verifier, cases


def _entry(case, **fields):
    """*case*'s family entry: golden on its measurement, plus *fields*."""
    return FamilyPolicy(golden_measurements=(case.measurement,), **fields)


def _verify(verifier, case, binding=BINDING, families=None):
    """Verify *case*'s evidence; *families* defaults to the one entry
    :func:`_entry` builds for it."""
    if families is None:
        families = {case.family: _entry(case)}
    evidence = Evidence(case.family, case.make_evidence(binding))
    policy = VerificationPolicy(expected_report_data=BINDING, families=families)
    return verifier.verify(evidence, now=NOW, policy=policy)


class TestParityMatrix:
    def test_honest_evidence_passes_in_every_family(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(verifier, case)
            assert outcome.ok, (case.family, outcome.reason, outcome.detail)
            assert outcome.family == case.family

    def test_family_not_allowed_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            others = {c.family: _entry(c) for c in cases if c is not case}
            outcome = _verify(verifier, case, families=others)
            assert not outcome.ok, case.family
            assert outcome.reason == "family_not_allowed", case.family
            assert case.family in outcome.detail

    def test_measurement_mismatch_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(
                verifier,
                case,
                families={
                    case.family: FamilyPolicy(
                        golden_measurements=(b"\x99" * 48,)
                    )
                },
            )
            assert not outcome.ok, case.family
            assert outcome.reason == "measurement_mismatch", case.family

    def test_measurement_revoked_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(
                verifier,
                case,
                families={
                    case.family: _entry(
                        case, revoked_measurements=(case.measurement,)
                    )
                },
            )
            assert not outcome.ok, case.family
            # Golden and revoked in one entry: revocation wins.
            assert outcome.reason == "measurement_revoked", case.family
            assert outcome.failure.name == STEP_REVOCATION, case.family

    def test_report_data_mismatch_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(verifier, case, binding=WRONG_BINDING)
            assert not outcome.ok, case.family
            assert outcome.reason == "report_data_mismatch", case.family

    def test_family_tcb_floor_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(
                verifier,
                case,
                families={
                    case.family: _entry(case, minimum_tcb=case.floor_too_high)
                },
            )
            assert not outcome.ok, case.family
            assert outcome.reason == "family_tcb_floor", case.family

    def test_per_family_counters_track_each_family(self, harness):
        verifier, cases = harness
        counters = verifier.tracer.counters
        for case in cases:
            assert counters.verifications_by_family[case.family]["pass"] >= 1
            assert (
                counters.failures_by_family[case.family]["family_not_allowed"]
                >= 1
            )


class TestOneRule:
    """A family's expectations are its entry: with ``families`` set,
    a family with no entry is not admissible, and an entry without
    goldens skips that family's measurement step and nothing else."""

    def test_a_familys_expectations_are_its_entry(self, harness):
        verifier, cases = harness
        for case in cases:
            others = {c.family: _entry(c) for c in cases if c is not case}
            # (families, expected reason or None for a pass,
            #  whether the measurement step runs)
            table = [
                ({**others, case.family: _entry(case)}, None, True),
                (others, "family_not_allowed", False),
                ({**others, case.family: FamilyPolicy()}, None, False),
            ]
            runs = []
            for families, reason, measured in table:
                outcome = _verify(verifier, case, families=families)
                assert outcome.reason == reason, (case.family, reason)
                assert (
                    outcome.step(STEP_MEASUREMENT) is not None
                ) == measured, (case.family, reason)
                runs.append([step.name for step in outcome.steps])
            with_goldens, missing, without_goldens = runs
            assert missing == [STEP_FAMILY_ALLOWED], case.family
            assert without_goldens == [
                name for name in with_goldens if name != STEP_MEASUREMENT
            ], case.family

    def test_bare_snp_report_needs_an_snp_entry(self, harness):
        verifier, cases = harness
        snp, tdx = cases[0], cases[1]
        report = AttestationReport.decode(snp.make_evidence(BINDING))
        outcome = verifier.verify(
            report,
            now=NOW,
            policy=VerificationPolicy(
                expected_report_data=BINDING, families={tdx.family: _entry(tdx)}
            ),
        )
        assert outcome.reason == "family_not_allowed"
        assert [step.name for step in outcome.steps] == [STEP_FAMILY_ALLOWED]
        passing = verifier.verify(
            report,
            now=NOW,
            policy=VerificationPolicy(
                expected_report_data=BINDING, families={snp.family: _entry(snp)}
            ),
        )
        assert passing.ok and passing.steps[0].name == STEP_FAMILY_ALLOWED

    def test_no_families_means_no_expectations(self, harness):
        verifier, cases = harness
        for case in cases:
            evidence = Evidence(case.family, case.make_evidence(BINDING))
            outcome = verifier.verify(evidence, now=NOW)
            assert outcome.ok, (case.family, outcome.reason)
            assert outcome.step(STEP_FAMILY_ALLOWED) is None
            assert outcome.step(STEP_MEASUREMENT) is None


class TestFloorTypes:
    """A TCB floor must be its family's native type when the policy is
    built: a TcbVersion for SNP and the e-vTPM, an int SVN for TDX and
    CCA.  The wrong type would otherwise escape verification as a bare
    TypeError/AttributeError from the comparison."""

    @pytest.mark.parametrize(
        "family, floor",
        [
            ("sev-snp", 4),
            ("e-vtpm", 4),
            ("tdx", TcbVersion(255, 255, 255, 255)),
            ("arm-cca", TcbVersion(255, 255, 255, 255)),
        ],
    )
    def test_wrong_floor_type_is_rejected_naming_the_family(
        self, family, floor
    ):
        with pytest.raises(ValueError, match=family):
            VerificationPolicy(families={family: FamilyPolicy(minimum_tcb=floor)})

    def test_native_floor_types_are_accepted(self, harness):
        _, cases = harness
        policy = VerificationPolicy(
            families={
                case.family: FamilyPolicy(minimum_tcb=case.floor_too_high)
                for case in cases
            }
        )
        assert len(policy.families) == len(cases)
