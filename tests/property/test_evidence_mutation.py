"""Hostile bytes against the evidence decoders.

Honest SEV-SNP, TDX, CCA and e-vTPM evidence, fetched from a
:class:`~repro.fleet.LiteFleet`'s well-known endpoints, is mutated by
byte flips, deletions and insertions.  Every mutant must either decode
or raise a typed error: ``AttestationError("evidence_malformed")`` from
a family provider's ``decode``, ``GuestError`` or ``EvidenceError``
from :func:`~repro.core.guest.decode_attestation_evidence`.  Nothing
else (``IndexError``, ``struct.error``, ``RecursionError``, ...) may
escape, since these are the bytes a rogue backend controls.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amd.verify import AttestationError
from repro.attest import ALL_FAMILIES, EvidenceError, provider_for
from repro.build import build_revelio_image
from repro.core import RevelioDeployment
from repro.core.guest import (
    WELL_KNOWN_ATTESTATION_PATH,
    GuestError,
    decode_attestation_evidence,
)
from repro.crypto import encoding
from repro.crypto.drbg import HmacDrbg
from repro.fleet import LiteFleet
from repro.net.http import HTTPS_PORT, HttpRequest, HttpResponse
from repro.net.tls import tls_connect
from tests.conftest import make_spec

FAMILIES = [str(family) for family in ALL_FAMILIES]


@pytest.fixture(scope="module")
def honest_payloads(registry_and_pins):
    """family -> the well-known endpoint's response body (the wire
    payload) of one honest lite backend of that family."""
    registry, pins = registry_and_pins
    deployment = RevelioDeployment(
        build_revelio_image(make_spec(registry, pins)), num_nodes=1
    ).deploy()
    fleet = LiteFleet(deployment)
    client = deployment.network.add_host("hostile-bytes-client", "10.66.0.1")
    rng = HmacDrbg(b"hostile-bytes")
    payloads = {}
    for index, family in enumerate(FAMILIES):
        backend = fleet.add_backend(f"10.1.0.{10 + index}", family)
        connection = tls_connect(
            client,
            backend.ip_address,
            HTTPS_PORT,
            deployment.domain,
            [deployment.web_pki.trust_anchor],
            rng,
            now=deployment.network.clock.epoch_seconds(),
        )
        raw = connection.request(
            HttpRequest("GET", WELL_KNOWN_ATTESTATION_PATH).encode()
        )
        payloads[family] = HttpResponse.decode(raw).body
    return payloads


@st.composite
def mutations(draw):
    """A short list of (kind, position, byte) edits; positions are taken
    modulo the length at the time each edit applies."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(("flip", "delete", "insert")),
                st.integers(min_value=0, max_value=1 << 16),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=6,
        )
    )


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, position, value in edits:
        if kind == "insert":
            out.insert(position % (len(out) + 1), value)
        elif not out:
            continue
        elif kind == "flip":
            out[position % len(out)] ^= value or 1
        else:
            del out[position % len(out)]
    return bytes(out)


def decode_native(family, body) -> None:
    """The family provider's decode: a value or evidence_malformed."""
    try:
        provider_for(family).decode(body)
    except AttestationError as exc:
        assert exc.reason == "evidence_malformed", (family, exc.reason)


def test_honest_payloads_decode(honest_payloads):
    for family, payload in honest_payloads.items():
        evidence = decode_attestation_evidence(payload)
        assert str(evidence.family) == family
        provider_for(evidence.family).decode(evidence.body)


# Each family's native body: the provider decoders see hostile bytes
# past a well-formed envelope.
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(family=st.sampled_from(FAMILIES), edits=mutations())
def test_mutated_native_bodies_decode_or_fail_typed(
    honest_payloads, family, edits
):
    body = decode_attestation_evidence(honest_payloads[family]).body
    decode_native(family, mutate(body, edits))


# The whole wire payload: the envelope parser first, then the provider
# for whatever family the mutant still claims.
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(family=st.sampled_from(FAMILIES), edits=mutations())
def test_mutated_payloads_decode_or_fail_typed(honest_payloads, family, edits):
    payload = mutate(honest_payloads[family], edits)
    try:
        evidence = decode_attestation_evidence(payload)
    except (GuestError, EvidenceError):
        return
    decode_native(evidence.family, evidence.body)


@pytest.mark.parametrize(
    "envelope",
    [
        {"family": "tdx", "body": "not bytes"},
        {"family": "tdx", "body": 3},
        {"family": "tdx", "body": -1},
        {"family": "tdx", "body": [1, 2]},
        {"family": "tdx", "body": None},
        {"report": {"nested": 1}},
        {"report": 7},
    ],
)
def test_well_formed_envelope_with_non_bytes_body_is_typed(envelope):
    """A TLV-valid envelope whose body is not a byte string is
    malformed (bytes() of an int would allocate that many bytes)."""
    with pytest.raises(GuestError):
        decode_attestation_evidence(encoding.encode(envelope))
