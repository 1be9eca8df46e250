"""Declarative verification expectations for the attestation pipeline.

Revelio's security argument rests on one verification procedure run by
many parties (the web extension, RA-TLS peers, the SP node, the vTPM
monitor, key-sharing recipients).  What differs between them is not the
*procedure* but the *expectations*: which measurements are golden,
which are revoked, what REPORT_DATA must bind, which platforms are
approved, and how old the TCB may be.  :class:`VerificationPolicy`
captures those expectations as one immutable value that call sites
construct declaratively instead of threading positional arguments into
the low-level verifier.

Measurement expectations are always *per TEE family* (an SNP launch
digest and a TDX MRTD are never the same value), SEV-SNP included:
:attr:`VerificationPolicy.families` maps each admissible family to its
:class:`FamilyPolicy` entry (golden measurements, revocations, a
family-native TCB floor, trust anchors).  One rule joins them: a
family's expectations are its entry, and with ``families`` set,
evidence of a family with no entry fails ``family_not_allowed``.
``families=None`` means no expectations at all.  What is not
family-specific stays top-level: the REPORT_DATA binding, the chip-id
allow-list, the debug switch, and ``minimum_tcb``, the AMD platform
floor (code ``tcb_too_old``) that any SNP-rooted evidence is held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from ..amd.tcb import TcbVersion
from ..crypto.x509 import Certificate
from .evidence import TeeFamily


def _frozen_bytes(items: Optional[Iterable[bytes]]) -> Optional[Tuple[bytes, ...]]:
    if items is None:
        return None
    return tuple(bytes(item) for item in items)


@dataclass(frozen=True)
class FamilyPolicy:
    """One TEE family's verification expectations.

    The values are family-native: measurements are that family's launch
    digests (SNP measurement, TDX MRTD, CCA RIM, the vTPM's endorsement
    measurement) and ``minimum_tcb`` is a
    :class:`~repro.amd.tcb.TcbVersion` for SNP/e-vTPM but a plain SVN
    integer for TDX and CCA (:class:`VerificationPolicy` rejects any
    other type).  A floor violation fails with the family-scoped
    ``family_tcb_floor`` code, distinct from the platform-wide
    ``tcb_too_old``.
    """

    #: Golden launch measurements; ``None`` skips the measurement step.
    golden_measurements: Optional[Tuple[bytes, ...]] = None
    #: Measurements revoked after rollouts (section 6.1.4); always
    #: checked first, so a revoked value loses even if also golden.
    revoked_measurements: Tuple[bytes, ...] = ()
    #: Family-native TCB floor; ``None`` skips the check.
    minimum_tcb: Optional[object] = None
    #: Pinned trust anchors; ``None`` uses the family's trust context
    #: (the KDS client's shipped ARK for SNP and the e-vTPM).
    trust_anchors: Optional[Tuple[Certificate, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "golden_measurements", _frozen_bytes(self.golden_measurements)
        )
        object.__setattr__(
            self,
            "revoked_measurements",
            _frozen_bytes(self.revoked_measurements) or (),
        )
        if self.trust_anchors is not None:
            object.__setattr__(self, "trust_anchors", tuple(self.trust_anchors))

    def effective_golden(self) -> Optional[FrozenSet[bytes]]:
        """The golden set minus revocations (``None`` if unchecked)."""
        if self.golden_measurements is None:
            return None
        return frozenset(self.golden_measurements) - frozenset(
            self.revoked_measurements
        )


#: Each family's native TCB floor type: SNP and the SNP-endorsed e-vTPM
#: compare component-wise :class:`~repro.amd.tcb.TcbVersion` values,
#: TDX and CCA one integer SVN.
_FLOOR_TYPES = {
    str(TeeFamily.SEV_SNP): TcbVersion,
    str(TeeFamily.VTPM): TcbVersion,
    str(TeeFamily.TDX): int,
    str(TeeFamily.CCA): int,
}


def check_family_floor(family, floor) -> None:
    """Raise ``ValueError`` unless *floor* is ``None`` or *family*'s
    native TCB floor type (a floor of the wrong type would otherwise
    escape verification as an untyped comparison error)."""
    wanted = _FLOOR_TYPES.get(str(family), object)
    if floor is not None and not isinstance(floor, wanted):
        raise ValueError(
            f"TCB floor for family {family} must be of type {wanted.__name__}, "
            f"not {type(floor).__name__}"
        )


@dataclass(frozen=True)
class VerificationPolicy:
    """Everything a verifier expects of a report, in one value.

    ``None`` for an optional expectation means "do not check it"; the
    corresponding pipeline step is skipped entirely (and therefore does
    not appear in the outcome's step records).
    """

    #: Exact REPORT_DATA binding (64 bytes); ``None`` skips the check.
    expected_report_data: Optional[bytes] = None
    #: Chip-id allow-list; ``None`` skips the check.
    allowed_chip_ids: Optional[Tuple[bytes, ...]] = None
    #: The AMD platform TCB floor (component-wise, code
    #: ``tcb_too_old``) for SNP-rooted evidence; ``None`` skips it.
    minimum_tcb: Optional[TcbVersion] = None
    #: Accept debug-enabled guests (never set in production).
    allow_debug: bool = False
    #: Family name -> that family's :class:`FamilyPolicy`, the only
    #: home of measurement expectations.  ``None`` means no
    #: expectations for any family; otherwise evidence of a family with
    #: no entry fails ``family_allowed`` with ``family_not_allowed``.
    #: Stored as a sorted tuple of (name, entry) pairs so the policy
    #: value stays hashable.
    families: Optional[Mapping[str, "FamilyPolicy"]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "allowed_chip_ids", _frozen_bytes(self.allowed_chip_ids)
        )
        if self.expected_report_data is not None:
            object.__setattr__(
                self, "expected_report_data", bytes(self.expected_report_data)
            )
        if self.families is not None:
            items = (
                self.families.items()
                if isinstance(self.families, Mapping)
                else self.families
            )
            entries = tuple(sorted((str(key), value) for key, value in items))
            for family, entry in entries:
                check_family_floor(family, entry.minimum_tcb)
            object.__setattr__(self, "families", entries)

    def family_allowed(self, family) -> bool:
        """Is evidence of *family* admissible under this policy?"""
        return self.families is None or str(family) in dict(self.families)

    def for_family(self, family) -> "FamilyPolicy":
        """*family*'s entry (an empty one, checking nothing, when the
        policy has none)."""
        return dict(self.families or ()).get(str(family), _EMPTY_FAMILY_POLICY)


_EMPTY_FAMILY_POLICY = FamilyPolicy()
