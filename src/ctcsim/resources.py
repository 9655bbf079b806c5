"""Resource accounting for protocol runs: ctcbits, cbits, ebits, qubits.

A transcript carries signed ledger entries (consumed < 0, produced > 0);
tallying is a pure fold over those entries. Conversion relations are
demonstrated, not proven: a relation passes when some transcript consumed
the inputs and produced the output at unit transfer fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

#: The transfer fidelity at or above which a run moved its qubit: what a
#: session needs to book a qubit, and a witness to demonstrate a relation.
FIDELITY_THRESHOLD = 1.0 - 1e-12


class ResourceKind(str, Enum):
    CTCBIT = "ctcbit"
    CBIT = "cbit"
    EBIT = "ebit"
    QUBIT = "qubit"
    ANCILLA = "ancilla"


@dataclass(frozen=True)
class LedgerEntry:
    kind: ResourceKind
    delta: int
    event_ref: int

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("ledger entries must have a nonzero delta")

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "delta": int(self.delta), "event_ref": int(self.event_ref)}


@dataclass(frozen=True)
class ConversionRelation:
    """``inputs`` consumed yield one unit of ``output``."""

    relation_id: str
    inputs: tuple
    output: ResourceKind

    @classmethod
    def of(cls, relation_id: str, inputs: Mapping[ResourceKind, int], output: ResourceKind):
        flat = tuple(sorted((k, int(v)) for k, v in inputs.items()))
        return cls(relation_id, flat, output)


#: One shared entangled pair plus two classical bits move one qubit
#: (standard teleportation).
TELEPORTATION = ConversionRelation.of(
    "teleportation", {ResourceKind.EBIT: 1, ResourceKind.CBIT: 2}, ResourceKind.QUBIT
)
#: The CTC transfer: one ctcbit, one classical bit and one ancilla move
#: one qubit, with no entangled pair anywhere.
CTC_TRANSFER = ConversionRelation.of(
    "ctc_transfer",
    {ResourceKind.CTCBIT: 1, ResourceKind.CBIT: 1, ResourceKind.ANCILLA: 1},
    ResourceKind.QUBIT,
)
#: A ctcbit is at least as strong as a qubit (auxiliary cbit/ancilla allowed).
CTCBIT_TO_QUBIT = ConversionRelation.of(
    "ctcbit_to_qubit", {ResourceKind.CTCBIT: 1}, ResourceKind.QUBIT
)
#: A qubit channel is at least as strong as an ebit: send half a locally
#: built entangled pair through it.
QUBIT_TO_EBIT = ConversionRelation.of(
    "qubit_to_ebit", {ResourceKind.QUBIT: 1}, ResourceKind.EBIT
)

STANDARD_RELATIONS = (TELEPORTATION, CTC_TRANSFER, CTCBIT_TO_QUBIT, QUBIT_TO_EBIT)


@dataclass(frozen=True)
class ConversionVerdict:
    relation_id: str
    passed: bool
    witness_index: Optional[int]
    reason: str

    def to_json(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "pass": bool(self.passed),
            "witness_index": self.witness_index,
            "reason": self.reason,
        }


def tally(transcript) -> dict:
    """Net delta per resource kind, folded from the transcript entries."""
    totals: dict[ResourceKind, int] = {}
    for entry in transcript.resource_entries:
        totals[entry.kind] = totals.get(entry.kind, 0) + entry.delta
    return totals


def _consumed_produced(transcript):
    consumed: dict[ResourceKind, int] = {}
    produced: dict[ResourceKind, int] = {}
    for entry in transcript.resource_entries:
        if entry.delta < 0:
            consumed[entry.kind] = consumed.get(entry.kind, 0) - entry.delta
        else:
            produced[entry.kind] = produced.get(entry.kind, 0) + entry.delta
    return consumed, produced


def verify_conversion(relation: ConversionRelation, transcripts: Sequence) -> ConversionVerdict:
    """Find a transcript demonstrating the relation.

    A witness must consume at least the relation's inputs, produce the
    output, not have collapsed, and achieve transfer fidelity at or above
    ``FIDELITY_THRESHOLD``.
    """
    reasons = []
    for index, transcript in enumerate(transcripts):
        consumed, produced = _consumed_produced(transcript)
        missing = [
            f"{kind.value} x{need}"
            for kind, need in relation.inputs
            if consumed.get(kind, 0) < need
        ]
        if missing:
            reasons.append(f"transcript {index}: did not consume {', '.join(missing)}")
            continue
        if produced.get(relation.output, 0) < 1:
            reasons.append(f"transcript {index}: no {relation.output.value} produced")
            continue
        if transcript.collapse_flag:
            reasons.append(f"transcript {index}: run collapsed")
            continue
        fidelity = getattr(transcript, "transfer_fidelity", None)
        if fidelity is None or fidelity < FIDELITY_THRESHOLD:
            reasons.append(f"transcript {index}: transfer fidelity {fidelity} below threshold")
            continue
        return ConversionVerdict(relation.relation_id, True, index, "demonstrated")
    reason = "; ".join(reasons) if reasons else "no transcripts supplied"
    return ConversionVerdict(relation.relation_id, False, None, reason)
