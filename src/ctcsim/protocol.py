"""The Alice/Bob session engine for the CTC communication protocol.

A session couples an unknown chronology-respecting qubit to the CTC qubit
with a two-qubit gate, measures, sends one classical bit forward, and has
Bob undo the coupling with a prepared ancilla. Every run allocates exactly
one branch from a ledger, records an ordered event transcript, checks loop
closure, and books its resource flows. Misbehavior scenarios (Bob skipping
his gate, Bob trying to signal his own past) break closure and collapse
the branch instead of transferring a state.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator
import os
import types
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import serialize
from .consistency import _integer, check_deutsch, check_weak, deutsch_map
from .gates import GateSpec, _named, bell_pair, build_gate
from .resources import FIDELITY_THRESHOLD, LedgerEntry, ResourceKind, tally
from .states import (
    DensityOperator,
    StateVector,
    UnitaryGate,
    _branches,
    _COMPUTATIONAL,
    _kron,
    _norm,
    _sample,
    apply_unitary,
    fidelity,
    partial_trace,
    purity,
    tensor_product,
    trace_distance,
)
from .topology import BranchLedger

SCENARIOS = ("nominal", "bob_skips", "self_signal", "storage")
FORMALISMS = ("wavefunction", "density")
BEAM_POLICIES = ("collapse", "discard", "noise")

PURITY_TOL = 1e-10

#: The event kinds of a CTC transfer where the CTC touches linear time: the
#: gates, the encoding and the storage cycles.
_CTC_CONTACT = ("gate", "encode", "storage_cycle")


class ProtocolError(RuntimeError):
    """Session misuse: a bad config or a stage run out of order."""


class CausalityError(RuntimeError):
    """Chirality violation: an event against the direction of linear time."""


#: The scalar keys of a config document and their JSON types.
_CONFIG_KINDS = dict(formalism=str, scenario=str, bob_measures=bool, seed=int, storage_cycles=int)
_CONFIG_KEYS = ("input_state", "ctc_initial", "gate", *_CONFIG_KINDS)


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs for one session; states must be normalized single qubits.

    ``coupling`` is the gate that ``gate`` names, built once here.
    """

    input_state: StateVector
    ctc_initial: StateVector = field(default_factory=lambda: StateVector.basis(0))
    gate: GateSpec = field(default_factory=lambda: GateSpec("swap"))
    formalism: str = "wavefunction"
    scenario: str = "nominal"
    bob_measures: bool = False
    seed: int = 0
    storage_cycles: int = 5
    coupling: UnitaryGate = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_state.dim != 2 or self.ctc_initial.dim != 2:
            raise ProtocolError("input and CTC states must be single qubits")
        if self.formalism not in FORMALISMS:
            raise ProtocolError(f"unknown formalism {self.formalism!r}")
        if self.scenario not in SCENARIOS:
            raise ProtocolError(f"unknown scenario {self.scenario!r}")
        if not isinstance(self.bob_measures, (bool, np.bool_)):
            raise TypeError(f"bob_measures must be a bool, got {type(self.bob_measures).__name__}")
        _integer(self.seed, "seed")
        _integer(self.storage_cycles, "storage_cycles")
        object.__setattr__(self, "coupling", build_gate(self.gate))
        if self.coupling.dim != 4:
            raise ProtocolError("the coupling gate must act on 2 qubits")
        if self.storage_cycles < 0:
            raise ProtocolError("storage_cycles must be nonnegative")

    @classmethod
    def from_json(cls, document: dict, directory: str = "") -> "ProtocolConfig":
        """The config a JSON document holds. A relative ``gate.custom_path``
        is read from ``directory``, the config file's own."""
        state_doc = serialize.entry(document, "input_state", dict, "config")
        serialize.known_keys(document, _CONFIG_KEYS, "config")
        gate_doc = serialize.entry(document, "gate", dict, "config", default={"name": "swap"})
        serialize.known_keys(gate_doc, ("name", "params", "custom_path"), "config key 'gate'")
        params = gate_doc.get("params")
        if params is not None and (isinstance(params, bool) or not isinstance(params, (int, float))):
            raise ValueError(
                f"config key 'gate.params' must be a number or null, got {type(params).__name__}"
            )
        path = gate_doc.get("custom_path")
        if path is not None:
            if not isinstance(path, str):
                raise ValueError(
                    f"config key 'gate.custom_path' must be a string or null, got {type(path).__name__}"
                )
            path = os.path.join(directory, path)
        kwargs = {
            "input_state": _state(state_doc, "input_state"),
            "gate": GateSpec(gate_doc.get("name", "swap"), params, path),
        }
        if "ctc_initial" in document:
            ctc_doc = serialize.entry(document, "ctc_initial", dict, "config")
            kwargs["ctc_initial"] = _state(ctc_doc, "ctc_initial")
        for key, kind in _CONFIG_KINDS.items():
            if key in document:
                kwargs[key] = serialize.entry(document, key, kind, "config")
        if kwargs.get("seed", 0) < 0:
            raise ValueError(f"config key 'seed' must be an integer >= 0, got {kwargs['seed']}")
        return cls(**kwargs)


def _state(document: dict, key: str) -> StateVector:
    """The state a config key holds; its error names the key."""
    try:
        return StateVector.from_json(document)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


@dataclass
class Transcript:
    """Everything one run did, in order, plus its verdicts and ledger.

    The run's events are ``records``, numbered by their order (a storage
    run is one row); ``records.dicts()`` lists them. A run's recorder,
    which checks each event as it arrives, builds its transcript.
    """

    protocol: str
    seed: Optional[int]
    records: serialize.IndexedRecords
    final_verdicts: dict
    collapse_flag: bool
    transferred_state: Optional[DensityOperator]
    transfer_fidelity: Optional[float]
    resource_entries: list
    branch_id: Optional[int]
    detail: dict

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "branch_id": self.branch_id,
            "collapse_flag": self.collapse_flag,
            "events": self.records,
            "verdicts": {name: v.to_json() for name, v in sorted(self.final_verdicts.items())},
            "ledger": [entry.to_json() for entry in self.resource_entries],
            "tally": {kind.value: delta for kind, delta in sorted(tally(self).items())},
            "transfer_fidelity": self.transfer_fidelity,
            "transferred_state": (
                None if self.transferred_state is None else self.transferred_state.to_json()
            ),
            "detail": self.detail,
        }


class _Recorder:
    """One run's events, numbered and checked as they arrive, and its ledger
    entries, each tied to the newest event. The events are ``rows``, each
    without its number, and ``index``, each event's row. Event kinds in
    ``contact`` (where the CTC touches linear time) must run forward."""

    def __init__(self, contact: tuple = ()):
        self.contact = contact
        self.rows: list[dict] = []
        self.index = array.array("I")
        self.resource_entries: list[LedgerEntry] = []
        self._bob_started = False
        self._bob_signalled = False

    def event(
        self, actor: str, kind: str, detail: dict, time_direction: Optional[str] = None, count: int = 1
    ) -> None:
        """Record ``count`` events, numbered from the event count on, that
        differ only in their numbers and in the :class:`serialize.Since` in
        ``detail``: a run, whose first event the ordering and causality
        rules are applied to."""
        if count < 1:
            return
        if actor == "bob":
            self._bob_started = True
        elif actor == "alice" and self._bob_started:
            raise CausalityError("Alice events must precede all of Bob's")
        if time_direction != "forward" and (time_direction is not None or kind in self.contact):
            raise CausalityError("contact events must run parallel to linear time")
        if kind == "message" and detail.get("sender") == "bob":
            self._bob_signalled = True
        row = {"actor": actor, "kind": kind, "detail": detail}
        if time_direction is not None:
            row["time_direction"] = time_direction
        self.index += array.array("I", [len(self.rows)]) * count
        self.rows.append(row)

    def book(self, kind: ResourceKind, delta: int) -> None:
        self.resource_entries.append(LedgerEntry(kind, delta, len(self.index) - 1))

    def transcript(self, **fields) -> Transcript:
        """The run as a transcript; ``fields`` are all but its records and
        ledger entries. Bob's message precedes the collapse it causes, so
        the rule that ties them waits for the run's verdict, here."""
        if self._bob_signalled and not fields["collapse_flag"]:
            raise ProtocolError("a Bob-to-Alice message requires a collapsed run")
        records = serialize.IndexedRecords("order", tuple(self.rows), self.index)
        return Transcript(records=records, resource_entries=self.resource_entries, **fields)


def _checked_seed(seed) -> int:
    """``seed`` as an int; a bool or a non-int raises TypeError, a negative
    one a ValueError that names it (numpy's generators take seeds >= 0)."""
    value = operator.index(_integer(seed, "seed"))
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return value


class Session(_Recorder):
    """Mutable state for one protocol run; owns one ledger branch and
    records its events, whose CTC contacts are ``_CTC_CONTACT``."""

    def __init__(self, config: ProtocolConfig, ledger: Optional[BranchLedger] = None):
        super().__init__(contact=_CTC_CONTACT)
        self.config = config
        self.gate: UnitaryGate = config.coupling
        self.ledger = ledger if ledger is not None else BranchLedger()
        self.rng = np.random.default_rng(_checked_seed(config.seed))
        self.collapse_reasons: list[str] = []
        self.stage = "created"

        self.carried: Union[StateVector, DensityOperator, None] = None
        self.input_density = config.input_state.density()  # built once, as is rho_in
        self.loop_states: dict[str, DensityOperator] = {"rho_in": config.ctc_initial.density()}
        self.transferred: Optional[DensityOperator] = None
        self.transfer_fidelity: Optional[float] = None
        self.detail: dict = {
            "scenario": config.scenario,
            "formalism": config.formalism,
            "gate": self.gate.label,
        }

        self.branch_id = self.ledger.allocate()
        self.event("system", "branch_allocate", {"branch_id": self.branch_id})
        self.book(ResourceKind.CTCBIT, -1)

    def collapse(self, reason: str) -> None:
        self.collapse_reasons.append(reason)
        self.event("system", "collapse", {"reason": reason})

    def carried_density(self) -> DensityOperator:
        return _density(self.carried)


def _density(state: Union[StateVector, DensityOperator]) -> DensityOperator:
    return state.density() if isinstance(state, StateVector) else state


def _send(session: Session, sender: str, bit: int, channel: str) -> dict:
    """Record one bit sent by ``sender`` as a message event; returns it."""
    order = len(session.index)
    message = {"sender": sender, "payload": [bit], "timestamp_order": order, "channel": channel}
    session.event(sender, "message", message)
    return message


def _couple(session: Session, chrono, ctc, actor: str):
    """Apply the coupling gate to chronology (x) CTC, in either formalism.

    An entangling coupling leaves the CTC qubit mixed; the loop can then
    never close, so the branch collapses. Returns the joint state and its
    density, the reduced CTC state, and whether that state stayed pure.
    """
    joint = apply_unitary(tensor_product(chrono, ctc), session.gate)
    session.event(actor, "gate", {"gate": session.gate.label}, time_direction="forward")
    joint_density = _density(joint)
    reduced_ctc = partial_trace(joint_density, keep=1)
    pure = purity(reduced_ctc) >= 1.0 - PURITY_TOL
    if not pure:
        session.collapse(f"{actor}_coupling_left_ctc_mixed")
    return joint, joint_density, reduced_ctc, pure


def _measure_chronology(session: Session, joint, actor: str):
    """Measure the chronology qubit of a joint state in the computational
    basis; returns the outcome, both probabilities and the CTC factor.

    Alice's pure-state event also records both unnormalized branches.
    """
    detail = {"subsystem": "chronology", "basis": "computational"}
    vector = isinstance(joint, StateVector)
    branches = _branches(joint.amplitudes if vector else joint.matrix)
    probabilities = [prob for prob, _ in branches]
    outcome = _sample(session.rng.random(), probabilities)
    rest = branches[outcome][1]
    if vector:
        ctc_factor = StateVector._trusted(rest / _norm(rest))
        if actor == "alice":
            detail["unnormalized_branches"] = [serialize.complex_to_pairs(r) for _, r in branches]
    else:
        ctc_factor = DensityOperator._trusted(rest / probabilities[outcome])
    detail.update(probabilities=probabilities, outcome=outcome)
    session.event(actor, "measurement", detail)
    return outcome, probabilities, ctc_factor


def run_alice_stage(session: Session) -> Optional[dict]:
    """Couple Alice's qubit to the CTC, measure, emit the classical bit.

    Returns None when the coupling collapses the branch (an entangling
    gate leaves the CTC mixed, so the loop can never close).
    """
    if session.stage != "created":
        raise ProtocolError(f"Alice stage cannot run from stage {session.stage!r}")
    config = session.config
    rho_in = session.loop_states["rho_in"]
    if config.formalism == "density":
        joint, _, _, pure = _couple(session, session.input_density, rho_in, "alice")
    else:
        joint, _, _, pure = _couple(session, config.input_state, config.ctc_initial, "alice")
    if not pure:
        # the density route in both formalisms: reducing the pure joint
        # vector differs in the last bits, which reach the weak residual
        session.carried = deutsch_map(session.gate, session.input_density, rho_in)
        session.loop_states["rho_out"] = session.carried
        session.stage = "collapsed_at_alice"
        return None
    outcome, probabilities, session.carried = _measure_chronology(session, joint, "alice")
    session.loop_states["rho_out"] = session.carried_density()
    session.detail["alice_outcome"] = outcome
    session.detail["alice_probabilities"] = probabilities
    message = _send(session, "alice", outcome, "classical")
    session.book(ResourceKind.CBIT, -1)
    session.stage = "alice_done"
    return message


def run_storage_cycles(session: Session) -> None:
    """Idle circulations of the loop; the CTC segment does not evolve. The
    cycles are one run of events, recorded in one step, whose ``cycle``
    counts from 0 with the event number."""
    cycles = session.config.storage_cycles
    cycle = serialize.Since(len(session.index))
    session.event(
        "system", "storage_cycle", {"cycle": cycle, "evolution": "identity"}, "forward", cycles
    )
    session.detail["storage_cycles"] = cycles


def _bob_coupling(session: Session, ancilla: StateVector) -> None:
    """Bob's gate, then his measurement or the transfer, then self-signaling."""
    config = session.config
    chrono = ancilla.density() if config.formalism == "density" else ancilla
    joint, joint_density, reduced_ctc, pure = _couple(session, chrono, session.carried, "bob")
    if not pure:
        session.carried = reduced_ctc
        return
    chrono_reduced = partial_trace(joint_density, keep=0)
    session.transfer_fidelity = fidelity(config.input_state, chrono_reduced)
    if config.bob_measures or config.scenario == "self_signal":
        outcome, probabilities, session.carried = _measure_chronology(session, joint, "bob")
        session.detail["bob_outcome"] = outcome
        session.detail["bob_probabilities"] = probabilities
    else:
        session.carried = reduced_ctc
        session.transferred = chrono_reduced

    if config.scenario == "self_signal":
        bob_outcome = session.detail["bob_outcome"]
        session.carried = apply_unitary(StateVector.basis(bob_outcome), _named("hadamard"))
        session.event(
            "bob",
            "encode",
            {
                "reason": "encode own measurement outcome into the returning CTC qubit",
                "encoded_bit": bob_outcome,
            },
            time_direction="forward",
        )
        _send(session, "bob", bob_outcome, "ctc")
        session.collapse("self_signal")


def run_bob_stage(session: Session, msg: Optional[dict]) -> Session:
    """Bob prepares |outcome>, couples it to the CTC, optionally measures.

    ``msg`` is the message dict that :func:`run_alice_stage` returned.
    """
    if session.stage != "alice_done":
        raise ProtocolError(f"Bob stage cannot run from stage {session.stage!r}")
    if msg is None or msg.get("sender") != "alice":
        raise ProtocolError("Bob's stage needs Alice's classical message")
    session.loop_states["rho_in_prime"] = session.loop_states["rho_out"]  # storage is the identity

    reported = int(msg["payload"][0])
    session.event("bob", "prepare", {"ancilla": reported, "from_message": msg})
    session.book(ResourceKind.ANCILLA, -1)

    if session.config.scenario == "bob_skips":
        session.event("bob", "skip", {"reason": "gate and measurement omitted"})
        session.collapse("bob_skipped_gate")
        session.loop_states["rho_out_prime"] = session.loop_states["rho_out"]
    else:
        _bob_coupling(session, StateVector.basis(reported))
        session.loop_states["rho_out_prime"] = session.carried_density()
    session.stage = "bob_done"
    return session


def _run_stages(config: ProtocolConfig, ledger: Optional[BranchLedger] = None) -> Session:
    """A session run through its stages, up to the four states of its loop."""
    session = Session(config, ledger)
    message = run_alice_stage(session)
    if session.stage == "alice_done":
        if config.scenario == "storage":
            run_storage_cycles(session)
        run_bob_stage(session, message)
    else:
        session.loop_states["rho_in_prime"] = session.loop_states["rho_out_prime"] = session.carried
    return session


def run_session(config: ProtocolConfig, ledger: Optional[BranchLedger] = None) -> Transcript:
    """Execute one full protocol run and return its transcript."""
    session = _run_stages(config, ledger)
    weak = check_weak(session.loop_states)
    deutsch = check_deutsch(session.gate, session.input_density, session.loop_states["rho_in"])
    session.event("system", "consistency_check", {"weak": weak.to_json(), "deutsch": deutsch.to_json()})
    collapse_flag = bool(session.collapse_reasons) or not weak.passed

    branch_outcome = "collapsed" if collapse_flag else "merged"
    # the consume event is the branch's terminal access; record it first
    session.event(
        "system", "branch_consume", {"branch_id": session.branch_id, "outcome": branch_outcome}
    )
    session.ledger.consume(session.branch_id, branch_outcome)
    session.detail["branch_status"] = session.ledger.status(session.branch_id)

    if not collapse_flag and (
        session.transfer_fidelity is None or session.transfer_fidelity >= FIDELITY_THRESHOLD
    ):
        session.book(ResourceKind.QUBIT, 1)

    session.detail["collapse_reasons"] = list(session.collapse_reasons)
    return session.transcript(
        protocol="ctc_transfer",
        seed=config.seed,
        final_verdicts={"weak": weak, "deutsch": deutsch},
        collapse_flag=collapse_flag,
        transferred_state=session.transferred,
        transfer_fidelity=session.transfer_fidelity,
        branch_id=session.branch_id,
        detail=session.detail,
    )


@dataclass(frozen=True)
class BeamReport:
    """Aggregate of many single-use trials against a beam of CTC qubits.

    A trial's record is its number followed by its row: of the policy's 16
    rows, at 2·key + outcome for the key 4·prep_basis + 2·prep_bit +
    meas_basis, ``records`` lists only those its trials read.
    """

    trials: int
    policy: str
    seed: int
    basis_match_fraction: float
    records: serialize.IndexedRecords
    branch_summary: dict

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "policy": self.policy,
            "seed": self.seed,
            "basis_match_fraction": self.basis_match_fraction,
            "records": self.records,
            "branch_summary": self.branch_summary,
        }


#: Trials whose seeded draws one :func:`_beam_draws` call derives; a block
#: bounds the arrays held at once.
_DRAW_BLOCK = 1024
#: A trial index is one 32-bit word of a trial's seed, so a beam has at most
#: 2**32 trials.
_MAX_BEAM_TRIALS = 2**32

_U32, _U64 = np.uint32, np.uint64


def _fixed(value, dtype) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``: numpy applies a 0-d one
    to an array in about two thirds of the time it takes for a scalar."""
    fixed = np.array(value, dtype)
    fixed.flags.writeable = False
    return fixed


def _columns(rows, dtype=_U32, shape=(-1, 1)) -> tuple:
    """The columns of ``rows``, tuples of ints, as read-only arrays of ``shape``."""
    return tuple(_fixed(np.reshape(np.array(column, dtype), shape), dtype) for column in zip(*rows))


#: The draws' fixed 0-d operands by value, each built once.
_u32 = functools.cache(lambda value: _fixed(value, _U32))
_u64 = functools.cache(lambda value: _fixed(value, _U64))
_LOW32 = _u64(0xFFFFFFFF)
#: SeedSequence's hash constants (start, multiplier) for mixing the entropy
#: and for generating the state, and its two mixing multipliers.
_HASH_MIX, _HASH_STATE = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_LEFT, _MIX_RIGHT = _u32(0xCA01F9DD), _u32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier M


def _hash_constants(start: int, multiplier: int):
    """SeedSequence's running hash constant h, as pairs (h, h·multiplier mod
    2³²): each hash xors with the first and multiplies by the second."""
    while True:
        following = start * multiplier & 0xFFFFFFFF
        yield start, following
        start = following


#: The (xor, multiplier) columns of the four entropy hashes, then of each
#: source pool row's three mixing hashes, in SeedSequence's order (the 16 a
#: seed below 2**96 takes), with (0, 0) in the source's own row; and of the
#: 8 state hashes, of the pool's rows taken twice.
_mixing = _hash_constants(*_HASH_MIX)
_ENTROPY_HASH = _columns(itertools.islice(_mixing, 4))
_SOURCE_HASH = tuple(_columns([(0, 0) if dst == src else next(_mixing) for dst in range(4)]) for src in range(4))
del _mixing
_STATE_HASH = _columns(itertools.islice(_hash_constants(*_HASH_STATE), 8), shape=(2, 4, 1))
#: Output k = 1, 2, 3 reads the state X·M^(k+1) + inc·(M^k + … + 1) mod
#: 2¹²⁸, X = inc + s: the factors of X, then of inc, as (2, 3, 1) columns of
#: their high and low uint64 halves and of the low half's 32-bit limbs.
_JUMP = _columns([(f >> 64, f & 2**64 - 1, f & 2**32 - 1, f >> 32 & 2**32 - 1) for f in (
    *(pow(_PCG_MULT, k + 1, 2**128) for k in (1, 2, 3)),
    *(sum(pow(_PCG_MULT, j, 2**128) for j in range(k + 1)) % 2**128 for k in (1, 2, 3)),
)], _U64, (2, 3, 1))


def _hash(words: np.ndarray, constants: tuple) -> np.ndarray:
    xor, multiplier = constants
    words = (words ^ xor) * multiplier
    return words ^ (words >> _u32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_LEFT * x - _MIX_RIGHT * y
    return mixed ^ (mixed >> _u32(16))


def _times(high: np.ndarray, low: np.ndarray, columns: tuple) -> tuple:
    """(high, low)·C mod 2¹²⁸ for each row's C in ``columns``, on uint64
    halves; the high half of the low halves' product is taken on 32-bit limbs."""
    c_high, c_low, b0, b1 = columns
    a0, a1 = low & _LOW32, low >> _u64(32)
    middle = a1 * b0 + (a0 * b0 >> _u64(32))
    product_high = a1 * b1 + (middle >> _u64(32)) + ((middle & _LOW32) + a0 * b1 >> _u64(32))
    return product_high + high * c_low + low * c_high, low * c_low


def _beam_draws(seed: int, trials: range) -> tuple:
    """The draws ``np.random.default_rng([seed, t])`` gives each trial t in
    ``trials`` (t < 2**32), derived for all of them in a few wide steps.

    Returns the 0/1 arrays of the preparation basis, the prepared bit and
    the measurement basis, then the uniform draws. NumPy keeps this stream
    fixed (NEP 19). SeedSequence hashes the entropy words (the seed's
    little-endian 32-bit words, then t) into four uint64s; PCG64 takes the
    first two as its initial state s and the last two as its stream i, sets
    inc = i << 1 | 1 and state = (inc + s)·M + inc, and steps before each
    XSL-RR output. Each ``integers(2)`` is the top bit of a 32-bit half:
    output 1's low half, its high half, then output 2's low half.
    ``random()`` is (output 3 >> 11)·2⁻⁵³.
    """
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    words = np.zeros((max(len(seed_words) + 1, 4), len(trials)), _U32)
    words[: len(seed_words)] = np.array(seed_words, _U32)[:, None]
    words[len(seed_words)] = np.arange(trials.start, trials.stop, dtype=_U32)
    pool = _hash(words[:4], _ENTROPY_HASH)
    for src, constants in enumerate(_SOURCE_HASH):
        mixed = _mix(pool, _hash(pool[src], constants))
        mixed[src] = pool[src]  # a source row is not mixed into itself
        pool = mixed
    constants = itertools.islice(_hash_constants(*_HASH_MIX), 16, None)
    for word in words[4:, None]:
        pool = _mix(pool, _hash(word, _columns(itertools.islice(constants, 4))))
    halves = _hash(pool, _STATE_HASH).astype(_U64)
    (start_high, start_low), (seq_high, seq_low) = halves[:, ::2] | halves[:, 1::2] << _u64(32)
    inc_high, inc_low = seq_high << _u64(1) | seq_low >> _u64(63), seq_low << _u64(1) | _u64(1)
    low = inc_low + start_low
    high = inc_high + start_high + (low < start_low)
    (x_high, i_high), (x_low, i_low) = _times(np.array([[high], [inc_high]]), np.array([[low], [inc_low]]), _JUMP)
    low = x_low + i_low
    high = x_high + i_high + (low < x_low)
    folded, rotation = high ^ low, high >> _u64(58)
    first, second, third = folded >> rotation | folded << (-rotation & _u64(63))
    bits = first >> _u64(31) & _u64(1), first >> _u64(63), second >> _u64(31) & _u64(1)
    return *bits, (third >> _u64(11)).astype(np.float64) * 2.0**-53


@functools.cache
def _beam_table(policy: str) -> tuple:
    """A beam trial's table under ``policy``, by its key 4·prep_basis +
    2·prep_bit + meas_basis: the probability of outcome 0 and whether the
    bases match, as read-only arrays, and the 16 record rows, without the
    trial number, at 2·key + outcome.

    After the swap a trial depends only on its key, so the outcome
    probabilities, action and per-outcome closure residuals are computed
    here once per policy.
    """
    basis_names = ("computational", "hadamard")
    swap_matrix = _named("swap").matrix
    probe = StateVector.basis(0)
    bases = (_COMPUTATIONAL, tuple(_named("hadamard").matrix))  # the Hadamard basis: the gate's rows
    states = [[StateVector(vec) for vec in basis] for basis in bases]
    mismatch_action = {"collapse": "collapsed", "discard": "discarded", "noise": "noise"}[policy]
    first_probabilities, matches, rows = [], [], []
    for prep_basis, prep_bit, meas_basis in itertools.product((0, 1), repeat=3):
        prep_state = states[prep_basis][prep_bit]
        # swap the known probe in; Alice's chronology qubit now holds the
        # beam state and the CTC carries the probe
        joint = swap_matrix @ _kron(probe.amplitudes, prep_state.amplitudes)
        first_probabilities.append(_branches(joint, bases[meas_basis])[0][0])
        matched = meas_basis == prep_basis
        matches.append(matched)
        residuals = (None, None)
        if matched or policy == "noise":
            residuals = tuple(
                trace_distance(prep_state.density(), restored.density())
                for restored in states[meas_basis]
            )
        for outcome, residual in enumerate(residuals):
            row = {
                "prep_basis": basis_names[prep_basis],
                "prep_bit": prep_bit,
                "meas_basis": basis_names[meas_basis],
                "outcome": outcome,
                "matched": matched,
                "action": "completed" if matched else mismatch_action,
                "closure_residual": residual,
            }
            # the table is shared by every beam of this policy
            rows.append(types.MappingProxyType(row))
    first, matched = np.array(first_probabilities), np.array(matches)
    first.flags.writeable = matched.flags.writeable = False
    return first, matched, tuple(rows)


def run_beam(trials: int, policy: str = "collapse", seed: int = 0) -> BeamReport:
    """BB84-style use of a beam of CTC qubits in random bases.

    Each trial's CTC qubit arrives in a random basis (computational or
    Hadamard) and a random state within it. Alice swaps a known probe in,
    measures what came out in a random basis, and learns the state exactly
    when her basis guess matches the preparation. Mismatched trials are
    handled per ``policy``: collapse the branch, discard the trial, or
    proceed and accept noise. Per-trial RNG streams derive from
    (seed, trial index) so aggregates do not depend on scheduling: trial t
    draws what ``np.random.default_rng([seed, t])`` would, derived for a
    block of trials at once by :func:`_beam_draws`. The seed is a
    non-negative int of any width; a trial index is one 32-bit word of the
    stream's seed, so ``trials`` is at most 2**32.

    A block's keys, outcomes and row codes are array operations, and the
    records list only the rows read. Each trial's branch is made and spent
    at once, merged when the bases match and collapsed otherwise, so it is
    used once by construction; ``branch_summary`` counts the matches.
    """
    if _integer(trials, "trials") < 1:
        raise ProtocolError(f"trials must be at least 1, got {trials}")
    if trials > _MAX_BEAM_TRIALS:
        raise ProtocolError(f"trials must be at most {_MAX_BEAM_TRIALS}, got {trials}")
    if policy not in BEAM_POLICIES:
        raise ProtocolError(f"unknown policy {policy!r}; expected one of {BEAM_POLICIES}")
    stream_seed = _checked_seed(seed)
    first_probability, matched, rows = _beam_table(policy)
    row_index = []
    matches = 0
    for start in range(0, trials, _DRAW_BLOCK):
        block = range(start, min(start + _DRAW_BLOCK, trials))
        prep_basis, prep_bit, meas_basis, draws = _beam_draws(stream_seed, block)
        key = 4 * prep_basis + 2 * prep_bit + meas_basis
        matches += int(np.count_nonzero(matched[key]))
        # _sample with two outcomes: 0 when the draw is below p0, else 1
        outcome = draws >= first_probability[key]
        row_index.append((2 * key + outcome).astype(np.uint8).tobytes())
    codes = b"".join(row_index)
    # list the rows read (a matched trial's outcome is its bit), renumbered in order
    read = [code in codes for code in range(len(rows))]
    places = bytes(itertools.accumulate(read[:-1], initial=0)).ljust(256)
    summary = {"merged": matches, "collapsed": trials - matches, "distinct_branches": trials}
    records = serialize.IndexedRecords("trial", tuple(itertools.compress(rows, read)), codes.translate(places))
    return BeamReport(trials, policy, seed, matches / trials, records, summary)


def run_teleportation_baseline(input_state: StateVector, seed: int = 0) -> Transcript:
    """Standard teleportation: one shared pair, two classical bits, one qubit.

    All four Bell-measurement outcomes are enumerated with their Pauli
    corrections; the transcript samples one but records the whole table.
    """
    if input_state.dim != 2:
        raise ProtocolError("teleportation input must be a single qubit")
    rng = np.random.default_rng(_checked_seed(seed))
    # no CTC here: the gates are ordinary and carry no time direction
    record = _Recorder()

    pair = bell_pair()
    record.event("alice", "prepare", {"state": "bell_pair", "shared_with": "bob"})
    record.book(ResourceKind.EBIT, -1)

    psi = tensor_product(input_state, pair)
    psi = StateVector._trusted(_kron(_named("cnot").matrix, np.eye(2, dtype=complex)) @ psi.amplitudes)
    record.event("alice", "gate", {"gate": "cnot", "targets": [0, 1]})
    psi = StateVector._trusted(_kron(_named("hadamard").matrix, np.eye(4, dtype=complex)) @ psi.amplitudes)
    record.event("alice", "gate", {"gate": "hadamard", "targets": [0]})

    # Bob's corrections X^m1 then Z^m0, indexed by the two measured bits
    x_pow = (np.eye(2, dtype=complex), _named("pauli_x").matrix)
    z_pow = (np.eye(2, dtype=complex), _named("pauli_z").matrix)
    outcome_table = {}
    outcomes = []
    for m0, (_, first) in enumerate(_branches(psi.amplitudes)):
        for m1, (prob, second) in enumerate(_branches(first)):
            corrected = StateVector._trusted(z_pow[m0] @ (x_pow[m1] @ second))
            fid = fidelity(input_state, corrected)
            outcome_table[f"{m0}{m1}"] = {"probability": float(prob), "fidelity": float(fid)}
            outcomes.append((m0, m1, corrected))

    probabilities = [entry["probability"] for entry in outcome_table.values()]
    m0, m1, corrected = outcomes[_sample(rng.random(), probabilities)]
    sampled = f"{m0}{m1}"

    record.event("alice", "measurement", {"subsystem": 0, "basis": "bell_via_cnot_h", "outcome": m0})
    record.event("alice", "measurement", {"subsystem": 1, "basis": "bell_via_cnot_h", "outcome": m1})
    for bit in (m0, m1):
        record.event("alice", "message", {"sender": "alice", "payload": [bit], "channel": "classical"})
        record.book(ResourceKind.CBIT, -1)
    record.event("bob", "correction", {"apply_x": m1, "apply_z": m0})
    record.event("bob", "transfer_complete", {"outcome": sampled})
    record.book(ResourceKind.QUBIT, 1)

    return record.transcript(
        protocol="teleportation",
        seed=seed,
        final_verdicts={},
        collapse_flag=False,
        transferred_state=corrected.density(),
        transfer_fidelity=outcome_table[sampled]["fidelity"],
        branch_id=None,
        detail={"outcome_table": outcome_table, "sampled_outcome": sampled},
    )


def run_ebit_distribution() -> Transcript:
    """Turn one use of a noiseless qubit channel into one shared ebit; the
    run draws nothing, so its transcript has no seed."""
    record = _Recorder()
    pair = bell_pair()
    record.event("alice", "prepare", {"state": "bell_pair", "location": "local"})
    record.event("alice", "channel_send", {"what": "second half", "channel": "qubit"})
    record.book(ResourceKind.QUBIT, -1)
    record.event("system", "shared_state", {"holders": ["alice", "bob"]})
    record.book(ResourceKind.EBIT, 1)
    shared = pair.density()
    return record.transcript(
        protocol="ebit_distribution",
        seed=None,
        final_verdicts={},
        collapse_flag=False,
        transferred_state=shared,
        transfer_fidelity=fidelity(pair, shared),
        branch_id=None,
        detail={"target": "bell_pair"},
    )
