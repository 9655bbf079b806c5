"""Walk through one state transfer over a closed time-like curve, step by step.

Alice holds a qubit in an unknown state a|0> + b|1> and shares a CTC qubit
(known to start as |0>) with Bob. She swaps her qubit onto the CTC, measures
what she got back, and mails Bob a single classical bit. Bob swaps a fresh
ancilla in; the unknown state pops out on his side and the CTC qubit returns
to Alice exactly as it left - the loop closes.

Run:  python demos/01_state_transfer_walkthrough.py
"""

import numpy as np

from ctcsim import (
    ProtocolConfig,
    Session,
    StateVector,
    fidelity,
    run_alice_stage,
    run_bob_stage,
    run_session,
)

a, b = 0.6, 0.8
print(f"Alice's unknown qubit:  {a}|0> + {b}|1>")
print("CTC qubit starts as:    |0>")
print()

# --- stage by stage -------------------------------------------------------
config = ProtocolConfig(input_state=StateVector.qubit(a, b), seed=7)
session = Session(config)

message = run_alice_stage(session)
print("Alice swaps her qubit with the CTC qubit and measures hers.")
print(f"  measurement probabilities: {session.detail['alice_probabilities']}")
print(f"  outcome sent to Bob:       {message['payload'][0]}  (always 0 for the swap)")
print(f"  CTC qubit now carries:     {np.round(session.carried.amplitudes, 3)}")
print()

run_bob_stage(session, message)
print("Bob prepares |0> from Alice's bit and swaps it with the CTC qubit.")
print(f"  Bob now holds:        {np.round(session.transferred.matrix.diagonal().real, 3)} (diagonal)")
print(f"  CTC qubit returned to: {np.round(session.carried_density().matrix.diagonal().real, 3)} (diagonal)")
print(f"  transfer fidelity:     {session.transfer_fidelity:.15f}")
print()

# --- the same run, fully packaged -----------------------------------------
transcript = run_session(ProtocolConfig(input_state=StateVector.qubit(a, b), seed=7))
weak = transcript.final_verdicts["weak"]
print("Full session transcript:")
for event in transcript.records.dicts():
    direction = f" [{event['time_direction']}]" if "time_direction" in event else ""
    print(f"  {event['order']}: {event['actor']:<6} {event['kind']}{direction}")
print(f"loop closure residual: {weak.residual:.2e}  (pass: {weak.passed})")
print(f"collapse flag:         {transcript.collapse_flag}")
assert fidelity(config.input_state, transcript.transferred_state) > 1 - 1e-12

# --- density-operator form gives the same answer ---------------------------
dens = run_session(
    ProtocolConfig(input_state=StateVector.qubit(a, b), formalism="density", seed=7)
)
gap = np.abs(dens.transferred_state.matrix - transcript.transferred_state.matrix).max()
print(f"\nwavefunction vs density formalism, max matrix difference: {gap:.2e}")
print("\nNo entangled pair was used anywhere: one ctcbit + one cbit + one ancilla.")
