"""Resource accounting: the CTC protocol next to standard teleportation.

Teleportation spends one shared entangled pair and two classical bits to
move one qubit. The CTC protocol reaches the same end with one ctcbit, one
classical bit and one ancilla - no entanglement anywhere. Chaining the
demonstrations also orders the resources: a ctcbit does a qubit's job, and
a qubit channel can distribute an ebit.

Run:  python demos/04_resources_and_teleportation.py
"""

from ctcsim import (
    ProtocolConfig,
    STANDARD_RELATIONS,
    StateVector,
    run_ebit_distribution,
    run_session,
    run_teleportation_baseline,
    tally,
    verify_conversion,
)

state = StateVector.qubit(0.6, 0.8j)
print(f"state to move: 0.6|0> + 0.8i|1>\n")

print("=== standard teleportation ================================")
teleport = run_teleportation_baseline(state, seed=2)
print("outcome  probability  fidelity after correction")
for outcome, entry in teleport.detail["outcome_table"].items():
    print(f"  {outcome}      {entry['probability']:.4f}       {entry['fidelity']:.15f}")
print(f"sampled outcome this run: {teleport.detail['sampled_outcome']}")
print(f"tally: { {k.value: v for k, v in sorted(tally(teleport).items())} }")

print()
print("=== CTC transfer ==========================================")
ctc = run_session(ProtocolConfig(input_state=state, seed=2))
print(f"transfer fidelity: {ctc.transfer_fidelity:.15f}")
print(f"tally: { {k.value: v for k, v in sorted(tally(ctc).items())} }")
print("note: no ebit consumed, and one cbit instead of two")

print()
print("=== ebit from a qubit channel =============================")
ebit = run_ebit_distribution()
print(f"tally: { {k.value: v for k, v in sorted(tally(ebit).items())} }")

print()
print("=== conversion relations ==================================")
transcripts = [ctc, teleport, ebit]
for relation in STANDARD_RELATIONS:
    inputs = " + ".join(f"{n} {kind.value}" for kind, n in relation.inputs)
    verdict = verify_conversion(relation, transcripts)
    mark = "demonstrated" if verdict.passed else f"NOT demonstrated ({verdict.reason})"
    print(f"  {inputs} >= 1 {relation.output.value}: {mark}")

assert all(verify_conversion(r, transcripts).passed for r in STANDARD_RELATIONS)
