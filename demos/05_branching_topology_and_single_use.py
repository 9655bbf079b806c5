"""Why Alice cannot farm the loop forever: branching topology + single use.

The qubit comes back to Alice's own past, so naively she owns infinitely
many copies of it. The fix modeled here: every transmission runs on its own
branch of a non-Hausdorff (line-splitting) space, only one branch is ever
accessible, and a used branch - merged cleanly or collapsed - is dead.

A finite topology is Hausdorff only if it is discrete, which is exactly
what branch points violate: all of them share every neighborhood.

Run:  python demos/05_branching_topology_and_single_use.py
"""

from ctcsim import (
    BranchError,
    BranchLedger,
    ProtocolConfig,
    StateVector,
    TopologySpace,
    build_line_splitting,
    is_hausdorff,
    run_session,
    validate_topology,
)

print("=== separation on small spaces ============================")
discrete = TopologySpace.discrete(["a", "b", "c", "d"])
print(f"discrete 4-point space Hausdorff? {is_hausdorff(discrete)}")
indiscrete = TopologySpace.indiscrete(["x", "y"])
print(f"indiscrete pair Hausdorff?        {is_hausdorff(indiscrete)}")

print()
print("=== the line that splits ==================================")
for copies in (2, 3, 5):
    space = build_line_splitting(copies)
    ok, violations = validate_topology(space)
    hausdorff, witness = is_hausdorff(space)
    print(f"{copies} branch copies: valid topology {ok}, Hausdorff {hausdorff}, witness {witness}")
space = build_line_splitting(2)
print("opens of the 2-copy model:")
for open_set in sorted(space.opens, key=lambda s: (len(s), sorted(s))):
    print(f"  {sorted(open_set) if open_set else '{}'}")
print("every neighborhood of either branch point contains the other's past,")
print("so the two copies of the branch event can never be told apart")

print()
print("=== one branch per transmission, ever =====================")
ledger = BranchLedger()
for seed in range(3):
    transcript = run_session(
        ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), seed=seed), ledger
    )
    closure = transcript.final_verdicts["weak"].residual
    print(
        f"session {seed}: branch {transcript.branch_id} "
        f"{ledger.status(transcript.branch_id)}, loop closure error {closure:.2e}"
    )

print(f"ledger: {ledger.summary()}")
try:
    ledger.touch(0)
except BranchError as error:
    print(f"touching branch 0 again: {error}")

collapsed = run_session(
    ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), scenario="bob_skips", seed=9),
    ledger,
)
print(f"a skipped-gate run lands on branch {collapsed.branch_id}: "
      f"{ledger.status(collapsed.branch_id)}")
