"""Compare the three consistency conditions a CTC qubit can be held to.

strong  - the CTC qubit's wavefunction must survive the coupling unchanged
deutsch - only its density operator must be a fixed point of the reduced map
weak    - the state sequence around the loop must be well-ordered and cyclic

The swap protocol fails the first two for a generic input but passes the
weak condition, which is the whole reason it can carry information.

Run:  python demos/02_consistency_conditions.py
"""

import numpy as np

from ctcsim import (
    ProtocolConfig,
    StateVector,
    build_gate,
    GateSpec,
    check_deutsch,
    check_strong,
    run_session,
    scan_admissible_inputs,
    solve_deutsch_fixed_point,
)
from ctcsim.consistency import density_from_bloch

swap = build_gate(GateSpec("swap"))
rotation = build_gate(GateSpec("controlled_rotation"))

state = StateVector.qubit(0.6, 0.8)
ctc = StateVector.basis(0)

print("=== one swap coupling, three verdicts =====================")
strong = check_strong(swap, state, ctc)
deutsch = check_deutsch(swap, state.density(), ctc.density())
weak = run_session(ProtocolConfig(input_state=state, seed=0)).final_verdicts["weak"]
for verdict in (strong, deutsch, weak):
    print(f"  {verdict.condition:<8} residual {verdict.residual:.3f}  pass {verdict.passed}")
print("  -> only the weak condition tolerates a changing CTC state")

print()
print("=== matching states satisfy even the strong condition =====")
aligned = check_strong(swap, ctc, ctc)
print(f"  strong(|0>, |0>): residual {aligned.residual:.2e}  pass {aligned.passed}")

print()
print("=== Deutsch fixed points ==================================")
# the swap's reduced map is constant: its only fixed point is rho_in itself
rho_in = StateVector.qubit(1 / np.sqrt(2), 1j / np.sqrt(2)).density()
for method in ("iterative", "spectral"):
    sol = solve_deutsch_fixed_point(swap, rho_in, method)
    print(
        f"  swap, {method:<9}: residual {sol.residual:.2e}, "
        f"iterations {sol.iterations}, fixed-space dim {sol.fixed_space_dim}"
    )

# the controlled rotation leaves a whole family fixed when rho_in has
# coherence; the solver picks the maximal-entropy member and says so
plus = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2)).density()
sol = solve_deutsch_fixed_point(rotation, plus, "spectral")
print(
    f"  controlled rotation, spectral: fixed-space dim {sol.fixed_space_dim} "
    f"({sol.note}); returned rho =\n{np.round(sol.rho.matrix, 6)}"
)

print()
print("=== which inputs may couple to a given CTC state? =========")
admissible = scan_admissible_inputs(swap, ctc.density(), 16)
print(f"  swap with rho = |0><0|: {len(admissible)} admissible grid point(s)")
for r, residual in admissible:
    candidate = density_from_bloch(r)
    print(f"    candidate diag={np.round(candidate.matrix.diagonal().real, 3)}, residual {residual:.2e}")

identity = build_gate(GateSpec("identity"))
everything = scan_admissible_inputs(identity, ctc.density(), 16)
print(f"  identity coupling: {len(everything)} grid points admissible (no restriction)")
