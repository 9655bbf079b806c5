"""Simulator and verification toolkit for qubits on closed time-like curves.

The package covers four layers: dense 1-3 qubit linear algebra
(:mod:`ctcsim.states`, :mod:`ctcsim.gates`), the three consistency
conditions with fixed-point solvers (:mod:`ctcsim.consistency`), the
Alice/Bob communication protocol with teleportation baseline and resource
accounting (:mod:`ctcsim.protocol`, :mod:`ctcsim.resources`), and the
non-Hausdorff branching model that makes each CTC qubit single-use
(:mod:`ctcsim.topology`).
"""

from .consistency import (
    ConsistencyVerdict,
    FixedPointError,
    FixedPointSolution,
    check_deutsch,
    check_strong,
    check_weak,
    deutsch_map,
    scan_admissible_inputs,
    solve_deutsch_fixed_point,
)
from .gates import GateSpec, UnitaryGate, bell_pair, build_gate
from .protocol import (
    BeamReport,
    CausalityError,
    ProtocolConfig,
    ProtocolError,
    Session,
    Transcript,
    run_alice_stage,
    run_beam,
    run_bob_stage,
    run_ebit_distribution,
    run_session,
    run_teleportation_baseline,
)
from .resources import (
    STANDARD_RELATIONS,
    ConversionRelation,
    LedgerEntry,
    ResourceKind,
    tally,
    verify_conversion,
)
from .states import (
    DensityOperator,
    StateVector,
    apply_unitary,
    fidelity,
    partial_trace,
    purity,
    tensor_product,
    trace_distance,
)
from .topology import (
    BranchError,
    BranchLedger,
    TopologySpace,
    build_line_splitting,
    is_hausdorff,
    validate_topology,
)

__version__ = "0.1.0"

__all__ = [
    "BeamReport",
    "BranchError",
    "BranchLedger",
    "CausalityError",
    "ConsistencyVerdict",
    "ConversionRelation",
    "DensityOperator",
    "FixedPointError",
    "FixedPointSolution",
    "GateSpec",
    "LedgerEntry",
    "ProtocolConfig",
    "ProtocolError",
    "ResourceKind",
    "STANDARD_RELATIONS",
    "Session",
    "StateVector",
    "TopologySpace",
    "Transcript",
    "UnitaryGate",
    "apply_unitary",
    "bell_pair",
    "build_gate",
    "build_line_splitting",
    "check_deutsch",
    "check_strong",
    "check_weak",
    "deutsch_map",
    "fidelity",
    "is_hausdorff",
    "partial_trace",
    "purity",
    "run_alice_stage",
    "run_beam",
    "run_bob_stage",
    "run_ebit_distribution",
    "run_session",
    "run_teleportation_baseline",
    "scan_admissible_inputs",
    "solve_deutsch_fixed_point",
    "tally",
    "tensor_product",
    "trace_distance",
    "validate_topology",
    "verify_conversion",
]
