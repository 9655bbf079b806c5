"""Simulator and verification toolkit for qubits on closed time-like curves.

The package covers four layers: dense 1-3 qubit linear algebra
(:mod:`ctcsim.states`, :mod:`ctcsim.gates`), the three consistency
conditions with fixed-point solvers (:mod:`ctcsim.consistency`), the
Alice/Bob communication protocol with teleportation baseline and resource
accounting (:mod:`ctcsim.protocol`, :mod:`ctcsim.resources`), and the
non-Hausdorff branching model that makes each CTC qubit single-use
(:mod:`ctcsim.topology`).

Each public name is listed once, under the layer that defines it; a layer
is imported on first access to it or to one of its names (PEP 562).
"""

import importlib as _importlib

__version__ = "0.1.0"

#: Layer -> the public names it defines. ``serialize`` exports none, but
#: resolves as a layer like the others.
_EXPORTS = {
    "consistency": (
        "ConsistencyVerdict", "FixedPointError", "FixedPointSolution", "check_deutsch",
        "check_strong", "check_weak", "deutsch_map", "scan_admissible_inputs",
        "solve_deutsch_fixed_point",
    ),
    "gates": ("GateSpec", "bell_pair", "build_gate"),
    "protocol": (
        "BeamReport", "CausalityError", "ProtocolConfig", "ProtocolError", "Session", "Transcript",
        "run_alice_stage", "run_beam", "run_bob_stage", "run_ebit_distribution", "run_session",
        "run_teleportation_baseline",
    ),
    "resources": (
        "STANDARD_RELATIONS", "ConversionRelation", "LedgerEntry", "ResourceKind", "tally",
        "verify_conversion",
    ),
    "serialize": (),
    "states": (
        "DensityOperator", "StateVector", "UnitaryGate", "apply_unitary", "fidelity",
        "partial_trace", "purity", "tensor_product", "trace_distance",
    ),
    "topology": (
        "BranchError", "BranchLedger", "TopologySpace", "build_line_splitting", "is_hausdorff",
        "validate_topology",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    """A layer, or a public name looked up in its layer on each access, so a
    name rebound in its layer is seen here too."""
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(_importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
