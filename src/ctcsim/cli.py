"""Command-line front end with reproducible, canonically formatted reports.

Reports go to stdout as canonical JSON (sorted keys, floats at 15
significant digits) so that identical invocations with identical seeds
produce byte-identical output; timing and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
from .consistency import (
    SOLVER_AGREEMENT_TOL,
    _admissible_points,
    check_deutsch,
    check_strong,
    check_weak,
    solve_deutsch_fixed_point,
)
from .gates import GATE_NAMES, GateSpec, build_gate
from .protocol import (
    BEAM_POLICIES,
    FORMALISMS,
    SCENARIOS,
    ProtocolConfig,
    _run_stages,
    run_beam,
    run_ebit_distribution,
    run_session,
    run_teleportation_baseline,
)
from .resources import STANDARD_RELATIONS, tally, verify_conversion
from .states import DensityOperator, StateVector, trace_distance
from .topology import TopologySpace, build_line_splitting, is_hausdorff, validate_topology

SCHEMA_VERSION = "1"

#: Scenarios whose collapse is the expected outcome; they exit 0 with the
#: flag in the payload.
EXPECTED_COLLAPSE = ("bob_skips", "self_signal")

#: Line splitting is held as its copies + 2 minimal opens and reports
#: copies + 2 points: linear work, 1000 copies in well under a second.
MAX_COPIES = 1000
#: A --space file holds at most ``topology.MAX_SPACE_POINTS`` (32) points
#: and ``MAX_SPACE_OPENS`` (1,100) opens, and labels of at most
#: ``MAX_SPACE_LABEL`` (64) characters, checked before its axiom pass. That
#: pass and its report grow with points x opens x open size x label length:
#: the slowest file found under the caps, 32 labels of 64 characters, their
#: open singletons and 1,067 random 16-point opens (1.2 MB), takes about
#: 1.0 s end to end on a 2-core Xeon, peaks at about 115 MiB resident and
#: prints 20 MB of missing unions. With 1,000-character labels a file took
#: 4.0 s and 1.0 GiB and printed 233 MB.
#: Work grows linearly in trials and storage cycles and with the cube of the
#: grid resolution. The trials and storage caps once kept the slowest run to
#: about 10 s on a 2-core Xeon. Storage at the cap, whose cycles are one run
#: of events written from one template, now takes about 0.6 s end to end
#: with output to a file and peaks at about 135 MiB resident, as JSON or
#: CSV (4-7 s and 320 MiB with an event object and a dict per cycle). The
#: largest beam, ``--trials 40000 --policy noise``, takes about 0.2 s end
#: to end with JSON or CSV output on a 2-core Xeon, of which about 0.15 s
#: is interpreter start and imports (0.8 s and 0.5 s with per-record
#: dicts). The scan holds one chunk of whole shells at a time, about 4,096
#: points or one shell if larger (from ``--grid 92`` up): with the identity
#: gate, which admits all 3,875,251 points, ``--grid 250`` computes for about
#: 0.3 s and peaks at about 41 MiB resident (0.7 s and 280 MiB with the whole
#: grid held).
MAX_TRIALS = 40_000
MAX_STORAGE_CYCLES = 300_000
MAX_GRID = 250

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNEXPECTED_COLLAPSE = 3


@dataclass
class Report:
    schema_version: str
    command: list
    seed: int
    results: dict
    wall_time_ms: float

    def to_payload(self) -> dict:
        # wall_time_ms is intentionally absent: it would break the
        # byte-identical reproducibility contract (it goes to stderr)
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "seed": self.seed,
            "results": self.results,
        }


def canonical_json(value) -> str:
    """:func:`serialize.canonical_json`, here so perfbench counts ``cli.report_bytes``."""
    return serialize.canonical_json(value)


def emit_report(report: Report, output: str = "json") -> str:
    """Serialize a report; CSV is a flat numeric summary (beam reports get
    one row per trial)."""
    if output == "json":
        return canonical_json(report.to_payload())
    if output != "csv":
        raise ValueError(f"unknown output format {output!r}")
    records = report.results.get("records")
    if type(records) is serialize.IndexedRecords:
        return serialize.records_csv(records, ("prep_basis", "meas_basis", "outcome", "matched", "action"))
    return serialize.flat_csv(report.to_payload())


def _inline(text: str) -> bool:
    """A state flag holds inline amplitudes, not a path, when it has a comma
    or reads as one number."""
    try:
        float(text)
    except ValueError:
        return "," in text
    return True


def _parse_state(text: str) -> StateVector:
    """Inline 'a_re,a_im,b_re,b_im' amplitudes or a JSON vector file; the
    constructor's error is prefixed with the text or the file path."""
    if _inline(text):
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(
                f"inline state needs 4 comma-separated numbers (a_re,a_im,b_re,b_im), got {len(parts)}"
            )
        try:
            a_re, a_im, b_re, b_im = map(float, parts)
            return StateVector([complex(a_re, a_im), complex(b_re, b_im)])
        except ValueError as exc:
            raise ValueError(f"invalid inline state {text!r}: {exc}") from None
    return serialize.load(text, StateVector.from_json)


def _density(document) -> DensityOperator:
    arr = serialize.document_to_array(document)
    return DensityOperator(arr) if arr.ndim == 2 else StateVector(arr).density()


def _parse_density(text: str) -> DensityOperator:
    """A state flag interpreted as a density operator; matrix files allowed."""
    if _inline(text):
        return _parse_state(text).density()
    return serialize.load(text, _density)


def _gate_spec(text: str) -> GateSpec:
    if text in GATE_NAMES and text != "custom":
        return GateSpec(text)
    if Path(text).exists():
        return GateSpec("custom", custom_path=text)
    raise ValueError(f"--unitary must be one of {GATE_NAMES[:-1]} or an existing file, got {text!r}")


def _bounded(flag: str, value: int, low: int, cap: int) -> int:
    """``value`` when ``low <= value <= cap``; checked before any work, so
    the error names the flag or the config key."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")
    return value


def _tolerance(value: float) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"--tolerance must be a finite number >= 0, got {value!r}")
    return value


#: The subcommands whose report draws from the seed; the others print it.
_SEEDED = ("run-protocol", "classify-consistency", "beam", "teleport-baseline", "resources")


def _seed(args) -> int:
    """``--seed``, else ``CTC_SIM_SEED``, else 0. A seed that a generator
    reads must be >= 0; ``run-protocol --config`` reads the file's."""
    name, seed = "--seed", args.seed
    if seed is None:
        name, text = "CTC_SIM_SEED", os.environ.get("CTC_SIM_SEED") or "0"
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"CTC_SIM_SEED must be an integer >= 0, got {text!r}") from None
    if seed < 0 and args.subcommand in _SEEDED and not getattr(args, "config", None):
        raise ValueError(f"{name} must be an integer >= 0, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="CTC qubit protocol simulator and consistency toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, state=False, unitary=False):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (env CTC_SIM_SEED)")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        if state:
            p.add_argument("--state", default="0.6,0,0.8,0", help="amplitudes a_re,a_im,b_re,b_im or a JSON file")
        if unitary:
            p.add_argument("--unitary", default="swap", help="gate name or JSON matrix file")

    p = sub.add_parser("run-protocol", help="execute one Alice/Bob session")
    common(p, state=True, unitary=True)
    p.add_argument("--ctc", help="initial CTC state (same format as --state)")
    p.add_argument("--formalism", choices=FORMALISMS)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--bob-measures", action="store_true", default=None)
    p.add_argument("--storage-cycles", type=int)
    p.add_argument("--config", default=None, help="JSON file mirroring ProtocolConfig fields")
    # a session flag left out reads None, so that --config can refuse each one given
    p.set_defaults(state=None, unitary=None)

    p = sub.add_parser("fixed-point", help="solve the Deutsch condition for a coupling")
    common(p, state=True, unitary=True)
    p.add_argument("--tolerance", type=float, default=1e-12)

    p = sub.add_parser("classify-consistency", help="strong/Deutsch/weak verdicts for a coupling")
    common(p, state=True, unitary=True)
    p.add_argument("--ctc", default="1,0,0,0")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--grid", type=int, default=None, help="also scan admissible inputs on a Bloch grid")

    p = sub.add_parser("beam", help="random-basis beam of CTC qubits")
    common(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--policy", choices=BEAM_POLICIES, default="collapse")

    p = sub.add_parser("teleport-baseline", help="standard teleportation with resource accounting")
    common(p, state=True)

    p = sub.add_parser("topology-check", help="validate a finite topology and test separation")
    common(p)
    p.add_argument("--space", default=None, help="JSON file {points: [...], opens: [[...], ...]}")
    p.add_argument("--copies", type=int, default=None, help=f"build a line-splitting model instead (2..{MAX_COPIES})")

    p = sub.add_parser("resources", help="tallies and conversion-relation verdicts")
    common(p, state=True)
    return parser


#: The run-protocol flags that a --config file replaces, by dest, and the
#: value each takes when not given; a flag left out parses as None.
_SESSION_DEFAULTS = dict(
    seed=None, state="0.6,0,0.8,0", ctc="1,0,0,0", unitary="swap", formalism="wavefunction",
    scenario="nominal", bob_measures=False, storage_cycles=5,
)


def _run_protocol(args, seed) -> tuple[dict, int, int]:
    given = [dest for dest in _SESSION_DEFAULTS if getattr(args, dest) is not None]
    if args.config:
        if given:
            flag = "--" + given[0].replace("_", "-")
            raise ValueError(f"--config and {flag} are mutually exclusive; the file sets the session")
        directory = os.path.dirname(args.config)

        def build(document) -> ProtocolConfig:
            config = ProtocolConfig.from_json(document, directory)
            _bounded("config key 'storage_cycles'", config.storage_cycles, 0, MAX_STORAGE_CYCLES)
            return config

        config = serialize.load(args.config, build)
    else:
        vars(args).update((d, value) for d, value in _SESSION_DEFAULTS.items() if d not in given)
        config = ProtocolConfig(
            input_state=_parse_state(args.state),
            ctc_initial=_parse_state(args.ctc),
            gate=_gate_spec(args.unitary),
            formalism=args.formalism,
            scenario=args.scenario,
            bob_measures=args.bob_measures,
            seed=seed,
            storage_cycles=_bounded("--storage-cycles", args.storage_cycles, 0, MAX_STORAGE_CYCLES),
        )
    transcript = run_session(config)
    code = EXIT_OK
    if transcript.collapse_flag and config.scenario not in EXPECTED_COLLAPSE:
        code = EXIT_UNEXPECTED_COLLAPSE
    return transcript.to_json(), code, config.seed


def _fixed_point(args, seed) -> dict:
    gate = build_gate(_gate_spec(args.unitary))
    rho_in = _parse_density(args.state)
    tolerance = _tolerance(args.tolerance)
    iterative = solve_deutsch_fixed_point(gate, rho_in, "iterative", tolerance=tolerance)
    spectral = solve_deutsch_fixed_point(gate, rho_in, "spectral", tolerance=tolerance)
    agreement = trace_distance(iterative.rho, spectral.rho)
    return {
        "iterative": iterative.to_json(),
        "spectral": spectral.to_json(),
        "methods_agree": bool(agreement <= 1e-9),
        "agreement_trace_distance": float(agreement),
    }


def _classify(args, seed) -> dict:
    if args.grid is not None:
        _bounded("--grid", args.grid, 8, MAX_GRID)
    gate_spec = _gate_spec(args.unitary)
    state = _parse_state(args.state)
    ctc = _parse_state(args.ctc)
    tolerance = _tolerance(args.tolerance)
    config = ProtocolConfig(input_state=state, ctc_initial=ctc, gate=gate_spec, seed=seed)
    gate = config.coupling
    results = {
        "strong": check_strong(gate, state, ctc, tolerance=tolerance).to_json(),
        "deutsch": check_deutsch(gate, state.density(), ctc.density(), tolerance).to_json(),
        # the weak verdict of the session's loop, as its transcript reports it
        "weak": check_weak(_run_stages(config).loop_states).to_json(),
    }
    if args.grid is not None:
        # the report reads only the residuals: no density operator per grid point
        ctc_matrix = np.outer(ctc.amplitudes, ctc.amplitudes.conj())
        count, top = 0, -math.inf
        for _, residuals in _admissible_points(gate, ctc_matrix, args.grid, SOLVER_AGREEMENT_TOL):
            count += len(residuals)
            top = max(top, residuals.max(initial=-math.inf))
        results["admissible_scan"] = {
            "grid_resolution": args.grid,
            "admissible_count": count,
            "max_residual": float(top) if count else None,
        }
    return results


def _topology(args) -> dict:
    if (args.space is None) == (args.copies is None):
        raise ValueError("topology-check needs exactly one of --space or --copies")
    if args.space is not None:
        space = serialize.load(args.space, TopologySpace.from_json)
    else:
        space = build_line_splitting(_bounded("--copies", args.copies, 2, MAX_COPIES))
    ok, violations = validate_topology(space)
    results = {"valid": ok, "violations": violations, "points": list(space.points)}
    if ok:
        hausdorff, witness = is_hausdorff(space)
        results["hausdorff"] = hausdorff
        results["witness"] = list(witness) if witness else None
    return results


def _resources(args, seed) -> dict:
    state = _parse_state(args.state)
    ctc_run = run_session(ProtocolConfig(input_state=state, seed=seed))
    teleport_run = run_teleportation_baseline(state, seed=seed)
    ebit_run = run_ebit_distribution()
    transcripts = [ctc_run, teleport_run, ebit_run]
    tallies = {
        t.protocol: {kind.value: delta for kind, delta in sorted(tally(t).items())}
        for t in transcripts
    }
    relations = {
        rel.relation_id: verify_conversion(rel, transcripts).to_json()
        for rel in STANDARD_RELATIONS
    }
    return {"tallies": tallies, "relations": relations}


def dispatch(argv) -> tuple[Report, int, str]:
    parser = _build_parser()
    args = parser.parse_args(argv)
    seed = _seed(args)
    code = EXIT_OK
    started = time.perf_counter()
    if args.subcommand == "run-protocol":
        results, code, seed = _run_protocol(args, seed)
    elif args.subcommand == "fixed-point":
        results = _fixed_point(args, seed)
    elif args.subcommand == "classify-consistency":
        results = _classify(args, seed)
    elif args.subcommand == "beam":
        results = run_beam(_bounded("--trials", args.trials, 1, MAX_TRIALS), args.policy, seed).to_json()
    elif args.subcommand == "teleport-baseline":
        transcript = run_teleportation_baseline(_parse_state(args.state), seed)
        results = transcript.to_json()
    elif args.subcommand == "topology-check":
        results = _topology(args)
    else:
        results = _resources(args, seed)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = Report(SCHEMA_VERSION, list(argv), seed, results, elapsed_ms)
    return report, code, args.output


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        report, code, output = dispatch(argv)
        started = time.perf_counter()
        text = emit_report(report, output)
        serialize_ms = (time.perf_counter() - started) * 1000.0
    except SystemExit:
        raise
    except (ValueError, TypeError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # the report and its newline apart: the report may be tens of MB
    sys.stdout.write(text)
    sys.stdout.write("\n")
    print(f"wall_time_ms={report.wall_time_ms:.3f} serialize_ms={serialize_ms:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
