"""ctcsim benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's ``src/``. One client calls the library in this process, in
whole passes over the workload's input pool, until ``--seconds`` have gone
by. Every output is checked; the last line of stdout is the result object.
With ``--trace 0`` it holds the end-to-end metrics; with ``--trace 1``
half the time runs untraced and half traced, and it holds the per-layer
metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import Tracer
from workloads import REGISTRY, trace_drift_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0  # golden digests are stored for this seed
HELD_OUT_SEED = 7919  # never used while tuning; a claimed gain must also hold here
SETUP_PROBES = 5
# Host speed is measured between ops with a fixed calculation that does not
# use ctcsim, and every timing is scaled to the speed at which that
# calculation takes REFERENCE_MS (see README, "Noise").
REFERENCE_MS = 2.0
CALIBRATE_EVERY_S = 0.1
FACTOR_WINDOW_S = 1.0
CLI_COMMANDS = {
    "run-protocol": ["run-protocol", "--seed", "7", "--state", "0.28,0.96,0,0"],
    "fixed-point": ["fixed-point", "--unitary", "cnot", "--state", "0.6,0,0,0.8"],
    "classify-consistency": ["classify-consistency", "--grid", "16"],
    "beam": ["beam", "--trials", "500", "--policy", "noise", "--seed", "3"],
    "teleport-baseline": ["teleport-baseline", "--seed", "5"],
    "topology-check": ["topology-check", "--copies", "6"],
    "resources": ["resources", "--seed", "2"],
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(REGISTRY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools and one probe, for tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record the default seed's output digests (full and smoke pools) and exit",
    )
    return parser.parse_args(argv)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _reference_work() -> float:
    m = np.eye(2, dtype=complex)
    acc = 0.0
    for i in range(20):
        x = np.kron(m, m) * (1.0 + i * 1e-3)
        np.allclose(x, x.conj().T, atol=1e-12, rtol=0.0)
        acc += float(np.linalg.eigvalsh(x)[0])
        json.dumps({"i": i, "v": [acc, str(acc)]}, sort_keys=True)
    return acc


def speed_factor() -> float:
    """REFERENCE_MS over the mean of four timings of the reference work:
    above 1 when the host runs faster than nominal. The collector is off
    meanwhile, so that the program's heap does not change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            _reference_work()
        mean = (time.perf_counter() - start) / 4
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_MS / (mean * 1e3)


# ------------------------------------------------------------ set-up


class Bench:
    """Everything set-up produces for one workload and seed."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        sys.path.insert(0, str(SRC))
        import ctcsim
        import ctcsim.cli

        if Path(ctcsim.__file__).resolve().parent != SRC / "ctcsim":
            raise ImportError(f"ctcsim imported from {ctcsim.__file__}, not from {SRC}")
        self.lib = ctcsim
        self.spec = REGISTRY[workload]
        stream = [seed, list(REGISTRY).index(workload)]
        raw = self.spec.generate(np.random.default_rng(stream), smoke)
        again = self.spec.generate(np.random.default_rng(stream), smoke)
        raw_bytes = json.dumps(raw, sort_keys=True).encode()
        self.inputs_identical = raw_bytes == json.dumps(again, sort_keys=True).encode()
        self.inputs_digest = hashlib.sha256(raw_bytes).hexdigest()[:16]
        self.pool = self.spec.prepare(raw)
        for item in self.spec.prepare(self.spec.warmup(raw)):
            self.spec.op(self.lib, item)


def _probe_setup(args) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter to the end of warm-up,
    unscaled and scaled by the speed factor the probe measured."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline().split()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if len(line) != 3 or line[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    factor, calibrating = float(line[1]), float(line[2])
    return elapsed - calibrating, (elapsed - calibrating) * factor


def _probe(args) -> None:
    """Set up as a run would, bracketed by speed calibrations, and report
    their mean factor and the seconds they took."""
    start = time.perf_counter()
    first = speed_factor()
    calibrating = time.perf_counter() - start
    Bench(args.workload, args.seed, args.smoke)
    start = time.perf_counter()
    last = speed_factor()
    calibrating += time.perf_counter() - start
    print(f"ready {(first + last) / 2!r} {calibrating!r}", flush=True)


# ------------------------------------------------------------ measuring


class Run:
    """Outcome of timing whole passes over the pool.

    Each input's latency is the median over its passes, which drops
    slowdowns shorter than a pass; the metrics are taken over those
    per-input medians. ``scaled`` holds the same samples multiplied by the
    host speed factor measured around them.
    """

    def __init__(self, pool_size: int):
        self.latencies = [[] for _ in range(pool_size)]  # seconds, per input per pass
        self.scaled = [[] for _ in range(pool_size)]
        self.factors = []
        self.units = [0] * pool_size
        self.passes = 0
        self.failed = 0
        self.failures = []

    @property
    def ops(self) -> int:
        return sum(len(samples) for samples in self.latencies)

    def typical(self, scaled: bool = True) -> np.ndarray:
        """Each input's median latency in seconds."""
        samples = self.scaled if scaled else self.latencies
        return np.array([statistics.median(x) for x in samples])

    def throughput(self, scaled: bool = True) -> float:
        return sum(self.units) / float(self.typical(scaled).sum())


def measure(bench: Bench, seconds: float, digests: dict, golden_ops, tracer=None) -> Run:
    """Run whole passes over the pool until ``seconds`` have gone by.

    ``digests`` maps pool index to the first output digest seen; every
    later output of that input must match it, and at the default seed the
    first must match the golden digest.
    """
    spec, lib, run = bench.spec, bench.lib, Run(len(bench.pool))
    clock = time.perf_counter
    calibrations = [(clock(), speed_factor())]
    samples = []  # (pool index, start, seconds)
    started = clock()
    while run.passes == 0 or clock() - started < seconds:
        for index, item in enumerate(bench.pool):
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                text, units = spec.op(lib, item)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                text, error = None, exc
            elapsed = clock() - t0
            if tracer is not None:
                tracer.active = False
            samples.append((index, t0, elapsed))
            if text is None:
                run.failed += 1
                run.failures.append(f"op {index} raised {type(error).__name__}: {error}")
            else:
                run.units[index] = units
                digest = _digest(text)
                expected = digests.setdefault(index, golden_ops[index] if golden_ops else digest)
                try:
                    if digest != expected:
                        raise AssertionError(f"output digest {digest} != expected {expected}")
                    spec.check(item, text)
                except Exception as exc:  # a malformed output fails its op like a wrong one
                    run.failed += 1
                    run.failures.append(f"op {index}: {exc}")
            if clock() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append((clock(), speed_factor()))
        run.passes += 1
    calibrations.append((clock(), speed_factor()))
    # An op is scaled by the mean of the calibrations made from
    # FACTOR_WINDOW_S before it to FACTOR_WINDOW_S after it, always
    # including those just before and after it. One calibration is a few ms, so it
    # is noisy; ops of a second or more would otherwise rest on two readings.
    times = [t for t, _ in calibrations]
    run.factors = [f for _, f in calibrations]
    for index, start, elapsed in samples:
        after = bisect.bisect(times, start)
        first = min(after - 1, bisect.bisect_left(times, start - FACTOR_WINDOW_S))
        last = max(after + 1, bisect.bisect(times, start + elapsed + FACTOR_WINDOW_S))
        factor = statistics.fmean(run.factors[first:last])
        run.latencies[index].append(elapsed)
        run.scaled[index].append(elapsed * factor)
    return run


def _cli(argv) -> tuple[subprocess.CompletedProcess, float]:
    """One CLI invocation in a fresh process, and its wall time in ms."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ctcsim.cli", *argv], capture_output=True,
                          text=True, env=_env(), cwd=ROOT, timeout=120)
    return done, round((time.perf_counter() - start) * 1e3, 3)


def run_cli_commands(golden_cli) -> tuple[int, dict]:
    """Each CLI subcommand once; stdout against its golden digest."""
    failed, wall_ms = 0, {}
    for name, argv in CLI_COMMANDS.items():
        done, wall_ms[name] = _cli(argv)
        ok = done.returncode == 0 and (golden_cli is None or _digest(done.stdout) == golden_cli[name])
        if not ok:
            failed += 1
            print(f"cli {name}: exit {done.returncode}, stdout digest {_digest(done.stdout)}",
                  file=sys.stderr)
    return failed, wall_ms


def tail_percentile(pool_size: int) -> float:
    """Highest percentile, to 0.1, with at least ten distinct inputs beyond it."""
    return max(50.0, (1000 * (pool_size - 10) // pool_size) / 10)


# ------------------------------------------------------------ reporting


def _environment(seed: int) -> dict:
    cpu = platform.processor() or ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def write_golden() -> None:
    """Record digests of the default seed's first pass, for both pool sizes."""
    document = {}
    for size in ("full", "smoke"):
        document[size] = {"workloads": {}}
        for workload in REGISTRY:
            bench = Bench(workload, DEFAULT_SEED, size == "smoke")
            ops = [_digest(bench.spec.op(bench.lib, item)[0]) for item in bench.pool]
            document[size]["workloads"][workload] = {"inputs": bench.inputs_digest, "ops": ops}
    document["cli"] = {name: _digest(_cli(argv)[0].stdout) for name, argv in CLI_COMMANDS.items()}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload is None and not args.write_golden:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if not (SRC / "ctcsim" / "__init__.py").is_file():
        print(f"error: no ctcsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.probe:
        _probe(args)
        return 0

    probes = []  # (unscaled, scaled) seconds
    if not args.trace:
        probes = [_probe_setup(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    bench = Bench(args.workload, args.seed, args.smoke)
    golden = _load_golden()
    golden_ops = None
    setup_failures = [] if bench.inputs_identical else ["two generations gave different inputs"]
    if args.seed == DEFAULT_SEED and golden:
        expected = golden["smoke" if args.smoke else "full"]["workloads"][args.workload]
        golden_ops = expected["ops"]
        if expected["inputs"] != bench.inputs_digest:
            setup_failures.append(f"input digest {bench.inputs_digest} != golden {expected['inputs']}")

    digests = {}
    info = {"workload": args.workload, "unit": bench.spec.unit, "pool": len(bench.pool)}
    metrics = {}
    if args.trace:
        plain = measure(bench, args.seconds / 2, digests, golden_ops)
        tracer = Tracer(bench.lib)
        tracer.install()
        try:
            traced = measure(bench, args.seconds / 2, digests, golden_ops, tracer)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        traced_s = sum(sum(samples) for samples in traced.latencies)
        for name, (value, unit) in tracer.per_op_metrics(traced.ops, traced_s).items():
            metrics[name] = {"value": value, "unit": unit}
        ratio = traced.throughput() / plain.throughput()
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        cli_failed = 0
    else:
        run = measure(bench, args.seconds, digests, golden_ops)
        runs = [run]
        cli_failed, info["cli_wall_ms"] = run_cli_commands(golden.get("cli"))
        if args.workload == "fixed_points":  # information only, see README
            info["known_defect_trace_drift"] = trace_drift_probe(bench.lib)
        percentile = tail_percentile(len(bench.pool))

        def timings(scaled: bool) -> dict:
            lat_ms = run.typical(scaled) * 1e3
            return {
                "setup_s": statistics.median(probe[scaled] for probe in probes),
                "throughput_ops_s": run.throughput(scaled),
                "latency_p50_ms": float(np.median(lat_ms)),
                "latency_tail_ms": float(np.percentile(lat_ms, percentile)),
            }

        units = {"setup_s": "s", "throughput_ops_s": "ops/s", "latency_p50_ms": "ms",
                 "latency_tail_ms": "ms"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in timings(True).items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"
        }
        info.update(tail_percentile=percentile, samples=run.ops, setup_probes_s=probes,
                    unscaled=timings(False), speed_factor_median=statistics.median(run.factors))

    attempted = sum(r.ops for r in runs) + len(CLI_COMMANDS) * (not args.trace) + 1
    failed = sum(r.failed for r in runs) + cli_failed + bool(setup_failures)
    for message in setup_failures + [m for r in runs for m in r.failures][:20]:
        print(f"failed: {message}", file=sys.stderr)
    info.update(
        passes=[r.passes for r in runs],
        error_rate=failed / attempted,
        golden_checked=golden_ops is not None,
        environment=_environment(args.seed),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
