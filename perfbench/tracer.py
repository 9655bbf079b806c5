"""Per-layer spans and counters, installed around ctcsim at run time.

The program's sources are not edited. ``Tracer.install`` replaces every
public function of each ctcsim module (in every ctcsim namespace that
imported it) and patches the public methods and ``__init__`` of its
classes in place, so that ``isinstance`` checks keep working. Each wrapper
records a span only while ``Tracer.active`` is true, that is, inside a
timed operation; outside, it calls straight through.

A layer is a module. A layer's self time is the sum of its spans minus the
time of the spans nested in them. A call into the same layer as the
innermost open span opens no span: its time is already part of that span.
Counters still see such calls.
"""

from __future__ import annotations

import enum
import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("states", "gates", "consistency", "protocol", "resources", "topology", "serialize", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.active = False
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # one [layer, child_seconds] frame per open span
        self._restore = []  # (owner, name, original) in install order

    # ------------------------------------------------------------ counters

    def _hooks(self):
        """Counter updates keyed by (layer, qualified name).

        A hook sees the call's arguments, its result (None when it raised),
        the exception (or None) and whether the call was nested inside the
        same layer.
        """
        counts = self.counts

        def bump(key):
            def hook(args, kwargs, result, exc, nested):
                counts[key] += 1

            return hook

        def solver(args, kwargs, result, exc, nested):
            counts["consistency.solves"] += 1
            if exc is None:
                counts["consistency.converged"] += 1
                counts["consistency.solver_iterations"] += result.iterations

        def grid(args, kwargs, result, exc, nested):
            if exc is None:
                counts["consistency.grid_points"] += len(result)

        def beam(args, kwargs, result, exc, nested):
            if exc is None:
                counts["protocol.events"] += len(result.records)

        def validate(args, kwargs, result, exc, nested):
            opens = len(set(args[0].opens))
            counts["topology.opens"] += opens
            counts["topology.axiom_pairs"] += opens * (opens - 1) // 2

        def consume(args, kwargs, result, exc, nested):
            counts["topology.ledger_calls"] += 1
            if exc is None:
                outcome = args[2] if len(args) > 2 else kwargs["outcome"]
                counts["protocol.consumed"] += 1
                counts["protocol.merged"] += outcome == "merged"

        def report(args, kwargs, result, exc, nested):
            if exc is None and not nested:
                counts["cli.report_bytes"] += len(result.encode())

        hooks = {
            ("states", "DensityOperator.__init__"): bump("states.density_constructions"),
            ("states", "StateVector.__init__"): bump("states.vector_constructions"),
            ("gates", "build_gate"): bump("gates.builds"),
            ("consistency", "deutsch_map"): bump("consistency.deutsch_map_calls"),
            ("consistency", "solve_deutsch_fixed_point"): solver,
            ("consistency", "bloch_grid"): grid,
            ("protocol", "TranscriptEvent.__init__"): bump("protocol.events"),
            ("protocol", "run_beam"): beam,
            ("resources", "LedgerEntry.__init__"): bump("resources.ledger_entries"),
            ("topology", "validate_topology"): validate,
            ("topology", "BranchLedger.consume"): consume,
            ("cli", "canonical_json"): report,
            ("cli", "emit_report"): report,
        }
        ledger = self.modules["topology"].BranchLedger
        for name, value in vars(ledger).items():
            if inspect.isfunction(value) and not name.startswith("_") and name != "consume":
                hooks[("topology", f"BranchLedger.{name}")] = bump("topology.ledger_calls")
        for name in ("allocate_branch", "consume_branch"):
            hooks[("topology", name)] = bump("topology.ledger_calls")
        return hooks

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, layer, hook):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nested = bool(stack) and stack[-1][0] == layer
            if nested:
                if hook is None:
                    return fn(*args, **kwargs)
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as error:
                    exc = error
                    raise
                finally:
                    hook(args, kwargs, result, exc, True)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                if hook is not None:
                    hook(args, kwargs, result, exc, False)
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def install(self):
        hooks = self._hooks()
        replaced = {}  # id(original function) -> wrapper
        for layer, module in self.modules.items():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    replaced[id(value)] = self._wrap(value, layer, hooks.get((layer, name)))
                elif inspect.isclass(value) and not issubclass(value, (BaseException, enum.Enum)):
                    self._patch_class(value, layer, hooks)
        namespaces = [self.package, *self.modules.values()]
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._restore.append((namespace, name, value))
                    setattr(namespace, name, replaced[id(value)])

    def _patch_class(self, cls, layer, hooks):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            hook = hooks.get((layer, f"{cls.__name__}.{name}"))
            if inspect.isfunction(value):
                patched = self._wrap(value, layer, hook)
            elif isinstance(value, (classmethod, staticmethod)):
                patched = type(value)(self._wrap(value.__func__, layer, hook))
            else:
                continue
            self._restore.append((cls, name, value))
            setattr(cls, name, patched)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def per_op_metrics(self, ops: int, op_seconds: float) -> dict:
        """Per-layer metrics divided by the number of traced operations."""
        counts = self.counts
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = (self.self_s[layer] * 1e3 / ops, "ms")
        attributed = sum(self.self_s[layer] for layer in LAYERS)
        metrics["trace.op_ms"] = (op_seconds * 1e3 / ops, "ms")
        metrics["trace.unattributed_ms"] = ((op_seconds - attributed) * 1e3 / ops, "ms")
        for key in (
            "states.density_constructions",
            "states.vector_constructions",
            "gates.builds",
            "consistency.deutsch_map_calls",
            "consistency.solver_iterations",
            "consistency.grid_points",
            "protocol.events",
            "resources.ledger_entries",
            "topology.opens",
            "topology.axiom_pairs",
            "topology.ledger_calls",
        ):
            metrics[key] = (counts[key] / ops, "count")
        metrics["cli.report_bytes"] = (counts["cli.report_bytes"] / ops, "bytes")
        metrics["consistency.converged_ratio"] = (
            _ratio(counts["consistency.converged"], counts["consistency.solves"]),
            "ratio",
        )
        metrics["protocol.merged_ratio"] = (
            _ratio(counts["protocol.merged"], counts["protocol.consumed"]),
            "ratio",
        )
        return metrics


def _ratio(part: int, whole: int) -> float:
    """part / whole; 0 when the workload made no attempt."""
    return part / whole if whole else 0.0
