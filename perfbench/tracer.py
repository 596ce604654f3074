"""Outside-in span tracer for mlco's layers.

The tracer replaces a layer function at the module attribute its caller
looks up, so each span marks one call crossing into that layer: for example
``passes.build_one_step`` (the name the pipeline calls) rather than
``build.build_one_step``.  Spans are kept in memory as
``[name, start, end, parent, input_id, counters]`` and written out when the
benchmark ends.  ``ir.commutes`` is deliberately not wrapped: it is called
about 850k times per compile at n=12, so a wrapper would dominate the
measurement; its ``lru_cache`` counters are read instead.
"""

from __future__ import annotations

import functools
import time


def _circuit_arg(args, kwargs):
    return args[0] if args else kwargs["circuit"]


def _rewrite_counters(args, kwargs, out):
    before = _circuit_arg(args, kwargs)
    return {"gates_removed": len(before.gates) - len(out.gates),
            "useful": int(out.gates != before.gates)}


def _cancel_counters(args, kwargs, out):
    return {"gates_removed": len(_circuit_arg(args, kwargs).gates) - len(out.gates)}


def _cleanup_counters(args, kwargs, out):
    return {"gates_delta": len(out.gates) - len(_circuit_arg(args, kwargs).gates)}


def _source_counters(args, kwargs, out):
    return {"source_gates": len(out.gates)}


def layer_targets(mlco):
    """(module, attribute, span name, counter) for every traced layer boundary.

    `mlco` maps module names to the imported mlco modules.  A function is
    wrapped in each namespace that calls it across a layer boundary; every
    wrapper wraps the original function, so no call is counted twice.
    """
    passes, cli, sim, ir, report = (mlco[m] for m in ("passes", "cli", "sim", "ir", "report"))
    targets = []
    for module in (passes, cli):
        targets += [(module, "build_one_step", "build", _source_counters),
                    (module, "build_steps", "build", _source_counters),
                    (module, "compose_steps", "build", None)]
    for attr in ("lower_vchain", "replace_ccx_with_rccx", "lower_to_logs",
                 "optimize_logs", "gray_mcrz"):
        counter = _cleanup_counters if attr == "optimize_logs" else None
        targets += [(module, attr, f"passes.{attr}", counter) for module in (passes, cli)]
    targets += [
        (passes, "apply_rules", "passes.apply_rules", _rewrite_counters),
        (passes, "cancel_adjacent", "passes.cancel_adjacent", _cancel_counters),
        (passes, "pipeline_mlco", "passes.pipeline_mlco", None),
        (report, "pipeline_mlco", "passes.pipeline_mlco", None),
        (report, "reproduce_table1", "report.reproduce_table1", None),
        (sim, "equivalent_up_to_phase", "sim.equivalent_up_to_phase", None),
        (sim, "apply", "sim.apply", None),
        (sim, "unitary_of", "sim.unitary_of", None),
        (cli, "read_circuit", "ir.read_circuit", None),
        (cli, "write_circuit", "ir.write_circuit", None),
        (ir, "write_circuit", "ir.write_circuit", None),
        (cli, "main", "cli.main", None),
    ]
    return [t for t in targets if hasattr(t[0], t[1])]


#: Calls of a layer made directly from another, counted under a name of their own.
NESTED_COUNTS = {
    # One cancellation per sweep of the LoGS cleanup's fixpoint loop.
    ("passes.optimize_logs", "passes.cancel_adjacent"): "passes.optimize_logs.sweeps",
}


class Tracer:
    """Records one span per call of each installed wrapper."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []
        self.input_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, counter in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.input_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def layer_totals(self, first: int) -> dict[str, float]:
        """Self seconds, calls and counter sums per layer over spans[first:].

        A span's self time is its duration minus its children's durations.
        ``spans.traced_s`` is the summed duration of the root spans.
        """
        spans = self.spans
        own = {i: spans[i][2] - spans[i][1] for i in range(first, len(spans))}
        roots = 0.0
        for i in range(first, len(spans)):
            duration, parent = spans[i][2] - spans[i][1], spans[i][3]
            if parent is None:
                roots += duration
            else:
                own[parent] -= duration
        totals: dict[str, float] = {"spans.traced_s": roots}
        for i, seconds in own.items():
            name, parent, counters = spans[i][0], spans[i][3], spans[i][5]
            nested = parent is not None and NESTED_COUNTS.get((spans[parent][0], name))
            if nested:
                totals[nested] = totals.get(nested, 0) + 1
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + seconds
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            for key, value in (counters or {}).items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        return totals
