"""mlco benchmark: compile and verify times, output gate counts, and a layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stair-mlco --seed 1 --seconds 30 --trace 0

One sequential, closed-loop, single-process client.  Operations run pass
after pass over the workload's inputs until ``--seconds`` have elapsed (at
least one); after the first pass an operation is skipped when its previous
duration would overrun the deadline.  Every operation starts with a cold
``ir.commutes`` cache, as each ``mlco optimize`` process does.  A timing is
the sum over operations of each operation's median seconds.  With
``--trace 1`` each operation runs untraced and then traced; the per-layer
metrics come from the traced runs only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of BENCHMARK.json.  Per-operation rows (and, when
traced, every span) are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh-interpreter imports timed before the workload, and again after it,
#: so that setup_s spans more of a run's slow and fast phases of the host.
SETUP_RUNS = 4
#: Seconds of small complex matrix products run before timing starts.  The
#: first products in a process sometimes cost ~0.5 s more while OpenBLAS
#: starts its threads, which would otherwise land on whichever verification
#: happens to run first.
BLAS_WARMUP_S = 0.3
#: Timed inside the child: the parent would see the child's exit only at
#: Popen.wait's polling steps, which are up to 50 ms apart.
_IMPORT_TIMER = ("import time; start = time.perf_counter(); import mlco.cli; "
                 "print(time.perf_counter() - start)")


def measure_setup() -> list[float]:
    """Seconds that fresh interpreters each take to import mlco.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return [float(subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
                                 check=True, timeout=120, capture_output=True,
                                 text=True).stdout)
            for _ in range(SETUP_RUNS)]


def run_op(op, ir, tracer, pass_no: int) -> dict:
    clear = getattr(ir.commutes, "cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()
    sample: dict = {"pass": pass_no, "traced": tracer is not None, "failed": None}
    if tracer is not None:
        tracer.input_id = f"{op.key}#{pass_no}"
        first = len(tracer.spans)
    start = time.perf_counter()
    try:
        result = op.execute()
        sample["seconds"] = time.perf_counter() - start
        sample.update(op.check(result))
    except Exception:  # every failure is recorded and counted, never fatal
        sample.setdefault("seconds", time.perf_counter() - start)
        sample["failed"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    info = getattr(ir.commutes, "cache_info", None)
    if info is not None:
        stats = info()
        sample.update(commutes_calls=stats.hits + stats.misses,
                      commutes_hits=stats.hits, commutes_size=stats.currsize)
    if tracer is not None:
        sample["layers"] = tracer.layer_totals(first)
    return sample


def measure(ops, ir, seconds: float, tracer) -> tuple[dict, float]:
    """Run passes over `ops` until `seconds` have elapsed.

    Returns the samples per operation and the peak resident memory in MB at
    the end of the first pass, which does not depend on how many further
    operations fit in the run.  With a tracer, each operation runs untraced
    and then traced, back to back, so the two differ only by the tracing.
    """
    rows = {op.key: {"kind": op.kind, "samples": []} for op in ops}
    runs_per_op = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        ran = 0
        for op in ops:
            samples = rows[op.key]["samples"]
            if pass_no and (time.perf_counter() + runs_per_op * samples[-1]["seconds"]
                            > deadline):
                continue
            samples.append(run_op(op, ir, None, pass_no))
            if tracer is not None:
                tracer.install()
                try:
                    samples.append(run_op(op, ir, tracer, pass_no))
                finally:
                    tracer.uninstall()
            ran += 1
        if pass_no == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_no += 1
        if not ran:
            return rows, peak_rss_mb


def warm_up_blas() -> None:
    import numpy as np

    state, op = np.ones((64, 4096), complex), np.ones((64, 64), complex)
    end = time.perf_counter() + BLAS_WARMUP_S
    while time.perf_counter() < end:
        op @ state


def _median(samples, field):
    """Median of a field over samples; counts stay whole numbers."""
    values = [s[field] for s in samples if field in s]
    if not values:
        return None
    return statistics.median(values) if field.endswith("seconds") \
        else statistics.median_low(values)


def _sum_medians(rows, field, traced=False, kind=None):
    total = 0
    for row in rows.values():
        if kind is None or row["kind"] == kind:
            value = _median([s for s in row["samples"] if s["traced"] == traced], field)
            total += value or 0
    return total


def end_to_end(rows, setup_times, peak_rss_mb, attempted, failed) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "compile_s": _sum_medians(rows, "seconds", kind="compile"),
        "verify_s": _sum_medians(rows, "seconds", kind="verify"),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - failed / attempted,
    }
    for field in ("out_cx", "out_rz", "out_gates"):
        values[field] = _sum_medians(rows, field, kind="compile")
    return values


def per_layer(rows, probe) -> dict:
    """Per-pass layer values: sums over operations of per-operation medians."""
    values: dict = {}
    overhead = unattributed = 0.0
    for row in rows.values():
        traced = [s for s in row["samples"] if s["traced"]]
        untraced = [s for s in row["samples"] if not s["traced"]]
        if not traced:
            continue
        names = set().union(*(s["layers"] for s in traced))
        for name in names:
            median = statistics.median if name.endswith("_s") else statistics.median_low
            values[name] = values.get(name, 0) + median(
                [s["layers"].get(name, 0) for s in traced])
        if untraced:
            overhead += _median(traced, "seconds") - _median(untraced, "seconds")
        unattributed += statistics.median(
            s["seconds"] - s["layers"]["spans.traced_s"] for s in traced)
    values["trace.overhead_s"] = overhead
    values["trace.unattributed_s"] = unattributed
    calls = values.get("passes.apply_rules.calls", 0)
    values["passes.apply_rules.useful_ratio"] = (
        values.get("passes.apply_rules.useful", 0) / calls if calls else 0.0)
    if any("commutes_calls" in s for row in rows.values() for s in row["samples"]):
        commutes_calls = _sum_medians(rows, "commutes_calls")
        values["ir.commutes.calls"] = commutes_calls
        values["ir.commutes.hit_ratio"] = (
            _sum_medians(rows, "commutes_hits") / commutes_calls if commutes_calls else 0.0)
        values["ir.commutes.cache_size"] = max(
            s.get("commutes_size", 0) for row in rows.values() for s in row["samples"])
    values["cli.verify.raises"] = probe.get("raised", 0) if probe else 0
    return values


def format_rows(rows, traced: bool) -> str:
    lines = [f"{'operation':30s} {'n':>3s} {'median_s':>9s} {'max_s':>9s} "
             f"{'out_cx':>6s} {'out_rz':>6s} {'gates':>6s} {'commutes':>9s}  top self times"]
    for key, row in rows.items():
        samples = [s for s in row["samples"] if s["traced"] == traced]
        if not samples:
            continue
        cells = [_median(samples, f) for f in ("out_cx", "out_rz", "out_gates",
                                                "commutes_calls")]
        cells = ["-" if c is None else str(int(c)) for c in cells]
        top = ""
        if traced:
            layer = samples[0]["layers"]
            selfs = sorted(((v, k[:-7]) for k, v in layer.items() if k.endswith(".self_s")),
                           reverse=True)[:3]
            top = ", ".join(f"{name} {v:.3f}" for v, name in selfs)
        seconds = [s["seconds"] for s in samples]
        lines.append(f"{key:30s} {len(samples):3d} {statistics.median(seconds):9.4f} "
                     f"{max(seconds):9.4f} {cells[0]:>6s} {cells[1]:>6s} {cells[2]:>6s} "
                     f"{cells[3]:>9s}  {top}")
    return "\n".join(lines)


def summary(args, rows, setup_times, e2e, layers, failures, probe) -> str:
    attempted = sum(len(r["samples"]) for r in rows.values())
    compile_samples = sum(len(r["samples"]) for r in rows.values() if r["kind"] == "compile")
    worst = sum(max(s["seconds"] for s in r["samples"] if not s["traced"])
                for r in rows.values() if r["kind"] == "compile")
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
             format_rows(rows, traced=False)]
    if args.trace:
        lines += ["traced:", format_rows(rows, traced=True)]
    lines += [
        f"setup_s        {e2e['setup_s']:.4f} s   (median of {len(setup_times)} fresh "
        "`import mlco.cli`)",
        f"compile_s      {e2e['compile_s']:.4f} s   (sum of per-operation medians; "
        f"{compile_samples} samples)",
        f"compile_s_max  {worst:.4f} s   (sum of per-operation maxima; with at most 10 "
        "samples per operation no lower percentile has 10 samples beyond it)",
        f"verify_s       {e2e['verify_s']:.4f} s",
        *(f"{name:14s} {e2e[name]:.6g} {unit}" for name, unit in (
            ("out_cx", "count"), ("out_rz", "count"), ("out_gates", "count"),
            ("peak_rss_mb", "MB"))),
        f"failed_frac    {len(failures) / attempted:.4f}   ({len(failures)} of {attempted} "
        "operations failed)",
        *(f"FAILED {key}: {message}" for key, message in failures),
    ]
    if probe is not None:
        lines.append("known defect: `mlco verify` on an n=6 output with one ancilla-wire CX "
                     f"deleted exited 1 {probe['exit1']}x, raised {probe['raised']}x, "
                     f"other {probe['other']}x")
    if args.trace:
        for kind in ("compile", "verify"):
            plain = _sum_medians(rows, "seconds", kind=kind)
            traced = _sum_medians(rows, "seconds", traced=True, kind=kind)
            lines.append(f"{kind}: untraced {plain:.4f} s, traced {traced:.4f} s "
                         f"(overhead {traced - plain:+.4f} s), of which in layer spans "
                         f"{_sum_layer(rows, kind):.4f} s")
        lines += [f"  {name:40s} {layers[name]:.6g}" for name in sorted(layers)]
    return "\n".join(lines)


def _sum_layer(rows, kind) -> float:
    return sum(statistics.median(s["layers"]["spans.traced_s"] for s in r["samples"]
                                 if s["traced"])
               for r in rows.values() if r["kind"] == kind)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path, package = ROOT / "BENCHMARK.json", ROOT / "src" / "mlco" / "__init__.py"
    if not (spec_path.is_file() and package.is_file()):
        print(f"perfbench: {package} or {spec_path} is missing; run from an mlco checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from mlco import cli, ir, passes, report, sim
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    tracer = None
    if args.trace:
        modules = {"passes": passes, "cli": cli, "sim": sim, "ir": ir, "report": report}
        tracer = tracer_mod.Tracer(tracer_mod.layer_targets(modules))

    setup_times = measure_setup()
    out_dir = ROOT / "perfbench" / "out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(args.seed)
        ops = workloads.WORKLOADS[args.workload](rng, workdir)
        warm_up_blas()
        rows, peak_rss_mb = measure(ops, ir, args.seconds, tracer)
        probe = (workloads.dirty_ancilla_probe(rng, workdir)
                 if args.workload == "cli-session" else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times += measure_setup()

    failures = [(key, s["failed"]) for key, row in rows.items()
                for s in row["samples"] if s["failed"]]
    attempted = sum(len(r["samples"]) for r in rows.values())
    e2e = end_to_end(rows, setup_times, peak_rss_mb, attempted, len(failures))
    layers = per_layer(rows, probe) if args.trace else {}
    values, section = (layers, "per_layer") if args.trace else (e2e, "end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section] if m["name"] in values}

    print(summary(args, rows, setup_times, e2e, layers, failures, probe))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_times": setup_times, "rows": rows, "metrics": metrics,
              "spans": tracer.spans if tracer is not None else []}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
