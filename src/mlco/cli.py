"""Command-line interface: build, optimize, verify, count, export, sweep, table1.

Exit codes: 0 success, 1 verification failure, 2 usage error.

The dense oracle (`sim`, and numpy with it) is imported only by the code
that consults it, so `build`, `count`, `export` and `optimize --strategy
deto --no-verify` run without numpy.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import report as report_mod
from .build import H2Order, PdeParams, WingStyle, build_one_step, compose_steps, step_orders
from .ir import (
    MIGS, CapacityError, Circuit, CircuitError, census, conforms, format_census, naive_cx,
    read_circuit, write_circuit, write_qasm,
)
from .passes import DETO_PASSES, MLCO_PASSES, run_passes

VERIFY_DEFAULT_MAX_QUBITS = 10  # `optimize` verifies inputs this wide unless --no-verify


def _params(args) -> PdeParams:
    return PdeParams(n=args.qubits, tau=args.tau, c=args.c, l=args.l)


def _print_census(circ: Circuit) -> None:
    print(f"qubits={circ.num_qubits} ancillas={circ.num_ancillas} "
          f"gates={len(circ.gates)}")
    print(f"census: {format_census(census(circ)) or '(none)'}")
    print(f"naive-lowered CX: {naive_cx(circ)}")


def cmd_build(args) -> int:
    params, wing = _params(args), WingStyle(args.wing)
    orders = step_orders(args.steps) if args.order == "alt" \
        else [H2Order(args.order)] * args.steps
    circ = compose_steps([build_one_step(params, wing, o) for o in orders])
    Path(args.out).write_bytes(write_circuit(circ))
    _print_census(circ)
    return 0


# The last stage of each --to level in the MLCO pass list.
_LAST_STAGE = {"higs": "HiGS simplified", "migs": "MiGS simplified",
               "logs": "LoGS target"}


def _checks_ran(a: Circuit, b: Circuit, trials: int) -> str:
    """The check sim.equivalent_up_to_phase runs on a and b."""
    from . import sim
    return "(full unitary)" if sim.full_unitary_check(a, b) else f"({trials} random states)"


def cmd_optimize(args) -> int:
    circ = read_circuit(Path(args.infile).read_bytes())
    if args.strategy == "mlco":
        # A MiGS-conformant input starts at MiGS simplification unless the
        # HiGS stage is asked for.
        names = [name for name, _ in MLCO_PASSES]
        start = 0 if args.to == "higs" or not conforms(circ, MIGS) \
            else names.index("MiGS simplified")
        stop = names.index(_LAST_STAGE[args.to]) + 1
        out, stages = run_passes(circ, MLCO_PASSES[start:stop])
    else:
        if args.to != "logs":
            print("deto strategy always lowers to logs", file=sys.stderr)
            return 2
        out, stages = run_passes(circ, DETO_PASSES)
        print(f"cost-model CX: {naive_cx(circ)}")
    Path(args.out).write_bytes(write_circuit(out))
    lines = [f"{stage.name:20s} {format_census(census(stage.circuit))}"
             for stage in stages]
    print("\n".join(lines))
    if args.report:
        Path(args.report).write_text("\n".join(lines) + "\n")
    verify = args.verify if args.verify is not None \
        else circ.num_qubits <= VERIFY_DEFAULT_MAX_QUBITS
    if verify:
        from . import sim
        try:
            ok, fid = sim.equivalent_up_to_phase(circ, out, trials=args.trials,
                                                 seed=args.seed)
        except CapacityError:
            print("warning: beyond simulation capacity; census-only check",
                  file=sys.stderr)
            return 0
        print(f"verification: {'pass' if ok else 'FAIL'} "
              f"(max deviation {fid:.3g}) {_checks_ran(circ, out, args.trials)}")
        if not ok:
            return 1
    return 0


def cmd_verify(args) -> int:
    from . import sim
    a = read_circuit(Path(args.a).read_bytes())
    if args.b:
        b = read_circuit(Path(args.b).read_bytes())
        ok, dev = sim.equivalent_up_to_phase(a, b, trials=args.trials, seed=args.seed)
        print(f"max deviation: {dev:.3e}  {'pass' if ok else 'FAIL'} "
              f"{_checks_ran(a, b, args.trials)}")
        return 0 if ok else 1
    params = PdeParams(n=a.num_data_qubits, tau=args.tau, c=args.c, l=args.l)
    # Both targets build the Hamiltonian: refuse a source too wide for it
    # before simulating the circuit.
    sim.check_hamiltonian_width(params.n)
    u, leak = sim.data_block(a, params.n)
    if leak > sim.ANCILLA_LEAK_TOL:
        print(f"ancilla leak: {leak:.3e}  FAIL")
        return 1
    if args.against == "product-formula":
        dev = sim.phase_deviation(u, sim.product_formula(params, args.steps))
        ok = dev <= 1e-10
        print(f"max deviation vs product formula: {dev:.3e}  "
              f"{'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    err = sim.evolution_error(params, u, steps=args.steps)
    print(f"Trotter error vs exact evolution at tau={params.tau}: {err:.3e} "
          "(informational)")
    return 0


def cmd_count(args) -> int:
    circ = read_circuit(Path(args.infile).read_bytes())
    _print_census(circ)
    return 0


def cmd_export(args) -> int:
    circ = read_circuit(Path(args.infile).read_bytes())
    Path(args.out).write_text(write_qasm(circ))
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = report_mod.scaling_sweep(sizes, steps=args.steps,
                                    style=WingStyle(args.wing),
                                    executable=args.executable)
    table = report_mod.format_sweep(rows)
    print(table, end="")
    if args.emit:
        Path(args.emit).write_text(table)
    return 0 if all(r.match for r in rows) else 1


def cmd_table1(args) -> int:
    rows = report_mod.reproduce_table1()
    print(report_mod.format_table1(rows), end="")
    ratio = report_mod.reduction_ratio(rows[-1].census)
    print(f"per-step CX reduction vs DETO reference "
          f"({report_mod.DETO_REFERENCE_PER_STEP}): {100 * ratio:.1f}%")
    return 0 if all(r.passed for r in rows) else 1


def _add_params(p):
    p.add_argument("--qubits", "-n", type=int, default=6)
    p.add_argument("--steps", "-k", type=int, default=1)
    p.add_argument("--tau", type=float, default=0.2)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--l", type=float, default=1.0)
    p.add_argument("--wing", choices=["spray", "stair"], default="stair")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlco",
        description="Multilevel optimizer for wave-equation simulation circuits")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="synthesize a source circuit")
    _add_params(b)
    b.add_argument("--order", choices=["inc", "dec", "alt"], default="alt")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    o = sub.add_parser("optimize", help="run an optimization pipeline on a file")
    o.add_argument("--strategy", choices=["mlco", "deto"], default="mlco")
    o.add_argument("--to", choices=["higs", "migs", "logs"], default="logs")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--out", required=True)
    o.add_argument("--report", default=None)
    o.add_argument("--trials", type=int, default=20)
    o.add_argument("--seed", type=int, default=7)
    o.add_argument("--verify", action=argparse.BooleanOptionalAction, default=None)
    o.set_defaults(fn=cmd_optimize)

    v = sub.add_parser("verify", help="compare circuits or check physics")
    v.add_argument("--a", required=True)
    v.add_argument("--b", default=None)
    v.add_argument("--against", choices=["product-formula", "exact-evolution"],
                   default="product-formula")
    v.add_argument("--steps", type=int, default=1)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--tau", type=float, default=0.2)
    v.add_argument("--c", type=float, default=1.0)
    v.add_argument("--l", type=float, default=1.0)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("count", help="print the gate census of a circuit file")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(fn=cmd_count)

    e = sub.add_parser("export", help="export a LoGS circuit to OpenQASM")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)

    s = sub.add_parser("sweep", help="CX scaling sweep across circuit sizes")
    s.add_argument("--sizes", default="6,8,12,16,20")
    s.add_argument("--steps", type=int, default=2)
    s.add_argument("--wing", choices=["spray", "stair"], default="stair")
    s.add_argument("--emit", default=None)
    s.add_argument("--executable", action=argparse.BooleanOptionalAction,
                   default=False)
    s.set_defaults(fn=cmd_sweep)

    t = sub.add_parser("table1", help="reproduce the reference gate-count table")
    t.set_defaults(fn=cmd_table1)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first `main` call."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.command == "build":
        if args.qubits < 3 or args.steps < 1:
            ap.error("--qubits must be >= 3 and --steps >= 1")
    elif args.command == "verify" and args.steps < 1:
        ap.error("--steps must be >= 1")
    try:
        return args.fn(args)
    except (CircuitError, CapacityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
