"""The benchmark's workloads: their inputs, the operations run on them, and
the correctness checks applied to every result.

Programs are driven only through ``passes.pipeline_mlco`` and
``mlco.cli.main(argv)``.  Every check lives here rather than in mlco, so a
change to the program cannot weaken the gate that judges it.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mlco import cli, ir, passes
from mlco.build import PdeParams, WingStyle

# The benchmark reads and writes its own files through the original
# serializers, so its bookkeeping never shows up in a traced span.
_read_circuit = ir.read_circuit
_write_circuit = ir.write_circuit

LOGS_KINDS = frozenset({"RZ", "X", "H", "CX"})


class CheckFailed(Exception):
    """An operation's result broke a correctness check."""


@dataclass(frozen=True)
class Op:
    """One timed operation and the untimed check of its result.

    ``kind`` names the end-to-end time it counts toward: "compile" or
    "verify".  ``check`` raises on a wrong result and returns the output
    gate counts of a compile, or {} when it has none.
    """

    key: str
    kind: str
    execute: Callable[[], object]
    check: Callable[[object], dict]


def stair_law_cx(n: int, k: int) -> int:
    """Just-decomposed CX count of a k-step stair circuit: (10n - 21) k."""
    return (10 * n - 21) * k


def input_params(name: str, n: int) -> PdeParams:
    """tau, c and l of one input: a fixed draw keyed by the input's name.

    They are not drawn from --seed.  Gate counts do not depend on them, but
    compile time does, chaotically: the LoGS cleanup runs 3 to 64 (its cap)
    fixpoint sweeps depending on the angle 2c*tau/l, so seed-drawn angles
    made spray n=20 take anywhere from 3.0 to 13.5 s.  A fixed draw keeps
    runs with different seeds comparable and still exposes the sensitivity
    (stair n=16 runs 40 sweeps); ``passes.optimize_logs.sweeps`` counts it.
    """
    rng = random.Random(name)
    return PdeParams(n=n, tau=rng.uniform(0.05, 0.4), c=rng.uniform(0.5, 2.0),
                     l=rng.uniform(0.5, 2.0))


def _param_args(params: PdeParams) -> list[str]:
    return ["--tau", repr(params.tau), "--c", repr(params.c), "--l", repr(params.l)]


def _cx(circ: ir.Circuit) -> int:
    return sum(1 for g in circ.gates if g.kind.value == "CX")


def output_counts(circ: ir.Circuit) -> dict:
    """Gate counts of a LoGS circuit; raises unless every gate is RZ, X, H or CX."""
    for i, g in enumerate(circ.gates):
        kind = g.kind.value
        if kind not in LOGS_KINDS or len(g.controls) != (kind == "CX"):
            raise CheckFailed(f"gate {i} ({kind} on {g.qubits}) is not in LoGS")
    return {"out_cx": _cx(circ),
            "out_rz": sum(1 for g in circ.gates if g.kind.value == "RZ"),
            "out_gates": len(circ.gates)}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``mlco.cli.main(argv)`` with its output captured; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def _expect(code: int, result, what: str) -> str:
    got, text = result
    if got != code:
        raise CheckFailed(f"{what}: exit {got}, expected {code}: {text.strip()[-300:]}")
    return text


def _cli_op(key: str, kind: str, argv: list, code: int = 0,
            then: Callable[[str], dict] = lambda text: {}) -> Op:
    argv = [str(a) for a in argv]
    return Op(key, kind, lambda: run_cli(argv),
              lambda result: then(_expect(code, result, " ".join(argv[:1]))))


# ---------------------------------------------------------------------------
# stair-mlco and spray-mlco: the library pipeline on generated sources

#: Outputs up to this size are also checked against their source by the
#: dense oracle through ``mlco verify``; larger ones rest on the laws and on
#: LoGS conformance.
DENSE_VERIFY_MAX_N = 8


def pipeline_ops(style: str, inputs: list[tuple[int, int]], rng: random.Random,
                 workdir: Path) -> list[Op]:
    ops: list[Op] = []
    for n, k in inputs:
        params = input_params(f"{style} n={n} k={k}", n)
        trial_seed = rng.randrange(1 << 31)
        state: dict = {}
        ops.append(_compile_op(style, n, k, params, state))
        if n <= DENSE_VERIFY_MAX_N:
            ops.append(_verify_op(style, n, k, params, trial_seed, state, workdir))
    return ops


def _compile_op(style: str, n: int, k: int, params: PdeParams, state: dict) -> Op:
    def execute():
        return passes.pipeline_mlco(params, k, WingStyle(style))

    def check(result) -> dict:
        out, stages = result
        counts = output_counts(out)
        lowered = [s.circuit for s in stages if s.name.endswith("LoGS input")]
        if len(lowered) != 1:
            raise CheckFailed("no single 'LoGS input' stage among the returned stages")
        just_decomposed = _cx(lowered[0])
        if style == "stair" and just_decomposed != stair_law_cx(n, k):
            raise CheckFailed(f"just-decomposed CX {just_decomposed} != "
                              f"(10n-21)k = {stair_law_cx(n, k)}")
        if counts["out_cx"] > just_decomposed:
            raise CheckFailed(f"final CX {counts['out_cx']} exceeds "
                              f"just-decomposed CX {just_decomposed}")
        state["out"] = out
        return counts

    return Op(f"{style} n={n} k={k} compile", "compile", execute, check)


def _verify_op(style: str, n: int, k: int, params: PdeParams, trial_seed: int,
               state: dict, workdir: Path) -> Op:
    src = workdir / f"{style}{n}k{k}.mlco"
    out = workdir / f"{style}{n}k{k}_logs.mlco"
    build_argv = ["build", "-n", str(n), "-k", str(k), "--wing", style,
                  *_param_args(params), "--out", str(src)]
    verify_argv = ["verify", "--a", str(src), "--b", str(out), "--seed", str(trial_seed)]

    def execute():
        built = run_cli(build_argv)
        out.write_bytes(ir.write_circuit(state["out"]))
        return built, run_cli(verify_argv)

    def check(result) -> dict:
        built, verdict = result
        _expect(0, built, "build")
        _expect(0, verdict, "verify")
        return {}

    return Op(f"{style} n={n} k={k} verify", "verify", execute, check)


def stair_ops(rng: random.Random, workdir: Path) -> list[Op]:
    return pipeline_ops("stair", [(6, 2), (8, 2), (12, 2), (16, 2), (8, 4)], rng, workdir)


def spray_ops(rng: random.Random, workdir: Path) -> list[Op]:
    return pipeline_ops("spray", [(6, 2), (8, 2), (12, 2), (16, 2), (20, 2)], rng, workdir)


# ---------------------------------------------------------------------------
# cli-session: the README's command flow through mlco.cli.main

def _cx_sites(circ: ir.Circuit, on_ancilla: bool) -> list[int]:
    """Positions of the CX gates that do (or do not) touch an ancilla wire."""
    data = circ.num_data_qubits
    return [i for i, g in enumerate(circ.gates)
            if g.kind.value == "CX" and (max(g.qubits) >= data) == on_ancilla]


def _delete(circ: ir.Circuit, site: int) -> ir.Circuit:
    return circ.with_gates(circ.gates[:site] + circ.gates[site + 1:])


def cli_session_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    sources: dict[int, Path] = {}
    mutant_ops: list[Op] = []
    for n in (6, 8, 10):
        params = input_params(f"cli n={n}", n)
        trial_seed = rng.randrange(1 << 31)
        mutant_pick = rng.random()
        src, out = workdir / f"wave{n}.mlco", workdir / f"wave{n}_logs.mlco"
        qasm, mutant = workdir / f"wave{n}.qasm", workdir / f"wave{n}_mutant.mlco"
        sources[n] = src

        def check_optimized(text, n=n, out=out, mutant=mutant, pick=mutant_pick):
            circ = _read_circuit(out.read_bytes())
            counts = output_counts(circ)
            if counts["out_cx"] > stair_law_cx(n, 2):
                raise CheckFailed(f"final CX {counts['out_cx']} exceeds 2(10n-21)")
            # The mutant for this n's verdict check: one data-wire CX deleted.
            sites = _cx_sites(circ, on_ancilla=False)
            mutant.write_bytes(_write_circuit(_delete(circ, sites[int(pick * len(sites))])))
            return counts

        def check_count(text, out=out):
            gates = len(_read_circuit(out.read_bytes()).gates)
            if f"gates={gates}" not in text:
                raise CheckFailed(f"count did not report gates={gates}")
            return {}

        def check_export(text, out=out, qasm=qasm):
            gates = len(_read_circuit(out.read_bytes()).gates)
            lines = len(qasm.read_text().splitlines())
            if lines != gates + 2:
                raise CheckFailed(f"QASM has {lines} lines for {gates} gates")
            return {}

        ops += [
            _cli_op(f"cli build n={n}", "compile",
                    ["build", "-n", n, "-k", 2, "--wing", "stair", *_param_args(params),
                     "--out", src]),
            _cli_op(f"cli optimize n={n}", "compile",
                    ["optimize", "--in", src, "--out", out, "--no-verify"],
                    then=check_optimized),
            _cli_op(f"cli verify n={n}", "verify",
                    ["verify", "--a", src, "--b", out, "--seed", trial_seed]),
            _cli_op(f"cli count n={n}", "compile", ["count", "--in", out], then=check_count),
            _cli_op(f"cli export n={n}", "compile", ["export", "--in", out, "--out", qasm],
                    then=check_export),
        ]
        if n in (6, 8):
            mutant_ops.append(_cli_op(f"cli verify mutant n={n}", "verify",
                                  ["verify", "--a", src, "--b", mutant, "--seed", trial_seed],
                                  code=1))
    ops += mutant_ops
    for n in (6, 8):
        deto = workdir / f"wave{n}_deto.mlco"

        def check_deto(text, deto=deto):
            return output_counts(_read_circuit(deto.read_bytes()))

        ops += [
            _cli_op(f"cli optimize deto n={n}", "compile",
                    ["optimize", "--strategy", "deto", "--in", sources[n], "--out", deto,
                     "--no-verify"], then=check_deto),
            _cli_op(f"cli verify deto n={n}", "verify",
                    ["verify", "--a", sources[n], "--b", deto, "--seed", rng.randrange(1 << 31)]),
        ]
    ops.append(_cli_op("cli table1", "compile", ["table1"]))
    return ops


def dirty_ancilla_probe(rng: random.Random, workdir: Path, probes: int = 3) -> dict:
    """Verify n=6 outputs with one ancilla-wire CX deleted; tally the outcomes.

    Such a mutant leaves its ancillas dirty.  At this size ``mlco verify``
    takes the full-unitary path, which may raise instead of exiting 1; the
    tally shows how often, so the defect stays visible in every run.
    """
    src, out = workdir / "wave6.mlco", workdir / "wave6_logs.mlco"
    circ = _read_circuit(out.read_bytes())
    sites = _cx_sites(circ, on_ancilla=True)
    tally = {"exit1": 0, "raised": 0, "other": 0}
    for _ in range(probes):
        probe = workdir / "wave6_probe.mlco"
        probe.write_bytes(_write_circuit(_delete(circ, rng.choice(sites))))
        try:
            code, _ = run_cli(["verify", "--a", str(src), "--b", str(probe)])
        except Exception:  # the defect under measurement
            tally["raised"] += 1
            continue
        tally["exit1" if code == 1 else "other"] += 1
    return tally


WORKLOADS = {"stair-mlco": stair_ops, "spray-mlco": spray_ops,
             "cli-session": cli_session_ops}
