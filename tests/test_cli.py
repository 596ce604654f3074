"""In-process CLI tests: subcommands, exit codes, file round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlco
from mlco import cli, passes, report, sim
from mlco.build import H2Order, PdeParams, WingStyle, build_one_step, compose_steps
from mlco.cli import main, make_parser
from mlco.ir import (
    LOGS, Circuit, ccx, census, conforms, cy, h, mcrz, read_circuit, rx, rz,
    write_circuit,
)
from mlco.passes import pipeline_deto, pipeline_mlco


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def built(tmp_path, capsys):
    path = tmp_path / "src.mlco"
    code, out, _ = run(capsys, "build", "-n", "6", "-k", "2", "--out", str(path))
    assert code == 0
    return path


def test_build_writes_circuit_and_census(tmp_path, capsys):
    path = tmp_path / "c.mlco"
    code, out, _ = run(capsys, "build", "-n", "6", "--out", str(path))
    assert code == 0
    circ = read_circuit(path.read_bytes())
    assert circ.num_qubits == 6
    assert "census:" in out and "CX:30" in out.replace(" ", "")


def test_build_order_flag(tmp_path, capsys):
    p = PdeParams(n=6)
    dec, one = tmp_path / "dec.mlco", tmp_path / "one.mlco"
    assert run(capsys, "build", "-n", "6", "-k", "2", "--order", "dec",
               "--out", str(dec))[0] == 0
    step = build_one_step(p, WingStyle.STAIR, H2Order.DECREASING)
    assert read_circuit(dec.read_bytes()) == compose_steps([step, step])
    assert run(capsys, "build", "-n", "6", "-k", "1", "--out", str(one))[0] == 0
    assert read_circuit(one.read_bytes()) == build_one_step(p, WingStyle.STAIR,
                                                            H2Order.INCREASING)


def test_build_rejects_bad_sizes(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run(capsys, "build", "-n", "2", "--out", str(tmp_path / "x"))
    assert e.value.code == 2


@pytest.mark.parametrize("flag, value", [("--tau", "nan"), ("--c", "inf"), ("--l", "nan")])
def test_build_rejects_non_finite_parameters_and_writes_nothing(tmp_path, capsys,
                                                                flag, value):
    out = tmp_path / "bad.mlco"
    code, _, err = run(capsys, "build", "-n", "6", flag, value, "--out", str(out))
    assert code == 2
    assert "finite and positive" in err
    assert not out.exists()


def test_build_and_verify_refuse_a_backbone_angle_that_overflows(built, tmp_path, capsys):
    # 2 * c * tau / l = 2e309 overflows to inf although each parameter is finite.
    out = tmp_path / "bad.mlco"
    code, _, err = run(capsys, "build", "-n", "4", "--tau", "1e308", "--c", "10",
                       "--out", str(out))
    assert code == 2 and "backbone angle" in err
    assert not out.exists()
    for against in ("product-formula", "exact-evolution"):
        code, printed, err = run(capsys, "verify", "--a", str(built), "--against", against,
                                 "--tau", "1e308", "--c", "10")
        assert code == 2 and "backbone angle" in err
        assert printed == ""


def test_count_refuses_an_int_angle_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "huge.mlco"
    path.write_text('{"num_qubits": 1, "num_ancillas": 0, "gates": '
                    '[{"kind": "RZ", "controls": [], "target": 0, "angle": 1' + "0" * 400 + '}]}')
    code, out, err = run(capsys, "count", "--in", str(path))
    assert code == 2 and out == ""
    assert "gate 0: angle must be a finite number" in err


def test_build_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.mlco", tmp_path / "b.mlco"
    run(capsys, "build", "-n", "5", "-k", "2", "--out", str(a))
    run(capsys, "build", "-n", "5", "-k", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_optimize_verifies_ten_qubit_source_by_default(tmp_path, capsys):
    src, out_path = tmp_path / "src10.mlco", tmp_path / "opt10.mlco"
    assert run(capsys, "build", "-n", "10", "-k", "2", "--out", str(src))[0] == 0
    code, out, _ = run(capsys, "optimize", "--in", str(src), "--out", str(out_path))
    assert code == 0
    assert "verification: pass" in out and "(20 random states)" in out


def test_optimize_mlco_to_logs_with_verify(built, tmp_path, capsys):
    out_path = tmp_path / "opt.mlco"
    code, out, _ = run(capsys, "optimize", "--in", str(built),
                       "--out", str(out_path), "--verify")
    assert code == 0
    assert "verification: pass" in out
    opt = read_circuit(out_path.read_bytes())
    assert conforms(opt, LOGS)
    assert census(opt)["CX"] <= 78


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("wing", ["stair", "spray"])
def test_optimize_mlco_matches_pipeline_mlco(tmp_path, capsys, wing, k):
    # `mlco optimize` runs the passes on the whole k-step file, while
    # pipeline_mlco simplifies each distinct step through MiGS and then
    # composes.  From three stair steps on, the two differ in gate order only.
    src, out_path = tmp_path / "src.mlco", tmp_path / "opt.mlco"
    run(capsys, "build", "-n", "6", "-k", str(k), "--wing", wing, "--out", str(src))
    code, _, _ = run(capsys, "optimize", "--in", str(src), "--out", str(out_path),
                     "--no-verify")
    assert code == 0
    expected, _ = pipeline_mlco(PdeParams(n=6), k, WingStyle(wing))
    got = read_circuit(out_path.read_bytes())
    assert (got.num_qubits, got.num_ancillas) \
        == (expected.num_qubits, expected.num_ancillas)
    if wing == "spray" or k <= 2:
        assert [(g.kind, g.controls, g.target, g.angle) for g in got.gates] \
            == [(g.kind, g.controls, g.target, g.angle) for g in expected.gates]
        return
    assert census(got) == census(expected)
    assert (len(got.gates), census(got)["CX"]) == (322, 138)
    source = read_circuit(src.read_bytes())
    for circ in (got, expected):
        assert sim.equivalent_up_to_phase(source, circ)[0]


def test_optimize_exits_2_when_fixpoint_cap_is_hit(built, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(passes, "MAX_SWEEPS", 1)
    code, _, err = run(capsys, "optimize", "--in", str(built),
                       "--out", str(tmp_path / "o.mlco"), "--no-verify")
    assert code == 2
    assert "no fixpoint after 1 sweeps" in err


def test_optimize_to_migs_stops_early(built, tmp_path, capsys):
    out_path = tmp_path / "migs.mlco"
    code, out, _ = run(capsys, "optimize", "--in", str(built), "--to", "migs",
                       "--out", str(out_path), "--no-verify")
    assert code == 0
    opt = read_circuit(out_path.read_bytes())
    assert census(opt)["CCX"] > 0
    assert "LoGS" not in out


def test_optimize_deto_prints_cost_model(tmp_path, capsys):
    src = tmp_path / "one.mlco"
    run(capsys, "build", "-n", "6", "-k", "1", "--out", str(src))
    out_path = tmp_path / "deto.mlco"
    code, out, _ = run(capsys, "optimize", "--strategy", "deto",
                       "--in", str(src), "--out", str(out_path), "--no-verify")
    assert code == 0
    assert "cost-model CX: 114" in out


def test_optimize_deto_matches_pipeline_deto(built, tmp_path, capsys):
    out_path = tmp_path / "deto.mlco"
    code, _, _ = run(capsys, "optimize", "--strategy", "deto",
                     "--in", str(built), "--out", str(out_path), "--no-verify")
    assert code == 0
    expected, _ = pipeline_deto(PdeParams(n=6), 2, WingStyle.STAIR)
    assert read_circuit(out_path.read_bytes()) == expected


def test_optimize_deto_rejects_non_logs_target(built, tmp_path, capsys):
    code, _, err = run(capsys, "optimize", "--strategy", "deto", "--to", "migs",
                       "--in", str(built), "--out", str(tmp_path / "x"))
    assert code == 2


def test_optimize_report_file_and_config_env(built, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, _, _ = run(capsys, "optimize", "--in", str(built),
                     "--out", str(tmp_path / "o.mlco"),
                     "--report", str(report), "--no-verify")
    assert code == 0
    assert "LoGS target" in report.read_text()


def test_count(built, capsys):
    code, out, _ = run(capsys, "count", "--in", str(built))
    assert code == 0
    assert "naive-lowered CX:" in out


def test_export_logs_circuit(built, tmp_path, capsys):
    opt = tmp_path / "opt.mlco"
    run(capsys, "optimize", "--in", str(built), "--out", str(opt), "--no-verify")
    qasm = tmp_path / "out.qasm"
    code, out, _ = run(capsys, "export", "--in", str(opt), "--out", str(qasm))
    assert code == 0
    text = qasm.read_text()
    assert text.startswith("OPENQASM")
    assert "cx" in text


def test_export_rejects_migs_circuit(built, tmp_path, capsys):
    code, _, err = run(capsys, "export", "--in", str(built),
                       "--out", str(tmp_path / "x.qasm"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["count", "optimize", "export"])
def test_mcx_file_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "mcx.mlco"
    path.write_text('{"num_qubits": 4, "num_ancillas": 0, "gates": '
                    '[{"kind": "MCX", "controls": [0, 1, 2], "target": 3}]}')
    out = () if command == "count" else ("--out", str(tmp_path / "o"))
    code, _, err = run(capsys, command, "--in", str(path), *out)
    assert code == 2
    assert "unknown kind 'MCX'" in err


@pytest.mark.parametrize("command", ["count", "optimize", "verify", "export"])
def test_barrier_file_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "barrier.mlco"
    path.write_text('{"num_qubits": 2, "num_ancillas": 0, "gates": '
                    '[{"kind": "H", "controls": [], "target": 0}, '
                    '{"kind": "Barrier", "controls": [0, 1]}]}')
    if command == "verify":
        code, _, err = run(capsys, "verify", "--a", str(path), "--b", str(path))
    else:
        out = () if command == "count" else ("--out", str(tmp_path / "o"))
        code, _, err = run(capsys, command, "--in", str(path), *out)
    assert code == 2
    assert "unknown kind 'Barrier'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["count", "optimize", "verify", "export"])
def test_negative_wire_file_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "negative.mlco"
    path.write_text('{"num_qubits": 2, "num_ancillas": 0, "gates": '
                    '[{"kind": "H", "controls": [], "target": 0}, '
                    '{"kind": "X", "controls": [], "target": -1}]}')
    if command == "verify":
        code, _, err = run(capsys, "verify", "--a", str(path), "--b", str(path))
    else:
        out = () if command == "count" else ("--out", str(tmp_path / "o"))
        code, _, err = run(capsys, command, "--in", str(path), *out)
    assert code == 2
    assert "gate 1: negative qubit in X" in err
    assert not (tmp_path / "o").exists()


def test_optimize_lowers_cy_gates_to_logs(tmp_path, capsys):
    src, out_path = tmp_path / "cy.mlco", tmp_path / "cy-opt.mlco"
    src.write_bytes(write_circuit(Circuit(5, (
        h(0), cy(0, 1), cy(1, 2), mcrz((0, 1, 2), 4, 0.7), cy(4, 3),
        ccx(3, 1, 0), rz(2, 0.3)))))
    code, out, _ = run(capsys, "optimize", "--in", str(src), "--out", str(out_path),
                       "--verify")
    assert code == 0
    assert "verification: pass" in out
    assert conforms(read_circuit(out_path.read_bytes()), LOGS)


def test_verify_pair_pass_and_fail(built, tmp_path, capsys):
    opt = tmp_path / "opt.mlco"
    run(capsys, "optimize", "--in", str(built), "--out", str(opt), "--no-verify")
    code, out, _ = run(capsys, "verify", "--a", str(built), "--b", str(opt))
    assert code == 0 and "pass" in out
    other = tmp_path / "other.mlco"
    run(capsys, "build", "-n", "6", "-k", "1", "--out", str(other))
    code, out, _ = run(capsys, "verify", "--a", str(built), "--b", str(other))
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(built, capsys, trials):
    code, out, err = run(capsys, "verify", "--a", str(built), "--b", str(built),
                         "--trials", trials)
    assert code == 2
    assert "trials" in err and "pass" not in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_optimize_verify_rejects_nonpositive_trials(built, tmp_path, capsys, trials):
    code, out, err = run(capsys, "optimize", "--in", str(built),
                         "--out", str(tmp_path / "opt.mlco"), "--verify",
                         "--trials", trials)
    assert code == 2
    assert "trials" in err and "verification:" not in out


def test_verify_reports_checks_run(built, tmp_path, capsys):
    opt = tmp_path / "opt.mlco"
    code, out, _ = run(capsys, "optimize", "--in", str(built), "--out", str(opt),
                       "--verify", "--trials", "3")
    assert code == 0 and out.rstrip().endswith("(full unitary)")
    code, out, _ = run(capsys, "verify", "--a", str(built), "--b", str(opt))
    assert code == 0 and out.rstrip().endswith("(full unitary)")
    wide, wide_opt = tmp_path / "wide.mlco", tmp_path / "wide_opt.mlco"
    run(capsys, "build", "-n", "7", "--out", str(wide))
    run(capsys, "optimize", "--in", str(wide), "--out", str(wide_opt), "--no-verify")
    assert read_circuit(wide_opt.read_bytes()).num_qubits \
        > sim.FULL_UNITARY_MAX_QUBITS
    code, out, _ = run(capsys, "verify", "--a", str(wide), "--b", str(wide_opt),
                       "--trials", "2")
    assert code == 0 and out.rstrip().endswith("(2 random states)")


@pytest.fixture
def dirty(built, tmp_path, capsys):
    """Two mutants of the optimized n=6, k=2 circuit.  One has its first CX
    onto an ancilla deleted: that CX's partner now leaves the ancilla dirty.
    The other ends with RX(2e-6) on an ancilla, which leaves 1e-12 outside
    in every data column: far over ANCILLA_LEAK_TOL, though no single
    entry's population reaches 1e-10."""
    opt = tmp_path / "opt.mlco"
    run(capsys, "optimize", "--in", str(built), "--out", str(opt), "--no-verify")
    circ = read_circuit(opt.read_bytes())
    site = next(i for i, g in enumerate(circ.gates)
                if g.kind.value == "CX" and g.target >= circ.num_data_qubits)
    mutants = (circ.with_gates(circ.gates[:site] + circ.gates[site + 1:]),
               circ.with_gates(circ.gates + (rx(circ.num_data_qubits, 2e-6),)))
    paths = []
    for i, mutant in enumerate(mutants):
        assert mutant.num_qubits <= 10  # the full-unitary path of the check
        paths.append(tmp_path / f"mutant{i}.mlco")
        paths[-1].write_bytes(write_circuit(mutant))
    return paths


def test_verify_pair_fails_on_dirty_ancillas(built, dirty, capsys):
    for path in dirty:
        mutant = read_circuit(path.read_bytes())
        _, leak = sim.data_block(mutant, mutant.num_data_qubits)
        assert leak > sim.ANCILLA_LEAK_TOL
        code, out, _ = run(capsys, "verify", "--a", str(built), "--b", str(path))
        assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("against", ["product-formula", "exact-evolution"])
def test_verify_physics_fails_on_dirty_ancillas(dirty, capsys, against):
    for path in dirty:
        code, out, _ = run(capsys, "verify", "--a", str(path),
                           "--against", against, "--steps", "2")
        assert code == 1
        assert "ancilla leak" in out and "FAIL" in out


def test_optimize_verify_beyond_the_statevector_cap_is_census_only(tmp_path, capsys):
    src, opt = tmp_path / "src.mlco", tmp_path / "opt.mlco"
    run(capsys, "build", "-n", "14", "-k", "1", "--out", str(src))
    code, out, err = run(capsys, "optimize", "--in", str(src), "--out", str(opt),
                         "--verify")
    assert read_circuit(opt.read_bytes()).num_qubits > sim.STATEVECTOR_QUBIT_CAP
    assert code == 0 and "census-only" in err and "verification:" not in out


def test_verify_against_product_formula(built, capsys):
    code, out, _ = run(capsys, "verify", "--a", str(built),
                       "--against", "product-formula", "--steps", "2")
    assert code == 0 and "pass" in out


def test_verify_against_product_formula_beyond_the_full_unitary_cap(tmp_path, capsys,
                                                                   monkeypatch):
    # The n=7 output has 7 data wires and 4 ancillas.  With the cap at 2**20
    # amplitudes its full unitary (2**22) is out of reach, but its 2**7 data
    # columns (2**18) are not.
    monkeypatch.setattr(sim, "STATEVECTOR_QUBIT_CAP", 20)
    src, opt = tmp_path / "src.mlco", tmp_path / "opt.mlco"
    run(capsys, "build", "-n", "7", "-k", "2", "--out", str(src))
    run(capsys, "optimize", "--in", str(src), "--out", str(opt), "--no-verify")
    wide = read_circuit(opt.read_bytes())
    assert wide.num_qubits == 11
    with pytest.raises(sim.CapacityError):
        sim.unitary_of(wide)
    code, out, _ = run(capsys, "verify", "--a", str(opt),
                       "--against", "product-formula", "--steps", "2")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("against", ["product-formula", "exact-evolution"])
def test_verify_physics_refuses_a_wide_source_before_simulating_it(tmp_path, capsys,
                                                                  monkeypatch, against):
    src = tmp_path / "src.mlco"
    n = sim.FULL_UNITARY_MAX_QUBITS + 1
    assert run(capsys, "build", "-n", str(n), "-k", "2", "--out", str(src))[0] == 0

    def simulated(*args):
        raise AssertionError("the source was simulated")

    monkeypatch.setattr(sim, "data_block", simulated)
    code, _, err = run(capsys, "verify", "--a", str(src), "--against", against)
    assert code == 2 and "FULL_UNITARY_MAX_QUBITS" in err


@pytest.mark.parametrize("against", ["product-formula", "exact-evolution"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_verify_rejects_step_counts_below_one(built, capsys, against, steps):
    with pytest.raises(SystemExit) as e:
        run(capsys, "verify", "--a", str(built), "--against", against, "--steps", steps)
    assert e.value.code == 2
    assert "--steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["optimize", "--in", "a", "--out", "b"],
                                     ["verify", "--a", "a"]])
def test_trials_default_is_the_oracle_default(command):
    # The CLI spells the default out so that it need not import sim.
    assert make_parser().parse_args(command).trials == sim.DEFAULT_TRIALS


def test_verify_against_exact_evolution(built, capsys):
    code, out, _ = run(capsys, "verify", "--a", str(built),
                       "--against", "exact-evolution", "--steps", "2")
    assert code == 0
    assert "Trotter error" in out


def test_sweep(tmp_path, capsys):
    emit = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--sizes", "6,8", "--emit", str(emit))
    assert code == 0
    assert emit.read_text().splitlines()[0] \
        == "n,strategy,steps,cx_final,cx_predicted,match"


@pytest.mark.parametrize("steps, want", [("1", "6,MLCO,1,60,60,true"),
                                         ("3", "6,MLCO,3,138,138,true")])
def test_sweep_predicts_odd_step_counts(capsys, steps, want):
    code, out, _ = run(capsys, "sweep", "--sizes", "6", "--steps", steps)
    assert code == 0
    assert want in out.splitlines()


@pytest.mark.parametrize("sizes", ["3", "2,6", ",,", ""])
def test_sweep_rejects_sizes_the_laws_do_not_cover(capsys, sizes):
    code, out, err = run(capsys, "sweep", "--sizes", sizes)
    assert code == 2
    assert out == ""
    assert err.startswith("error: sweep")


def test_table1(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "FAIL" not in out
    assert "reduction" in out


def test_table1_runs_pipeline_once(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return pipeline_mlco(*args, **kwargs)

    monkeypatch.setattr(report, "pipeline_mlco", counting)
    code, out, _ = run(capsys, "table1")
    assert code == 0 and "reduction" in out
    assert len(calls) == 1


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)`, a usage error included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_as_fresh_parsers_do(built, tmp_path, capsys,
                                                          monkeypatch):
    out = tmp_path / "built.mlco"
    commands = [["count"],  # usage error: --in is required
                ["count", "--in", str(built)],
                ["verify", "--a", str(built), "--b", str(built)],
                ["build", "-n", "5", "--out", str(out)]]
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    shared_file = out.read_bytes()
    # A fresh parser for every call, as before the cache.
    monkeypatch.setattr(cli, "_parser", make_parser)
    fresh = [_outcome(capsys, argv) for argv in commands]
    assert shared == fresh
    assert out.read_bytes() == shared_file
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert "the following arguments are required: --in" in shared[0][2]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--in", "/nonexistent/file.mlco")
    assert code == 2
    assert "error:" in err


_HEADER = '{"num_qubits": 2, "num_ancillas": 0, "gates": '


@pytest.mark.parametrize("doc", [_HEADER + gates + "}" for gates in [
    '{"kind": "X", "controls": [], "target": 0}',
    '[["X", 0]]',
    '[{"kind": "RZ", "controls": [], "target": 0, "angle": "0.5"}]',
    '[{"kind": "RZ", "controls": [], "target": 0, "angle": false}]',
    '[{"kind": "RZ", "controls": [], "target": 0, "angle": NaN}]',
    '[{"kind": "RZ", "controls": [], "target": 0, "angle": -Infinity}]',
    '[{"kind": "CX", "controls": [0.5], "target": 1}]',
    '[{"kind": "CX", "controls": [0], "target": true}]',
    '[{"kind": "CX", "controls": [0], "target": 1.0}]',
    '[{"kind": "CX", "controls": "0", "target": 1}]',
    '[{"kind": ["CX"], "controls": [0], "target": 1}]',
]] + [
    '{"num_qubits": 6.9, "num_ancillas": 0, "gates": []}',
    '{"num_qubits": 2, "num_ancillas": true, "gates": []}',
    '{"num_qubits": "2", "gates": []}',
], ids=["gates-not-list", "record-not-object", "angle-string", "angle-bool",
        "angle-nan", "angle-inf", "qubit-float", "qubit-bool", "target-float",
        "controls-string", "kind-list", "num-qubits-float", "num-ancillas-bool",
        "num-qubits-string"])
def test_count_rejects_malformed_circuit_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.mlco"
    path.write_text(doc)
    code, _, err = run(capsys, "count", "--in", str(path))
    assert code == 2
    assert "error:" in err


# The commands that never consult the oracle run first; numpy must still be
# absent after them, and loaded once `optimize` certifies its rewrite rules.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import mlco.build, mlco.cli, mlco.ir, mlco.passes, mlco.report

src, logs, deto, qasm = sys.argv[1:]
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return mlco.cli.main(list(argv))
codes = [run("build", "-n", "6", "-k", "2", "--out", src),
         run("count", "--in", src),
         run("optimize", "--strategy", "deto", "--in", src, "--out", deto, "--no-verify"),
         run("export", "--in", deto, "--out", qasm)]
before = "numpy" in sys.modules
codes.append(run("optimize", "--in", src, "--out", logs))
after_optimize = "numpy" in sys.modules
codes.append(run("verify", "--a", src, "--steps", "2"))
print(json.dumps({"codes": codes, "before": before, "after_optimize": after_optimize}))
"""


def test_commands_that_do_not_simulate_never_load_numpy(tmp_path):
    # A fresh interpreter: this one has numpy loaded already.
    src_dir = str(Path(mlco.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)}
    files = [str(tmp_path / name) for name in
             ("wave.mlco", "wave_logs.mlco", "wave_deto.mlco", "wave.qasm")]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *files], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"codes": [0] * 6, "before": False, "after_optimize": True}, proc.stderr
