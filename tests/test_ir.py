"""Gate/circuit IR: validation, equality, census, commutation, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlco import ir, passes, sim
from mlco.build import PdeParams, WingStyle, build_one_step
from mlco.ir import (
    FIXED_CX_COST, HIGS, LOGS, MIGS, ROTATION_KINDS, Circuit, CircuitError, Gate,
    GateCensus, GateKind, ParseError, UnsupportedGateError, barrier, ccrz, ccx,
    census, commutes, conforms, crz, cs, cx, cz, h, inverse, mcrz, mcrz_cx_cost,
    rccx, rccx_decomposition, read_circuit, rx, rz, s, sdg, write_circuit,
    write_qasm, x,
)

# ---------------------------------------------------------------------------
# Gate construction and equality


def test_control_arity_enforced():
    with pytest.raises(CircuitError):
        Gate(GateKind.CX, (0, 1), 2)
    with pytest.raises(CircuitError):
        Gate(GateKind.CCX, (0,), 1)
    with pytest.raises(CircuitError):
        Gate(GateKind.MCRZ, (0, 1), 2, 0.5)  # MCRZ needs >= 3 controls


def test_duplicate_qubits_rejected():
    with pytest.raises(CircuitError):
        cx(1, 1)
    with pytest.raises(CircuitError):
        ccx(0, 0, 1)


def test_angle_arity():
    with pytest.raises(CircuitError):
        Gate(GateKind.RZ, (), 0)  # missing angle
    with pytest.raises(CircuitError):
        Gate(GateKind.X, (), 0, 0.3)  # spurious angle


def test_control_order_irrelevant_for_equality():
    assert ccx(0, 1, 2) == ccx(1, 0, 2)
    assert hash(ccx(0, 1, 2)) == hash(ccx(1, 0, 2))
    assert mcrz((0, 1, 2), 3, 0.5) == mcrz((2, 0, 1), 3, 0.5)
    assert cx(0, 1) != cx(1, 0)


def test_rccx_equality_keeps_control_order():
    a, b = rccx(0, 1, 2), rccx(1, 0, 2)
    ua = sim.unitary_of(Circuit(3, (a,)))
    ub = sim.unitary_of(Circuit(3, (b,)))
    assert np.abs(sim.align_phase(ua, ub) - ub).max() > 1e-3  # different unitaries
    assert a != b
    assert len({a, b}) == 2
    for g in (a, b):
        same = Gate(GateKind.RCCX, g.controls, g.target)
        assert g == same and hash(g) == hash(same)


def test_angle_compared_exactly():
    assert rz(0, 0.1) != rz(0, 0.1 + 1e-15)


def test_mcrz_helper_degrades_to_smaller_kinds():
    assert mcrz((), 0, 0.3).kind is GateKind.RZ
    assert mcrz((1,), 0, 0.3).kind is GateKind.CRZ
    assert mcrz((1, 2), 0, 0.3).kind is GateKind.CCRZ
    assert mcrz((1, 2, 3), 0, 0.3).kind is GateKind.MCRZ


def test_circuit_bounds_checked():
    with pytest.raises(CircuitError):
        Circuit(2, (cx(0, 2),))
    with pytest.raises(CircuitError):
        Circuit(0, ())


# ---------------------------------------------------------------------------
# Inverses

def _sample_gates():
    gates = [x(0), h(0), rz(0, 0.7), rx(1, -0.3), Gate(GateKind.T, (), 0),
             Gate(GateKind.TDG, (), 1), s(0), sdg(1), Gate(GateKind.Z, (), 2),
             cx(0, 1), cz(0, 1), Gate(GateKind.CY, (0,), 1), cs(0, 1),
             Gate(GateKind.CSDG, (0,), 1), crz(0, 1, 0.9), ccx(0, 1, 2),
             ccrz(0, 1, 2, -1.1), mcrz((0, 1, 2), 3, 0.4),
             Gate(GateKind.MCX, (0, 1, 2), 3), Gate(GateKind.CCRZ, (2, 0), 1, 0.2)]
    return gates


@pytest.mark.parametrize("gate", _sample_gates(), ids=lambda g: g.kind.value)
def test_gate_followed_by_inverse_is_identity(gate):
    inv = gate.inverse()
    seq = (gate, *(inv if isinstance(inv, tuple) else (inv,)))
    n = max(gate.qubits) + 1
    u = sim.unitary_of(Circuit(n, seq))
    assert np.abs(u - np.eye(2 ** n)).max() < 1e-12


def test_rccx_inverse_is_its_reversed_decomposition():
    inv = rccx(0, 1, 2).inverse()
    assert isinstance(inv, tuple)
    u = sim.unitary_of(Circuit(3, (rccx(0, 1, 2), *inv)))
    assert np.abs(u - np.eye(8)).max() < 1e-12


def test_circuit_inverse_roundtrip():
    c = Circuit(3, (h(0), cx(0, 1), rz(1, 0.3), ccx(0, 1, 2)))
    u = sim.unitary_of(c.concat(inverse(c)))
    assert np.abs(u - np.eye(8)).max() < 1e-12


# ---------------------------------------------------------------------------
# RCCX definition


def test_rccx_decomposition_has_three_cx():
    dec = rccx_decomposition(0, 1, 2)
    assert sum(1 for g in dec if g.kind is GateKind.CX) == 3


def test_rccx_matches_ccx_on_computational_action():
    # Same permutation as CCX; phases may differ only off the |11> control block.
    u_r = sim.unitary_of(Circuit(3, (rccx(2, 1, 0),)))
    u_c = sim.unitary_of(Circuit(3, (ccx(2, 1, 0),)))
    assert np.abs(np.abs(u_r) - np.abs(u_c)).max() < 1e-12
    d = u_c @ u_r.conj().T
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-12


# ---------------------------------------------------------------------------
# Gate-set levels


def test_conforms_examples():
    assert not conforms(Circuit(3, (ccx(0, 1, 2),)), LOGS)
    assert conforms(Circuit(3, (ccx(0, 1, 2),)), MIGS)
    assert conforms(Circuit(3, (mcrz((0, 1), 2, 0.1),)), MIGS)
    assert not conforms(Circuit(4, (rccx(0, 1, 2),)), HIGS)
    assert conforms(Circuit(2, (rz(0, 1.0), x(1), h(0), cx(0, 1))), LOGS)
    assert not conforms(Circuit(2, (s(0),)), LOGS)


# ---------------------------------------------------------------------------
# Census


def test_census_counts_entangling_gates_only():
    c = Circuit(6, (h(0), x(1), rz(2, 0.5), cx(0, 1), cz(1, 2),
                    mcrz((0, 1, 2, 3), 4, 0.1), ccx(0, 1, 2),
                    barrier((0, 1))))
    assert census(c) == {"CX": 1, "CZ": 1, "C4RZ": 1, "CCX": 1}


def test_census_additivity():
    a = Circuit(3, (cx(0, 1), ccx(0, 1, 2)))
    b = Circuit(3, (cx(1, 2), h(0)))
    assert census(a) + census(b) == {"CX": 2, "CCX": 1}
    assert census(a.concat(b)) == census(a) + census(b)


def test_empty_circuit_census_is_zero():
    assert census(Circuit(1, ())) == {}


def test_naive_lowered_cx_pricing():
    c = census(Circuit(9, (ccrz(0, 1, 8, 0.4),) * 4 + (ccx(0, 1, 2),) * 6
               + (crz(0, 8, 0.4),) + (cx(0, 1),) * 16))
    assert c.total_cx_after_naive_lowering == 4 * 4 + 6 * 6 + 1 * 2 + 16


def test_census_gate_costs():
    def price(*gates):
        return census(Circuit(6, gates)).total_cx_after_naive_lowering
    assert price(ccx(0, 1, 2)) == 6
    assert price(crz(0, 1, 0.2)) == 2
    assert price(mcrz((0, 1, 2, 3, 4), 5, 0.2)) == 40
    assert price(h(0)) == 0
    # The DETO cost model of one n=6 step.
    assert price(*build_one_step(PdeParams(n=6), WingStyle.STAIR).gates) == 114


@pytest.mark.parametrize("kind", [k for k, arity in ir._CONTROL_ARITY.items() if arity],
                         ids=lambda k: k.value)
def test_fixed_cx_cost_is_the_logs_decomposition_cost(kind):
    arity = ir._CONTROL_ARITY[kind]
    gate = Gate(kind, tuple(range(arity)), arity,
                0.3 if kind in ROTATION_KINDS else None)
    spent = sum(g.kind is GateKind.CX for g in passes._lower_gate_logs(gate))
    assert FIXED_CX_COST[kind.value] == spent
    assert census(Circuit(3, (gate,))).total_cx_after_naive_lowering == spent


def test_mcrz_cx_cost_table():
    assert [mcrz_cx_cost(k) for k in range(1, 9)] == [2, 4, 14, 24, 40, 56, 80, 104]
    assert mcrz_cx_cost(10) == 16 * 10 - 24


def test_census_rejects_negative():
    with pytest.raises(CircuitError):
        GateCensus({"CX": -1})


# ---------------------------------------------------------------------------
# Commutation: soundness property


_GATE_POOL = st.sampled_from(
    [x, h, lambda q: rz(q, 0.37), lambda q: rx(q, -0.6), s, sdg])


@st.composite
def _random_gate(draw, n=4):
    choice = draw(st.integers(0, 3))
    qs = draw(st.permutations(range(n)))
    if choice == 0:
        return draw(_GATE_POOL)(qs[0])
    if choice == 1:
        return draw(st.sampled_from([cx, cz, cs, lambda a, b: crz(a, b, 0.4)]))(
            qs[0], qs[1])
    if choice == 2:
        return draw(st.sampled_from(
            [ccx, rccx, lambda a, b, c: ccrz(a, b, c, 0.8)]))(qs[0], qs[1], qs[2])
    return mcrz(tuple(qs[:3]), qs[3], 0.25)


@settings(max_examples=150, deadline=None)
@given(_random_gate(), _random_gate())
def test_commutes_is_sound(a, b):
    if commutes(a, b):
        ca = Circuit(4, (a, b))
        cb = Circuit(4, (b, a))
        assert np.abs(sim.unitary_of(ca) - sim.unitary_of(cb)).max() < 1e-12


def test_barrier_blocks_commutation():
    bar = barrier((0, 1))
    assert not commutes(bar, x(5))
    assert not commutes(rz(0, 0.2), bar)


# ---------------------------------------------------------------------------
# Serialization


@st.composite
def _random_circuit(draw):
    n = draw(st.integers(1, 10))
    gates = []
    for _ in range(draw(st.integers(0, 60))):
        g = draw(_random_gate(n=max(n, 4)))
        if max(g.qubits) < n:
            gates.append(g)
    return Circuit(n, tuple(gates))


@settings(max_examples=80, deadline=None)
@given(_random_circuit())
def test_serialization_roundtrip(circ):
    assert read_circuit(write_circuit(circ)) == circ


def test_read_rejects_out_of_range_qubit():
    doc = write_circuit(Circuit(4, (cx(0, 3),))).decode()
    with pytest.raises(ParseError):
        read_circuit(doc.replace('"num_qubits": 4', '"num_qubits": 2'))


def test_read_rejects_missing_angle():
    with pytest.raises(ParseError):
        read_circuit('{"num_qubits": 1, "num_ancillas": 0, '
                     '"gates": [{"kind": "RZ", "controls": [], "target": 0}]}')


def test_read_rejects_unknown_kind():
    with pytest.raises(UnsupportedGateError):
        read_circuit('{"num_qubits": 1, "num_ancillas": 0, '
                     '"gates": [{"kind": "SWAP", "controls": [], "target": 0}]}')


def test_read_reports_position_on_malformed_document():
    with pytest.raises(ParseError) as exc:
        read_circuit(b'{"num_qubits": 2,,}')
    assert "line" in str(exc.value) or "col" in str(exc.value)


# ---------------------------------------------------------------------------
# QASM export


def test_qasm_export_of_logs_circuit():
    text = write_qasm(Circuit(2, (h(0), rz(1, math.pi / 4), cx(0, 1), x(1))))
    assert text.startswith("OPENQASM 3;")
    assert "cx q[0], q[1];" in text


def test_qasm_export_rejects_unlowered_gates():
    for g in (mcrz((0, 1, 2), 3, 0.1), ccrz(0, 1, 2, 0.1), rccx(0, 1, 2)):
        with pytest.raises(UnsupportedGateError):
            write_qasm(Circuit(4, (g,)))
