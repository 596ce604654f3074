"""Gate/circuit IR: validation, equality, census, commutation, serialization."""

import copy
import gc
import itertools
import json
import math
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlco import ir, passes, sim
from mlco.build import PdeParams, WingStyle, build_one_step
from mlco.ir import (
    FIXED_CX_COST, HIGS, LOGS, MIGS, ROTATION_KINDS, Circuit, CircuitError, Gate,
    GateKind, ParseError, UnsupportedGateError, ccrz, ccx, census, commutes,
    conforms, crz, cs, cx, cz, format_census, h, inverse, mcrz, mcrz_cx_cost, naive_cx,
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


def test_controls_are_stored_sorted_except_rccx():
    assert Gate(GateKind.CCX, (2, 0), 1).controls == (0, 2)
    assert mcrz((3, 0, 2), 1, 0.5).controls == (0, 2, 3)
    assert rccx(1, 0, 2).controls == (1, 0)


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


@pytest.mark.parametrize("make", [
    lambda: Gate(GateKind.X, (), -1), lambda: cx(-1, 0), lambda: ccx(0, -2, 1),
    lambda: rccx(1, -1, 0), lambda: mcrz((0, 1, -3), 2, 0.5),
], ids=["X", "CX", "CCX", "RCCX", "MCRZ"])
def test_negative_wire_rejected(make):
    with pytest.raises(CircuitError, match="negative qubit"):
        make()


def test_circuit_range_error_names_the_first_offending_gate_and_wire():
    # The controls come first in `qubits`, sorted: CCX(4, 3, 0) names wire 3.
    with pytest.raises(CircuitError, match=r"^gate CCX touches qubit 3 >= num_qubits=3$"):
        Circuit(3, (cx(0, 2), ccx(4, 3, 0), x(5)))
    with pytest.raises(CircuitError, match=r"^gate X touches qubit 3 >= num_qubits=3$"):
        Circuit(3, (cx(0, 2), x(3)))
    assert Circuit(3, (ccx(2, 0, 1),)).gates == (ccx(0, 2, 1),)


# ---------------------------------------------------------------------------
# Gate contract: the value semantics of a frozen dataclass over
# (kind, controls, target, angle)


@st.composite
def _any_gate(draw):
    """A gate of any kind on wires 0..4, with angles from a small set so that
    two draws are often equal."""
    kind = draw(st.sampled_from(list(GateKind)))
    arity = ir.CONTROL_ARITY[kind]
    if arity is None:
        arity = draw(st.integers(3, 4))
    qs = draw(st.permutations(range(5)))
    angle = draw(st.sampled_from([0.25, -0.25, 1.5])) if kind in ROTATION_KINDS else None
    return Gate(kind, tuple(qs[:arity]), qs[arity], angle)


def _value(g):
    return g.kind, g.controls, g.target, g.angle


@settings(max_examples=300, deadline=None)
@given(_any_gate(), _any_gate())
def test_gate_equality_and_hash_are_those_of_its_value(a, b):
    assert (a == b) == (_value(a) == _value(b))
    assert (a != b) == (_value(a) != _value(b))
    assert hash(a) == hash(_value(a))
    assert a.__eq__(_value(a)) is NotImplemented
    assert a != _value(a)


@settings(max_examples=100, deadline=None)
@given(_any_gate())
def test_gate_is_frozen(g):
    for name in ("kind", "controls", "target", "angle", "qubits", "wires", "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(g, name)


@settings(max_examples=100, deadline=None)
@given(_any_gate())
def test_gate_copies_round_trip_with_the_dataclass_repr(g):
    assert repr(g) == (f"Gate(kind={g.kind!r}, controls={g.controls!r}, "
                       f"target={g.target!r}, angle={g.angle!r})")
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert twin.qubits == g.qubits


@settings(max_examples=100, deadline=None)
@given(_any_gate())
def test_gate_inverse_is_an_involution_and_refers_to_no_gate_that_refers_back(g):
    inv = g.inverse()
    assert inv.inverse() == g
    # A self-inverse gate returns itself; neither refers to the other.
    assert all(r is not g for r in gc.get_referents(g))
    assert all(r is not g for r in gc.get_referents(inv))


@settings(max_examples=100, deadline=None)
@given(_any_gate())
def test_gate_wire_masks_are_its_qubits(g):
    assert g.wires == sum(1 << q for q in g.qubits)
    for mask in (g.d_wires, g.z_wires, g.c_wires, g.x_wires):
        assert mask & g.wires == mask


# ---------------------------------------------------------------------------
# Inverses

def _sample_gates():
    gates = [x(0), h(0), rz(0, 0.7), rx(1, -0.3), Gate(GateKind.T, (), 0),
             Gate(GateKind.TDG, (), 1), s(0), sdg(1), Gate(GateKind.Z, (), 2),
             cx(0, 1), cz(0, 1), Gate(GateKind.CY, (0,), 1), cs(0, 1),
             Gate(GateKind.CSDG, (0,), 1), crz(0, 1, 0.9), ccx(0, 1, 2),
             ccrz(0, 1, 2, -1.1), mcrz((0, 1, 2), 3, 0.4),
             Gate(GateKind.CCRZ, (2, 0), 1, 0.2)]
    return gates


@pytest.mark.parametrize("gate", _sample_gates(), ids=lambda g: g.kind.value)
def test_gate_followed_by_inverse_is_identity(gate):
    n = max(gate.qubits) + 1
    u = sim.unitary_of(Circuit(n, (gate, gate.inverse())))
    assert np.abs(u - np.eye(2 ** n)).max() < 1e-12


def test_rccx_is_self_inverse():
    for c1, c2 in ((0, 1), (1, 0)):
        # The decomposition reversed and inverted gate by gate is itself.
        body = Circuit(3, rccx_decomposition(c1, c2, 2))
        assert inverse(body) == body
        gate = rccx(c1, c2, 2)
        assert gate.inverse() == gate
        u = sim.unitary_of(Circuit(3, (gate, gate)))
        assert np.abs(u - np.eye(8)).max() < 1e-12


def test_circuit_inverse_roundtrip():
    c = Circuit(3, (h(0), cx(0, 1), rz(1, 0.3), ccx(0, 1, 2)))
    u = sim.unitary_of(Circuit(3, c.gates + inverse(c).gates))
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
                    mcrz((0, 1, 2, 3), 4, 0.1), ccx(0, 1, 2)))
    assert census(c) == {"CX": 1, "CZ": 1, "C4RZ": 1, "CCX": 1}


def test_census_additivity():
    a = Circuit(3, (cx(0, 1), ccx(0, 1, 2)))
    b = Circuit(3, (cx(1, 2), h(0)))
    assert census(Circuit(3, a.gates + b.gates)) == {"CX": 2, "CCX": 1}


def test_empty_circuit_census_is_zero():
    assert census(Circuit(1, ())) == {}


def test_format_census_sorts_by_key():
    c = Circuit(6, (cx(0, 1), mcrz((0, 1, 2, 3), 4, 0.1), ccx(0, 1, 2), cx(1, 2)))
    assert format_census(census(c)) == "C4RZ:1, CCX:1, CX:2"
    assert format_census(census(Circuit(1, ()))) == ""


def test_naive_lowered_cx_pricing():
    c = Circuit(9, (ccrz(0, 1, 8, 0.4),) * 4 + (ccx(0, 1, 2),) * 6
                + (crz(0, 8, 0.4),) + (cx(0, 1),) * 16)
    assert naive_cx(c) == 4 * 4 + 6 * 6 + 1 * 2 + 16


def test_census_gate_costs():
    def price(*gates):
        return naive_cx(Circuit(6, gates))
    assert price(ccx(0, 1, 2)) == 6
    assert price(crz(0, 1, 0.2)) == 2
    assert price(mcrz((0, 1, 2, 3, 4), 5, 0.2)) == 40
    assert price(h(0)) == 0
    # The DETO cost model of one n=6 step.
    assert price(*build_one_step(PdeParams(n=6), WingStyle.STAIR).gates) == 114


@pytest.mark.parametrize("kind", [k for k, arity in ir.CONTROL_ARITY.items() if arity],
                         ids=lambda k: k.value)
def test_fixed_cx_cost_is_the_logs_decomposition_cost(kind):
    arity = ir.CONTROL_ARITY[kind]
    gate = Gate(kind, tuple(range(arity)), arity,
                0.3 if kind in ROTATION_KINDS else None)
    spent = sum(g.kind is GateKind.CX for g in passes._lower_gate_logs(gate))
    assert FIXED_CX_COST[kind] == spent
    assert naive_cx(Circuit(3, (gate,))) == spent


def test_mcrz_cx_cost_table():
    assert [mcrz_cx_cost(k) for k in range(1, 9)] == [2, 4, 14, 24, 40, 56, 80, 104]
    assert mcrz_cx_cost(10) == 16 * 10 - 24


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


# The rule-by-rule check that the wire masks replaced, frozen with its own
# copies of the kind sets.
_FROZEN_DIAGONAL = frozenset({
    GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.RZ,
    GateKind.CZ, GateKind.CS, GateKind.CSDG, GateKind.CRZ, GateKind.CCRZ, GateKind.MCRZ,
})
_FROZEN_X_FAMILY = frozenset({GateKind.X, GateKind.CX, GateKind.CCX})


def _frozen_commutes(a, b):
    def reads_only(diag, other):
        return not (set(diag.qubits) & (set(other.qubits) - set(other.controls)))

    def x_axis(g):
        return g.kind in (GateKind.X, GateKind.RX)

    a_diag, b_diag = a.kind in _FROZEN_DIAGONAL, b.kind in _FROZEN_DIAGONAL
    if not set(a.qubits) & set(b.qubits):
        return True
    if a == b:
        return True
    if a_diag and b_diag:
        return True
    if a_diag and reads_only(a, b):
        return True
    if b_diag and reads_only(b, a):
        return True
    if a.kind in _FROZEN_X_FAMILY and b.kind in _FROZEN_X_FAMILY:
        return a.target not in b.controls and b.target not in a.controls
    if x_axis(a) and b.kind in _FROZEN_X_FAMILY:
        return a.target == b.target
    if x_axis(b) and a.kind in _FROZEN_X_FAMILY:
        return b.target == a.target
    if x_axis(a) and x_axis(b):
        return a.target == b.target
    return False


def _every_gate_on(n):
    """Every distinct gate on wires 0..n-1, rotations at two opposite angles."""
    gates = []
    for kind in GateKind:
        arity = ir.CONTROL_ARITY[kind]
        if arity is None:
            arity = n - 1
        for qs in itertools.permutations(range(n), arity + 1):
            for angle in (0.25, -0.25) if kind in ROTATION_KINDS else (None,):
                gates.append(Gate(kind, qs[:arity], qs[arity], angle))
    return list(dict.fromkeys(gates))


def test_commutation_masks_agree_with_the_rule_by_rule_check_on_every_pair():
    gates = _every_gate_on(4)
    assert len(gates) == 196
    assert commutes.__wrapped__ is ir.gates_commute
    verdicts = Counter()
    wrong = []
    for a in gates:
        for b in gates:
            want = _frozen_commutes(a, b)
            verdicts[want] += 1
            if ir.gates_commute(a, b) != want:
                wrong.append((a, b, want))
    assert wrong[:5] == []
    assert verdicts[True] > 10_000 and verdicts[False] > 10_000


def test_barrier_record_is_rejected():
    with pytest.raises(UnsupportedGateError, match="unknown kind 'Barrier'"):
        read_circuit('{"num_qubits": 2, "num_ancillas": 0, '
                     '"gates": [{"kind": "Barrier", "controls": [0, 1]}]}')


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


def test_read_sorts_controls_and_roundtrips():
    circ = read_circuit('{"num_qubits": 3, "num_ancillas": 0, "gates": [{"kind": "CCRZ", '
                        '"controls": [2, 0], "target": 1, "angle": 0.5}]}')
    assert circ.gates[0].controls == (0, 2)
    assert read_circuit(write_circuit(circ)) == circ


def test_read_rejects_out_of_range_qubit():
    doc = write_circuit(Circuit(4, (cx(0, 3),))).decode()
    with pytest.raises(ParseError):
        read_circuit(doc.replace('"num_qubits": 4', '"num_qubits": 2'))


def test_read_rejects_out_of_range_qubit_before_building_its_gate():
    # A gate's wire masks grow with its highest wire.
    with pytest.raises(ParseError, match=r"^gate 1: CX touches qubit 10000000 >= num_qubits=2$"):
        read_circuit('{"num_qubits": 2, "num_ancillas": 0, "gates": ['
                     '{"kind": "X", "controls": [], "target": 1}, '
                     '{"kind": "CX", "controls": [10000000], "target": 0}]}')
    with pytest.raises(ParseError, match=r"^gate 0: negative qubit in X on \(-1,\)$"):
        read_circuit('{"num_qubits": 2, "num_ancillas": 0, "gates": ['
                     '{"kind": "X", "controls": [], "target": -1}]}')


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


def _json_reference(circ):
    """The document as json's own indenting encoder writes it."""
    records = []
    for g in circ.gates:
        rec = {"kind": g.kind.value, "controls": list(g.controls), "target": g.target}
        if g.angle is not None:
            rec["angle"] = g.angle
        records.append(rec)
    doc = {"num_qubits": circ.num_qubits, "num_ancillas": circ.num_ancillas,
           "gates": records}
    return (json.dumps(doc, indent=1) + "\n").encode()


@st.composite
def _circuit_of_any_gates(draw):
    """A circuit of gates of every kind, ancillas included, with angles that
    are floats of either sign, ints and subnormals."""
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        g = draw(_any_gate())
        if g.angle is not None:
            angle = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(-10**20, 10**20)))
            g = Gate(g.kind, g.controls, g.target, angle)
        gates.append(g)
    return Circuit(5, tuple(gates), draw(st.integers(0, 4)))


# An empty circuit, an MCRZ with five controls, an int angle, a negative
# zero, the smallest subnormal, a large and a negative angle.
_WRITER_EDGE_CASES = [
    Circuit(1),
    Circuit(7, (mcrz((0, 1, 2, 3, 4), 6, 0.25), x(5)), 1),
    Circuit(2, (rz(0, 1), crz(0, 1, 3))),
    Circuit(1, (rz(0, -0.0),)),
    Circuit(2, (crz(1, 0, 5e-324),)),
    Circuit(3, (ccrz(0, 2, 1, 1e300),)),
    Circuit(1, (rz(0, -1.25),)),
]


@settings(max_examples=150, deadline=None)
@given(_circuit_of_any_gates())
def test_writer_emits_the_json_encoders_bytes(circ):
    assert write_circuit(circ) == _json_reference(circ)


@pytest.mark.parametrize("circ", _WRITER_EDGE_CASES)
def test_writer_emits_the_json_encoders_bytes_on_edge_cases(circ):
    assert write_circuit(circ) == _json_reference(circ)
    assert read_circuit(write_circuit(circ)) == circ


@pytest.mark.parametrize("mutant", [
    lambda circ: write_circuit(circ)[:-1],
    lambda circ: write_circuit(circ).replace(b"-0.0", b"0.0"),
], ids=["no-trailing-newline", "negative-zero-unsigned"])
def test_writer_identity_check_catches_a_wrong_writer(mutant):
    assert any(mutant(circ) != _json_reference(circ) for circ in _WRITER_EDGE_CASES)


@pytest.mark.parametrize("gate, text", [
    (rz(0, float("nan")), "nan"), (crz(0, 1, float("inf")), "inf")])
def test_writer_refuses_a_non_finite_angle_by_position(gate, text):
    with pytest.raises(CircuitError, match=rf"^gate 1: angle must be a finite number, got {text}$"):
        write_circuit(Circuit(2, (x(0), gate)))


@pytest.mark.parametrize("sign", [1, -1])
def test_writer_refuses_an_int_angle_too_large_for_a_float(sign):
    message = r"^gate 1: angle must be a finite number, got -?10{400}$"
    with pytest.raises(CircuitError, match=message):
        write_circuit(Circuit(2, (x(0), crz(0, 1, sign * 10**400))))
    # An int a float holds is written as it is, and reads back unchanged.
    circ = Circuit(1, (rz(0, sign * 10**300),))
    assert read_circuit(write_circuit(circ)).gates[0].angle == sign * 10**300


@pytest.mark.parametrize("angle", ["1" + "0" * 400, "-1" + "0" * 400], ids=["plus", "minus"])
def test_read_refuses_an_int_angle_too_large_for_a_float_by_position(angle):
    doc = ('{"num_qubits": 1, "num_ancillas": 0, "gates": [{"kind": "H", "target": 0}, '
           f'{{"kind": "RZ", "controls": [], "target": 0, "angle": {angle}}}]}}')
    with pytest.raises(ParseError, match=r"^gate 1: angle must be a finite number"):
        read_circuit(doc)


def test_read_shares_one_gate_among_equal_records():
    circ = Circuit(2, (cx(0, 1), rz(0, 0.5), cx(0, 1), h(1), rz(0, 0.5), cx(0, 1)))
    gates = read_circuit(write_circuit(circ)).gates
    assert gates == circ.gates
    assert gates[0] is gates[2] is gates[5] and gates[1] is gates[4]
    assert gates[0] is not gates[3]


def test_read_keeps_angle_type_and_sign_of_each_record():
    data = write_circuit(Circuit(1, (rz(0, 1), rz(0, 1.0), rz(0, 0.0), rz(0, -0.0),
                                     rz(0, 1), rz(0, -0.0))))
    gates = read_circuit(data).gates
    assert [repr(g.angle) for g in gates] == ["1", "1.0", "0.0", "-0.0", "1", "-0.0"]
    assert write_circuit(read_circuit(data)) == data


_GOOD_RECORDS = ('{"kind": "CRZ", "controls": [1], "target": 0, "angle": 0.5}, '
                 '{"kind": "CRZ", "controls": [0], "target": 1, "angle": 0.5}')


@pytest.mark.parametrize("bad, message", [
    ('{"kind": "CRZ", "controls": [true], "target": 0, "angle": 0.5}', "controls must be"),
    ('{"kind": "CRZ", "controls": [1.0], "target": 0, "angle": 0.5}', "controls must be"),
    ('{"kind": "CRZ", "controls": [0], "target": true, "angle": 0.5}', "target must be"),
    ('{"kind": "CRZ", "controls": [0], "target": 1.0, "angle": 0.5}', "target must be"),
    ('{"kind": "CRZ", "controls": [1], "target": 0, "angle": NaN}', "angle must be"),
    ('{"kind": "CRZ", "controls": [1], "target": 0, "angle": true}', "angle must be"),
    ('{"kind": "CRZ", "controls": [1], "target": 2, "angle": 0.5}', "touches qubit 2"),
    ('{"kind": "CRZ", "controls": [1], "target": 1, "angle": 0.5}', "duplicate qubit"),
    ('{"kind": "CRZ", "controls": [1], "target": 0}', "requires an angle"),
    ('{"kind": "CCRZ", "controls": [1], "target": 0, "angle": 0.5}', "requires 2 controls"),
], ids=["control-true", "control-float", "target-true", "target-float", "angle-nan",
        "angle-true", "target-out-of-range", "target-is-control", "no-angle", "kind"])
def test_read_refuses_a_bad_record_that_repeats_a_good_one_but_one_field(bad, message):
    # Records 0 and 1 are valid; record 2 differs from one of them in one field.
    doc = ('{"num_qubits": 2, "num_ancillas": 0, "gates": ['
           f'{_GOOD_RECORDS}, {bad}, {_GOOD_RECORDS}]}}')
    with pytest.raises(ParseError, match=rf"^gate 2: .*{message}"):
        read_circuit(doc)


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
