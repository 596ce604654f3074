"""Dense simulation oracle: unitaries, Hamiltonians, equivalence checks."""

import numpy as np
import pytest

from mlco import sim
from mlco.build import PdeParams, WingStyle, build_one_step
from mlco.ir import (
    ROTATION_KINDS, Circuit, Gate, GateKind, ccx, cs, cx, cz, h, mcrz, rccx,
    rccx_decomposition, rz, s, x,
)

MULTI_CONTROL_KINDS = (GateKind.MCRZ,)


def _reference_apply_gate(tensor, gate, n):
    """The dense path the kernels replaced: move the gate's axes to the
    front, multiply by its unitary, move them back."""
    if gate.kind is GateKind.BARRIER:
        return tensor
    if gate.kind is GateKind.RCCX:
        u = _reference_unitary(Circuit(3, rccx_decomposition(2, 1, 0)))
    else:
        u = sim.gate_unitary(gate)
    axes = [n - 1 - q for q in gate.qubits]
    k = len(axes)
    moved = np.moveaxis(tensor, axes, range(k))
    flat = u @ moved.reshape(2 ** k, -1)
    return np.moveaxis(flat.reshape(moved.shape), range(k), axes)


def _reference_apply(circuit, state):
    n = circuit.num_qubits
    tensor = state.reshape((2,) * n).astype(complex)
    for g in circuit.gates:
        tensor = _reference_apply_gate(tensor, g, n)
    return tensor.reshape(-1)


def _reference_unitary(circuit):
    n = circuit.num_qubits
    dim = 2 ** n
    tensor = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circuit.gates:
        tensor = _reference_apply_gate(tensor, g, n)
    return tensor.reshape(dim, dim)


def _fixed_controls(kind):
    return sim.unitary_of_kind(kind, 0.3).shape[0].bit_length() - 2


def _random_gate(rng, kind, n):
    wires = [int(q) for q in rng.permutation(n)]
    if kind is GateKind.BARRIER:
        return Gate(kind, tuple(wires[:rng.integers(1, n + 1)]))
    k = int(rng.integers(3, n)) if kind in MULTI_CONTROL_KINDS else _fixed_controls(kind)
    angle = float(rng.uniform(-np.pi, np.pi)) if kind in ROTATION_KINDS else None
    return Gate(kind, tuple(wires[:k]), wires[k], angle)


def _min_wires(kind):
    if kind in MULTI_CONTROL_KINDS:
        return 4
    if kind is GateKind.BARRIER:
        return 1
    return _fixed_controls(kind) + 1


def _assert_matches_reference(circuit, rng):
    n = circuit.num_qubits
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    assert np.abs(sim.apply(circuit, state)
                  - _reference_apply(circuit, state)).max() < 1e-12
    assert np.abs(sim.unitary_of(circuit) - _reference_unitary(circuit)).max() < 1e-12


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_kernel_matches_reference_for_kind(kind):
    # Every placement size from the kind's minimum to 6 wires; MCRZ gets 3
    # to n-1 controls.
    rng = np.random.default_rng(list(GateKind).index(kind))
    for n in range(_min_wires(kind), 7):
        for _ in range(3):
            gates = [_random_gate(rng, kind, n) for _ in range(6)]
            _assert_matches_reference(Circuit(n, tuple(gates)), rng)


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_matches_reference_on_mixed_circuits(n):
    rng = np.random.default_rng(100 + n)
    kinds = [k for k in GateKind if _min_wires(k) <= n]
    for _ in range(4):
        gates = [_random_gate(rng, kinds[rng.integers(len(kinds))], n)
                 for _ in range(40)]
        _assert_matches_reference(Circuit(n, tuple(gates)), rng)


def test_rccx_kernel_respects_control_order():
    rng = np.random.default_rng(5)
    for gate in (rccx(0, 1, 2), rccx(1, 0, 2), rccx(2, 0, 1), rccx(0, 2, 1)):
        _assert_matches_reference(Circuit(3, (h(0), h(1), gate)), rng)
    assert np.abs(sim.unitary_of(Circuit(3, (rccx(0, 1, 2),)))
                  - sim.unitary_of(Circuit(3, (rccx(1, 0, 2),)))).max() > 0.1


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_kernel_on_gate_spanning_every_wire(kind):
    # A statevector has no batch axis, so every axis of the tensor is fixed
    # by an index: the kernel must still write through views.
    rng = np.random.default_rng(7)
    n = _min_wires(kind)
    gate = _random_gate(rng, kind, n)
    if kind is GateKind.BARRIER:
        gate = Gate(kind, tuple(range(n)))
    assert len(gate.qubits) == n
    c = Circuit(n, (gate,))
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    assert np.abs(sim.apply(c, state) - _reference_apply(c, state)).max() < 1e-12


def test_apply_leaves_input_unchanged_and_accepts_real_state():
    rng = np.random.default_rng(9)
    c = Circuit(3, (h(0), cx(0, 1), rz(2, 0.4), s(1), ccx(0, 1, 2), x(2)))
    for state in (rng.normal(size=8), rng.normal(size=8) + 1j * rng.normal(size=8)):
        before = state.copy()
        out = sim.apply(c, state)
        assert np.array_equal(state, before) and state.dtype == before.dtype
        assert np.abs(out - _reference_apply(c, state)).max() < 1e-12


def test_apply_survives_long_runs_of_h():
    # H's 1/sqrt 2 is multiplied in late; 3000 of them must not overflow.
    c = Circuit(1, (h(0),) * 3001)
    out = sim.apply(c, np.array([1.0, 0.0]))
    assert np.abs(out - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12


def test_apply_matches_unitary():
    c = Circuit(3, (h(0), cx(0, 1), rz(1, 0.4), ccx(0, 1, 2), x(2)))
    rng = np.random.default_rng(0)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert np.abs(sim.apply(c, v) - sim.unitary_of(c) @ v).max() < 1e-12


def test_controlled_gate_orientation():
    # Control on wire 1, target wire 0: |10> -> |11>.
    u = sim.unitary_of(Circuit(2, (cx(1, 0),)))
    state = np.zeros(4)
    state[0b10] = 1.0
    assert abs((u @ state)[0b11] - 1.0) < 1e-12


def test_mcrz_applies_phase_only_on_all_ones_controls():
    theta = 0.77
    u = sim.unitary_of(Circuit(4, (mcrz((0, 1, 2), 3, theta),)))
    d = np.diag(u)
    assert np.abs(u - np.diag(d)).max() < 1e-14
    for b in range(16):
        if b & 0b0111 == 0b0111:
            want = np.exp(-1j * theta / 2) if not b & 0b1000 \
                else np.exp(1j * theta / 2)
        else:
            want = 1.0
        assert abs(d[b] - want) < 1e-12


def test_cs_matches_controlled_phase():
    u = sim.unitary_of(Circuit(2, (cs(0, 1),)))
    want = np.diag([1, 1, 1, 1j])
    # wire 0 = control (LSB), wire 1 = target: |11> is index 3.
    assert np.abs(u - want).max() < 1e-12


def test_hamiltonian_terms_sum_and_match_direct_form():
    p = PdeParams(n=5, c=1.3, l=0.7)
    h_full, h1, h2, terms = sim.hamiltonian(p)
    assert np.abs(h_full - (h1 + h2)).max() < 1e-12
    assert np.abs(h_full - sim.hamiltonian_direct(p)).max() < 1e-10
    assert len(terms) == p.n - 1


def test_hamiltonian_commutator_structure():
    p = PdeParams(n=5)
    _, _, _, terms = sim.hamiltonian(p)
    h0 = sim._h_term(p.n - 1, 0)
    for a in terms:
        for b in terms:
            assert sim.commutator_norm(a, b) < 1e-10
        assert abs(sim.commutator_norm(a, h0) - 1.0) < 1e-10


def test_expm_hermitian_is_unitary_and_correct():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    herm = (m + m.conj().T) / 2
    u = sim.expm_hermitian(herm, 0.31)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12
    evals, vecs = np.linalg.eigh(herm)
    want = vecs @ np.diag(np.exp(-1j * 0.31 * evals)) @ vecs.conj().T
    assert np.abs(u - want).max() < 1e-12


def test_align_phase_removes_global_phase():
    u = sim.unitary_of(Circuit(2, (h(0), cx(0, 1))))
    rotated = np.exp(1j * 0.23) * u
    assert np.abs(sim.align_phase(rotated, u) - u).max() < 1e-12


def test_equivalent_up_to_phase_detects_difference():
    a = Circuit(2, (h(0), cx(0, 1)))
    b = Circuit(2, (h(0), cx(0, 1), rz(1, 1e-3)))
    ok, _ = sim.equivalent_up_to_phase(a, b, trials=10, seed=0)
    assert not ok
    c = Circuit(2, (h(0), h(1), cz(0, 1), h(1)))  # CX = H.CZ.H on the target
    ok, dev = sim.equivalent_up_to_phase(a, c, trials=10, seed=0)
    assert ok and dev < 1e-12


def test_equivalent_accepts_global_phase_and_ancillas():
    a = Circuit(3, (ccx(0, 1, 2),))
    b = Circuit(3, tuple(g for g in a.gates) + (rz(0, 0.0),))
    ok, dev = sim.equivalent_up_to_phase(a, b, trials=8, seed=2)
    assert ok and dev < 1e-12


def test_rccx_unitary_is_its_decomposition():
    from mlco.ir import rccx_decomposition
    u1 = sim.unitary_of(Circuit(3, (rccx(0, 1, 2),)))
    u2 = sim.unitary_of(Circuit(3, rccx_decomposition(0, 1, 2)))
    assert np.abs(u1 - u2).max() < 1e-12


def test_capacity_guard():
    big = Circuit(sim.UNITARY_QUBIT_CAP + 1, ())
    with pytest.raises(sim.CapacityError):
        sim.unitary_of(big)


def test_equivalence_needs_a_trial():
    a = Circuit(2, (h(0), cx(0, 1)))
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            sim.equivalent_up_to_phase(a, a, trials=trials)


def test_trotter_error_second_order_in_tau():
    errs = []
    for tau in (0.2, 0.1):
        p = PdeParams(n=5, tau=tau)
        errs.append(sim.trotter_error(p, build_one_step(p, WingStyle.SPRAY)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
