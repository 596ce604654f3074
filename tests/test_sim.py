"""Dense simulation oracle: unitaries, Hamiltonians, equivalence checks."""

import tracemalloc

import numpy as np
import pytest

from mlco import ir, sim
from mlco.build import PdeParams, WingStyle, build_one_step
from mlco.ir import (
    DIAGONAL_KINDS, ROTATION_KINDS, X_FAMILY_KINDS, Circuit, Gate, GateKind, ccx, cs,
    cx, cz, h, mcrz, rccx, rccx_decomposition, rz, s, x,
)

MULTI_CONTROL_KINDS = (GateKind.MCRZ,)


def _reference_apply_gate(tensor, gate, n):
    """The dense path the kernels replaced: move the gate's axes to the
    front, multiply by its unitary, move them back."""
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
    return ir.CONTROL_ARITY[kind]


def _random_gate(rng, kind, n):
    wires = [int(q) for q in rng.permutation(n)]
    k = int(rng.integers(3, n)) if kind in MULTI_CONTROL_KINDS else _fixed_controls(kind)
    angle = float(rng.uniform(-np.pi, np.pi)) if kind in ROTATION_KINDS else None
    return Gate(kind, tuple(wires[:k]), wires[k], angle)


def _min_wires(kind):
    if kind in MULTI_CONTROL_KINDS:
        return 4
    return _fixed_controls(kind) + 1


def _apply_whole(circuit, state):
    """sim.apply on a state over every wire, which leaves nothing outside."""
    out, outside = sim.apply(circuit, state.reshape(-1, 1))
    assert outside[0] <= 1e-12
    return out[:, 0]


def _assert_matches_reference(circuit, rng):
    n = circuit.num_qubits
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    assert np.abs(_apply_whole(circuit, state)
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
    assert len(gate.qubits) == n
    c = Circuit(n, (gate,))
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    assert np.abs(_apply_whole(c, state) - _reference_apply(c, state)).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_row_map_runs_match_reference_at_every_width(n):
    # Mostly X-type and diagonal gates, so that long runs of them go through
    # the row map between the other kinds; the last run ends on an X-type
    # gate and an RZ, so dropping either changes the unitary.
    rng = np.random.default_rng(200 + n)
    kinds = [k for k in GateKind if _min_wires(k) <= n]
    row_kinds = [k for k in kinds if k in X_FAMILY_KINDS | DIAGONAL_KINDS]
    for _ in range(3):
        gates = []
        for _ in range(40):
            pool = row_kinds if rng.random() < 0.8 else kinds
            gates.append(_random_gate(rng, pool[rng.integers(len(pool))], n))
        gates += [_random_gate(rng, GateKind.CX if n > 1 else GateKind.X, n),
                  _random_gate(rng, GateKind.RZ, n)]
        c = Circuit(n, tuple(gates))
        want = _reference_unitary(c)
        for width in range(n + 1):
            assert np.abs(sim.unitary_of(c, width) - want[:, :2 ** width]).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_x_type_circuit_is_an_exact_permutation(n):
    rng = np.random.default_rng(300 + n)
    kinds = [k for k in X_FAMILY_KINDS if _min_wires(k) <= n]
    gates = tuple(_random_gate(rng, kinds[rng.integers(len(kinds))], n) for _ in range(31))
    want = np.zeros((2 ** n, 2 ** n))
    for col in range(2 ** n):
        row = col
        for g in gates:
            if all(row >> c & 1 for c in g.controls):
                row ^= 1 << g.target
        want[row, col] = 1
    assert not np.array_equal(want, np.eye(2 ** n))
    c = Circuit(n, gates)
    for width in range(n + 1):
        assert np.array_equal(sim.unitary_of(c, width), want[:, :2 ** width])


def test_unitary_of_peak_memory_is_two_tensors():
    # numpy reports its buffers to tracemalloc.  A full 10-wire unitary holds
    # the tensor and one scratch buffer of its size; the row map's gather
    # (before the last H) must not buffer a third.
    n = 10
    gates = (tuple(h(q) for q in range(n)) + tuple(cx(q, q + 1) for q in range(n - 1))
             + (rz(3, 0.4), ccx(0, 1, 9), h(0)))
    c = Circuit(n, gates)
    tensor_bytes = 16 * 4 ** n
    tracemalloc.start()
    try:
        sim.unitary_of(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * tensor_bytes, peak


def test_apply_leaves_input_unchanged_and_accepts_real_state():
    rng = np.random.default_rng(9)
    c = Circuit(3, (h(0), cx(0, 1), rz(2, 0.4), s(1), ccx(0, 1, 2), x(2)))
    for state in (rng.normal(size=8), rng.normal(size=8) + 1j * rng.normal(size=8)):
        before = state.copy()
        out = _apply_whole(c, state)
        assert np.array_equal(state, before) and state.dtype == before.dtype
        assert np.abs(out - _reference_apply(c, state)).max() < 1e-12


def test_apply_survives_long_runs_of_h():
    # 3001 H in a row.  The dense kernel multiplies H's 1/sqrt 2 in late,
    # so 3000 of them must not overflow it.
    c = Circuit(1, (h(0),) * 3001)
    out = _apply_whole(c, np.array([1.0, 0.0]))
    assert np.abs(out - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12
    assert np.abs(sim.unitary_of(c) - sim.unitary_of(Circuit(1, (h(0),)))).max() < 1e-12


def test_apply_matches_unitary():
    c = Circuit(3, (h(0), cx(0, 1), rz(1, 0.4), ccx(0, 1, 2), x(2)))
    rng = np.random.default_rng(0)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert np.abs(_apply_whole(c, v) - sim.unitary_of(c) @ v).max() < 1e-12


def test_apply_rejects_a_block_of_the_wrong_size():
    c = Circuit(3, (h(0),))
    for shape in ((8,), (6,), (16,), (8, 2, 2), (0, 3), (8, 0)):
        with pytest.raises(ValueError, match="dimension"):
            sim.apply(c, np.ones(shape))


def _reference_block(circuit, block):
    """Per column, the dense reference output on the low wires and the norm
    it leaves on the higher ones."""
    dim, n = block.shape[0], circuit.num_qubits
    outs, left = [], []
    for column in block.T:
        full = np.zeros(2 ** n, dtype=complex)
        full[:dim] = column
        out = _reference_apply(circuit, full)
        outs.append(out[:dim])
        left.append(np.linalg.norm(out[dim:]))
    return np.array(outs).T, np.array(left)


def _random_block(rng, dim, columns):
    block = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
    return block / np.linalg.norm(block, axis=0)


def test_apply_block_on_low_wires_matches_reference_per_column():
    # Ancillas 3..5 go through H, RCCX, CY and RX; the closing X on wire 5
    # leaves population above the block in every column.
    rng = np.random.default_rng(21)
    c = Circuit(6, (h(3), rccx(0, 1, 4), Gate(GateKind.CY, (4,), 3), h(0),
                    Gate(GateKind.RX, (), 5, 0.7), cx(5, 2), rz(4, 0.3),
                    Gate(GateKind.RX, (), 5, -0.7), rccx(0, 1, 4), h(3), x(5)),
                num_ancillas=3)
    block = _random_block(rng, 8, 5)
    out, outside = sim.apply(c, block)
    want, left = _reference_block(c, block)
    assert np.abs(out - want).max() < 1e-12
    assert np.abs(outside - left).max() < 1e-12 and np.all(left > 0.5)


def test_dense_switch_matches_reference(monkeypatch):
    # H on every wire fills all 2**8 rows; with no floor the row kernel may
    # hold a quarter of that, so the block must go dense column by column.
    monkeypatch.setattr(sim, "ROW_BLOCK_FLOOR", 0)
    runs = []
    dense_run = sim._run
    monkeypatch.setattr(sim, "_run", lambda *args: runs.append(1) or dense_run(*args))
    rng = np.random.default_rng(22)
    every = tuple(h(q) for q in range(8))
    c = Circuit(8, every + (ccx(0, 5, 6), Gate(GateKind.RX, (), 7, 0.4), rz(4, 1.1),
                            cx(6, 1)) + every, num_ancillas=4)
    block = _random_block(rng, 16, 4)
    out, outside = sim.apply(c, block)
    assert len(runs) == 4
    want, left = _reference_block(c, block)
    assert np.abs(out - want).max() < 1e-12
    assert np.abs(outside - left).max() < 1e-12


def test_dropped_rows_bound_the_error():
    # RX(1e-15) on the ancilla leaves rows of amplitude about 5e-16, which
    # are dropped; CX then moves what is left and the second RX makes more.
    eps = 1e-15
    c = Circuit(3, (Gate(GateKind.RX, (), 2, eps), cx(2, 0), h(1),
                    Gate(GateKind.RX, (), 2, eps), cx(2, 1)), num_ancillas=1)
    block = _random_block(np.random.default_rng(23), 4, 3)
    out, outside = sim.apply(c, block)
    for j in range(3):
        full = np.zeros(8, dtype=complex)
        full[:4] = block[:, j]
        exact = _reference_apply(c, full)
        error = np.linalg.norm(exact - np.concatenate((out[:, j], np.zeros(4))))
        assert 0 < error <= outside[j] < 1e-14


def test_check_counts_dropped_rows_and_keeps_small_amplitudes(monkeypatch):
    # On the trial path: RX(1.8e-14) on the ancilla leaves rows of at most
    # 0.9e-14: dropped, and the deviation reports their norm.  RX(1e-6) and
    # back leaves rows of 5e-7 in between: kept, so the ancilla returns to
    # |0> exactly.
    monkeypatch.setattr(sim, "FULL_UNITARY_MAX_QUBITS", 2)
    a = Circuit(3, (h(0), cx(0, 1)))
    tiny = Circuit(3, a.gates + (Gate(GateKind.RX, (), 2, 1.8e-14),), num_ancillas=1)
    ok, dev = sim.equivalent_up_to_phase(a, tiny, trials=4)
    assert ok and 5e-15 < dev < 1e-13
    there_and_back = Circuit(3, (Gate(GateKind.RX, (), 2, 1e-6), h(1),
                                 Gate(GateKind.RX, (), 2, -1e-6), h(1)) + a.gates,
                             num_ancillas=1)
    ok, dev = sim.equivalent_up_to_phase(a, there_and_back, trials=4)
    assert ok and dev < 1e-13


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
            assert sim.spectral_norm(a @ b - b @ a) < 1e-10
        assert abs(sim.spectral_norm(a @ h0 - h0 @ a) - 1.0) < 1e-10


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
    assert sim.phase_deviation(rotated, u) < 1e-12
    v = sim.unitary_of(Circuit(2, (h(0), cx(0, 1), rz(1, 1e-3))))
    want = np.abs(sim.align_phase(v, u) - u).max()
    assert sim.phase_deviation(v, u) == want and want > 1e-4


def test_product_formula_is_the_step_unitary_to_the_power_steps():
    params = PdeParams(n=4)
    _, h1, h2, _ = sim.hamiltonian(params)
    step = sim.expm_hermitian(h1, params.tau) @ sim.expm_hermitian(h2, params.tau)
    assert np.abs(sim.product_formula(params) - step).max() < 1e-12
    assert np.abs(sim.product_formula(params, 3) - step @ step @ step).max() < 1e-12


def test_physics_targets_stop_at_the_full_unitary_cap_before_building_a_matrix():
    params = PdeParams(n=sim.FULL_UNITARY_MAX_QUBITS + 1)
    # One 11-qubit Hamiltonian term alone is 2**22 complex entries (64 MB).
    tracemalloc.start()
    try:
        with pytest.raises(sim.CapacityError, match="FULL_UNITARY_MAX_QUBITS"):
            sim.product_formula(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_evolution_error_reaches_past_eight_data_qubits():
    params = PdeParams(n=9)
    h, _, _, _ = sim.hamiltonian(params)
    exact = np.exp(0.4j) * sim.expm_hermitian(h, 2 * params.tau)
    assert sim.evolution_error(params, exact, steps=2) < 1e-10
    assert sim.evolution_error(params, sim.product_formula(params, 2), steps=2) > 1e-6


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


@pytest.mark.parametrize("gate", [rccx(0, 1, 2), x(0), cx(0, 1)], ids=lambda g: g.kind.value)
def test_gate_unitary_returns_a_fresh_array(gate):
    first = sim.gate_unitary(gate)
    want = first.copy()
    first[:] = 0
    assert np.array_equal(sim.gate_unitary(gate), want)


def test_capacity_guard():
    assert sim.CapacityError is ir.CapacityError  # the CLI catches it without sim
    big = Circuit(sim.STATEVECTOR_QUBIT_CAP // 2 + 1, ())
    with pytest.raises(sim.CapacityError):
        sim.unitary_of(big)
    # A block of columns is capped by the amplitudes it builds, not its wires.
    assert sim.unitary_of(big, 4).shape == (2 ** big.num_qubits, 16)
    with pytest.raises(sim.CapacityError):
        sim.unitary_of(Circuit(20, ()), sim.STATEVECTOR_QUBIT_CAP - 19)
    with pytest.raises(ValueError, match="width"):
        sim.unitary_of(Circuit(3, ()), 4)


def test_equivalence_needs_a_trial():
    a = Circuit(2, (h(0), cx(0, 1)))
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            sim.equivalent_up_to_phase(a, a, trials=trials)


def test_trotter_error_second_order_in_tau():
    errs = []
    for tau in (0.2, 0.1):
        p = PdeParams(n=5, tau=tau)
        errs.append(sim.evolution_error(
            p, sim.data_block(build_one_step(p, WingStyle.SPRAY), p.n)[0]))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


# ---------------------------------------------------------------------------
# equivalent_up_to_phase against its per-trial dense loop

def _reference_equivalent(a, b, trials=sim.DEFAULT_TRIALS, seed=0):
    """The check from the reference kernel alone: up to
    FULL_UNITARY_MAX_QUBITS wires the data blocks of the dense unitaries,
    else the trial states through a dense statevector of every wire."""
    width = min(a.num_data_qubits, b.num_data_qubits)
    dim = 2 ** width
    if max(a.num_qubits, b.num_qubits) <= sim.FULL_UNITARY_MAX_QUBITS:
        ua, ub = (_reference_unitary(c)[:, :dim] for c in (a, b))
        leak = max(float(np.sum(np.abs(u[dim:]) ** 2)) for u in (ua, ub))
        if leak > sim.ANCILLA_LEAK_TOL:
            return False, leak
        tr = np.vdot(ua[:dim], ub[:dim])  # aligned by the trace's phase
        dev = float(np.max(np.abs(tr / max(abs(tr), 1e-300) * ua[:dim] - ub[:dim])))
        return dev <= 1e-9, dev
    rng = np.random.default_rng(seed)
    psis = np.array([rng.normal(size=dim) + 1j * rng.normal(size=dim)
                     for _ in range(trials)]).T
    psis /= np.linalg.norm(psis, axis=0)
    worst, ok, outs = 0.0, True, []
    for circ in (a, b):
        out, left = _reference_block(circ, psis)
        outs.append(out)
        if np.any(left ** 2 > sim.ANCILLA_LEAK_TOL):
            ok = False
            worst = max(worst, float(np.max(left ** 2)))
    fidelity = np.abs(np.sum(outs[0].conj() * outs[1], axis=0))
    worst = max(worst, float(np.max(1.0 - fidelity)))
    return ok and bool(np.all(fidelity >= 1.0 - sim.PHASE_TOL)), worst


HIGS_KINDS = (GateKind.X, GateKind.H, GateKind.S, GateKind.T, GateKind.RZ, GateKind.RX,
              GateKind.CX, GateKind.CZ, GateKind.CRZ, GateKind.CCX, GateKind.CCRZ,
              GateKind.MCRZ)


def _random_higs(rng, n):
    """A HiGS circuit on n wires with at least one MCRZ on n-1 controls, so
    that lowering it needs n-3 ancillas; half mirror a prefix so that the
    MiGS level meets conjugate Toffoli pairs."""
    gates = [_random_gate(rng, HIGS_KINDS[rng.integers(len(HIGS_KINDS))], n)
             for _ in range(int(rng.integers(4, 12)))]
    wires = [int(q) for q in rng.permutation(n)]
    gates.insert(int(rng.integers(len(gates) + 1)),
                 mcrz(tuple(wires[1:]), wires[0], float(rng.uniform(-np.pi, np.pi))))
    if rng.random() < 0.5:
        prefix = gates[:int(rng.integers(1, len(gates) + 1))]
        gates = prefix + [g.inverse() for g in reversed(prefix)] + gates
    return Circuit(n, tuple(gates))


def _mutants(rng, circ):
    """One data-wire CX and one ancilla-wire CX deleted, and an X appended on
    an ancilla: the last two leave the ancillas dirty."""
    data = circ.num_data_qubits
    out = []
    for on_ancilla in (False, True):
        sites = [i for i, g in enumerate(circ.gates)
                 if g.kind is GateKind.CX and (max(g.qubits) >= data) == on_ancilla]
        if sites:
            site = sites[int(rng.integers(len(sites)))]
            out.append(circ.with_gates(circ.gates[:site] + circ.gates[site + 1:]))
    out.append(circ.with_gates(circ.gates + (x(int(rng.integers(data, circ.num_qubits))),)))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_batched_check_matches_per_trial_reference(seed, monkeypatch):
    # 5 and 7 data wires: 7 wires checked by data blocks, which apply no
    # trial state, and 11 by trial states.
    from mlco.passes import MLCO_PASSES, run_passes
    calls = []
    apply = sim.apply
    monkeypatch.setattr(sim, "apply", lambda *args: calls.append(1) or apply(*args))
    rng = np.random.default_rng(300 + seed)
    source = _random_higs(rng, 5 if seed % 2 else 7)
    _, stages = run_passes(source, MLCO_PASSES)
    laddered = [s.circuit for s in stages if s.circuit.num_ancillas]
    assert any(g.kind is GateKind.RCCX for c in laddered for g in c.gates)
    logs = laddered[-1]
    assert any(g.kind is GateKind.H and g.target >= logs.num_data_qubits for g in logs.gates)
    verdicts = []
    for b in laddered + _mutants(rng, logs):
        calls.clear()
        ok, dev = sim.equivalent_up_to_phase(source, b, trials=8, seed=seed)
        full = b.num_qubits <= sim.FULL_UNITARY_MAX_QUBITS
        assert len(calls) == (0 if full else 2)
        want_ok, want_dev = _reference_equivalent(source, b, trials=8, seed=seed)
        assert ok == want_ok and abs(dev - want_dev) <= 1e-12, (ok, dev, want_ok, want_dev)
        verdicts.append(ok)
    assert verdicts[:len(laddered)] == [True] * len(laddered)
    assert verdicts[-1] is False


@pytest.mark.parametrize("seed", range(3))
def test_unitary_of_low_columns_match_full_unitary(seed):
    # The MLCO stages of a 5-data-wire source carry RCCX and H on their 2
    # ancillas, the mutants leave the ancillas dirty, and the last circuit
    # puts random gates of every kind anywhere.
    from mlco.passes import MLCO_PASSES, run_passes
    rng = np.random.default_rng(500 + seed)
    _, stages = run_passes(_random_higs(rng, 5), MLCO_PASSES)
    laddered = [s.circuit for s in stages if s.circuit.num_ancillas]
    logs = laddered[-1]
    assert any(g.kind is GateKind.RCCX for c in laddered for g in c.gates)
    assert any(g.kind is GateKind.H and g.target >= logs.num_data_qubits for g in logs.gates)
    n = logs.num_qubits
    kinds = [k for k in GateKind if _min_wires(k) <= n]
    mixed = Circuit(n, tuple(_random_gate(rng, kinds[rng.integers(len(kinds))], n)
                             for _ in range(30)), num_ancillas=logs.num_ancillas)
    leaks = []
    for c in laddered + _mutants(rng, logs) + [mixed]:
        full = sim.unitary_of(c)
        for width in range(n + 1):
            assert np.abs(sim.unitary_of(c, width) - full[:, :2 ** width]).max() < 1e-12
        dim = 2 ** c.num_data_qubits
        block, leak = sim.data_block(c, c.num_data_qubits)
        assert np.abs(block - full[:dim, :dim]).max() < 1e-12
        assert leak == pytest.approx(np.sum(np.abs(full[dim:, :dim]) ** 2),
                                     rel=1e-12, abs=1e-12)
        leaks.append(leak)
    assert max(leaks[:len(laddered)]) < sim.ANCILLA_LEAK_TOL and leaks[-2] > 0.1


def test_filled_thirteen_wire_block_stays_in_row_kernel(monkeypatch):
    # The stair n=8 k=4 output has 13 wires, and its DEFAULT_TRIALS trial
    # states fill all 2**13 rows: the whole check must run in the row kernel.
    from mlco.build import build_steps
    from mlco.passes import pipeline_mlco
    params = PdeParams(n=8)
    source = build_steps(params, 4, WingStyle.STAIR)
    out, _ = pipeline_mlco(params, 4, WingStyle.STAIR)
    assert out.num_qubits == 13

    def dense(*args):
        raise AssertionError("the check went dense")

    monkeypatch.setattr(sim, "_run", dense)
    ok, dev = sim.equivalent_up_to_phase(source, out)
    want_ok, want_dev = _reference_equivalent(source, out)
    assert ok and want_ok and abs(dev - want_dev) <= 1e-13, (dev, want_dev)
