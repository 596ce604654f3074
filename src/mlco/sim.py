"""Ground-truth dense simulation: gate unitaries, statevectors, Hamiltonians.

Everything the passes claim is checked against this module.  Capacity is
deliberately desk-scale: full unitaries up to 12 qubits, statevectors up
to 24.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ir import Circuit, Gate, GateKind, rccx_decomposition

UNITARY_QUBIT_CAP = 12
STATEVECTOR_QUBIT_CAP = 24

DEFAULT_TRIALS = 20
PHASE_TOL = 1e-10
ANCILLA_LEAK_TOL = 1e-20


class CapacityError(RuntimeError):
    """Dense simulation request beyond the documented qubit caps."""


class NonHermitianError(ValueError):
    """expm_hermitian called on a non-Hermitian matrix."""


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * math.pi / 4)])

_SIGMA01 = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_SIGMA10 = _SIGMA01.T.conj()                           # |1><0|


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


_BASE_1Q = {
    GateKind.X: lambda a: _X, GateKind.H: lambda a: _H,
    GateKind.Z: lambda a: _Z, GateKind.S: lambda a: _S,
    GateKind.SDG: lambda a: _S.conj(), GateKind.T: lambda a: _T,
    GateKind.TDG: lambda a: _T.conj(),
    GateKind.RZ: lambda a: _rz(a), GateKind.RX: lambda a: _rx(a),
}

# Target unitary of each controlled kind (applied iff all controls are |1>).
_CONTROLLED_TARGET = {
    GateKind.CX: lambda a: _X, GateKind.CCX: lambda a: _X,
    GateKind.MCX: lambda a: _X,
    GateKind.CZ: lambda a: _Z, GateKind.CY: lambda a: _Y,
    GateKind.CS: lambda a: _S, GateKind.CSDG: lambda a: _S.conj(),
    GateKind.CRZ: lambda a: _rz(a), GateKind.CCRZ: lambda a: _rz(a),
    GateKind.MCRZ: lambda a: _rz(a),
}


@functools.lru_cache(maxsize=1)
def _rccx_unitary() -> np.ndarray:
    # Defined by the 3-CX decomposition; wires (c1, c2, t) = qubits (2, 1, 0).
    return unitary_of(Circuit(3, rccx_decomposition(2, 1, 0)))


def unitary_of_kind(kind: GateKind, angle: float | None = None,
                    num_controls: int | None = None) -> np.ndarray:
    """Exact unitary on the gate's support.

    Basis order puts the first control in the most significant bit and the
    target in the least significant one.
    """
    if kind is GateKind.BARRIER:
        raise ValueError("barrier has no unitary")
    if kind in _BASE_1Q:
        return _BASE_1Q[kind](angle)
    if kind is GateKind.RCCX:
        return _rccx_unitary()
    if num_controls is None:
        fixed = {GateKind.CX: 1, GateKind.CZ: 1, GateKind.CY: 1, GateKind.CS: 1,
                 GateKind.CSDG: 1, GateKind.CRZ: 1, GateKind.CCX: 2,
                 GateKind.CCRZ: 2}
        num_controls = fixed.get(kind)
        if num_controls is None:
            raise ValueError(f"{kind.value} needs an explicit control count")
    dim = 2 ** (num_controls + 1)
    mat = np.eye(dim, dtype=complex)
    mat[dim - 2:, dim - 2:] = _CONTROLLED_TARGET[kind](angle)
    return mat


def gate_unitary(gate: Gate) -> np.ndarray:
    return unitary_of_kind(gate.kind, gate.angle, len(gate.controls))


def _apply_gate(tensor: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply `gate` to a state tensor shaped (2,)*n (+ optional batch axes)."""
    if gate.kind is GateKind.BARRIER:
        return tensor
    support = gate.qubits  # controls first, then target: matches gate_unitary
    axes = [n - 1 - q for q in support]
    k = len(support)
    moved = np.moveaxis(tensor, axes, range(k))
    shape = moved.shape
    flat = moved.reshape(2 ** k, -1)
    flat = gate_unitary(gate) @ flat
    return np.moveaxis(flat.reshape(shape), range(k), axes)


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit to a statevector of dimension 2**num_qubits."""
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(f"{n} qubits exceeds statevector cap {STATEVECTOR_QUBIT_CAP}")
    if state.shape != (2 ** n,):
        raise ValueError("statevector dimension mismatch")
    tensor = state.reshape((2,) * n).astype(complex)
    for g in circuit.gates:
        tensor = _apply_gate(tensor, g, n)
    return tensor.reshape(-1)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full circuit unitary (columns = images of basis states)."""
    n = circuit.num_qubits
    if n > UNITARY_QUBIT_CAP:
        raise CapacityError(f"{n} qubits exceeds unitary cap {UNITARY_QUBIT_CAP}")
    dim = 2 ** n
    tensor = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circuit.gates:
        tensor = _apply_gate(tensor, g, n)
    return tensor.reshape(dim, dim)


# ---------------------------------------------------------------------------
# Wave-equation Hamiltonian pieces

def shift_minus(m: int) -> np.ndarray:
    """S- = sum_j |j-1><j| on m qubits."""
    dim = 2 ** m
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(1, dim):
        mat[j - 1, j] = 1.0
    return mat


def shift_plus(m: int) -> np.ndarray:
    return shift_minus(m).T.conj()


def shift_minus_ladder(m: int) -> np.ndarray:
    """Ladder-operator tensor expansion of S-; must equal shift_minus."""
    dim = 2 ** m
    total = np.zeros((dim, dim), dtype=complex)
    for j in range(1, m + 1):
        term = np.eye(2 ** (m - j), dtype=complex)
        term = np.kron(term, _SIGMA01)
        for _ in range(j - 1):
            term = np.kron(term, _SIGMA10)
        total += term
    return total


def _h_term(m: int, j: int) -> np.ndarray:
    """h_j on m+1 qubits (top qubit = most significant)."""
    if j == 0:
        return np.kron(-(_SIGMA01 + _SIGMA10), np.eye(2 ** m, dtype=complex))
    part = np.eye(2 ** (m - j), dtype=complex)
    part = np.kron(part, _SIGMA01)
    for _ in range(j - 1):
        part = np.kron(part, _SIGMA10)
    term = np.kron(_SIGMA01, part)
    return term + term.T.conj()


def hamiltonian(params) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """(H, H1, H2, [h_1..h_{n-1}]) for an n-qubit source circuit.

    `params` needs attributes n (total qubits), c, l.  H1 is the single
    non-commuting term; H2 is the mutually-commuting rest; H = H1 + H2.
    """
    n, c, l = params.n, params.c, params.l
    if n < 3:
        raise ValueError("n must be >= 3")
    m = n - 1
    scale = c / l
    h_terms = [_h_term(m, j) for j in range(1, m + 1)]
    h1 = scale * _h_term(m, 0)
    h2 = scale * sum(h_terms)
    return h1 + h2, h1, h2, h_terms


def hamiltonian_direct(params) -> np.ndarray:
    """Independent construction H = c (s01 (x) D+  -  s10 (x) D-)."""
    n, c, l = params.n, params.c, params.l
    m = n - 1
    eye = np.eye(2 ** m, dtype=complex)
    d_plus = (shift_minus(m) - eye) / l
    d_minus = (eye - shift_plus(m)) / l
    return c * (np.kron(_SIGMA01, d_plus) - np.kron(_SIGMA10, d_minus))


def expm_hermitian(a: np.ndarray, t_: float) -> np.ndarray:
    """exp(-i a t) via eigendecomposition; `a` must be Hermitian."""
    if not np.allclose(a, a.T.conj(), atol=1e-12):
        raise NonHermitianError("matrix is not Hermitian")
    w, v = np.linalg.eigh(a)
    return (v * np.exp(-1j * w * t_)) @ v.T.conj()


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return spectral_norm(a @ b - b @ a)


# ---------------------------------------------------------------------------
# Equivalence checking

def align_phase(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale u by a global phase so its largest-|.|-entry matches reference."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    ru, rr = u[idx], reference[idx]
    if abs(ru) < 1e-14:
        return u
    return u * (rr / abs(rr)) * (abs(ru) / ru)


def _block_and_leak(circuit: Circuit, width: int) -> tuple[np.ndarray, float]:
    """Unitary restricted to the ancilla-zero subspace of the first `width` qubits,
    and the largest population it leaves on a nonzero ancilla output."""
    u = unitary_of(circuit)
    dim = 2 ** width
    leak = np.abs(u[dim:, :dim]) ** 2
    return u[:dim, :dim], float(leak.max()) if leak.size else 0.0


def _data_block(circuit: Circuit, width: int) -> np.ndarray:
    """Unitary restricted to the ancilla-zero subspace of the first `width` qubits.

    Verifies that ancilla-zero inputs produce no population on nonzero
    ancilla outputs.
    """
    block, leak = _block_and_leak(circuit, width)
    if leak > math.sqrt(ANCILLA_LEAK_TOL):
        raise AssertionError("ancilla contract violated: population left outside |0..0>")
    return block


def equivalent_up_to_phase(a: Circuit, b: Circuit, ancillas_zero: bool = True,
                           trials: int = DEFAULT_TRIALS, seed: int = 0,
                           ) -> tuple[bool, float]:
    """Random-state (and, when small, full-unitary) equivalence up to global phase.

    Circuits may differ in width; the common data register is the smaller
    of the two data widths and every higher wire must start and end in |0>.
    With `ancillas_zero`, a circuit that leaves population outside that
    subspace fails the check, with a reported deviation no smaller than the leak.
    """
    width = min(a.num_data_qubits, b.num_data_qubits)
    if max(a.num_qubits, b.num_qubits) > STATEVECTOR_QUBIT_CAP:
        raise CapacityError("width exceeds statevector cap")
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(trials):
        psi = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
        psi /= np.linalg.norm(psi)
        outs = []
        for circ in (a, b):
            full = np.zeros(2 ** circ.num_qubits, dtype=complex)
            full[:2 ** width] = psi
            out = apply(circ, full)
            leak = float(np.sum(np.abs(out[2 ** width:]) ** 2))
            if ancillas_zero and leak > ANCILLA_LEAK_TOL:
                ok = False
                worst = max(worst, leak)
            outs.append(out[:2 ** width])
        fidelity = abs(np.vdot(outs[0], outs[1]))
        worst = max(worst, 1.0 - fidelity)
        if fidelity < 1.0 - PHASE_TOL:
            ok = False
    if max(a.num_qubits, b.num_qubits) <= 10:
        (ua, leak_a), (ub, leak_b) = _block_and_leak(a, width), _block_and_leak(b, width)
        leak = max(leak_a, leak_b)
        if ancillas_zero and leak > math.sqrt(ANCILLA_LEAK_TOL):
            return False, float(max(worst, leak))
        dev = float(np.max(np.abs(align_phase(ua, ub) - ub)))
        worst = max(worst, dev)
        if dev > 1e-9:
            ok = False
    return ok, worst


def trotter_error(params, step_circuit: Circuit, steps: int = 1) -> float:
    """Spectral-norm distance between the step circuit and exp(-i H steps tau)."""
    return evolution_error(params, _data_block(step_circuit, params.n), steps)


def evolution_error(params, u: np.ndarray, steps: int = 1) -> float:
    """Spectral-norm distance between a data-register unitary and exp(-i H steps tau)."""
    if params.n > 8:
        raise CapacityError("trotter_error capped at 8 data qubits")
    h, _, _, _ = hamiltonian(params)
    exact = expm_hermitian(h, steps * params.tau)
    # Align by the trace phase, which minimizes the norm over global phases.
    tr = np.trace(exact.conj().T @ u)
    if abs(tr) > 1e-14:
        u = u * (abs(tr) / tr)
    return spectral_norm(u - exact)
