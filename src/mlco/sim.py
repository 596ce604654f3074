"""Ground-truth dense simulation: gate unitaries, statevectors, Hamiltonians.

Everything the passes claim is checked against this module.  Capacity is
deliberately desk-scale: full unitaries up to 12 qubits, statevectors up
to 24.

`gate_unitary` (through `unitary_of_kind`) builds each gate's dense matrix
and is the independent oracle.  `apply` and `unitary_of` do not multiply
by it: they run in-place slice kernels (Häner & Steiger, SC 2017) on the
state viewed as a (2,)*n tensor, with `unitary_of`'s columns as a trailing
batch axis.  Every gate but BARRIER and RCCX is a 2x2 on the target applied
where every control is |1>, i.e. to two views of the tensor (target 0 and
target 1, controls fixed to 1).  Diagonal kinds scale those views, X-type
kinds swap them, H becomes sum and difference, and RZ scales only the
target-1 view; the scalars left out (H's 1/sqrt 2, RZ's e^{-i theta/2})
are multiplied in at the end.  RCCX runs as `rccx_decomposition`, which
defines its unitary.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .ir import Circuit, Gate, GateKind, rccx_decomposition

UNITARY_QUBIT_CAP = 12
STATEVECTOR_QUBIT_CAP = 24

FULL_UNITARY_MAX_QUBITS = 10  # equivalent_up_to_phase adds the full-unitary check

DEFAULT_TRIALS = 20
PHASE_TOL = 1e-10
ANCILLA_LEAK_TOL = 1e-20


class CapacityError(RuntimeError):
    """Dense simulation request beyond the documented qubit caps."""


class AncillaLeakError(ValueError):
    """A circuit left population outside the ancilla-zero subspace."""


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


def _target_matrix(gate: Gate) -> np.ndarray:
    """The 2x2 a gate applies to its target when every control is |1>."""
    table = _BASE_1Q if gate.kind in _BASE_1Q else _CONTROLLED_TARGET
    return table[gate.kind](gate.angle)


_SWAP_KINDS = frozenset({GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX})
_SQRT_HALF = math.sqrt(0.5)
# _run folds the pending factor in before it can underflow (H shrinks it by
# 1/sqrt 2 and grows the tensor by sqrt 2 each time).
_FACTOR_FLOOR = 2.0 ** -200


def _apply_gate(tensor: np.ndarray, gate: Gate, n: int,
                scratch: tuple[np.ndarray, np.ndarray]) -> complex:
    """Apply `gate` in place to a tensor shaped (2,)*n (+ trailing batch axes).

    Returns the scalar the kernel leaves out (RZ's e^{-i theta/2}, H's
    1/sqrt 2) for the caller to multiply in.  `scratch` holds two flat
    buffers of half the tensor's size; nothing is allocated here.
    """
    kind = gate.kind
    if kind is GateKind.BARRIER:
        return 1.0
    if kind is GateKind.RCCX:
        factor = 1.0
        for g in rccx_decomposition(*gate.qubits):
            factor *= _apply_gate(tensor, g, n, scratch)
        return factor
    # a, b: the target = 0 and target = 1 halves with every control at 1.
    # The trailing ... keeps them views even when every axis is fixed.
    idx = [slice(None)] * n
    for c in gate.controls:
        idx[n - 1 - c] = 1
    t = n - 1 - gate.target
    idx[t] = 0
    a = tensor[(*idx, ...)]
    idx[t] = 1
    b = tensor[(*idx, ...)]
    if kind is GateKind.RZ:
        b *= cmath.exp(1j * gate.angle)
        return cmath.exp(-0.5j * gate.angle)
    tmp = scratch[0][:a.size].reshape(a.shape)
    if kind is GateKind.H:
        np.add(a, b, out=tmp)
        np.subtract(a, b, out=b)
        np.copyto(a, tmp)
        return _SQRT_HALF
    if kind in _SWAP_KINDS:
        np.copyto(tmp, a)
        np.copyto(a, b)
        np.copyto(b, tmp)
        return 1.0
    u = _target_matrix(gate)
    if u[0, 1] == 0 and u[1, 0] == 0:
        if u[0, 0] != 1:
            a *= u[0, 0]
        if u[1, 1] != 1:
            b *= u[1, 1]
        return 1.0
    tmp2 = scratch[1][:a.size].reshape(a.shape)
    np.multiply(a, u[0, 0], out=tmp)
    np.multiply(b, u[0, 1], out=tmp2)
    tmp += tmp2
    np.multiply(a, u[1, 0], out=tmp2)
    b *= u[1, 1]
    b += tmp2
    np.copyto(a, tmp)
    return 1.0


def _run(tensor: np.ndarray, circuit: Circuit) -> None:
    """Apply every gate of `circuit` in place to `tensor`."""
    half = tensor.size // 2
    scratch = (np.empty(half, dtype=complex), np.empty(half, dtype=complex))
    factor = 1.0
    for g in circuit.gates:
        factor *= _apply_gate(tensor, g, circuit.num_qubits, scratch)
        if abs(factor) < _FACTOR_FLOOR:
            tensor *= factor
            factor = 1.0
    if factor != 1.0:
        tensor *= factor


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit to a statevector of dimension 2**num_qubits.

    The caller's array is left unchanged; real input is accepted.
    """
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(f"{n} qubits exceeds statevector cap {STATEVECTOR_QUBIT_CAP}")
    if state.shape != (2 ** n,):
        raise ValueError("statevector dimension mismatch")
    tensor = state.astype(complex).reshape((2,) * n)
    _run(tensor, circuit)
    return tensor.reshape(-1)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full circuit unitary (columns = images of basis states)."""
    n = circuit.num_qubits
    if n > UNITARY_QUBIT_CAP:
        raise CapacityError(f"{n} qubits exceeds unitary cap {UNITARY_QUBIT_CAP}")
    dim = 2 ** n
    tensor = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    _run(tensor, circuit)
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


def data_block(circuit: Circuit, width: int) -> tuple[np.ndarray, float]:
    """Unitary restricted to the ancilla-zero subspace of the first `width` qubits,
    and the largest population it leaves on a nonzero ancilla output."""
    u = unitary_of(circuit)
    dim = 2 ** width
    leak = np.abs(u[dim:, :dim]) ** 2
    return u[:dim, :dim], float(leak.max()) if leak.size else 0.0


def equivalent_up_to_phase(a: Circuit, b: Circuit, ancillas_zero: bool = True,
                           trials: int = DEFAULT_TRIALS, seed: int = 0,
                           ) -> tuple[bool, float]:
    """Random-state (and, when small, full-unitary) equivalence up to global phase.

    Circuits may differ in width; the common data register is the smaller
    of the two data widths and every higher wire must start and end in |0>.
    With `ancillas_zero`, a circuit that leaves population outside that
    subspace fails the check, with a reported deviation no smaller than the leak.
    Circuits of at most FULL_UNITARY_MAX_QUBITS wires also get the full-unitary
    check.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    if max(a.num_qubits, b.num_qubits) <= FULL_UNITARY_MAX_QUBITS:
        (ua, leak_a), (ub, leak_b) = data_block(a, width), data_block(b, width)
        leak = max(leak_a, leak_b)
        if ancillas_zero and leak > math.sqrt(ANCILLA_LEAK_TOL):
            return False, float(max(worst, leak))
        dev = float(np.max(np.abs(align_phase(ua, ub) - ub)))
        worst = max(worst, dev)
        if dev > 1e-9:
            ok = False
    return ok, worst


def trotter_error(params, step_circuit: Circuit, steps: int = 1) -> float:
    """Spectral-norm distance between the step circuit and exp(-i H steps tau).

    Raises AncillaLeakError when the circuit leaves population outside the
    ancilla-zero subspace.
    """
    u, leak = data_block(step_circuit, params.n)
    if leak > math.sqrt(ANCILLA_LEAK_TOL):
        raise AncillaLeakError(
            f"ancilla contract violated: population {leak:.3e} left outside |0..0>")
    return evolution_error(params, u, steps)


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
