"""Ground-truth dense simulation: gate unitaries, statevectors, Hamiltonians.

Everything the passes claim is checked against this module.  Capacity is
deliberately desk-scale, by one rule: no dense array holds more than
2**STATEVECTOR_QUBIT_CAP = 2**24 amplitudes, so a full unitary reaches 12
qubits and a statevector 24.  The physics targets, which build and
diagonalize dense Hamiltonians, stop at FULL_UNITARY_MAX_QUBITS = 10 data
qubits (`hamiltonian`).

This is the only mlco module that imports numpy.  The others import this
module where they consult the oracle: verification, and the certification
of the rewrite rules when the first rewrite pass asks for them.  Building,
counting, exporting and the DETO pipeline never load numpy.

`gate_unitary` builds each gate's dense matrix from the `_TARGET` table
and is the independent oracle.  No simulator multiplies by it.

Both simulators know three actions: flip (X, CX, CCX), phase (every
`DIAGONAL_KINDS` gate) and H.  `_primitive_gates` first lowers every other
kind to those, by one table:

    RCCX(c1, c2, t)  ->  CCX(c1, c2, t), CZ(c1, t), CSdg(c1, c2)
    RX(theta) on t   ->  H(t), RZ(theta) on t, H(t)
    CY(c, t)         ->  Sdg(t), CX(c, t), S(t)

`apply` runs a block of states over the basis rows they occupy (`_Rows`):
an array of basis indices and one row of amplitudes per index, one column
per state.  A flip only moves index bits, so RCCX never adds a row, and a
phase only scales a pending phase per row, which the rows take in one
multiply before the next H, before a dense switch and at the end.  H pairs
each row with its partner on the target bit, found through a position table
over the 2**n basis indices (int32, 4 * 2**n bytes, freed with the rows
before a dense switch), adding a missing partner at zero and dropping a row
left at most `DROP_TOL` in every column; column 0 is tested first, so the
whole row is read only where that column is small.  The dropped norm is
reported, never lost.  Wires above the block start in |0>, so a circuit
whose ancillas return to |0> occupies few rows beyond the block's own.

`unitary_of`, and `apply` once its rows would outgrow its amplitude budget
(the dense switch), run in-place slice kernels (Häner & Steiger, SC 2017)
on the state viewed as a (2,)*n tensor, with `unitary_of`'s columns as a
trailing batch axis.  Each gate acts where every control is |1>, i.e. on
two views of the tensor (target 0 and target 1, controls fixed to 1): a
flip swaps them, a phase scales them (RZ only the target-1 view) and H
becomes sum and difference; the scalars left out (H's 1/sqrt 2, RZ's
e^{-i theta/2}) are multiplied in at the end.  Under `unitary_of`'s batch
axis, flips and phases leave the tensor alone: they act, by the same views,
on a row map over the 2**n basis indices (row y of the result is phase[y]
times row src[y]), which the tensor takes in one gather and one multiply
before the next H and at the end (Häner & Steiger's diagonal and
permutation kernels).  The dense switch holds one column, where applying a
gate costs no more than updating the map, so it applies every gate
directly.  Either needs one scratch buffer of the tensor's size.

`equivalent_up_to_phase` runs one check per width: up to
FULL_UNITARY_MAX_QUBITS wires it compares the two `data_block`s, beyond
that it runs random trial states through `apply`.  An ancilla leak is the
population left outside the ancilla-zero subspace (summed over a data
block's columns), held to ANCILLA_LEAK_TOL everywhere.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .ir import (
    DIAGONAL_KINDS, X_FAMILY_KINDS, CapacityError, Circuit, Gate, GateKind, ccx, csdg, cx, cz, h,
    rccx_decomposition, rz, s, sdg,
)

STATEVECTOR_QUBIT_CAP = 24

FULL_UNITARY_MAX_QUBITS = 10  # see full_unitary_check and hamiltonian

DEFAULT_TRIALS = 20
PHASE_TOL = 1e-10
ANCILLA_LEAK_TOL = 1e-20

DROP_TOL = 1e-14  # apply drops a row whose amplitude is at most this in every column
# apply's row kernel holds at most max(2**n // 4, ROW_BLOCK_FLOOR) amplitudes
# on n wires; a block that would outgrow that goes dense one column at a time.
# The floor keeps DEFAULT_TRIALS states that fill all 2**13 rows in the kernel.
ROW_BLOCK_FLOOR = 1 << 18
MIX_CHUNK_AMPLITUDES = 1 << 12  # the row kernel applies H to this many amplitudes at a time


class NonHermitianError(ValueError):
    """expm_hermitian called on a non-Hermitian matrix."""


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


# The 2x2 each kind applies to its target when every control is |1>.
_TARGET = {
    GateKind.X: lambda a: _X, GateKind.CX: lambda a: _X, GateKind.CCX: lambda a: _X,
    GateKind.H: lambda a: _H, GateKind.CY: lambda a: _Y,
    GateKind.Z: lambda a: _Z, GateKind.CZ: lambda a: _Z,
    GateKind.S: lambda a: _S, GateKind.CS: lambda a: _S,
    GateKind.SDG: lambda a: _S.conj(), GateKind.CSDG: lambda a: _S.conj(),
    GateKind.T: lambda a: _T, GateKind.TDG: lambda a: _T.conj(),
    GateKind.RZ: _rz, GateKind.CRZ: _rz, GateKind.CCRZ: _rz, GateKind.MCRZ: _rz,
    GateKind.RX: _rx,
}


def gate_unitary(gate: Gate) -> np.ndarray:
    """Exact unitary on the gate's support.

    Basis order puts the first control in the most significant bit and the
    target in the least significant one.
    """
    if gate.kind is GateKind.RCCX:
        # Defined by the 3-CX decomposition; wires (c1, c2, t) = qubits (2, 1, 0).
        return unitary_of(Circuit(3, rccx_decomposition(2, 1, 0)))
    dim = 2 ** len(gate.qubits)
    mat = np.eye(dim, dtype=complex)
    mat[dim - 2:, dim - 2:] = _target_matrix(gate)
    return mat


def _target_matrix(gate: Gate) -> np.ndarray:
    """The 2x2 a gate applies to its target when every control is |1>."""
    return _TARGET[gate.kind](gate.angle)


_SQRT_HALF = math.sqrt(0.5)
# _run folds the pending factor in before it can underflow (H shrinks it by
# 1/sqrt 2 and grows the tensor by sqrt 2 each time).
_FACTOR_FLOOR = 2.0 ** -200


def _halves(tensor: np.ndarray, gate: Gate, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the target = 0 and target = 1 halves of a tensor shaped
    (2,)*n (+ trailing batch axes), with every control of `gate` at 1."""
    # The trailing ... keeps them views even when every axis is fixed.
    idx = [slice(None)] * n
    for c in gate.controls:
        idx[n - 1 - c] = 1
    t = n - 1 - gate.target
    idx[t] = 0
    a = tensor[(*idx, ...)]
    idx[t] = 1
    return a, tensor[(*idx, ...)]


def _apply_gate(tensor: np.ndarray, gate: Gate, n: int, scratch: np.ndarray) -> complex:
    """Apply `gate`, which is X-type, diagonal or H, in place to a tensor
    shaped (2,)*n (+ trailing batch axes).

    Returns the scalar the kernel leaves out (RZ's e^{-i theta/2}, H's
    1/sqrt 2) for the caller to multiply in.  `scratch` is a flat buffer of
    at least half the tensor's size; nothing is allocated here.
    """
    kind = gate.kind
    a, b = _halves(tensor, gate, n)
    if kind is GateKind.RZ:
        b *= cmath.exp(1j * gate.angle)
        return cmath.exp(-0.5j * gate.angle)
    tmp = scratch[:a.size].reshape(a.shape)
    if kind is GateKind.H:
        np.add(a, b, out=tmp)
        np.subtract(a, b, out=b)
        np.copyto(a, tmp)
        return _SQRT_HALF
    if kind in X_FAMILY_KINDS:
        # a and b interleave in memory: np.copyto(a, b) would first copy all
        # of b, where a ufunc streams it through a small buffer.
        np.copyto(tmp, a)
        np.positive(b, out=a)
        np.copyto(b, tmp)
        return 1.0
    u = _target_matrix(gate)
    if u[0, 0] != 1:
        a *= u[0, 0]
    if u[1, 1] != 1:
        b *= u[1, 1]
    return 1.0


def _take_rows(tensor: np.ndarray, src: np.ndarray, phase: np.ndarray,
               scratch: np.ndarray) -> None:
    """Make row y of `tensor` (its first n axes flattened) phase[y] times
    its row src[y], by one gather into `scratch` and one multiply back."""
    rows = tensor.reshape(src.size, -1)
    moved = scratch[:rows.size].reshape(rows.shape)
    # mode="clip" (the rows are in range) writes to `moved` unbuffered.
    np.take(rows, src.reshape(-1), axis=0, out=moved, mode="clip")
    np.multiply(moved, phase.reshape(-1, 1), out=rows)


def _run(tensor: np.ndarray, gates, n: int, scratch: np.ndarray) -> None:
    """Apply `gates`, each X-type, diagonal or H, in place to `tensor`, shaped
    (2,)*n (+ trailing batch axes), with `scratch` a flat buffer of its size.

    With a batch axis, X-type and diagonal gates leave the tensor alone and
    act on a pending row map instead, the row y of the result being phase[y]
    times the tensor's row src[y]; the tensor takes the map in one step
    before the next H, and at the end.
    """
    factor = 1.0
    batched = tensor.ndim > n
    src = phase = None
    for g in gates:
        if batched and g.kind is not GateKind.H:
            if src is None:
                src = np.arange(2 ** n).reshape((2,) * n)
                phase = np.ones((2,) * n, dtype=complex)
            # The map is a state of its own: a gate moves its entries as it
            # would a statevector's.
            if g.kind in X_FAMILY_KINDS:
                a, b = _halves(src, g, n)
                held = a.copy()
                a[...] = b
                b[...] = held
            factor *= _apply_gate(phase, g, n, scratch)
            continue
        if src is not None:
            _take_rows(tensor, src, phase, scratch)
            src = None
        factor *= _apply_gate(tensor, g, n, scratch)
        if abs(factor) < _FACTOR_FLOOR:
            tensor *= factor
            factor = 1.0
    if src is not None:
        _take_rows(tensor, src, phase, scratch)
    if factor != 1.0:
        tensor *= factor


# `_primitive_gates`' table; RCCX's phases are diag(1, 1, 1, 1, 1, -1, -i, i)
# on (c1, c2, t) after its CCX (Maslov, PRA 93, 022311, 2016).
_LOWERING = {
    GateKind.RCCX: lambda g: (ccx(*g.qubits), cz(g.controls[0], g.target), csdg(*g.controls)),
    GateKind.RX: lambda g: (h(g.target), rz(g.target, g.angle), h(g.target)),
    GateKind.CY: lambda g: (sdg(g.target), cx(g.controls[0], g.target), s(g.target)),
}


def _primitive_gates(circuit: Circuit) -> list[Gate]:
    """The circuit's gates, each kind in `_LOWERING` replaced by its lowering."""
    out: list[Gate] = []
    for g in circuit.gates:
        lower = _LOWERING.get(g.kind)
        out += lower(g) if lower else (g,)
    return out


class _Rows:
    """A block of states held as the basis rows they occupy.

    `idx[:size]` are distinct basis indices and `amp[:size]` their
    amplitudes, one column per state, each row still to be multiplied by
    `phase[:size]`, where diagonal gates go.  The three are allocated at
    `capacity` rows once; `np.zeros` leaves the pages past the rows in use
    untouched.  `dropped` is the norm, per column, of every row dropped so
    far.  `_where` maps each of the 2**n basis indices to its row + 1, or 0
    if not held; it holds entries only while `_mix` pairs rows, so only the
    pages of indices ever held are touched.
    """

    def __init__(self, block: np.ndarray, capacity: int, n: int):
        dim, columns = block.shape
        self.size = dim
        self.idx = np.zeros(capacity, dtype=np.int64)
        self.idx[:dim] = np.arange(dim)
        self.amp = np.zeros((capacity, columns), dtype=complex)
        self.amp[:dim] = block
        self.phase = np.ones(capacity, dtype=complex)
        self._phased = False
        self.dropped = np.zeros(columns)
        self._where = np.zeros(2 ** n, dtype=np.int32)
        # Scratch for `_mix` (H), which works a chunk of rows at a time.
        self._chunk = max(1, MIX_CHUNK_AMPLITUDES // columns)
        self._scratch = np.empty((3, min(self._chunk, capacity), columns), dtype=complex)

    def run(self, gates: list[Gate]) -> int:
        """Apply gates in order; return the index of the first gate not applied,
        which is the first that would grow the rows beyond capacity."""
        for i, g in enumerate(gates):
            bit = 1 << g.target
            if g.kind is GateKind.H:
                self._take_phase()
                if not self._mix(bit):
                    return i
                continue
            ctrl = sum(1 << c for c in g.controls)
            idx = self.idx[:self.size]
            sel = np.flatnonzero((idx & ctrl) == ctrl) if ctrl else slice(None)
            if g.kind in DIAGONAL_KINDS:
                u = _target_matrix(g)
                self.phase[:self.size][sel] *= np.where(idx[sel] & bit, u[1, 1], u[0, 0])
                self._phased = True
            else:
                idx[sel] ^= bit
        self._take_phase()
        return len(gates)

    def _take_phase(self) -> None:
        """Multiply the pending phase into the rows' amplitudes."""
        if self._phased:
            self.amp[:self.size] *= self.phase[:self.size, None]
            self.phase[:self.size] = 1.0
            self._phased = False

    def _mix(self, bit: int) -> bool:
        """Apply H on `bit` to every row and its partner; False, with nothing
        changed, if the missing partners do not fit."""
        size = self.size
        idx = self.idx[:size]
        self._where[idx] = np.arange(1, size + 1, dtype=np.int32)
        want = idx ^ bit
        partner = self._where[want] - 1
        self._where[idx] = 0
        missing = partner < 0
        new = want[missing]
        if size + len(new) > len(self.idx):
            return False
        # A partner not yet held joins with zero amplitude.
        partner[missing] = np.arange(size, size + len(new))
        self.idx[size:size + len(new)] = new
        self.amp[size:size + len(new)] = 0.0
        self.size += len(new)
        one = (idx & bit) != 0
        lo = np.concatenate((np.flatnonzero(~one), partner[one & missing]))
        hi = np.concatenate((partner[~one], np.flatnonzero(one & missing)))
        tiny = []
        for start in range(0, len(lo), self._chunk):
            rows_lo, rows_hi = lo[start:start + self._chunk], hi[start:start + self._chunk]
            a, b, out = self._scratch[:, :len(rows_lo)]
            # mode="clip" (the rows are in range) writes to `out` unbuffered.
            np.take(self.amp, rows_lo, axis=0, out=a, mode="clip")
            np.take(self.amp, rows_hi, axis=0, out=b, mode="clip")
            a *= _SQRT_HALF
            b *= _SQRT_HALF
            np.add(a, b, out=out)
            np.subtract(a, b, out=b)
            self.amp[rows_lo] = out
            self.amp[rows_hi] = b
            # A row is dropped when it is at most DROP_TOL in every column;
            # column 0 rules out most rows before the whole row is read.
            for rows, values in ((rows_lo, out), (rows_hi, b)):
                small = np.flatnonzero(np.abs(values[:, 0]) <= DROP_TOL)
                if len(small):
                    tiny.append(rows[small[np.abs(values[small]).max(axis=1) <= DROP_TOL]])
        if tiny:
            self._drop(np.concatenate(tiny))
        return True

    def _drop(self, gone: np.ndarray) -> None:
        """Remove the rows `gone`, adding their norm to `dropped`; the last
        rows in use move into the holes."""
        if not len(gone):
            return
        self.dropped += np.sqrt(np.sum(np.abs(self.amp[gone]) ** 2, axis=0))
        size = self.size - len(gone)
        holes = gone[gone < size]
        staying = np.ones(len(gone), dtype=bool)
        staying[gone[gone >= size] - size] = False
        movers = size + np.flatnonzero(staying)
        self.idx[holes] = self.idx[movers]
        self.amp[holes] = self.amp[movers]
        self.size = size


def apply(circuit: Circuit, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the circuit to a block of states on its low wires.

    `states` has shape (2**m, B) with m <= num_qubits: one state per column
    on wires 0..m-1, every higher wire starting in |0>.  Returns
    `(out, outside)`.  `out` has the shape of `states` and holds the output
    amplitudes with every wire >= m back in |0>.  `outside` (one value per
    column) bounds the norm of everything else: the norm left on the higher
    wires plus the norm of every row dropped on the way, which also bounds
    the error of `out`.  The caller's array is left unchanged; real input is
    accepted.
    """
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(f"{n} qubits exceeds statevector cap {STATEVECTOR_QUBIT_CAP}")
    dim = states.shape[0] if states.ndim == 2 else 0
    if dim < 1 or states.size == 0 or dim & (dim - 1) or dim > 2 ** n:
        raise ValueError("statevector dimension mismatch")
    columns = states.shape[1]
    gates = _primitive_gates(circuit)
    capacity = min(2 ** n, max(2 ** n // 4, ROW_BLOCK_FLOOR) // columns)
    idx, amp, dropped, stop = np.arange(dim), states, np.zeros(columns), 0
    if dim <= capacity:
        rows = _Rows(states, capacity, n)
        stop = rows.run(gates)
        idx, amp, dropped = rows.idx[:rows.size], rows.amp[:rows.size], rows.dropped
        del rows  # frees the position table and mixing scratch before a dense switch
    out = np.zeros((dim, columns), dtype=complex)
    if stop == len(gates):
        inside = idx < dim
        if inside.all():
            out[idx] = amp
            left = np.zeros(columns)
        else:
            out[idx[inside]] = amp[inside]
            left = np.sqrt(np.sum(np.abs(amp[~inside]) ** 2, axis=0))
    else:
        # Dense switch: the remaining gates run one column at a time.
        left = np.empty(columns)
        vec = np.empty(2 ** n, dtype=complex)
        scratch = np.empty_like(vec)
        for j in range(columns):
            vec.fill(0.0)
            vec[idx] = amp[:, j]
            _run(vec.reshape((2,) * n), gates[stop:], n, scratch)
            out[:, j] = vec[:dim]
            rest = vec[dim:]
            left[j] = math.sqrt(np.vdot(rest, rest).real)
    return out, left + dropped


def unitary_of(circuit: Circuit, width: int | None = None) -> np.ndarray:
    """The columns of the circuit's unitary for the basis states of the low
    `width` wires, every higher wire in |0> (default: every column).

    Returns shape (2**n, 2**width).  The 2**(n + width) amplitudes built are
    capped at 2**STATEVECTOR_QUBIT_CAP.
    """
    n = circuit.num_qubits
    width = n if width is None else width
    if not 0 <= width <= n:
        raise ValueError(f"width {width} is not in 0..{n}")
    if n + width > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(f"{n} qubits at width {width} exceeds 2**{STATEVECTOR_QUBIT_CAP} "
                            f"amplitudes")
    u = np.eye(2 ** n, 2 ** width, dtype=complex)
    _run(u.reshape((2,) * n + (2 ** width,)), _primitive_gates(circuit), n,
         np.empty(u.size, dtype=complex))
    return u


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


def check_hamiltonian_width(n: int) -> None:
    """Raise CapacityError if an n-qubit Hamiltonian exceeds FULL_UNITARY_MAX_QUBITS."""
    if n > FULL_UNITARY_MAX_QUBITS:
        raise CapacityError(f"Hamiltonian of {n} qubits exceeds "
                            f"FULL_UNITARY_MAX_QUBITS = {FULL_UNITARY_MAX_QUBITS}")


def hamiltonian(params) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """(H, H1, H2, [h_1..h_{n-1}]) for an n-qubit source circuit.

    `params` needs attributes n (total qubits), c, l.  H1 is the single
    non-commuting term; H2 is the mutually-commuting rest; H = H1 + H2.
    Refuses n > FULL_UNITARY_MAX_QUBITS before building any matrix.
    """
    n, c, l = params.n, params.c, params.l
    if n < 3:
        raise ValueError("n must be >= 3")
    check_hamiltonian_width(n)
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


def product_formula(params, steps: int = 1) -> np.ndarray:
    """(exp(-i H1 tau) exp(-i H2 tau))**steps: the unitary that `steps`
    first-order Trotter steps of the source circuit implement."""
    _, h1, h2, _ = hamiltonian(params)
    step = expm_hermitian(h1, params.tau) @ expm_hermitian(h2, params.tau)
    return np.linalg.matrix_power(step, steps)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# Equivalence checking

def align_phase(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale u by the phase of its overlap with reference, tr(reference^H u).

    That phase minimizes the Frobenius distance over global phases, and
    unlike the phase of any single entry it does not depend on rounding.
    """
    overlap = np.vdot(reference, u)
    if abs(overlap) < 1e-14:
        return u
    return u * (abs(overlap) / overlap)


def phase_deviation(u: np.ndarray, reference: np.ndarray) -> float:
    """Largest entrywise distance from reference of u aligned to its phase."""
    return float(np.abs(align_phase(u, reference) - reference).max())


def data_block(circuit: Circuit, width: int) -> tuple[np.ndarray, float]:
    """Unitary restricted to the ancilla-zero subspace of the first `width` qubits,
    and the population it leaves outside that subspace summed over its columns,
    which bounds the leak of every normalized input."""
    u = unitary_of(circuit, width)
    rest = u[2 ** width:]
    return u[:2 ** width], float(np.vdot(rest, rest).real)


def full_unitary_check(a: Circuit, b: Circuit) -> bool:
    """Whether equivalent_up_to_phase compares data blocks (else trial states)."""
    return max(a.num_qubits, b.num_qubits) <= FULL_UNITARY_MAX_QUBITS


def equivalent_up_to_phase(a: Circuit, b: Circuit, trials: int = DEFAULT_TRIALS,
                           seed: int = 0) -> tuple[bool, float]:
    """Equivalence up to global phase, by the check `full_unitary_check` names.

    Circuits may differ in width; the common data register is the smaller
    of the two data widths and every higher wire must start and end in |0>.
    A circuit that leaves more than ANCILLA_LEAK_TOL outside that subspace
    fails the check, with a reported deviation no smaller than the leak.
    The trial states run through `apply` as one block per circuit; the norm
    of the rows it drops counts against both the leak and the fidelity, so
    dropping can fail a check but never pass one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    width = min(a.num_data_qubits, b.num_data_qubits)
    if full_unitary_check(a, b):
        (ua, leak_a), (ub, leak_b) = data_block(a, width), data_block(b, width)
        leak = max(leak_a, leak_b)
        if leak > ANCILLA_LEAK_TOL:
            return False, leak
        # No trial could change this verdict.  With both leaks at most 1e-20
        # both blocks are unitary to within 1e-20, so an entrywise match
        # within 1e-9 on at most 2**10 columns keeps every input's infidelity
        # below about (2**10 * 1e-9)**2 / 2 = 5e-13, under PHASE_TOL.
        dev = phase_deviation(ua, ub)
        return dev <= 1e-9, dev
    if max(a.num_qubits, b.num_qubits) > STATEVECTOR_QUBIT_CAP:
        raise CapacityError("width exceeds statevector cap")
    rng = np.random.default_rng(seed)
    psis = np.empty((2 ** width, trials), dtype=complex)
    for t in range(trials):
        psi = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
        psis[:, t] = psi / np.linalg.norm(psi)
    worst, ok, outs = 0.0, True, []
    slack = np.zeros(trials)
    # The wider circuit runs first, so that the narrower one's output is not
    # held while the wider one may need a dense state per trial.
    for circ in sorted((a, b), key=lambda c: -c.num_qubits):
        out, outside = apply(circ, psis)
        outs.append(out)
        leak = outside ** 2
        dirty = leak > ANCILLA_LEAK_TOL
        if dirty.any():
            ok = False
            worst = max(worst, float(leak.max()))
        # `outside` also bounds how far `out` is from the exact output (the
        # rows apply dropped), so it lowers the fidelity.  A column that
        # failed the leak test fails the check already.
        slack += np.where(dirty, 0.0, outside)
    fidelity = np.abs(np.einsum("ij,ij->j", outs[0].conj(), outs[1])) - slack
    worst = max(worst, float(np.max(1.0 - fidelity)))
    return ok and not np.any(fidelity < 1.0 - PHASE_TOL), worst


def evolution_error(params, u: np.ndarray, steps: int = 1) -> float:
    """Spectral-norm distance between a data-register unitary and exp(-i H steps tau)."""
    h, _, _, _ = hamiltonian(params)
    exact = expm_hermitian(h, steps * params.tau)
    return spectral_norm(align_phase(u, exact) - exact)
