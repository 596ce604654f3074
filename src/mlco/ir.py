"""Gate-level circuit IR: gate kinds, circuits, gate-set levels, censuses, serialization.

Conventions:
  - Qubit 0 is the least-significant bit of a basis-state index.
  - Time order: ``gates[0]`` acts first, so the circuit unitary is the
    reversed matrix product ``U = U_last ... U_1 U_0``.
  - Controls are positive (|1> controls); negative controls are written
    with explicit X conjugation.
  - Ancillas occupy the highest qubit indices and must return to |0...0>.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field, replace


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    S = "S"
    SDG = "Sdg"
    T = "T"
    TDG = "Tdg"
    Z = "Z"
    RZ = "RZ"
    RX = "RX"
    CX = "CX"
    CZ = "CZ"
    CY = "CY"
    CS = "CS"
    CSDG = "CSdg"
    CRZ = "CRZ"
    CCX = "CCX"
    RCCX = "RCCX"
    CCRZ = "CCRZ"
    MCRZ = "MCRZ"
    MCX = "MCX"
    BARRIER = "Barrier"


# Fixed control arity per kind; None means variable (>= 3) or not applicable.
_CONTROL_ARITY = {
    GateKind.X: 0, GateKind.H: 0, GateKind.S: 0, GateKind.SDG: 0,
    GateKind.T: 0, GateKind.TDG: 0, GateKind.Z: 0, GateKind.RZ: 0,
    GateKind.RX: 0,
    GateKind.CX: 1, GateKind.CZ: 1, GateKind.CY: 1, GateKind.CS: 1,
    GateKind.CSDG: 1, GateKind.CRZ: 1,
    GateKind.CCX: 2, GateKind.RCCX: 2, GateKind.CCRZ: 2,
    GateKind.MCRZ: None, GateKind.MCX: None, GateKind.BARRIER: None,
}

ROTATION_KINDS = frozenset({
    GateKind.RZ, GateKind.RX, GateKind.CRZ, GateKind.CCRZ, GateKind.MCRZ,
})

# Diagonal in the computational basis.
DIAGONAL_KINDS = frozenset({
    GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
    GateKind.RZ, GateKind.CZ, GateKind.CS, GateKind.CSDG, GateKind.CRZ,
    GateKind.CCRZ, GateKind.MCRZ,
})

# Permutation gates whose action is "flip target iff all controls are 1".
X_FAMILY_KINDS = frozenset({
    GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX,
})

_SELF_INVERSE = frozenset({
    GateKind.X, GateKind.H, GateKind.Z, GateKind.CX, GateKind.CZ,
    GateKind.CY, GateKind.CCX, GateKind.MCX, GateKind.BARRIER,
})

_INVERSE_KIND = {
    GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T,
    GateKind.CS: GateKind.CSDG, GateKind.CSDG: GateKind.CS,
}


class CircuitError(ValueError):
    """Invalid gate or circuit construction."""


class ParseError(CircuitError):
    """Malformed circuit document."""


class UnsupportedGateError(ParseError):
    """Unknown or unexportable gate kind."""


@dataclass(frozen=True)
class Gate:
    """One instruction: kind, ordered controls, target, optional angle.

    Equality and hashing use the control *set* for every kind but RCCX,
    whose unitary depends on the control order, so RCCX compares its
    controls in order.  Barriers carry their spanned qubits in ``controls``
    and have no target.
    """

    kind: GateKind
    controls: tuple[int, ...] = ()
    target: int | None = None
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.kind is GateKind.BARRIER:
            if self.target is not None or self.angle is not None:
                raise CircuitError("barrier takes spanned qubits only")
            if len(set(self.controls)) != len(self.controls):
                raise CircuitError("barrier qubits must be distinct")
            return
        if self.target is None:
            raise CircuitError(f"{self.kind.value} requires a target")
        arity = _CONTROL_ARITY[self.kind]
        if arity is None:
            if len(self.controls) < 3:
                raise CircuitError(
                    f"{self.kind.value} requires >= 3 controls, got {len(self.controls)}")
        elif len(self.controls) != arity:
            raise CircuitError(
                f"{self.kind.value} requires {arity} controls, got {len(self.controls)}")
        qubits = (*self.controls, self.target)
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit in {self.kind.value} on {qubits}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None:
                raise CircuitError(f"{self.kind.value} requires an angle")
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.value} takes no angle")

    @functools.cached_property
    def qubits(self) -> tuple[int, ...]:
        """All touched qubits, controls first."""
        if self.target is None:
            return self.controls
        return (*self.controls, self.target)

    @property
    def is_diagonal(self) -> bool:
        return self.kind in DIAGONAL_KINDS

    @property
    def is_entangling(self) -> bool:
        return self.kind is not GateKind.BARRIER and len(self.controls) > 0

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (self.kind is other.kind
                and self.target == other.target
                and self.angle == other.angle
                and (self.controls == other.controls
                     or (self.kind is not GateKind.RCCX
                         and frozenset(self.controls) == frozenset(other.controls))))

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            controls = self.controls if self.kind is GateKind.RCCX \
                else frozenset(self.controls)
            h = hash((self.kind, controls, self.target, self.angle))
            self.__dict__["_hash"] = h
        return h

    def inverse(self) -> "Gate | tuple[Gate, ...]":
        """Inverse gate, or a gate sequence for RCCX (reversed decomposition)."""
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind in _INVERSE_KIND:
            return replace(self, kind=_INVERSE_KIND[self.kind])
        if self.kind in ROTATION_KINDS:
            return replace(self, angle=-self.angle)
        if self.kind is GateKind.RCCX:
            body = rccx_decomposition(*self.controls, self.target)
            return tuple(g.inverse() for g in reversed(body))
        raise CircuitError(f"no inverse for {self.kind.value}")


def rccx_decomposition(c1: int, c2: int, t: int) -> tuple[Gate, ...]:
    """Three-CX relative-phase Toffoli; this circuit *defines* RCCX's unitary."""
    return (
        Gate(GateKind.H, (), t),
        Gate(GateKind.T, (), t),
        Gate(GateKind.CX, (c2,), t),
        Gate(GateKind.TDG, (), t),
        Gate(GateKind.CX, (c1,), t),
        Gate(GateKind.T, (), t),
        Gate(GateKind.CX, (c2,), t),
        Gate(GateKind.TDG, (), t),
        Gate(GateKind.H, (), t),
    )


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence on ``num_qubits`` wires.

    The last ``num_ancillas`` wires are ancillas: on inputs of the form
    |psi> (x) |0...0>, a valid circuit returns them to |0...0> exactly.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    num_ancillas: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise CircuitError("num_qubits must be >= 1")
        if not 0 <= self.num_ancillas < self.num_qubits:
            raise CircuitError("num_ancillas out of range")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"gate {g.kind.value} touches qubit {q} >= num_qubits={self.num_qubits}")

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    @property
    def num_data_qubits(self) -> int:
        return self.num_qubits - self.num_ancillas

    def with_gates(self, gates) -> "Circuit":
        return replace(self, gates=tuple(gates))

    def without_barriers(self) -> "Circuit":
        return self.with_gates(g for g in self.gates if g.kind is not GateKind.BARRIER)

    def concat(self, other: "Circuit") -> "Circuit":
        if (other.num_qubits, other.num_ancillas) != (self.num_qubits, self.num_ancillas):
            raise CircuitError("circuit widths differ")
        return self.with_gates(self.gates + other.gates)


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate."""
    out: list[Gate] = []
    for g in reversed(circuit.gates):
        inv = g.inverse()
        out.extend(inv if isinstance(inv, tuple) else (inv,))
    return circuit.with_gates(out)


# ---------------------------------------------------------------------------
# Gate-set levels

@dataclass(frozen=True)
class GateSetLevel:
    name: str
    max_controls: int | None  # None = unbounded
    allowed_kinds: frozenset[GateKind]


_SINGLE_QUBIT = frozenset(k for k, a in _CONTROL_ARITY.items() if a == 0)

HIGS = GateSetLevel("HiGS", None, frozenset(GateKind) - {GateKind.RCCX})
MIGS = GateSetLevel("MiGS", 2, _SINGLE_QUBIT | {
    GateKind.CX, GateKind.CZ, GateKind.CY, GateKind.CS, GateKind.CSDG,
    GateKind.CRZ, GateKind.CCX, GateKind.RCCX, GateKind.CCRZ, GateKind.BARRIER,
})
LOGS = GateSetLevel("LoGS", 1, frozenset({
    GateKind.RZ, GateKind.X, GateKind.H, GateKind.CX, GateKind.BARRIER,
}))


def conforms(circuit: Circuit, level: GateSetLevel) -> bool:
    """True iff every gate's kind is allowed and its control count fits."""
    for g in circuit.gates:
        if g.kind not in level.allowed_kinds:
            return False
        if level.max_controls is not None and len(g.controls) > level.max_controls:
            return False
    return True


# ---------------------------------------------------------------------------
# Census

# CX cost of each entangling kind under the fixed LoGS decompositions; with
# `mcrz_cx_cost` for C{k}RZ, the one CX price table.  MCX has no LoGS
# decomposition and is priced 0.
FIXED_CX_COST = {
    "CCX": 6, "RCCX": 3, "CCRZ": 4, "CRZ": 2, "CS": 2, "CSdg": 2,
    "CZ": 1, "CY": 1, "CX": 1,
}


def mcrz_cx_cost(k: int) -> int:
    """CX cost of a k-controlled RZ under the reference ancilla-free scheme."""
    table = {1: 2, 2: 4, 3: 14, 4: 24, 5: 40, 6: 56, 7: 80}
    if k < 1:
        raise ValueError("k must be >= 1")
    return table[k] if k < 8 else 16 * k - 24


@dataclass(frozen=True)
class GateCensus:
    """Per-kind entangling-gate counts plus their naive-lowered CX total."""

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "counts", {k: v for k, v in self.counts.items() if v})
        if any(v < 0 for v in self.counts.values()):
            raise CircuitError("census counts must be non-negative")

    def __getitem__(self, key: str) -> int:
        return self.counts.get(key, 0)

    def __add__(self, other: "GateCensus") -> "GateCensus":
        keys = set(self.counts) | set(other.counts)
        return GateCensus({k: self[k] + other[k] for k in keys})

    def __eq__(self, other):
        if isinstance(other, dict):
            return self.counts == {k: v for k, v in other.items() if v}
        if isinstance(other, GateCensus):
            return self.counts == other.counts
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.counts.items()))

    @property
    def total_cx_after_naive_lowering(self) -> int:
        total = 0
        for key, count in self.counts.items():
            if key.startswith("C") and key.endswith("RZ") and key[1:-2].isdigit():
                total += count * mcrz_cx_cost(int(key[1:-2]))
            else:
                total += count * FIXED_CX_COST.get(key, 0)
        return total

    def __repr__(self):
        items = ", ".join(f"{k}:{v}" for k, v in sorted(self.counts.items()))
        return f"GateCensus({{{items}}})"


def _census_key(gate: Gate) -> str | None:
    if gate.kind is GateKind.BARRIER or not gate.controls:
        return None
    if gate.kind is GateKind.MCRZ:
        return f"C{len(gate.controls)}RZ"
    return gate.kind.value


def census(circuit: Circuit) -> GateCensus:
    """Count multi-qubit gates by kind; single-qubit gates and barriers excluded."""
    counts: dict[str, int] = {}
    for g in circuit.gates:
        key = _census_key(g)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return GateCensus(counts)


# ---------------------------------------------------------------------------
# Commutation

@functools.lru_cache(maxsize=1 << 20)
def commutes(a: Gate, b: Gate) -> bool:
    """Sound, conservative commutation check.

    Returns True only when the gate unitaries provably commute; barriers
    block everything.
    """
    if a.kind is GateKind.BARRIER or b.kind is GateKind.BARRIER:
        return False
    if not set(a.qubits) & set(b.qubits):
        return True
    if a == b:
        return True
    if a.is_diagonal and b.is_diagonal:
        return True
    if a.is_diagonal and _reads_only(a, b):
        return True
    if b.is_diagonal and _reads_only(b, a):
        return True
    if a.kind in X_FAMILY_KINDS and b.kind in X_FAMILY_KINDS:
        return a.target not in b.controls and b.target not in a.controls
    if _is_x_axis(a) and b.kind in X_FAMILY_KINDS:
        return a.target == b.target
    if _is_x_axis(b) and a.kind in X_FAMILY_KINDS:
        return b.target == a.target
    if _is_x_axis(a) and _is_x_axis(b):
        return a.target == b.target
    return False


def _reads_only(diag: Gate, other: Gate) -> bool:
    """True if `other` only reads (as controls) the qubits `diag` touches."""
    return not (set(diag.qubits) & (set(other.qubits) - set(other.controls)))


def _is_x_axis(g: Gate) -> bool:
    return g.kind in (GateKind.X, GateKind.RX)


# ---------------------------------------------------------------------------
# Serialization

def write_circuit(circuit: Circuit) -> bytes:
    """Canonical JSON document; round-trips through read_circuit."""
    doc = {
        "num_qubits": circuit.num_qubits,
        "num_ancillas": circuit.num_ancillas,
        "gates": [_gate_record(g) for g in circuit.gates],
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def _gate_record(g: Gate) -> dict:
    rec: dict = {"kind": g.kind.value, "controls": list(g.controls)}
    if g.target is not None:
        rec["target"] = g.target
    if g.angle is not None:
        rec["angle"] = g.angle
    return rec


_KIND_BY_NAME = {k.value: k for k in GateKind}


def _is_qubit(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_gate(i: int, rec) -> Gate:
    if not isinstance(rec, dict):
        raise ParseError(f"gate {i}: record must be an object")
    name = rec.get("kind")
    if not isinstance(name, str) or name not in _KIND_BY_NAME:
        raise UnsupportedGateError(f"gate {i}: unknown kind {name!r}")
    controls, target, angle = rec.get("controls", []), rec.get("target"), rec.get("angle")
    if not (isinstance(controls, list) and all(_is_qubit(q) for q in controls)):
        raise ParseError(f"gate {i}: controls must be a list of integer qubit indices")
    if target is not None and not _is_qubit(target):
        raise ParseError(f"gate {i}: target must be an integer qubit index")
    if angle is not None and (isinstance(angle, bool) or not isinstance(angle, (int, float))
                              or not math.isfinite(angle)):
        raise ParseError(f"gate {i}: angle must be a finite number, got {angle!r}")
    try:
        return Gate(_KIND_BY_NAME[name], tuple(controls), target, angle)
    except CircuitError as exc:
        raise ParseError(f"gate {i}: {exc}") from exc


def read_circuit(data: bytes | str) -> Circuit:
    """Parse a circuit document produced by write_circuit."""
    text = data.decode() if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    try:
        num_qubits, records = doc["num_qubits"], doc["gates"]
    except KeyError as exc:
        raise ParseError(f"missing header field: {exc}") from exc
    num_ancillas = doc.get("num_ancillas", 0)
    for name, value in (("num_qubits", num_qubits), ("num_ancillas", num_ancillas)):
        if not _is_qubit(value):
            raise ParseError(f"{name} must be an integer, got {value!r}")
    if not isinstance(records, list):
        raise ParseError("gates must be a list")
    gates = [_parse_gate(i, rec) for i, rec in enumerate(records)]
    try:
        return Circuit(num_qubits, tuple(gates), num_ancillas)
    except CircuitError as exc:
        raise ParseError(str(exc)) from exc


_QASM_NAMES = {
    GateKind.X: "x", GateKind.H: "h", GateKind.S: "s", GateKind.SDG: "sdg",
    GateKind.T: "t", GateKind.TDG: "tdg", GateKind.Z: "z", GateKind.RZ: "rz",
    GateKind.RX: "rx", GateKind.CX: "cx", GateKind.CZ: "cz", GateKind.CY: "cy",
    GateKind.CRZ: "crz", GateKind.CCX: "ccx", GateKind.BARRIER: "barrier",
}


def write_qasm(circuit: Circuit) -> str:
    """One-way OpenQASM-3-subset export; raises on kinds with no QASM name."""
    lines = ["OPENQASM 3;", f"qubit[{circuit.num_qubits}] q;"]
    for g in circuit.gates:
        name = _QASM_NAMES.get(g.kind)
        if name is None:
            raise UnsupportedGateError(
                f"{g.kind.value} has no QASM export; lower the circuit first")
        if g.kind is GateKind.BARRIER:
            args = ", ".join(f"q[{q}]" for q in g.controls) or "q"
            lines.append(f"barrier {args};")
            continue
        if g.angle is not None:
            name = f"{name}({g.angle!r})"
        args = ", ".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{name} {args};")
    return "\n".join(lines) + "\n"


# Convenience constructors used throughout the builder and passes.

def x(q: int) -> Gate: return Gate(GateKind.X, (), q)
def h(q: int) -> Gate: return Gate(GateKind.H, (), q)
def rz(q: int, angle: float) -> Gate: return Gate(GateKind.RZ, (), q, angle)
def rx(q: int, angle: float) -> Gate: return Gate(GateKind.RX, (), q, angle)
def t(q: int) -> Gate: return Gate(GateKind.T, (), q)
def tdg(q: int) -> Gate: return Gate(GateKind.TDG, (), q)
def s(q: int) -> Gate: return Gate(GateKind.S, (), q)
def sdg(q: int) -> Gate: return Gate(GateKind.SDG, (), q)
def cx(c: int, t_: int) -> Gate: return Gate(GateKind.CX, (c,), t_)
def cz(c: int, t_: int) -> Gate: return Gate(GateKind.CZ, (c,), t_)
def cy(c: int, t_: int) -> Gate: return Gate(GateKind.CY, (c,), t_)
def cs(c: int, t_: int) -> Gate: return Gate(GateKind.CS, (c,), t_)
def csdg(c: int, t_: int) -> Gate: return Gate(GateKind.CSDG, (c,), t_)
def crz(c: int, t_: int, angle: float) -> Gate: return Gate(GateKind.CRZ, (c,), t_, angle)
def ccx(c1: int, c2: int, t_: int) -> Gate: return Gate(GateKind.CCX, (c1, c2), t_)
def rccx(c1: int, c2: int, t_: int) -> Gate: return Gate(GateKind.RCCX, (c1, c2), t_)
def ccrz(c1: int, c2: int, t_: int, angle: float) -> Gate:
    return Gate(GateKind.CCRZ, (c1, c2), t_, angle)


def mcrz(controls: tuple[int, ...], t_: int, angle: float) -> Gate:
    """k-controlled RZ; k >= 3 is MCRZ, smaller k degrade to CRZ/CCRZ/RZ."""
    k = len(controls)
    if k == 0:
        return rz(t_, angle)
    if k == 1:
        return crz(controls[0], t_, angle)
    if k == 2:
        return ccrz(controls[0], controls[1], t_, angle)
    return Gate(GateKind.MCRZ, tuple(controls), t_, angle)


def barrier(qubits: tuple[int, ...]) -> Gate:
    return Gate(GateKind.BARRIER, tuple(qubits), None)
