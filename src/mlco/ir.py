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
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, replace


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

    # Members are singletons, so the identity hash agrees with equality and
    # spares every Gate hash and kind-set lookup Enum's Python-level __hash__.
    __hash__ = object.__hash__


# Fixed control arity per kind; None means variable (>= 3).
CONTROL_ARITY = {
    GateKind.X: 0, GateKind.H: 0, GateKind.S: 0, GateKind.SDG: 0,
    GateKind.T: 0, GateKind.TDG: 0, GateKind.Z: 0, GateKind.RZ: 0,
    GateKind.RX: 0,
    GateKind.CX: 1, GateKind.CZ: 1, GateKind.CY: 1, GateKind.CS: 1,
    GateKind.CSDG: 1, GateKind.CRZ: 1,
    GateKind.CCX: 2, GateKind.RCCX: 2, GateKind.CCRZ: 2,
    GateKind.MCRZ: None,
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
    GateKind.X, GateKind.CX, GateKind.CCX,
})

_SELF_INVERSE = frozenset({
    GateKind.X, GateKind.H, GateKind.Z, GateKind.CX, GateKind.CZ,
    GateKind.CY, GateKind.CCX, GateKind.RCCX,
})

_INVERSE_KIND = {
    GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T,
    GateKind.CS: GateKind.CSDG, GateKind.CSDG: GateKind.CS,
}


class CircuitError(ValueError):
    """Invalid gate or circuit construction."""


class CapacityError(RuntimeError):
    """Dense simulation request beyond the documented qubit caps."""


class ParseError(CircuitError):
    """Malformed circuit document."""


class UnsupportedGateError(ParseError):
    """Unknown or unexportable gate kind."""


class Gate:
    """One instruction: kind, controls, target, optional angle.

    Controls are stored sorted for every kind but RCCX, whose unitary
    depends on the control order, so gates that differ only in control
    order are equal and hash alike.

    A gate is immutable: assigning or deleting an attribute raises
    `dataclasses.FrozenInstanceError`.  Equality and the hash are those of
    ``(kind, controls, target, angle)``.  Construction computes the hash,
    ``qubits`` (every touched wire, the controls first) and the wire masks
    below once.

    The masks have bit ``q`` set for wire ``q``.  ``wires`` holds every
    touched wire; the others hold the wires on which the gate plays one
    commutation role (see `gates_commute`):

    - ``d_wires``: every wire of a diagonal kind (role D);
    - ``c_wires``: the controls of X/CX/CCX (role C);
    - ``z_wires``: the wires in role D, C or K, where K is a control of
      CY/RCCX;
    - ``x_wires``: the target of X/CX/CCX/RX (role X).

    The targets of H, CY and RCCX play no role.
    """

    __slots__ = ("kind", "controls", "target", "angle", "qubits", "wires",
                 "d_wires", "z_wires", "c_wires", "x_wires", "_hash")

    def __init__(self, kind: GateKind, controls: tuple[int, ...] = (),
                 target: int | None = None, angle: float | None = None):
        controls = tuple(controls)
        if len(controls) > 1 and kind is not GateKind.RCCX:
            controls = tuple(sorted(controls))
        if target is None:
            raise CircuitError(f"{kind.value} requires a target")
        arity = CONTROL_ARITY[kind]
        if arity is None:
            if len(controls) < 3:
                raise CircuitError(
                    f"{kind.value} requires >= 3 controls, got {len(controls)}")
        elif len(controls) != arity:
            raise CircuitError(
                f"{kind.value} requires {arity} controls, got {len(controls)}")
        qubits = (*controls, target)
        if target < 0 or (controls and min(controls) < 0):
            raise CircuitError(f"negative qubit in {kind.value} on {qubits}")
        target_bit, controls_mask = 1 << target, 0
        for q in controls:
            controls_mask |= 1 << q
        wires = controls_mask | target_bit
        # Equal wires share a bit.
        if controls and wires.bit_count() != len(qubits):
            raise CircuitError(f"duplicate qubit in {kind.value} on {qubits}")
        if kind in ROTATION_KINDS:
            if angle is None:
                raise CircuitError(f"{kind.value} requires an angle")
        elif angle is not None:
            raise CircuitError(f"{kind.value} takes no angle")
        _set_kind(self, kind)
        _set_controls(self, controls)
        _set_target(self, target)
        _set_angle(self, angle)
        _set_qubits(self, qubits)
        _set_wires(self, wires)
        if kind in DIAGONAL_KINDS:
            _set_d_wires(self, wires)
            _set_z_wires(self, wires)
            _set_c_wires(self, 0)
            _set_x_wires(self, 0)
        else:
            x_family = kind in X_FAMILY_KINDS
            _set_d_wires(self, 0)
            # The controls of every kind that is not diagonal are C or K.
            _set_z_wires(self, controls_mask)
            _set_c_wires(self, controls_mask if x_family else 0)
            _set_x_wires(self, target_bit if x_family or kind is GateKind.RX else 0)
        _set_hash(self, hash((kind, controls, target, angle)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Field by field as tuples compare: identity first, then ==.
        return self is other or (
            self._hash == other._hash and self.kind is other.kind
            and self.controls == other.controls and self.target == other.target
            and (self.angle is other.angle or self.angle == other.angle))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(kind={self.kind!r}, controls={self.controls!r}, "
                f"target={self.target!r}, angle={self.angle!r})")

    def __reduce__(self):
        return self.__class__, (self.kind, self.controls, self.target, self.angle)

    @property
    def is_entangling(self) -> bool:
        return len(self.controls) > 0

    def inverse(self) -> "Gate":
        """Inverse gate.

        RCCX is its own inverse: its decomposition, reversed and inverted
        gate by gate, is itself.  A self-inverse gate returns itself; any
        other builds a new gate.
        """
        kind = self.kind
        if kind in _SELF_INVERSE:
            return self
        if kind in _INVERSE_KIND:
            return Gate(_INVERSE_KIND[kind], self.controls, self.target)
        if kind in ROTATION_KINDS:
            return Gate(kind, self.controls, self.target, -self.angle)
        raise CircuitError(f"no inverse for {kind.value}")


# The slots' own setters: they skip `Gate.__setattr__`, which refuses every
# assignment, and are faster than `object.__setattr__`.
(_set_kind, _set_controls, _set_target, _set_angle, _set_qubits, _set_wires,
 _set_d_wires, _set_z_wires, _set_c_wires, _set_x_wires,
 _set_hash) = (Gate.__dict__[name].__set__ for name in Gate.__slots__)


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
        # A gate has no negative wire, so one shift finds a wire out of range.
        n = self.num_qubits
        for g in self.gates:
            if g.wires >> n:
                q = next(q for q in g.qubits if q >= n)
                raise CircuitError(f"gate {g.kind.value} touches qubit {q} >= num_qubits={n}")

    @property
    def num_data_qubits(self) -> int:
        return self.num_qubits - self.num_ancillas

    def with_gates(self, gates) -> "Circuit":
        return replace(self, gates=tuple(gates))


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate."""
    return circuit.with_gates(g.inverse() for g in reversed(circuit.gates))


# ---------------------------------------------------------------------------
# Gate-set levels: the kinds each level allows.  Every kind but MCRZ has a
# fixed control count, so a level's kinds also bound its controls.

_SINGLE_QUBIT = frozenset(k for k, a in CONTROL_ARITY.items() if a == 0)

HIGS = frozenset(GateKind) - {GateKind.RCCX}
MIGS = _SINGLE_QUBIT | {
    GateKind.CX, GateKind.CZ, GateKind.CY, GateKind.CS, GateKind.CSDG,
    GateKind.CRZ, GateKind.CCX, GateKind.RCCX, GateKind.CCRZ,
}
LOGS = frozenset({GateKind.RZ, GateKind.X, GateKind.H, GateKind.CX})


def conforms(circuit: Circuit, level: frozenset[GateKind]) -> bool:
    """True iff every gate's kind is in `level`."""
    return all(g.kind in level for g in circuit.gates)


# ---------------------------------------------------------------------------
# Census

# CX cost of each entangling kind under the fixed LoGS decompositions; with
# `mcrz_cx_cost` for MCRZ, the one CX price table.
FIXED_CX_COST = {
    GateKind.CCX: 6, GateKind.RCCX: 3, GateKind.CCRZ: 4, GateKind.CRZ: 2,
    GateKind.CS: 2, GateKind.CSDG: 2, GateKind.CZ: 1, GateKind.CY: 1, GateKind.CX: 1,
}


def mcrz_cx_cost(k: int) -> int:
    """CX cost of a k-controlled RZ under the reference ancilla-free scheme."""
    table = {1: 2, 2: 4, 3: 14, 4: 24, 5: 40, 6: 56, 7: 80}
    if k < 1:
        raise ValueError("k must be >= 1")
    return table[k] if k < 8 else 16 * k - 24


def census(circuit: Circuit) -> Counter[str]:
    """Count multi-qubit gates by kind name, an MCRZ with k controls as
    ``C{k}RZ``; single-qubit gates excluded."""
    return Counter(f"C{len(g.controls)}RZ" if g.kind is GateKind.MCRZ else g.kind.value
                   for g in circuit.gates if g.controls)


def naive_cx(circuit: Circuit) -> int:
    """The circuit's CX count after each gate takes its priced LoGS lowering."""
    return sum(mcrz_cx_cost(len(g.controls)) if g.kind is GateKind.MCRZ
               else FIXED_CX_COST.get(g.kind, 0) for g in circuit.gates)


def format_census(counts: Counter[str]) -> str:
    """``kind:count`` pairs in key order, comma-separated; empty for no gates."""
    return ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))


# ---------------------------------------------------------------------------
# Commutation

def gates_commute(a: Gate, b: Gate) -> bool:
    """Sound, conservative commutation check.

    Returns True only when the gate unitaries provably commute: when the
    gates are equal, or when every wire they share pairs the roles (see
    `Gate`) D with D, C or K, or C with C, or X with X.
    """
    return not (a.wires & b.wires & ~(
        (a.d_wires & b.z_wires) | (b.d_wires & a.z_wires)
        | (a.c_wires & b.c_wires) | (a.x_wires & b.x_wires))) or a == b


#: `gates_commute` behind a cache, for callers that ask about the same
#: pairs again and again.
commutes = functools.lru_cache(maxsize=1 << 20)(gates_commute)


# ---------------------------------------------------------------------------
# Serialization

def write_circuit(circuit: Circuit) -> bytes:
    """Canonical JSON document; round-trips through read_circuit.

    The text is exactly ``json.dumps(doc, indent=1) + "\n"`` for ``doc =
    {"num_qubits": ..., "num_ancillas": ..., "gates": [record, ...]}``, each
    record ``{"kind", "controls", "target"[, "angle"]}``, built directly
    rather than through json's pure-Python indenting encoder.  A gate whose
    angle is not a finite number, or an int too large for a float, raises
    `CircuitError`: read_circuit would refuse the document.
    """
    records = []
    for i, g in enumerate(circuit.gates):
        c = g.controls
        controls = "[\n    " + ",\n    ".join(map(str, c)) + "\n   ]" if c else "[]"
        angle = "" if g.angle is None else ',\n   "angle": ' + _angle_text(i, g.angle)
        # `_value_` is the member's value without the `value` property's lookup.
        records.append(f'  {{\n   "kind": "{g.kind._value_}",\n   "controls": {controls},'
                       f'\n   "target": {g.target}{angle}\n  }}')
    gates = "[\n" + ",\n".join(records) + "\n ]" if records else "[]"
    return (f'{{\n "num_qubits": {circuit.num_qubits},\n "num_ancillas": '
            f'{circuit.num_ancillas},\n "gates": {gates}\n}}\n').encode()


def _finite_angle(angle) -> bool:
    """Whether `angle` is a finite float or an int (not a bool) that a float
    can hold: what the reader accepts and the writer writes."""
    if isinstance(angle, bool) or not isinstance(angle, (int, float)):
        return False
    try:
        return math.isfinite(angle)
    except OverflowError:  # an int too large for a float
        return False


def _angle_text(i: int, angle) -> str:
    """The angle as json writes it: a finite float or an int through repr."""
    if isinstance(angle, float) and math.isfinite(angle):
        return float.__repr__(angle)
    if isinstance(angle, int) and _finite_angle(angle):
        return int.__repr__(angle)
    raise CircuitError(f"gate {i}: angle must be a finite number, got {angle!r}")


_KIND_BY_NAME = {k.value: k for k in GateKind}


def _is_qubit(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_gate(i: int, rec, num_qubits: int, built: dict) -> Gate:
    """Validate record `i` and return its gate, taken from `built` when an
    earlier record of the same document had the same values."""
    if not isinstance(rec, dict):
        raise ParseError(f"gate {i}: record must be an object")
    name = rec.get("kind")
    if not isinstance(name, str) or name not in _KIND_BY_NAME:
        raise UnsupportedGateError(f"gate {i}: unknown kind {name!r}")
    controls, target, angle = rec.get("controls", []), rec.get("target"), rec.get("angle")
    if not (isinstance(controls, list) and all(map(_is_qubit, controls))):
        raise ParseError(f"gate {i}: controls must be a list of integer qubit indices")
    if target is not None and not _is_qubit(target):
        raise ParseError(f"gate {i}: target must be an integer qubit index")
    if angle is not None and not _finite_angle(angle):
        raise ParseError(f"gate {i}: angle must be a finite number, got {angle!r}")
    # Validated, so no qubit in the key is a bool; the angle keys by its
    # repr, which tells 1 from 1.0 and 0.0 from -0.0.  A shared gate thus has
    # exactly the fields its own parse would give.
    key = (name, tuple(controls), target, None if angle is None else repr(angle))
    gate = built.get(key)
    if gate is not None:
        return gate
    # Before the gate exists: its wire masks take memory in proportion to
    # its highest wire.
    for q in (*controls, target) if target is not None else controls:
        if q >= num_qubits:
            raise ParseError(f"gate {i}: {name} touches qubit {q} >= num_qubits={num_qubits}")
    try:
        gate = built[key] = Gate(_KIND_BY_NAME[name], tuple(controls), target, angle)
    except CircuitError as exc:
        raise ParseError(f"gate {i}: {exc}") from exc
    return gate


def read_circuit(data: bytes | str) -> Circuit:
    """Parse a circuit document produced by write_circuit.

    Records with equal values share one `Gate`, built at the first of them.
    """
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
    try:
        header = Circuit(num_qubits, (), num_ancillas)
    except CircuitError as exc:
        raise ParseError(str(exc)) from exc
    built: dict = {}
    gates = [_parse_gate(i, rec, num_qubits, built) for i, rec in enumerate(records)]
    return header.with_gates(gates)


_QASM_NAMES = {
    GateKind.X: "x", GateKind.H: "h", GateKind.S: "s", GateKind.SDG: "sdg",
    GateKind.T: "t", GateKind.TDG: "tdg", GateKind.Z: "z", GateKind.RZ: "rz",
    GateKind.RX: "rx", GateKind.CX: "cx", GateKind.CZ: "cz", GateKind.CY: "cy",
    GateKind.CRZ: "crz", GateKind.CCX: "ccx",
}


def write_qasm(circuit: Circuit) -> str:
    """One-way OpenQASM-3-subset export; raises on kinds with no QASM name."""
    lines = ["OPENQASM 3;", f"qubit[{circuit.num_qubits}] q;"]
    for g in circuit.gates:
        name = _QASM_NAMES.get(g.kind)
        if name is None:
            raise UnsupportedGateError(
                f"{g.kind.value} has no QASM export; lower the circuit first")
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
