"""Circuit transformations: cancellation, certified rewrite rules, lowerings, pipelines.

All passes are pure ``Circuit -> Circuit`` functions that preserve the
unitary up to global phase (on the ancilla-zero subspace once ancillas
appear).  Scans are leftmost-first with lowest-qubit tie-breaks, so every
pass is deterministic.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass

from .build import (
    H2Order, PdeParams, WingStyle, build_one_step, build_steps,
    compose_steps, step_orders,
)
from .ir import (
    HIGS, LOGS, MIGS, ROTATION_KINDS, Circuit, CircuitError, Gate, GateKind,
    ccx, commutes, conforms, cs, csdg, cx, cz, gates_commute, h, inverse,
    rccx, rccx_decomposition, rz, s, sdg, t as tg, tdg, x,
)


class ConformanceError(CircuitError):
    """Input circuit does not conform to the pass's required gate-set level."""


class FixpointCapError(CircuitError):
    """A fixpoint loop used up ``MAX_SWEEPS`` without reaching its fixpoint."""


#: Rotations whose angle is at most this in magnitude are dropped.
ANGLE_TOLERANCE = 1e-10
#: Sweeps a fixpoint loop may make, the confirming one included.
MAX_SWEEPS = 64


# ---------------------------------------------------------------------------
# Commutation-aware cancellation

def cancel_adjacent(circuit: Circuit) -> Circuit:
    """Cancel inverse pairs and merge rotations across commuting gates, to fixpoint.

    A sweep goes left to right.  Each gate scans the gates after it for an
    inverse or merge partner, skipping gates off its wires and stopping at
    the first one it does not commute with; after a cancellation or merge
    the sweep steps back one gate.

    A scan that finds no partner marks its gate clean and registers the
    gate as a watcher of every gate it examined: those sharing one of its
    wires, up to and including the one that stopped it.  Only deleting or
    replacing one of those can change what the scan finds, and both mark
    the watchers dirty again.  A sweep scans only dirty gates and ends when
    none is left; a sweep that starts with none is the confirming sweep,
    which counts against `MAX_SWEEPS` like any other.
    """
    tol, cap = ANGLE_TOLERANCE, MAX_SWEEPS
    # A merge that reaches a zero angle drops its gate at once, so zero
    # rotations need dropping only here.
    gates = [g for g in circuit.gates
             if not (g.kind in ROTATION_KINDS and abs(g.angle) <= tol)]
    # Gates are known by a key that a merge renews; `watchers` holds the
    # keys of the live gates.
    keys = list(range(len(gates)))
    fresh = itertools.count(len(gates))
    watchers: dict[int, list[int]] = {key: [] for key in keys}
    dirty = set(keys)

    def retire(key: int) -> None:
        dirty.discard(key)
        dirty.update(w for w in watchers.pop(key) if w in watchers)

    def drop(pos: int) -> None:
        key = keys[pos]
        del gates[pos], keys[pos]
        retire(key)

    for _ in range(cap):
        changed = False
        i = 0
        while i < len(gates) and dirty:
            key = keys[i]
            if key not in dirty:
                i += 1
                continue
            g = gates[i]
            kind, controls, target, wires = g.kind, g.controls, g.target, g.wires
            rotation = kind in ROTATION_KINDS
            examined = []
            acted = False
            for j in range(i + 1, len(gates)):
                other = gates[j]
                # A gate off g's wires is no inverse or merge partner and
                # commutes with g; one with another target can only commute.
                if not wires & other.wires:
                    continue
                examined.append(keys[j])
                if other.target == target:
                    if rotation:
                        # A rotation's inverse is its merge to a zero angle.
                        if other.kind is kind and other.controls == controls:
                            drop(j)
                            angle = g.angle + other.angle
                            if abs(angle) <= tol:
                                drop(i)
                            else:
                                gates[i] = Gate(kind, controls, target, angle)
                                keys[i] = next(fresh)
                                watchers[keys[i]] = []
                                dirty.add(keys[i])
                                retire(key)
                            acted = True
                            break
                    elif g.inverse() == other:
                        drop(j)
                        drop(i)
                        acted = True
                        break
                if not gates_commute(g, other):
                    break
            if acted:
                changed = True
                i = max(i - 1, 0)
            else:
                dirty.discard(key)
                for seen in examined:
                    watchers[seen].append(key)
                i += 1
        if not changed:
            return circuit.with_gates(gates)
    raise FixpointCapError(f"cancel_adjacent: no fixpoint after {cap} sweeps")


# ---------------------------------------------------------------------------
# Rewrite rules

@dataclass(frozen=True)
class RewriteRule:
    """An oracle-certified equivalence between two small circuits.

    Construction raises `CircuitError` unless the rule certifies.
    """

    name: str
    pattern: Circuit
    replacement: Circuit

    def __post_init__(self):
        # The matcher looks for each pattern gate after the first only on
        # the wires of the gates before it.
        pattern = self.pattern.gates
        if not pattern:
            raise CircuitError(f"rule {self.name!r} has an empty pattern")
        seen = set(pattern[0].qubits)
        for g in pattern[1:]:
            if seen.isdisjoint(g.qubits):
                raise CircuitError(
                    f"rule {self.name!r}: pattern gate {g.kind.value} on {g.qubits} "
                    "shares no wire with the gates before it")
            seen.update(g.qubits)
        self.certify()

    def certify(self) -> None:
        """Exact unitary-equivalence check.

        Also refuses a replacement with as many entangling gates as the
        pattern or more: every rewrite must strictly lower the count, which
        is what bounds a rewrite sweep.
        """
        from . import sim  # the oracle, and numpy with it, load on first use
        dev = sim.phase_deviation(sim.unitary_of(self.pattern),
                                  sim.unitary_of(self.replacement))
        if dev > 1e-12:
            raise CircuitError(f"rule {self.name!r} failed certification: dev={dev:g}")
        n_pat = sum(1 for g in self.pattern.gates if g.is_entangling)
        n_rep = sum(1 for g in self.replacement.gates if g.is_entangling)
        if n_rep >= n_pat:
            raise CircuitError(f"rule {self.name!r} does not lower the entangling "
                               f"count ({n_pat} -> {n_rep})")


def _rule(name: str, wires: int, pattern: list[Gate], replacement: list[Gate]) -> RewriteRule:
    return RewriteRule(name, Circuit(wires, tuple(pattern)),
                       Circuit(wires, tuple(replacement)))


def _mirror(name: str, rule: RewriteRule) -> RewriteRule:
    """`rule` run backwards: if P = R then P^-1 = R^-1."""
    return _rule(name, rule.pattern.num_qubits, list(inverse(rule.pattern).gates),
                 list(inverse(rule.replacement).gates))


@functools.cache
def registry() -> dict[str, RewriteRule]:
    """The registered rules by name, built and certified on the first call."""
    # Three CX in a stair contract to two.
    stair = _rule("cx-stair", 3,
                  [cx(0, 2), cx(1, 2), cx(0, 1)],
                  [cx(0, 1), cx(1, 2)])
    # CZ/CX fusion: the pair becomes a single CX with phase dressing.
    fuse = _rule("cz-cx-fuse", 2,
                 [cz(0, 1), cx(0, 1)],
                 [sdg(1), cx(0, 1), s(1), sdg(0)])
    rules = [
        stair,
        _mirror("cx-stair-rev", stair),
        # An X on the control between two equal CX collapses them.
        _rule("cx-x-cx", 2,
              [cx(0, 1), x(0), cx(0, 1)],
              [x(0), x(1)]),
        # Two Toffolis around an X on a control collapse to one CX.
        _rule("ccx-x-ccx", 3,
              [ccx(0, 1, 2), x(1), ccx(0, 1, 2)],
              [x(1), cx(0, 2)]),
        fuse,
        _mirror("cx-cz-fuse", fuse),
    ]
    return {r.name: r for r in rules}


HIGS_RULE_NAMES = ("cx-stair", "cx-stair-rev", "cx-x-cx")
MIGS_RULE_NAMES = ("ccx-x-ccx",)
FUSION_RULE_NAMES = ("cz-cx-fuse", "cx-cz-fuse")


def rules_named(names) -> list[RewriteRule]:
    rules = registry()
    return [rules[n] for n in names]


def _match_gate(pattern_gate: Gate, gate: Gate, binding: dict[int, int]) -> list[dict[int, int]]:
    """Extensions of `binding` mapping the pattern gate onto `gate`.

    The controls of `gate` go onto the pattern's controls in every order,
    as `itertools.permutations(gate.controls)` lists them, and target onto
    target.  An extension keeps every wire `binding` fixes and maps no two
    pattern wires onto one wire.
    """
    if (pattern_gate.kind is not gate.kind or pattern_gate.angle != gate.angle
            or len(pattern_gate.controls) != len(gate.controls)):
        return []
    results = []
    targets = gate.qubits[len(gate.controls):]
    for controls in itertools.permutations(gate.controls):
        b = binding
        for pw, cw in zip(pattern_gate.qubits, controls + targets):
            if pw in b:
                if b[pw] != cw:
                    break
            elif cw in b.values():
                break
            else:
                b = {**b, pw: cw}
        else:
            results.append(b)
    return results


def _occurrence_key(p: Gate, binding: dict[int, int]):
    """The occurrence-index key under which every gate matching `p` under
    `binding` is listed: its kind with the bound target, else with the first
    bound control; None when `binding` fixes no wire of `p`."""
    if p.target in binding:
        return p.kind, True, binding[p.target]
    for c in p.controls:
        if c in binding:
            return p.kind, False, binding[c]
    return None


class _Unswept:
    """The gates a rewrite sweep has not passed yet, reversed: the next gate is last.

    A gate is known by its key, its place in `gates`.  `wires` maps each
    wire to the ascending keys of the gates on it; `occurrences` maps
    (kind, is_target, wire) to the ascending keys of the gates of that kind
    with `wire` as their target (True) or as a control (False), for the
    kinds that `rules` use after their first pattern gate, the only ones a
    lookup asks for.  A lower key is a later gate, and every lookup looks
    after the next gate, so moving the sweep on pops that gate's entries, a
    rewrite pops the keys of the span it replaces and pushes its body, and
    no other entry ever changes.
    """

    def __init__(self, gates, rules):
        self.kinds = {p.kind for rule in rules for p in rule.pattern.gates[1:]}
        self.gates: list[Gate] = []
        self.wires: dict[int, list[int]] = defaultdict(list)
        self.occurrences: dict[tuple[GateKind, bool, int], list[int]] = defaultdict(list)
        for g in reversed(gates):
            self.push(g)

    def push(self, g: Gate) -> None:
        """Make `g` the next gate."""
        key = len(self.gates)
        self.gates.append(g)
        for q in g.qubits:
            self.wires[q].append(key)
        if g.kind in self.kinds:
            self.occurrences[g.kind, True, g.target].append(key)
            for c in g.controls:
                self.occurrences[g.kind, False, c].append(key)

    def pop(self) -> Gate:
        """Remove the next gate and return it."""
        g = self.gates.pop()
        for q in g.qubits:
            self.wires[q].pop()
        if g.kind in self.kinds:
            self.occurrences[g.kind, True, g.target].pop()
            for c in g.controls:
                self.occurrences[g.kind, False, c].pop()
        return g

    def bindings(self, pattern) -> list[dict[int, int]]:
        """The bindings of `pattern[0]` to the next gate that the later gates may extend.

        Each pattern gate after the first is looked up after the hit of the
        one before, as a gate of its kind with a wire that the binding fixes
        in the same role (see `_occurrence_key`); a pattern gate with no wire
        bound is passed over.  A match maps every pattern gate onto such a
        gate, each later than the one before, so a lookup that finds nothing
        rules the binding out.
        """
        found = []
        for binding in _match_gate(pattern[0], self.gates[-1], {}):
            last = len(self.gates) - 1
            for p in pattern[1:]:
                key = _occurrence_key(p, binding)
                if key is None:
                    continue
                hits = self.occurrences.get(key, ())
                k = bisect.bisect_left(hits, last)
                if not k:
                    break
                last = hits[k - 1]
            else:
                found.append(binding)
        return found

    def find(self, pattern, bindings, gather: str):
        """The first match of `pattern` starting at the next gate, from one of `bindings`.

        Returns (keys, binding), the keys in circuit order, or None.  With
        gather "left" the matched gates are pulled together at the first
        one, so every skipped gate must commute with all matched gates after
        it; with gather "right" they collect at the last one and skipped
        gates must commute with all matched gates before them.  The skipped
        gates for a candidate are the unmatched gates between the first
        match and it.
        """
        first = len(self.gates) - 1
        for binding in bindings:
            found = self._extend(pattern, 1, [first], binding, gather)
            if found is not None:
                return found
        return None

    def _extend(self, pattern, p_idx, keys, binding, gather):
        if p_idx == len(pattern):
            return keys, binding
        p, gates, last = pattern[p_idx], self.gates, keys[-1]
        if gather == "left":
            # Only a gate listed under `p`'s occurrence key can match it, and
            # only skipped gates on its own wires can fail to commute with it.
            # A rule pattern is wire-connected, so `binding` fixes a wire of `p`.
            hits = self.occurrences.get(_occurrence_key(p, binding), ())
            for j in reversed(hits[:bisect.bisect_left(hits, last)]):
                g = gates[j]
                candidates = _match_gate(p, g, binding)
                if candidates and not all(
                        commutes(g, gates[k]) for q in g.qubits
                        for k in self.wires[q][bisect.bisect_right(self.wires[q], j):]
                        if k not in keys):
                    continue
                for nb in candidates:
                    found = self._extend(pattern, p_idx + 1, keys + [j], nb, gather)
                    if found is not None:
                        return found
            return None
        # A gate off the bound wires cannot match `p` and commutes with every
        # matched gate, so the walk visits the bound wires only, in circuit
        # order, and stops at the first gate there that does not commute.
        matched = [gates[k] for k in keys]
        runs = []
        for w in binding.values():
            # The keys on `w` below `last`, the earliest gate in the circuit first.
            on = self.wires[w]
            below = bisect.bisect_left(on, last)
            runs.append(itertools.islice(reversed(on), len(on) - below, None))
        # A gate on two bound wires comes twice in a row.
        for j, _ in itertools.groupby(heapq.merge(*runs, reverse=True)):
            g = gates[j]
            for nb in _match_gate(p, g, binding):
                found = self._extend(pattern, p_idx + 1, keys + [j], nb, gather)
                if found is not None:
                    return found
            if not all(commutes(g, m) for m in matched):
                return None
        return None


def _apply_binding(circ: Circuit, binding: dict[int, int]) -> list[Gate]:
    out = []
    for g in circ.gates:
        controls = tuple(binding[q] for q in g.controls)
        out.append(Gate(g.kind, controls, binding[g.target], g.angle))
    return out


def _first_match(unswept: _Unswept, rules: list[RewriteRule]):
    """The first match at the next gate as (rule, gather, keys, binding), or None.

    Rules are tried in order, each with gather "left" before "right"; a rule
    whose first pattern gate has another kind than the next gate is skipped.
    The first-gate bindings of a rule are found and prefiltered once, for
    both gathers.  `unswept` must index the kinds of `rules`.
    """
    kind = unswept.gates[-1].kind
    for rule in rules:
        pattern = rule.pattern.gates
        if pattern[0].kind is not kind:
            continue
        bindings = unswept.bindings(pattern)
        for gather in ("left", "right"):
            found = unswept.find(pattern, bindings, gather)
            if found is not None:
                return (rule, gather) + found
    return None


def _rewrite_sweep(gates: list[Gate], rules: list[RewriteRule]) -> tuple[list[Gate], int]:
    """One left-to-right sweep applying every match it meets.

    After a rewrite the sweep tries again at the same start, where the
    spliced-in body begins.  Returns the rewritten gates and the number of
    rewrites.  Every certified rule strictly lowers the entangling count, so
    a sweep makes at most as many rewrites as `gates` has entangling gates.
    The gates not yet passed are indexed once (see `_Unswept`); a rewrite
    starts at the next gate, so it only pops and pushes index entries.
    """
    unswept = _Unswept(gates, rules)
    swept: list[Gate] = []
    rewrites = 0
    while unswept.gates:
        found = _first_match(unswept, rules)
        if found is None:
            swept.append(unswept.pop())
            continue
        rule, gather, keys, binding = found
        replacement = _apply_binding(rule.replacement, binding)
        matched = set(keys)
        # The span from the next gate to the last matched one, in circuit order.
        span = [(k, unswept.pop()) for k in range(keys[0], keys[-1] - 1, -1)]
        middle = [g for k, g in span if k not in matched]
        body = replacement + middle if gather == "left" else middle + replacement
        for g in reversed(body):
            unswept.push(g)
        rewrites += 1
    return swept, rewrites


def apply_rules(circuit: Circuit, rules: list[RewriteRule]) -> Circuit:
    """Interleave rewrite sweeps with cancellation until a sweep rewrites nothing.

    `MAX_SWEEPS` bounds the sweeps, the confirming one included.
    """
    cap = MAX_SWEEPS
    circ = cancel_adjacent(circuit)
    for _ in range(cap):
        rewritten, rewrites = _rewrite_sweep(list(circ.gates), rules)
        if not rewrites:
            return circ
        circ = cancel_adjacent(circ.with_gates(rewritten))
    raise FixpointCapError(f"apply_rules: no fixpoint after {cap} sweeps")


def simplify(circuit: Circuit, rule_names) -> Circuit:
    return apply_rules(circuit, rules_named(rule_names))


# ---------------------------------------------------------------------------
# Lowerings

def lower_vchain(circuit: Circuit) -> Circuit:
    """HiGS -> MiGS: expand every k>=3-controlled RZ with the CCRZ-keeping vchain.

    One shared clean-ancilla pool serves every site; each site computes a
    conjunction chain with 2(k-2) Toffolis and rotates via one CCRZ.
    """
    if not conforms(circuit, HIGS):
        raise ConformanceError("lower_vchain expects a HiGS circuit")
    max_k = max((len(g.controls) for g in circuit.gates
                 if g.kind is GateKind.MCRZ), default=0)
    pool = max(max_k - 2, 0)
    width = circuit.num_qubits + pool
    anc = list(range(circuit.num_qubits, width))
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is not GateKind.MCRZ:
            out.append(g)
            continue
        controls = g.controls
        k = len(controls)
        chain = [ccx(controls[0], controls[1], anc[0])]
        chain += [ccx(controls[i + 1], anc[i - 1], anc[i]) for i in range(1, k - 2)]
        out.extend(chain)
        out.append(Gate(GateKind.CCRZ, (controls[-1], anc[k - 3]), g.target, g.angle))
        out.extend(reversed(chain))
    return Circuit(width, tuple(out), circuit.num_ancillas + pool)


def replace_ccx_with_rccx(circuit: Circuit) -> Circuit:
    """Strength-reduce conjugate Toffoli pairs to relative-phase Toffolis.

    Each CCX of a same-support pair is swapped for an exact RCCX-based
    equivalent whose CS/CZ phase corrections face inward; the corrections
    then cancel wherever the gates between them are diagonal or only read
    the correction qubits.  Unpaired Toffolis are left alone.
    """
    if not conforms(circuit, MIGS):
        raise ConformanceError("replace_ccx_with_rccx expects a MiGS circuit")
    gates = list(circuit.gates)
    paired: dict[int, tuple[str, int]] = {}
    open_stack: dict[tuple, list[int]] = {}
    for idx, g in enumerate(gates):
        if g.kind is not GateKind.CCX:
            continue
        key = (g.controls, g.target)
        stack = open_stack.setdefault(key, [])
        if stack:
            left = stack.pop()
            # Put the CZ correction on the control whose (control, target)
            # pair already carries a CX inside the gap, so the leftover CZ
            # can fuse with it; otherwise the corrections meet and cancel.
            c1 = max(g.controls)
            for mid in gates[left + 1:idx]:
                if (mid.kind is GateKind.CX and mid.target == g.target
                        and mid.controls[0] in g.controls):
                    c1 = mid.controls[0]
                    break
            paired[left] = ("left", c1)
            paired[idx] = ("right", c1)
        else:
            stack.append(idx)
    out: list[Gate] = []
    for idx, g in enumerate(gates):
        if idx not in paired:
            out.append(g)
            continue
        side, c1 = paired[idx]
        c2 = next(c for c in g.controls if c != c1)
        t = g.target
        if side == "left":
            out += [rccx(c1, c2, t), cs(c1, c2), cz(c1, t)]
        else:
            out += [csdg(c1, c2), cz(c1, t), rccx(c1, c2, t)]
    return apply_rules(circuit.with_gates(out), rules_named(FUSION_RULE_NAMES))


# Fixed LoGS decompositions; tests check each against the oracle.

def _ccx_logs(c1: int, c2: int, t: int) -> list[Gate]:
    return [h(t), cx(c2, t), tdg(t), cx(c1, t), tg(t), cx(c2, t), tdg(t),
            cx(c1, t), tg(c2), tg(t), h(t), cx(c1, c2), tg(c1), tdg(c2),
            cx(c1, c2)]


_RZ_EQUIV = {GateKind.Z: math.pi, GateKind.S: math.pi / 2,
             GateKind.SDG: -math.pi / 2, GateKind.T: math.pi / 4,
             GateKind.TDG: -math.pi / 4}


def _lower_gate_logs(g: Gate) -> list[Gate]:
    """Fixed LoGS decomposition of one gate, with S/T/Z-family gates as RZ."""
    kind = g.kind
    if kind in LOGS or kind in _RZ_EQUIV:
        parts = [g]
    elif kind is GateKind.RX:
        parts = [h(g.target), rz(g.target, g.angle), h(g.target)]
    elif kind is GateKind.CZ:
        (c,), t = g.controls, g.target
        parts = [h(t), cx(c, t), h(t)]
    elif kind is GateKind.CY:
        (c,), t = g.controls, g.target
        parts = [sdg(t), cx(c, t), s(t)]
    elif kind in (GateKind.CS, GateKind.CSDG):
        sign = 1 if kind is GateKind.CS else -1
        parts = [rz(g.controls[0], sign * math.pi / 4),
                 *gray_mcrz(g.controls, g.target, sign * math.pi / 2)]
    elif kind in (GateKind.CRZ, GateKind.CCRZ, GateKind.MCRZ):
        parts = gray_mcrz(g.controls, g.target, g.angle)
    elif kind is GateKind.CCX:
        parts = _ccx_logs(*g.controls, g.target)
    elif kind is GateKind.RCCX:
        parts = list(rccx_decomposition(*g.controls, g.target))
    else:
        raise ConformanceError(f"no LoGS decomposition for {kind.value}")
    return [rz(p.target, _RZ_EQUIV[p.kind]) if p.kind in _RZ_EQUIV else p
            for p in parts]


def gray_mcrz(controls: tuple[int, ...], target: int, theta: float) -> list[Gate]:
    """Ancilla-free k-controlled RZ as a 2^k-CX gray-code multiplexed rotation."""
    k = len(controls)
    if k == 0:
        return [rz(target, theta)]
    size = 2 ** k
    # Rotation angles are the Walsh coefficients of the all-ones selector.
    gates: list[Gate] = []
    for i in range(size):
        gray = i ^ (i >> 1)
        sign = (-1) ** bin(gray).count("1")
        gates.append(rz(target, sign * theta / size))
        next_gray = ((i + 1) % size) ^ (((i + 1) % size) >> 1)
        changed = gray ^ next_gray
        gates.append(cx(controls[changed.bit_length() - 1], target))
    return gates


def decompose_to_logs(circuit: Circuit) -> Circuit:
    """Any circuit -> LoGS without ancillas or optimization.

    Every gate takes its fixed decomposition (`_lower_gate_logs`), every
    controlled Z-rotation a gray-code multiplexed one (`gray_mcrz`).  This is
    the DETO lowering.  Each distinct gate is lowered once: equal gates share
    their output gates.
    """
    lowered: dict[Gate, list[Gate]] = {}
    out: list[Gate] = []
    for g in circuit.gates:
        parts = lowered.get(g)
        if parts is None:
            parts = lowered[g] = _lower_gate_logs(g)
        out.extend(parts)
    return circuit.with_gates(out)


def lower_to_logs(circuit: Circuit) -> Circuit:
    """MiGS -> LoGS with the fixed, certified decompositions; no optimization."""
    if not conforms(circuit, MIGS):
        raise ConformanceError("lower_to_logs expects a MiGS circuit")
    return decompose_to_logs(circuit)


def optimize_logs(circuit: Circuit) -> Circuit:
    """LoGS cleanup: cancel inverse pairs and merge rotations; never adds a gate."""
    if not conforms(circuit, LOGS):
        raise ConformanceError("optimize_logs expects a LoGS circuit")
    return cancel_adjacent(circuit)


# ---------------------------------------------------------------------------
# Pipelines

@dataclass(frozen=True)
class Stage:
    name: str
    circuit: Circuit
    seconds: float = 0.0


# The passes in level order, as (stage name, pass).  Each entry looks its
# pass up in this module when it runs, so a pass replaced on the module is
# the one that runs.
MLCO_PASSES = (
    ("HiGS simplified", lambda c: simplify(c, HIGS_RULE_NAMES)),
    ("MiGS input", lambda c: lower_vchain(c)),
    ("MiGS simplified", lambda c: simplify(c, MIGS_RULE_NAMES)),
    ("MiGS replaced", lambda c: replace_ccx_with_rccx(c)),
    ("LoGS input", lambda c: lower_to_logs(c)),
    ("LoGS target", lambda c: optimize_logs(c)),
)
DETO_PASSES = (
    ("LoGS input", lambda c: decompose_to_logs(c)),
    ("LoGS target", lambda c: optimize_logs(c)),
)


def run_passes(circuit: Circuit, named_passes,
               prefix: str = "") -> tuple[Circuit, list[Stage]]:
    """Run `named_passes` in order; returns the last circuit and a timed stage per pass."""
    stages: list[Stage] = []
    for name, run in named_passes:
        tick = time.perf_counter()
        circuit = run(circuit)
        stages.append(Stage(prefix + name, circuit, time.perf_counter() - tick))
    return circuit, stages


def pipeline_mlco(params: PdeParams, steps: int,
                  style: WingStyle) -> tuple[Circuit, list[Stage]]:
    """Full multilevel pipeline; returns the LoGS circuit and its stages.

    Each distinct step is built and simplified through MiGS once; the
    stages of the first step come first, then those of the composed steps.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    orders = step_orders(steps)
    one_step: dict[H2Order, tuple[Circuit, list[Stage]]] = {}
    for order in dict.fromkeys(orders):
        tick = time.perf_counter()
        source = build_one_step(params, style, order)
        built = Stage("1-step source", source, time.perf_counter() - tick)
        simplified, chain = run_passes(source, MLCO_PASSES[:3], "1-step ")
        one_step[order] = simplified, [built] + chain
    stages = one_step[orders[0]][1]
    tick = time.perf_counter()
    composed = compose_steps([one_step[o][0] for o in orders])
    if steps > 1:
        stages.append(Stage(f"{steps}-step MiGS composed", composed,
                            time.perf_counter() - tick))
    # A single step's own chain already ends with the MiGS simplification.
    todo = MLCO_PASSES[2:] if steps > 1 else MLCO_PASSES[3:]
    final, rest = run_passes(composed, todo, f"{steps}-step ")
    return final, stages + rest


def pipeline_deto(params: PdeParams, steps: int,
                  style: WingStyle) -> tuple[Circuit, list[Stage]]:
    """Decompose-then-optimize baseline; returns the LoGS circuit and its stages.

    Every backbone is gray-code-decomposed ancilla-free, then the result is
    cleaned up.  Its cost model is the source's `naive_cx`.
    """
    return run_passes(build_steps(params, steps, style), DETO_PASSES)
