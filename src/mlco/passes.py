"""Circuit transformations: cancellation, certified rewrite rules, lowerings, pipelines.

All passes are pure ``Circuit -> Circuit`` functions that preserve the
unitary up to global phase (on the ancilla-zero subspace once ancillas
appear).  Scans are leftmost-first with lowest-qubit tie-breaks, so every
pass is deterministic.
"""

from __future__ import annotations

import bisect
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import sim
from .build import (
    H2Order, PdeParams, WingStyle, build_one_step, build_steps,
    compose_steps, step_orders,
)
from .ir import (
    HIGS, LOGS, MIGS, ROTATION_KINDS, Circuit, CircuitError, Gate, GateKind,
    ccx, census, commutes, conforms, cs, csdg, cx, cz, h,
    rccx, rccx_decomposition, rz, s, sdg, x,
)


class ConformanceError(CircuitError):
    """Input circuit does not conform to the pass's required gate-set level."""


class FixpointCapError(CircuitError):
    """A fixpoint loop used up ``max_fixpoint_iterations`` without reaching its fixpoint."""


@dataclass(frozen=True)
class PassConfig:
    angle_merge_tolerance: float = 1e-10
    max_fixpoint_iterations: int = 64
    enabled_rules: frozenset[str] | None = None  # None = all registered rules

    def __post_init__(self):
        tol, cap = self.angle_merge_tolerance, self.max_fixpoint_iterations
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
                or not math.isfinite(tol):
            raise ValueError(f"tolerance must be a finite number, got {tol!r}")
        if tol < 0:
            raise ValueError("tolerance must be >= 0")
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"iteration cap must be an integer, got {cap!r}")
        if cap < 1:
            raise ValueError("iteration cap must be >= 1")

    @classmethod
    def from_json(cls, data: bytes | str) -> "PassConfig":
        doc = json.loads(data)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        rules = doc.get("enabled_rules")
        if rules is not None:
            if not (isinstance(rules, list) and all(isinstance(r, str) for r in rules)):
                raise ValueError("enabled_rules must be a list of rule names")
            unknown = sorted(set(rules) - set(RULES))
            if unknown:
                raise ValueError(f"enabled_rules names unknown rules: {', '.join(unknown)}")
        return cls(
            angle_merge_tolerance=doc.get("angle_merge_tolerance", 1e-10),
            max_fixpoint_iterations=doc.get("max_fixpoint_iterations", 64),
            enabled_rules=None if rules is None else frozenset(rules),
        )


DEFAULT_CONFIG = PassConfig()


# ---------------------------------------------------------------------------
# Commutation-aware cancellation

def _merged(a: Gate, b: Gate) -> Gate | None:
    """Merge candidate for two rotations of the same kind on the same support."""
    if (a.kind is b.kind and a.kind in ROTATION_KINDS
            and frozenset(a.controls) == frozenset(b.controls)
            and a.target == b.target):
        return Gate(a.kind, a.controls, a.target, a.angle + b.angle)
    return None


def _inverse_pair(a: Gate, b: Gate) -> bool:
    inv = a.inverse()
    return isinstance(inv, Gate) and inv == b


def cancel_adjacent(circuit: Circuit, config: PassConfig = DEFAULT_CONFIG) -> Circuit:
    """Cancel inverse pairs and merge rotations across commuting gates, to fixpoint."""
    tol, cap = config.angle_merge_tolerance, config.max_fixpoint_iterations
    gates = [g for g in circuit.gates if g.kind is not GateKind.BARRIER]
    for _ in range(cap):
        changed = False
        gates = [g for g in gates
                 if not (g.kind in ROTATION_KINDS and abs(g.angle) <= tol)]
        i = 0
        while i < len(gates):
            g = gates[i]
            wires = set(g.qubits)
            j = i + 1
            acted = False
            while j < len(gates):
                other = gates[j]
                # A gate off g's wires is no inverse or merge partner and
                # commutes with g; one with another target can only commute.
                if wires.isdisjoint(other.qubits):
                    j += 1
                    continue
                if other.target == g.target:
                    if _inverse_pair(g, other):
                        del gates[j], gates[i]
                        acted = True
                        break
                    merged = _merged(g, other)
                    if merged is not None:
                        del gates[j]
                        if abs(merged.angle) <= tol:
                            del gates[i]
                        else:
                            gates[i] = merged
                        acted = True
                        break
                if not commutes(g, other):
                    break
                j += 1
            if acted:
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        if not changed:
            return circuit.with_gates(gates)
    raise FixpointCapError(f"cancel_adjacent: no fixpoint after {cap} sweeps "
                           f"(max_fixpoint_iterations={cap})")


# ---------------------------------------------------------------------------
# Rewrite rules

@dataclass(frozen=True)
class RewriteRule:
    """An oracle-certified equivalence between two small circuits."""

    name: str
    pattern: Circuit
    replacement: Circuit
    certified: bool = False

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

    def certify(self) -> "RewriteRule":
        """Exact unitary-equivalence check; refuses entangling-count regressions."""
        up = sim.unitary_of(self.pattern)
        ur = sim.unitary_of(self.replacement)
        dev = np.abs(sim.align_phase(up, ur) - ur).max()
        if dev > 1e-12:
            raise CircuitError(f"rule {self.name!r} failed certification: dev={dev:g}")
        n_pat = sum(1 for g in self.pattern.gates if g.is_entangling)
        n_rep = sum(1 for g in self.replacement.gates if g.is_entangling)
        if n_rep > n_pat:
            raise CircuitError(f"rule {self.name!r} increases entangling count")
        return RewriteRule(self.name, self.pattern, self.replacement, True)


def _rule(name: str, wires: int, pattern: list[Gate], replacement: list[Gate]) -> RewriteRule:
    return RewriteRule(name, Circuit(wires, tuple(pattern)),
                       Circuit(wires, tuple(replacement))).certify()


def _build_registry() -> dict[str, RewriteRule]:
    rules = [
        # Three CX in a stair contract to two.
        _rule("cx-stair", 3,
              [cx(0, 2), cx(1, 2), cx(0, 1)],
              [cx(0, 1), cx(1, 2)]),
        _rule("cx-stair-rev", 3,
              [cx(0, 1), cx(1, 2), cx(0, 2)],
              [cx(1, 2), cx(0, 1)]),
        # An X on the control between two equal CX collapses them.
        _rule("cx-x-cx", 2,
              [cx(0, 1), x(0), cx(0, 1)],
              [x(0), x(1)]),
        # Two Toffolis around an X on a control collapse to one CX.
        _rule("ccx-x-ccx", 3,
              [ccx(0, 1, 2), x(1), ccx(0, 1, 2)],
              [x(1), cx(0, 2)]),
        # CZ/CX fusion: the pair becomes a single CX with phase dressing.
        _rule("cz-cx-fuse", 2,
              [cz(0, 1), cx(0, 1)],
              [sdg(1), cx(0, 1), s(1), sdg(0)]),
        _rule("cx-cz-fuse", 2,
              [cx(0, 1), cz(0, 1)],
              [sdg(1), cx(0, 1), s(1), s(0)]),
    ]
    return {r.name: r for r in rules}


RULES: dict[str, RewriteRule] = _build_registry()

HIGS_RULE_NAMES = ("cx-stair", "cx-stair-rev", "cx-x-cx")
MIGS_RULE_NAMES = ("ccx-x-ccx",)
FUSION_RULE_NAMES = ("cz-cx-fuse", "cx-cz-fuse")


def rules_named(names) -> list[RewriteRule]:
    return [RULES[n] for n in names]


def _match_gate(pattern_gate: Gate, gate: Gate, binding: dict[int, int]) -> list[dict[int, int]]:
    """Extensions of `binding` mapping the pattern gate onto `gate`."""
    if pattern_gate.kind is not gate.kind or pattern_gate.angle != gate.angle:
        return []
    if len(pattern_gate.controls) != len(gate.controls):
        return []
    results: list[dict[int, int]] = []

    def assign(b: dict[int, int], pw: int, cw: int) -> dict[int, int] | None:
        if pw in b:
            return b if b[pw] == cw else None
        if cw in b.values():
            return None
        out = dict(b)
        out[pw] = cw
        return out

    def walk(b: dict[int, int], remaining_p: list[int], remaining_c: list[int]):
        if not remaining_p:
            done = assign(b, pattern_gate.target, gate.target) \
                if pattern_gate.target is not None else b
            if done is not None:
                results.append(done)
            return
        pw = remaining_p[0]
        for k, cw in enumerate(remaining_c):
            nb = assign(b, pw, cw)
            if nb is not None:
                walk(nb, remaining_p[1:], remaining_c[:k] + remaining_c[k + 1:])

    walk(binding, list(pattern_gate.controls), list(gate.controls))
    return results


def _wire_index(gates: list[Gate]) -> dict[int, list[int]]:
    """For each wire, the ascending positions of the gates touching it."""
    index: dict[int, list[int]] = {}
    for pos, g in enumerate(gates):
        for q in g.qubits:
            index.setdefault(q, []).append(pos)
    return index


def _positions_on(index: dict[int, list[int]], wires, after: int) -> list[int]:
    """Ascending positions after `after` of the gates touching any of `wires`."""
    return sorted(set().union(*(index[w][bisect.bisect_right(index[w], after):]
                                for w in wires)))


def _find_match(gates: list[Gate], rule: RewriteRule, start: int, gather: str,
                index: dict[int, list[int]] | None = None):
    """Leftmost match of `rule.pattern` with commuting gates allowed in between.

    Returns (positions, binding) or None.  With gather "left" the matched
    gates are pulled together at the first position, so every skipped gate
    must commute with all matched gates after it; with gather "right" they
    collect at the last position and skipped gates must commute with all
    matched gates before them.

    The skipped gates for a candidate at position j are the unmatched gates
    strictly between the first match and j.  The left-gather commutation
    check against them runs only for a candidate that matches the next
    pattern gate, since no other gate can extend the match.

    Candidates are visited through `index` (see `_wire_index`, built from
    `gates` when not given), on the wires already bound only.  A rule
    pattern is wire-connected, so a gate off those wires never matches, and
    it commutes with every matched gate, so it never stops a right gather.
    `gates` must be barrier-free, as `apply_rules` makes them.
    """
    if index is None:
        index = _wire_index(gates)
    pattern = rule.pattern.gates
    for binding in _match_gate(pattern[0], gates[start], {}):
        found = _extend(gates, index, pattern, 1, [start], binding, gather)
        if found is not None:
            return found
    return None


def _extend(gates, index, pattern, p_idx, positions, binding, gather):
    if p_idx == len(pattern):
        return positions, binding
    matched = [gates[p] for p in positions]
    for j in _positions_on(index, binding.values(), positions[-1]):
        g = gates[j]
        candidates = _match_gate(pattern[p_idx], g, binding)
        if candidates and gather == "left":
            # Only skipped gates sharing a wire can fail to commute.
            wires = set(g.qubits)
            skipped = (gates[k] for k in range(positions[0] + 1, j) if k not in positions)
            if not all(commutes(g, sk) for sk in skipped if not wires.isdisjoint(sk.qubits)):
                candidates = []
        for nb in candidates:
            found = _extend(gates, index, pattern, p_idx + 1, positions + [j], nb, gather)
            if found is not None:
                return found
        if gather == "right" and not all(commutes(g, m) for m in matched):
            return None
    return None


def _apply_binding(circ: Circuit, binding: dict[int, int]) -> list[Gate]:
    out = []
    for g in circ.gates:
        controls = tuple(binding[q] for q in g.controls)
        target = binding[g.target] if g.target is not None else None
        out.append(Gate(g.kind, controls, target, g.angle))
    return out


def _rewrite_once(gates: list[Gate], rules: list[RewriteRule]) -> list[Gate] | None:
    index = _wire_index(gates)
    for i in range(len(gates)):
        for rule in rules:
            for gather in ("left", "right"):
                found = _find_match(gates, rule, i, gather, index)
                if found is None:
                    continue
                positions, binding = found
                replacement = _apply_binding(rule.replacement, binding)
                pos_set = set(positions)
                middle = [gates[k] for k in range(positions[0], positions[-1] + 1)
                          if k not in pos_set]
                if gather == "left":
                    body = replacement + middle
                else:
                    body = middle + replacement
                return gates[:positions[0]] + body + gates[positions[-1] + 1:]
    return None


def apply_rules(circuit: Circuit, rules: list[RewriteRule],
                config: PassConfig = DEFAULT_CONFIG) -> Circuit:
    """Interleave rule rewriting with cancellation until a fixed point."""
    for rule in rules:
        if not rule.certified:
            raise CircuitError(f"rule {rule.name!r} is not certified")
    if config.enabled_rules is not None:
        rules = [r for r in rules if r.name in config.enabled_rules]
    cap = config.max_fixpoint_iterations
    circ = cancel_adjacent(circuit, config)
    for _ in range(cap):
        rewritten = _rewrite_once(list(circ.gates), rules)
        if rewritten is None:
            return circ
        circ = cancel_adjacent(circ.with_gates(rewritten), config)
    raise FixpointCapError(f"apply_rules: no fixpoint after {cap} rewrites "
                           f"(max_fixpoint_iterations={cap})")


def simplify(circuit: Circuit, rule_names, config: PassConfig = DEFAULT_CONFIG) -> Circuit:
    return apply_rules(circuit, rules_named(rule_names), config)


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
        controls = sorted(g.controls)
        k = len(controls)
        chain = [ccx(controls[0], controls[1], anc[0])]
        chain += [ccx(controls[i + 1], anc[i - 1], anc[i]) for i in range(1, k - 2)]
        out.extend(chain)
        out.append(Gate(GateKind.CCRZ, (controls[-1], anc[k - 3]), g.target, g.angle))
        out.extend(reversed(chain))
    return Circuit(width, tuple(out), circuit.num_ancillas + pool)


def replace_ccx_with_rccx(circuit: Circuit,
                          config: PassConfig = DEFAULT_CONFIG) -> Circuit:
    """Strength-reduce conjugate Toffoli pairs to relative-phase Toffolis.

    Each CCX of a same-support pair is swapped for an exact RCCX-based
    equivalent whose CS/CZ phase corrections face inward; the corrections
    then cancel wherever the gates between them are diagonal or only read
    the correction qubits.  Unpaired Toffolis are left alone.
    """
    if not conforms(circuit, MIGS):
        raise ConformanceError("replace_ccx_with_rccx expects a MiGS circuit")
    gates = list(circuit.without_barriers().gates)
    paired: dict[int, tuple[str, int]] = {}
    open_stack: dict[tuple, list[int]] = {}
    for idx, g in enumerate(gates):
        if g.kind is not GateKind.CCX:
            continue
        key = (frozenset(g.controls), g.target)
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
    simplified = cancel_adjacent(circuit.with_gates(out), config)
    return apply_rules(simplified, rules_named(FUSION_RULE_NAMES), config)


# Fixed LoGS decompositions, each certified once at import time.

def _ccx_logs(c1: int, c2: int, t: int) -> list[Gate]:
    from .ir import t as tg, tdg, h as hg
    return [hg(t), cx(c2, t), tdg(t), cx(c1, t), tg(t), cx(c2, t), tdg(t),
            cx(c1, t), tg(c2), tg(t), hg(t), cx(c1, c2), tg(c1), tdg(c2),
            cx(c1, c2)]


def _crz_logs(c: int, t: int, theta: float) -> list[Gate]:
    return [rz(t, theta / 2), cx(c, t), rz(t, -theta / 2), cx(c, t)]


def _ccrz_logs(c1: int, c2: int, t: int, theta: float) -> list[Gate]:
    # Gray-code multiplexed rotation: four CX, four quarter-angle RZ.
    return [rz(t, theta / 4), cx(c1, t), rz(t, -theta / 4), cx(c2, t),
            rz(t, theta / 4), cx(c1, t), rz(t, -theta / 4), cx(c2, t)]


_RZ_EQUIV = {GateKind.Z: math.pi, GateKind.S: math.pi / 2,
             GateKind.SDG: -math.pi / 2, GateKind.T: math.pi / 4,
             GateKind.TDG: -math.pi / 4}


def _lower_gate_logs(g: Gate) -> list[Gate]:
    """Fixed LoGS decomposition of one gate, with S/T/Z-family gates as RZ."""
    kind = g.kind
    if kind in LOGS.allowed_kinds or kind in _RZ_EQUIV:
        parts = [g]
    elif kind is GateKind.RX:
        parts = [h(g.target), rz(g.target, g.angle), h(g.target)]
    elif kind is GateKind.CZ:
        (c,), t = g.controls, g.target
        parts = [h(t), cx(c, t), h(t)]
    elif kind is GateKind.CY:
        (c,), t = g.controls, g.target
        parts = [sdg(t), cx(c, t), s(t)]
    elif kind is GateKind.CS:
        (c,), t = g.controls, g.target
        parts = [rz(c, math.pi / 4)] + _crz_logs(c, t, math.pi / 2)
    elif kind is GateKind.CSDG:
        (c,), t = g.controls, g.target
        parts = [rz(c, -math.pi / 4)] + _crz_logs(c, t, -math.pi / 2)
    elif kind is GateKind.CRZ:
        parts = _crz_logs(g.controls[0], g.target, g.angle)
    elif kind is GateKind.CCRZ:
        parts = _ccrz_logs(*g.controls, g.target, g.angle)
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
    if k == 1:
        return _crz_logs(controls[0], target, theta)
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

    Every MCRZ becomes a gray-code multiplexed rotation (`gray_mcrz`); every
    other gate takes its fixed decomposition.  This is the DETO lowering.
    """
    out: list[Gate] = []
    for g in circuit.without_barriers().gates:
        if g.kind is GateKind.MCRZ:
            out.extend(gray_mcrz(g.controls, g.target, g.angle))
        else:
            out.extend(_lower_gate_logs(g))
    return circuit.with_gates(out)


def lower_to_logs(circuit: Circuit) -> Circuit:
    """MiGS -> LoGS with the fixed, certified decompositions; no optimization."""
    if not conforms(circuit, MIGS):
        raise ConformanceError("lower_to_logs expects a MiGS circuit")
    return decompose_to_logs(circuit)


def optimize_logs(circuit: Circuit, config: PassConfig = DEFAULT_CONFIG) -> Circuit:
    """LoGS cleanup: cancel inverse pairs and merge rotations; never adds a gate."""
    if not conforms(circuit, LOGS):
        raise ConformanceError("optimize_logs expects a LoGS circuit")
    return cancel_adjacent(circuit, config)


# ---------------------------------------------------------------------------
# Pipelines

@dataclass(frozen=True)
class Stage:
    name: str
    circuit: Circuit
    seconds: float = 0.0


# The passes in level order, as (stage name, pass); every pass takes
# (circuit, config).  Each entry looks its pass up in this module when it
# runs, so a pass replaced on the module is the one that runs.
MLCO_PASSES = (
    ("HiGS simplified", lambda c, config: simplify(c, HIGS_RULE_NAMES, config)),
    ("MiGS input", lambda c, config: lower_vchain(c)),
    ("MiGS simplified", lambda c, config: simplify(c, MIGS_RULE_NAMES, config)),
    ("MiGS replaced", lambda c, config: replace_ccx_with_rccx(c, config)),
    ("LoGS input", lambda c, config: lower_to_logs(c)),
    ("LoGS target", lambda c, config: optimize_logs(c, config)),
)
DETO_PASSES = (
    ("LoGS input", lambda c, config: decompose_to_logs(c)),
    ("LoGS target", lambda c, config: optimize_logs(c, config)),
)


def run_passes(circuit: Circuit, named_passes, prefix: str = "",
               config: PassConfig = DEFAULT_CONFIG) -> tuple[Circuit, list[Stage]]:
    """Run `named_passes` in order; returns the last circuit and a timed stage per pass."""
    stages: list[Stage] = []
    for name, run in named_passes:
        tick = time.perf_counter()
        circuit = run(circuit, config)
        stages.append(Stage(prefix + name, circuit, time.perf_counter() - tick))
    return circuit, stages


def pipeline_mlco(params: PdeParams, steps: int, style: WingStyle,
                  config: PassConfig = DEFAULT_CONFIG) -> tuple[Circuit, list[Stage]]:
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
        source = build_one_step(params, style, order).without_barriers()
        built = Stage("1-step source", source, time.perf_counter() - tick)
        simplified, chain = run_passes(source, MLCO_PASSES[:3], "1-step ", config)
        one_step[order] = simplified, [built] + chain
    stages = one_step[orders[0]][1]
    tick = time.perf_counter()
    composed = compose_steps([one_step[o][0] for o in orders])
    if steps > 1:
        stages.append(Stage(f"{steps}-step MiGS composed", composed,
                            time.perf_counter() - tick))
    final, rest = run_passes(composed, MLCO_PASSES[2:], f"{steps}-step ", config)
    return final, stages + rest


def pipeline_deto(params: PdeParams, steps: int, style: WingStyle,
                  mode: str = "cost-model",
                  config: PassConfig = DEFAULT_CONFIG):
    """Decompose-then-optimize baseline.

    cost-model: returns (None, predicted CX count), the naive-lowered CX of
    the source steps.  executable: gray-code-decomposes every backbone
    ancilla-free, optimizes, and returns (circuit, CX count); counts differ
    from the cost model by design.
    """
    if mode == "cost-model":
        step = census(build_one_step(params, style))
        return None, steps * step.total_cx_after_naive_lowering
    if mode != "executable":
        raise ValueError(f"unknown DETO mode {mode!r}")
    optimized, _ = run_passes(build_steps(params, steps, style), DETO_PASSES,
                              config=config)
    return optimized, census(optimized)["CX"]
