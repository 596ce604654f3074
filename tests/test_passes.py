"""Rewrite rules, lowerings, and pipeline stages."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from mlco import passes, sim
from mlco.build import PdeParams, WingStyle, build_one_step
from mlco.ir import (
    CONTROL_ARITY, FIXED_CX_COST, LOGS, MIGS, ROTATION_KINDS, Circuit, CircuitError, Gate,
    GateKind, ccrz, ccx, census, commutes, conforms, crz, cs, csdg, cx, cy, cz, h, inverse,
    mcrz, rccx, rx, rz, s, sdg, t, tdg, x,
)
from mlco.passes import (
    HIGS_RULE_NAMES, ConformanceError, FixpointCapError, apply_rules,
    cancel_adjacent, decompose_to_logs, gray_mcrz, lower_to_logs, lower_vchain, optimize_logs,
    pipeline_deto, pipeline_mlco, registry, replace_ccx_with_rccx, rules_named,
)

# Matcher fixtures: certified rules that no pipeline registers, since no
# benchmark or reference input fires them.  Three CX in a ladder contract
# to two; the flips are the CZ/CX fusions with the CX reversed.
FIXTURE_RULES = {r.name: r for r in (
    passes._rule("cx-ladder", 3, [cx(0, 1), cx(1, 2), cx(0, 1)],
                 [cx(1, 2), cx(0, 2)]),
    passes._rule("cx-ladder-rev", 3, [cx(0, 1), cx(2, 0), cx(0, 1)],
                 [cx(2, 0), cx(2, 1)]),
    passes._rule("cz-cx-fuse-flip", 2, [cz(0, 1), cx(1, 0)],
                 [sdg(0), cx(1, 0), s(0), sdg(1)]),
    passes._rule("cx-cz-fuse-flip", 2, [cx(1, 0), cz(0, 1)],
                 [sdg(0), cx(1, 0), s(0), s(1)]),
    # No registered rule has a CY after its first gate.
    passes._rule("cx-cy-fuse", 2, [cx(0, 1), cy(0, 1)], [sdg(0), cz(0, 1)]),
)}
CX_LADDER = FIXTURE_RULES["cx-ladder"]

# Every rule these tests rewrite with.
ALL_RULES = {**registry(), **FIXTURE_RULES}


def _equiv(a: Circuit, b: Circuit, tol=1e-10) -> bool:
    ok, dev = sim.equivalent_up_to_phase(a, b, trials=6, seed=7)
    return ok and dev < tol


# ---------------------------------------------------------------------------
# cancel_adjacent

def test_cancel_inverse_pair():
    c = Circuit(2, (h(0), cx(0, 1), cx(0, 1), h(0)))
    assert cancel_adjacent(c).gates == ()


def test_cancel_rccx_pair_only_with_equal_control_order():
    assert cancel_adjacent(Circuit(3, (rccx(0, 1, 2), rccx(0, 1, 2)))).gates == ()
    flipped = Circuit(3, (rccx(0, 1, 2), rccx(1, 0, 2)))
    assert cancel_adjacent(flipped).gates == flipped.gates


def test_cancel_across_commuting_gates():
    # The rz on wire 1 commutes with cx control on wire 0? No - cx acts on
    # both wires; use a gate on an untouched wire instead.
    c = Circuit(3, (cx(0, 1), rz(2, 0.3), cx(0, 1)))
    got = cancel_adjacent(c).gates
    assert got == (rz(2, 0.3),)


def test_cancel_blocked_by_noncommuting_gate():
    c = Circuit(2, (cx(0, 1), h(1), cx(0, 1)))
    assert len(cancel_adjacent(c).gates) == 3


def test_rotation_merge_and_zero_drop():
    c = Circuit(2, (rz(0, 0.4), rz(0, -0.4), crz(0, 1, 0.2), crz(0, 1, 0.3)))
    got = cancel_adjacent(c).gates
    assert got == (crz(0, 1, 0.5),)


# ---------------------------------------------------------------------------
# rewrite rules

@pytest.mark.parametrize("name", sorted(ALL_RULES))
def test_every_rule_is_certified(name):
    # certify() raises on any unitary mismatch or entangling-count increase.
    ALL_RULES[name].certify()


def test_rule_construction_certifies():
    # No uncertified rule exists, so apply_rules need not check its rules.
    with pytest.raises(CircuitError, match="failed certification"):
        passes.RewriteRule("cx-cx-to-cz", Circuit(2, (cx(0, 1), cx(0, 1))),
                           Circuit(2, (cz(0, 1),)))


def test_rule_registry_names_and_order():
    assert list(registry()) == ["cx-stair", "cx-stair-rev", "cx-x-cx", "ccx-x-ccx",
                                "cz-cx-fuse", "cx-cz-fuse"]


@pytest.fixture
def fresh_registry():
    # The registry is rebuilt inside the test and again after it, so that
    # no other test sees a rule this one built.
    passes.registry.cache_clear()
    yield
    passes.registry.cache_clear()


def test_registry_certifies_every_rule_on_first_use(fresh_registry, monkeypatch):
    certified = []
    certify = passes.RewriteRule.certify

    def record(rule):
        certified.append(rule.name)
        certify(rule)

    monkeypatch.setattr(passes.RewriteRule, "certify", record)
    rules = rules_named(HIGS_RULE_NAMES)
    assert sorted(certified) == ["ccx-x-ccx", "cx-cz-fuse", "cx-stair", "cx-stair-rev",
                                 "cx-x-cx", "cz-cx-fuse"]
    assert [r.name for r in rules] == list(HIGS_RULE_NAMES)
    rules_named(HIGS_RULE_NAMES)
    assert len(certified) == 6


def test_registry_rule_that_fails_certification_raises_at_first_use(fresh_registry,
                                                                    monkeypatch):
    make = passes._rule

    def wrong(name, wires, pattern, replacement):
        if name == "cx-x-cx":
            replacement = [x(0)]  # drops the X on the target
        return make(name, wires, pattern, replacement)

    monkeypatch.setattr(passes, "_rule", wrong)
    with pytest.raises(CircuitError, match="'cx-x-cx' failed certification"):
        rules_named(HIGS_RULE_NAMES)


@pytest.mark.parametrize("mirror, rule", [("cx-stair-rev", "cx-stair"),
                                          ("cx-cz-fuse", "cz-cx-fuse")])
def test_mirrored_rules_are_certified_inverses(mirror, rule):
    derived, source = registry()[mirror], registry()[rule]
    derived.certify()
    assert derived.pattern == inverse(source.pattern)
    assert derived.replacement == inverse(source.replacement)


@pytest.mark.parametrize("name", sorted(ALL_RULES))
def test_rules_never_add_entangling_gates(name):
    rule = ALL_RULES[name]
    def weight(circ):
        return sum(1 for g in circ.gates if g.is_entangling)
    assert weight(rule.replacement) <= weight(rule.pattern)


def test_match_gate_tries_every_control_order():
    # Against every assignment of the gate's controls to the pattern's, in
    # the order of the gate's controls, kept when it agrees with the binding
    # and maps no two pattern wires onto one wire.
    rng = random.Random(5)
    makers = [lambda q: x(q[0]), lambda q: cx(q[0], q[1]), lambda q: ccx(q[0], q[1], q[2]),
              lambda q: rccx(q[0], q[1], q[2]), lambda q: mcrz(tuple(q[:3]), q[3], 0.5)]
    matched = 0
    for _ in range(400):
        make = rng.choice(makers)
        pattern_gate, gate = make(rng.sample(range(4), 4)), make(rng.sample(range(6), 4))
        binding = dict(zip(rng.sample(range(4), rng.randint(0, 3)), rng.sample(range(6), 3)))
        want = []
        for controls in itertools.permutations(gate.controls):
            full = dict(binding)
            full.update(zip(pattern_gate.qubits, controls + (gate.target,)))
            agrees = all(full[pw] == cw for pw, cw in binding.items())
            if agrees and len(set(full.values())) == len(full):
                want.append(full)
        assert passes._match_gate(pattern_gate, gate, binding) == want
        matched += bool(want)
    assert matched > 100


def test_rule_applies_under_wire_renaming():
    # cx-ladder on renamed wires: [cx(2,0), cx(0,3), cx(2,0)] -> 2 gates.
    c = Circuit(4, (cx(2, 0), cx(0, 3), cx(2, 0)))
    got = apply_rules(c, [CX_LADDER])
    assert len(got.gates) == 2
    assert _equiv(c, got)


def test_rule_applies_across_intervening_commuting_gate():
    c = Circuit(4, (cx(0, 1), rz(3, 0.2), cx(1, 2), cx(0, 1)))
    got = apply_rules(c, [CX_LADDER])
    assert sum(1 for g in got.gates if g.kind is GateKind.CX) == 2
    assert _equiv(c, got)


def test_rule_blocked_by_noncommuting_interloper():
    c = Circuit(3, (cx(0, 1), h(0), cx(1, 2), cx(0, 1)))
    got = apply_rules(c, [CX_LADDER])
    assert sum(1 for g in got.gates if g.kind is GateKind.CX) == 3


@pytest.mark.parametrize("gates, left, right", [
    # h(2) shares a wire with the candidate cx(1,2) only: it blocks the
    # left gather but not the right one.
    ((cx(0, 1), h(2), cx(1, 2), cx(0, 1)), None, [0, 2, 3]),
    # h(2) sits after cx(1,2): it is disjoint from the last candidate but
    # does not commute with an already matched gate.
    ((cx(0, 1), cx(1, 2), h(2), cx(0, 1)), [0, 1, 3], None),
    # One interloper blocks each gather.
    ((cx(0, 1), h(2), cx(1, 2), h(0), cx(0, 1)), None, None),
])
def test_find_match_checks_skipped_gates_per_gather(gates, left, right):
    rule = CX_LADDER
    for gather, want in (("left", left), ("right", right)):
        found = _find_match(list(gates), rule, 0, gather)
        positions = found[0] if found is not None else None
        assert positions == want, gather
    c = Circuit(3, gates)
    assert _equiv(c, apply_rules(c, [CX_LADDER]))


def test_find_match_tries_every_binding_the_prefilter_keeps():
    # Both bindings of the first CCX find an X and then a CCX later.  The
    # first, with pattern control 1 on wire 1, fails: the second CCX blocks
    # its X.  The second binding matches.
    gates = [ccx(0, 1, 2), x(0), ccx(0, 1, 2), x(1), ccx(0, 1, 2)]
    rule = registry()["ccx-x-ccx"]
    unswept = passes._Unswept(gates, [rule])
    assert [b[1] for b in unswept.bindings(rule.pattern.gates)] == [1, 0]
    want = ([0, 1, 2], {0: 1, 1: 0, 2: 2})
    assert _find_match(gates, rule, 0, "left") == _ref_find_match(gates, rule, 0, "left") == want
    assert passes._rewrite_sweep(gates, [rule]) == _ref_sweep_once(gates, [rule])


# ---------------------------------------------------------------------------
# Indexed scans against the full scans they replaced

def _find_match(gates, rule, start, gather, unswept=None):
    """The sweep matcher's match of `rule` with `gather` at `start` of `gates`,
    as (positions in `gates`, binding) or None.  `unswept` must hold
    `gates[start:]`; by default they are indexed for `rule` alone."""
    if unswept is None:
        unswept = passes._Unswept(gates[start:], [rule])
    pattern = rule.pattern.gates
    found = unswept.find(pattern, unswept.bindings(pattern), gather)
    if found is None:
        return None
    keys, binding = found
    return [start + keys[0] - k for k in keys], binding


def _ref_find_match(gates, rule, start, gather):
    pattern = rule.pattern.gates
    for binding in passes._match_gate(pattern[0], gates[start], {}):
        found = _ref_extend(gates, pattern, 1, [start], binding, gather)
        if found is not None:
            return found
    return None


def _ref_extend(gates, pattern, p_idx, positions, binding, gather):
    if p_idx == len(pattern):
        return positions, binding
    matched = [gates[p] for p in positions]
    for j in range(positions[-1] + 1, len(gates)):
        g = gates[j]
        candidates = passes._match_gate(pattern[p_idx], g, binding)
        if candidates and gather == "left":
            wires = set(g.qubits)
            skipped = (gates[k] for k in range(positions[0] + 1, j) if k not in positions)
            if not all(commutes(g, sk) for sk in skipped if not wires.isdisjoint(sk.qubits)):
                candidates = []
        for nb in candidates:
            found = _ref_extend(gates, pattern, p_idx + 1, positions + [j], nb, gather)
            if found is not None:
                return found
        if gather == "right" and not all(commutes(g, m) for m in matched):
            return None
    return None


def _merged(a, b):
    """Merge candidate for two rotations of the same kind on the same support."""
    if (a.kind is b.kind and a.kind in ROTATION_KINDS
            and a.controls == b.controls and a.target == b.target):
        return Gate(a.kind, a.controls, a.target, a.angle + b.angle)
    return None


def _ref_cancel_adjacent(circuit):
    """The full-scan fixpoint and the sweeps it takes, the confirming one
    included; every acting sweep drops a gate, so it needs no cap."""
    tol = passes.ANGLE_TOLERANCE
    gates = list(circuit.gates)
    sweeps = 0
    changed = True
    while changed:
        sweeps += 1
        changed = False
        gates = [g for g in gates
                 if not (g.kind in ROTATION_KINDS and abs(g.angle) <= tol)]
        i = 0
        while i < len(gates):
            g = gates[i]
            j = i + 1
            acted = False
            while j < len(gates):
                other = gates[j]
                if g.inverse() == other:
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
    return circuit.with_gates(gates), sweeps


def _random_gates(rng, wires, length):
    gates = []
    for _ in range(length):
        q = rng.sample(range(wires), 3)
        make = rng.choice([
            lambda: cx(q[0], q[1]), lambda: cx(q[0], q[1]), lambda: cx(q[0], q[1]),
            lambda: cz(q[0], q[1]), lambda: x(q[0]), lambda: h(q[0]),
            lambda: rz(q[0], rng.choice([0.25, -0.25, 0.5])),
            lambda: ccx(q[0], q[1], q[2]),
        ])
        gates.append(make())
    return gates


def _random_gates_of_every_kind(rng, wires, length):
    """Like `_random_gates`, but over every kind (MCRZ needs 4 wires), so that
    every commutation role meets every other one."""
    gates = []
    for _ in range(length):
        kind = rng.choice(list(GateKind))
        arity = CONTROL_ARITY[kind]
        if arity is None:
            arity = rng.randint(3, wires - 1)
        q = rng.sample(range(wires), arity + 1)
        angle = rng.choice([0.25, -0.25, 0.5]) if kind in ROTATION_KINDS else None
        gates.append(Gate(kind, tuple(q[:arity]), q[arity], angle))
    return gates


def _exact(gates):
    return [(g.kind, g.controls, g.target, g.angle) for g in gates]


@pytest.mark.parametrize("seed", range(4))
def test_wire_indexed_find_match_equals_full_scan(seed):
    rng = random.Random(seed)
    fired = 0
    for _ in range(100):
        gates = _random_gates(rng, rng.randint(3, 5), rng.randint(6, 24))
        # One index for every rule, moved on one gate at a time as a sweep does.
        unswept = passes._Unswept(gates, ALL_RULES.values())
        for start in range(len(gates)):
            for rule in ALL_RULES.values():
                for gather in ("left", "right"):
                    want = _ref_find_match(gates, rule, start, gather)
                    assert _find_match(gates, rule, start, gather) == want
                    assert _find_match(gates, rule, start, gather, unswept) == want
                    fired += want is not None
            unswept.pop()
    assert fired > 80  # the circuits exercise matches, not only rejections


@pytest.mark.parametrize("seed", range(4))
def test_wire_skipping_cancel_adjacent_equals_full_scan(seed):
    rng = random.Random(100 + seed)
    acted = 0
    for _ in range(60):
        c = Circuit(5, tuple(_random_gates(rng, rng.randint(3, 5), rng.randint(4, 30))))
        want, _ = _ref_cancel_adjacent(c)
        assert _exact(cancel_adjacent(c).gates) == _exact(want.gates)
        acted += len(want.gates) < len(c.gates)
    assert acted > 10


@pytest.mark.parametrize("seed", range(4))
def test_cancel_adjacent_equals_full_scan_on_every_kind(seed):
    rng = random.Random(200 + seed)
    acted = merged = 0
    for _ in range(80):
        c = Circuit(5, tuple(_random_gates_of_every_kind(rng, rng.randint(4, 5),
                                                          rng.randint(4, 40))))
        want, _ = _ref_cancel_adjacent(c)
        assert _exact(cancel_adjacent(c).gates) == _exact(want.gates)
        acted += len(want.gates) < len(c.gates)
        merged += any(g not in c.gates for g in want.gates)
    assert acted > 10 and merged > 3


def test_decompose_to_logs_lowers_each_distinct_gate_once():
    rng = random.Random(5)
    gates = _random_gates_of_every_kind(rng, 5, 80)
    gates += gates[:40]
    got = passes.decompose_to_logs(Circuit(5, tuple(gates))).gates
    parts = [gray_mcrz(g.controls, g.target, g.angle) if g.kind is GateKind.MCRZ
             else passes._lower_gate_logs(g) for g in gates]
    assert _exact(got) == _exact([p for part in parts for p in part])
    # Equal input gates share their output gates.
    first = {}
    starts = itertools.accumulate((len(part) for part in parts), initial=0)
    for g, start, part in zip(gates, starts, parts):
        out = got[start:start + len(part)]
        assert all(a is b for a, b in zip(out, first.setdefault(g, out)))
    assert len(first) < len(gates)


def test_occurrence_prefilter_indexes_the_kinds_of_the_rules_it_runs():
    # CY occurs after the first gate of cx-cy-fuse only: an occurrence index
    # keyed from the registered rules would never find it.
    rule = FIXTURE_RULES["cx-cy-fuse"]
    rng = random.Random(9)
    fired = 0
    for _ in range(40):
        gates = [rng.choice([cx(0, 1), cy(0, 1), cy(1, 0), rz(0, 0.3), rz(2, 0.3),
                             x(1), h(2), cx(2, 1)])
                 for _ in range(rng.randint(2, 12))]
        unswept = passes._Unswept(gates, [rule])
        for start in range(len(gates)):
            for gather in ("left", "right"):
                want = _ref_find_match(gates, rule, start, gather)
                assert _find_match(gates, rule, start, gather) == want
                assert _find_match(gates, rule, start, gather, unswept) == want
                fired += want is not None
            unswept.pop()
        c = Circuit(3, tuple(gates))
        assert _exact(apply_rules(c, [rule]).gates) == _exact(_ref_apply_rules(c, [rule]).gates)
    assert fired > 20


def _ref_bindings(gates, pattern):
    """The first-gate bindings of `pattern` at `gates[0]` that the prefilter
    must keep: those under which each later pattern gate with a bound wire
    occurs after the previous one.  An occurrence is a gate of its kind with
    the bound target as target or, when the target is unbound, with the
    first bound control among its controls."""
    kept = []
    for binding in passes._match_gate(pattern[0], gates[0], {}):
        last = 0
        for p in pattern[1:]:
            bound = [binding[c] for c in p.controls if c in binding]
            if p.target not in binding and not bound:
                continue
            last = next((j for j in range(last + 1, len(gates)) if gates[j].kind is p.kind
                         and (gates[j].target == binding[p.target] if p.target in binding
                              else bound[0] in gates[j].controls)), None)
            if last is None:
                break
        else:
            kept.append(binding)
    return kept


@pytest.mark.parametrize("seed", range(2))
def test_prefilter_keeps_the_bindings_a_linear_scan_keeps(seed):
    # A prefilter that keeps a binding it could rule out still finds every
    # match, so only the bindings it keeps show the difference.
    rng = random.Random(400 + seed)
    rules = list(ALL_RULES.values())
    kept = ruled_out = 0
    for _ in range(60):
        gates = _planted_gates(rng, rng.randint(3, 6), rules)
        unswept = passes._Unswept(gates, rules)
        for start in range(len(gates)):
            for rule in registry().values():
                pattern = rule.pattern.gates
                want = _ref_bindings(gates[start:], pattern)
                assert unswept.bindings(pattern) == want, (rule.name, start)
                kept += len(want)
                ruled_out += len(passes._match_gate(pattern[0], gates[start], {})) - len(want)
            unswept.pop()
    assert kept > 100 and ruled_out > 100, (kept, ruled_out)


def test_certify_refuses_rule_that_keeps_entangling_count():
    # A rewrite that does not lower the count could fire forever in one sweep.
    with pytest.raises(CircuitError, match="does not lower"):
        passes._rule("cz-flip", 2, [cz(0, 1)], [cz(1, 0)])


def test_rule_pattern_must_be_wire_connected():
    # The second CX shares no wire with the first.
    with pytest.raises(CircuitError, match="shares no wire"):
        passes._rule("split", 4, [cx(0, 1), cx(2, 3), cx(0, 1), cx(2, 3)], [])
    with pytest.raises(CircuitError, match="empty pattern"):
        passes._rule("empty", 2, [], [])


def test_unknown_rule_name_rejected():
    with pytest.raises(KeyError):
        rules_named(("no-such-rule",))


# ---------------------------------------------------------------------------
# lower_vchain

def test_vchain_counts_and_equivalence():
    c = Circuit(5, (mcrz((0, 1, 2, 3), 4, 0.7),))
    low = lower_vchain(c)
    assert conforms(low, MIGS)
    assert low.num_ancillas == 2  # k - 2 for k = 4
    cnt = census(low)
    assert cnt == {"CCX": 4, "CCRZ": 1}  # 2(k-2) Toffolis + one rotation
    assert _equiv(c, low)


def test_vchain_shares_ancilla_pool():
    c = Circuit(5, (mcrz((0, 1, 2, 3), 4, 0.7), mcrz((0, 1, 2), 4, 0.3)))
    low = lower_vchain(c)
    assert low.num_ancillas == 2  # pool sized by the largest site only
    assert _equiv(c, low)


def test_vchain_rejects_non_higs():
    with pytest.raises(ConformanceError):
        lower_vchain(Circuit(3, (rccx(0, 1, 2),)))


# ---------------------------------------------------------------------------
# replace_ccx_with_rccx

def test_rccx_replacement_on_conjugate_pair():
    inner = (cx(0, 3), rz(3, 0.25), cx(0, 3))
    c = Circuit(4, (ccx(0, 1, 3),) + inner + (ccx(0, 1, 3),))
    got = replace_ccx_with_rccx(c)
    cnt = census(got)
    assert cnt["RCCX"] == 2 and cnt["CCX"] == 0
    assert _equiv(c, got)


def test_rccx_replacement_leaves_unpaired_toffoli():
    c = Circuit(3, (ccx(0, 1, 2), h(2)))
    got = replace_ccx_with_rccx(c)
    assert census(got)["CCX"] == 1
    assert census(got)["RCCX"] == 0


def test_rccx_replacement_rejects_higs_input():
    with pytest.raises(ConformanceError):
        replace_ccx_with_rccx(Circuit(5, (mcrz((0, 1, 2), 4, 0.1),)))


# ---------------------------------------------------------------------------
# LoGS lowering

# One gate of every kind, controls before the target.
ONE_OF_EVERY_KIND = (
    ccx(0, 1, 2), rccx(0, 1, 2), ccrz(0, 1, 2, 0.4), crz(0, 1, 0.4), cz(0, 1), cs(0, 1),
    csdg(0, 1), cx(0, 1), cy(0, 1), mcrz((0, 1, 2), 3, 0.4), x(0), h(0),
    Gate(GateKind.Z, (), 0), s(0), sdg(0), t(0), tdg(0), rz(0, 0.4), rx(0, 0.4),
)


def test_one_of_every_kind_covers_every_kind():
    assert sorted(g.kind.value for g in ONE_OF_EVERY_KIND) \
        == sorted(k.value for k in GateKind)


@pytest.mark.parametrize("gate,want_cx", [
    (g, 2 ** len(g.controls) if g.kind is GateKind.MCRZ else FIXED_CX_COST.get(g.kind, 0))
    for g in ONE_OF_EVERY_KIND])
def test_logs_decomposition_cx_budget(gate, want_cx):
    low = decompose_to_logs(Circuit(len(gate.qubits), (gate,)))
    assert conforms(low, LOGS)
    assert census(low)["CX"] == want_cx
    # Against the oracle, with the wires in its order: the first control
    # the most significant, the target the least.
    top = len(gate.qubits) - 1
    wire = {q: top - i for i, q in enumerate(gate.qubits)}
    low = low.with_gates(Gate(g.kind, tuple(wire[c] for c in g.controls),
                              wire[g.target], g.angle) for g in low.gates)
    want = sim.gate_unitary(gate)
    assert np.abs(sim.align_phase(sim.unitary_of(low), want) - want).max() < 1e-12


def test_lower_to_logs_whole_circuit():
    c = Circuit(4, (h(0), s(1), ccx(0, 1, 2), crz(2, 3, 0.3), x(3)))
    low = lower_to_logs(c)
    assert conforms(low, LOGS)
    assert _equiv(c, low)


# ---------------------------------------------------------------------------
# gray-code backbone decomposition

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gray_mcrz_exact(k):
    theta = 0.613
    target = k
    controls = tuple(range(k))
    ref = Circuit(k + 1, (mcrz(controls, target, theta),))
    got = Circuit(k + 1, tuple(gray_mcrz(controls, target, theta)))
    assert conforms(got, LOGS)
    assert census(got)["CX"] == 2 ** k
    assert np.abs(sim.unitary_of(got) - sim.unitary_of(ref)).max() < 1e-12


# ---------------------------------------------------------------------------
# optimize_logs

def test_optimize_logs_fuses_single_qubit_runs():
    c = Circuit(2, (rz(0, 0.2), h(0), h(0), rz(0, 0.3), cx(0, 1),
                    rz(1, 0.1), rz(1, -0.1)))
    got = optimize_logs(c)
    assert got.gates == (rz(0, 0.5), cx(0, 1))
    assert _equiv(c, got)


def test_optimize_logs_never_increases_cx():
    p = PdeParams(n=5)
    low = lower_to_logs(replace_ccx_with_rccx(lower_vchain(
        build_one_step(p, WingStyle.STAIR))))
    before = census(low)["CX"]
    after = census(optimize_logs(low))["CX"]
    assert after <= before


def test_optimize_logs_rejects_migs():
    with pytest.raises(ConformanceError):
        optimize_logs(Circuit(3, (ccx(0, 1, 2),)))


@pytest.mark.parametrize("style", ["stair", "spray"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_logs_target_grows_no_gate_kind(style, n):
    _, stages = pipeline_mlco(PdeParams(n=n), 2, WingStyle(style))
    kinds = {st.name: Counter(g.kind.value for g in st.circuit.gates) for st in stages}
    before, after = kinds["2-step LoGS input"], kinds["2-step LoGS target"]
    assert after <= before, {k: (before[k], after[k]) for k in after if after[k] > before[k]}


# ---------------------------------------------------------------------------
# pipelines

def test_pipeline_stage_names():
    p = PdeParams(n=4)
    _, stages = pipeline_mlco(p, 2, WingStyle.STAIR)
    names = [s.name for s in stages]
    assert names == [
        "1-step source", "1-step HiGS simplified",
        "1-step MiGS input", "1-step MiGS simplified",
        "2-step MiGS composed", "2-step MiGS simplified",
        "2-step MiGS replaced", "2-step LoGS input", "2-step LoGS target",
    ]
    assert all(s.seconds >= 0 for s in stages)


def test_pipeline_one_step_has_no_composed_stage():
    _, stages = pipeline_mlco(PdeParams(n=4), 1, WingStyle.SPRAY)
    assert "1-step MiGS composed" not in [s.name for s in stages]


@pytest.mark.parametrize("style", ["stair", "spray"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pipeline_stage_names_are_unique(style, k):
    _, stages = pipeline_mlco(PdeParams(n=4), k, WingStyle(style))
    names = [s.name for s in stages]
    assert len(set(names)) == len(names), names


def test_pipeline_end_to_end_equivalence_small():
    from mlco.build import build_steps
    p = PdeParams(n=4)
    final, stages = pipeline_mlco(p, 2, WingStyle.STAIR)
    two_step = build_steps(p, 2, WingStyle.STAIR)
    one_step = build_one_step(p, WingStyle.STAIR)
    assert conforms(final, LOGS)
    assert _equiv(two_step, final)
    for stage in stages:
        ref = one_step if stage.name.startswith("1-step") else two_step
        assert _equiv(ref, stage.circuit), stage.name


def test_pipeline_deto_returns_stages():
    p = PdeParams(n=6)
    circ, stages = pipeline_deto(p, 1, WingStyle.STAIR)
    assert [s.name for s in stages] == ["LoGS input", "LoGS target"]
    assert circ is stages[-1].circuit
    source = build_one_step(p, WingStyle.STAIR)
    for stage in stages:
        assert conforms(stage.circuit, LOGS), stage.name
        assert _equiv(source, stage.circuit), stage.name


def test_pipeline_simplifies_each_distinct_step_once(monkeypatch):
    built = []

    def counting(params, style, order):
        built.append(order)
        return build_one_step(params, style, order)

    monkeypatch.setattr(passes, "build_one_step", counting)
    pipeline_mlco(PdeParams(n=5), 4, WingStyle.STAIR)
    assert len(built) == 2  # one increasing and one decreasing step


def test_pass_lists_call_the_module_passes(monkeypatch):
    # A pass replaced on the module is the one the lists run.
    calls = []

    def lowering(circuit):
        calls.append(circuit)
        return passes.decompose_to_logs(circuit)

    monkeypatch.setattr(passes, "lower_to_logs", lowering)
    pipeline_mlco(PdeParams(n=4), 1, WingStyle.STAIR)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Rewrite sweeps against the one-rewrite-per-iteration engine they replaced

def _ref_rewrite_at(gates, rules, start):
    """The gates after the first full-scan match at `start`, or None."""
    for rule in rules:
        for gather in ("left", "right"):
            found = _ref_find_match(gates, rule, start, gather)
            if found is None:
                continue
            positions, binding = found
            replacement = passes._apply_binding(rule.replacement, binding)
            pos_set = set(positions)
            middle = [gates[k] for k in range(positions[0], positions[-1] + 1)
                      if k not in pos_set]
            body = replacement + middle if gather == "left" else middle + replacement
            return gates[:positions[0]] + body + gates[positions[-1] + 1:]
    return None


def _ref_rewrite_once(gates, rules):
    for i in range(len(gates)):
        rewritten = _ref_rewrite_at(gates, rules, i)
        if rewritten is not None:
            return rewritten
    return None


def _ref_apply_rules(circuit, rules):
    # One rewrite per iteration, restarting from gate 0 after each.
    circ, _ = _ref_cancel_adjacent(circuit)
    for _ in range(passes.MAX_SWEEPS):
        rewritten = _ref_rewrite_once(list(circ.gates), rules)
        if rewritten is None:
            return circ
        circ, _ = _ref_cancel_adjacent(circ.with_gates(rewritten))
    raise FixpointCapError("reference apply_rules: no fixpoint")


def _ref_sweep_once(gates, rules):
    """One full-scan rewrite sweep: the rewritten gates and the rewrite count."""
    start, rewrites = 0, 0
    while start < len(gates):
        rewritten = _ref_rewrite_at(gates, rules, start)
        if rewritten is None:
            start += 1
        else:
            gates, rewrites = rewritten, rewrites + 1
    return gates, rewrites


def _ref_sweep_rules(circuit, rules):
    """apply_rules by full-scan sweeps, and the most sweeps that its rewrite
    loop or any of its cancellations takes, the confirming sweep included."""
    circ, most = _ref_cancel_adjacent(circuit)
    sweeps = 0
    while True:
        sweeps += 1
        gates, rewrites = _ref_sweep_once(list(circ.gates), rules)
        if not rewrites:
            return circ, max(most, sweeps)
        circ, cancel_sweeps = _ref_cancel_adjacent(circ.with_gates(gates))
        most = max(most, cancel_sweeps)


def _entangling(circ):
    return sum(1 for g in circ.gates if g.is_entangling)


@pytest.mark.parametrize("seed", range(4))
def test_rewrite_sweeps_match_one_rewrite_engine(seed):
    rng = random.Random(200 + seed)
    rules = list(ALL_RULES.values())
    rewritten = 0
    for _ in range(100):
        wires = rng.randint(3, 5)
        c = Circuit(wires, tuple(_random_gates(rng, wires, rng.randint(6, 24))))
        want = _ref_apply_rules(c, rules)
        got = apply_rules(c, rules)
        assert _entangling(got) <= _entangling(want)
        u_want = sim.unitary_of(want)
        assert np.abs(sim.align_phase(sim.unitary_of(got), u_want) - u_want).max() < 1e-10
        rewritten += _entangling(want) < _entangling(passes.cancel_adjacent(c))
    assert rewritten > 20  # the circuits exercise rewrites, not only rejections


def _planted_gates(rng, wires, rules):
    """Random gates on `wires` wires around one rule pattern on random wires,
    with random gates between its pattern gates."""
    rule = rng.choice(rules)
    pattern = rule.pattern
    wire_of = dict(zip(range(pattern.num_qubits), rng.sample(range(wires), pattern.num_qubits)))
    gates = _random_gates(rng, wires, rng.randint(0, 8))
    for g in passes._apply_binding(pattern, wire_of):
        gates += _random_gates(rng, wires, rng.choice([0, 0, 1, 2])) + [g]
    return gates + _random_gates(rng, wires, rng.randint(0, 8))


@pytest.mark.parametrize("seed", range(3))
def test_rewrite_sweep_equals_full_scan_sweep(seed):
    # The gates before a match, on its wires and off them, are the ones an
    # index that survives a splice could misplace; the fusion rules grow the
    # list by two gates per rewrite.
    rng = random.Random(300 + seed)
    rules = list(ALL_RULES.values())
    fired = Counter()
    for _ in range(120):
        wires = rng.randint(3, 6)
        gates = _planted_gates(rng, wires, rules)
        want, want_rewrites = _ref_sweep_once(list(gates), rules)
        got, rewrites = passes._rewrite_sweep(list(gates), rules)
        assert (_exact(got), rewrites) == (_exact(want), want_rewrites)
        fired[min(rewrites, 2)] += 1
        fired["grew"] += len(got) > len(gates)
    assert fired[2] > 10 and fired["grew"] > 10, fired


def test_rewrite_sweep_indexes_its_gates_once(monkeypatch):
    built = []

    class Spy(passes._Unswept):
        def __init__(self, gates, rules):
            built.append(len(gates))
            super().__init__(gates, rules)

    monkeypatch.setattr(passes, "_Unswept", Spy)
    # Two ladders and two CZ/CX fusions, which grow the list: four rewrites.
    ladders = [cx(0, 1), cx(1, 2), cx(0, 1), cz(3, 4), cx(3, 4), cz(0, 2), cx(0, 2),
               cx(3, 4), cx(4, 5), cx(3, 4)]
    gates, rewrites = passes._rewrite_sweep(ladders, list(ALL_RULES.values()))
    assert rewrites == 4
    assert built == [len(ladders)]


@pytest.mark.parametrize("style", ["stair", "spray"])
def test_rewrite_sweeps_keep_every_pipeline_stage(style, monkeypatch):
    def stages(n, k):
        final, chain = pipeline_mlco(PdeParams(n=n), k, WingStyle(style))
        return [_exact(final.gates)] + [(s.name, _exact(s.circuit.gates)) for s in chain]

    for n in (4, 5, 6, 7, 8):
        for k in (1, 2, 3):
            got = stages(n, k)
            with monkeypatch.context() as m:
                m.setattr(passes, "apply_rules", _ref_apply_rules)
                m.setattr(passes, "cancel_adjacent", lambda c: _ref_cancel_adjacent(c)[0])
                assert stages(n, k) == got, (n, k)


# ---------------------------------------------------------------------------
# Fixpoint cap

def test_apply_rules_raises_when_cap_cuts_rewriting_short(monkeypatch):
    # One sweep rewrites both ladders on disjoint wires; a second sweep
    # confirms the fixpoint.
    ladders = Circuit(6, (cx(0, 1), cx(1, 2), cx(0, 1), cx(3, 4), cx(4, 5), cx(3, 4)))
    monkeypatch.setattr(passes, "MAX_SWEEPS", 1)
    with pytest.raises(FixpointCapError, match="apply_rules.*1"):
        apply_rules(ladders, [CX_LADDER])
    monkeypatch.setattr(passes, "MAX_SWEEPS", 2)
    got = apply_rules(ladders, [CX_LADDER])
    assert len(got.gates) == 4


def _merge_chain_gates(rng, wires, length):
    """Random gates with S and T, and chains of CRZ that merge across them."""
    gates = []
    while len(gates) < length:
        q = rng.sample(range(wires), 3)
        if rng.random() < 0.15:
            gates += [crz(q[0], q[1], rng.choice([0.25, -0.25, 0.5]))
                      for _ in range(rng.randint(2, 4))]
            continue
        gates.append(rng.choice([
            lambda: cx(q[0], q[1]), lambda: cx(q[0], q[1]), lambda: cz(q[0], q[1]),
            lambda: x(q[0]), lambda: h(q[0]), lambda: s(q[0]), lambda: sdg(q[0]),
            lambda: t(q[0]), lambda: tdg(q[0]), lambda: rz(q[0], 0.25),
            lambda: ccx(q[0], q[1], q[2]),
        ])())
    return gates[:length]


def test_fixpoint_caps_fall_where_the_references_need_one_more_sweep(monkeypatch):
    rules = list(ALL_RULES.values())
    engines = {
        "cancel_adjacent": (cancel_adjacent, _ref_cancel_adjacent),
        "apply_rules": (lambda c: apply_rules(c, rules),
                        lambda c: _ref_sweep_rules(c, rules)),
    }
    rng = random.Random(31)
    most = dict.fromkeys(engines, 0)
    for _ in range(40):
        wires = rng.randint(3, 4)
        c = Circuit(wires, tuple(_merge_chain_gates(rng, wires, rng.randint(20, 80))))
        for name, (run, reference) in engines.items():
            want, sweeps = reference(c)
            monkeypatch.setattr(passes, "MAX_SWEEPS", sweeps)
            assert _exact(run(c).gates) == _exact(want.gates), name
            monkeypatch.setattr(passes, "MAX_SWEEPS", sweeps - 1)
            with pytest.raises(FixpointCapError):
                run(c)
            most[name] = max(most[name], sweeps)
    assert min(most.values()) >= 3, most


def test_cancel_adjacent_raises_when_cap_cuts_cancelling_short(monkeypatch):
    pair = Circuit(2, (cx(0, 1), cx(0, 1)))
    monkeypatch.setattr(passes, "MAX_SWEEPS", 1)
    with pytest.raises(FixpointCapError, match="cancel_adjacent.*1"):
        cancel_adjacent(pair)
    monkeypatch.setattr(passes, "MAX_SWEEPS", 2)
    assert cancel_adjacent(pair).gates == ()
