"""Rewrite rules, lowerings, and pipeline stages."""

import json
import random
from collections import Counter

import numpy as np
import pytest

from mlco import passes, sim
from mlco.build import PdeParams, WingStyle, build_one_step
from mlco.ir import (
    Circuit, CircuitError, GateKind, LOGS, MIGS, ROTATION_KINDS, ccrz, ccx,
    census, commutes, conforms, crz, cs, cx, cz, h, mcrz, rccx, rz, s, sdg, x,
)
from mlco.passes import (
    PassConfig, RULES, ConformanceError, FixpointCapError, apply_rules,
    cancel_adjacent, gray_mcrz, lower_to_logs, lower_vchain, optimize_logs,
    pipeline_deto, pipeline_mlco, replace_ccx_with_rccx, rules_named,
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
)}
CX_LADDER = FIXTURE_RULES["cx-ladder"]

# Every rule these tests rewrite with.
ALL_RULES = {**RULES, **FIXTURE_RULES}


def _equiv(a: Circuit, b: Circuit, tol=1e-10) -> bool:
    ok, dev = sim.equivalent_up_to_phase(a, b, trials=6, seed=7)
    return ok and dev < tol


# ---------------------------------------------------------------------------
# cancel_adjacent

def test_cancel_inverse_pair():
    c = Circuit(2, (h(0), cx(0, 1), cx(0, 1), h(0)))
    assert cancel_adjacent(c).gates == ()


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


def test_cancel_drops_barriers():
    from mlco.ir import barrier
    c = Circuit(2, (h(0), barrier((0, 1)), h(0)))
    assert cancel_adjacent(c).gates == ()


# ---------------------------------------------------------------------------
# rewrite rules

@pytest.mark.parametrize("name", sorted(ALL_RULES))
def test_every_rule_is_certified(name):
    # certify() raises on any unitary mismatch or entangling-count increase.
    certified = ALL_RULES[name].certify()
    assert certified.certified


@pytest.mark.parametrize("name", sorted(ALL_RULES))
def test_rules_never_add_entangling_gates(name):
    rule = ALL_RULES[name]
    def weight(circ):
        return sum(1 for g in circ.gates if g.is_entangling)
    assert weight(rule.replacement) <= weight(rule.pattern)


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
        found = passes._find_match(list(gates), rule, 0, gather)
        positions = found[0] if found is not None else None
        assert positions == want, gather
    c = Circuit(3, gates)
    assert _equiv(c, apply_rules(c, [CX_LADDER]))


# ---------------------------------------------------------------------------
# Wire-indexed scans against the full scans they replaced

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


def _ref_cancel_adjacent(circuit, config=passes.DEFAULT_CONFIG):
    tol = config.angle_merge_tolerance
    gates = [g for g in circuit.gates if g.kind is not GateKind.BARRIER]
    for _ in range(config.max_fixpoint_iterations):
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
                if passes._inverse_pair(g, other):
                    del gates[j], gates[i]
                    acted = True
                    break
                merged = passes._merged(g, other)
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
            break
    return circuit.with_gates(gates)


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


def _exact(gates):
    return [(g.kind, g.controls, g.target, g.angle) for g in gates]


@pytest.mark.parametrize("seed", range(4))
def test_wire_indexed_find_match_equals_full_scan(seed):
    rng = random.Random(seed)
    fired = 0
    for _ in range(100):
        gates = _random_gates(rng, rng.randint(3, 5), rng.randint(6, 24))
        index = passes._wire_index(gates)
        for rule in ALL_RULES.values():
            for gather in ("left", "right"):
                for start in range(len(gates)):
                    want = _ref_find_match(gates, rule, start, gather)
                    assert passes._find_match(gates, rule, start, gather) == want
                    assert passes._find_match(gates, rule, start, gather, index) == want
                    fired += want is not None
    assert fired > 80  # the circuits exercise matches, not only rejections


@pytest.mark.parametrize("seed", range(4))
def test_wire_skipping_cancel_adjacent_equals_full_scan(seed):
    rng = random.Random(100 + seed)
    acted = 0
    for _ in range(60):
        c = Circuit(5, tuple(_random_gates(rng, rng.randint(3, 5), rng.randint(4, 30))))
        want = _ref_cancel_adjacent(c)
        assert _exact(cancel_adjacent(c).gates) == _exact(want.gates)
        acted += len(want.gates) < len(c.gates)
    assert acted > 10


def test_rule_pattern_must_be_wire_connected():
    # The second CX shares no wire with the first.
    with pytest.raises(CircuitError, match="shares no wire"):
        passes._rule("split", 4, [cx(0, 1), cx(2, 3), cx(0, 1), cx(2, 3)], [])
    with pytest.raises(CircuitError, match="empty pattern"):
        passes._rule("empty", 2, [], [])


def test_unknown_rule_name_rejected():
    with pytest.raises(KeyError):
        rules_named(("no-such-rule",))


def test_enabled_rules_filter():
    cfg = PassConfig(enabled_rules=frozenset({"cx-stair"}))
    c = Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 1)))  # cx-ladder shape
    got = apply_rules(c, [CX_LADDER], cfg)
    assert len(got.gates) == 3  # ladder disabled by the config filter


# ---------------------------------------------------------------------------
# PassConfig

def test_config_validation_and_json():
    with pytest.raises(ValueError):
        PassConfig(angle_merge_tolerance=-1.0)
    with pytest.raises(ValueError):
        PassConfig(max_fixpoint_iterations=0)
    cfg = PassConfig.from_json(json.dumps(
        {"angle_merge_tolerance": 1e-9, "enabled_rules": ["cx-stair"]}))
    assert cfg.angle_merge_tolerance == 1e-9
    assert cfg.enabled_rules == frozenset({"cx-stair"})
    assert PassConfig.from_json("{}") == PassConfig()


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

@pytest.mark.parametrize("gate,want_cx", [
    (ccx(0, 1, 2), 6),
    (rccx(0, 1, 2), 3),
    (ccrz(0, 1, 2, 0.4), 4),
    (crz(0, 1, 0.4), 2),
    (cz(0, 1), 1),
    (cs(0, 1), 2),
])
def test_logs_decomposition_cx_budget(gate, want_cx):
    c = Circuit(3, (gate,))
    low = lower_to_logs(c)
    assert conforms(low, LOGS)
    assert census(low)["CX"] == want_cx
    assert _equiv(c, low, tol=1e-12)


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
        build_one_step(p, WingStyle.STAIR).without_barriers())))
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


def test_pipeline_deto_modes():
    p = PdeParams(n=6)
    none_circ, cost = pipeline_deto(p, 1, WingStyle.STAIR, mode="cost-model")
    assert none_circ is None and cost == 114
    circ, cx_count = pipeline_deto(p, 1, WingStyle.STAIR, mode="executable")
    assert conforms(circ, LOGS)
    assert census(circ)["CX"] == cx_count
    assert _equiv(build_one_step(p, WingStyle.STAIR), circ)
    with pytest.raises(ValueError):
        pipeline_deto(p, 1, WingStyle.STAIR, mode="bogus")


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
# Fixpoint cap

def test_apply_rules_raises_when_cap_cuts_rewriting_short():
    # Two ladders on disjoint wires need two rewrites and a third,
    # confirming iteration.
    ladders = Circuit(6, (cx(0, 1), cx(1, 2), cx(0, 1), cx(3, 4), cx(4, 5), cx(3, 4)))
    with pytest.raises(FixpointCapError, match="apply_rules.*2"):
        apply_rules(ladders, [CX_LADDER], PassConfig(max_fixpoint_iterations=2))
    got = apply_rules(ladders, [CX_LADDER], PassConfig(max_fixpoint_iterations=3))
    assert len(got.gates) == 4


def test_cancel_adjacent_raises_when_cap_cuts_cancelling_short():
    pair = Circuit(2, (cx(0, 1), cx(0, 1)))
    with pytest.raises(FixpointCapError, match="cancel_adjacent.*1"):
        cancel_adjacent(pair, PassConfig(max_fixpoint_iterations=1))
    assert cancel_adjacent(pair, PassConfig(max_fixpoint_iterations=2)).gates == ()
