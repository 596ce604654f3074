"""Acceptance suite: one pass/fail check per headline requirement.

Each test prints a single PASS line on success so the suite output doubles
as a scorecard; tolerances and runtime budgets are asserted explicitly.
"""

import time

import numpy as np

from mlco import sim
from mlco.build import PdeParams, WingStyle, build_one_step, build_steps
from mlco.ir import (
    LOGS, Circuit, census, conforms, crz, ccrz, ccx, rccx, mcrz, naive_cx,
    rccx_decomposition,
)
from mlco.passes import (
    gray_mcrz, lower_to_logs, lower_vchain, pipeline_deto, pipeline_mlco,
    registry,
)
from mlco.report import (
    DETO_REFERENCE_PER_STEP, EXECUTABLE_SWEEP_CAP, REFERENCE_ROWS,
    deto_cost_model_cx, mlco_two_step_cx, reproduce_table1,
)


def _stage_map(n=6, steps=2, style=WingStyle.STAIR):
    _, stages = pipeline_mlco(PdeParams(n=n), steps, style)
    return {s.name: s.circuit for s in stages}


def test_1_reference_table_censuses_exact():
    start = time.perf_counter()
    rows = reproduce_table1()
    by_name = {r.stage.name: r for r in rows}
    for name, expected in REFERENCE_ROWS.items():
        if name == "2-step LoGS input":
            continue  # CX total checked in criterion 2
        got = dict(by_name[name].census)
        assert got == expected, f"{name}: {got} != {expected}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: eight reference censuses exact ({elapsed:.2f}s)")


def test_2_logs_cx_counts():
    start = time.perf_counter()
    stages = _stage_map()
    just_decomposed = census(stages["2-step LoGS input"])["CX"]
    optimized = census(stages["2-step LoGS target"])["CX"]
    assert just_decomposed == 78
    assert optimized <= 78
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: just-decomposed CX = 78, optimized = "
          f"{optimized} <= 78 ({elapsed:.2f}s)")


def test_3_scaling_formulas():
    start = time.perf_counter()
    for n in (6, 8, 12, 16, 20):
        stages = _stage_map(n=n)
        assert census(stages["2-step LoGS input"])["CX"] == mlco_two_step_cx(n), n
    assert naive_cx(build_one_step(PdeParams(n=6), WingStyle.STAIR)) == 114
    for n in range(8, 65):
        cost = naive_cx(build_one_step(PdeParams(n=n), WingStyle.STAIR))
        assert cost == deto_cost_model_cx(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: 2(10n-21) and 9n^2-33n-36 laws exact "
          f"({elapsed:.2f}s)")


def test_3_cx_law_at_scale():
    # Each rewrite sweep applies every match it meets, so the default
    # fixpoint cap holds at the north-star size.
    start = time.perf_counter()
    for n in (40, 48, 64):
        stages = _stage_map(n=n)
        assert census(stages["2-step LoGS input"])["CX"] == mlco_two_step_cx(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(f"\nPASS criterion 3 at scale: 2(10n-21) exact at n = 40, 48, 64 "
          f"({elapsed:.2f}s)")


def test_4_every_stage_preserves_semantics():
    start = time.perf_counter()
    for n in (4, 5, 6):
        params = PdeParams(n=n)
        source = build_steps(params, 2, WingStyle.STAIR)
        _, stages = pipeline_mlco(params, 2, WingStyle.STAIR)
        one_step = build_one_step(params, WingStyle.STAIR)
        for stage in stages:
            ref = one_step if stage.name.startswith("1-step") else source
            ok, dev = sim.equivalent_up_to_phase(ref, stage.circuit, trials=20, seed=11)
            assert ok and dev <= 1e-10, (n, stage.name, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 4: all stages equivalent on the ancilla-zero "
          f"subspace for n in 4..6 ({elapsed:.2f}s)")


def test_5_physics_checks():
    start = time.perf_counter()
    for n in (4, 5, 6):
        params = PdeParams(n=n)
        _, h1, h2, terms = sim.hamiltonian(params)
        h0 = sim._h_term(n - 1, 0)
        for a in terms:
            for b in terms:
                assert sim.spectral_norm(a @ b - b @ a) <= 1e-10
            assert abs(sim.spectral_norm(a @ h0 - h0 @ a) - 1.0) <= 1e-10
        want = sim.expm_hermitian(h1, params.tau) @ sim.expm_hermitian(h2, params.tau)
        u = sim.unitary_of(build_one_step(params, WingStyle.STAIR))
        assert np.abs(sim.align_phase(u, want) - want).max() <= 1e-10
    for n in (5, 6):
        errs = [sim.trotter_error(PdeParams(n=n, tau=tau),
                                  build_one_step(PdeParams(n=n, tau=tau),
                                                 WingStyle.STAIR))
                for tau in (0.2, 0.1)]
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5, (n, ratio)
    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion 5: commutator norms, product formula, and "
          f"Trotter ratio in [3.5, 4.5] ({elapsed:.2f}s)")


def test_6_rule_and_decomposition_certification():
    for name, rule in sorted(registry().items()):
        rule.certify()  # raises beyond 1e-12 or on entangling-count increase
    fixed = [
        (Circuit(3, (ccx(0, 1, 2),)), 6),
        (Circuit(3, (rccx(0, 1, 2),)), 3),
        (Circuit(3, (ccrz(0, 1, 2, 0.37),)), 4),
        (Circuit(2, (crz(0, 1, 0.37),)), 2),
    ]
    for circ, want_cx in fixed:
        low = lower_to_logs(circ)
        assert census(low)["CX"] == want_cx
        u, want = sim.unitary_of(low), sim.unitary_of(circ)
        dev = np.abs(sim.align_phase(u, want) - want).max()
        assert dev <= 1e-12, (circ.gates[0].kind, dev)
    assert np.abs(sim.unitary_of(Circuit(3, rccx_decomposition(0, 1, 2)))
                  - sim.unitary_of(Circuit(3, (rccx(0, 1, 2),)))).max() <= 1e-12
    for k in (3, 4, 5):
        site = Circuit(k + 1, (mcrz(tuple(range(k)), k, 0.51),))
        ok, dev = sim.equivalent_up_to_phase(site, lower_vchain(site),
                                             trials=12, seed=3)
        assert ok and dev <= 1e-12, ("vchain", k, dev)
        gray = Circuit(k + 1, tuple(gray_mcrz(tuple(range(k)), k, 0.51)))
        assert np.abs(sim.unitary_of(gray) - sim.unitary_of(site)).max() <= 1e-12
    print("\nPASS criterion 6: all rewrite rules and fixed decompositions "
          "certified at 1e-12")


def test_7_spray_final_cx_exceeds_stair():
    final_stair, _ = pipeline_mlco(PdeParams(n=6), 2, WingStyle.STAIR)
    final_spray, _ = pipeline_mlco(PdeParams(n=6), 2, WingStyle.SPRAY)
    cx_stair = census(final_stair)["CX"]
    cx_spray = census(final_spray)["CX"]
    assert cx_spray > cx_stair
    print(f"\nPASS criterion 7: spray 2-step CX {cx_spray} > stair {cx_stair}")


def test_8_reduction_headline_and_quadratic_baseline():
    final, _ = pipeline_mlco(PdeParams(n=6), 2, WingStyle.STAIR)
    per_step = census(final)["CX"] / 2
    assert per_step <= 39
    reduction = 1.0 - per_step / DETO_REFERENCE_PER_STEP
    assert reduction >= 0.61
    execs = {}
    for n in range(6, EXECUTABLE_SWEEP_CAP + 1, 2):
        circ, _ = pipeline_deto(PdeParams(n=n), 1, WingStyle.STAIR)
        assert conforms(circ, LOGS)
        execs[n] = census(circ)["CX"]
    assert 57 <= execs[6] <= 114
    # Growth stays at least quadratic: CX per n^2 never shrinks with n.
    densities = [execs[n] / n ** 2 for n in sorted(execs)]
    assert all(b >= a - 1e-9 for a, b in zip(densities, densities[1:])), execs
    print(f"\nPASS criterion 8: per-step CX {per_step:.1f} <= 39 "
          f"({100 * reduction:.1f}% reduction), executable baseline "
          f"{execs[6]} in [57, 114] and quadratic across {sorted(execs)}")
