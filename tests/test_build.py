"""Source-circuit synthesis: wings, blocks, Trotter steps."""

import math

import numpy as np
import pytest

from mlco import sim
from mlco.build import (
    H2Order, PdeParams, WingStyle, build_block, build_one_step, build_steps,
    build_wing, compose_steps, step_orders,
)
from mlco.ir import Circuit, CircuitError, GateKind, cx


def _basis(num_qubits: int, bits: int) -> np.ndarray:
    v = np.zeros(2 ** num_qubits, dtype=complex)
    v[bits] = 1.0
    return v


@pytest.mark.parametrize("style", list(WingStyle))
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_wing_mapping(style, j):
    n = 6
    top = n - 1
    u = sim.unitary_of(build_wing(j, style, n))
    ones = (1 << j) - 1
    lower = u @ _basis(n, ones)  # |0>_top |1..1>
    upper = u @ _basis(n, ones | (1 << top))  # |1>_top |1..1>
    s2 = 1 / math.sqrt(2)
    want0 = np.zeros(2 ** n, dtype=complex)
    want0[ones ^ (1 << (j - 1))] = s2               # |0>_top |0 1..1>
    want0[(1 << top) | (1 << (j - 1))] = s2         # |1>_top |1 0..0>
    want1 = want0.copy()
    want1[(1 << top) | (1 << (j - 1))] *= -1
    assert np.abs(sim.align_phase(lower[None].T, want0[None].T)
                  - want0[None].T).max() < 1e-12
    assert np.abs(sim.align_phase(upper[None].T, want1[None].T)
                  - want1[None].T).max() < 1e-12


@pytest.mark.parametrize("style", list(WingStyle))
def test_wing_cx_count_is_j(style):
    for j in range(1, 6):
        circ = build_wing(j, style, 6)
        assert sum(g.kind is GateKind.CX for g in circ.gates) == j


@pytest.mark.parametrize("style", list(WingStyle))
def test_one_step_cx_total_is_n_times_n_minus_1(style):
    for n in (4, 6, 8):
        circ = build_one_step(PdeParams(n=n), style)
        cxs = sum(g.kind is GateKind.CX for g in circ.gates)
        assert cxs == n * (n - 1)  # 2 * sum_{j=1}^{n-1} j


@pytest.mark.parametrize("style", list(WingStyle))
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_block_is_exact_exponential_of_its_term(style, j):
    p = PdeParams(n=5, tau=0.3, c=1.1, l=0.8)
    u = sim.unitary_of(build_block(j, style, p))
    h_j = sim._h_term(p.n - 1, j)
    want = sim.expm_hermitian((p.c / p.l) * h_j, p.tau)
    assert np.abs(sim.align_phase(u, want) - want).max() < 1e-12


@pytest.mark.parametrize("style", list(WingStyle))
@pytest.mark.parametrize("order", list(H2Order))
def test_one_step_equals_product_formula(style, order):
    p = PdeParams(n=5, tau=0.17, c=1.2, l=0.9)
    _, h1, h2, _ = sim.hamiltonian(p)
    want = sim.expm_hermitian(h1, p.tau) @ sim.expm_hermitian(h2, p.tau)
    u = sim.unitary_of(build_one_step(p, style, order))
    assert np.abs(sim.align_phase(u, want) - want).max() < 1e-10


def test_multi_step_is_power_of_one_step():
    p = PdeParams(n=4, tau=0.15)
    one = sim.unitary_of(build_one_step(p, WingStyle.STAIR))
    three = sim.unitary_of(build_steps(p, 3, WingStyle.STAIR))
    want = np.linalg.matrix_power(one, 3)
    assert np.abs(sim.align_phase(three, want) - want).max() < 1e-10


def test_step_orders_alternate():
    assert step_orders(4) == [H2Order.INCREASING, H2Order.DECREASING,
                              H2Order.INCREASING, H2Order.DECREASING]


def test_compose_steps_concatenates():
    p = PdeParams(n=4)
    a = build_one_step(p, WingStyle.SPRAY)
    b = build_one_step(p, WingStyle.SPRAY, H2Order.DECREASING)
    both = compose_steps([a, b])
    assert both.gates == a.gates + b.gates
    with pytest.raises(ValueError):
        compose_steps([])


def test_compose_steps_rejects_width_mismatch():
    a = Circuit(3, (cx(0, 1),))
    wider = Circuit(4, (cx(0, 1),))
    with_ancilla = Circuit(3, (cx(0, 1),), num_ancillas=1)
    for odd in (wider, with_ancilla):
        with pytest.raises(CircuitError, match="circuit widths differ"):
            compose_steps([a, odd, a])


def test_compose_steps_many_steps_is_the_tuple_sum():
    p = PdeParams(n=5)
    steps = [build_one_step(p, WingStyle.STAIR, o) for o in step_orders(64)]
    got = compose_steps(steps)
    assert got.gates == sum((c.gates for c in steps), ())
    assert (got.num_qubits, got.num_ancillas) == (5, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        PdeParams(n=2)
    with pytest.raises(ValueError):
        PdeParams(n=4, tau=0.0)
    with pytest.raises(ValueError):
        build_wing(0, WingStyle.SPRAY, 4)
    with pytest.raises(ValueError):
        build_wing(4, WingStyle.SPRAY, 4)
    with pytest.raises(ValueError):
        build_steps(PdeParams(n=4), 0, WingStyle.SPRAY)


@pytest.mark.parametrize("tau, c, l", [(1e308, 10.0, 1.0), (1e308, 1.0, 0.5), (1.0, 1.0, 1e-308)])
def test_params_refuse_a_backbone_angle_that_overflows(tau, c, l):
    with pytest.raises(ValueError, match="backbone angle 2\\*c\\*tau/l = inf is not finite"):
        PdeParams(n=4, tau=tau, c=c, l=l)
    assert PdeParams(n=4, tau=tau / 100, c=c, l=l * 100).theta_bb < float("inf")


def test_theta_bb():
    assert PdeParams(n=4, tau=0.2, c=2.0, l=0.5).theta_bb == pytest.approx(1.6)
