"""Synthesis of the wave-equation time-evolution circuits.

Layout: an n-qubit source circuit has discretization wires 0..n-2 (wire
j-1 carries the j-th discretization qubit) and the coupling qubit on wire
n-1 ("top").  Each evolution block j conjugates a (j-controlled) RZ
backbone with a GHZ-style wing; wings come in two shapes, spray (fan-out
CXs from the top wire) and stair (a CX chain climbing the register).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .ir import Circuit, CircuitError, Gate, cx, h, inverse, mcrz, rx, x


@dataclass(frozen=True)
class PdeParams:
    """Problem parameters: n total qubits, time step tau, wave speed c, grid interval l."""

    n: int
    tau: float = 0.2
    c: float = 1.0
    l: float = 1.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        # Every comparison with NaN is False, so finiteness is tested first.
        if not all(math.isfinite(v) and v > 0 for v in (self.tau, self.c, self.l)):
            raise ValueError("tau, c, l must be finite and positive")
        if not math.isfinite(self.theta_bb):
            raise ValueError(f"backbone angle 2*c*tau/l = {self.theta_bb} is not finite")

    @property
    def theta_bb(self) -> float:
        """Backbone rotation angle 2*c*tau/l."""
        return 2.0 * self.c * self.tau / self.l


class WingStyle(enum.Enum):
    SPRAY = "spray"
    STAIR = "stair"


class H2Order(enum.Enum):
    INCREASING = "inc"
    DECREASING = "dec"


def build_wing(j: int, style: WingStyle, n: int) -> Circuit:
    """Wing circuit for block j on n qubits: exactly j CX gates plus X/H.

    Maps |0>_top |1...1>  ->  (|0>_top|0 1..1> + |1>_top|1 0..0>)/sqrt(2)
    and  |1>_top |1...1>  ->  the same superposition with a minus sign,
    where the displayed register is wires j-1 .. 0.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"block index {j} out of range 1..{n - 1}")
    top = n - 1
    gates: list[Gate] = []
    if style is WingStyle.SPRAY:
        gates.append(h(top))
        gates.append(x(j - 1))
        gates.extend(cx(top, q) for q in range(j))
    else:
        gates.extend(x(q) for q in range(j - 1))
        gates.append(h(top))
        gates.append(cx(top, j - 1))
        gates.extend(cx(q, q - 1) for q in range(j - 1, 0, -1))
        gates.append(x(j - 1))
    return Circuit(n, tuple(gates))


def build_block(j: int, style: WingStyle, params: PdeParams) -> Circuit:
    """Evolution block j: left wing, j-controlled RZ backbone, right wing."""
    wing = build_wing(j, style, params.n)
    top = params.n - 1
    backbone = mcrz(tuple(range(j)), top, params.theta_bb)
    gates = list(inverse(wing).gates)
    gates.append(backbone)
    gates += list(wing.gates)
    return Circuit(params.n, tuple(gates))


def build_one_step(params: PdeParams, style: WingStyle,
                   order: H2Order = H2Order.INCREASING) -> Circuit:
    """One Trotter step: the commuting blocks, then the X-rotation part.

    With the rotation last in time the step unitary is the matrix product
    exp(-i H1 tau) * exp(-i H2 tau).
    """
    top = params.n - 1
    gates: list[Gate] = []
    block_range = range(1, params.n)
    if order is H2Order.DECREASING:
        block_range = reversed(block_range)
    for j in block_range:
        gates.extend(build_block(j, style, params).gates)
    gates.append(rx(top, -params.theta_bb))
    return Circuit(params.n, tuple(gates))


def compose_steps(step_circuits: list[Circuit]) -> Circuit:
    """Concatenate step circuits in time order; widths must agree."""
    if not step_circuits:
        raise ValueError("need at least one step circuit")
    first = step_circuits[0]
    width = (first.num_qubits, first.num_ancillas)
    if any((c.num_qubits, c.num_ancillas) != width for c in step_circuits):
        raise CircuitError("circuit widths differ")
    return first.with_gates(g for c in step_circuits for g in c.gates)


def step_orders(steps: int) -> list[H2Order]:
    """Alternating block orders, starting increasing (odd tail is increasing)."""
    return [H2Order.INCREASING if i % 2 == 0 else H2Order.DECREASING
            for i in range(steps)]


def build_steps(params: PdeParams, steps: int, style: WingStyle) -> Circuit:
    """Multi-step source circuit with alternating block orders."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return compose_steps([build_one_step(params, style, o) for o in step_orders(steps)])
