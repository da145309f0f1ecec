"""Virtual-gate augmentation: joint/conditional observation nodes and
condition chains.

Virtual gates are observation-only sinks: they are never consumed by Boolean
logic, so augmentation leaves the original circuit semantics untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, GateKind, ShapeError


class AugmentError(Exception):
    pass


@dataclass(frozen=True)
class JointNode:
    gate: int  # VIRTUAL_AND id
    target: int
    condition: int


@dataclass(frozen=True)
class CondNode:
    gate: int  # VIRTUAL_DIV id
    numerator: int  # the JointNode's gate
    denominator: int


def _check_operand(circuit: Circuit, g: int, name: str):
    if not (0 <= g < len(circuit)):
        raise ShapeError(f"{name} {g} is not a gate id")
    if circuit.kind(g) is GateKind.VIRTUAL_DIV or circuit.kind(g) is GateKind.VIRTUAL_AND:
        raise AugmentError(f"{name} {g} is a virtual gate")


def _find_virtual_and(circuit: Circuit, target: int, condition: int) -> int | None:
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.VIRTUAL_AND and g.fanins == (target, condition):
            return i
    return None


def insert_joint(circuit: Circuit, target: int, condition: int) -> tuple[Circuit, JointNode]:
    """Append a VIRTUAL_AND sink observing target AND condition (idempotent)."""
    _check_operand(circuit, target, "target")
    _check_operand(circuit, condition, "condition")
    if target == condition:
        raise AugmentError("joint of a node with itself is not meaningful")
    existing = _find_virtual_and(circuit, target, condition)
    if existing is not None:
        return circuit, JointNode(existing, target, condition)
    aug = circuit.copy()
    gate = aug.add_virtual_and(target, condition)
    return aug, JointNode(gate, target, condition)


def insert_cond(circuit: Circuit, target: int, condition: int) -> tuple[Circuit, CondNode]:
    """Append a VIRTUAL_DIV sink carrying P(target | condition) semantics.

    target == condition is allowed as a degenerate node (P(A|A) = 1).  The
    condition may be a VIRTUAL_AND chain built by chain_conditions.
    """
    _check_operand(circuit, target, "target")
    if not (0 <= condition < len(circuit)):
        raise ShapeError(f"condition {condition} is not a gate id")
    if circuit.kind(condition) is GateKind.VIRTUAL_DIV:
        raise AugmentError(f"condition {condition} is a virtual division node")
    aug = circuit
    joint = _find_virtual_and(aug, target, condition)
    if joint is None:
        aug = aug.copy()
        joint = aug.add_virtual_and(target, condition)
    for i, g in enumerate(aug.gates):
        if g.kind is GateKind.VIRTUAL_DIV and g.fanins == (joint, condition):
            return aug, CondNode(i, joint, condition)
    if aug is circuit:
        aug = aug.copy()
    gate = aug.add_virtual_div(joint, condition)
    return aug, CondNode(gate, joint, condition)


def chain_conditions(circuit: Circuit,
                     conditions: list[tuple[int, bool]]) -> int:
    """Combine conditions into one gate C = c1' AND c2' AND ... (left-leaning).

    Each condition is (gate, polarity); polarity False negates via a NOT node.
    Appends chain gates to the given circuit in place; a single positive
    condition returns its gate unchanged.
    """
    if not conditions:
        raise AugmentError("empty condition list")
    ids = [g for g, _ in conditions]
    if len(set(ids)) != len(ids):
        raise AugmentError(f"duplicate condition ids in {ids}")
    for g, _ in conditions:
        _check_operand(circuit, g, "condition")

    def polarized(g: int, pol: bool) -> int:
        return g if pol else circuit.add_not(g)

    acc = polarized(*conditions[0])
    for g, pol in conditions[1:]:
        acc = circuit.add_virtual_and(acc, polarized(g, pol))
    return acc

