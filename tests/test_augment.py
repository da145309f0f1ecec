import numpy as np
import pytest

from cascad.augment import (AugmentError, chain_conditions, insert_cond,
                            insert_joint)
from cascad.circuit import GateKind
from cascad.sim import SimulationPlan, sample_patterns, simulate

from conftest import random_circuit


class TestInsertJoint:
    def test_basic(self, toy_and):
        c, a, b, g = toy_and
        aug, joint = insert_joint(c, a, b)
        assert aug.kind(joint.gate) is GateKind.VIRTUAL_AND
        assert aug.gates[joint.gate].fanins == (a, b)
        assert len(aug) == len(c) + 1

    def test_original_untouched(self, toy_and):
        c, *_ = toy_and
        before = len(c)
        insert_joint(c, 0, 1)
        assert len(c) == before

    def test_idempotent(self, toy_and):
        c, a, b, g = toy_and
        aug, j1 = insert_joint(c, a, b)
        aug2, j2 = insert_joint(aug, a, b)
        assert aug2 is aug and j2.gate == j1.gate

    def test_self_joint_rejected(self, toy_and):
        c, a, *_ = toy_and
        with pytest.raises(AugmentError, match="itself"):
            insert_joint(c, a, a)

    def test_virtual_operand_rejected(self, toy_and):
        c, a, b, g = toy_and
        aug, joint = insert_joint(c, a, b)
        with pytest.raises(AugmentError, match="virtual"):
            insert_joint(aug, joint.gate, g)

    def test_function_preserved(self):
        c = random_circuit(2, num_pis=4, num_gates=20)
        aug, _ = insert_joint(c, 0, len(c) - 1)
        block = sample_patterns(SimulationPlan(128, 0.5, seed=0), 4)
        t1 = simulate(c, block)
        t2 = simulate(aug, block)
        for g in range(len(c)):
            assert np.array_equal(t1.trace(g), t2.trace(g))


class TestInsertCond:
    def test_creates_joint_and_div(self, toy_and):
        c, a, b, g = toy_and
        aug, cond = insert_cond(c, a, b)
        assert aug.kind(cond.gate) is GateKind.VIRTUAL_DIV
        assert aug.kind(cond.numerator) is GateKind.VIRTUAL_AND
        assert aug.gates[cond.gate].fanins == (cond.numerator, b)
        assert len(aug) == len(c) + 2

    def test_reuses_existing_joint(self, toy_and):
        c, a, b, g = toy_and
        aug, joint = insert_joint(c, a, b)
        aug2, cond = insert_cond(aug, a, b)
        assert cond.numerator == joint.gate
        assert len(aug2) == len(aug) + 1

    def test_idempotent(self, toy_and):
        c, a, b, g = toy_and
        aug, c1 = insert_cond(c, a, b)
        aug2, c2 = insert_cond(aug, a, b)
        assert aug2 is aug and c2.gate == c1.gate

    def test_degenerate_self_condition_allowed(self, toy_and):
        c, a, *_ = toy_and
        aug, cond = insert_cond(c, a, a)
        assert aug.kind(cond.gate) is GateKind.VIRTUAL_DIV


class TestChainConditions:
    def test_single_positive_is_identity(self, toy_and):
        c, a, *_ = toy_and
        assert chain_conditions(c, [(a, True)]) == a

    def test_single_negative_adds_not(self, toy_and):
        c, a, *_ = toy_and
        g = chain_conditions(c, [(a, False)])
        assert c.kind(g) is GateKind.NOT
        assert c.gates[g].fanins == (a,)

    def test_left_leaning_shape(self, toy_and):
        c, a, b, g = toy_and
        top = chain_conditions(c, [(a, True), (b, True), (g, True)])
        assert c.kind(top) is GateKind.VIRTUAL_AND
        left, right = c.gates[top].fanins
        assert right == g
        assert c.kind(left) is GateKind.VIRTUAL_AND
        assert c.gates[left].fanins == (a, b)

    def test_chain_trace_is_conjunction(self):
        c = random_circuit(5, num_pis=4, num_gates=15)
        conds = [(0, True), (5, False), (len(c) - 1, True)]
        top = chain_conditions(c, conds)
        n = 250
        block = sample_patterns(SimulationPlan(n, 0.5, seed=1), 4)
        traces = simulate(c, block)
        unpack = lambda g: np.unpackbits(traces.trace(g), bitorder="little")[:n]
        expect = np.ones(n, dtype=np.uint8)
        for g, pol in conds:
            t = unpack(g)
            expect &= t if pol else 1 - t
        assert np.array_equal(unpack(top), expect)

    def test_empty_rejected(self, toy_and):
        c, *_ = toy_and
        with pytest.raises(AugmentError, match="empty"):
            chain_conditions(c, [])

    def test_duplicate_rejected(self, toy_and):
        c, a, *_ = toy_and
        with pytest.raises(AugmentError, match="duplicate"):
            chain_conditions(c, [(a, True), (a, False)])

