import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cascad.circuit import (AigerParseError, Circuit, CircuitError, CycleError,
                            GateKind, MutationError, ShapeError, build_miter,
                            emit_aiger, fanin_cone, fanout_cone, levelize,
                            mutate_circuit, parse_aiger, rebuild)
from cascad.sim import exact_truth_table

from conftest import all_input_rows, eval_circuit, random_circuit


class TestParseAiger:
    def test_identity_circuit(self):
        c = parse_aiger(b"aag 1 1 0 1 0\n2\n2\n")
        assert len(c.primary_inputs) == 1
        assert c.primary_outputs == c.primary_inputs

    def test_single_and(self):
        c = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        assert len(c.primary_inputs) == 2
        assert c.kind(c.primary_outputs[0]) is GateKind.AND
        assert c.level(c.primary_outputs[0]) == 1

    def test_inverted_edges_become_not_gates(self):
        # output = NOT(AND(a, NOT(b)))
        c = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n7\n6 2 5\n")
        po = c.primary_outputs[0]
        assert c.kind(po) is GateKind.NOT
        rows = {r: eval_circuit(c, vals)[po] for r, vals in all_input_rows(c)}
        # a=1,b=0 is the only row where AND(a, NOT b)=1
        assert rows == {0: True, 1: True, 2: False, 3: True}

    def test_const_false_output(self):
        c = parse_aiger(b"aag 1 1 0 1 0\n2\n0\n")
        assert c.kind(c.primary_outputs[0]) is GateKind.CONST0

    def test_latches_rejected(self):
        with pytest.raises(AigerParseError, match="latch"):
            parse_aiger(b"aag 3 1 1 1 0\n2\n4 2\n4\n")

    def test_malformed_header(self):
        with pytest.raises(AigerParseError, match="header"):
            parse_aiger(b"agg 1 1 0 1 0\n2\n2\n")

    def test_dangling_literal(self):
        with pytest.raises(AigerParseError, match="dangling"):
            parse_aiger(b"aag 2 1 0 1 0\n2\n4\n")

    def test_binary_format(self):
        # binary encoding of AND(a, b): deltas 2, 2
        data = b"aig 3 2 0 1 1\n6\n" + bytes([2, 2])
        c = parse_aiger(data)
        assert c.kind(c.primary_outputs[0]) is GateKind.AND

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=60),
        st.builds(lambda fmt, m, i, o, a, body:
                  f"{fmt} {m} {i} 0 {o} {a}\n".encode() + body,
                  st.sampled_from(["aag", "aig"]), *[st.integers(-1, 5)] * 4,
                  st.one_of(st.binary(max_size=30),
                            st.text(alphabet="0123456789 -x\n",
                                    max_size=40).map(str.encode)))))
    @example(b"aig 1 0 0 1 0\nx\n")
    def test_fuzz_raises_only_circuit_errors(self, data):
        try:
            parse_aiger(data)
        except CircuitError:
            pass

    def test_shared_not_is_deduplicated(self):
        # two ANDs both consuming NOT(a)
        c = parse_aiger(b"aag 4 2 0 2 2\n2\n4\n6\n8\n6 3 4\n8 3 4\n")
        nots = [g for g in c.gates if g.kind is GateKind.NOT]
        assert len(nots) == 1


class TestEmitAiger:
    def test_identity(self):
        c = Circuit()
        a = c.add_pi()
        c.set_outputs([a])
        assert emit_aiger(c) == b"aag 1 1 0 1 0\n2\n2\n"

    def test_and_of_two_pis(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        c.set_outputs([c.add_and(a, b)])
        body = emit_aiger(c).decode()
        assert body.splitlines()[0] == "aag 3 2 0 1 1"
        assert body.splitlines()[-1] == "6 2 4"

    def test_virtual_gate_rejected(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        c.add_virtual_and(a, b)
        c.set_outputs([a])
        with pytest.raises(ShapeError, match="virtual"):
            emit_aiger(c)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_preserves_function(self, seed):
        c = random_circuit(seed, num_pis=5, num_gates=60)
        c2 = parse_aiger(emit_aiger(c))
        assert len(c2.primary_inputs) == len(c.primary_inputs)
        for _, vals in all_input_rows(c):
            out1 = eval_circuit(c, vals)[c.primary_outputs[0]]
            vals2 = {p: vals[q] for p, q in
                     zip(c2.primary_inputs, c.primary_inputs)}
            out2 = eval_circuit(c2, vals2)[c2.primary_outputs[0]]
            assert out1 == out2

    def test_parse_emit_parse_fixpoint(self):
        for seed in range(5):
            c = random_circuit(seed, num_pis=4, num_gates=30)
            once = emit_aiger(parse_aiger(emit_aiger(c)))
            twice = emit_aiger(parse_aiger(once))
            assert once == twice


class TestLevelize:
    def test_pi_level_zero(self):
        c = Circuit()
        a = c.add_pi()
        assert levelize(c)[a] == 0

    def test_not_counts_one_level(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        g = c.add_and(a, b)
        n = c.add_not(g)
        levels = levelize(c)
        assert levels[g] == 1 and levels[n] == 2

    def test_and_chain_depth(self):
        c = Circuit()
        acc = c.add_pi()
        other = c.add_pi()
        for _ in range(10):
            acc = c.add_and(acc, other)
        assert levelize(c)[acc] == 10

    def test_cycle_detected(self):
        c = Circuit()
        a = c.add_pi()
        g = c.add_and(a, a)
        # force an out-of-order fanin to simulate a cycle
        from cascad.circuit import Gate
        c.gates[g] = Gate(GateKind.AND, (a, g))
        with pytest.raises(CycleError):
            levelize(c)


def _bfs(circuit, root, forward, depth_bound):
    levels = circuit.levels
    if forward:
        adj = circuit.fanouts()
        within = lambda g: depth_bound is None or levels[g] - levels[root] <= depth_bound
    else:
        adj = [list(g.fanins) for g in circuit.gates]
        within = lambda g: depth_bound is None or levels[root] - levels[g] <= depth_bound
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for g in frontier:
            for s in adj[g]:
                if s not in seen and within(s):
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


class TestCones:
    def test_fanin_cone_of_pi(self):
        c = Circuit()
        a = c.add_pi()
        assert fanin_cone(c, a).members == {a}

    def test_fanin_cone_of_and(self, toy_and):
        c, a, b, g = toy_and
        assert fanin_cone(c, g).members == {a, b, g}

    def test_fanout_cone_of_po(self, toy_and):
        c, a, b, g = toy_and
        assert fanout_cone(c, g, 5).members == {g}

    def test_fanout_through_not(self):
        c = Circuit()
        a = c.add_pi()
        n = c.add_not(a)
        assert fanout_cone(c, a, 1).members == {a, n}

    @pytest.mark.parametrize("seed", range(6))
    def test_cones_match_bfs_oracle(self, seed):
        c = random_circuit(seed, num_pis=6, num_gates=200)
        rng = random.Random(seed)
        for _ in range(10):
            root = rng.randrange(len(c))
            bound = rng.choice([None, 2, 5, 10])
            assert fanin_cone(c, root, bound).members == _bfs(c, root, False, bound)
            assert fanout_cone(c, root, bound).members == _bfs(c, root, True, bound)


def _circuit_sat(miter):
    po = miter.primary_outputs[0]
    tt = exact_truth_table(miter)
    return tt.count(po) > 0


class TestMiter:
    def test_self_equivalence_unsat(self):
        for seed in range(4):
            c = random_circuit(seed, num_pis=4, num_gates=25)
            assert not _circuit_sat(build_miter(c, c))

    def test_double_negation_unsat(self, toy_and):
        c, a, b, g = toy_and
        right = Circuit()
        x, y = right.add_pi(), right.add_pi()
        from cascad.circuit import Gate
        inner = right.add_and(x, y)
        n1 = right._append(Gate(GateKind.NOT, (inner,)))
        n2 = right._append(Gate(GateKind.NOT, (n1,)))
        right.set_outputs([n2])
        assert not _circuit_sat(build_miter(c, right))

    def test_differing_circuits_sat(self, toy_and):
        c, a, b, g = toy_and
        right = Circuit()
        x, y = right.add_pi(), right.add_pi()
        right.set_outputs([right.add_and(x, right.add_not(y))])
        miter = build_miter(c, right)
        tt = exact_truth_table(miter)
        po = miter.primary_outputs[0]
        # differ exactly when b matters: rows a=1,b=1 and a=1,b=0
        diff_rows = [r for r, vals in all_input_rows(miter)
                     if eval_circuit(miter, vals)[po]]
        assert diff_rows == [2, 3]

    def test_pi_mismatch_rejected(self, toy_and):
        c, *_ = toy_and
        right = Circuit()
        right.set_outputs([right.add_pi()])
        with pytest.raises(ShapeError, match="PI count"):
            build_miter(c, right)

    @pytest.mark.parametrize("seed", range(6))
    def test_miter_soundness(self, seed):
        left = random_circuit(seed, num_pis=4, num_gates=20)
        right = random_circuit(seed + 100, num_pis=4, num_gates=20)
        miter = build_miter(left, right)
        differs = False
        for _, vals in all_input_rows(left):
            lv = eval_circuit(left, vals)[left.primary_outputs[0]]
            rvals = {p: vals[q] for p, q in
                     zip(right.primary_inputs, left.primary_inputs)}
            rv = eval_circuit(right, rvals)[right.primary_outputs[0]]
            if lv != rv:
                differs = True
                break
        assert _circuit_sat(miter) == differs


class TestRebuild:
    def test_copies_boolean_gates_and_skips_virtual(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        aug.add_virtual_and(a, g)
        dst = Circuit()
        node_map = rebuild(aug, dst, {})
        assert [x.kind for x in dst.gates] == \
            [GateKind.PI, GateKind.PI, GateKind.AND]
        assert node_map == {a: 0, b: 1, g: 2}

    def test_edit_replaces_one_and(self, toy_and):
        c, a, b, g = toy_and
        dst = Circuit()
        node_map = rebuild(c, dst, {},
                           lambda i, fanins: dst.add_not(fanins[0]))
        assert dst.kind(node_map[g]) is GateKind.NOT


class TestMutate:
    def test_fanin_inversion(self, toy_and):
        c, a, b, g = toy_and
        m = mutate_circuit(c, seed=1)
        # still parses and levelizes
        assert m.levels is not None
        assert len(m.primary_inputs) == 2

    def test_determinism(self):
        c = random_circuit(3, num_pis=5, num_gates=30)
        m1 = mutate_circuit(c, seed=7)
        m2 = mutate_circuit(c, seed=7)
        assert [g.fanins for g in m1.gates] == [g.fanins for g in m2.gates]

    def test_no_mutable_site(self):
        c = Circuit()
        c.set_outputs([c.add_pi()])
        with pytest.raises(MutationError):
            mutate_circuit(c, seed=0)

    def test_virtual_gates_rejected(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        aug.add_virtual_and(a, b)
        with pytest.raises(MutationError, match="virtual"):
            mutate_circuit(aug, seed=0)

    def test_mutation_usually_changes_function(self):
        c = random_circuit(11, num_pis=5, num_gates=40)
        changed = 0
        for seed in range(10):
            m = mutate_circuit(c, seed=seed)
            for _, vals in all_input_rows(c):
                mvals = {p: vals[q] for p, q in
                         zip(m.primary_inputs, c.primary_inputs)}
                if eval_circuit(c, vals)[c.primary_outputs[0]] != \
                        eval_circuit(m, mvals)[m.primary_outputs[0]]:
                    changed += 1
                    break
        assert changed >= 5  # accept-and-retry covers equal-function mutants


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_topological_order_and_level_law(self, seed):
        c = random_circuit(seed, num_pis=5, num_gates=80)
        levels = c.levels
        for i, g in enumerate(c.gates):
            for f in g.fanins:
                assert f < i
            if g.fanins:
                assert levels[i] == 1 + max(levels[f] for f in g.fanins)
            else:
                assert levels[i] == 0
