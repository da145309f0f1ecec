import pytest
from hypothesis import example, given, settings, strategies as st

from cascad.circuit import (AigerParseError, Circuit, CircuitError, CycleError,
                            Gate, GateKind, MutationError, ShapeError, build_miter,
                            emit_aiger, levelize, mutate_circuit, parse_aiger,
                            rebuild, strash)
from cascad.sim import exact_truth_table

from conftest import (all_input_rows, eval_circuit, pad_with_dead_logic,
                      random_circuit)


class TestParseAiger:
    def test_identity_circuit(self):
        c = parse_aiger(b"aag 1 1 0 1 0\n2\n2\n")
        assert len(c.primary_inputs) == 1
        assert c.primary_outputs == c.primary_inputs

    def test_single_and(self):
        c = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        assert len(c.primary_inputs) == 2
        assert c.gates[c.primary_outputs[0]].kind is GateKind.AND
        assert levelize(c)[c.primary_outputs[0]] == 1

    def test_inverted_edges_become_not_gates(self):
        # output = NOT(AND(a, NOT(b)))
        c = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n7\n6 2 5\n")
        po = c.primary_outputs[0]
        assert c.gates[po].kind is GateKind.NOT
        rows = {r: eval_circuit(c, vals)[po] for r, vals in all_input_rows(c)}
        # a=1,b=0 is the only row where AND(a, NOT b)=1
        assert rows == {0: True, 1: True, 2: False, 3: True}

    def test_const_false_output(self):
        c = parse_aiger(b"aag 1 1 0 1 0\n2\n0\n")
        assert c.gates[c.primary_outputs[0]].kind is GateKind.CONST0

    def test_latches_rejected(self):
        with pytest.raises(AigerParseError, match="latch"):
            parse_aiger(b"aag 3 1 1 1 0\n2\n4 2\n4\n")

    def test_malformed_header(self):
        with pytest.raises(AigerParseError, match="header"):
            parse_aiger(b"agg 1 1 0 1 0\n2\n2\n")

    @pytest.mark.parametrize("fmt, body", [
        ("aag", b"2\n4\n6\n6 2 4\n"), ("aig", b"6\n" + bytes([2, 2]))])
    @pytest.mark.parametrize("extra, message", [
        (" 1", "bad-state"),            # one bad-state property
        (" 0 1", "constraint"),         # one invariant constraint
        (" 0 0 0 2", "fairness"),
        (" x", "header counts"),
        (" 0 0 0 0 0", "malformed header"),  # a tenth count
    ])
    def test_aiger_19_properties_rejected(self, fmt, body, extra, message):
        """An AIGER 1.9 header's B, C, J and F counts are read: a property
        section is rejected, as latches are, not parsed as ANDs."""
        with pytest.raises(AigerParseError, match=message):
            parse_aiger(f"{fmt} 3 2 0 1 1{extra}\n".encode() + body)

    @pytest.mark.parametrize("fmt, body", [
        ("aag", b"2\n4\n6\n6 2 4\n"), ("aig", b"6\n" + bytes([2, 2]))])
    def test_aiger_19_zero_properties_accepted(self, fmt, body):
        header = f"{fmt} 3 2 0 1 1".encode()
        plain = parse_aiger(header + b"\n" + body)
        assert parse_aiger(header + b" 0 0 0 0\n" + body).gates == plain.gates

    def test_dangling_literal(self):
        with pytest.raises(AigerParseError, match="dangling"):
            parse_aiger(b"aag 2 1 0 1 0\n2\n4\n")

    def test_binary_format(self):
        # binary encoding of AND(a, b): deltas 2, 2
        data = b"aig 3 2 0 1 1\n6\n" + bytes([2, 2])
        c = parse_aiger(data)
        assert c.gates[c.primary_outputs[0]].kind is GateKind.AND

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

    def test_repeated_input_rejected(self):
        with pytest.raises(AigerParseError, match="repeated"):
            parse_aiger(b"aag 1 2 0 1 0\n2\n2\n2\n")

    def test_and_lhs_that_is_an_input_rejected(self):
        with pytest.raises(AigerParseError, match="is an input"):
            parse_aiger(b"aag 2 2 0 1 1\n2\n4\n2\n2 4 4\n")

    def test_and_lhs_defined_twice_rejected(self):
        with pytest.raises(AigerParseError, match="defined twice"):
            parse_aiger(b"aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 5\n")

    def test_input_beyond_maxvar_rejected(self):
        with pytest.raises(AigerParseError, match="exceeds maxvar"):
            parse_aiger(b"aag 1 2 0 1 0\n2\n4\n2\n")

    def test_out_of_order_shared_fanin(self):
        # 10 = AND(6, 8) comes first and 8 = AND(6, b) next, so 6 = AND(a, b)
        # is needed twice before it is built: a shared fanin, not a cycle
        c = parse_aiger(b"aag 5 2 0 1 3\n2\n4\n10\n10 6 8\n8 6 4\n6 2 4\n")
        assert [g.kind for g in c.gates].count(GateKind.AND) == 3
        po = c.primary_outputs[0]
        rows = {r: eval_circuit(c, vals)[po] for r, vals in all_input_rows(c)}
        assert rows == {0: False, 1: False, 2: False, 3: True}

    @pytest.mark.parametrize("data", [
        b"aag 4 1 0 1 3\n2\n8\n8 6 2\n6 4 2\n4 8 2\n",
        b"aag 2 1 0 1 1\n2\n4\n4 4 2\n",
    ])
    def test_cycle_detected(self, data):
        with pytest.raises(CycleError):
            parse_aiger(data)

    @pytest.mark.parametrize("data", [
        b"aag +1_0 1_0 0 0 0\n"                    # header counts
        + b"".join(b"%d\n" % (2 * k) for k in range(1, 11)),
        b"aag +1 1 0 1 0\n2\n2\n",
        b"aag 0_1 1 0 1 0\n2\n2\n",
        "aag \u0661 1 0 1 0\n2\n2\n".encode(),  # an Arabic-Indic one
        b"aag 1 1 0 1 0\n+2\n2\n",                # an input line
        b"aag 1 1 0 1 0\n2\n0_2\n",               # an output line
        b"aag 3 2 0 1 1\n2\n4\n6\n6 +2 4\n",      # an AND line
        b"aag 3 2 0 1 1\n2\n4\n6\n6 0_2 4\n",
        "aag 1 1 0 1 0\n2\n\u0662\n".encode(),
        b"aig 1 1 0 1 0\n+2\n",                   # a binary output line
        b"aig 3 2 0 1 1\n0_6\n" + bytes([2, 2]),
        "aig 1 1 0 1 0\n\u0662\n".encode(),
    ])
    def test_sign_underscore_and_other_digits_rejected(self, data):
        """AIGER numbers are ASCII digits alone; int() would also read a
        sign and underscores."""
        with pytest.raises(AigerParseError):
            parse_aiger(data)

    def test_shared_not_is_deduplicated(self):
        # two ANDs both consuming NOT(a)
        c = parse_aiger(b"aag 4 2 0 2 2\n2\n4\n6\n8\n6 3 4\n8 3 4\n")
        nots = [g for g in c.gates if g.kind is GateKind.NOT]
        assert len(nots) == 1


class TestGateShape:
    @pytest.mark.parametrize("kind, fanins", [
        (GateKind.AND, (0,)), (GateKind.NOT, ()), (GateKind.PI, (0,)),
        (GateKind.CONST0, (0, 1))])
    def test_wrong_fanin_count(self, kind, fanins):
        with pytest.raises(ShapeError, match="fanins"):
            Gate(kind, fanins)

    def test_gate_is_immutable(self):
        g = Gate(GateKind.AND, (0, 1))
        with pytest.raises(AttributeError):
            g.kind = GateKind.NOT

    @pytest.mark.parametrize("a, b", [(0, 2), (2, 0), (-1, 1), (1, -2)])
    def test_and_fanin_out_of_range(self, a, b):
        c = Circuit()
        c.add_pi()
        c.add_pi()
        with pytest.raises(ShapeError, match="out of range"):
            c.add_and(a, b)
        assert len(c) == 2

    def test_not_fanin_out_of_range(self):
        c = Circuit()
        c.add_pi()
        for a in (-1, 1):
            with pytest.raises(ShapeError, match="out of range"):
                c.add_not(a)
        with pytest.raises(ShapeError, match="out of range"):
            c._append(Gate(GateKind.NOT, (1,)))
        assert len(c) == 1


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
        c.gates[g] = Gate(GateKind.AND, (a, g))
        with pytest.raises(CycleError):
            levelize(c)


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

    def test_no_outputs_rejected(self):
        left, right = Circuit(), Circuit()
        for c in (left, right):
            c.add_pi()
        with pytest.raises(ShapeError, match="no outputs to compare"):
            build_miter(left, right)

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
    def test_copies_boolean_gates(self, toy_and):
        c, a, b, g = toy_and
        dst = Circuit()
        node_map = rebuild(c, dst, {})
        assert [x.kind for x in dst.gates] == \
            [GateKind.PI, GateKind.PI, GateKind.AND]
        assert node_map == {a: 0, b: 1, g: 2}

    def test_edit_replaces_one_and(self, toy_and):
        c, a, b, g = toy_and
        dst = Circuit()
        node_map = rebuild(c, dst, {},
                           lambda i, fanins: dst.add_not(fanins[0]))
        assert dst.gates[node_map[g]].kind is GateKind.NOT


def _ands(circuit):
    return sum(g.kind is GateKind.AND for g in circuit.gates)


class TestStrash:
    def outputs_of_every_kind(self, seed, not_prob):
        """A random circuit whose outputs are an AND, a NOT, a PI, a middle
        gate and the constant."""
        c = random_circuit(seed, num_pis=5, num_gates=60, not_prob=not_prob)
        last = len(c) - 1
        c.set_outputs([last, c.add_not(last), c.primary_inputs[2],
                       len(c) // 2, c.add_const0()])
        return c

    @pytest.mark.parametrize("not_prob", [0.0, 0.4, 0.9])
    @pytest.mark.parametrize("seed", range(8))
    def test_every_output_keeps_its_truth_table(self, seed, not_prob):
        c = self.outputs_of_every_kind(seed, not_prob)
        h = strash(c)
        tc, th = exact_truth_table(c), exact_truth_table(h)
        for pc, ph in zip(c.primary_outputs, h.primary_outputs, strict=True):
            assert tc.trace(pc).tobytes() == th.trace(ph).tobytes()

    def test_random_circuits_lose_their_duplicates(self):
        # 5 PIs and 60 ANDs draw repeated fanin pairs
        merged = [_ands(c) - _ands(strash(c)) for c in
                  (random_circuit(s, num_pis=5, num_gates=60) for s in range(8))]
        assert all(m >= 0 for m in merged) and sum(merged) > 0

    def test_commuted_and_becomes_one_gate(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        c.set_outputs([c.add_and(a, b), c.add_and(b, a)])
        h = strash(c)
        assert _ands(h) == 1
        assert h.primary_outputs[0] == h.primary_outputs[1]

    def test_double_negation_and_duplicate_not_merge(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        # bypass add_not's sharing and collapsing
        na1 = c._append(Gate(GateKind.NOT, (a,)))
        na2 = c._append(Gate(GateKind.NOT, (a,)))
        nna = c._append(Gate(GateKind.NOT, (na1,)))
        c.set_outputs([c.add_and(na1, b), c.add_and(b, na2),
                       c.add_and(nna, b), c.add_and(a, b)])
        h = strash(c)
        assert _ands(h) == 2
        assert len(set(h.primary_outputs)) == 2
        assert sum(g.kind is GateKind.NOT for g in h.gates) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_second_strash_merges_nothing(self, seed):
        h = strash(self.outputs_of_every_kind(seed, 0.4))
        again = strash(h)
        assert again.gates == h.gates
        assert again.primary_inputs == h.primary_inputs
        assert again.primary_outputs == h.primary_outputs

    def test_pis_and_outputs_kept(self):
        c = Circuit()
        a = c.add_pi()
        g = c.add_and(a, a)
        b = c.add_pi()  # a PI after a gate
        c.set_outputs([c.add_and(b, g), b, c.add_and(g, b)])
        h = strash(c)
        assert h.primary_inputs == [0, 1]
        assert [h.gates[p].kind for p in h.primary_inputs] == [GateKind.PI] * 2
        assert len(h.primary_outputs) == 3
        assert h.primary_outputs[1] == h.primary_inputs[1]
        assert h.primary_outputs[0] == h.primary_outputs[2]
        tc, th = exact_truth_table(c), exact_truth_table(h)
        for pc, ph in zip(c.primary_outputs, h.primary_outputs):
            assert tc.trace(pc).tobytes() == th.trace(ph).tobytes()

    def test_input_not_mutated(self):
        c = self.outputs_of_every_kind(3, 0.4)
        before = (list(c.gates), list(c.primary_inputs),
                  list(c.primary_outputs), dict(c._not_cache), c._const0)
        strash(c)
        assert (c.gates, c.primary_inputs, c.primary_outputs,
                c._not_cache, c._const0) == before

    @pytest.mark.parametrize("not_prob", [0.0, 0.4, 0.9])
    @pytest.mark.parametrize("seed", range(8))
    def test_dead_logic_dropped(self, seed, not_prob):
        c = random_circuit(seed, num_pis=5, num_gates=60, not_prob=not_prob)
        c.set_outputs([len(c) - 1, len(c) // 2])
        padded = pad_with_dead_logic(c, seed)
        assert len(padded) > len(c)
        h, hp = strash(c), strash(padded)
        assert hp.gates == h.gates
        assert hp.primary_inputs == h.primary_inputs
        assert hp.primary_outputs == h.primary_outputs

    def test_unread_pi_kept_in_its_place(self):
        c = Circuit()
        a, _b = c.add_pi(), c.add_pi()  # no output reads _b
        c.add_and(a, c.add_not(a))
        c.add_pi()  # nor this PI after a gate
        e = c.add_pi()
        c.set_outputs([c.add_and(e, c.add_not(a))])
        h = strash(c)
        assert h.primary_inputs == [0, 1, 2, 3]
        assert [g.kind for g in h.gates] == \
            [GateKind.PI] * 4 + [GateKind.NOT, GateKind.AND]
        assert h.gates[h.primary_outputs[0]].fanins == (3, 4)

    def test_no_outputs_leaves_only_the_pis(self):
        c = random_circuit(2, num_pis=5, num_gates=30)
        c.set_outputs([])
        h = strash(c)
        assert h.gates == [Gate(GateKind.PI)] * 5
        assert h.primary_inputs == list(range(5))
        assert h.primary_outputs == []


class TestMutate:
    def test_fanin_inversion(self, toy_and):
        c, a, b, g = toy_and
        m = mutate_circuit(c, seed=1)
        # still parses and levelizes
        assert levelize(m) is not None
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

    def test_no_and_an_output_reads(self):
        # a change to the unread AND would leave the output as it was
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        c.add_and(a, b)
        c.set_outputs([c.add_not(b)])
        for seed in range(5):
            with pytest.raises(MutationError, match="cone"):
                mutate_circuit(c, seed=seed)

    def test_only_gates_an_output_observes_are_mutated(self):
        c = Circuit()
        a, b, d = c.add_pi(), c.add_pi(), c.add_pi()
        c.set_outputs([c.add_and(a, b)])
        c.add_and(b, d)  # dangling: mutating it would leave the function
        before = exact_truth_table(c).trace(c.primary_outputs[0])
        for seed in range(20):
            m = mutate_circuit(c, seed=seed)
            after = exact_truth_table(m).trace(m.primary_outputs[0])
            assert (before != after).any(), seed

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
        levels = levelize(c)
        for i, g in enumerate(c.gates):
            for f in g.fanins:
                assert f < i
            if g.fanins:
                assert levels[i] == 1 + max(levels[f] for f in g.fanins)
            else:
                assert levels[i] == 0
