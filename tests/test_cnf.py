import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cascad.circuit import Circuit
from cascad.cnf import (CnfError, CnfFormula, emit_dimacs, lit_to_signal,
                        parse_dimacs, signal_to_lit, tseitin_encode)

from conftest import all_input_rows, enum_cnf_sat, eval_circuit, random_circuit


def cnf_models(cnf):
    """All satisfying assignments, as dicts var -> bool (enumeration oracle)."""
    out = []
    for bits in range(1 << cnf.num_vars):
        asg = {v: bool((bits >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}
        if all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in cnf.clauses):
            out.append(asg)
    return out


class TestTseitin:
    def test_and_clause_shape(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap = tseitin_encode(c)
        assert cnf.num_vars == 3
        va, vb, vg = (vmap.gate_to_var[x] for x in (a, b, g))
        assert sorted(map(sorted, cnf.clauses)) == sorted(map(sorted, [
            [-vg, va], [-vg, vb], [vg, -va, -vb]]))

    def test_variable_numbering_is_topological(self):
        c = random_circuit(0, num_pis=4, num_gates=20)
        _, vmap = tseitin_encode(c)
        pairs = sorted(vmap.gate_to_var.items())
        assert [v for _, v in pairs] == list(range(1, len(pairs) + 1))

    def test_not_gets_own_variable(self):
        c = Circuit()
        a = c.add_pi()
        n = c.add_not(a)
        c.set_outputs([n])
        cnf, vmap = tseitin_encode(c)
        assert cnf.num_vars == 2
        assert vmap.gate_to_var[n] != vmap.gate_to_var[a]

    def test_virtual_gates_skipped(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        j = aug.add_virtual_and(a, b)
        aug.add_virtual_div(j, b)
        cnf, vmap = tseitin_encode(aug)
        base_cnf, _ = tseitin_encode(c)
        assert cnf.num_vars == base_cnf.num_vars
        assert cnf.clauses == base_cnf.clauses

    def test_assert_virtual_rejected(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        j = aug.add_virtual_and(a, b)
        with pytest.raises(CnfError, match="virtual"):
            tseitin_encode(aug, assert_outputs=[(j, True)])

    def test_const0_unit(self):
        c = Circuit()
        z = c.add_const0()
        c.set_outputs([z])
        cnf, vmap = tseitin_encode(c)
        assert [-vmap.gate_to_var[z]] in cnf.clauses

    @pytest.mark.parametrize("seed", range(6))
    def test_models_project_to_circuit_rows(self, seed):
        """Equisatisfiability both ways: CNF models with the output asserted
        true are exactly the circuit input rows producing true."""
        c = random_circuit(seed, num_pis=3, num_gates=4, not_prob=0.3)
        po = c.primary_outputs[0]
        cnf, vmap = tseitin_encode(c, assert_outputs=[(po, True)])
        models = cnf_models(cnf)
        true_rows = {tuple(vals[p] for p in c.primary_inputs)
                     for _, vals in all_input_rows(c)
                     if eval_circuit(c, vals)[po]}
        got_rows = {tuple(m[vmap.gate_to_var[p]] for p in c.primary_inputs)
                    for m in models}
        assert got_rows == true_rows
        # internal consistency: each model assigns every gate its simulated value
        for m in models:
            vals = {p: m[vmap.gate_to_var[p]] for p in c.primary_inputs}
            ref = eval_circuit(c, vals)
            for g, v in vmap.gate_to_var.items():
                assert m[v] == ref[g]

    def test_negative_assertion(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap = tseitin_encode(c, assert_outputs=[(g, False)])
        models = cnf_models(cnf)
        assert len(models) == 3  # all rows except a=b=1


class TestSignalLitMap:
    def test_round_trip(self, toy_and):
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        for gate in (a, b, g):
            for pol in (True, False):
                lit = signal_to_lit(vmap, gate, pol)
                assert lit_to_signal(vmap, lit) == (gate, pol)

    def test_unmapped_var_is_none(self, toy_and):
        c, *_ = toy_and
        _, vmap = tseitin_encode(c)
        assert lit_to_signal(vmap, 99) is None


class TestDimacs:
    def test_emit_format(self, toy_and):
        c, *_ = toy_and
        cnf, _ = tseitin_encode(c, assert_outputs=[(c.primary_outputs[0], True)])
        text = emit_dimacs(cnf, comments=["hello"]).decode()
        lines = text.splitlines()
        assert lines[0] == "c hello"
        assert lines[1] == "p cnf 3 4"
        assert all(l.endswith(" 0") for l in lines[2:])

    def test_round_trip(self):
        rng = random.Random(0)
        clauses = [[rng.choice([1, -1]) * rng.randint(1, 8) for _ in range(3)]
                   for _ in range(20)]
        cnf = CnfFormula(8, clauses)
        back = parse_dimacs(emit_dimacs(cnf))
        assert back.num_vars == 8 and back.clauses == clauses

    def test_multiline_clause(self):
        cnf = parse_dimacs(b"p cnf 3 1\n1 2\n-3 0\n")
        assert cnf.clauses == [[1, 2, -3]]

    def test_bad_header(self):
        with pytest.raises(CnfError, match="problem line"):
            parse_dimacs(b"p sat 3 1\n1 0\n")

    def test_clause_before_header(self):
        with pytest.raises(CnfError, match="before"):
            parse_dimacs(b"1 0\np cnf 3 1\n")

    def test_out_of_range_literal(self):
        with pytest.raises(CnfError, match="exceeds"):
            parse_dimacs(b"p cnf 2 1\n3 0\n")

    def test_count_mismatch(self):
        with pytest.raises(CnfError, match="declares"):
            parse_dimacs(b"p cnf 2 2\n1 0\n")

    def test_missing_problem_line(self):
        with pytest.raises(CnfError, match="problem line"):
            parse_dimacs(b"c only a comment\n")

    def test_unterminated_clause(self):
        with pytest.raises(CnfError, match="unterminated"):
            parse_dimacs(b"p cnf 2 1\n1 2\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=60),
        st.builds(lambda n, m, body: f"p cnf {n} {m}\n{body}".encode(),
                  st.integers(-1, 4), st.integers(0, 3),
                  st.text(alphabet="0123-4 x\nc", max_size=40))))
    @example(b"p cnf 2 1\n1 x 0\n")
    @example(b"p cnf two 1\n")
    @example(b"p cnf 1 1\n\xff 0\n")
    def test_fuzz_raises_only_cnf_error(self, data):
        try:
            parse_dimacs(data)
        except CnfError:
            pass

    def test_satisfiability_preserved(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(3, 8)
            clauses = [[rng.choice([1, -1]) * v
                        for v in rng.sample(range(1, n + 1), 3)]
                       for _ in range(int(4.3 * n))]
            cnf = CnfFormula(n, clauses)
            back = parse_dimacs(emit_dimacs(cnf))
            assert enum_cnf_sat(n, back.clauses) == enum_cnf_sat(n, clauses)


class TestCnfFormula:
    def test_empty_clause_rejected(self):
        with pytest.raises(CnfError, match="empty"):
            CnfFormula(2, [[]])

    def test_zero_literal_rejected(self):
        with pytest.raises(CnfError, match="range"):
            CnfFormula(2, [[1, 0]])
