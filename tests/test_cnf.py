import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cascad.circuit import Circuit, Gate, GateKind, _new, build_miter
from cascad.cli import main
from cascad.cnf import (CnfError, CnfFormula, lit_to_signal, parse_dimacs,
                        signal_to_lit, tseitin_encode)
from cascad.drat import DratProof, check_proof, format_step, parse_drat
from cascad.solver import Solver, Status

from conftest import (all_input_rows, emit_dimacs, enum_cnf_sat, eval_circuit,
                      random_circuit)


def cnf_models(cnf):
    """All satisfying assignments, as dicts var -> bool (enumeration oracle)."""
    out = []
    for bits in range(1 << cnf.num_vars):
        asg = {v: bool((bits >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}
        if all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in cnf.clauses):
            out.append(asg)
    return out


def lit_value(model, lit) -> bool:
    return model[abs(lit)] == (lit > 0)


def assert_encoding_sound(c: Circuit, po: int, polarity: bool):
    """With (po, polarity) asserted, the CNF's models projected onto the PIs
    are exactly the input rows where po has that value, each row extends to
    one model only, and in every model signal_to_lit(g) carries gate g's
    simulated value for every gate, NOT gates included."""
    cnf, vmap = tseitin_encode(c, assert_outputs=[(po, polarity)])
    models = cnf_models(cnf)
    pis = c.primary_inputs
    rows = {tuple(vals[p] for p in pis) for _, vals in all_input_rows(c)
            if eval_circuit(c, vals)[po] == polarity}
    got = [tuple(lit_value(m, signal_to_lit(vmap, p)) for p in pis)
           for m in models]
    assert set(got) == rows and len(got) == len(rows)
    for m, row in zip(models, got):
        ref = eval_circuit(c, dict(zip(pis, row)))
        for g in range(len(c)):
            assert lit_value(m, signal_to_lit(vmap, g)) == ref[g]
            assert lit_value(m, signal_to_lit(vmap, g, False)) != ref[g]


def raw_not(c: Circuit, a: int) -> int:
    """NOT(a) appended as is, so add_not cannot collapse a chain of them."""
    c.gates.append(_new(Gate, (GateKind.NOT, (a,))))
    return len(c.gates) - 1


class TestTseitin:
    def test_and_clause_shape(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap = tseitin_encode(c)
        assert cnf.num_vars == 3
        va, vb, vg = (vmap.gate_to_var[x] for x in (a, b, g))
        assert sorted(map(sorted, cnf.clauses)) == sorted(map(sorted, [
            [-vg, va], [-vg, vb], [vg, -va, -vb]]))

    def test_not_owns_no_variable(self):
        c = Circuit()
        a = c.add_pi()
        n = c.add_not(a)
        c.set_outputs([n])
        cnf, vmap = tseitin_encode(c)
        assert cnf.num_vars == 1 and cnf.clauses == []
        assert n not in vmap.gate_to_var
        assert signal_to_lit(vmap, n) == -signal_to_lit(vmap, a)
        assert lit_to_signal(vmap, signal_to_lit(vmap, n)) == (a, False)

    def test_variable_numbering_is_topological(self):
        """Only PI, AND and CONST0 gates own a variable, numbered densely in
        gate order."""
        c = random_circuit(0, num_pis=5, num_gates=30, not_prob=0.5)
        c.add_const0()
        cnf, vmap = tseitin_encode(c)
        kinds = [g.kind for g in c.gates]
        owners = [g for g, k in enumerate(kinds) if k is not GateKind.NOT]
        assert list(vmap.gate_to_var) == owners
        assert list(vmap.gate_to_var.values()) == list(range(1, len(owners) + 1))
        assert vmap.var_to_gate == {v: g for g, v in vmap.gate_to_var.items()}
        assert cnf.num_vars == len(owners)
        assert len(cnf.clauses) == 3 * kinds.count(GateKind.AND) + 1
        assert len(vmap.gate_lits) == len(c)

    def test_const0_unit(self):
        c = Circuit()
        z = c.add_const0()
        c.set_outputs([z])
        cnf, vmap = tseitin_encode(c)
        assert [-vmap.gate_to_var[z]] in cnf.clauses

    @pytest.mark.parametrize("seed", range(12))
    def test_models_project_to_circuit_rows(self, seed):
        """Equisatisfiability both ways, under either asserted value."""
        c = random_circuit(seed, num_pis=3, num_gates=7, not_prob=0.5)
        po = c.primary_outputs[0]
        assert_encoding_sound(c, po, polarity=seed % 2 == 0)

    def test_negative_assertion(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap = tseitin_encode(c, assert_outputs=[(g, False)])
        models = cnf_models(cnf)
        assert len(models) == 3  # all rows except a=b=1


class TestInverterEdgeCases:
    """Circuits whose inverters resolve to signed literals in corner cases;
    each is checked by assert_encoding_sound under both asserted values."""

    @staticmethod
    def check(c):
        for polarity in (True, False):
            assert_encoding_sound(c, c.primary_outputs[0], polarity)

    def test_raw_not_chain(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        chain = [a]
        for _ in range(5):
            chain.append(raw_not(c, chain[-1]))
        g = c.add_and(chain[3], b)
        out = raw_not(c, raw_not(c, raw_not(c, g)))
        c.set_outputs([out])
        cnf, vmap = tseitin_encode(c)
        assert cnf.num_vars == 3  # a, b and the AND
        for k, n in enumerate(chain):
            assert signal_to_lit(vmap, n) == (-1) ** k * signal_to_lit(vmap, a)
        assert cnf.clauses == [[-3, -1], [-3, 2], [3, 1, -2]]
        assert signal_to_lit(vmap, out) == -3
        self.check(c)

    def test_and_of_a_signal_with_itself(self):
        c = Circuit()
        a = c.add_pi()
        c.set_outputs([c.add_and(a, a)])
        self.check(c)

    def test_and_of_a_signal_with_its_negation(self):
        c = Circuit()
        a, b = c.add_pi(), c.add_pi()
        g = c.add_and(a, c.add_not(a))
        c.set_outputs([c.add_and(g, b)])
        cnf, vmap = tseitin_encode(c)
        va = signal_to_lit(vmap, a)
        assert [signal_to_lit(vmap, g), -va, va] in cnf.clauses  # a tautology
        self.check(c)

    def test_po_is_not_of_pi(self):
        c = Circuit()
        a = c.add_pi()
        c.set_outputs([c.add_not(a)])
        cnf, _ = tseitin_encode(c, [(c.primary_outputs[0], True)])
        assert cnf.clauses == [[-1]]
        self.check(c)

    def test_po_is_not_of_const0(self):
        c = Circuit()
        c.add_pi()
        c.set_outputs([c.add_not(c.add_const0())])
        cnf, _ = tseitin_encode(c, [(c.primary_outputs[0], True)])
        assert cnf.clauses == [[-2], [-2]]
        self.check(c)

    @pytest.mark.parametrize("seed", range(3))
    def test_proof_of_miter_with_tautological_and_is_checked(self, seed):
        """base against base OR (x AND NOT x): an UNSAT miter whose CNF holds
        the tautology [t, -x, x]; its proof, hinted and as DRAT text, passes
        check_proof."""
        base = random_circuit(seed, num_pis=6, num_gates=60)
        twin = random_circuit(seed, num_pis=6, num_gates=60)
        x = twin.primary_inputs[seed % 6]
        t = twin.add_and(x, twin.add_not(x))
        o = twin.primary_outputs[0]
        twin.set_outputs([twin.add_not(twin.add_and(twin.add_not(o),
                                                    twin.add_not(t)))])
        miter = build_miter(base, twin)
        cnf, _ = tseitin_encode(miter, [(miter.primary_outputs[0], True)])
        assert any(len(cl) == 3 and cl[1] == -cl[2] for cl in cnf.clauses)
        proof = DratProof()
        assert Solver(cnf, drat_sink=proof).solve().status is Status.UNSAT
        assert check_proof(cnf.clauses, proof) == (True, "ok")
        text = "\n".join(format_step(k, lits) for k, lits in proof.steps)
        assert check_proof(cnf.clauses, parse_drat(text)) == (True, "ok")


class TestSignalLitMap:
    def test_round_trip(self, toy_and):
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        for gate in (a, b, g):
            for pol in (True, False):
                lit = signal_to_lit(vmap, gate, pol)
                assert lit_to_signal(vmap, lit) == (gate, pol)

    def test_unmapped_var_raises(self, toy_and):
        """A literal past the CNF's variables means the map is not that
        CNF's: a caller bug, not a literal without evidence."""
        c, *_ = toy_and
        _, vmap = tseitin_encode(c)
        with pytest.raises(KeyError):
            lit_to_signal(vmap, 99)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_variable_names_a_gate(self, seed):
        """Every variable 1..num_vars of the encoding is some PI, AND or
        CONST0 gate's, with NOT chains, the constant and AND(x, NOT x) in
        the circuit, so every literal of its clauses maps to a signal."""
        rng = random.Random(seed)
        c = random_circuit(seed, num_pis=5, num_gates=25, not_prob=0.5)
        x = rng.randrange(len(c))
        chain = [x]
        for _ in range(rng.randint(1, 4)):
            chain.append(raw_not(c, chain[-1]))
        tauto = c.add_and(x, chain[1])
        c.set_outputs([c.add_and(chain[-1], c.add_not(c.add_const0())),
                       tauto])
        cnf, vmap = tseitin_encode(c, [(tauto, False)])
        assert set(vmap.var_to_gate) == set(range(1, cnf.num_vars + 1))
        for clause in cnf.clauses:
            for lit in clause:
                gate, pol = lit_to_signal(vmap, lit)
                assert signal_to_lit(vmap, gate, pol) == lit


class TestDimacs:
    def test_emit_format(self, toy_and):
        c, *_ = toy_and
        cnf, _ = tseitin_encode(c, assert_outputs=[(c.primary_outputs[0], True)])
        text = emit_dimacs(cnf).decode()
        lines = text.splitlines()
        assert lines[0] == "p cnf 3 4"
        assert all(l.endswith(" 0") for l in lines[1:])

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

    def test_second_problem_line(self):
        with pytest.raises(CnfError, match="line 3: second problem line"):
            parse_dimacs(b"p cnf 1 1\n1 0\np cnf 5 2\n5 0\n")

    @pytest.mark.parametrize("text", [
        "p cnf 1_0 1\n+1_0 0\n", "p cnf +2 1\n1 0\n", "p cnf 2 0_1\n1 0\n",
        "p cnf \u0662 1\n1 0\n", "p cnf 2 1\n+1 0\n", "p cnf 10 1\n1_0 0\n",
        "p cnf 2 1\n-0_1 0\n", "p cnf 2 1\n\u0661 0\n"])
    def test_sign_underscore_and_other_digits_rejected(self, text):
        """DIMACS numbers are ASCII digits, a literal with an optional
        '-'; int() would also read '+', underscores and other scripts'
        digits."""
        with pytest.raises(CnfError):
            parse_dimacs(text.encode())

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
    def test_empty_clause_loads_and_solves_unsat(self, tmp_path, capsys):
        data = b"p cnf 2 2\n1 2 0\n0\n"
        assert parse_dimacs(data).clauses == [[1, 2], []]
        path, drat_path = tmp_path / "f.cnf", tmp_path / "p.drat"
        path.write_bytes(data)
        assert main(["solve", str(path), "--drat", str(drat_path)]) == 20
        assert capsys.readouterr().out.splitlines()[0] == "s UNSAT"
        proof = parse_drat(drat_path.read_text())
        assert check_proof([[1, 2], []], proof) == (True, "ok")

    def test_zero_literal_rejected(self):
        with pytest.raises(CnfError, match="range"):
            CnfFormula(2, [[1, 0]])
