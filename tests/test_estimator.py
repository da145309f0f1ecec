import sys
import textwrap

import pytest

from cascad.circuit import Circuit
from cascad.cnf import tseitin_encode
from cascad.estimator import (Backend, CondResult, Estimator, EstimatorConfig,
                              EstimatorError, Outcome, ProbQuery)

from conftest import all_input_rows, eval_circuit, random_circuit


def exact_estimator(circuit, **kw):
    return Estimator(circuit, EstimatorConfig(backend=Backend.EXACT, **kw))


class TestNodeProb:
    def test_toy_exact(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        assert est.node_prob(a) == 0.5
        assert est.node_prob(g) == 0.25
        assert est.node_prob(g, polarity=False) == 0.75

    def test_simulation_close_to_exact(self):
        c = random_circuit(0, num_pis=8, num_gates=50)
        exact = exact_estimator(c)
        sim = Estimator(c, EstimatorConfig(backend=Backend.SIMULATION,
                                           num_patterns=20_000, seed=3))
        for g in range(len(c)):
            assert abs(exact.node_prob(g) - sim.node_prob(g)) <= 0.02

    def test_seed_determinism(self, toy_and):
        c, *_ = toy_and
        cfg = EstimatorConfig(backend=Backend.SIMULATION, num_patterns=500, seed=9)
        assert Estimator(c, cfg).node_prob(2) == Estimator(c, cfg).node_prob(2)


class TestCondProb:
    def test_toy_exact(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        r = est.cond_prob(ProbQuery((g, True), ((a, True),)))
        assert r == CondResult(0.5, Outcome.OK, 0.5)

    def test_multiple_conditions(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        r = est.cond_prob(ProbQuery((g, True), ((a, True), (b, True))))
        assert r.p == 1.0 and r.condition_prob == 0.25

    def test_negative_polarity(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        r = est.cond_prob(ProbQuery((g, True), ((a, False),)))
        assert r.p == 0.0

    def test_target_among_conditions(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        assert est.cond_prob(ProbQuery((a, True), ((a, True),))).p == 1.0
        assert est.cond_prob(ProbQuery((a, False), ((a, True),))).p == 0.0

    def test_undefined_condition(self):
        c = Circuit()
        a = c.add_pi()
        z = c.add_const0()
        c.set_outputs([a])
        est = exact_estimator(c)
        r = est.cond_prob(ProbQuery((a, True), ((z, True),)))
        assert r.outcome is Outcome.UNDEFINED_CONDITION
        assert r.p is None and r.condition_prob == 0.0

    def test_low_confidence_flag(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c, denominator_floor=0.3)
        r = est.cond_prob(ProbQuery((a, True), ((g, True),)))  # P(g)=0.25 < 0.3
        assert r.outcome is Outcome.LOW_CONFIDENCE_POLAR
        assert r.p == 1.0

    def test_no_conditions_rejected(self, toy_and):
        c, a, *_ = toy_and
        with pytest.raises(EstimatorError, match="condition"):
            exact_estimator(c).cond_prob(ProbQuery((a, True)))

    def test_memo_ignores_condition_order(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        r1 = est.cond_prob(ProbQuery((g, True), ((a, True), (b, True))))
        r2 = est.cond_prob(ProbQuery((g, True), ((b, True), (a, True))))
        assert r1 is r2

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_enumeration(self, seed):
        c = random_circuit(seed, num_pis=5, num_gates=25)
        est = exact_estimator(c)
        tgt, cond = len(c) - 1, c.primary_inputs[0]
        n_joint = n_cond = 0
        for _, vals in all_input_rows(c):
            ref = eval_circuit(c, vals)
            if ref[cond]:
                n_cond += 1
                n_joint += ref[tgt]
        r = est.cond_prob(ProbQuery((tgt, True), ((cond, True),)))
        assert r.p == pytest.approx(n_joint / n_cond)


class TestQuotientMode:
    def test_agrees_without_noise(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        q = est.quotient_cond_prob(ProbQuery((g, True), ((a, True),)))
        assert q == pytest.approx(0.5)

    def test_noise_amplified_on_polar_condition(self):
        # condition true on 1 of 128 rows: small absolute noise on the
        # denominator swings the quotient wildly while the trace ratio is exact
        c = Circuit()
        pis = [c.add_pi() for _ in range(7)]
        acc = pis[0]
        for p in pis[1:]:
            acc = c.add_and(acc, p)  # polar condition, P = 1/128
        c.set_outputs([acc])
        est = exact_estimator(c)
        q = ProbQuery((pis[0], True), ((acc, True),))
        exact_p = est.cond_prob(q).p
        assert exact_p == 1.0
        errs = [abs(est.quotient_cond_prob(q, noise=0.003, noise_seed=s) - exact_p)
                for s in range(20)
                if est.quotient_cond_prob(q, noise=0.003, noise_seed=s) is not None]
        assert max(errs) > 0.25

    def test_degenerate_denominator_none(self):
        c = Circuit()
        a = c.add_pi()
        z = c.add_const0()
        c.set_outputs([a])
        est = exact_estimator(c)
        assert est.quotient_cond_prob(ProbQuery((a, True), ((z, True),))) is None


class TestClauseProb:
    def test_correlated_or_semantics(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap = tseitin_encode(c)
        est = exact_estimator(c)
        lits = [vmap.gate_to_var[a], vmap.gate_to_var[b]]
        assert est.clause_prob(lits, vmap) == 0.75

    def test_correlated_sees_correlation(self, toy_and):
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        est = exact_estimator(c)
        # g or not-a: g implies a, so this is just P(not a) + P(g) = 0.75
        lits = [vmap.gate_to_var[g], -vmap.gate_to_var[a]]
        assert est.clause_prob(lits, vmap) == 0.75
        # independent approximation differs: 1 - (1-0.25)(1-0.5)
        assert est.clause_prob(lits, vmap, mode="independent") == pytest.approx(0.625)

    def test_unmapped_correlated_none(self, toy_and):
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        assert exact_estimator(c).clause_prob([vmap.gate_to_var[a], 99], vmap) is None

    def test_unmapped_independent_half(self, toy_and):
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        est = exact_estimator(c)
        got = est.clause_prob([vmap.gate_to_var[g], 99], vmap, mode="independent")
        assert got == pytest.approx(1 - (1 - 0.25) * 0.5)

    def test_empty_clause_rejected(self, toy_and):
        c, *_ = toy_and
        _, vmap = tseitin_encode(c)
        with pytest.raises(EstimatorError, match="empty"):
            exact_estimator(c).clause_prob([], vmap)

    def test_unknown_mode(self, toy_and):
        c, *_ = toy_and
        _, vmap = tseitin_encode(c)
        with pytest.raises(EstimatorError, match="mode"):
            exact_estimator(c).clause_prob([1], vmap, mode="weird")


class TestPolarAndPhaseTable:
    def test_phase_table_toy(self, toy_and):
        c, a, b, g = toy_and
        table = exact_estimator(c).phase_table(g)
        assert table[a] == 1.0 and table[b] == 1.0 and table[g] == 1.0

    def test_phase_table_unsat_output_all_none(self):
        c = Circuit()
        a = c.add_pi()
        z = c.add_const0()
        c.set_outputs([z])
        table = exact_estimator(c).phase_table(z)
        assert set(table.values()) == {None}

    def test_phase_table_skips_virtual(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        v = aug.add_virtual_and(a, b)
        table = exact_estimator(aug).phase_table(g)
        assert v not in table

    def test_conditioned_matches_cond_prob(self):
        for seed in range(20):
            c = random_circuit(seed, num_pis=5, num_gates=20)
            est = exact_estimator(c)
            po = c.primary_outputs[0]
            extra = [(c.primary_inputs[0], True)]
            joint = est.cond_prob(ProbQuery((po, True), (extra[0],)))
            if joint.p is not None and joint.p * joint.condition_prob > 0:
                break
        else:
            pytest.fail("no suitable seed found")
        table = est.phase_table(po, extra)
        for g in range(len(c)):
            r = est.cond_prob(ProbQuery((g, True), ((po, True), extra[0])))
            if r.p is None:
                assert table[g] is None
            else:
                assert table[g] == pytest.approx(r.p)


STUB = textwrap.dedent("""\
    import json, sys
    state = {}
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "load":
            state["graph"] = json.load(open(req["graph"]))
            out = {"ok": True}
        elif op == "node_prob":
            out = {"p": MODE}
        elif op == "cond_prob":
            out = {"p": 0.75}
        else:
            out = {"error": "unknown op " + op}
        sys.stdout.write(json.dumps(out) + "\\n")
        sys.stdout.flush()
""")


def stub_command(tmp_path, mode="0.5"):
    path = tmp_path / "stub.py"
    path.write_text(STUB.replace("MODE", mode))
    return [sys.executable, str(path)]


class TestExternalBackend:
    def make(self, circuit, tmp_path, mode="0.5"):
        cfg = EstimatorConfig(backend=Backend.EXTERNAL,
                              external_command=stub_command(tmp_path, mode),
                              external_timeout=10.0)
        return Estimator(circuit, cfg)

    def test_node_and_cond_queries(self, toy_and, tmp_path):
        c, a, b, g = toy_and
        est = self.make(c, tmp_path)
        try:
            assert est.node_prob(g) == 0.5
            r = est.cond_prob(ProbQuery((g, True), ((a, True),)))
            assert r.p == 0.75 and r.outcome is Outcome.OK
        finally:
            est.close()

    def test_degenerate_answered_locally(self, toy_and, tmp_path):
        c, a, b, g = toy_and
        est = self.make(c, tmp_path, mode="2.5")  # would be rejected if asked
        try:
            assert est.cond_prob(ProbQuery((a, True), ((a, True),))).p == 1.0
        finally:
            est.close()

    def test_out_of_range_reply_rejected(self, toy_and, tmp_path):
        c, a, b, g = toy_and
        est = self.make(c, tmp_path, mode="1.7")
        try:
            with pytest.raises(EstimatorError, match="out-of-range"):
                est.node_prob(g)
        finally:
            est.close()

    def test_clamping_within_tolerance(self, toy_and, tmp_path):
        c, a, b, g = toy_and
        est = self.make(c, tmp_path, mode="1.0005")
        try:
            assert est.node_prob(g) == 1.0
        finally:
            est.close()

    def test_missing_command_rejected(self, toy_and):
        c, *_ = toy_and
        with pytest.raises(EstimatorError, match="external_command"):
            Estimator(c, EstimatorConfig(backend=Backend.EXTERNAL))

    def test_dead_process_detected(self, toy_and, tmp_path):
        c, a, b, g = toy_and
        est = self.make(c, tmp_path)
        est._external.proc.kill()
        est._external.proc.wait()
        with pytest.raises(EstimatorError):
            est.node_prob(g)
        est.close()


class TestConfigValidation:
    def test_epsilon_defaults(self, toy_and):
        c, *_ = toy_and
        assert exact_estimator(c).epsilon == 0.0
        sim = Estimator(c, EstimatorConfig(backend=Backend.SIMULATION,
                                           num_patterns=400))
        assert sim.epsilon == 1 / 400
        assert exact_estimator(c, denominator_floor=0.05).epsilon == 0.05
