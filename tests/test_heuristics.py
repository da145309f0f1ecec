import random

import pytest
from hypothesis import given, settings, strategies as st

from cascad import estimator as estimator_mod
from cascad.circuit import Circuit, build_miter, mutate_circuit, parse_aiger
from cascad.cnf import CnfFormula, VarGateMap, tseitin_encode
from cascad.drat import DratProof, check_proof
from cascad.estimator import Backend, Estimator, EstimatorConfig
from cascad.heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                               PhaseSelectionPolicy, PolicyError,
                               adaptive_solve, build_phase_policy,
                               make_phase_hook, run_clause_filter,
                               score_clauses)
from cascad.sim import TRUTH_TABLE_CAP
from cascad.solver import UNSAT_TUNED, LearntSnapshot, Solver, Status

from conftest import enum_cnf_sat, random_3cnf, random_circuit, solve
from test_solver import load_perfbench_gen


def exact_estimator(circuit):
    return Estimator(circuit, EstimatorConfig(backend=Backend.EXACT))


def encoded_instance(circuit, assert_true=True):
    po = circuit.primary_outputs[0]
    cnf, vmap = tseitin_encode(circuit, assert_outputs=[(po, assert_true)])
    return cnf, vmap, po


class TestPhaseRule:
    def test_tau_validated(self):
        for bad in (0.0, 0.5, -1.0, 0.7):
            with pytest.raises(PolicyError, match="tau"):
                PhaseSelectionPolicy(bad, {})

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.sampled_from([0.003, 0.005, 0.01, 0.1, 0.4]))
    def test_three_way_rule(self, p, tau):
        policy = PhaseSelectionPolicy(tau, {1: p})
        got = policy(1)
        if p < tau:
            assert got is False
        elif p > 1.0 - tau:
            assert got is True
        else:
            assert got is None

    def test_boundaries_abstain(self):
        policy = PhaseSelectionPolicy(0.1, {1: 0.1, 2: 0.9})
        assert policy(1) is None
        assert policy(2) is None

    def test_unknown_variable_abstains(self):
        policy = PhaseSelectionPolicy(0.1, {1: 0.0})
        assert policy(99) is None
        assert policy(1) is False

    def test_none_entry_abstains(self):
        """A variable the table does not list has no entry, which abstains."""
        policy = PhaseSelectionPolicy(0.1, {})
        assert policy(1) is None


class Broken:
    """An estimator whose every query fails."""

    def phase_table(self, po):
        raise RuntimeError("boom")

    def clause_prob(self, signals, mode):
        raise RuntimeError("boom")


class TestBuildPhasePolicy:
    def test_toy_table(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap, po = encoded_instance(c)
        policy = build_phase_policy(exact_estimator(c), po, vmap, tau=0.1)
        hook = make_phase_hook(policy)
        # conditioned on g=1 every signal is 1
        for gate in (a, b, g):
            assert hook(vmap.gate_to_var[gate]) is True

    def test_make_phase_hook_is_the_policy(self, toy_and):
        c, *_ = toy_and
        cnf, vmap, po = encoded_instance(c)
        policy = build_phase_policy(exact_estimator(c), po, vmap, tau=0.1)
        assert make_phase_hook(policy) is policy

    def test_estimator_failure_raises(self, toy_and):
        """The policy's build does not catch an estimator failure: its
        caller, ``bench.solve_miter``, counts the fallback."""
        c, *_ = toy_and
        cnf, vmap, po = encoded_instance(c)
        with pytest.raises(RuntimeError, match="boom"):
            build_phase_policy(Broken(), po, vmap, tau=0.1)

    def test_guided_solve_finds_model(self):
        for seed in range(5):
            c = random_circuit(seed, num_pis=6, num_gates=40)
            cnf, vmap, po = encoded_instance(c)
            est = exact_estimator(c)
            if est.node_prob(po) == 0.0:
                continue
            policy = build_phase_policy(est, po, vmap, tau=0.005)
            out = solve(cnf, phase_hook=make_phase_hook(policy))
            assert out.status is Status.SAT


class TestFollow:
    def test_unfollowed_policy_reads_the_table(self):
        """An entry is the table's P(gate=1 | PO=1), as built."""
        # PO = x OR y: P(y=1 | PO=1) = 2/3
        c = Circuit()
        x, y = c.add_pi(), c.add_pi()
        c.set_outputs([c.add_not(c.add_and(c.add_not(x), c.add_not(y)))])
        cnf, vmap, po = encoded_instance(c)
        policy = build_phase_policy(exact_estimator(c), po, vmap, tau=0.1)
        vy = vmap.gate_to_var[y]
        assert policy.phase_table[vy] == pytest.approx(2 / 3)
        assert policy(vy) is None


class TestClauseFilterPolicy:
    def test_defaults(self):
        policy = ClauseFilterPolicy()
        assert policy.conflict_budget == 50_000
        assert policy.threshold == 0.9

    def test_validation(self):
        with pytest.raises(PolicyError, match="threshold"):
            ClauseFilterPolicy(threshold=0.0)
        with pytest.raises(PolicyError, match="threshold"):
            ClauseFilterPolicy(threshold=1.2)
        for bad in (0, float("nan")):
            with pytest.raises(PolicyError, match="budget"):
                ClauseFilterPolicy(conflict_budget=bad)
        with pytest.raises(PolicyError, match="mode"):
            ClauseFilterPolicy(mode="weird")


class TestScoreClauses:
    def snap(self, *lits, lbd=2):
        return LearntSnapshot(tuple(lits), lbd)

    def test_threshold_is_strict(self, toy_and):
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        est = exact_estimator(c)
        va, vb = vmap.gate_to_var[a], vmap.gate_to_var[b]
        clause = self.snap(va, vb)  # P(a or b) = 0.75
        for threshold, expect_kept in ((0.75, 0), (0.76, 1)):
            _, keep, _ = score_clauses(
                [clause], est, vmap, ClauseFilterPolicy(threshold=threshold))
            assert sum(keep) == expect_kept

    def test_estimator_failure_fail_safe(self, toy_and):
        c, *_ = toy_and
        _, vmap = tseitin_encode(c)
        scores, keep, failures = score_clauses(
            [self.snap(1, 2)], Broken(), vmap, ClauseFilterPolicy())
        assert failures == 1 and keep == [True] and scores == [None]

    def test_first_failure_ends_scoring(self, toy_and):
        """The estimator is not asked again after it fails: that clause and
        every later one are kept unscored and counted as failures."""
        c, a, b, g = toy_and
        _, vmap = tseitin_encode(c)
        asked = []

        class FailsSecond:
            def clause_prob(self, signals, mode):
                asked.append(signals)
                if len(asked) == 2:
                    raise RuntimeError("boom")
                return 0.25

        snaps = [self.snap(1, 2), self.snap(1), self.snap(2), self.snap(-1)]
        scores, keep, failures = score_clauses(
            snaps, FailsSecond(), vmap, ClauseFilterPolicy())
        assert len(asked) == 2
        assert scores == [0.25, None, None, None]
        assert keep == [True] * 4 and failures == 3

    def test_retention_monotone_in_threshold(self):
        c = random_circuit(3, num_pis=6, num_gates=40)
        cnf, vmap, po = encoded_instance(c)
        s = Solver(cnf)
        s.solve(conflict_budget=100)
        snaps = s.export_learnts()
        est = exact_estimator(c)
        counts = []
        for threshold in (0.8, 0.85, 0.9, 0.95):
            _, keep, _ = score_clauses(snaps, est, vmap,
                                       ClauseFilterPolicy(threshold=threshold))
            counts.append(sum(keep))
        assert counts == sorted(counts)


class TestRunClauseFilter:
    def hard_cnf(self):
        rng = random.Random(101)
        n = 90
        while True:
            clauses = random_3cnf(rng, n, ratio=4.26)
            out = solve(CnfFormula(n, clauses))
            if out.stats.conflicts > 300:
                return CnfFormula(n, clauses), out.status

    def test_checkpoint_not_reached(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap, po = encoded_instance(c)
        solver = Solver(cnf)
        report = run_clause_filter(solver, ClauseFilterPolicy(),
                                   exact_estimator(c), vmap)
        assert not report.fired_mid_solve
        assert report.outcome.status is Status.SAT
        assert report.fired_at_conflicts < 50_000

    def test_truth_table_over_cap_keeps_every_learnt(self, monkeypatch):
        """An estimator forced to EXACT beyond the truth-table cap fails
        its one trace build, and every learnt is kept unscored."""
        calls = []
        real = estimator_mod.exact_truth_table

        def counted(circuit):
            calls.append(circuit)
            return real(circuit)

        monkeypatch.setattr(estimator_mod, "exact_truth_table", counted)
        _, data, _, _ = load_perfbench_gen().multiplier_miters(1, [4])[0]
        miter = parse_aiger(data)
        while len(miter.primary_inputs) <= TRUTH_TABLE_CAP:
            miter.add_pi()
        cnf, vmap, po = encoded_instance(miter)
        report = run_clause_filter(
            Solver(cnf), ClauseFilterPolicy(conflict_budget=100),
            exact_estimator(miter), vmap)
        assert report.fired_mid_solve and report.total > 1
        assert len(calls) == 1
        assert report.kept == report.total == report.estimator_failures
        assert report.outcome.status is Status.UNSAT

    def test_mid_solve_filter_preserves_status(self):
        cnf, expect = self.hard_cnf()
        # an estimator that fails on every clause: all fail-safe kept
        vmap = VarGateMap(var_to_gate={v: v for v in range(1, cnf.num_vars + 1)})
        report = run_clause_filter(
            Solver(cnf), ClauseFilterPolicy(conflict_budget=100),
            Broken(), vmap)
        assert report.fired_mid_solve
        assert report.kept == report.total == report.estimator_failures
        assert report.outcome.status is expect

    def test_map_not_covering_the_cnf_raises(self):
        """Scoring with a map that is not the solver's CNF's is a caller
        bug: it raises rather than keep every clause unscored."""
        cnf, _ = self.hard_cnf()
        c = random_circuit(0, num_pis=4, num_gates=10)
        _, vmap = tseitin_encode(c)
        assert cnf.num_vars > len(vmap.var_to_gate)
        with pytest.raises(KeyError):
            run_clause_filter(Solver(cnf), ClauseFilterPolicy(conflict_budget=100),
                              exact_estimator(c), vmap)

    def test_circuit_instance_filter_sound(self):
        for seed in (2, 5, 8):
            c = random_circuit(seed, num_pis=7, num_gates=80)
            cnf, vmap, po = encoded_instance(c)
            est = exact_estimator(c)
            expect = Status.SAT if est.node_prob(po) > 0 else Status.UNSAT
            report = run_clause_filter(
                Solver(cnf), ClauseFilterPolicy(conflict_budget=20,
                                                threshold=0.8),
                est, vmap)
            assert report.outcome.status is expect

    def test_failed_trace_build_not_retried(self, monkeypatch):
        """A truth table that cannot be built is attempted once, and every
        learnt is then kept as an estimator failure."""
        calls = []

        def exhausted(circuit):
            calls.append(circuit)
            raise MemoryError

        monkeypatch.setattr(estimator_mod, "exact_truth_table", exhausted)
        _, data, _, _ = load_perfbench_gen().multiplier_miters(1, [4])[0]
        miter = parse_aiger(data)
        cnf, vmap, po = encoded_instance(miter)
        report = run_clause_filter(
            Solver(cnf), ClauseFilterPolicy(conflict_budget=100),
            exact_estimator(miter), vmap)
        assert report.fired_mid_solve and report.total > 1
        assert len(calls) == 1
        assert report.estimator_failures == report.total == report.kept

    def test_report_accounting(self):
        c = random_circuit(9, num_pis=6, num_gates=60)
        cnf, vmap, po = encoded_instance(c)
        solver = Solver(cnf)
        report = run_clause_filter(
            solver, ClauseFilterPolicy(conflict_budget=50),
            exact_estimator(c), vmap)
        assert report.total == report.kept + report.dropped
        assert len(report.scores) == report.total
        scored = sum(1 for p in report.scores if p is not None)
        assert sum(report.score_histogram.values()) == scored
        assert sum(b["total"] for b in report.lbd_buckets.values()) == report.total
        assert sum(b["kept"] for b in report.lbd_buckets.values()) == report.kept
        assert report.estimator_failures == report.scores.count(None)
        low = sum(1 for p in report.scores if p is not None and p < 0.9)
        assert sum(b["low_prob"] for b in report.lbd_buckets.values()) == low
        assert report.kept == report.estimator_failures + low


class TestAdaptive:
    def test_policy_validation(self):
        for bad in (0, float("nan"), float("inf")):
            with pytest.raises(PolicyError, match="probe"):
                AdaptiveUnsatPolicy(probe_budget_seconds=bad)

    def test_fast_sat_stays_in_stage1(self, toy_and):
        c, a, b, g = toy_and
        cnf, vmap, po = encoded_instance(c)
        probe = Solver(cnf, drat_sink=DratProof())
        result = adaptive_solve(probe, cnf, AdaptiveUnsatPolicy())
        assert result.stage == 1
        assert result.outcome.status is Status.SAT
        assert result.stage1_wall < 5.0
        assert result.proof is probe.drat

    def hard_unsat(self):
        rng = random.Random(55)
        n = 100
        while True:
            clauses = random_3cnf(rng, n, ratio=4.5)
            out = solve(CnfFormula(n, clauses))
            if out.status is Status.UNSAT and out.stats.conflicts > 300:
                return CnfFormula(n, clauses)

    def test_switch_to_stage2(self):
        cnf = self.hard_unsat()
        policy = AdaptiveUnsatPolicy(probe_budget_seconds=0.001)
        result = adaptive_solve(Solver(cnf, drat_sink=DratProof()), cnf,
                                policy)
        assert result.stage == 2
        assert result.stage1_wall >= 0.001
        assert result.outcome.status is Status.UNSAT
        ok, why = check_proof(cnf.clauses, result.proof)
        assert ok, why

    def test_no_proof_requested(self, toy_and):
        # a probe without a sink: neither stage logs a proof
        c, *_ = toy_and
        cnf, _, _ = encoded_instance(c)
        result = adaptive_solve(Solver(cnf), cnf, AdaptiveUnsatPolicy())
        assert result.stage == 1 and result.proof is None
        hard = self.hard_unsat()
        result = adaptive_solve(Solver(hard), hard, AdaptiveUnsatPolicy(
            probe_budget_seconds=0.001))
        assert result.stage == 2 and result.proof is None

    def test_stage2_uses_unsat_tuned(self):
        # stage 2 is a fresh UNSAT_TUNED solve: the same search from scratch
        cnf = self.hard_unsat()
        result = adaptive_solve(Solver(cnf), cnf, AdaptiveUnsatPolicy(
            probe_budget_seconds=0.001))
        fresh = solve(cnf, UNSAT_TUNED)
        assert result.stage == 2
        got, want = result.outcome.stats.as_dict(), fresh.stats.as_dict()
        del got["wall_time"], want["wall_time"]
        assert got == want
