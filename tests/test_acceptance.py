"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(visible in live pytest output) before asserting.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from cascad.bench import gen_suite, par2, solve_miter
from cascad.circuit import Circuit, parse_aiger
from cascad.cnf import CnfFormula, lit_to_signal, tseitin_encode
from cascad.drat import DratProof, check_proof
from cascad.estimator import (Backend, Estimator, EstimatorConfig,
                              default_backend)
from cascad.heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                               PhaseSelectionPolicy, adaptive_solve,
                               run_clause_filter)
from cascad.sim import exact_truth_table
from cascad.solver import Solver, Status

from conftest import (eval_circuit, pigeonhole, quotient_cond_prob,
                      random_3cnf, random_circuit, run_workload_suite, solve)
from test_solver import load_perfbench_gen


def _report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance criterion {criterion}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_probability_oracle_fidelity(capsys):
    """Simulated probabilities track exact ones on 50 circuits: node error
    <= 0.02, conditional error <= 0.03 for conditions with P >= 0.05,
    under 60 seconds.  A conditional is the query the product asks,
    P(target | cond) = phase_table(cond)[target]."""
    t0 = time.monotonic()
    max_node = 0.0
    max_cond = 0.0
    n_cond_queries = 0
    for seed in range(50):
        c = random_circuit(seed, num_pis=8 + seed % 6, num_gates=60)
        exact = Estimator(c, EstimatorConfig(backend=Backend.EXACT))
        sim = Estimator(c, EstimatorConfig(backend=Backend.SIMULATION,
                                           num_patterns=20_000, seed=seed))
        for g in range(len(c)):
            max_node = max(max_node, abs(exact.node_prob(g) - sim.node_prob(g)))
        rng = random.Random(seed)
        conds = [g for g in range(len(c)) if exact.node_prob(g) >= 0.05]
        done = 0
        for _ in range(30):
            if done >= 3:
                break
            tgt, cond = rng.randrange(len(c)), rng.choice(conds)
            if tgt == cond:
                continue
            re_ = exact.phase_table(cond).get(tgt)
            rs = sim.phase_table(cond).get(tgt)
            if re_ is None or rs is None:
                continue
            max_cond = max(max_cond, abs(re_ - rs))
            done += 1
            n_cond_queries += 1
    elapsed = time.monotonic() - t0
    ok = max_node <= 0.02 and max_cond <= 0.03 and elapsed < 60.0
    _report(capsys, 1, ok,
            f"50 circuits, max node err {max_node:.4f} <= 0.02, "
            f"max cond err {max_cond:.4f} <= 0.03 over {n_cond_queries} "
            f"queries, {elapsed:.1f}s < 60s")


def test_criterion_2_division_amplification(capsys):
    """With a polar condition and +-0.003 noise on the separately estimated
    probabilities, the quotient form has MAE >= 0.3 while the trace ratio on
    exhaustive inputs is exact."""
    c = Circuit()
    pis = [c.add_pi() for _ in range(10)]
    acc = pis[0]
    for p in pis[1:]:
        acc = c.add_and(acc, p)  # P(condition) = 2^-10 <= 0.01
    c.set_outputs([acc])
    est = Estimator(c, EstimatorConfig(backend=Backend.EXACT))
    p_cond = est.node_prob(acc)
    query = (pis[0], True), ((acc, True),)
    exact_p = est.phase_table(acc)[pis[0]]  # = 1.0 by construction
    trace_errs = [abs(est.phase_table(acc)[pis[0]] - 1.0) for _ in range(100)]
    quot_errs = []
    for seed in range(100):
        q = quotient_cond_prob(est, *query, noise=0.003, noise_seed=seed)
        if q is not None:
            quot_errs.append(abs(q - exact_p))
    trace_mae = sum(trace_errs) / len(trace_errs)
    quot_mae = sum(quot_errs) / len(quot_errs)
    ok = (p_cond <= 0.01 and exact_p == 1.0 and trace_mae == 0.0
          and quot_mae >= 0.3 and quot_mae >= 10.0 * trace_mae)
    _report(capsys, 2, ok,
            f"P(C)={p_cond:.5f} <= 0.01, quotient MAE {quot_mae:.3f} >= 0.3, "
            f"trace-ratio MAE {trace_mae:.1f} (exact)")


def test_criterion_3_toy_workload_values(capsys):
    """Biased workload suite reproduces 0.630 for (0.7, 0.9) and 0.040 for
    (0.1, 0.4) within +-0.01, in under a second."""
    c = Circuit()
    a, b = c.add_pi(), c.add_pi()
    g = c.add_and(a, b)
    c.set_outputs([g])
    t0 = time.monotonic()
    _, probs_hi = run_workload_suite(c, seed=1, workload=[0.7, 0.9])
    _, probs_lo = run_workload_suite(c, seed=2, workload=[0.1, 0.4])
    elapsed = time.monotonic() - t0
    err_hi = abs(probs_hi[g] - 0.630)
    err_lo = abs(probs_lo[g] - 0.040)
    ok = err_hi <= 0.01 and err_lo <= 0.01 and elapsed < 1.0
    _report(capsys, 3, ok,
            f"(0.7,0.9) -> {probs_hi[g]:.3f} (target 0.630), "
            f"(0.1,0.4) -> {probs_lo[g]:.3f} (target 0.040), {elapsed:.2f}s < 1s")


def _np_enum_sat(n, clauses):
    rows = np.arange(1 << n, dtype=np.uint32)
    # column[lit]: the rows where lit is true, one boolean column per
    # literal, computed once per instance
    column = {}
    for v in range(1, n + 1):
        column[v] = ((rows >> (v - 1)) & 1).astype(bool)
        column[-v] = ~column[v]
    sat = np.ones(1 << n, dtype=bool)
    for cl in clauses:
        clause_sat = np.zeros(1 << n, dtype=bool)
        for lit in cl:
            clause_sat |= column[lit]
        sat &= clause_sat
        if not sat.any():
            return False
    return bool(sat.any())


def test_criterion_4_solver_correctness(capsys):
    """1000 seeded random 3-CNFs (<=20 vars): status agrees with exhaustive
    enumeration, every SAT model verifies, every UNSAT proof passes the
    independent RUP checker, all within 5 minutes."""
    t0 = time.monotonic()
    agree = n_unsat = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(5, 20)
        clauses = random_3cnf(rng, n)
        expect = _np_enum_sat(n, clauses)
        proof = DratProof()
        out = solve(CnfFormula(n, clauses), drat_sink=proof)
        assert (out.status is Status.SAT) == expect, f"seed {seed}"
        if out.status is Status.SAT:
            assert all(any(out.model[abs(l)] == (l > 0) for l in cl)
                       for cl in clauses), f"seed {seed}: bad model"
        else:
            n_unsat += 1
            ok, why = check_proof(clauses, proof)
            assert ok, f"seed {seed}: {why}"
        agree += 1
    elapsed = time.monotonic() - t0
    ok = agree == 1000 and elapsed < 300.0
    _report(capsys, 4, ok,
            f"{agree}/1000 agree with enumeration ({n_unsat} UNSAT with "
            f"checked proofs), {elapsed:.1f}s < 300s")


def test_criterion_5_phase_rule_exactness(capsys):
    """The phase hook matches the piecewise rule on a 10,001-point grid for
    every tau in {0.003, 0.005, 0.01, 0.1}, with zero deviations."""
    deviations = 0
    for tau in (0.003, 0.005, 0.01, 0.1):
        policy = PhaseSelectionPolicy(tau, {})
        for i in range(10_001):
            p = i / 10_000
            policy.phase_table[1] = p
            got = policy(1)
            want = False if p < tau else True if p > 1.0 - tau else None
            if got is not want:
                deviations += 1
    _report(capsys, 5, deviations == 0,
            f"{deviations} deviations over 4 x 10001 grid points")


def test_criterion_6_phase_guidance_effectiveness(capsys):
    """On 50 satisfiable miters with the exact estimator and tau = 0.005,
    guided decision counts have median <= baseline and geometric-mean ratio
    <= 0.8, within 10 minutes.  Both sides run as ``csat`` and ``bench run``
    do, through ``solve_miter`` (strash, encode, then solve), and at 16 PIs
    its estimator is the exact one."""
    t0 = time.monotonic()
    bases = [random_circuit(200 + s, num_pis=16, num_gates=800)
             for s in range(10)]
    cases = gen_suite(bases, n_sat=50, n_unsat=0, seed=20)
    base_decisions, guided_decisions, ratios = [], [], []
    for case in cases:
        assert default_backend(case.miter) is Backend.EXACT
        base, _ = solve_miter(case.miter, "baseline")
        assert base.status is Status.SAT
        guided, _ = solve_miter(case.miter, "phase")
        assert guided.status is Status.SAT
        base_decisions.append(base.stats.decisions)
        guided_decisions.append(guided.stats.decisions)
        ratios.append((guided.stats.decisions + 1) / (base.stats.decisions + 1))
    med_base = statistics.median(base_decisions)
    med_guided = statistics.median(guided_decisions)
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    elapsed = time.monotonic() - t0
    ok = med_guided <= med_base and geomean <= 0.8 and elapsed < 600.0
    _report(capsys, 6, ok,
            f"median decisions {med_guided} <= {med_base} baseline, "
            f"geomean ratio {geomean:.3f} <= 0.8, {elapsed:.1f}s < 600s")


def _record_filter(solver: Solver) -> list:
    """Wrap ``solver.keep_learnts`` so that each call appends the learnt
    database at that call and right after it to the returned list."""
    seen = []
    keep_learnts = solver.keep_learnts

    def recorded(keep):
        before = solver.export_learnts()
        keep_learnts(keep)
        seen.append((before, solver.export_learnts()))

    solver.keep_learnts = recorded
    return seen


def test_criterion_7_clause_filter_protocol(capsys):
    """On three UNSAT 4-bit multiplier miters, the filter fires mid-solve
    at its 150-conflict checkpoint; the learnt database right after it is
    exactly {P < threshold} plus unscored keeps over that checkpoint's
    snapshot, rescored here independently; the final status is unchanged at
    every threshold; retention is threshold-monotone; and some threshold
    drops a clause, so a filter that keeps everything fails."""
    thresholds = (0.8, 0.85, 0.9, 0.95)
    checkpoint = 150
    corpus = [parse_aiger(data) for _, data, _, _ in
              load_perfbench_gen().multiplier_miters(1, [4] * 3)]
    replay_ok = status_ok = monotone_ok = fired_ok = True
    drops = False
    all_kept = []
    for c in corpus:
        po = c.primary_outputs[0]
        cnf, vmap = tseitin_encode(c, [(po, True)])
        est = Estimator(c, EstimatorConfig(backend=Backend.EXACT))
        reference = solve(cnf).status
        kept_counts = []
        for threshold in thresholds:
            policy = ClauseFilterPolicy(conflict_budget=checkpoint,
                                        threshold=threshold)
            solver = Solver(cnf)
            seen = _record_filter(solver)
            report = run_clause_filter(solver, policy, est, vmap)
            status_ok &= report.outcome.status is reference
            fired_ok &= (report.fired_mid_solve and len(seen) == 1
                         and report.fired_at_conflicts == checkpoint)
            if len(seen) != 1:
                continue
            before, after = seen[0]
            want = [s.lits for s, scored in zip(before, report.scores)
                    if scored is None or est.clause_prob(
                        [lit_to_signal(vmap, lit) for lit in s.lits]) < threshold]
            replay_ok &= (report.total == len(before) > 0
                          and report.kept == len(after)
                          and sorted(map(sorted, want))
                          == sorted(sorted(s.lits) for s in after))
            drops |= report.kept < report.total
            kept_counts.append(report.kept)
        monotone_ok &= kept_counts == sorted(kept_counts)
        all_kept.append(f"{kept_counts} of {report.total}")
    ok = replay_ok and status_ok and monotone_ok and fired_ok and drops
    _report(capsys, 7, ok,
            f"fired at {checkpoint}={fired_ok}, replay={replay_ok}, "
            f"status-preserved={status_ok}, monotone retention={monotone_ok}, "
            f"some clause dropped={drops}; kept at thresholds {thresholds}: "
            f"{', '.join(all_kept)}")


def test_criterion_8_adaptive_switch(capsys):
    """Fast satisfiable cases finish in stage 1; the tuned-config stage 2 is
    only entered after the full 5-second probe; all final statuses match
    their oracles."""
    # generator sanity: small pigeonhole instances agree with enumeration
    for holes in (2, 3):
        small = pigeonhole(holes + 1, holes)
        assert not _np_enum_sat(small.num_vars, small.clauses)

    sat_ok = True
    bases = [random_circuit(s, num_pis=5, num_gates=30) for s in (40, 41)]
    for case in gen_suite(bases, n_sat=3, n_unsat=0, seed=9):
        po = case.miter.primary_outputs[0]
        cnf, _ = tseitin_encode(case.miter, [(po, True)])
        result = adaptive_solve(Solver(cnf, drat_sink=DratProof()), cnf,
                                AdaptiveUnsatPolicy())
        sat_ok &= (result.stage == 1
                   and result.outcome.status is Status.SAT
                   and result.stage1_wall < 5.0)

    # unsatisfiable by counting; the default config needs about 28k
    # conflicts, far more than a 5 s probe gets through (PHP(8,7) needs
    # 7.6k, which a fast host can finish inside the probe)
    hard = pigeonhole(9, 8)
    result = adaptive_solve(Solver(hard, drat_sink=DratProof()), hard,
                            AdaptiveUnsatPolicy())
    unsat_ok = (result.stage == 2
                and result.stage1_wall >= 5.0
                and result.outcome.status is Status.UNSAT
                and ("a", ()) in result.proof.steps)
    ok = sat_ok and unsat_ok
    _report(capsys, 8, ok,
            f"3 fast-SAT cases in stage 1: {sat_ok}; hard-UNSAT switched at "
            f"{result.stage1_wall:.2f}s >= 5.0s and proved UNSAT in stage 2: "
            f"{unsat_ok}")


def test_criterion_9_par2_scoring(capsys):
    """PAR-2: solved within the cutoff scores its time, anything else scores
    twice the cutoff, and the average is arithmetically exact."""
    cutoff = 300.0
    records = [
        {"case": "a", "config": "x", "status": "SAT", "wall_seconds": 12.5},
        {"case": "b", "config": "x", "status": "UNSAT", "wall_seconds": 299.0},
        {"case": "c", "config": "x", "status": "TIMEOUT", "wall_seconds": 300.0},
        {"case": "d", "config": "x", "status": "ERROR", "wall_seconds": 300.0},
        {"case": "e", "config": "x", "status": "SAT", "wall_seconds": 300.5},
    ]
    score = par2(records, cutoff)
    exact_ok = (score.per_case == {"a": 12.5, "b": 299.0, "c": 600.0,
                                   "d": 600.0, "e": 600.0}
                and score.average == (12.5 + 299.0 + 600.0 * 3) / 5)

    rng = random.Random(0)
    prop_ok = True
    for _ in range(200):
        cutoff = rng.uniform(0.5, 100.0)
        rows = [{"case": f"c{i}", "config": "x",
                 "status": rng.choice(["SAT", "UNSAT", "TIMEOUT", "ERROR"]),
                 "wall_seconds": rng.uniform(0, 2 * cutoff)}
                for i in range(rng.randint(1, 12))]
        s = par2(rows, cutoff)
        for r in rows:
            solved = r["status"] in ("SAT", "UNSAT") and \
                r["wall_seconds"] <= cutoff
            want = r["wall_seconds"] if solved else 2.0 * cutoff
            prop_ok &= s.per_case[r["case"]] == want
        prop_ok &= s.average == sum(s.per_case.values()) / len(s.per_case)
    ok = exact_ok and prop_ok
    _report(capsys, 9, ok,
            f"exact table={exact_ok}, 200 random record sets={prop_ok}")


def test_criterion_10_equisatisfiability(capsys):
    """For 200 random circuits, CNF satisfiability equals truth-table
    satisfiability and every model projects back to simulated gate values."""
    passed = 0
    for seed in range(200):
        c = random_circuit(seed, num_pis=4 + seed % 9, num_gates=40)
        po = c.primary_outputs[0]
        tt = exact_truth_table(c)
        circuit_sat = tt.count(po) > 0
        cnf, vmap = tseitin_encode(c, [(po, True)])
        out = solve(cnf)
        assert (out.status is Status.SAT) == circuit_sat, f"seed {seed}"
        if circuit_sat:
            vals = {p: out.model[vmap.gate_to_var[p]] for p in c.primary_inputs}
            ref = eval_circuit(c, vals)
            assert all(out.model[v] == ref[g]
                       for g, v in vmap.gate_to_var.items()), f"seed {seed}"
        passed += 1
    _report(capsys, 10, passed == 200, f"{passed}/200 equisatisfiable with "
            f"verified model projection")
