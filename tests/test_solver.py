import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cascad.bench import reassociate
from cascad.circuit import build_miter
from cascad.cnf import CnfError, CnfFormula, tseitin_encode
from cascad.drat import (DratError, DratFileSink, DratProof, check_proof,
                         parse_drat)
from cascad.solver import (LearntSnapshot, Solver, SolverConfig, Status,
                           UNSAT_TUNED, luby, solve)
from cascad.estimator import Backend, Estimator, EstimatorConfig
from cascad.heuristics import ClauseFilterPolicy, run_clause_filter

from conftest import enum_cnf_sat, pigeonhole, random_3cnf, random_circuit


def cnf(num_vars, clauses):
    return CnfFormula(num_vars, [list(cl) for cl in clauses])


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(15)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_powers_of_two_only(self):
        for i in range(200):
            v = luby(i)
            assert v & (v - 1) == 0


class TestBasics:
    def test_empty_formula_sat(self):
        assert solve(cnf(3, [])).status is Status.SAT

    def test_unit_clauses(self):
        out = solve(cnf(2, [[1], [-2]]))
        assert out.status is Status.SAT
        assert out.model == {1: True, 2: False}

    def test_contradictory_units_unsat(self):
        assert solve(cnf(1, [[1], [-1]])).status is Status.UNSAT

    def test_tautology_ignored(self):
        assert solve(cnf(2, [[1, -1], [2]])).status is Status.SAT

    def test_duplicate_literals_deduped(self):
        out = solve(cnf(1, [[1, 1]]))
        assert out.status is Status.SAT and out.model[1]

    def test_simple_unsat_core(self):
        clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        assert solve(cnf(2, clauses)).status is Status.UNSAT

    def test_model_satisfies_formula(self):
        rng = random.Random(0)
        clauses = random_3cnf(rng, 12)
        out = solve(cnf(12, clauses))
        if out.status is Status.SAT:
            for cl in clauses:
                assert any(out.model[abs(l)] == (l > 0) for l in cl)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_3cnf(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 14)
        clauses = random_3cnf(rng, n)
        expect = enum_cnf_sat(n, clauses)
        proof = DratProof()
        out = solve(cnf(n, clauses), drat_sink=proof)
        assert (out.status is Status.SAT) == expect
        if out.status is Status.UNSAT:
            ok, why = check_proof(clauses, proof)
            assert ok, why

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_3cnf_property(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 11)
        clauses = random_3cnf(rng, n, ratio=rng.uniform(2.0, 6.0))
        assert (solve(cnf(n, clauses)).status is Status.SAT) == \
            enum_cnf_sat(n, clauses)


class TestDrat:
    def test_proof_text_round_trip(self, tmp_path):
        path = tmp_path / "p.drat"
        sink = DratFileSink(str(path))
        sink.add([1, -2])
        sink.delete([1, -2])
        sink.add([])
        sink.close()
        back = parse_drat(path.read_text())
        assert back.steps == [("a", (1, -2)), ("d", (1, -2)), ("a", ())]

    def test_file_sink(self, tmp_path):
        rng = random.Random(13)
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(5, 10)
            clauses = random_3cnf(rng, n, ratio=6.0)
            if enum_cnf_sat(n, clauses):
                continue
            path = str(tmp_path / f"p{seed}.drat")
            sink = DratFileSink(path)
            out = solve(cnf(n, clauses), drat_sink=sink)
            sink.close()
            assert out.status is Status.UNSAT
            on_disk = parse_drat(open(path).read())
            # the search is deterministic: a second solve logs the same proof
            in_memory = DratProof()
            solve(cnf(n, clauses), drat_sink=in_memory)
            assert on_disk.steps == in_memory.steps
            ok, why = check_proof(clauses, on_disk)
            assert ok, why
            return
        pytest.fail("no UNSAT instance found")

    def test_checker_rejects_non_rup_step(self):
        clauses = [[1, 2]]
        proof = DratProof()
        proof.add([1])  # not implied
        proof.add([])
        ok, why = check_proof(clauses, proof)
        assert not ok and "not RUP" in why

    def test_checker_requires_empty_clause(self):
        clauses = [[1], [-1]]
        proof = DratProof()
        ok, why = check_proof(clauses, proof)
        assert not ok and "empty clause" in why

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_drat("1 2\n")

    @pytest.mark.parametrize("text", ["1 x 0\n", "d 1 2.5 0\n", "1 0 2 0\n",
                                      "d\n", "0 0\n"])
    def test_bad_tokens_raise_drat_error(self, text):
        with pytest.raises(DratError):
            parse_drat(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from(["d", "c", "0", "1", "-2", "+3", "--1", "x",
                                  "1.5", "", " ", "\t", "\n", "\r\n"]))
        .map(" ".join)))
    def test_parse_drat_raises_only_drat_error(self, text):
        try:
            proof = parse_drat(text)
        except DratError:
            return
        for kind, lits in proof.steps:
            assert kind in ("a", "d") and 0 not in lits

    def test_sink_and_text_share_line_format(self, tmp_path):
        path = tmp_path / "p.drat"
        sink = DratFileSink(str(path))
        sink.add([1, -2])
        sink.delete([])
        sink.delete([-2, 1])
        sink.add([])
        sink.close()
        text = path.read_text()
        assert text == "1 -2 0\nd 0\nd -2 1 0\n0\n"

    @pytest.mark.parametrize("clauses, deleted", [
        ([[1, 2], [-1], [-2]], [2, 1]),       # literals in another order
        ([[1, 2, 3], [-1], [-2], [-3]], [3, 1, 2]),
        ([[1], [-1]], [1]),                   # a unit clause
    ])
    def test_checker_honours_deletion_in_any_order(self, clauses, deleted):
        proof = DratProof()
        proof.delete(deleted)
        proof.add([])
        ok, why = check_proof(clauses, proof)
        assert not ok and why == "step 1: clause [] is not RUP"

    def test_deleting_one_copy_keeps_the_other(self):
        clauses = [[1, 2], [1, 2], [-1], [-2]]
        proof = DratProof()
        proof.delete([2, 1])
        proof.add([])
        assert check_proof(clauses, proof) == (True, "ok")
        proof.steps.insert(1, ("d", (1, 2)))
        ok, why = check_proof(clauses, proof)
        assert not ok and "not RUP" in why

    def test_deleting_absent_clause_is_harmless(self):
        proof = DratProof()
        proof.delete([5, 6])
        proof.delete([1, -1])
        proof.add([])
        assert check_proof([[1], [-1]], proof) == (True, "ok")


def rescan_propagate(db: list[tuple[int, ...]], assumed: list[int]) -> bool:
    """Naive unit propagation; True iff a conflict is derived."""
    values: dict[int, bool] = {}
    for lit in assumed:
        v, want = abs(lit), lit > 0
        if values.get(v, want) != want:
            return True
        values[v] = want
    changed = True
    while changed:
        changed = False
        for clause in db:
            unassigned = None
            satisfied = False
            count_free = 0
            for lit in set(clause):  # a repeated literal counts once
                v = abs(lit)
                if v not in values:
                    unassigned = lit
                    count_free += 1
                    if count_free > 1:
                        break
                elif values[v] == (lit > 0):
                    satisfied = True
                    break
            if satisfied or count_free > 1:
                continue
            if count_free == 0:
                return True  # conflict
            v, want = abs(unassigned), unassigned > 0
            values[v] = want
            changed = True
    return False


def rescan_check(clauses, proof: DratProof) -> tuple[bool, str]:
    """Reference forward RUP checker: rescans the whole clause list until
    nothing changes, and deletes the first clause with the same literal set."""
    db = [tuple(cl) for cl in clauses]
    for step_no, (kind, lits) in enumerate(proof.steps):
        if kind == "d":
            hit = [i for i, cl in enumerate(db) if set(cl) == set(lits)]
            if hit:
                del db[hit[0]]
            continue
        if not rescan_propagate(db, [-l for l in lits]):
            return False, f"step {step_no}: clause {list(lits)} is not RUP"
        if not lits:
            return True, "ok"
        db.append(tuple(lits))
    return False, "proof does not derive the empty clause"


def steps_proof(steps) -> DratProof:
    return DratProof([(kind, tuple(lits)) for kind, lits in steps])


class TestLevelZeroTrail:
    """The checker keeps the unit-propagation closure of the live clauses
    between steps; deletions must take back what they no longer imply."""

    @pytest.mark.parametrize("clauses, steps, step_no, lemma", [
        # the unit [1] is deleted; [2] followed from it
        ([[1], [-1, 2]], [("d", [1]), ("a", [2])], 1, [2]),
        # the binary reason of 2 is deleted; [3] needed 2
        ([[1], [-1, 2], [-2, 3]], [("d", [2, -1]), ("a", [3])], 1, [3]),
        # the long reason of 3 is deleted
        ([[1], [2], [-1, -2, 3], [-3, 4]],
         [("d", [3, -2, -1]), ("a", [4])], 1, [4]),
    ])
    def test_deleted_reason_is_not_used(self, clauses, steps, step_no, lemma):
        proof = steps_proof(steps)
        expected = (False, f"step {step_no}: clause {lemma} is not RUP")
        assert check_proof(clauses, proof) == expected
        assert rescan_check(clauses, proof) == expected

    @pytest.mark.parametrize("clauses, steps", [
        # [2, 5] is true at level 0
        ([[1], [-1, 2], [3, 4], [3, -4], [-3, 4], [-3, -4]],
         [("a", [2, 5]), ("a", [3]), ("a", [])]),
        # [-1, -6, 2] is true at level 0 and becomes the reason of 2 once
        # [-1, 2] is deleted; [3] needs 2
        ([[1], [6], [-1, 2], [-2, 3, 4], [-2, 3, -4], [-3, 5], [-3, -5]],
         [("a", [-1, -6, 2]), ("d", [-1, 2]), ("a", [3]), ("a", [])]),
        # -1 and -2 are false at level 0, so [-1, -2, 3, 4] must be watched
        # on 3 and 4; [3] needs it once [3, 4] is deleted
        ([[1], [2], [3, 4], [3, -4], [-3, 5], [-3, -5]],
         [("a", [-1, -2, 3, 4]), ("d", [3, 4]), ("a", [3]), ("a", [])]),
    ])
    def test_lemma_true_at_level0_accepted(self, clauses, steps):
        proof = steps_proof(steps)
        assert check_proof(clauses, proof) == (True, "ok")
        assert rescan_check(clauses, proof) == (True, "ok")

    @pytest.mark.parametrize("clauses, steps", [
        ([[1], [-1, 2], [-2]], [("d", [-2]), ("a", [])]),
        # the unit lemma [1] makes level 0 conflict on 3
        ([[1, 2], [1, -2], [-1, 3], [-1, -3]],
         [("a", [1]), ("d", [1]), ("a", [])]),
    ])
    def test_deleting_the_conflict_restores_consistency(self, clauses, steps):
        proof = steps_proof(steps)
        expected = (False, f"step {len(steps) - 1}: clause [] is not RUP")
        assert check_proof(clauses, proof) == expected
        assert rescan_check(clauses, proof) == expected
        kept = [step for step in steps if step[0] == "a"]
        assert check_proof(clauses, steps_proof(kept)) == (True, "ok")


def random_clause(rng: random.Random, nvars: int) -> list[int]:
    size = rng.choices(range(5), weights=(1, 4, 8, 5, 2))[0]
    lits = [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(size)]
    if lits and rng.random() < 0.1:
        lits.append(rng.choice(lits))  # a repeated literal
    return lits


def random_proof(rng: random.Random):
    """Small clause set and add/delete steps with units, binaries, empty and
    duplicate clauses; deletions mostly name a clause added before."""
    nvars = rng.randint(2, 6)
    clauses = [random_clause(rng, nvars)
               for _ in range(rng.randint(0, 4 * nvars))]
    pool = list(clauses)
    proof = DratProof()
    for _ in range(rng.randint(1, 15)):
        roll = rng.random()
        if roll < 0.4 and pool:
            lits = list(rng.choice(pool))
            rng.shuffle(lits)
            proof.delete(lits)
        elif roll < 0.5:
            proof.delete(random_clause(rng, nvars))
        else:
            lits = (list(rng.choice(pool)) if pool and roll < 0.6
                    else random_clause(rng, nvars))
            proof.add(lits)
            pool.append(lits)
    return clauses, proof


class TestCheckerAgainstRescan:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_watched_checker_agrees_with_rescan(self, seed):
        rng = random.Random(seed)
        while True:
            n = rng.randint(8, 18)
            clauses = random_3cnf(rng, n, ratio=rng.uniform(4.5, 7.0))
            proof = DratProof()
            # a short reduce interval puts deletions into small proofs
            config = SolverConfig(reduce_interval=rng.randint(2, 12), keep_lbd=1)
            if solve(cnf(n, clauses), config, drat_sink=proof).status \
                    is Status.UNSAT:
                break
        assert check_proof(clauses, proof) == (True, "ok")
        adds = [i for i, (kind, lits) in enumerate(proof.steps)
                if kind == "a" and lits]
        if not adds:
            return
        dropped = DratProof(list(proof.steps))
        del dropped.steps[rng.choice(adds)]
        assert check_proof(clauses, dropped) == rescan_check(clauses, dropped)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_steps_agree_with_rescan(self, seed):
        clauses, proof = random_proof(random.Random(seed))
        assert check_proof(clauses, proof) == rescan_check(clauses, proof)


class TestBudgetsAndResume:
    def hard_instance(self):
        rng = random.Random(423)
        n = 90
        while True:
            clauses = random_3cnf(rng, n, ratio=4.26)
            if solve(cnf(n, clauses)).stats.conflicts > 200:
                return n, clauses

    def test_conflict_budget_unknown_then_resume(self):
        n, clauses = self.hard_instance()
        reference = solve(cnf(n, clauses)).status
        s = Solver(cnf(n, clauses))
        first = s.solve(conflict_budget=50)
        assert first.status is Status.UNKNOWN
        assert s.stats.conflicts >= 50
        final = s.solve()
        assert final.status is reference

    def test_time_budget(self):
        n, clauses = self.hard_instance()
        out = Solver(cnf(n, clauses)).solve(time_budget=1e-9)
        assert out.status in (Status.UNKNOWN, Status.SAT, Status.UNSAT)

    @pytest.mark.parametrize("budgets", [
        {"conflict_budget": 0}, {"time_budget": 0.0}, {"conflict_budget": -1}])
    def test_zero_budget_rejected(self, budgets):
        s = Solver(pigeonhole(6, 5))
        with pytest.raises(ValueError, match="positive"):
            s.solve(**budgets)
        assert s.stats.conflicts == 0

    def test_stats_accumulate(self):
        n, clauses = self.hard_instance()
        s = Solver(cnf(n, clauses))
        s.solve(conflict_budget=30)
        c1 = s.stats.conflicts
        s.solve(conflict_budget=30)
        assert s.stats.conflicts >= c1 + 30 or s.stats.conflicts > c1


class TestPhaseControl:
    def test_hook_can_avoid_all_conflicts(self):
        # all-positive clauses: deciding true everywhere never conflicts
        rng = random.Random(5)
        clauses = [[v for v in rng.sample(range(1, 20), 3)] for _ in range(60)]
        out = solve(cnf(19, clauses), phase_hook=lambda v: True)
        assert out.status is Status.SAT and out.stats.conflicts == 0

    def test_hook_abstains_to_default(self):
        out = solve(cnf(1, [[1, 1], [1, -1]]),
                    SolverConfig(phase_default="true"),
                    phase_hook=lambda v: None)
        assert out.model[1] is True

    def test_phase_default_false(self):
        out = solve(cnf(2, [[1, 2], [1, -2], [-1, -2]]),
                    SolverConfig(phase_default="false"))
        assert out.status is Status.SAT
        assert out.model[2] is False

    def test_saved_phase_reused(self):
        s = Solver(cnf(2, [[1, 2]]))
        out = s.solve()
        assert out.status is Status.SAT
        assert all(p is not None for v, p in enumerate(s.saved_phase) if v >= 1
                   and s.values[v] != 0)

    def test_bad_phase_default_rejected(self):
        with pytest.raises(ValueError, match="phase_default"):
            SolverConfig(phase_default="maybe")

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(conflict_budget=0)


class TestRestarts:
    def test_on_restart_receives_decisions(self):
        rng = random.Random(99)
        n = 30
        clauses = random_3cnf(rng, n, ratio=4.3)
        calls = []
        solve(cnf(n, clauses), SolverConfig(restart_unit=1),
              on_restart=lambda decisions: calls.append(list(decisions)))
        if calls:
            for decisions in calls:
                assert all(isinstance(l, int) and l != 0 for l in decisions)

    def test_restart_counter_in_stats(self):
        rng = random.Random(77)
        n = 35
        clauses = random_3cnf(rng, n, ratio=4.3)
        out = solve(cnf(n, clauses), SolverConfig(restart_unit=1))
        if out.stats.conflicts > 10:
            assert out.stats.restarts > 0


class TestLearntDatabase:
    def paused_solver(self):
        rng = random.Random(31)
        n = 90
        while True:
            clauses = random_3cnf(rng, n, ratio=4.3)
            s = Solver(cnf(n, clauses))
            out = s.solve(conflict_budget=120)
            if out.status is Status.UNKNOWN and len(s.learnts) >= 10:
                s.pause_at_level0()
                return s, clauses

    def test_export_requires_level0(self):
        s, _ = self.paused_solver()
        s.decide()
        with pytest.raises(RuntimeError, match="level 0"):
            s.export_learnts()

    def test_export_replace_resume(self):
        s, clauses = self.paused_solver()
        snaps = s.export_learnts()
        assert all(isinstance(x, LearntSnapshot) for x in snaps)
        kept = snaps[: len(snaps) // 2]
        s.replace_learnts(kept)
        assert len(s.learnts) <= len(kept) + 1  # locked clauses may survive
        final = s.solve()
        expect = solve(cnf(s.nvars, clauses)).status
        assert final.status is expect

    def test_reduce_db_keeps_low_lbd(self):
        s, _ = self.paused_solver()
        glue = [c for c in s.learnts if c.lbd <= s.config.keep_lbd]
        for c in s.learnts:
            c.used = False
        s.reduce_db()
        for c in glue:
            assert c in s.learnts


class TestLiteralRange:
    @pytest.mark.parametrize("clause", [[5], [1, 5], [1, -2, -5], [2, 0, 1],
                                        [0]])
    def test_init_rejects_literal_added_after_construction(self, clause):
        formula = cnf(4, [[1, 2], [3, -4]])
        formula.clauses.append(clause)  # CnfFormula checks only at creation
        with pytest.raises(CnfError, match="out of range"):
            Solver(formula)

    @pytest.mark.parametrize("bad", [0, 4, -4])
    def test_same_check_on_every_path(self, bad):
        # num_vars = 3: 0, n + 1 and -n - 1; the message names the first
        # bad literal, ahead of the -5 that follows it
        msg = rf"literal {bad} out of range \(num_vars=3\)"
        with pytest.raises(CnfError, match=msg):
            CnfFormula(3, [[1, 2], [-3, bad, -5]])
        formula = CnfFormula(3, [[1, 2]])
        formula.clauses.append([-3, bad, -5])
        with pytest.raises(CnfError, match=msg):
            Solver(formula)


class TestTunedConfig:
    def test_unsat_tuned_values(self):
        assert UNSAT_TUNED.restart_unit == 512
        assert UNSAT_TUNED.keep_lbd == 3
        assert UNSAT_TUNED.phase_default == "false"

    def test_unsat_tuned_agrees_with_default(self):
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(6, 12)
            clauses = random_3cnf(rng, n)
            a = solve(cnf(n, clauses)).status
            b = solve(cnf(n, clauses), SolverConfig(
                restart_unit=512, keep_lbd=3, phase_default="false")).status
            assert a is b


class TestSearchPin:
    """Each case hashes status, every SolverStats counter but wall time, the
    model and the DRAT steps of its solves.  A speed-up that keeps the
    search must reproduce every digest; a change to the search (blockers,
    binary lists, another heap order, minimisation) re-takes them and says
    so."""

    DIGESTS = {
        "random_3cnf":
            "f06eac66f0ed5950fa08f8c74942c0dda42b3b3ff8fd13ad84b4b7817a41628d",
        "pigeonhole":
            "54c69b8537ce9791231e37741e8d7de2393a332a744ddb07eecc837665f477eb",
        "phase_hook":
            "762ce869162c8f88ebbd1479841ef6182471acfc3da3af36f7f0338132f41e27",
        "budget_replace_import":
            "cf34bbc123db40c1b5a197689105b8b8ec36941cc489d2aa906ea14ba7f45718",
        "clause_filter":
            "12d2237cafd85d4e8071874a2ad7019fbe5613b0abef2994130ab32e824266dc",
    }

    @staticmethod
    def record(h, outcome, proof):
        stats = outcome.stats.as_dict()
        del stats["wall_time"]
        h.update(repr((outcome.status.value, sorted(stats.items()),
                       sorted((outcome.model or {}).items()),
                       proof.steps)).encode())

    def random_3cnf(self, h):
        deletions = 0
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(20, 45)
            clauses = random_3cnf(rng, n, ratio=rng.uniform(3.8, 5.0))
            # a short reduce interval puts deletions into the proofs
            config = SolverConfig(restart_unit=rng.choice([1, 4, 64]),
                                  reduce_interval=rng.randint(5, 40),
                                  keep_lbd=rng.randint(1, 3))
            proof = DratProof()
            self.record(h, solve(cnf(n, clauses), config, drat_sink=proof),
                        proof)
            deletions += sum(kind == "d" for kind, _ in proof.steps)
        assert deletions > 0

    def pigeonhole(self, h):
        # var_decay=0.5 overflows the activities, so the heap is rebuilt
        for pigeons in (5, 6, 7):
            for config in (SolverConfig(), UNSAT_TUNED,
                           SolverConfig(var_decay=0.5)):
                proof = DratProof()
                self.record(h, solve(pigeonhole(pigeons, pigeons - 1), config,
                                     drat_sink=proof), proof)

    def phase_hook(self, h):
        def hook(v):
            return None if v % 3 == 0 else v % 2 == 0
        for seed in range(10):
            rng = random.Random(1000 + seed)
            n = 60
            clauses = random_3cnf(rng, n, ratio=4.2)
            proof = DratProof()
            self.record(h, solve(cnf(n, clauses), phase_hook=hook,
                                 drat_sink=proof), proof)

    def budget_replace_import(self, h):
        rng = random.Random(423)
        n = 90
        clauses = random_3cnf(rng, n, ratio=4.26)
        proof = DratProof()
        s = Solver(cnf(n, clauses), SolverConfig(reduce_interval=50),
                   drat_sink=proof)
        self.record(h, s.solve(conflict_budget=60), proof)
        s.pause_at_level0()
        snaps = s.export_learnts()
        h.update(repr([(snap.lits, snap.lbd) for snap in snaps]).encode())
        s.replace_learnts(snaps[::2])
        self.record(h, s.solve(), proof)

    def clause_filter(self, h):
        base = random_circuit(4, num_pis=12, num_gates=300)
        miter = build_miter(base, reassociate(base, 4))
        po = miter.primary_outputs[0]
        formula, vmap = tseitin_encode(miter, [(po, True)])
        estimator = Estimator(miter, EstimatorConfig(backend=Backend.EXACT))
        proof = DratProof()
        report = run_clause_filter(
            Solver(formula, drat_sink=proof),
            ClauseFilterPolicy(conflict_budget=10, threshold=0.9),
            estimator, vmap)
        assert report.fired_mid_solve and report.dropped > 0
        h.update(repr((report.kept, report.dropped, report.scores)).encode())
        self.record(h, report.outcome, proof)

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_digest(self, case):
        h = hashlib.sha256()
        getattr(self, case)(h)
        assert h.hexdigest() == self.DIGESTS[case]
