import hashlib
import importlib.util
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cascad.bench import reassociate
from cascad.circuit import build_miter, parse_aiger
from cascad.cnf import CnfError, CnfFormula, tseitin_encode
from cascad.drat import (DratError, DratFileSink, DratProof, check_proof,
                         parse_drat)
from cascad.solver import (LearntSnapshot, Solver, SolverConfig, Status,
                           UNSAT_TUNED, luby)
from cascad.estimator import Backend, Estimator, EstimatorConfig
from cascad.heuristics import ClauseFilterPolicy, run_clause_filter

from conftest import (enum_cnf_sat, pigeonhole, random_3cnf, random_circuit,
                      solve, solve_reducing)


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
            with open(path) as fh:
                on_disk = parse_drat(fh.read())
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

    @pytest.mark.parametrize("text", ["+1_0 0\n", "+1 0\n", "1_0 0\n",
                                      "d -0_1 0\n", "\u0661 0\n",
                                      "d 1 \u0662 0\n"])
    def test_sign_underscore_and_other_digits_rejected(self, text):
        """DRAT literals are ASCII digits with an optional '-'; int()
        would also read '+', underscores and other scripts' digits."""
        with pytest.raises(DratError, match="bad literal"):
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
            solver = Solver(cnf(n, clauses), SolverConfig(keep_lbd=1),
                            drat_sink=proof)
            if solve_reducing(solver, rng.randint(2, 12)).status \
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


def level0_closure(db) -> set[int] | None:
    """The literals that naive unit propagation over db makes true, or None
    on a conflict."""
    true: set[int] = set()
    changed = True
    while changed:
        changed = False
        for clause in db:
            if any(lit in true for lit in clause):
                continue
            free = {lit for lit in clause if -lit not in true}
            if not free:
                return None
            if len(free) == 1:
                true |= free
                changed = True
    return true


def unsettled_lemmas(clauses, proof: DratProof) -> list[int]:
    """Reference hint replay, independent of ``cascad.drat``: the indices of
    the non-empty ``a`` steps whose hints do not reach a falsified clause.
    From the lemma's negation and the level-0 closure, each hint must name a
    live clause that is unit, whose literal then holds, or falsified.  Ids
    count the original clauses, then the ``a`` steps; a deletion kills the
    newest live copy of its set of literals."""
    db = [set(cl) for cl in clauses]
    live = [True] * len(db)
    top = level0_closure(db)
    stale = False
    unsettled = []
    for step_no, (kind, lits) in enumerate(proof.steps):
        if kind == "d":
            for cid in reversed(range(len(db))):
                if live[cid] and db[cid] == set(lits):
                    live[cid] = False
                    stale = True
                    break
            continue
        if not lits:
            break
        if stale:
            top = level0_closure([cl for cl, on in zip(db, live) if on])
            stale = False
        assert top is not None  # the solver logs [] at a level-0 conflict
        assign = top | {-lit for lit in lits}
        settled = any(lit in top for lit in lits)
        for cid in [] if settled else proof.hints.get(step_no, ()):
            if not (0 <= cid < len(db) and live[cid]) or \
                    not assign.isdisjoint(db[cid]):
                break
            free = {lit for lit in db[cid] if -lit not in assign}
            if not free:
                settled = True
                break
            if len(free) > 1:
                break
            assign |= free
        if not settled:
            unsettled.append(step_no)
        db.append(set(lits))
        live.append(True)
        # a lemma with at most one literal not false at level 0 extends it
        stale = sum(-lit not in top for lit in set(lits)) <= 1
    return unsettled


def unit_closure(clauses) -> set[int]:
    """The literals unit propagation derives from ``clauses`` alone,
    which must not conflict."""
    true: set[int] = set()
    occurs: dict[int, list[list[int]]] = {}
    for clause in clauses:
        for lit in clause:
            occurs.setdefault(-lit, []).append(clause)
    queue = [cl[0] for cl in clauses if len(cl) == 1]
    while queue:
        lit = queue.pop()
        if lit in true:
            continue
        assert -lit not in true, "conflict at the root"
        true.add(lit)
        for clause in occurs.get(lit, ()):
            if any(l in true for l in clause):
                continue
            open_ = [l for l in clause if -l not in true]
            assert open_, "conflict at the root"
            if len(open_) == 1:
                queue.append(open_[0])
    return true


def load_perfbench_gen():
    """``perfbench/gen.py``, the benchmark's instance generator."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unsat_3cnf_proof(seed: int):
    """A random UNSAT 3-CNF, small enough to enumerate, and its hinted proof;
    a short reduce interval puts deletions into it."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(10, 16)
        clauses = random_3cnf(rng, n, ratio=rng.uniform(5.0, 7.0))
        proof = DratProof()
        solver = Solver(cnf(n, clauses), SolverConfig(keep_lbd=1),
                        drat_sink=proof)
        if solve_reducing(solver, rng.randint(4, 20)).status is Status.UNSAT:
            return n, clauses, proof


class TestHints:
    """Hints are advisory: ``check_proof`` accepts and rejects the same
    proofs with any hints, and the solver's hints settle every lemma."""

    @pytest.mark.parametrize("clauses, steps, hints", [
        # test_checker_rejects_non_rup_step, with the lemma's own id, an id
        # past the end, negative ids and a clause that is only unit
        ([[1, 2]], [("a", [1]), ("a", [])], [1]),
        ([[1, 2]], [("a", [1]), ("a", [])], [7]),
        ([[1, 2]], [("a", [1]), ("a", [])], [-1]),
        ([[1, 2]], [("a", [1]), ("a", [])], [0, -2, 0]),
        ([[1, 2]], [("a", [1]), ("a", [])], [0]),
        # [1, -2] would falsify once [1, 2] gives 2, but it is deleted
        ([[1, 2], [1, -2]], [("d", [-2, 1]), ("a", [1]), ("a", [])], [0, 1]),
        # [-1, 2] is satisfied by the assumption -1, so it implies nothing
        ([[-1, 2], [-2, 1]], [("a", [1]), ("a", [])], [0, 1]),
        # [2, 3] has two open literals; 2 from it would falsify [-2, 1]
        ([[2, 3], [-2, 1]], [("a", [1]), ("a", [])], [0, 1]),
    ])
    def test_bogus_hints_pass_no_non_rup_lemma(self, clauses, steps, hints):
        step_no = steps.index(("a", [1]))
        expected = (False, f"step {step_no}: clause [1] is not RUP")
        proof = steps_proof(steps)
        assert check_proof(clauses, proof) == expected
        proof.hints[step_no] = hints
        assert check_proof(clauses, proof) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_hints_change_no_answer(self, seed):
        rng = random.Random(seed)
        clauses, proof = random_proof(rng)
        plain = check_proof(clauses, proof)
        top = len(clauses) + len(proof.steps)
        for step_no, (kind, _) in enumerate(proof.steps):
            if kind == "a":
                proof.hints[step_no] = [rng.randint(-3, top + 2)
                                        for _ in range(rng.randint(1, 6))]
        assert check_proof(clauses, proof) == plain

    def test_hints_of_another_proof(self):
        # without its last clause the formula is satisfiable, so the proof
        # must fail; the lemma ids move down by one as well
        seed = 0
        while True:
            n, clauses, proof = unsat_3cnf_proof(seed)
            seed += 1
            if enum_cnf_sat(n, clauses[:-1]):
                break
        _, _, other = unsat_3cnf_proof(seed)
        weaker = clauses[:-1]
        ok, why = check_proof(weaker, DratProof(proof.steps))
        assert not ok and why.startswith("step ") and why.endswith("not RUP")
        for hints in (proof.hints, other.hints):
            assert check_proof(weaker, DratProof(proof.steps, hints)) == \
                (ok, why)

    @pytest.mark.parametrize("variant", ["dropped", "truncated", "shuffled"])
    def test_real_proof_accepted_with_broken_hints(self, variant):
        proof = DratProof()
        formula = pigeonhole(5, 4)
        assert solve(formula, drat_sink=proof).status is Status.UNSAT
        rng = random.Random(7)
        hints = {}
        if variant == "truncated":
            hints = {k: h[:len(h) // 2] for k, h in proof.hints.items()}
        elif variant == "shuffled":
            hints = {k: rng.sample(h, len(h)) for k, h in proof.hints.items()}
        broken = DratProof(proof.steps, hints)
        assert unsettled_lemmas(formula.clauses, broken)  # falls back
        assert check_proof(formula.clauses, broken) == (True, "ok")

    def check_settled(self, clauses, proof):
        lemmas = sum(kind == "a" and bool(lits) for kind, lits in proof.steps)
        assert lemmas > 0 and len(proof.hints) == lemmas
        assert unsettled_lemmas(clauses, proof) == []
        assert check_proof(clauses, proof) == (True, "ok")

    def test_solver_hints_settle_multiplier_proofs(self):
        gen = load_perfbench_gen()
        deletions = 0
        for _, data, _, _ in gen.multiplier_miters(3, [4, 4, 4]):
            miter = parse_aiger(data)
            po = miter.primary_outputs[0]
            formula, vmap = tseitin_encode(miter, [(po, True)])
            proof = DratProof()
            report = run_clause_filter(
                Solver(formula, drat_sink=proof),
                ClauseFilterPolicy(conflict_budget=150),
                Estimator(miter, EstimatorConfig(backend=Backend.EXACT)), vmap)
            assert report.fired_mid_solve
            assert report.outcome.status is Status.UNSAT
            deletions += sum(kind == "d" for kind, _ in proof.steps)
            self.check_settled(formula.clauses, proof)
        assert deletions > 0

    def test_solver_hints_settle_pigeonhole_proof(self):
        proof = DratProof()
        formula = pigeonhole(6, 5)
        assert solve(formula, drat_sink=proof).status is Status.UNSAT
        self.check_settled(formula.clauses, proof)

    @pytest.mark.parametrize("seed", range(8))
    def test_solver_hints_settle_random_3cnf_proofs(self, seed):
        _, clauses, proof = unsat_3cnf_proof(seed)
        self.check_settled(clauses, proof)

    def test_checker_replays_hints_instead_of_propagating(self):
        # ignoring the hints would accept the same proofs, only slower, so
        # count the propagations that lemma checks start
        proof = DratProof()
        formula = pigeonhole(6, 5)
        assert solve(formula, drat_sink=proof).status is Status.UNSAT

        def lemma_propagations(checked):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += (event == "call"
                          and frame.f_code.co_name == "propagate"
                          and frame.f_back.f_code.co_name == "is_rup")
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                assert check_proof(formula.clauses, checked) == (True, "ok")
            finally:
                sys.setprofile(previous)
            return calls

        assert lemma_propagations(proof) == 0
        assert lemma_propagations(DratProof(proof.steps)) > 0


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
        {"conflict_budget": 0}, {"time_budget": 0.0}, {"conflict_budget": -1},
        {"conflict_budget": float("nan")}, {"time_budget": float("nan")}])
    def test_zero_budget_rejected(self, budgets):
        s = Solver(pigeonhole(6, 5))
        with pytest.raises(ValueError, match="positive"):
            s.solve(**budgets)
        assert s.stats.conflicts == 0

    def test_unit_learnt_before_stop_is_propagated(self):
        """A unit learnt just before a conflict-budget stop stays queued
        through the root backtrack of export_learnts: one propagate() then
        makes the root trail the unit-propagation closure of the original
        clauses, the learnt ones and the learnt units, which the solver
        keeps only on its trail and the proof records.  Of these stops on
        the benchmark's first four 4-bit multipliers, two have such a
        unit."""
        grew = []
        for name, data, _, _ in load_perfbench_gen().multiplier_miters(1, [4] * 4):
            miter = parse_aiger(data)
            formula, _ = tseitin_encode(miter, [(miter.primary_outputs[0], True)])
            for budget in range(100, 395, 7):
                proof = DratProof()
                s = Solver(formula, drat_sink=proof)
                if s.solve(conflict_budget=budget).status is not Status.UNKNOWN:
                    continue
                learnts = [list(snap.lits) for snap in s.export_learnts()]
                units = [list(lits) for kind, lits in proof.steps
                         if kind == "a" and len(lits) == 1]
                before = len(s.trail)
                assert s.propagate() is None
                if len(s.trail) > before:
                    grew.append((name, budget, before, len(s.trail)))
                assert set(s.trail) == unit_closure(
                    s.original_clauses + learnts + units)
        assert grew == [("mult4-01", 296, 38, 40), ("mult4-03", 345, 140, 143)]

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
        # the first decision, on variable 1, takes the default phase false
        out = solve(cnf(2, [[1, 2]]), SolverConfig(phase_saving=False),
                    phase_hook=lambda v: None)
        assert out.model == {1: False, 2: True}
        assert out.stats.decisions == 1

    def test_phase_default_false(self):
        out = solve(cnf(2, [[1, 2], [1, -2], [-1, -2]]),
                    SolverConfig(phase_saving=False))
        assert out.status is Status.SAT
        assert out.model[2] is False

    def test_saved_phase_reused(self):
        s = Solver(cnf(2, [[1, 2]]))
        out = s.solve()
        assert out.status is Status.SAT
        assert all(p is not None for v, p in enumerate(s.saved_phase) if v >= 1
                   and s.values[v] != 0)


class TestRestarts:
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
                return s, clauses

    def test_export_and_keep_backtrack_to_root(self):
        s, _ = self.paused_solver()
        s.decide()
        assert s.decision_level > 0
        snaps = s.export_learnts()
        assert s.decision_level == 0
        s.decide()
        s.keep_learnts([True] * len(snaps))
        assert s.decision_level == 0

    def test_export_replace_resume(self):
        s, clauses = self.paused_solver()
        snaps = s.export_learnts()
        assert all(isinstance(x, LearntSnapshot) for x in snaps)
        half = len(snaps) // 2
        s.keep_learnts([i < half for i in range(len(snaps))])
        assert len(s.learnts) <= half + 1  # locked clauses may survive
        final = s.solve()
        expect = solve(cnf(s.nvars, clauses)).status
        assert final.status is expect

    def test_keep_learnts_by_position(self):
        s, _ = self.paused_solver()
        before = list(s.learnts)
        keep = [i % 3 == 0 for i in range(len(before))]
        s.keep_learnts(keep)
        # a clause that is the reason of a level-0 literal stays regardless
        locked = {id(s.reasons[abs(lit)]) for lit in s.trail}
        assert [c for c in s.learnts if id(c) not in locked] == \
            [c for c, k in zip(before, keep) if k and id(c) not in locked]

    def test_keep_learnts_checks_length(self):
        s, _ = self.paused_solver()
        with pytest.raises(ValueError, match="keep flags"):
            s.keep_learnts([True])

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
        assert UNSAT_TUNED.phase_saving is False

    def test_unsat_tuned_agrees_with_default(self):
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(6, 12)
            clauses = random_3cnf(rng, n)
            a = solve(cnf(n, clauses)).status
            b = solve(cnf(n, clauses), SolverConfig(
                restart_unit=512, keep_lbd=3, phase_saving=False)).status
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
            "b167a4751b54e70b17575f2dcf173dda1976d490b0f8a062472203dd50275c26",
        "phase_hook":
            "762ce869162c8f88ebbd1479841ef6182471acfc3da3af36f7f0338132f41e27",
        "budget_replace_import":
            "cf34bbc123db40c1b5a197689105b8b8ec36941cc489d2aa906ea14ba7f45718",
        "clause_filter":
            "c85dfb9bc1b77fc5cde2a31ca821784328ecdc9268de761b4a7509e0767e4399",
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
            restart_unit = rng.choice([1, 4, 64])
            # a short reduce interval puts deletions into the proofs
            every = rng.randint(5, 40)
            config = SolverConfig(restart_unit=restart_unit,
                                  keep_lbd=rng.randint(1, 3))
            proof = DratProof()
            solver = Solver(cnf(n, clauses), config, drat_sink=proof)
            self.record(h, solve_reducing(solver, every), proof)
            deletions += sum(kind == "d" for kind, _ in proof.steps)
        assert deletions > 0

    def pigeonhole(self, h):
        # a var_inc of 1e95 overflows the activities, so the heap is rebuilt
        for pigeons in (5, 6, 7):
            for config, var_inc in ((SolverConfig(), 1.0), (UNSAT_TUNED, 1.0),
                                    (SolverConfig(), 1e95)):
                proof = DratProof()
                s = Solver(pigeonhole(pigeons, pigeons - 1), config,
                           drat_sink=proof)
                s.var_inc = var_inc
                self.record(h, s.solve(), proof)

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
        s = Solver(cnf(n, clauses), drat_sink=proof)
        self.record(h, solve_reducing(s, 50, conflict_budget=60), proof)
        snaps = s.export_learnts()
        h.update(repr([(snap.lits, snap.lbd) for snap in snaps]).encode())
        s.keep_learnts([i % 2 == 0 for i in range(len(snaps))])
        self.record(h, solve_reducing(s, 50), proof)

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
