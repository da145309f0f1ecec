import csv
import functools
import hashlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from cascad import estimator as estimator_mod
from cascad.bench import (MODES, BenchCase, BenchConfig, CorrectnessAlarm,
                          SuiteError, TRANSFORMS, commute_fanins, gen_suite,
                          load_suite, par2, par2_by_config,
                          reassociate, report, run_case, run_suite, save_suite,
                          solve_miter)
from cascad.circuit import (Circuit, build_miter, mutate_circuit, parse_aiger,
                            strash)
from cascad.cnf import tseitin_encode
from cascad.estimator import Backend, Estimator, default_backend
from cascad.heuristics import ClauseFilterPolicy
from cascad.solver import Solver, SolverStats
from cascad.sim import exact_truth_table

from conftest import eval_circuit, pad_with_dead_logic, random_circuit
from test_perfbench import perfbench_modules  # noqa: F401 (fixture)
from test_solver import load_perfbench_gen


def functionally_equal(a, b):
    import numpy as np
    ta, tb = exact_truth_table(a), exact_truth_table(b)
    return all(np.array_equal(ta.trace(pa), tb.trace(pb))
               for pa, pb in zip(a.primary_outputs, b.primary_outputs))


def miter_is_sat(miter):
    tt = exact_truth_table(miter)
    return tt.count(miter.primary_outputs[0]) > 0


class TestTransforms:
    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("seed", range(4))
    def test_function_preserved(self, name, seed):
        c = random_circuit(seed, num_pis=5, num_gates=30)
        twin = TRANSFORMS[name](c, seed + 100)
        assert functionally_equal(c, twin)

    def test_commute_swaps_fanins(self, toy_and):
        c, a, b, g = toy_and
        twin = commute_fanins(c, seed=0)
        assert twin.gates[g].fanins == (b, a)

    def test_reassociate_without_site_falls_back(self, toy_and):
        c, *_ = toy_and
        twin = reassociate(c, seed=0)
        assert functionally_equal(c, twin)

    def test_transforms_on_gateless_circuit(self):
        c = Circuit()
        c.set_outputs([c.add_pi()])
        for fn in TRANSFORMS.values():
            assert functionally_equal(c, fn(c, 0))


class TestGenSuite:
    def bases(self):
        return [random_circuit(s, num_pis=5, num_gates=25) for s in (0, 1)]

    def test_counts_ids_and_labels(self):
        cases = gen_suite(self.bases(), n_sat=2, n_unsat=3, seed=4)
        assert len(cases) == 5
        assert [c.id for c in cases] == \
            ["unsat-000", "unsat-001", "unsat-002", "sat-000", "sat-001"]
        assert all(c.expected == "UNSAT" for c in cases[:3])
        assert all(c.expected == "SAT" for c in cases[3:])

    def test_expected_statuses_verified(self):
        for case in gen_suite(self.bases(), n_sat=2, n_unsat=2, seed=7):
            assert miter_is_sat(case.miter) == (case.expected == "SAT")

    def test_determinism(self):
        a = gen_suite(self.bases(), n_sat=2, n_unsat=2, seed=11)
        b = gen_suite(self.bases(), n_sat=2, n_unsat=2, seed=11)
        assert [c.provenance for c in a] == [c.provenance for c in b]

    def test_one_truth_table_at_a_time(self, monkeypatch):
        # each base is simulated once, and a check's table is freed before
        # the next is built, so the memory the suite leaves behind does not
        # hang on how two large frees line up in the C heap
        import weakref
        import cascad.bench as bench
        bases = self.bases()
        simulated, tables, most = [], [], [0]
        source = {}  # each hashed cone -> the circuit it was copied from

        def recording_strash(circuit):
            cone = strash(circuit)
            source[cone] = circuit
            return cone

        def counting_table(circuit):
            table = exact_truth_table(circuit)
            simulated.append(source[circuit])
            # the word array, which output rows that are views keep alive
            tables.append(weakref.ref(table.words))
            most[0] = max(most[0], sum(t() is not None for t in tables))
            return table

        monkeypatch.setattr(bench, "strash", recording_strash)
        monkeypatch.setattr(bench, "exact_truth_table", counting_table)
        cases = gen_suite(bases, n_sat=4, n_unsat=4, seed=3)
        assert len(cases) == 8 and most[0] == 1
        assert [c for c in simulated if c in bases] == bases

    def test_large_circuit_marked_unknown(self):
        big = random_circuit(3, num_pis=17, num_gates=40)
        cases = gen_suite([big], n_sat=0, n_unsat=1, seed=0)
        assert cases[0].expected == "unknown"

    def test_unmutable_base_raises(self):
        c = Circuit()
        c.set_outputs([c.add_pi()])
        with pytest.raises(SuiteError, match="mutation"):
            gen_suite([c], n_sat=1, n_unsat=0, seed=0)

    def test_base_whose_output_reads_no_and_raises(self):
        """Beyond 16 PIs a mutant is taken unchecked, so one of an AND no
        output reads, which computes the base's outputs, must not be made."""
        c = Circuit()
        pis = [c.add_pi() for _ in range(20)]
        c.add_and(pis[0], pis[1])
        c.set_outputs([c.add_not(pis[2])])
        with pytest.raises(SuiteError, match="mutation"):
            gen_suite([c], n_sat=1, n_unsat=0, seed=0)


def graph_json(c: Circuit) -> str:
    """The gate list, inputs and outputs as one JSON text: what the copy
    digest hashes."""
    return json.dumps({
        "gates": [{"kind": g.kind.value, "fanins": list(g.fanins)}
                  for g in c.gates],
        "inputs": c.primary_inputs,
        "outputs": c.primary_outputs,
    })


class TestCopyPin:
    # SHA-256 over the gate lists the copying transforms and the suite's
    # miters produce; any change to gate order, NOT sharing or PI numbering
    # shows here
    DIGEST = "311e4bb4a89c2a78f5e1295eed3d21296a60c98cce1aaa8eda4f8a36893332ff"

    def test_copies_unchanged(self):
        h = hashlib.sha256()
        for seed in range(40):
            c = random_circuit(seed, num_pis=5, num_gates=30)
            c.set_outputs(c.primary_outputs + [len(c) - 4])
            twins = [TRANSFORMS["identity"](c, seed), reassociate(c, seed),
                     mutate_circuit(c, seed)]
            cases = gen_suite([c], n_sat=2, n_unsat=2, seed=seed)
            for out in twins + [build_miter(c, t) for t in twins] + \
                    [case.miter for case in cases]:
                h.update(graph_json(out).encode())
        assert h.hexdigest() == self.DIGEST


class TestSuiteIO:
    def test_round_trip(self, tmp_path):
        bases = [random_circuit(s, num_pis=4, num_gates=15) for s in (5, 6)]
        cases = gen_suite(bases, n_sat=1, n_unsat=2, seed=1)
        save_suite(cases, str(tmp_path))
        back = load_suite(str(tmp_path))
        assert [c.id for c in back] == [c.id for c in cases]
        assert [c.expected for c in back] == [c.expected for c in cases]
        for orig, loaded in zip(cases, back):
            assert miter_is_sat(orig.miter) == miter_is_sat(loaded.miter)

    def test_manifest_contents(self, tmp_path):
        bases = [random_circuit(5, num_pis=4, num_gates=15)]
        cases = gen_suite(bases, n_sat=1, n_unsat=1, seed=1)
        save_suite(cases, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {e["id"] for e in manifest} == {"unsat-000", "sat-000"}
        assert all((tmp_path / e["aiger"]).exists() for e in manifest)


class TestRunCase:
    def small_cases(self):
        bases = [random_circuit(s, num_pis=4, num_gates=15) for s in (8, 9)]
        return gen_suite(bases, n_sat=1, n_unsat=1, seed=3)

    def test_baseline_matches_expected(self):
        for case in self.small_cases():
            record = run_case(case, BenchConfig("baseline"))
            assert record["status"] == case.expected
            assert record["inference_seconds"] == 0.0
            assert record["wall_seconds"] >= record["solving_seconds"]

    def test_phase_config(self):
        for case in self.small_cases():
            record = run_case(case, BenchConfig("phase", kind="phase"))
            assert record["status"] == case.expected
            assert record["inference_seconds"] > 0.0

    def test_clause_filter_config(self):
        for case in self.small_cases():
            outcome, fields = solve_miter(
                case.miter, "clause-filter",
                clause_filter=ClauseFilterPolicy(conflict_budget=10))
            assert outcome.status.value == case.expected
            rep = fields["clause_filter"]
            assert rep["total"] == rep["kept"] + rep["dropped"]
            assert rep["estimator_failures"] == 0

    def test_clause_filter_record_carries_report(self):
        record = run_case(self.small_cases()[0],
                          BenchConfig("clause-filter", kind="clause-filter"))
        assert {"fired_at_conflicts", "kept", "dropped",
                "estimator_failures"} <= set(record["clause_filter"])
        assert "scores" not in record["clause_filter"]

    def test_adaptive_config(self):
        for case in self.small_cases():
            record = run_case(case, BenchConfig("adaptive", kind="adaptive"))
            assert record["status"] == case.expected
            assert record["stage"] == 1 and record["stage1_wall"] >= 0.0
            assert record["inference_seconds"] > 0.0

    def test_phase_fallbacks_in_phase_and_adaptive_records(self):
        case = self.small_cases()[0]
        for mode in MODES:
            record = run_case(case, BenchConfig(mode, kind=mode))
            if mode in ("phase", "adaptive"):
                assert record["phase_fallbacks"] == 0
            else:
                assert "phase_fallbacks" not in record

    @pytest.mark.parametrize("mode", ["phase", "adaptive"])
    def test_failing_estimator_counted_as_phase_fallback(self, monkeypatch,
                                                         mode):
        """A phase table that raises is counted on the UNSAT case; the SAT
        case is answered from its witness and never asks for a table."""
        asked = []

        def boom(self, po):
            asked.append(po)
            raise RuntimeError("boom")

        monkeypatch.setattr(Estimator, "phase_table", boom)
        cases = self.small_cases()
        assert {c.expected for c in cases} == {"SAT", "UNSAT"}
        for case in cases:
            asked.clear()
            outcome, fields = solve_miter(case.miter, mode)
            assert outcome.status.value == case.expected
            searched = case.expected == "UNSAT"
            assert len(asked) == fields["phase_fallbacks"] == searched
            assert fields["sim_answer"] is not searched

    def test_phase_mode_builds_one_table(self, monkeypatch):
        calls = []
        phase_table = Estimator.phase_table

        def counted(self, po):
            calls.append(po)
            return phase_table(self, po)

        monkeypatch.setattr(Estimator, "phase_table", counted)
        solve_miter(self.small_cases()[0].miter, "phase")
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["phase", "adaptive"])
    def test_traced_solve_counts_phases(self, perfbench_modules, mode):
        """The hook goes through ``make_phase_hook``, so the tracer counts
        its forced and abstained phases."""
        run, tracing = perfbench_modules
        bases = [random_circuit(s, num_pis=8, num_gates=120) for s in (3, 4)]
        # UNSAT, so no trace sets the output and the solver runs with the
        # hook; this twin is reassociated, which hashing does not undo, so
        # the search makes decisions
        case = next(c for c in gen_suite(bases, 1, 1, seed=12)
                    if c.expected == "UNSAT")
        tracer = tracing.Tracer()
        try:
            run.install_tracing(tracer)
            outcome, _ = solve_miter(case.miter, mode)
        finally:
            tracer.remove()
        assert outcome.status.value == "UNSAT"
        assert tracer.counts["heuristics.phase_forced"] + \
            tracer.counts["heuristics.phase_abstain"] > 0

    @pytest.mark.parametrize("kind", ["phse", "clause_filter", ""])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(SuiteError, match="unknown mode"):
            BenchConfig("x", kind=kind)
        with pytest.raises(SuiteError, match="unknown mode"):
            solve_miter(self.small_cases()[0].miter, kind)

    def test_record_fields(self):
        record = run_case(self.small_cases()[0], BenchConfig("baseline"))
        assert {"case", "config", "status", "wall_seconds",
                "solving_seconds", "inference_seconds", "stats"} <= set(record)
        assert record["stats"]["conflicts"] >= 0


class TestSolveMiter:
    """``solve_miter`` strashes the miter, then encodes and solves it."""

    def cases(self):
        bases = [random_circuit(s, num_pis=8, num_gates=120) for s in (3, 4)]
        return gen_suite(bases, n_sat=3, n_unsat=3, seed=5)

    @pytest.mark.parametrize("mode", MODES)
    def test_verdicts(self, mode):
        cases = self.cases()
        assert {c.expected for c in cases} == {"SAT", "UNSAT"}
        for case in cases:
            outcome, _ = solve_miter(
                case.miter, mode,
                clause_filter=ClauseFilterPolicy(conflict_budget=10))
            assert outcome.status.value == case.expected, case.id

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_answer_builds_no_solver(self, monkeypatch, mode):
        """In phase and adaptive mode a trace that sets the output answers
        SAT and no solver is built; otherwise one solver searches.  Both
        records have the same fields."""
        import cascad.bench as bench_mod
        built = []

        class Recording(Solver):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "Solver", Recording)
        traced = mode in ("phase", "adaptive")
        records = []
        for expected in ("SAT", "UNSAT"):
            case = next(c for c in self.cases() if c.expected == expected)
            built.clear()
            outcome, fields = solve_miter(
                case.miter, mode,
                clause_filter=ClauseFilterPolicy(conflict_budget=10))
            assert outcome.status.value == expected
            answered = traced and expected == "SAT"
            assert len(built) == (not answered)
            assert fields.get("sim_answer") == (answered if traced else None)
            if answered:
                assert outcome.stats == SolverStats()
                assert fields["solving_seconds"] == 0.0
                assert fields["wall_seconds"] == fields["inference_seconds"]
                if mode == "adaptive":
                    assert (fields["stage"], fields["stage1_wall"]) == (1, 0.0)
            records.append(fields)
        assert set(records[0]) == set(records[1])

    @staticmethod
    def and_miter(num_pis, width):
        """A miter over ``num_pis`` PIs whose output is 1 exactly when the
        first ``width`` PIs are: an AND of them against the constant."""
        left, right = Circuit(), Circuit()
        pis = [left.add_pi() for _ in range(num_pis)]
        for _ in range(num_pis):
            right.add_pi()
        left.set_outputs([functools.reduce(left.add_and, pis[:width])])
        right.set_outputs([right.add_const0()])
        return build_miter(left, right)

    @pytest.mark.parametrize("mode", ["phase", "adaptive"])
    @pytest.mark.parametrize("width, sim_answer", [(3, True), (20, False)])
    def test_simulation_miter(self, mode, width, sim_answer):
        """Beyond 16 PIs the trace set is a sample: one that sets the
        output answers, and one that misses it leaves the solver to."""
        miter = self.and_miter(20, width)
        assert default_backend(miter) is Backend.SIMULATION
        outcome, fields = solve_miter(miter, mode)
        assert outcome.status.value == "SAT"
        assert fields["sim_answer"] is sim_answer
        row = {pi: outcome.model[v + 1]
               for v, pi in enumerate(miter.primary_inputs)}
        assert eval_circuit(miter, row)[miter.primary_outputs[0]]

    @pytest.mark.parametrize("mode", ["phase", "adaptive"])
    def test_failed_trace_build_answers_by_search(self, monkeypatch, mode):
        """A trace build that raises gives no witness and leaves the table
        empty: the solver answers, and the failure is counted once."""
        def boom(circuit):
            raise MemoryError("no room for the table")

        monkeypatch.setattr(estimator_mod, "exact_truth_table", boom)
        for case in self.cases():
            outcome, fields = solve_miter(case.miter, mode)
            assert outcome.status.value == case.expected
            assert fields["phase_fallbacks"] == 1
            assert fields["sim_answer"] is False

    @pytest.mark.parametrize("mode", ["phase", "adaptive"])
    def test_failed_trace_build_is_tried_once(self, monkeypatch, mode):
        """The failure is caught where the witness is asked: no table is
        asked for after it, so the trace set is built once per solve."""
        calls = []

        def boom(circuit):
            calls.append(circuit)
            raise MemoryError("no room for the table")

        monkeypatch.setattr(estimator_mod, "exact_truth_table", boom)
        for case in self.cases():
            calls.clear()
            outcome, fields = solve_miter(case.miter, mode)
            assert outcome.status.value == case.expected
            assert len(calls) == fields["phase_fallbacks"] == 1

    def test_unfired_clause_filter_scores_nothing(self, monkeypatch):
        """A solve that ends before the filter's checkpoint builds no trace
        set, scores no clause, and reports zero clauses."""
        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        counted(estimator_mod, "exact_truth_table")
        counted(Estimator, "clause_prob")
        for case in self.cases():
            outcome, fields = solve_miter(case.miter, "clause-filter")
            assert outcome.status.value == case.expected
            rep = fields["clause_filter"]
            assert not rep["fired_mid_solve"]
            assert [rep[k] for k in ("total", "kept", "dropped",
                                     "estimator_failures")] == [0, 0, 0, 0]
            assert set(rep["score_histogram"].values()) == {0}
            assert all(set(b.values()) == {0}
                       for b in rep["lbd_buckets"].values())
        assert calls == []

    @pytest.mark.parametrize("mode", ["phase", "adaptive"])
    def test_witness_is_asked_first(self, monkeypatch, mode):
        """A SAT case is answered from the witness before any phase table,
        policy or solver is built; an UNSAT case builds each once, and its
        solver gets the policy's hook."""
        import cascad.bench as bench_mod
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(Estimator, "phase_table")
        counted(bench_mod, "build_phase_policy")
        hooks = []
        monkeypatch.setattr(bench_mod, "make_phase_hook",
                            lambda policy: hooks.append(policy) or policy)

        class Recording(Solver):
            def __init__(self, cnf, config, phase_hook=None, **kwargs):
                calls.append("Solver")
                assert phase_hook is hooks[-1]
                super().__init__(cnf, config, phase_hook=phase_hook, **kwargs)

        monkeypatch.setattr(bench_mod, "Solver", Recording)
        for expected in ("SAT", "UNSAT"):
            case = next(c for c in self.cases() if c.expected == expected)
            calls.clear()
            outcome, fields = solve_miter(case.miter, mode)
            assert outcome.status.value == expected
            assert fields["sim_answer"] is (expected == "SAT")
            if expected == "SAT":
                assert calls == [] and hooks == []
            else:
                assert calls == ["build_phase_policy", "phase_table", "Solver"]
                assert len(hooks) == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_solving_seconds_exclude_solver_set_up(self, monkeypatch, mode):
        """Each mode builds one solver, before the solving clock starts."""
        import cascad.bench as bench_mod
        import cascad.heuristics as heuristics_mod
        built = []

        class SlowSetUp(Solver):
            def __init__(self, *args, **kwargs):
                time.sleep(0.3)
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "Solver", SlowSetUp)
        monkeypatch.setattr(heuristics_mod, "Solver", SlowSetUp)
        case = self.cases()[0]
        outcome, fields = solve_miter(
            case.miter, mode,
            clause_filter=ClauseFilterPolicy(conflict_budget=10))
        assert outcome.status.value == case.expected
        assert len(built) == 1
        assert fields["solving_seconds"] < 0.3

    def test_clause_filter_scoring_is_inference(self, monkeypatch):
        """In clause-filter mode the trace build and the scoring between
        the two solves are inference; solving is the solver's own time."""
        import cascad.heuristics as heuristics_mod
        spent = []
        score_clauses = heuristics_mod.score_clauses

        def timed(*args):
            t0 = time.monotonic()
            result = score_clauses(*args)
            spent.append(time.monotonic() - t0)
            return result

        monkeypatch.setattr(heuristics_mod, "score_clauses", timed)
        _, data, _, _ = load_perfbench_gen().multiplier_miters(1, [4])[0]
        outcome, fields = solve_miter(
            parse_aiger(data), "clause-filter",
            clause_filter=ClauseFilterPolicy(conflict_budget=150))
        assert outcome.status.value == "UNSAT"
        assert fields["clause_filter"]["fired_mid_solve"]
        assert fields["clause_filter"]["total"] > 0
        assert fields["inference_seconds"] >= spent[0] > 0
        assert fields["solving_seconds"] == outcome.stats.wall_time
        assert fields["wall_seconds"] == \
            fields["solving_seconds"] + fields["inference_seconds"]

    def test_hashed_cnf_is_smaller(self, monkeypatch):
        import cascad.bench as bench_mod
        base = random_circuit(6, num_pis=8, num_gates=120)
        miter = build_miter(base, commute_fanins(base, 1))
        encoded = []

        def recording_encode(circuit, assumptions):
            result = tseitin_encode(circuit, assumptions)
            encoded.append(result[0])
            return result

        monkeypatch.setattr(bench_mod, "tseitin_encode", recording_encode)
        outcome, _ = solve_miter(miter, "baseline")
        assert outcome.status.value == "UNSAT"
        plain, _ = tseitin_encode(miter, [(miter.primary_outputs[0], True)])
        alone, _ = tseitin_encode(base, [(base.primary_outputs[0], True)])
        # the twin is the base with one AND's fanins swapped, so it hashes
        # away entirely: what is left is the base and the XOR's three ANDs
        assert len(encoded) == 1
        assert encoded[0].num_vars < plain.num_vars
        assert encoded[0].num_vars <= alone.num_vars + 3

    @pytest.mark.parametrize("mode", MODES)
    def test_model_drives_the_given_miter(self, mode):
        """The first len(PIs) model values, which ``csat`` prints as the
        first literals of its ``v`` line, are an input row on which the
        miter as given, not the hashed one, outputs 1."""
        sat = [c for c in self.cases() if c.expected == "SAT"]
        for case in sat:
            miter = case.miter
            outcome, _ = solve_miter(miter, mode)
            assert outcome.status.value == "SAT"
            pis = miter.primary_inputs
            row = {pi: outcome.model[v + 1] for v, pi in enumerate(pis)}
            assert eval_circuit(miter, row)[miter.primary_outputs[0]]

    @pytest.mark.parametrize("mode", MODES)
    def test_dead_logic_changes_no_answer_or_search(self, monkeypatch, mode):
        """Gates the output does not read are cut before encoding, so a
        padded miter is encoded, and searched, as the unpadded one is."""
        import cascad.bench as bench_mod
        encoded = []

        def recording_encode(circuit, assumptions):
            result = tseitin_encode(circuit, assumptions)
            encoded.append(result[0])
            return result

        monkeypatch.setattr(bench_mod, "tseitin_encode", recording_encode)
        policy = ClauseFilterPolicy(conflict_budget=10)
        for k, case in enumerate(self.cases()):
            padded = pad_with_dead_logic(case.miter, k)
            plain, _ = solve_miter(case.miter, mode, clause_filter=policy)
            outcome, _ = solve_miter(padded, mode, clause_filter=policy)
            assert outcome.status == plain.status
            assert outcome.status.value == case.expected
            assert (outcome.stats.conflicts, outcome.stats.decisions) == \
                (plain.stats.conflicts, plain.stats.decisions)
            plain_cnf, padded_cnf = encoded[-2:]
            assert (padded_cnf.num_vars, padded_cnf.clauses) == \
                (plain_cnf.num_vars, plain_cnf.clauses)
            unhashed, _ = tseitin_encode(
                padded, [(padded.primary_outputs[0], True)])
            assert padded_cnf.num_vars < unhashed.num_vars
            if outcome.status.value == "SAT":
                row = {pi: outcome.model[v + 1]
                       for v, pi in enumerate(padded.primary_inputs)}
                assert eval_circuit(padded, row)[padded.primary_outputs[0]]


class TestRunSuite:
    def suite(self):
        bases = [random_circuit(s, num_pis=4, num_gates=15) for s in (8, 9)]
        return gen_suite(bases, n_sat=1, n_unsat=1, seed=3)

    def test_records_and_jsonl_append(self, tmp_path):
        out = str(tmp_path / "runs.jsonl")
        cases = self.suite()
        records = run_suite(cases, [BenchConfig("baseline")], cutoff=60.0,
                            out_path=out)
        assert len(records) == len(cases)
        assert {r["status"] for r in records} == {"SAT", "UNSAT"}
        run_suite(cases, [BenchConfig("baseline")], cutoff=60.0, out_path=out)
        with open(out) as fh:
            lines = [json.loads(l) for l in fh]
        assert len(lines) == 2 * len(cases)  # append-only

    def test_multiple_configs_and_jobs(self):
        cases = self.suite()
        configs = [BenchConfig("baseline"),
                   BenchConfig("phase", kind="phase")]
        records = run_suite(cases, configs, cutoff=60.0, jobs=2)
        assert len(records) == len(cases) * 2
        for r in records:
            expected = next(c.expected for c in cases if c.id == r["case"])
            assert r["status"] == expected

    def test_timeout_recorded(self, monkeypatch):
        import cascad.bench as bench_mod

        def slow_case(case, config):
            time.sleep(30)

        monkeypatch.setattr(bench_mod, "run_case", slow_case)
        records = run_suite(self.suite()[:1], [BenchConfig("baseline")],
                            cutoff=0.2)
        assert records[0]["status"] == "TIMEOUT"
        assert records[0]["wall_seconds"] == 0.2

    def test_worker_exit_without_record_is_error(self, monkeypatch):
        import os
        import cascad.bench as bench_mod

        def dying_case(case, config):
            os._exit(3)

        monkeypatch.setattr(bench_mod, "run_case", dying_case)
        records = run_suite(self.suite()[:1], [BenchConfig("baseline")],
                            cutoff=5.0)
        assert records[0]["status"] == "ERROR"
        assert records[0]["wall_seconds"] == 5.0
        assert records[0]["stats"] == {}

    def test_crash_recorded_as_error(self):
        bad = BenchCase("sat-bad", None, "unknown", {})
        records = run_suite([bad], [BenchConfig("baseline")], cutoff=5.0)
        assert records[0]["status"] == "ERROR"
        assert records[0]["wall_seconds"] == 5.0

    def test_correctness_alarm(self):
        cases = self.suite()
        sat_case = next(c for c in cases if c.expected == "SAT")
        lying = BenchCase(sat_case.id, sat_case.miter, "UNSAT",
                          sat_case.provenance)
        with pytest.raises(CorrectnessAlarm):
            run_suite([lying], [BenchConfig("baseline")], cutoff=60.0)

    def test_alarm_reaps_every_worker(self, monkeypatch):
        import cascad.bench as bench_mod
        cases = self.suite()
        sat_case = next(c for c in cases if c.expected == "SAT")
        slow = next(c for c in cases if c.expected == "UNSAT")
        lying = BenchCase(sat_case.id, sat_case.miter, "UNSAT",
                          sat_case.provenance)
        real_run_case, real_process = bench_mod.run_case, bench_mod.mp.Process
        procs = []

        def slow_or_real(case, config):
            if case.id == slow.id:
                time.sleep(30)
            return real_run_case(case, config)

        def recording_process(*args, **kwargs):
            procs.append(real_process(*args, **kwargs))
            return procs[-1]

        monkeypatch.setattr(bench_mod, "run_case", slow_or_real)
        monkeypatch.setattr(bench_mod.mp, "Process", recording_process)
        with pytest.raises(CorrectnessAlarm):
            run_suite([slow, lying], [BenchConfig("baseline")], cutoff=60.0,
                      jobs=2)
        assert len(procs) == 2
        assert all(p.exitcode is not None for p in procs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"jobs": 0}, "jobs"), ({"cutoff": 0.0}, "cutoff"),
        ({"cutoff": -1.0}, "cutoff"), ({"cutoff": float("inf")}, "cutoff"),
        ({"cutoff": float("nan")}, "cutoff")])
    def test_impossible_jobs_or_cutoff_rejected(self, tmp_path, kwargs,
                                                message):
        out = tmp_path / "runs.jsonl"
        with pytest.raises(ValueError, match=message):
            run_suite(self.suite(), [BenchConfig("baseline")],
                      **{"cutoff": 60.0, **kwargs}, out_path=str(out))
        assert not out.exists()


class TestPar2:
    def rec(self, case, status, wall, config="baseline"):
        return {"case": case, "config": config, "status": status,
                "wall_seconds": wall}

    def test_solved_scores_wall_time(self):
        score = par2([self.rec("a", "SAT", 1.5)], cutoff=10.0)
        assert score.per_case == {"a": 1.5} and score.average == 1.5

    def test_timeout_scores_double(self):
        score = par2([self.rec("a", "TIMEOUT", 10.0)], cutoff=10.0)
        assert score.per_case == {"a": 20.0}

    def test_error_scores_double(self):
        assert par2([self.rec("a", "ERROR", 10.0)], 10.0).per_case == {"a": 20.0}

    def test_solved_over_cutoff_scores_double(self):
        assert par2([self.rec("a", "UNSAT", 10.5)], 10.0).per_case == {"a": 20.0}

    def test_average(self):
        score = par2([self.rec("a", "SAT", 2.0),
                      self.rec("b", "TIMEOUT", 8.0)], cutoff=8.0)
        assert score.average == (2.0 + 16.0) / 2

    def test_repeated_case_rejected(self):
        records = [self.rec("a", "SAT", 1.0), self.rec("a", "TIMEOUT", 10.0),
                   self.rec("b", "SAT", 2.0)]
        with pytest.raises(ValueError, match="two records of case 'a' under "
                                             "config 'baseline'"):
            par2(records, cutoff=10.0)

    def test_by_config(self):
        records = [self.rec("a", "SAT", 1.0, "x"),
                   self.rec("a", "TIMEOUT", 4.0, "y")]
        scores = par2_by_config(records, cutoff=4.0)
        assert scores["x"].average == 1.0 and scores["y"].average == 8.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["SAT", "UNSAT", "TIMEOUT", "ERROR"]),
                              st.floats(0.0, 20.0)), min_size=1, max_size=10),
           st.floats(0.5, 10.0))
    def test_bounds_property(self, rows, cutoff):
        records = [self.rec(f"c{i}", s, w) for i, (s, w) in enumerate(rows)]
        score = par2(records, cutoff)
        for case, value in score.per_case.items():
            assert 0.0 <= value <= 2.0 * cutoff
        lo, hi = min(score.per_case.values()), max(score.per_case.values())
        # summing then dividing can round a hair past the extremes
        assert lo <= score.average <= hi or \
            score.average == pytest.approx(lo) or \
            score.average == pytest.approx(hi)


class TestReport:
    def records(self):
        return [
            {"case": "a", "config": "baseline", "status": "SAT",
             "wall_seconds": 1.0, "solving_seconds": 1.0, "inference_seconds": 0.0},
            {"case": "b", "config": "baseline", "status": "TIMEOUT",
             "wall_seconds": 5.0, "solving_seconds": 5.0, "inference_seconds": 0.0},
            {"case": "a", "config": "phase", "status": "SAT",
             "wall_seconds": 0.5, "solving_seconds": 0.4, "inference_seconds": 0.1},
            {"case": "b", "config": "phase", "status": "UNSAT",
             "wall_seconds": 2.0, "solving_seconds": 1.8, "inference_seconds": 0.2},
        ]

    def test_csv_round_trip(self):
        csv_text, _ = report(self.records(), cutoff=5.0)
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert len(rows) == 4
        assert rows[0]["case"] == "a" and float(rows[0]["wall_seconds"]) == 1.0

    def test_summary_par2(self):
        _, summary = report(self.records(), cutoff=5.0)
        assert summary["par2"]["baseline"]["average"] == (1.0 + 10.0) / 2
        assert summary["par2"]["phase"]["average"] == (0.5 + 2.0) / 2

    def test_cactus_monotone(self):
        _, summary = report(self.records(), cutoff=5.0)
        for label, points in summary["cactus"].items():
            times = [p["time"] for p in points]
            assert times == sorted(times)
        assert len(summary["cactus"]["phase"]) == 2
        assert len(summary["cactus"]["baseline"]) == 1

    def test_scatter_pairs_baseline(self):
        _, summary = report(self.records(), cutoff=5.0)
        scatter = summary["scatter_vs_baseline"]["phase"]
        # only case "a" was solved by the baseline
        assert scatter == [{"case": "a", "ours": 0.5, "baseline": 1.0}]

    def test_inference_totals(self):
        _, summary = report(self.records(), cutoff=5.0)
        assert summary["inference_seconds_total"]["phase"] == pytest.approx(0.3)
        assert summary["inference_seconds_total"]["baseline"] == 0.0
