import csv
import hashlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from cascad.bench import (MODES, BenchCase, BenchConfig, CorrectnessAlarm,
                          SuiteError, TRANSFORMS, commute_fanins, double_negate,
                          gen_suite, load_suite, par2, par2_by_config,
                          reassociate, report, run_case, run_suite, save_suite,
                          solve_miter)
from cascad.circuit import Circuit, GateKind, build_miter, mutate_circuit
from cascad.estimator import Estimator
from cascad.heuristics import ClauseFilterPolicy
from cascad.sim import exact_truth_table

from conftest import random_circuit
from test_perfbench import perfbench_modules  # noqa: F401 (fixture)


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

    def test_double_negate_adds_not_pair(self, toy_and):
        c, a, b, g = toy_and
        twin = double_negate(c, seed=0)
        nots = [x for x in twin.gates if x.kind is GateKind.NOT]
        assert len(nots) == 2

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

    def test_large_circuit_marked_unknown(self):
        big = random_circuit(3, num_pis=17, num_gates=40)
        cases = gen_suite([big], n_sat=0, n_unsat=1, seed=0)
        assert cases[0].expected == "unknown"

    def test_unmutable_base_raises(self):
        c = Circuit()
        c.set_outputs([c.add_pi()])
        with pytest.raises(SuiteError, match="mutation"):
            gen_suite([c], n_sat=1, n_unsat=0, seed=0)


class TestCopyPin:
    # SHA-256 over the gate lists the copying transforms produced before
    # their four copy loops became circuit.rebuild; any change to gate order,
    # NOT sharing or PI numbering shows here
    DIGEST = "c89b77270b232128b03b10de5ff566174f7010be5114f60c9eb811f128025bdc"

    def test_copies_unchanged(self):
        h = hashlib.sha256()
        for seed in range(40):
            c = random_circuit(seed, num_pis=5, num_gates=30)
            c.set_outputs(c.primary_outputs + [len(c) - 4])
            twins = [double_negate(c, seed), reassociate(c, seed),
                     mutate_circuit(c, seed)]
            cases = gen_suite([c], n_sat=2, n_unsat=2, seed=seed)
            for out in twins + [build_miter(c, t) for t in twins] + \
                    [case.miter for case in cases]:
                h.update(out.to_json().encode())
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
        manifest = json.load(open(tmp_path / "manifest.json"))
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
        def boom(self, po, extra_conditions=()):
            raise RuntimeError("boom")

        monkeypatch.setattr(Estimator, "phase_table", boom)
        for case in self.small_cases():
            outcome, fields = solve_miter(case.miter, mode)
            assert outcome.status.value == case.expected
            assert fields["phase_fallbacks"] == 1

    def test_refresh_zero_never_refreshes(self, monkeypatch):
        case = self.small_cases()[0]
        static, _ = solve_miter(case.miter, "phase")
        calls = []
        phase_table = Estimator.phase_table

        def counted(self, po, extra_conditions=()):
            calls.append(tuple(extra_conditions))
            return phase_table(self, po, extra_conditions)

        monkeypatch.setattr(Estimator, "phase_table", counted)
        outcome, _ = solve_miter(case.miter, "phase", refresh=(0, 8))
        assert calls == [()]  # the build, and no refresh
        keys = ("conflicts", "decisions", "propagations", "restarts")
        assert [getattr(outcome.stats, k) for k in keys] == \
            [getattr(static.stats, k) for k in keys]

    def test_traced_refresh_counts_phases(self, perfbench_modules):
        """With a refresh the hook still goes through ``make_phase_hook``,
        so the tracer counts its forced and abstained phases."""
        run, tracing = perfbench_modules
        bases = [random_circuit(s, num_pis=8, num_gates=120) for s in (3, 4)]
        case = next(c for c in gen_suite(bases, 1, 1, seed=5)
                    if c.expected == "SAT")
        tracer = tracing.Tracer()
        try:
            run.install_tracing(tracer)
            outcome, _ = solve_miter(case.miter, "phase", refresh=(1, 8))
        finally:
            tracer.remove()
        assert outcome.status.value == "SAT"
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
        lines = [json.loads(l) for l in open(out)]
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
