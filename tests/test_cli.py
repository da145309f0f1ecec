import csv
import gc
import json
import pathlib
import shlex
import warnings

import pytest

from cascad import cli
from cascad.bench import MODES, BenchConfig, gen_suite, run_case
from cascad.circuit import Circuit, build_miter, emit_aiger, parse_aiger
from cascad.cli import main
from cascad.cnf import CnfFormula
from cascad.drat import check_proof, parse_drat

from conftest import all_input_rows, emit_dimacs, eval_circuit, random_circuit


@pytest.fixture
def toy_aag(tmp_path):
    c = Circuit()
    a, b = c.add_pi(), c.add_pi()
    c.set_outputs([c.add_and(a, b)])
    path = tmp_path / "toy.aag"
    path.write_bytes(emit_aiger(c))
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


class TestParse:
    def test_default(self, toy_aag, capsys):
        rc, out = run_cli(capsys, "parse", toy_aag)
        assert rc == 0 and json.loads(out)["gates"] == 3

    def test_stats(self, toy_aag, capsys):
        rc, out = run_cli(capsys, "parse", toy_aag, "--stats")
        stats = json.loads(out)
        assert stats["pis"] == 2 and stats["pos"] == 1
        assert stats["depth"] == 1


class TestMalformedInput:
    """A malformed AIGER or DIMACS file is one line on stderr and exit 2."""

    @pytest.mark.parametrize("argv", [["parse"], ["parse", "--stats"],
                                      ["sim"],
                                      *(["csat", "--mode", m] for m in MODES)])
    def test_bad_aiger(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.aag"
        path.write_text("aag 1 1 0 1 0\n2\n4\n")
        rc = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"cascad {argv[0]}: {path}: literal 4 exceeds maxvar 1"]

    def test_bad_base_in_bench_gen(self, tmp_path, capsys):
        path = tmp_path / "bad.aag"
        path.write_text("aag 1 1 0 1 0\n2\n4\n")
        suite = tmp_path / "suite"
        rc = main(["bench", "gen", str(path), "--suite", str(suite)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not suite.exists()
        assert captured.err.splitlines() == [
            f"cascad bench: {path}: literal 4 exceeds maxvar 1"]

    def test_bad_dimacs(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\n5 0\n")
        rc = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"cascad solve: {path}: line 2: literal 5 exceeds declared 1 "
            "variables"]


    @pytest.mark.parametrize("argv", [
        ["parse", "{missing}"], ["parse", "{dir}"],
        ["sim", "{missing}"], ["sim", "{dir}"],
        ["solve", "{missing}"], ["solve", "{dir}"],
        ["solve", "{cnf}", "--drat", "{missing}/proof.drat"],
        ["csat", "{missing}", "--mode", "phase"],
        ["csat", "{dir}", "--mode", "baseline"],
        ["bench", "gen", "{missing}", "--suite", "{dir}/suite"],
        ["bench", "gen", "{dir}", "--suite", "{dir}/suite"],
        ["bench", "run", "--suite", "{missing}", "--out", "{dir}/runs.jsonl"],
        ["bench", "score", "--records", "{missing}"],
        ["bench", "score", "--records", "{dir}"],
        ["bench", "report", "--records", "{missing}", "--out", "{dir}/r"],
    ], ids=" ".join)
    def test_unopenable_path(self, tmp_path, capsys, argv):
        """A path that cannot be opened is one line naming it, exit 2."""
        cnf = tmp_path / "ok.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        paths = {"missing": str(tmp_path / "nonexistent.aag"),
                 "dir": str(tmp_path), "cnf": str(cnf)}
        culprit = paths["missing" if "{missing}" in " ".join(argv) else "dir"]
        rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"cascad {argv[0]}: [Errno ")
        assert f"'{culprit}" in line

    @pytest.mark.parametrize("command", ["score", "report"])
    def test_records_line_not_json(self, tmp_path, capsys, command):
        records = tmp_path / "runs.jsonl"
        good = {"case": "a", "config": "baseline", "status": "SAT",
                "wall_seconds": 1.0}
        records.write_text(json.dumps(good) + "\n\nnot json\n")
        out = ["--out", str(tmp_path / "report")] if command == "report" else []
        rc = main(["bench", command, "--records", str(records), *out])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"cascad bench: {records}: line 3: Expecting value: line 1 "
            "column 1 (char 0)"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("line", [
        "[1]", "3", json.dumps({"case": "a", "config": "baseline",
                                "status": "SAT"}),
        json.dumps({"config": "baseline", "status": "SAT",
                    "wall_seconds": 1.0}),
        json.dumps({"case": "a", "config": ["x"], "status": "SAT",
                    "wall_seconds": 1.0}),
        json.dumps({"case": "a", "config": "baseline", "status": "SAT",
                    "wall_seconds": "1"}),
        *(json.dumps({"case": "b", "config": "baseline", "status": "SAT",
                      "wall_seconds": 1.0, **bad})
          for bad in ({"wall_seconds": -5}, {"wall_seconds": True},
                      {"wall_seconds": float("nan")},
                      {"wall_seconds": float("inf")},
                      {"solving_seconds": -1.0},
                      {"inference_seconds": "x"},
                      {"inference_seconds": float("-inf")}))],
        ids=["list", "number", "no-wall-seconds", "no-case", "list-config",
             "string-wall-seconds", "negative-wall-seconds",
             "bool-wall-seconds", "nan-wall-seconds", "infinite-wall-seconds",
             "negative-solving-seconds", "string-inference-seconds",
             "infinite-inference-seconds"])
    @pytest.mark.parametrize("command", ["score", "report"])
    def test_records_line_not_a_record(self, tmp_path, capsys, command, line):
        records = tmp_path / "runs.jsonl"
        good = {"case": "a", "config": "baseline", "status": "SAT",
                "wall_seconds": 1.0}
        records.write_text(json.dumps(good) + "\n" + line + "\n")
        out = ["--out", str(tmp_path / "report")] if command == "report" else []
        rc = main(["bench", command, "--records", str(records), *out])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"cascad bench: {records}: line 2: not a record with case, "
            "config, status and wall_seconds, each seconds field finite and "
            ">= 0"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["score", "report"])
    def test_records_repeat_a_case(self, tmp_path, capsys, command):
        """Two records of one (case, config) are one line naming the case
        and config, not a score in which the last record wins."""
        records = tmp_path / "runs.jsonl"
        lines = [{"case": "a", "config": "baseline", "status": status,
                  "wall_seconds": wall}
                 for status, wall in (("SAT", 1.0), ("TIMEOUT", 10.0))]
        records.write_text("".join(json.dumps(r) + "\n" for r in lines))
        out = ["--out", str(tmp_path / "report")] if command == "report" else []
        rc = main(["bench", command, "--records", str(records),
                   "--cutoff", "10", *out])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"cascad bench: {records}: two records of case 'a' under "
            "config 'baseline'"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["score", "report"])
    def test_records_not_utf8(self, tmp_path, capsys, command):
        records = tmp_path / "runs.jsonl"
        records.write_bytes(b"\xff\n")
        out = ["--out", str(tmp_path / "report")] if command == "report" else []
        rc = main(["bench", command, "--records", str(records), *out])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"cascad bench: {records}: 'utf-8' codec")

    @pytest.mark.parametrize("manifest, culprit, message", [
        ("word", "manifest.json", "Expecting value: line 1 column 1 (char 0)"),
        ('{"id": "x"}', "manifest.json", "not a list of cases"),
        ('[{"id": "x"}]', "manifest.json", "case 0 needs a string id and "
         "aiger and expected SAT, UNSAT or unknown"),
        ('[{"id": "x", "aiger": "x.aag", "expected": "SAT"}, 5]',
         "manifest.json", "case 1 needs a string id and aiger and expected "
         "SAT, UNSAT or unknown"),
        ('[{"id": "x", "aiger": "x.aag", "expected": "sat"}]',
         "manifest.json", "case 0 needs a string id and aiger and expected "
         "SAT, UNSAT or unknown"),
        ('[{"id": "x", "aiger": "bad.aag", "expected": "SAT"}]', "bad.aag",
         "literal 4 exceeds maxvar 1"),
        ('[{"id": "x", "aiger": "x.aag", "expected": "SAT"}, '
         '{"id": "x", "aiger": "x.aag", "expected": "UNSAT"}]',
         "manifest.json", "case id 'x' repeated"),
    ], ids=["not-json", "not-a-list", "no-aiger", "case-not-object",
            "lowercase-expected", "bad-aiger", "repeated-id"])
    def test_malformed_suite(self, tmp_path, capsys, manifest, culprit,
                             message):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "manifest.json").write_text(manifest)
        (suite / "x.aag").write_text("aag 1 1 0 1 0\n2\n2\n")
        (suite / "bad.aag").write_text("aag 1 1 0 1 0\n2\n4\n")
        runs = tmp_path / "runs.jsonl"
        rc = main(["bench", "run", "--suite", str(suite), "--out", str(runs)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not runs.exists()
        assert captured.err.splitlines() == [
            f"cascad bench: {suite / culprit}: {message}"]

    def test_run_case_without_outputs(self, tmp_path, capsys):
        """A case file with no output fails the suite's load, so no run
        starts and no ERROR record is written."""
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "manifest.json").write_text(
            '[{"id": "x", "aiger": "x.aag", "expected": "unknown"}]')
        (suite / "x.aag").write_text("aag 1 1 0 0 0\n2\n")
        runs = tmp_path / "runs.jsonl"
        rc = main(["bench", "run", "--suite", str(suite), "--out", str(runs)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not runs.exists()
        assert captured.err.splitlines() == [
            f"cascad bench: {suite / 'x.aag'} has no outputs to assert"]

    def test_gen_base_without_outputs(self, tmp_path, capsys):
        base = tmp_path / "no-po.aag"
        base.write_text("aag 2 2 0 0 0\n2\n4\n")
        suite = tmp_path / "suite"
        rc = main(["bench", "gen", str(base), "--suite", str(suite)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not suite.exists()
        assert captured.err.splitlines() == [
            f"cascad bench: {base} has no outputs to compare"]

    def test_gen_without_effective_mutation(self, tmp_path, capsys):
        # a base whose output is its input: no mutation changes its function
        base = tmp_path / "pi.aag"
        base.write_text("aag 1 1 0 1 0\n2\n2\n")
        suite = tmp_path / "suite"
        rc = main(["bench", "gen", str(base), "--suite", str(suite),
                   "--n-sat", "1", "--n-unsat", "0"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not suite.exists()
        assert captured.err.splitlines() == [
            "cascad bench: no effective mutation found for SAT case 0"]


class TestSim:
    def test_probabilities(self, toy_aag, capsys):
        rc, out = run_cli(capsys, "sim", toy_aag, "--patterns", "20000",
                          "--workload", "uniform:0.5")
        info = json.loads(out)
        assert info["num_patterns"] == 20000
        assert abs(info["probabilities"]["2"] - 0.25) < 0.02

    def test_per_pi_workload(self, toy_aag, capsys):
        rc, out = run_cli(capsys, "sim", toy_aag, "--patterns", "20000",
                          "--workload", "0.7,0.9")
        info = json.loads(out)
        assert abs(info["probabilities"]["2"] - 0.63) < 0.02

    @pytest.mark.parametrize("flag, value, message", [
        ("--workload", "0.7,0.9", "workload gives 2 rates for 3 PIs"),
        ("--workload", "0.5,0.5,0.5,0.5", "workload gives 4 rates for 3 PIs"),
        ("--workload", "uniform:abc", "expected 'uniform:RHO'"),
        ("--workload", "0.5,x,0.5", "expected 'uniform:RHO'"),
        ("--workload", "uniform:1.5", "workload 1.5 outside [0, 1]"),
        ("--patterns", "0", "num_patterns must be >= 1"),
    ])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flag, value,
                                     message):
        c = Circuit()
        pis = [c.add_pi() for _ in range(3)]
        c.set_outputs([c.add_and(c.add_and(pis[0], pis[1]), pis[2])])
        path = tmp_path / "three.aag"
        path.write_bytes(emit_aiger(c))
        with pytest.raises(SystemExit) as exc:
            main(["sim", str(path), f"{flag}={value}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("cascad sim: error:") and message in last
        assert "Traceback" not in captured.err


class TestSolve:
    def write_cnf(self, tmp_path, clauses, num_vars):
        path = tmp_path / "f.cnf"
        path.write_bytes(emit_dimacs(CnfFormula(num_vars, clauses)))
        return str(path)

    def test_sat_exit_code_and_model(self, tmp_path, capsys):
        path = self.write_cnf(tmp_path, [[1], [-2]], 2)
        rc, out = run_cli(capsys, "solve", path)
        assert rc == 10
        lines = out.splitlines()
        assert lines[0] == "s SAT"
        assert lines[1] == "v 1 -2 0"

    def test_unsat_with_proof(self, tmp_path, capsys):
        path = self.write_cnf(tmp_path, [[1, 2], [1, -2], [-1, 2], [-1, -2]], 2)
        drat_path = str(tmp_path / "p.drat")
        rc, out = run_cli(capsys, "solve", path, "--drat", drat_path)
        assert rc == 20 and out.splitlines()[0] == "s UNSAT"
        with open(drat_path) as fh:
            proof = parse_drat(fh.read())
        ok, why = check_proof([[1, 2], [1, -2], [-1, 2], [-1, -2]], proof)
        assert ok, why

    def test_unknown_exit_code(self, tmp_path, capsys):
        import random
        from conftest import random_3cnf
        rng = random.Random(3)
        clauses = random_3cnf(rng, 60, ratio=4.3)
        path = self.write_cnf(tmp_path, clauses, 60)
        rc, out = run_cli(capsys, "solve", path, "--conflicts", "1")
        # tiny budget: either solved immediately or UNKNOWN with exit 0
        assert rc in (0, 10, 20)
        if rc == 0:
            assert out.splitlines()[0] == "s UNKNOWN"

    @pytest.mark.parametrize("flag, value", [("--conflicts", "0"),
                                             ("--time", "0"),
                                             ("--time", "inf"),
                                             ("--conflicts", "-5")])
    def test_zero_budget_fails(self, tmp_path, capsys, flag, value):
        path = self.write_cnf(tmp_path, [[1, 2], [-1, 2], [-2]], 2)
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "solve", path, flag, value)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err


EXIT_CODES = {"s SAT": 10, "s UNSAT": 20}


class TestCsat:
    def circuit_file(self, tmp_path, seed=1):
        c = random_circuit(seed, num_pis=5, num_gates=30)
        path = tmp_path / f"c{seed}.aag"
        path.write_bytes(emit_aiger(c))
        return str(path)

    def test_phase_mode(self, tmp_path, capsys):
        rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                          "--mode", "phase")
        assert rc == EXIT_CODES[out.splitlines()[0]]

    def test_tau_is_no_flag(self, tmp_path, capsys):
        """The phase rule's threshold is no option: with a witness no
        search runs, and without one every table entry abstains."""
        with pytest.raises(SystemExit) as exc:
            main(["csat", self.circuit_file(tmp_path), "--mode", "phase",
                  "--tau", "0.005"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tau" in captured.err

    def test_clause_filter_mode(self, tmp_path, capsys):
        rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                          "--mode", "clause-filter", "--budget", "10",
                          "--threshold", "0.9")
        lines = out.splitlines()
        assert rc == EXIT_CODES[lines[0]]
        rep = json.loads(lines[-1])
        assert rep["total"] == rep["kept"] + rep["dropped"]
        assert set(rep["lbd_buckets"]) == {"1", "2", "3+"}
        assert rep["estimator_failures"] == 0

    def test_adaptive_mode(self, tmp_path, capsys):
        rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                          "--mode", "adaptive", "--probe", "5.0")
        lines = out.splitlines()
        assert rc == EXIT_CODES[lines[0]]
        assert json.loads(lines[-1])["stage"] in (1, 2)

    def test_baseline_mode_prints_no_extra_line(self, tmp_path, capsys):
        rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                          "--mode", "baseline")
        lines = out.splitlines()
        assert rc == EXIT_CODES[lines[0]]
        assert set(json.loads(lines[-1])) >= {"conflicts", "decisions"}

    def test_phase_fallbacks_printed(self, tmp_path, capsys):
        for mode in ("phase", "adaptive"):
            rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                              "--mode", mode)
            assert json.loads(out.splitlines()[-1])["phase_fallbacks"] == 0

    @pytest.mark.parametrize("flag, value, message", [
        ("--threshold", "2", "threshold 2.0 outside"),
        ("--budget", "0", "budget must be >= 1"),
        ("--probe", "0", "probe budget must be positive"),
        ("--probe", "nan", "probe budget must be positive"),
        ("--probe", "inf", "probe budget must be positive and finite"),
    ])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flag, value,
                                     message):
        path = self.circuit_file(tmp_path)
        for mode in MODES:
            with pytest.raises(SystemExit) as exc:
                main(["csat", path, "--mode", mode, f"{flag}={value}"])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            last = captured.err.splitlines()[-1]
            assert last.startswith("cascad csat: error:") and message in last
            assert "Traceback" not in captured.err

    def test_refresh_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["csat", self.circuit_file(tmp_path), "--mode", "phase",
                  "--refresh", "4:8"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "cascad: error: unrecognized arguments: --refresh 4:8"

    @pytest.mark.parametrize("mode", MODES)
    def test_same_search_as_bench_run_case(self, tmp_path, capsys, mode):
        bases = [random_circuit(s, num_pis=8, num_gates=120) for s in (3, 4)]
        case = next(c for c in gen_suite(bases, 1, 1, seed=5)
                    if c.expected == "SAT")
        path = tmp_path / "m.aag"
        path.write_bytes(emit_aiger(case.miter))
        rc, out = run_cli(capsys, "csat", str(path), "--mode", mode)
        lines = out.splitlines()
        stats = json.loads(lines[2])
        record = run_case(case, BenchConfig(mode, kind=mode))
        keys = ("conflicts", "decisions", "propagations")
        assert lines[0] == "s " + record["status"] == "s SAT"
        assert [stats[k] for k in keys] == [record["stats"][k] for k in keys]

    def test_v_line_starts_with_an_input_row(self, tmp_path, capsys):
        """The first len(PIs) literals of the ``v`` line drive the file's
        AIG, not only the hashed miter ``csat`` solves, to output 1."""
        bases = [random_circuit(s, num_pis=8, num_gates=120) for s in (3, 4)]
        for case in gen_suite(bases, 2, 0, seed=5):
            path = tmp_path / "m.aag"
            path.write_bytes(emit_aiger(case.miter))
            rc, out = run_cli(capsys, "csat", str(path), "--mode", "baseline")
            assert rc == 10
            lits = [int(x) for x in out.splitlines()[1].split()[1:-1]]
            circuit = parse_aiger(path.read_bytes())
            pis = circuit.primary_inputs
            assert [abs(l) for l in lits[:len(pis)]] == \
                list(range(1, len(pis) + 1))
            row = {pi: lit > 0 for pi, lit in zip(pis, lits)}
            assert eval_circuit(circuit, row)[circuit.primary_outputs[0]]

    @pytest.mark.parametrize("mode", MODES)
    def test_first_of_two_outputs_asserted(self, tmp_path, capsys, mode):
        """On a two-output AIG the model drives the file's output 0, whose
        cone ``csat`` solves; output 1 reads gates output 0 does not."""
        for seed in range(4):
            c = random_circuit(seed, num_pis=6, num_gates=60)
            c.set_outputs([len(c) // 2, len(c) - 1])
            path = tmp_path / "two.aag"
            path.write_bytes(emit_aiger(c))
            rc, out = run_cli(capsys, "csat", str(path), "--mode", mode)
            circuit = parse_aiger(path.read_bytes())
            pis, po = circuit.primary_inputs, circuit.primary_outputs[0]
            reachable = any(eval_circuit(circuit, row)[po]
                            for _, row in all_input_rows(circuit))
            assert out.splitlines()[0] == ("s SAT" if reachable else "s UNSAT")
            if reachable:
                lits = [int(x) for x in out.splitlines()[1].split()[1:-1]]
                row = {pi: lit > 0 for pi, lit in zip(pis, lits)}
                assert eval_circuit(circuit, row)[po]

    @pytest.mark.parametrize("mode", MODES)
    def test_exit_codes_sat_and_unsat(self, tmp_path, capsys, mode):
        c = random_circuit(2, num_pis=5, num_gates=30)
        for circuit, answer in ((build_miter(c, c), "s UNSAT"), (c, "s SAT")):
            path = tmp_path / "c.aag"
            path.write_bytes(emit_aiger(circuit))
            rc, out = run_cli(capsys, "csat", str(path), "--mode", mode)
            assert out.splitlines()[0] == answer and rc == EXIT_CODES[answer]


    def test_no_outputs_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "none.aag"
        path.write_text("aag 1 1 0 0 0\n2\n")
        for mode in MODES:
            rc = main(["csat", str(path), "--mode", mode])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert captured.err.splitlines() == [
                f"cascad csat: {path} has no outputs to assert"]


class TestBench:
    def base_files(self, tmp_path):
        paths = []
        for seed in (4, 5):
            c = random_circuit(seed, num_pis=4, num_gates=15)
            p = tmp_path / f"base{seed}.aag"
            p.write_bytes(emit_aiger(c))
            paths.append(str(p))
        return paths

    def test_full_pipeline(self, tmp_path, capsys):
        suite_dir = str(tmp_path / "suite")
        records_path = str(tmp_path / "runs.jsonl")
        report_prefix = str(tmp_path / "report")

        rc, out = run_cli(capsys, "bench", "gen", *self.base_files(tmp_path),
                          "--suite", suite_dir, "--n-sat", "1",
                          "--n-unsat", "1", "--seed", "3")
        assert json.loads(out)["cases"] == 2

        rc, out = run_cli(capsys, "bench", "run", "--suite", suite_dir,
                          "--configs", "phase", "--cutoff", "60",
                          "--out", records_path)
        assert json.loads(out)["records"] == 4  # 2 cases x 2 configs

        rc, out = run_cli(capsys, "bench", "score", "--records", records_path,
                          "--cutoff", "60")
        scores = json.loads(out)
        assert set(scores) == {"baseline", "phase"}

        rc, out = run_cli(capsys, "bench", "report", "--records", records_path,
                          "--cutoff", "60", "--out", report_prefix)
        files = json.loads(out)
        with open(files["json"]) as fh:
            summary = json.load(fh)
        assert "par2" in summary and "cactus" in summary
        with open(files["csv"], newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    @pytest.mark.parametrize("command", ["score", "report"])
    def test_records_file_closed(self, tmp_path, capsys, command):
        records = tmp_path / "runs.jsonl"
        records.write_text(json.dumps(
            {"case": "a", "config": "baseline", "status": "SAT",
             "wall_seconds": 1.0, "solving_seconds": 1.0,
             "inference_seconds": 0.0}) + "\n")
        out = ["--out", str(tmp_path / "report")] if command == "report" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc, _ = run_cli(capsys, "bench", command, "--records",
                            str(records), "--cutoff", "60", *out)
            gc.collect()
        assert rc == 0
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def suite_dir(self, tmp_path, capsys):
        suite_dir = str(tmp_path / "suite")
        run_cli(capsys, "bench", "gen", *self.base_files(tmp_path),
                "--suite", suite_dir, "--n-sat", "1", "--n-unsat", "1",
                "--seed", "3")
        return suite_dir

    def test_run_accepts_every_mode(self, tmp_path, capsys):
        records_path = str(tmp_path / "runs.jsonl")
        rc, out = run_cli(capsys, "bench", "run",
                          "--suite", self.suite_dir(tmp_path, capsys),
                          "--configs", "baseline,clause-filter,adaptive",
                          "--cutoff", "60", "--out", records_path)
        assert rc == 0 and json.loads(out)["records"] == 6
        with open(records_path) as fh:
            records = [json.loads(l) for l in fh]
        assert sorted({r["config"] for r in records}) == \
            ["adaptive", "baseline", "clause-filter"]
        assert all(r["status"] in ("SAT", "UNSAT") for r in records)
        assert all("stage" in r for r in records if r["config"] == "adaptive")

    @pytest.mark.parametrize("configs", ["phse", "phase,clause_filter"])
    def test_run_rejects_unknown_mode(self, tmp_path, capsys, configs):
        records_path = tmp_path / "runs.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "run", "--suite", self.suite_dir(tmp_path, capsys),
                  "--configs", configs, "--out", str(records_path)])
        assert exc.value.code == 2
        assert "unknown mode" in capsys.readouterr().err
        assert not records_path.exists()

    @pytest.mark.parametrize("counts", [("-1", "-2"), ("-1", "1"),
                                        ("1", "-1")])
    def test_gen_rejects_negative_counts(self, tmp_path, capsys, counts):
        suite = tmp_path / "suite"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "gen", *self.base_files(tmp_path),
                  "--suite", str(suite), "--n-sat", counts[0],
                  "--n-unsat", counts[1]])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("cascad bench gen: error: argument --n-")
        assert "must be >= 0, not -" in last
        assert not suite.exists()

    def test_gen_accepts_zero_counts(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        rc, out = run_cli(capsys, "bench", "gen", *self.base_files(tmp_path),
                          "--suite", str(suite), "--n-sat", "0",
                          "--n-unsat", "1")
        assert rc == 0 and json.loads(out)["cases"] == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--jobs", "0"), ("run", "--jobs", "-2"),
        ("run", "--cutoff", "0"), ("run", "--cutoff", "-1"),
        ("run", "--cutoff", "inf"), ("run", "--cutoff", "nan"),
        ("score", "--cutoff", "0"), ("score", "--cutoff", "inf"),
        ("report", "--cutoff", "-1")])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, command, flag,
                                     value):
        records = tmp_path / "runs.jsonl"
        if command == "run":
            argv = ["--suite", self.suite_dir(tmp_path, capsys),
                    "--out", str(records)]
        else:
            records.write_text(json.dumps(
                {"case": "a", "config": "baseline", "status": "SAT",
                 "wall_seconds": 1.0}) + "\n")
            argv = ["--records", str(records)]
            if command == "report":
                argv += ["--out", str(tmp_path / "report")]
        with pytest.raises(SystemExit) as exc:
            main(["bench", command, *argv, f"{flag}={value}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"cascad bench {command}: error:")
        assert "must be positive" in last
        assert (command == "run") != records.exists()
        assert not (tmp_path / "report.json").exists()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_parse(monkeypatch):
    """Every `cascad` line of README's Command line block is a command line
    that ``main`` accepts; the commands themselves are stubbed."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    ran = []
    for name in ("cmd_parse", "cmd_sim", "cmd_solve", "cmd_csat",
                 "cmd_bench"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args.cmd))
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cascad", line
        try:
            rc = main(argv[1:])
        except SystemExit as e:  # an argparse usage error
            rc = e.code
        assert rc == 0, line
    assert set(ran) == {"parse", "sim", "solve", "csat", "bench"}
