import csv
import gc
import json
import warnings

import pytest

from cascad.bench import MODES, BenchConfig, gen_suite, run_case
from cascad.circuit import Circuit, build_miter, emit_aiger
from cascad.cli import main
from cascad.cnf import emit_dimacs, CnfFormula
from cascad.drat import check_proof, parse_drat
from cascad.sim import read_traces

from conftest import random_circuit


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


class TestSim:
    def test_probabilities_and_trace_file(self, toy_aag, tmp_path, capsys):
        trace_path = str(tmp_path / "t.ctrc")
        rc, out = run_cli(capsys, "sim", toy_aag, "--patterns", "20000",
                          "--workload", "uniform:0.5", "--out", trace_path)
        info = json.loads(out)
        assert info["num_patterns"] == 20000
        assert abs(info["probabilities"]["2"] - 0.25) < 0.02
        assert read_traces(trace_path).num_patterns == 20000

    def test_per_pi_workload(self, toy_aag, capsys):
        rc, out = run_cli(capsys, "sim", toy_aag, "--patterns", "20000",
                          "--workload", "0.7,0.9")
        info = json.loads(out)
        assert abs(info["probabilities"]["2"] - 0.63) < 0.02


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
        proof = parse_drat(open(drat_path).read())
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
                                             ("--conflicts", "-5")])
    def test_zero_budget_fails(self, tmp_path, capsys, flag, value):
        path = self.write_cnf(tmp_path, [[1, 2], [-1, 2], [-2]], 2)
        with pytest.raises(ValueError, match="positive"):
            run_cli(capsys, "solve", path, flag, value)
        assert capsys.readouterr().out == ""


EXIT_CODES = {"s SAT": 10, "s UNSAT": 20}


class TestCsat:
    def circuit_file(self, tmp_path, seed=1):
        c = random_circuit(seed, num_pis=5, num_gates=30)
        path = tmp_path / f"c{seed}.aag"
        path.write_bytes(emit_aiger(c))
        return str(path)

    def test_phase_mode(self, tmp_path, capsys):
        rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                          "--mode", "phase", "--tau", "0.005")
        assert rc == EXIT_CODES[out.splitlines()[0]]

    def test_phase_mode_with_refresh(self, tmp_path, capsys):
        rc, out = run_cli(capsys, "csat", self.circuit_file(tmp_path),
                          "--mode", "phase", "--refresh", "2:4")
        assert rc == EXIT_CODES[out.splitlines()[0]]

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
        ("--tau", "0.7", "tau 0.7 outside"),
        ("--tau", "0", "tau 0.0 outside"),
        ("--threshold", "2", "threshold 2.0 outside"),
        ("--budget", "0", "budget must be >= 1"),
        ("--probe", "0", "probe budget must be positive"),
        ("--refresh", "a:b", "expected K:C"),
        ("--refresh", "1:2:3", "expected K:C"),
        ("--refresh", "3", "expected K:C"),
        ("--refresh", "2:0", "C must be >= 1"),
        ("--refresh", "-1:8", "K must be >= 0"),
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

    @pytest.mark.parametrize("mode", MODES)
    def test_exit_codes_sat_and_unsat(self, tmp_path, capsys, mode):
        c = random_circuit(2, num_pis=5, num_gates=30)
        for circuit, answer in ((build_miter(c, c), "s UNSAT"), (c, "s SAT")):
            path = tmp_path / "c.aag"
            path.write_bytes(emit_aiger(circuit))
            rc, out = run_cli(capsys, "csat", str(path), "--mode", mode)
            assert out.splitlines()[0] == answer and rc == EXIT_CODES[answer]


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
        summary = json.load(open(files["json"]))
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
        records = [json.loads(l) for l in open(records_path)]
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
