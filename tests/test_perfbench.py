"""The benchmark's tracer wraps cascad names from outside; every name it
wraps must exist where it looks, so that a rename fails here rather than in
a traced benchmark run."""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("run", "tracing", "calib")


@pytest.fixture
def perfbench_modules():
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.pop(name) for name in MODULES
                     if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracing
        yield run, tracing
    finally:
        sys.path[:] = saved_path
        for name in MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)


def test_install_tracing_finds_every_name(perfbench_modules):
    from cascad import bench, estimator, heuristics, solver
    run, tracing = perfbench_modules
    originals = [(bench, "run_case"), (bench, "make_phase_hook"),
                 (estimator, "simulate"), (estimator.Estimator, "phase_table"),
                 (estimator.Estimator, "clause_prob"),
                 (heuristics, "score_clauses"), (solver.Solver, "propagate")]
    before = [owner.__dict__[attr] for owner, attr in originals]
    tracer = tracing.Tracer()
    try:
        run.install_tracing(tracer)
        assert estimator.Estimator.__dict__["phase_table"] is not before[3]
    finally:
        tracer.remove()
    assert [owner.__dict__[attr] for owner, attr in originals] == before


def test_phase_run_case_calls_the_traced_names(perfbench_modules):
    """The product path must reach the names the tracer wraps in ``bench``:
    a run that bypasses them would time and count nothing."""
    from cascad import bench
    from conftest import random_circuit
    run, tracing = perfbench_modules
    bases = [random_circuit(s, num_pis=8, num_gates=120) for s in (3, 4)]
    # UNSAT, so no trace sets the output and the solver runs with the
    # hook; this twin is reassociated, which hashing does not undo, so the
    # search makes decisions
    case = next(c for c in bench.gen_suite(bases, 1, 1, seed=12)
                if c.expected == "UNSAT")
    tracer = tracing.Tracer()
    try:
        run.install_tracing(tracer)
        record = bench.run_case(case, bench.BenchConfig("phase", kind="phase"))
    finally:
        tracer.remove()
    assert record["status"] == "UNSAT"
    names = {span[0] for span in tracer.spans}
    assert {"bench.run_case", "cnf.encode", "heuristics.policy"} <= names
    assert tracer.counts["heuristics.phase_forced"] + \
        tracer.counts["heuristics.phase_abstain"] > 0
