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
