"""Every name a cascad module imports must be used in that module, and the
package's exports, config, policy, score and filter-report fields, the
parameters of ``solve_miter``, ``strash``, ``Solver`` and
``adaptive_solve``, the options of ``cascad csat``, the estimator's public
queries and backends, process-spawning imports and catch-all handlers are
pinned: a new option, export, report field, query, backend, child-process
path or catch-all is a visible edit here."""

import ast
import dataclasses
import inspect
import pathlib
import re
import types

import pytest

import cascad
from cascad.bench import Par2Score, solve_miter
from cascad.circuit import Circuit, strash
from cascad.cli import main
from cascad.estimator import Backend, Estimator, EstimatorConfig
from cascad.heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                               FilterReport, PhaseSelectionPolicy,
                               adaptive_solve)
from cascad.solver import Solver, SolverConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cascad"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(loads, os.sep)\n"
    assert unused_imports(source) == ["line 2: dumps"]


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def parameter_names(func) -> list[str]:
    return list(inspect.signature(func).parameters)


def test_config_fields_pinned(capsys):
    assert field_names(SolverConfig) == [
        "restart_unit", "keep_lbd", "phase_saving"]
    assert field_names(Par2Score) == ["per_case", "average"]
    assert field_names(EstimatorConfig) == ["backend", "num_patterns", "seed"]
    assert field_names(PhaseSelectionPolicy) == ["tau", "phase_table"]
    assert field_names(ClauseFilterPolicy) == [
        "conflict_budget", "threshold", "mode"]
    assert field_names(FilterReport) == [
        "fired_at_conflicts", "fired_mid_solve", "total", "kept", "dropped",
        "estimator_failures", "score_histogram", "lbd_buckets", "scores",
        "outcome"]
    assert field_names(AdaptiveUnsatPolicy) == ["probe_budget_seconds"]
    assert parameter_names(solve_miter) == [
        "miter", "mode", "clause_filter", "adaptive"]
    assert parameter_names(strash) == ["circuit"]
    assert parameter_names(Solver.__init__) == [
        "self", "cnf", "config", "phase_hook", "drat_sink"]
    assert parameter_names(adaptive_solve) == ["probe", "cnf", "policy"]
    with pytest.raises(SystemExit):
        main(["csat", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"--[\w-]+", usage) == [
        "--mode", "--threshold", "--budget", "--score-mode", "--probe"]


def test_estimator_queries_pinned():
    """The estimator's public attributes: its trace set, the product's
    three queries (witness, phase table, clause probability) and the node
    probability that independent clause scoring multiplies."""
    assert sorted(name for name in vars(Estimator)
                  if not name.startswith("_")) == [
        "clause_prob", "node_prob", "phase_table", "traces", "witness"]


def test_removed_aliases_stay_removed():
    """``rebuild`` is the one gate-graph copy, ``levelize`` the one level
    function, ``export_learnts`` and ``keep_learnts`` backtrack to the root
    themselves, ``cnf.check_model`` is the one model check, and the phase
    policy reads its table alone, never a solver."""
    assert [name for name in ("copy", "levels", "depth")
            if hasattr(Circuit, name)] == []
    assert [name for name in ("pause_at_level0", "decisions", "_verify_model")
            if hasattr(Solver, name)] == []
    assert not hasattr(PhaseSelectionPolicy, "follow")


def catch_all_handlers(source: str) -> list[str]:
    """The function around each ``except Exception`` (or bare ``except``)
    in ``source``, in order."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and (
                    child.type is None or (isinstance(child.type, ast.Name)
                                           and child.type.id == "Exception")):
                found.append(function)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_detects_catch_all_handler():
    source = ("def f():\n    try: pass\n    except Exception: pass\n"
              "def g():\n    try: pass\n    except ValueError: pass\n"
              "    def h():\n        try: pass\n        except: pass\n")
    assert catch_all_handlers(source) == ["f", "h"]


def test_catch_all_handlers_pinned():
    """A failure the estimator cannot answer is caught once, where the
    product asks: the witness and phase table in ``solve_miter``, clause
    scores in ``score_clauses``; a worker crash is caught in ``_worker``.
    A new catch-all is a visible edit here."""
    assert [(p.stem, function) for p in MODULES
            for function in catch_all_handlers(p.read_text())] == [
        ("bench", "solve_miter"), ("bench", "_worker"),
        ("heuristics", "score_clauses")]


def test_backends_pinned():
    assert [b.name for b in Backend] == ["EXACT", "SIMULATION"]


def imported_modules(source: str) -> set[str]:
    """The top-level package of every module that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_child_processes_only_in_bench():
    """No module talks to a child process over its standard streams, and
    only bench's isolated runs start processes."""
    imports = {p.name: imported_modules(p.read_text()) for p in MODULES}
    assert [name for name, mods in imports.items()
            if mods & {"subprocess", "select", "tempfile"}] == []
    assert [name for name, mods in imports.items()
            if "multiprocessing" in mods] == ["bench.py"]


def test_package_exports_pinned():
    exported = {name for name, value in vars(cascad).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == {
        "Circuit", "Gate", "GateKind", "build_miter", "emit_aiger",
        "levelize", "mutate_circuit", "parse_aiger",
        "CnfFormula", "VarGateMap", "parse_dimacs", "tseitin_encode",
        "Backend", "Estimator", "EstimatorConfig",
        "PatternTraces", "SimulationPlan", "exact_truth_table",
        "sample_patterns", "simulate",
        "Solver", "SolverConfig", "SolveOutcome", "Status"}


def package_imports(source: str) -> set[str]:
    """The cascad modules that ``source`` imports with a relative import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_package_layering_pinned():
    """Each module's imports from inside the package: a new edge between
    layers is a visible edit here.  The estimator imports no CNF code, so a
    backend answers over gates alone."""
    assert {p.stem: package_imports(p.read_text()) for p in MODULES} == {
        "bench": {"circuit", "cnf", "estimator", "heuristics", "sim",
                  "solver"},
        "circuit": {"gcpause"},
        "cli": {"bench", "circuit", "cnf", "drat", "heuristics", "sim",
                "solver"},
        "cnf": {"circuit", "gcpause"},
        "drat": set(),
        "estimator": {"circuit", "sim"},
        "gcpause": set(),
        "heuristics": {"cnf", "drat", "estimator", "solver"},
        "sim": {"circuit"},
        "solver": {"cnf", "gcpause"},
    }
