"""Every name a cascad module imports must be used in that module, and the
package's exports, config, policy and score fields, the parameters of
``solve_miter``, ``Solver``, ``adaptive_solve`` and ``Estimator.cond_prob``,
the options of ``cascad csat``, estimator backends and process-spawning
imports are pinned: a new option, export, backend or child-process path is
a visible edit here."""

import ast
import dataclasses
import inspect
import pathlib
import re
import types

import pytest

import cascad
from cascad.bench import Par2Score, solve_miter
from cascad.circuit import Circuit
from cascad.cli import main
from cascad.estimator import Backend, Estimator, EstimatorConfig
from cascad.heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                               PhaseSelectionPolicy, adaptive_solve)
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
    assert field_names(PhaseSelectionPolicy) == [
        "tau", "phase_table", "estimator", "po", "vmap", "fallbacks"]
    assert field_names(ClauseFilterPolicy) == [
        "conflict_budget", "threshold", "mode"]
    assert field_names(AdaptiveUnsatPolicy) == ["probe_budget_seconds"]
    assert parameter_names(solve_miter) == [
        "miter", "mode", "tau", "clause_filter", "adaptive"]
    assert parameter_names(Solver.__init__) == [
        "self", "cnf", "config", "phase_hook", "drat_sink"]
    assert parameter_names(adaptive_solve) == ["probe", "cnf", "policy"]
    assert parameter_names(Estimator.cond_prob) == [
        "self", "target", "conditions"]
    with pytest.raises(SystemExit):
        main(["csat", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"--[\w-]+", usage) == [
        "--mode", "--tau", "--threshold", "--budget", "--score-mode",
        "--probe"]


def test_removed_aliases_stay_removed():
    """``rebuild`` is the one gate-graph copy, ``levelize`` the one level
    function, and ``export_learnts`` and ``keep_learnts`` backtrack to the
    root themselves."""
    assert [name for name in ("copy", "levels", "depth")
            if hasattr(Circuit, name)] == []
    assert not hasattr(Solver, "pause_at_level0")


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
