"""cascad: circuit-aware SAT solving driven by signal probabilities."""

from .circuit import (Circuit, Gate, GateKind, build_miter, emit_aiger,
                      levelize, mutate_circuit, parse_aiger)
from .cnf import CnfFormula, VarGateMap, parse_dimacs, tseitin_encode
from .estimator import Backend, Estimator, EstimatorConfig
from .sim import (PatternTraces, SimulationPlan, exact_truth_table,
                  sample_patterns, simulate)
from .solver import Solver, SolverConfig, SolveOutcome, Status

__version__ = "0.1.0"
