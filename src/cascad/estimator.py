"""Uniform probability queries over circuits: node, phase table, clause.

The phase table's conditional probabilities are computed as trace ratios on
one shared set of patterns (count(A and C) / count(C)), never as a quotient
of independently estimated probabilities -- the quotient form amplifies
error badly when the condition is polar.  Queries speak (gate, polarity)
signals, never CNF literals: ``cascad.heuristics`` translates those.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .circuit import Circuit
from .sim import (PatternTraces, SimulationPlan, exact_truth_table,
                  sample_patterns, simulate)


# widest circuit whose exhaustive truth table is the default trace set
EXACT_PI_CAP = 16


class EstimatorError(Exception):
    pass


class Backend(Enum):
    EXACT = "exact"
    SIMULATION = "simulation"


def default_backend(circuit: Circuit) -> Backend:
    """EXACT up to EXACT_PI_CAP primary inputs, SIMULATION beyond."""
    if len(circuit.primary_inputs) <= EXACT_PI_CAP:
        return Backend.EXACT
    return Backend.SIMULATION


@dataclass
class EstimatorConfig:
    backend: Backend | None = None  # None: default_backend(circuit)
    num_patterns: int = 20_000  # SIMULATION: uniform patterns, rho = 0.5
    seed: int = 0


class Estimator:
    """Probability oracle over a fixed circuit and one shared trace set;
    every query is a popcount over its rows."""

    def __init__(self, circuit: Circuit, config: EstimatorConfig | None = None):
        self.circuit = circuit
        self.config = config or EstimatorConfig()
        self.backend = self.config.backend or default_backend(circuit)
        self._traces: PatternTraces | None = None

    @property
    def traces(self) -> PatternTraces:
        """The trace set, built on first use; a failed build raises to the
        query that asked, and no failure is kept."""
        if self._traces is None:
            self._traces = self._build_traces()
        return self._traces

    def _build_traces(self) -> PatternTraces:
        if self.backend is Backend.EXACT:
            return exact_truth_table(self.circuit)
        plan = SimulationPlan(self.config.num_patterns, seed=self.config.seed)
        inputs = sample_patterns(plan, len(self.circuit.primary_inputs))
        return simulate(self.circuit, inputs)

    # -- queries -----------------------------------------------------------

    def node_prob(self, gate: int, polarity: bool = True) -> float:
        t = self.traces
        p = t.count(gate) / t.num_patterns
        return p if polarity else 1.0 - p

    def clause_prob(self, signals: list[tuple[int, bool]],
                    mode: str = "correlated") -> float:
        """Satisfaction probability of a clause (OR of its literals), each
        a (gate, polarity) signal.

        correlated: fraction of shared-trace patterns satisfying any signal.
        independent: 1 - prod(1 - P(s_i)).
        """
        if not signals:
            raise EstimatorError("empty clause")
        if mode == "independent":
            acc = 1.0
            for sig in signals:
                acc *= 1.0 - self.node_prob(*sig)
            return 1.0 - acc
        if mode != "correlated":
            raise EstimatorError(f"unknown clause_prob mode {mode!r}")
        t = self.traces
        acc = reduce(np.bitwise_or, (t.trace(*sig) for sig in signals))
        return t.popcount(acc) / t.num_patterns

    def witness(self, gate: int) -> list[bool] | None:
        """Every gate's value in the first pattern where ``gate`` is 1, or
        None when no pattern sets it."""
        return self.traces.first_pattern(gate)

    def phase_table(self, po: int) -> dict[int, float]:
        """P(gate=1 | po=1) for every gate; {} when po is never 1, so there
        is no information.  It answers for any gate ``po`` it is given, an
        output or not."""
        t = self.traces
        cond_row = t.trace(po)
        n_cond = t.popcount(cond_row)
        if n_cond == 0:
            return {}
        # float64 division of exact integer counts, as float(j) / n_cond
        joint = t.counts(cond_row)
        return dict(enumerate((joint / n_cond).tolist()))
