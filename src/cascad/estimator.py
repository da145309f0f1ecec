"""Uniform probability queries over circuits: node, conditional, clause.

Conditional probabilities are computed as trace ratios on one shared set of
patterns (count(A and C) / count(C)), never as a quotient of independently
estimated probabilities -- the quotient form amplifies error badly when the
condition is polar.

An external estimator (e.g. a learned model) can be attached through a
line-delimited JSON protocol over a child process's standard streams.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .circuit import Circuit
from .cnf import VarGateMap, lit_to_signal
from .sim import (PatternTraces, SimulationPlan, exact_truth_table,
                  sample_patterns, simulate)


# widest circuit whose exhaustive truth table is the default trace set
EXACT_PI_CAP = 16
# seconds the external estimator has to answer each request
EXTERNAL_TIMEOUT = 10.0


class EstimatorError(Exception):
    pass


class Backend(Enum):
    EXACT = "exact"
    SIMULATION = "simulation"
    EXTERNAL = "external"


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
    external_command: list[str] | None = None


@dataclass(frozen=True)
class CondResult:
    p: float | None  # None when the condition never holds
    condition_prob: float  # nan for the EXTERNAL backend


@dataclass(frozen=True)
class ProbQuery:
    target: tuple[int, bool]
    conditions: tuple[tuple[int, bool], ...] = ()


class Estimator:
    """Probability oracle over a fixed circuit and one shared trace set.

    EXTERNAL answers node and conditional queries, and phase tables through
    one conditional query per gate; correlated clause scores need a trace
    set and raise EstimatorError there.
    """

    def __init__(self, circuit: Circuit, config: EstimatorConfig | None = None):
        self.circuit = circuit
        self.config = config or EstimatorConfig()
        self.backend = self.config.backend or default_backend(circuit)
        self._traces: PatternTraces | None = None
        self._external: _ExternalBackend | None = None
        if self.backend is Backend.EXTERNAL:
            if not self.config.external_command:
                raise EstimatorError("EXTERNAL backend needs external_command")
            self._external = _ExternalBackend(self.config.external_command,
                                              circuit)

    @property
    def traces(self) -> PatternTraces:
        if self._external is not None:
            raise EstimatorError("the EXTERNAL backend has no trace set")
        if self._traces is None:
            if self.backend is Backend.EXACT:
                self._traces = exact_truth_table(self.circuit)
            else:
                plan = SimulationPlan(self.config.num_patterns,
                                      seed=self.config.seed)
                block = sample_patterns(plan, len(self.circuit.primary_inputs))
                self._traces = simulate(self.circuit, block)
        return self._traces

    def _condition(self, conditions) -> tuple[np.ndarray, int]:
        """The row of patterns where every condition holds, and its count."""
        t = self.traces
        row = reduce(np.bitwise_and, (t.trace(*c) for c in conditions))
        return row, t.popcount(row)

    # -- queries -----------------------------------------------------------

    def node_prob(self, gate: int, polarity: bool = True) -> float:
        if self._external is not None:
            return self._external.node_prob(gate, polarity)
        t = self.traces
        p = t.count(gate) / t.num_patterns
        return p if polarity else 1.0 - p

    def cond_prob(self, query: ProbQuery) -> CondResult:
        if not query.conditions:
            raise EstimatorError("cond_prob requires at least one condition")
        tgate, tpol = query.target
        if self._external is not None:
            p_cond = float("nan")
        else:
            t = self.traces
            cond_row, n_cond = self._condition(query.conditions)
            p_cond = n_cond / t.num_patterns
        for cgate, cpol in query.conditions:
            if cgate == tgate:
                return CondResult(1.0 if cpol == tpol else 0.0, p_cond)
        if self._external is not None:
            return CondResult(self._external.cond_prob(query), p_cond)
        if n_cond == 0:
            return CondResult(None, p_cond)
        n_joint = t.popcount(cond_row & t.trace(tgate, tpol))
        return CondResult(n_joint / n_cond, p_cond)

    def clause_prob(self, literals: list[int], vmap: VarGateMap,
                    mode: str = "correlated") -> float | None:
        """Satisfaction probability of a clause (OR of its literals).

        correlated: fraction of shared-trace patterns satisfying any literal;
        returns None when a literal has no gate image (no circuit evidence).
        independent: 1 - prod(1 - P(l_i)); unmapped literals count as 0.5.
        """
        if not literals:
            raise EstimatorError("empty clause")
        signals = [lit_to_signal(vmap, lit) for lit in literals]
        if mode == "independent":
            acc = 1.0
            for sig in signals:
                p = 0.5 if sig is None else self.node_prob(*sig)
                acc *= 1.0 - p
            return 1.0 - acc
        if mode != "correlated":
            raise EstimatorError(f"unknown clause_prob mode {mode!r}")
        if any(sig is None for sig in signals):
            return None
        t = self.traces
        acc = reduce(np.bitwise_or, (t.trace(*sig) for sig in signals))
        return t.popcount(acc) / t.num_patterns

    def phase_table(self, po: int,
                    extra_conditions: Sequence[tuple[int, bool]] = ()
                    ) -> dict[int, float | None]:
        """P(gate=1 | po=1 and every extra condition) for every gate;
        None = the condition never holds, so there is no information.
        EXTERNAL asks one cond_prob query per gate."""
        conditions = ((po, True),) + tuple(c for c in extra_conditions
                                           if c[0] != po)
        gates = range(len(self.circuit))
        if self._external is not None:
            return {g: self.cond_prob(ProbQuery((g, True), conditions)).p
                    for g in gates}
        cond_row, n_cond = self._condition(conditions)
        if n_cond == 0:
            return dict.fromkeys(gates)
        # float64 division of exact integer counts, as float(j) / n_cond
        joint = self.traces.counts(cond_row)
        return dict(zip(gates, (joint / n_cond).tolist()))

    def close(self):
        if self._external is not None:
            self._external.close()


# -- external estimator protocol ---------------------------------------------


class _ExternalBackend:
    """Line-delimited JSON over a child process's stdin/stdout; a failed
    start closes the child and removes the graph file before it raises."""

    def __init__(self, command: list[str], circuit: Circuit):
        self._graph_path = None
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            fd, self._graph_path = tempfile.mkstemp(suffix=".json",
                                                    prefix="cascad-graph-")
            with os.fdopen(fd, "w") as fh:
                fh.write(circuit.to_json())
            reply = self._request({"op": "load", "graph": self._graph_path})
            if not reply.get("ok"):
                raise EstimatorError(
                    f"external estimator failed handshake: {reply}")
        except BaseException:
            self.close()
            raise

    def _request(self, obj: dict) -> dict:
        if self.proc.poll() is not None:
            raise EstimatorError("external estimator process exited")
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], EXTERNAL_TIMEOUT)
        if not ready:
            raise EstimatorError(f"external estimator timed out on {obj}")
        line = self.proc.stdout.readline()
        if not line:
            raise EstimatorError(f"external estimator closed stream on {obj}")
        try:
            return json.loads(line)
        except json.JSONDecodeError as e:
            raise EstimatorError(f"bad reply {line!r} for {obj}") from e

    def _prob_reply(self, obj: dict) -> float:
        reply = self._request(obj)
        if "error" in reply:
            raise EstimatorError(f"external estimator error for {obj}: {reply['error']}")
        p = reply.get("p")
        if not isinstance(p, (int, float)) or not (-0.001 <= p <= 1.001):
            raise EstimatorError(f"out-of-range reply {reply} for {obj}")
        return min(1.0, max(0.0, float(p)))

    def node_prob(self, gate: int, polarity: bool) -> float:
        return self._prob_reply({"op": "node_prob", "gate": gate, "pol": int(polarity)})

    def cond_prob(self, query: ProbQuery) -> float:
        return self._prob_reply({
            "op": "cond_prob",
            "target": [query.target[0], int(query.target[1])],
            "conditions": [[g, int(p)] for g, p in query.conditions],
        })

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=2)
        except Exception:  # a broken pipe, or a child that does not exit
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self._graph_path is not None:
            try:
                os.unlink(self._graph_path)
            except OSError:
                pass
