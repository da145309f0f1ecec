"""Uniform probability queries over circuits: node, conditional, clause.

Conditional probabilities are computed as trace ratios on one shared set of
patterns (count(A and C) / count(C)), never as a quotient of independently
estimated probabilities -- the quotient form amplifies error badly when the
condition is polar.  A quotient mode is kept only to demonstrate that
pathology.

An external estimator (e.g. a learned model) can be attached through a
line-delimited JSON protocol over a child process's standard streams.
"""

from __future__ import annotations

import json
import select
import subprocess
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import Circuit
from .cnf import VarGateMap, lit_to_signal
from .sim import (PatternTraces, SimulationPlan, exact_truth_table,
                  sample_patterns, simulate, _tail_mask, _num_bytes)


# widest circuit whose exhaustive truth table is the default trace set
EXACT_PI_CAP = 16


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
    backend: Backend = Backend.EXACT
    num_patterns: int = 20_000
    seed: int = 0
    workload: float | list[float] = 0.5
    denominator_floor: float | None = None  # default 1/num_patterns (SIMULATION), 0 (EXACT)
    external_command: list[str] | None = None
    external_timeout: float = 10.0

    def __post_init__(self):
        if self.denominator_floor is not None and self.denominator_floor < 0:
            raise EstimatorError("denominator_floor must be >= 0")


class Outcome(Enum):
    OK = "ok"
    UNDEFINED_CONDITION = "undefined-condition"
    LOW_CONFIDENCE_POLAR = "low-confidence-polar"


@dataclass(frozen=True)
class CondResult:
    p: float | None  # None iff outcome is UNDEFINED_CONDITION
    outcome: Outcome
    condition_prob: float


@dataclass(frozen=True)
class ProbQuery:
    target: tuple[int, bool]
    conditions: tuple[tuple[int, bool], ...] = ()


class Estimator:
    """Probability oracle over a fixed circuit and one shared trace set."""

    def __init__(self, circuit: Circuit, config: EstimatorConfig | None = None):
        self.circuit = circuit
        self.config = config or EstimatorConfig()
        self._traces: PatternTraces | None = None
        self._memo: dict = {}
        self._external: _ExternalBackend | None = None
        if self.config.backend is Backend.EXTERNAL:
            if not self.config.external_command:
                raise EstimatorError("EXTERNAL backend needs external_command")
            self._external = _ExternalBackend(
                self.config.external_command, circuit, self.config.external_timeout)

    @property
    def epsilon(self) -> float:
        if self.config.denominator_floor is not None:
            return self.config.denominator_floor
        if self.config.backend is Backend.SIMULATION:
            return 1.0 / self.config.num_patterns
        return 0.0

    @property
    def traces(self) -> PatternTraces:
        if self._traces is None:
            if self.config.backend is Backend.EXACT:
                self._traces = exact_truth_table(self.circuit)
            else:
                plan = SimulationPlan(self.config.num_patterns,
                                      self.config.workload, self.config.seed)
                block = sample_patterns(plan, len(self.circuit.primary_inputs))
                self._traces = simulate(self.circuit, block)
        return self._traces

    # -- trace helpers -----------------------------------------------------

    def _row(self, gate: int, polarity: bool) -> np.ndarray:
        t = self.traces
        row = t.trace(gate)
        if polarity:
            return row
        mask = _tail_mask(t.num_patterns, row.shape[0])
        return ~row & mask

    def _count(self, row: np.ndarray) -> int:
        return int(np.bitwise_count(row).sum())

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
        key = (query.target, tuple(sorted(query.conditions)))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._cond_prob_uncached(query)
        self._memo[key] = result
        return result

    def _cond_prob_uncached(self, query: ProbQuery) -> CondResult:
        tgate, tpol = query.target
        for cgate, cpol in query.conditions:
            if cgate == tgate:
                p = 1.0 if cpol == tpol else 0.0
                pc = (float("nan") if self._external is not None
                      else self._condition_probability(query))
                return CondResult(p, Outcome.OK, pc)
        if self._external is not None:
            p = self._external.cond_prob(query)
            return CondResult(p, Outcome.OK, float("nan"))
        cond_row = self._condition_row(query.conditions)
        n_cond = self._count(cond_row)
        p_cond = n_cond / self.traces.num_patterns
        if n_cond == 0:
            return CondResult(None, Outcome.UNDEFINED_CONDITION, 0.0)
        n_joint = self._count(cond_row & self._row(tgate, tpol))
        outcome = Outcome.OK
        if 0.0 < p_cond < self.epsilon:
            outcome = Outcome.LOW_CONFIDENCE_POLAR
        return CondResult(n_joint / n_cond, outcome, p_cond)

    def _condition_row(self, conditions) -> np.ndarray:
        acc = self._row(*conditions[0]).copy()
        for cond in conditions[1:]:
            acc &= self._row(*cond)
        return acc

    def _condition_probability(self, query: ProbQuery) -> float:
        row = self._condition_row(query.conditions)
        return self._count(row) / self.traces.num_patterns

    def quotient_cond_prob(self, query: ProbQuery, noise: float = 0.0,
                           noise_seed: int = 0) -> float | None:
        """Conditional probability as a quotient of separately estimated
        joint and condition probabilities, optionally perturbed by symmetric
        noise.  Exists to reproduce the division-amplification pathology;
        do not use for solving."""
        tgate, tpol = query.target
        cond_row = self._condition_row(query.conditions)
        n = self.traces.num_patterns
        p_cond = self._count(cond_row) / n
        p_joint = self._count(cond_row & self._row(tgate, tpol)) / n
        if noise:
            rng = np.random.default_rng(noise_seed)
            p_joint += noise * (1 if rng.random() < 0.5 else -1)
            p_cond += noise * (1 if rng.random() < 0.5 else -1)
        if p_cond <= 0:
            return None
        return min(1.0, max(0.0, p_joint / p_cond))

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
        nb = _num_bytes(t.num_patterns)
        acc = np.zeros(nb, dtype=np.uint8)
        for sig in signals:
            acc |= self._row(*sig)
        return self._count(acc) / t.num_patterns

    def phase_table(self, po: int,
                    extra_conditions: Sequence[tuple[int, bool]] = ()
                    ) -> dict[int, float | None]:
        """P(gate=1 | po=1 and every extra condition) for every non-virtual
        gate, evaluated on the shared traces; None = the condition never
        holds, so there is no information."""
        conditions = [(po, True)] + [c for c in extra_conditions if c[0] != po]
        cond_row = self._condition_row(conditions)
        n_cond = self._count(cond_row)
        table: dict[int, float | None] = {}
        if n_cond == 0:
            for g in range(len(self.circuit)):
                if not self.circuit.is_virtual(g):
                    table[g] = None
            return table
        joint = np.bitwise_count(self.traces.bits & cond_row[None, :]).sum(axis=1)
        for g in range(len(self.circuit)):
            if self.circuit.is_virtual(g):
                continue
            table[g] = float(joint[g]) / n_cond
        return table

    def close(self):
        if self._external is not None:
            self._external.close()


# -- external estimator protocol ---------------------------------------------


class _ExternalBackend:
    """Line-delimited JSON over a child process's stdin/stdout."""

    def __init__(self, command: list[str], circuit: Circuit, timeout: float):
        self.timeout = timeout
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        import tempfile, os
        fd, self._graph_path = tempfile.mkstemp(suffix=".json", prefix="cascad-graph-")
        with os.fdopen(fd, "w") as fh:
            fh.write(circuit.to_json())
        reply = self._request({"op": "load", "graph": self._graph_path})
        if not reply.get("ok"):
            raise EstimatorError(f"external estimator failed handshake: {reply}")

    def _request(self, obj: dict) -> dict:
        if self.proc.poll() is not None:
            raise EstimatorError("external estimator process exited")
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], self.timeout)
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
        import os
        try:
            if self.proc.poll() is None:
                self.proc.stdin.close()
                self.proc.wait(timeout=2)
        except Exception:
            self.proc.kill()
        try:
            os.unlink(self._graph_path)
        except OSError:
            pass
