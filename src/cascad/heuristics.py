"""Probability-guided solver policies: phase selection, learnt-clause
filtering, and the adaptive UNSAT switch.

Phase rule, for threshold tau in (0, 0.5) and P = P(signal=1 | PO=1):
assign 0 when P < tau, assign 1 when P > 1 - tau, otherwise leave the
solver's default phase in place.  Inequalities are strict; boundary values
abstain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cnf import VarGateMap, lit_to_signal
from .drat import DratProof
from .estimator import Estimator
from .solver import (UNSAT_TUNED, LearntSnapshot, Solver, SolverConfig,
                     SolveOutcome, Status)


class PolicyError(Exception):
    pass


@dataclass
class PhaseSelectionPolicy:
    """The phase hook.  ``policy(v)`` applies the three-way rule to
    variable v's entry.  Every ``refresh_every_restarts`` (K) restarts,
    ``on_restart(decisions)`` asks the estimator again, on PO=1 plus the
    last ``max_conditions`` (C) mapped decisions; K = 0 keeps the table
    static.  ``fallbacks`` counts the estimator failures, at build and at
    refresh, that left entries without information."""
    tau: float
    phase_table: dict[int, float | None]  # variable -> P or None (no information)
    refresh_every_restarts: int = 0
    max_conditions: int = 8
    estimator: Estimator | None = None  # with po and vmap: what a refresh asks
    po: int = 0
    vmap: VarGateMap = field(default_factory=VarGateMap)
    fallbacks: int = field(default=0, init=False)

    def __post_init__(self):
        if not (0.0 < self.tau < 0.5):
            raise PolicyError(f"tau {self.tau} outside (0, 0.5)")
        if self.refresh_every_restarts < 0:
            raise PolicyError(f"refresh every K = {self.refresh_every_restarts}"
                              " restarts: K must be >= 0")
        if self.max_conditions < 1:
            raise PolicyError(f"refresh on C = {self.max_conditions} "
                              "conditions: C must be >= 1")
        self.static_table = self.phase_table
        self._restarts = 0

    def __call__(self, variable: int) -> bool | None:
        """Three-way phase rule; None means abstain (use the solver default)."""
        p = self.phase_table.get(variable)
        if p is None:
            return None
        if p < self.tau:
            return False
        if p > 1.0 - self.tau:
            return True
        return None

    def estimate(self, conditions=()) -> dict[int, float | None]:
        """P(gate(v)=1 | PO=1 and the conditions) for every mapped variable
        v; every entry is None when the estimator fails."""
        try:
            gate_table = self.estimator.phase_table(self.po, conditions)
        except Exception:
            self.fallbacks += 1
            gate_table = {}
        return {var: gate_table.get(gate)
                for gate, var in self.vmap.gate_to_var.items()}

    def on_restart(self, decisions: list[int]):
        """Every K-th restart, condition the table on the most recent mapped
        decisions; undefined entries keep their static values, and a restart
        with no decisions restores the static table."""
        if self.refresh_every_restarts <= 0:
            return
        self._restarts += 1
        if self._restarts % self.refresh_every_restarts:
            return
        if not decisions:
            self.phase_table = self.static_table
            return
        conditions = []
        for lit in decisions[-self.max_conditions:]:
            sig = lit_to_signal(self.vmap, lit)
            if sig is not None:
                conditions.append(sig)
        static = self.static_table
        self.phase_table = {var: static.get(var) if p is None else p
                            for var, p in self.estimate(conditions).items()}


def build_phase_policy(estimator: Estimator, po: int, vmap: VarGateMap,
                       tau: float, refresh_every_restarts: int = 0,
                       max_conditions: int = 8) -> PhaseSelectionPolicy:
    """The phase policy for ``po``, its table P(gate(v)=1 | PO=1) for every
    mapped variable v."""
    policy = PhaseSelectionPolicy(tau, {}, refresh_every_restarts,
                                  max_conditions, estimator, po, vmap)
    policy.phase_table = policy.static_table = policy.estimate()
    return policy


def make_phase_hook(policy: PhaseSelectionPolicy):
    """The phase hook ``bench.solve_miter`` gives the solver: the policy
    itself.  It has a name of its own so that a tracer can wrap the hook;
    ``perfbench/run.py`` counts forced and abstained phases through it."""
    return policy


# -- clause filtering ---------------------------------------------------------


@dataclass
class ClauseFilterPolicy:
    conflict_budget: int = 50_000
    threshold: float = 0.9
    mode: str = "correlated"  # correlated | independent

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise PolicyError(f"threshold {self.threshold} outside (0, 1]")
        if self.conflict_budget < 1:
            raise PolicyError("conflict budget must be >= 1")
        if self.mode not in ("correlated", "independent"):
            raise PolicyError(f"bad mode {self.mode!r}")


@dataclass
class FilterReport:
    fired_at_conflicts: int
    fired_mid_solve: bool  # False when the budget was never reached
    total: int
    kept: int
    dropped: int
    kept_unscored: int  # kept for want of a score
    estimator_failures: int
    score_histogram: dict[str, int]  # ten 0.1-wide bins
    lbd_buckets: dict[str, dict[str, int]]  # "1" / "2" / "3+" -> counts
    scores: list[float | None]
    outcome: SolveOutcome | None = None


def score_clauses(snapshots: list[LearntSnapshot], estimator: Estimator,
                  vmap: VarGateMap, policy: ClauseFilterPolicy):
    """Score every clause; returns (scores, kept_snapshots, failures).

    A clause is kept when its score is below the threshold or when it has
    no score: no circuit evidence, or an estimator failure (fail-safe)."""
    scores: list[float | None] = []
    kept = []
    failures = 0
    for snap in snapshots:
        try:
            p = estimator.clause_prob(list(snap.lits), vmap, mode=policy.mode)
        except Exception:
            p = None
            failures += 1
        scores.append(p)
        if p is None or p < policy.threshold:
            kept.append(snap)
    return scores, kept, failures


def _build_report(snapshots, scores, failures, fired_at, mid_solve,
                  threshold) -> FilterReport:
    hist = {f"{k/10:.1f}-{(k+1)/10:.1f}": 0 for k in range(10)}
    buckets = {b: {"total": 0, "kept": 0, "low_prob": 0} for b in ("1", "2", "3+")}
    kept = 0
    for snap, p in zip(snapshots, scores):
        low = p is not None and p < threshold
        keep = p is None or low
        bucket = buckets[str(snap.lbd) if snap.lbd <= 2 else "3+"]
        bucket["total"] += 1
        bucket["kept"] += keep
        bucket["low_prob"] += low
        kept += keep
        if p is not None:
            k = min(int(p * 10), 9)
            hist[f"{k/10:.1f}-{(k+1)/10:.1f}"] += 1
    return FilterReport(
        fired_at_conflicts=fired_at, fired_mid_solve=mid_solve,
        total=len(snapshots), kept=kept, dropped=len(snapshots) - kept,
        kept_unscored=scores.count(None), estimator_failures=failures,
        score_histogram=hist, lbd_buckets=buckets, scores=scores)


def run_clause_filter(solver: Solver, policy: ClauseFilterPolicy,
                      estimator: Estimator, vmap: VarGateMap,
                      time_budget: float | None = None) -> FilterReport:
    """Solve until the conflict checkpoint, filter the learnt database by
    clause probability, then resume solving to completion."""
    outcome = solver.solve(conflict_budget=policy.conflict_budget,
                           time_budget=time_budget)
    mid_solve = outcome.status is Status.UNKNOWN
    solver.pause_at_level0()
    snapshots = solver.export_learnts()
    scores, kept, failures = score_clauses(snapshots, estimator, vmap, policy)
    report = _build_report(snapshots, scores, failures,
                           solver.stats.conflicts, mid_solve, policy.threshold)
    if mid_solve:
        solver.replace_learnts(kept)
        outcome = solver.solve(time_budget=time_budget)
    report.outcome = outcome
    return report


# -- adaptive UNSAT switch ----------------------------------------------------


@dataclass
class AdaptiveUnsatPolicy:
    probe_budget_seconds: float = 5.0

    def __post_init__(self):
        if self.probe_budget_seconds <= 0:
            raise PolicyError("probe budget must be positive")


@dataclass
class AdaptiveOutcome:
    outcome: SolveOutcome
    stage: int  # 1 = probe answered, 2 = UNSAT-tuned config answered
    stage1_wall: float
    proof: DratProof | None  # of the stage that answered


def adaptive_solve(cnf, policy: AdaptiveUnsatPolicy,
                   phase_hook=None, want_proof: bool = True) -> AdaptiveOutcome:
    """Probe with the default config and the phase hook under a wall
    budget; on timeout, solve afresh under UNSAT_TUNED (no phase hook)."""
    proof = DratProof() if want_proof else None
    probe = Solver(cnf, SolverConfig(), phase_hook=phase_hook, drat_sink=proof)
    t0 = time.monotonic()
    outcome = probe.solve(time_budget=policy.probe_budget_seconds)
    stage1_wall = time.monotonic() - t0
    if outcome.status is not Status.UNKNOWN:
        return AdaptiveOutcome(outcome, 1, stage1_wall, proof)
    proof = DratProof() if want_proof else None
    outcome = Solver(cnf, UNSAT_TUNED, drat_sink=proof).solve()
    return AdaptiveOutcome(outcome, 2, stage1_wall, proof)
