"""Probability-guided solver policies: phase selection, learnt-clause
filtering, and the adaptive UNSAT switch.

Phase rule, for threshold tau in (0, 0.5) and P = P(signal=1 | PO=1):
assign 0 when P < tau, assign 1 when P > 1 - tau, otherwise leave the
solver's default phase in place.  Inequalities are strict; boundary values
abstain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .cnf import VarGateMap, lit_to_signal
from .drat import DratProof
from .estimator import Estimator
from .solver import (UNSAT_TUNED, LearntSnapshot, Solver, SolveOutcome,
                     Status)


class PolicyError(Exception):
    pass


@dataclass
class PhaseSelectionPolicy:
    """The phase hook.  ``policy(v)`` applies the three-way rule to
    variable v's entry."""
    tau: float
    phase_table: dict[int, float]  # variable -> P; absent: no information

    def __post_init__(self):
        if not (0.0 < self.tau < 0.5):
            raise PolicyError(f"tau {self.tau} outside (0, 0.5)")

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


def build_phase_policy(estimator: Estimator, po: int, vmap: VarGateMap,
                       tau: float = 0.005) -> PhaseSelectionPolicy:
    """The phase policy for ``po``, its table P(gate(v)=1 | PO=1) for every
    variable v whose gate the estimator's table lists; an estimator failure
    raises to the caller."""
    gate_table = estimator.phase_table(po)
    return PhaseSelectionPolicy(tau, {var: gate_table[gate]
                                      for var, gate in vmap.var_to_gate.items()
                                      if gate in gate_table})


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
        budget = self.conflict_budget
        if isinstance(budget, bool) or not isinstance(budget, int) \
                or budget < 1:
            raise PolicyError(f"conflict budget must be >= 1 and an int, "
                              f"not {budget!r}")
        if self.mode not in ("correlated", "independent"):
            raise PolicyError(f"bad mode {self.mode!r}")


@dataclass
class FilterReport:
    fired_at_conflicts: int
    fired_mid_solve: bool  # False when the budget was never reached
    total: int
    kept: int
    dropped: int
    estimator_failures: int
    score_histogram: dict[str, int]  # ten 0.1-wide bins
    lbd_buckets: dict[str, dict[str, int]]  # "1" / "2" / "3+" -> counts
    scores: list[float | None]
    outcome: SolveOutcome | None = None


def score_clauses(snapshots: list[LearntSnapshot], estimator: Estimator,
                  vmap: VarGateMap, policy: ClauseFilterPolicy):
    """Score every clause; returns (scores, keep, failures), where keep[i]
    is the one decision on snapshots[i].

    A clause is kept when its score is below the threshold.  The first
    estimator failure ends scoring: that clause and every later one are
    kept unscored (fail-safe) and counted as failures."""
    scores: list[float | None] = []
    for snap in snapshots:
        signals = [lit_to_signal(vmap, lit) for lit in snap.lits]
        try:
            scores.append(estimator.clause_prob(signals, mode=policy.mode))
        except Exception:
            break
    failures = len(snapshots) - len(scores)
    scores += [None] * failures
    keep = [p is None or p < policy.threshold for p in scores]
    return scores, keep, failures


def _build_report(snapshots, scores, keep, failures, fired_at,
                  mid_solve) -> FilterReport:
    hist = {f"{k/10:.1f}-{(k+1)/10:.1f}": 0 for k in range(10)}
    buckets = {b: {"total": 0, "kept": 0, "low_prob": 0} for b in ("1", "2", "3+")}
    for snap, p, kept in zip(snapshots, scores, keep):
        bucket = buckets[str(snap.lbd) if snap.lbd <= 2 else "3+"]
        bucket["total"] += 1
        bucket["kept"] += kept
        bucket["low_prob"] += kept and p is not None
        if p is not None:
            k = min(int(p * 10), 9)
            hist[f"{k/10:.1f}-{(k+1)/10:.1f}"] += 1
    return FilterReport(
        fired_at_conflicts=fired_at, fired_mid_solve=mid_solve,
        total=len(snapshots), kept=sum(keep), dropped=keep.count(False),
        estimator_failures=failures,
        score_histogram=hist, lbd_buckets=buckets, scores=scores)


def run_clause_filter(solver: Solver, policy: ClauseFilterPolicy,
                      estimator: Estimator, vmap: VarGateMap) -> FilterReport:
    """Solve until the conflict checkpoint, filter the learnt database by
    clause probability, then resume solving to completion.  A solve that
    ends before the checkpoint scores nothing: its report counts zero."""
    outcome = solver.solve(conflict_budget=policy.conflict_budget)
    mid_solve = outcome.status is Status.UNKNOWN
    snapshots = solver.export_learnts() if mid_solve else []
    scores, keep, failures = score_clauses(snapshots, estimator, vmap, policy)
    report = _build_report(snapshots, scores, keep, failures,
                           solver.stats.conflicts, mid_solve)
    if mid_solve:
        solver.keep_learnts(keep)
        outcome = solver.solve()
    report.outcome = outcome
    return report


# -- adaptive UNSAT switch ----------------------------------------------------


@dataclass
class AdaptiveUnsatPolicy:
    probe_budget_seconds: float = 5.0

    def __post_init__(self):
        if not 0 < self.probe_budget_seconds < math.inf:
            raise PolicyError("probe budget must be positive and finite")


@dataclass
class AdaptiveOutcome:
    outcome: SolveOutcome
    stage: int  # 1 = probe answered, 2 = UNSAT-tuned config answered
    stage1_wall: float
    proof: DratProof | None  # the sink of the stage that answered


def adaptive_solve(probe: Solver, cnf,
                   policy: AdaptiveUnsatPolicy) -> AdaptiveOutcome:
    """Run ``probe``, a default-config solver over ``cnf``, under a wall
    budget; on timeout, solve ``cnf`` afresh under UNSAT_TUNED (no phase
    hook).  Stage 2 logs a proof exactly when the probe has a sink."""
    t0 = time.monotonic()
    outcome = probe.solve(time_budget=policy.probe_budget_seconds)
    stage1_wall = time.monotonic() - t0
    if outcome.status is not Status.UNKNOWN:
        return AdaptiveOutcome(outcome, 1, stage1_wall, probe.drat)
    proof = None if probe.drat is None else DratProof()
    outcome = Solver(cnf, UNSAT_TUNED, drat_sink=proof).solve()
    return AdaptiveOutcome(outcome, 2, stage1_wall, proof)
