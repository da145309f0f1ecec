"""Probability-guided solver policies: phase selection, learnt-clause
filtering, and the adaptive UNSAT switch.

Phase rule, for threshold tau in (0, 0.5) and P = P(signal=1 | PO=1):
assign 0 when P < tau, assign 1 when P > 1 - tau, otherwise leave the
solver's default phase in place.  Inequalities are strict; boundary values
abstain.  A policy that follows a solver also conditions P on the
solver's current decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    variable v's entry.  Once it ``follow``s a solver, an entry strictly
    between 0 and 1 is first conditioned on the solver's current
    decisions too (the table entry stands where no trace meets them).
    ``fallbacks`` counts the failed table builds, which left every entry
    without information."""
    tau: float
    phase_table: dict[int, float | None]  # variable -> P or None (no information)
    estimator: Estimator | None = None  # with po and vmap: what follow reads
    po: int = 0
    vmap: VarGateMap = field(default_factory=VarGateMap)
    fallbacks: int = field(default=0, init=False)

    def __post_init__(self):
        if not (0.0 < self.tau < 0.5):
            raise PolicyError(f"tau {self.tau} outside (0, 0.5)")
        self._solver: Solver | None = None

    def __call__(self, variable: int) -> bool | None:
        """Three-way phase rule; None means abstain (use the solver default)."""
        p = self.phase_table.get(variable)
        if p is None:
            return None
        if self._solver is not None and 0.0 < p < 1.0:
            p = self._conditioned(variable, p)
        if p < self.tau:
            return False
        if p > 1.0 - self.tau:
            return True
        return None

    def follow(self, solver: Solver):
        """Condition every later phase on ``solver``'s decisions as well."""
        self._solver = solver

    def _conditioned(self, variable: int, p: float) -> float:
        """P(gate(variable)=1 | PO=1 and the solver's decisions), or p when
        no trace meets them."""
        conditions = [(self.po, True)]
        for lit in self._solver.decisions:
            sig = lit_to_signal(self.vmap, lit)
            if sig is not None:
                conditions.append(sig)
        conditioned = self.estimator.cond_prob(
            (self.vmap.var_to_gate[variable], True), conditions)
        return p if conditioned is None else conditioned


def build_phase_policy(estimator: Estimator, po: int, vmap: VarGateMap,
                       tau: float) -> PhaseSelectionPolicy:
    """The phase policy for ``po``, its table P(gate(v)=1 | PO=1) for every
    mapped variable v; every entry is None when the estimator fails."""
    policy = PhaseSelectionPolicy(tau, {}, estimator, po, vmap)
    try:
        gate_table = estimator.phase_table(po)
    except Exception:
        policy.fallbacks += 1
        gate_table = {}
    policy.phase_table = {var: gate_table.get(gate)
                          for var, gate in vmap.var_to_gate.items()}
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
    """Score every clause; returns (scores, keep, failures), where keep[i]
    is the one decision on snapshots[i].

    A clause is kept when its score is below the threshold or when it has
    no score: no circuit evidence, or an estimator failure (fail-safe)."""
    scores: list[float | None] = []
    keep: list[bool] = []
    failures = 0
    for snap in snapshots:
        signals = [lit_to_signal(vmap, lit) for lit in snap.lits]
        try:
            p = estimator.clause_prob(signals, mode=policy.mode)
        except Exception:
            p = None
            failures += 1
        scores.append(p)
        keep.append(p is None or p < policy.threshold)
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
        kept_unscored=scores.count(None), estimator_failures=failures,
        score_histogram=hist, lbd_buckets=buckets, scores=scores)


def run_clause_filter(solver: Solver, policy: ClauseFilterPolicy,
                      estimator: Estimator, vmap: VarGateMap) -> FilterReport:
    """Solve until the conflict checkpoint, filter the learnt database by
    clause probability, then resume solving to completion."""
    outcome = solver.solve(conflict_budget=policy.conflict_budget)
    mid_solve = outcome.status is Status.UNKNOWN
    snapshots = solver.export_learnts()
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
        if self.probe_budget_seconds <= 0:
            raise PolicyError("probe budget must be positive")


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
