"""Probability-guided solver policies: phase selection, learnt-clause
filtering, and the adaptive UNSAT switch.

Phase rule, for threshold tau in (0, 0.5) and P = P(signal=1 | PO=1):
assign 0 when P < tau, assign 1 when P > 1 - tau, otherwise leave the
solver's default phase in place.  Inequalities are strict; boundary values
abstain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .cnf import VarGateMap, lit_to_signal
from .drat import DratProof
from .estimator import Estimator
from .solver import (UNSAT_TUNED, LearntSnapshot, Solver, SolverConfig,
                     SolveOutcome, Status)


class PolicyError(Exception):
    pass


@dataclass
class PhaseSelectionPolicy:
    tau: float
    phase_table: dict[int, float | None]  # variable -> P or None (no information)
    refresh_every_restarts: int = 0       # 0 = static table
    max_conditions: int = 8

    def __post_init__(self):
        if not (0.0 < self.tau < 0.5):
            raise PolicyError(f"tau {self.tau} outside (0, 0.5)")


def build_phase_policy(estimator: Estimator, po: int, vmap: VarGateMap,
                       tau: float, refresh_every_restarts: int = 0,
                       max_conditions: int = 8) -> PhaseSelectionPolicy:
    """Phase table P(gate(v)=1 | PO=1) for every mapped variable."""
    try:
        gate_table = estimator.phase_table(po)
    except Exception:
        gate_table = {}
    table: dict[int, float | None] = {}
    for gate, var in vmap.gate_to_var.items():
        table[var] = gate_table.get(gate)
    return PhaseSelectionPolicy(tau, table, refresh_every_restarts, max_conditions)


def phase_hook(policy: PhaseSelectionPolicy, variable: int) -> bool | None:
    """Three-way phase rule; None means abstain (use the solver default)."""
    p = policy.phase_table.get(variable)
    if p is None:
        return None
    if p < policy.tau:
        return False
    if p > 1.0 - policy.tau:
        return True
    return None


def make_phase_hook(policy: PhaseSelectionPolicy):
    return lambda var: phase_hook(policy, var)


def refresh_phase_policy(policy: PhaseSelectionPolicy, estimator: Estimator,
                         po: int, vmap: VarGateMap,
                         trail_decisions: list[int]) -> PhaseSelectionPolicy:
    """Recompute the table conditioned on PO=1 plus the most recent mapped
    decisions; undefined entries fall back to the static values."""
    conditions = []
    for lit in trail_decisions[-policy.max_conditions:]:
        sig = lit_to_signal(vmap, lit)
        if sig is not None and sig[0] != po:
            conditions.append(sig)
    try:
        gate_table = estimator.phase_table(po, conditions)
    except Exception:
        return policy
    table: dict[int, float | None] = {}
    for gate, var in vmap.gate_to_var.items():
        p = gate_table.get(gate)
        table[var] = p if p is not None else policy.phase_table.get(var)
    return replace(policy, phase_table=table)


class RefreshingPhaseHook:
    """Phase hook plus restart callback implementing ON_RESTART refresh."""

    def __init__(self, policy: PhaseSelectionPolicy, estimator: Estimator,
                 po: int, vmap: VarGateMap):
        self.policy = policy
        self.static_policy = policy
        self.estimator = estimator
        self.po = po
        self.vmap = vmap
        self._restarts = 0

    def __call__(self, variable: int) -> bool | None:
        return phase_hook(self.policy, variable)

    def on_restart(self, decisions: list[int]):
        every = self.static_policy.refresh_every_restarts
        if every <= 0:
            return
        self._restarts += 1
        if self._restarts % every:
            return
        if decisions:
            self.policy = refresh_phase_policy(
                self.static_policy, self.estimator, self.po, self.vmap, decisions)
        else:
            self.policy = self.static_policy


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
        if p is None:
            kept.append(snap)
        elif p < policy.threshold:
            kept.append(replace(snap, prob=p))
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
    probe_config: SolverConfig = field(default_factory=SolverConfig)
    unsat_config: SolverConfig = field(default_factory=lambda: replace(UNSAT_TUNED))
    carry_learnts: bool = False  # stage 2 restarts from scratch by default

    def __post_init__(self):
        if self.probe_budget_seconds <= 0:
            raise PolicyError("probe budget must be positive")


@dataclass
class AdaptiveOutcome:
    outcome: SolveOutcome
    stage: int  # 1 = probe answered, 2 = UNSAT-tuned config answered
    stage1_wall: float
    proof: DratProof | None


def adaptive_solve(cnf, policy: AdaptiveUnsatPolicy,
                   phase_hook=None, want_proof: bool = True) -> AdaptiveOutcome:
    """Probe with the phase-guided config under a wall budget; on timeout,
    switch to the UNSAT-tuned config (no phase hook)."""
    proof1 = DratProof() if want_proof else None
    probe = Solver(cnf, policy.probe_config, phase_hook=phase_hook,
                   drat_sink=proof1)
    t0 = time.monotonic()
    outcome = probe.solve(time_budget=policy.probe_budget_seconds)
    stage1_wall = time.monotonic() - t0
    if outcome.status is not Status.UNKNOWN:
        return AdaptiveOutcome(outcome, 1, stage1_wall, proof1)

    proof2 = None
    if want_proof:
        # imported clauses are RUP only given the probe's own learnts, some
        # of which the probe has since deleted: replay the probe's proof
        proof2 = DratProof(list(proof1.steps) if policy.carry_learnts else [])
    stage2 = Solver(cnf, policy.unsat_config, drat_sink=proof2)
    if policy.carry_learnts:
        probe.pause_at_level0()
        stage2.import_learnts(probe.export_learnts())
    outcome = stage2.solve()
    return AdaptiveOutcome(outcome, 2, stage1_wall, proof2)
