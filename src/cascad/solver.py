"""CDCL SAT solver with first-UIP learning, two-watched-literal propagation,
VSIDS decisions, Luby restarts, LBD-tiered clause-DB reduction, and hook
points for external phase and clause-filter policies.

Literals are DIMACS signed ints.  One Solver instance is single-threaded;
solve() is resumable, so a caller can stop at a conflict budget, rewrite the
learnt-clause database, and resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush

from .cnf import CnfFormula


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass
class SolverConfig:
    restart_unit: int = 64          # Luby base, in conflicts
    reduce_interval: int = 2000     # conflicts between DB reductions
    keep_lbd: int = 2               # reduce_db keeps learnt clauses with lbd <= this
    phase_default: str = "saved"    # saved | false | true
    var_decay: float = 0.95
    conflict_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.phase_default not in ("saved", "false", "true"):
            raise ValueError(f"bad phase_default {self.phase_default!r}")
        for budget in (self.conflict_budget, self.time_budget):
            if budget is not None and budget <= 0:
                raise ValueError("budgets must be positive")


# UNSAT-tuned variant: longer restarts, wider LBD keep, fixed false phases,
# meant to be run without a phase hook.
UNSAT_TUNED = SolverConfig(restart_unit=512, keep_lbd=3, phase_default="false")


@dataclass
class SolverStats:
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_total: int = 0
    learnt_current: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SolveOutcome:
    status: Status
    model: dict[int, bool] | None
    stats: SolverStats


@dataclass(frozen=True)
class LearntSnapshot:
    lits: tuple[int, ...]
    lbd: int
    prob: float | None = None  # filled by the clause filter


class _Clause:
    __slots__ = ("lits", "learnt", "lbd", "used")

    def __init__(self, lits, learnt=False, lbd=0):
        self.lits = lits
        self.learnt = learnt
        self.lbd = lbd
        self.used = False


def luby(i: int) -> int:
    """Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 ..."""
    while True:
        k = 1
        while (1 << k) - 1 < i + 1:
            k += 1
        if (1 << k) - 1 == i + 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    def __init__(self, cnf: CnfFormula, config: SolverConfig | None = None,
                 phase_hook=None, on_restart=None, drat_sink=None):
        self.config = config or SolverConfig()
        self.phase_hook = phase_hook
        self.on_restart = on_restart
        self.drat = drat_sink
        self.nvars = cnf.num_vars
        self.original_clauses = [list(cl) for cl in cnf.clauses]

        n = self.nvars + 1
        self.values = [0] * n          # 0 unassigned, 1 true, -1 false
        self.levels = [0] * n
        self.reasons: list[_Clause | None] = [None] * n
        self.saved_phase: list[bool | None] = [None] * n
        self.activity = [0.0] * n
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: dict[int, list[_Clause]] = {}
        self.learnts: list[_Clause] = []
        self.stats = SolverStats()
        self.unsat = False
        self._order: list[tuple[float, int]] = []
        self._conflicts_since_restart = 0
        self._restart_count = 0
        self._next_reduce = self.config.reduce_interval

        for v in range(1, n):
            heappush(self._order, (0.0, v))
        for cl in self.original_clauses:
            self._attach_input_clause(cl)

    # -- basic machinery ---------------------------------------------------

    def _watchlist(self, lit: int) -> list[_Clause]:
        return self.watches.setdefault(lit, [])

    def value_of(self, lit: int) -> int:
        v = self.values[abs(lit)]
        return v if lit > 0 else -v

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def _attach_input_clause(self, lits: list[int]):
        lits = list(dict.fromkeys(lits))  # dedupe, keep order
        if any(-l in lits for l in lits):
            return  # tautology constrains nothing
        if not lits:
            self._level0_conflict()
            return
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self._level0_conflict()
            return
        clause = _Clause(lits)
        self._watchlist(lits[0]).append(clause)
        self._watchlist(lits[1]).append(clause)

    def _level0_conflict(self):
        self.unsat = True
        if self.drat is not None:
            self.drat.add([])

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        val = self.value_of(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        v = abs(lit)
        self.values[v] = 1 if lit > 0 else -1
        self.levels[v] = self.decision_level
        self.reasons[v] = reason
        self.saved_phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def propagate(self) -> _Clause | None:
        """Unit propagation to fixpoint; returns the conflicting clause."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            neg = -lit
            watchers = self.watches.get(neg)
            if not watchers:
                continue
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                lits = clause.lits
                # make sure the falsified literal sits at position 1
                if lits[0] == neg:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value_of(first) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    if self.value_of(lits[k]) != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watchlist(lits[1]).append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting on lits[0]
                if not self._enqueue(first, clause):
                    return clause
                clause.used = True
                i += 1
        return None

    # -- decisions ---------------------------------------------------------

    def _bump(self, v: int):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self._order = [(-self.activity[u], u) for u in range(1, self.nvars + 1)
                           if self.values[u] == 0]
            heapify(self._order)
            return
        heappush(self._order, (-self.activity[v], v))

    def _pick_branch_var(self) -> int | None:
        while self._order:
            negact, v = self._order[0]
            if self.values[v] != 0 or -negact != self.activity[v]:
                heappop(self._order)
                continue
            return v
        for v in range(1, self.nvars + 1):  # heap may have gone stale
            if self.values[v] == 0:
                return v
        return None

    def _pick_phase(self, v: int) -> bool:
        if self.phase_hook is not None:
            phase = self.phase_hook(v)
            if phase is not None:
                return phase
        if self.config.phase_default == "saved":
            saved = self.saved_phase[v]
            return saved if saved is not None else False
        return self.config.phase_default == "true"

    def decide(self) -> int | None:
        v = self._pick_branch_var()
        if v is None:
            return None
        self.stats.decisions += 1
        self.trail_lim.append(len(self.trail))
        lit = v if self._pick_phase(v) else -v
        self._enqueue(lit, None)
        return lit

    # -- conflict analysis -------------------------------------------------

    def analyze_conflict(self, conflict: _Clause) -> tuple[list[int], int, int]:
        """First-UIP learnt clause, backjump level, and LBD."""
        learnt = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        lits = conflict.lits
        idx = len(self.trail) - 1
        p = None
        while True:
            for q in lits:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.levels[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.levels[v] == self.decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            seen[abs(p)] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            lits = self.reasons[abs(p)].lits
        learnt[0] = -p

        if len(learnt) == 1:
            bj_level = 0
        else:
            # move the highest-level tail literal to position 1
            k = max(range(1, len(learnt)), key=lambda j: self.levels[abs(learnt[j])])
            learnt[1], learnt[k] = learnt[k], learnt[1]
            bj_level = self.levels[abs(learnt[1])]
        lbd = len({self.levels[abs(l)] for l in learnt})
        return learnt, bj_level, lbd

    def _backtrack(self, level: int):
        while self.trail_lim and len(self.trail_lim) > level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                v = abs(lit)
                self.values[v] = 0
                self.reasons[v] = None
                heappush(self._order, (-self.activity[v], v))
        self.qhead = len(self.trail)

    def _learn(self, learnt: list[int], lbd: int):
        self.stats.learnt_total += 1
        if self.drat is not None:
            self.drat.add(learnt)
        if len(learnt) == 1:
            if not self._enqueue(learnt[0], None):
                self._level0_conflict()
            return
        clause = _Clause(list(learnt), learnt=True, lbd=lbd)
        self.learnts.append(clause)
        self._watchlist(learnt[0]).append(clause)
        self._watchlist(learnt[1]).append(clause)
        self._enqueue(learnt[0], clause)

    # -- clause database ---------------------------------------------------

    def reduce_db(self):
        """Tiered reduction: keep lbd <= keep_lbd, plus clauses used since the
        last reduction."""
        drop = []
        for c in self.learnts:
            if c.lbd <= self.config.keep_lbd or c.used:
                c.used = False
            else:
                drop.append(c)
        self._remove_learnts(drop)

    def _remove_learnts(self, clauses: list[_Clause]):
        locked = {id(self.reasons[abs(l)]) for l in self.trail
                  if self.reasons[abs(l)] is not None}
        dead = {id(c) for c in clauses if id(c) not in locked}
        if not dead:
            return
        for lit in list(self.watches):
            self.watches[lit] = [c for c in self.watches[lit] if id(c) not in dead]
        if self.drat is not None:
            for c in clauses:
                if id(c) in dead:
                    self.drat.delete(c.lits)
        self.learnts = [c for c in self.learnts if id(c) not in dead]

    def export_learnts(self) -> list[LearntSnapshot]:
        if self.decision_level != 0:
            raise RuntimeError("export_learnts requires decision level 0")
        return [LearntSnapshot(tuple(c.lits), c.lbd) for c in self.learnts]

    def replace_learnts(self, kept: list[LearntSnapshot]):
        """Drop every learnt clause whose literals are not in `kept`."""
        if self.decision_level != 0:
            raise RuntimeError("replace_learnts requires decision level 0")
        keep_keys = {frozenset(s.lits) for s in kept}
        drop = [c for c in self.learnts if frozenset(c.lits) not in keep_keys]
        self._remove_learnts(drop)

    def import_learnts(self, snapshots: list[LearntSnapshot]):
        """Install clauses at level 0; importing implied clauses is sound."""
        if self.decision_level != 0:
            raise RuntimeError("import_learnts requires decision level 0")
        existing = {frozenset(c.lits) for c in self.learnts}
        for snap in snapshots:
            lits = list(snap.lits)
            if frozenset(lits) in existing:
                continue
            if self.drat is not None:
                self.drat.add(lits)
            if len(lits) == 1:
                if not self._enqueue(lits[0], None):
                    self._level0_conflict()
                continue
            free = [l for l in lits if self.value_of(l) != -1]
            if any(self.value_of(l) == 1 for l in lits) or len(free) >= 2:
                lits.sort(key=lambda l: self.value_of(l), reverse=True)
            elif len(free) == 1:
                if not self._enqueue(free[0], None):
                    self._level0_conflict()
                continue
            else:  # falsified at level 0
                self._level0_conflict()
                continue
            clause = _Clause(lits, learnt=True, lbd=snap.lbd)
            self.learnts.append(clause)
            self._watchlist(lits[0]).append(clause)
            self._watchlist(lits[1]).append(clause)
        if self.propagate() is not None and self.decision_level == 0:
            self._level0_conflict()

    # -- main loop ---------------------------------------------------------

    def solve(self, conflict_budget: int | None = None,
              time_budget: float | None = None) -> SolveOutcome:
        """Run until SAT/UNSAT or a budget runs out (resumable)."""
        conflict_budget = conflict_budget or self.config.conflict_budget
        time_budget = time_budget or self.config.time_budget
        start = time.monotonic()
        start_conflicts = self.stats.conflicts
        restart_limit = self.config.restart_unit * luby(self._restart_count)

        def done_budget() -> bool:
            if conflict_budget is not None and \
                    self.stats.conflicts - start_conflicts >= conflict_budget:
                return True
            if time_budget is not None and \
                    time.monotonic() - start >= time_budget:
                return True
            return False

        outcome = None
        while outcome is None:
            if self.unsat:
                outcome = Status.UNSAT
                break
            conflict = self.propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                self._conflicts_since_restart += 1
                if self.decision_level == 0:
                    self._level0_conflict()
                    outcome = Status.UNSAT
                    break
                learnt, bj_level, lbd = self.analyze_conflict(conflict)
                self._backtrack(bj_level)
                self._learn(learnt, lbd)
                self.var_inc /= self.config.var_decay
                if self.stats.conflicts >= self._next_reduce:
                    self._next_reduce += self.config.reduce_interval
                    self.reduce_db()
                if done_budget():
                    outcome = Status.UNKNOWN
                    break
                continue
            if self._conflicts_since_restart >= restart_limit:
                if self.on_restart is not None:
                    decisions = [self.trail[i] for i in self.trail_lim]
                    self.on_restart(decisions)
                self._backtrack(0)
                self.stats.restarts += 1
                self._restart_count += 1
                self._conflicts_since_restart = 0
                restart_limit = self.config.restart_unit * luby(self._restart_count)
                continue
            if done_budget():
                outcome = Status.UNKNOWN
                break
            if self.decide() is None:
                outcome = Status.SAT
                break

        self.stats.learnt_current = len(self.learnts)
        self.stats.wall_time += time.monotonic() - start
        model = None
        if outcome is Status.SAT:
            model = {v: self.values[v] == 1 if self.values[v] != 0 else False
                     for v in range(1, self.nvars + 1)}
            self._verify_model(model)
        return SolveOutcome(outcome, model, self.stats)

    def pause_at_level0(self):
        """Backtrack to the root level so learnt clauses can be exported."""
        self._backtrack(0)

    def _verify_model(self, model: dict[int, bool]):
        for cl in self.original_clauses:
            if not any(model[abs(l)] == (l > 0) for l in cl):
                raise RuntimeError(f"internal error: model violates clause {cl}")


def solve(cnf: CnfFormula, config: SolverConfig | None = None,
          phase_hook=None, on_restart=None, drat_sink=None) -> SolveOutcome:
    return Solver(cnf, config, phase_hook=phase_hook, on_restart=on_restart,
                  drat_sink=drat_sink).solve()
