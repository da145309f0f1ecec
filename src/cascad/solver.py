"""CDCL SAT solver with first-UIP learning, two-watched-literal propagation,
VSIDS decisions, Luby restarts, LBD-tiered clause-DB reduction, and hook
points for external phase and clause-filter policies.

Literals are DIMACS signed ints.  The value and watch arrays are indexed by
literal: a list of length 2*nvars+1 read with a negative index puts literal
-k in slot 2*nvars+1-k, so a lookup is values[lit] with no sign flip, and
values[v] is still variable v's value.  One Solver instance is
single-threaded; solve() is resumable, so a caller can stop at a conflict
budget, rewrite the learnt-clause database, and resume.  A DRAT sink gets
each lemma with its unit-propagation hints (see cascad.drat).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush

from .cnf import CnfFormula, check_literals
from .gcpause import paused_gc


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


REDUCE_INTERVAL = 2000  # conflicts between learnt-clause DB reductions
VAR_DECAY = 0.95        # VSIDS activity decay per conflict


@dataclass
class SolverConfig:
    """How the search runs; how long it runs is ``Solver.solve``'s
    budgets."""
    restart_unit: int = 64          # Luby base, in conflicts
    keep_lbd: int = 2               # reduce_db keeps learnt clauses with lbd <= this
    phase_saving: bool = True       # else an unhooked decision assigns false


# UNSAT-tuned variant: longer restarts, wider LBD keep, fixed false phases,
# meant to be run without a phase hook.
UNSAT_TUNED = SolverConfig(restart_unit=512, keep_lbd=3, phase_saving=False)


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


class _Clause:
    __slots__ = ("lits", "id", "lbd", "used")

    def __init__(self, lits, cid, lbd=0):
        self.lits = lits
        self.id = cid  # proof id, see Solver.__init__
        self.lbd = lbd  # 0 for an original clause
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
    @paused_gc()
    def __init__(self, cnf: CnfFormula, config: SolverConfig | None = None,
                 phase_hook=None, drat_sink=None):
        self.config = config or SolverConfig()
        self.phase_hook = phase_hook
        self.drat = drat_sink
        self.nvars = cnf.num_vars
        check_literals(cnf.clauses, self.nvars)

        n = self.nvars + 1
        # indexed by literal (see the module docstring); 0 unassigned,
        # 1 true, -1 false
        self.values = [0] * (2 * n - 1)
        self.watches: list[list[_Clause]] = [[] for _ in range(2 * n - 1)]
        self.levels = [0] * n
        self.reasons: list[_Clause | None] = [None] * n
        self.saved_phase: list[bool | None] = [None] * n
        self.activity = [0.0] * n
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.learnts: list[_Clause] = []
        self.stats = SolverStats()
        self.unsat = False
        # lazy VSIDS heap of (-activity, v); _queued[v] is the activity at
        # which v has an entry, -1.0 if it has none.  Every unassigned
        # variable has an entry at its current activity, so a pick is the
        # least (-activity, v) over unassigned variables, whatever stale
        # entries the heap also holds; _backtrack drops those once the heap
        # outgrows 2*nvars entries.
        self._order = [(0.0, v) for v in range(1, n)]  # sorted, so a heap
        self._queued = [0.0] * n
        self._seen = [False] * n
        self._conflicts_since_restart = 0
        self._next_reduce = REDUCE_INTERVAL
        # Proof ids number clauses as a DRAT checker attaches them: original
        # clause i is id i, tautologies included, then each logged lemma
        # takes the next id.  The empty clause ends a proof, so it takes none.
        self._next_id = len(cnf.clauses)

        # Each clause is copied once, without repeated literals and in
        # first-occurrence order.  A watched clause's list is also its entry
        # in original_clauses: propagate reorders it, which keeps its
        # meaning.  A tautology constrains nothing and is not watched.
        # Clauses of 2 and 3 literals, nearly all of a Tseitin encoding,
        # are deduplicated by comparisons that allocate nothing.
        watches = self.watches
        original = self.original_clauses = []
        keep = original.append
        for cid, cl in enumerate(cnf.clauses):
            size = len(cl)
            if size == 2:
                a, b = cl
                if a == -b:
                    keep([a, b])
                    continue
                lits = [a, b] if a != b else [a]
            elif size == 3:
                a, b, c = cl
                if a == -b or a == -c or b == -c:
                    keep([a, b, c])
                    continue
                if a != b and a != c and b != c:
                    lits = [a, b, c]
                elif a != b:  # c repeats a or b
                    lits = [a, b]
                else:
                    lits = [a, c] if a != c else [a]
            else:
                lits = dict.fromkeys(cl)
                if not lits.keys().isdisjoint(map(operator.neg, lits)):
                    keep(list(cl))
                    continue
                lits = list(lits)
            keep(lits)
            if len(lits) >= 2:
                clause = _Clause(lits, cid)
                watches[lits[0]].append(clause)
                watches[lits[1]].append(clause)
            elif not lits or not self._enqueue(lits[0], None):
                self._level0_conflict()  # empty clause or clashing units

    # -- basic machinery ---------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    @property
    def decisions(self) -> list[int]:
        """The decided literals on the trail, oldest first; a phase hook
        sees those made before the decision it is asked about."""
        trail = self.trail
        return [trail[i] for i in self.trail_lim]

    def _level0_conflict(self):
        self.unsat = True
        if self.drat is not None:
            self.drat.add([])

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        val = self.values[lit]
        if val:
            return val == 1
        self.values[lit] = 1
        self.values[-lit] = -1
        v = lit if lit > 0 else -lit
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.saved_phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def propagate(self) -> _Clause | None:
        """Unit propagation to fixpoint; returns the conflicting clause."""
        trail = self.trail
        values = self.values
        watches = self.watches
        levels = self.levels
        reasons = self.reasons
        saved_phase = self.saved_phase
        level = len(self.trail_lim)
        start = qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            watchers = watches[neg]
            i = 0
            end = len(watchers)
            while i < end:
                clause = watchers[i]
                lits = clause.lits
                # make sure the falsified literal sits at position 1
                first = lits[0]
                if first == neg:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = neg
                val = values[first]
                if val == 1:
                    i += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if values[other] != -1:
                        lits[1], lits[k] = other, lits[1]
                        watches[other].append(clause)
                        end -= 1
                        watchers[i] = watchers[end]
                        watchers.pop()
                        break
                else:
                    # clause is unit or conflicting on lits[0]
                    if val:
                        self.qhead = qhead
                        self.stats.propagations += qhead - start
                        return clause
                    values[first] = 1
                    values[-first] = -1
                    v = first if first > 0 else -first
                    levels[v] = level
                    reasons[v] = clause
                    saved_phase[v] = first > 0
                    trail.append(first)
                    clause.used = True
                    i += 1
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return None

    # -- decisions ---------------------------------------------------------

    def _rescale_activity(self):
        activity = self.activity
        for u in range(1, self.nvars + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_order()

    def _rebuild_order(self):
        """Queue exactly the unassigned variables, dropping stale entries."""
        activity = self.activity
        values = self.values
        queued = self._queued
        order = []
        for u in range(1, self.nvars + 1):
            if values[u] == 0:
                order.append((-activity[u], u))
                queued[u] = activity[u]
            else:
                queued[u] = -1.0
        heapify(order)
        self._order = order

    def _pick_branch_var(self) -> int | None:
        order = self._order
        values = self.values
        activity = self.activity
        while order:
            negact, v = order[0]
            if values[v] != 0 or -negact != activity[v]:
                heappop(order)
                if -negact == activity[v]:
                    self._queued[v] = -1.0
                continue
            return v
        return None  # every variable is assigned

    def _pick_phase(self, v: int) -> bool:
        if self.phase_hook is not None:
            phase = self.phase_hook(v)
            if phase is not None:
                return phase
        return self.config.phase_saving and bool(self.saved_phase[v])

    def decide(self) -> int | None:
        v = self._pick_branch_var()
        if v is None:
            return None
        self.stats.decisions += 1
        lit = v if self._pick_phase(v) else -v
        self.trail_lim.append(len(self.trail))
        self._enqueue(lit, None)
        return lit

    # -- conflict analysis -------------------------------------------------

    def analyze_conflict(self, conflict: _Clause
                         ) -> tuple[list[int], int, int, list[_Clause]]:
        """First-UIP learnt clause, backjump level, LBD, and the clauses
        resolved: the conflict, then the reasons in reverse trail order.

        Bumped variables are all assigned, so _backtrack queues them at
        their new activity when it unassigns them."""
        levels = self.levels
        reasons = self.reasons
        trail = self.trail
        activity = self.activity
        seen = self._seen
        var_inc = self.var_inc
        level = len(self.trail_lim)
        learnt = [0]
        chain = [conflict]
        counter = 0
        lits = conflict.lits
        idx = len(trail) - 1
        p = 0
        while True:
            for q in lits:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and levels[v] > 0:
                    seen[v] = True
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > 1e100:
                        self._rescale_activity()
                        var_inc = self.var_inc
                    if levels[v] == level:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            v = p if p > 0 else -p
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = reasons[v]
            chain.append(reason)
            lits = reason.lits
        learnt[0] = -p
        for q in learnt:
            seen[q if q > 0 else -q] = False

        if len(learnt) == 1:
            return learnt, 0, 1, chain
        # move the highest-level tail literal to position 1
        k, bj_level = 1, -1
        lbd_levels = {level}
        for j in range(1, len(learnt)):
            q = learnt[j]
            lv = levels[q if q > 0 else -q]
            lbd_levels.add(lv)
            if lv > bj_level:
                k, bj_level = j, lv
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, bj_level, len(lbd_levels), chain

    def _backtrack(self, level: int):
        trail_lim = self.trail_lim
        trail = self.trail
        if len(trail_lim) > level:
            values = self.values
            activity = self.activity
            queued = self._queued
            order = self._order
            limit = trail_lim[level]
            # reasons[v] of an unassigned variable is never read, so it stays
            for lit in trail[limit:]:
                values[lit] = 0
                values[-lit] = 0
                v = lit if lit > 0 else -lit
                act = activity[v]
                if queued[v] != act:
                    queued[v] = act
                    heappush(order, (-act, v))
            del trail[limit:]
            del trail_lim[level:]
            if len(order) > 2 * self.nvars:
                self._rebuild_order()
        self.qhead = len(trail)

    def _learn(self, learnt: list[int], lbd: int, chain: list[_Clause]):
        self.stats.learnt_total += 1
        cid = self._next_id
        self._next_id += 1
        if self.drat is not None:
            # unit-propagation hints: under the lemma's negation each reason
            # is unit in trail order, and then the conflict is falsified
            self.drat.add(learnt, [c.id for c in reversed(chain)])
        if len(learnt) == 1:
            if not self._enqueue(learnt[0], None):
                self._level0_conflict()
            return
        clause = _Clause(list(learnt), cid, lbd)
        self.learnts.append(clause)
        self.watches[learnt[0]].append(clause)
        self.watches[learnt[1]].append(clause)
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
        reasons = self.reasons
        locked = {id(reasons[l if l > 0 else -l]) for l in self.trail}
        dead = [c for c in clauses if id(c) not in locked]
        if not dead:
            return
        dead_ids = {id(c) for c in dead}
        # a clause is watched by exactly its first two literals
        for lit in {l for c in dead for l in c.lits[:2]}:
            self.watches[lit] = [c for c in self.watches[lit]
                                 if id(c) not in dead_ids]
        if self.drat is not None:
            for c in dead:
                self.drat.delete(c.lits)
        self.learnts = [c for c in self.learnts if id(c) not in dead_ids]

    def export_learnts(self) -> list[LearntSnapshot]:
        """The learnt clauses, after a backtrack to the root."""
        self._backtrack(0)
        return [LearntSnapshot(tuple(c.lits), c.lbd) for c in self.learnts]

    def keep_learnts(self, keep: list[bool]):
        """Backtrack to the root and drop learnt clause i of
        ``export_learnts()`` unless keep[i]."""
        if len(keep) != len(self.learnts):
            raise ValueError(f"{len(keep)} keep flags for "
                             f"{len(self.learnts)} learnt clauses")
        self._backtrack(0)
        self._remove_learnts([c for c, k in zip(self.learnts, keep) if not k])

    # -- main loop ---------------------------------------------------------

    def solve(self, conflict_budget: int | None = None,
              time_budget: float | None = None) -> SolveOutcome:
        """Run until SAT/UNSAT or a budget runs out (resumable).  None
        means unbounded; a given budget must be positive."""
        if any(b is not None and b <= 0 for b in (conflict_budget, time_budget)):
            raise ValueError("budgets must be positive")
        start = time.monotonic()
        start_conflicts = self.stats.conflicts
        restart_limit = self.config.restart_unit * luby(self.stats.restarts)

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
                learnt, bj_level, lbd, chain = self.analyze_conflict(conflict)
                self._backtrack(bj_level)
                self._learn(learnt, lbd, chain)
                self.var_inc /= VAR_DECAY
                if self.stats.conflicts >= self._next_reduce:
                    self._next_reduce += REDUCE_INTERVAL
                    self.reduce_db()
                if done_budget():
                    outcome = Status.UNKNOWN
                    break
                continue
            if self._conflicts_since_restart >= restart_limit:
                self._backtrack(0)
                self.stats.restarts += 1
                self._conflicts_since_restart = 0
                restart_limit = self.config.restart_unit * luby(self.stats.restarts)
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
            values = self.values
            model = {v: values[v] == 1 for v in range(1, self.nvars + 1)}
            self._verify_model(model)
        return SolveOutcome(outcome, model, self.stats)

    def _verify_model(self, model: dict[int, bool]):
        """Raise unless every original clause has a literal true in model."""
        true_lits = {v if val else -v for v, val in model.items()}
        violated = next(filter(true_lits.isdisjoint, self.original_clauses),
                        None)
        if violated is not None:
            raise RuntimeError(f"internal error: model violates clause {violated}")
