"""DRAT proof logging and an independent forward RUP checker.

The solver's learnt clauses are all reverse-unit-propagation (RUP) clauses,
so a forward RUP check over added/deleted clauses is a complete validity
check for its proofs.  The checker shares no code with the solver's
propagation engine.  It follows drat-trim (Wetzler, Heule & Hunt, SAT 2014)
with MiniSat's two watched literals and binary implication lists (Een &
Sorensson, SAT 2003):

- every clause gets an id; unit clauses sit in their own list, binary
  clauses in implication lists (``bins[lit]`` holds the literals implied
  once ``lit`` is false), longer ones under two watchers;
- a multiset index maps each clause's set of literals to its live ids, so a
  ``d`` step removes exactly one live copy whatever order its literals come
  in (the solver reorders a clause's literals in place), and deleting a
  clause that is not live does nothing;
- a deleted clause leaves its watchers behind; a propagation scan that
  reaches one drops it.  A deleted binary clause leaves both lists at once;
- the unit-propagation closure of the live clauses stays assigned between
  steps (the level-0 trail).  An ``a`` step is RUP at once if one of its
  literals is true there; otherwise it assumes the negation of the clause's
  unassigned literals, propagates from them, and undoes back to the level-0
  trail.  A new clause is watched on non-false literals; one that is unit at
  level 0 extends the trail.  A clause with no non-false literal, or a
  conflict at level 0, makes the formula inconsistent, and every later
  clause is then RUP;
- a ``d`` step rebuilds the trail from the live unit clauses when the state
  is inconsistent or the deleted clause could be the reason of a level-0
  literal (it has one true literal and all others false); any other deletion
  leaves the trail as it is.

Hinted RUP, after LRAT (Cruz-Filipe, Heule, Hunt, Kaufmann & Schneider-Kamp,
CADE 2017).  Clause ids count in attach order: original clause i is id i,
tautologies and repeats included, then each ``a`` step takes the next id.
A sink's ``add(lits, hints)`` may carry the ids of the clauses that unit
propagation uses to refute the lemma, in order; the solver passes the
reasons it resolved, then the conflict clause.  Hints are advisory.  After
assuming the lemma's negation, the checker replays them while each names a
live clause that is unit (its literal is assigned true) or falsified (the
lemma is RUP).  The first hint that is out of range, deleted, satisfied or
has two unassigned literals ends the replay, and ordinary propagation from
the assumptions decides.  Every replayed step is a unit-propagation step over
a live clause, so hints cannot make a lemma pass that is not RUP; they only
spare the search for the propagations that refute it.  ``DratProof`` keeps
the hints beside its steps; DRAT text has no place for them, so
``DratFileSink`` drops them and its output is unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter


class DratError(ValueError):
    """Malformed DRAT text."""


def format_step(kind: str, lits) -> str:
    """One ASCII DRAT line, without its newline."""
    body = " ".join(map(str, [*lits, 0]))
    return body if kind == "a" else "d " + body


@dataclass
class DratProof:
    """In-memory proof: list of ('a'|'d', lits) steps, and the hints of the
    ``a`` steps that have some, keyed by step index."""
    steps: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    hints: dict[int, list[int]] = field(default_factory=dict)

    def add(self, lits, hints=None):
        if hints:
            self.hints[len(self.steps)] = hints
        self.steps.append(("a", tuple(lits)))

    def delete(self, lits):
        self.steps.append(("d", tuple(lits)))


class DratFileSink:
    """Streams ASCII DRAT lines to a file; keeps no copy in memory."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w")

    def add(self, lits, hints=None):
        """DRAT text has no field for hints, so they are dropped."""
        self._fh.write(format_step("a", lits) + "\n")

    def delete(self, lits):
        self._fh.write(format_step("d", lits) + "\n")

    def close(self):
        self._fh.close()


# ASCII digits only: int() would also take '+', underscores and other
# scripts' digits
_LITERAL = re.compile("-?[0-9]+")


def parse_drat(text: str) -> DratProof:
    proof = DratProof()
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        kind = "a"
        if toks[0] == "d":
            kind = "d"
            toks = toks[1:]
        if not toks or toks[-1] != "0":
            raise DratError(f"malformed DRAT line {line!r}")
        if not all(map(_LITERAL.fullmatch, toks)):
            raise DratError(f"bad literal in DRAT line {line!r}")
        lits = tuple(map(int, toks[:-1]))
        if 0 in lits:
            raise DratError(f"literal 0 inside DRAT line {line!r}")
        proof.steps.append((kind, lits))
    return proof


def check_proof(clauses: list[list[int]], proof: DratProof) -> tuple[bool, str]:
    """Forward RUP check of an UNSAT proof against the original clauses.

    Returns (ok, reason).  ok requires every added clause to be RUP at its
    point in the proof and the proof to derive the empty clause.  The
    proof's hints, if any, only speed the check up.
    """
    nonempty = list(filter(None, chain(clauses,
                                       map(itemgetter(1), proof.steps))))
    nvars = max(max(map(max, nonempty), default=0),
                -min(map(min, nonempty), default=0))
    # value[lit] is 1 when lit is true, -1 when false, 0 when unassigned.  A
    # negative literal indexes from the end, so lit and -lit own distinct
    # cells; the same holds for watches[lit], the ids of clauses of three or
    # more literals watching lit, and bins[lit], the literals that binary
    # clauses imply once lit is false.
    size = 2 * nvars + 1
    value = [0] * size
    watches: list[list[int]] = [[] for _ in range(size)]
    bins: list[list[int]] = [[] for _ in range(size)]
    db: list[list[int] | None] = []  # clause id -> literals, None once deleted
    units: list[int] = []            # ids of live clauses of < 2 literals
    live: dict[frozenset[int], list[int]] = {}
    # The level-0 closure of the live clauses, followed during an ``a`` step
    # by that step's assumptions and their consequences.
    trail: list[int] = []

    def attach(lits):
        cid = len(db)
        db.append(lits)
        live.setdefault(frozenset(lits), []).append(cid)
        if len(lits) < 2:
            units.append(cid)
        elif len(lits) == 2:
            first, second = lits
            bins[first].append(second)
            bins[second].append(first)
        else:
            watches[lits[0]].append(cid)
            watches[lits[1]].append(cid)

    def propagate(head: int) -> bool:
        """Propagate the trail from position head; True on a conflict."""
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            for lit in bins[false_lit]:
                if value[lit] != 1:
                    if value[lit] == -1:
                        return True
                    value[lit], value[-lit] = 1, -1
                    trail.append(lit)
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                cid = ws[i]
                i += 1
                c = db[cid]
                if c is None:
                    continue  # deleted clause: drop its watcher
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first] != 1:
                    for k in range(2, len(c)):
                        other = c[k]
                        if value[other] != -1:
                            c[1], c[k] = other, false_lit
                            watches[other].append(cid)
                            break
                    else:
                        ws[j] = cid
                        j += 1
                        if value[first] == -1:
                            ws[j:] = ws[i:]
                            return True
                        value[first], value[-first] = 1, -1
                        trail.append(first)
                    continue
                ws[j] = cid
                j += 1
            del ws[j:]
        return False

    def rebuild() -> bool:
        """Level-0 closure of the live clauses from scratch; False if it
        conflicts.  With nothing assigned, any two literals are valid
        watches."""
        for lit in trail:
            value[lit] = value[-lit] = 0
        trail.clear()
        for cid in units:
            if not db[cid]:
                return False  # a live empty clause
            lit = db[cid][0]
            if value[lit] == -1:
                return False
            if value[lit] == 0:
                value[lit], value[-lit] = 1, -1
                trail.append(lit)
        return not propagate(0)

    def replay(hints) -> bool:
        """Unit steps over the hinted clauses; True once one is falsified.
        Stops at the first hint that names no live clause, is satisfied or
        has two unassigned literals."""
        for cid in hints:
            c = db[cid] if 0 <= cid < len(db) else None
            if c is None:
                return False
            unit = 0
            for lit in c:
                val = value[lit]
                if val == 1:
                    return False
                if val == 0:
                    if unit:
                        return False
                    unit = lit
            if not unit:
                return True
            value[unit], value[-unit] = 1, -1
            trail.append(unit)
        return False

    def is_rup(lits, hints) -> bool:
        base = len(trail)
        try:
            for lit in lits:
                if value[lit] == 1:
                    return True  # true at level 0, or lit and -lit both in lits
                if value[lit] == 0:
                    value[lit], value[-lit] = -1, 1
                    trail.append(-lit)
            return replay(hints) or propagate(base)
        finally:
            for lit in trail[base:]:
                value[lit] = value[-lit] = 0
            del trail[base:]

    for cl in clauses:
        attach(list(dict.fromkeys(cl)))
    consistent = rebuild()  # False: level 0 conflicts, so every lemma is RUP
    derived_empty = False
    for step_no, (kind, lits) in enumerate(proof.steps):
        if kind == "d":
            ids = live.get(frozenset(lits))
            if ids:
                cid = ids.pop()
                c = db[cid]
                db[cid] = None
                if len(c) < 2:
                    units.remove(cid)
                elif len(c) == 2:
                    bins[c[0]].remove(c[1])
                    bins[c[1]].remove(c[0])
                # A level-0 reason has one true literal and all others false.
                vals = [value[lit] for lit in c]
                if not consistent or (0 not in vals and vals.count(1) == 1):
                    consistent = rebuild()
            continue
        if consistent and not is_rup(lits, proof.hints.get(step_no, ())):
            return False, f"step {step_no}: clause {list(lits)} is not RUP"
        if not lits:
            derived_empty = True
            break
        # Watch non-false literals, true ones first.  A RUP lemma has one
        # (level 0 is closed), and with only one it is satisfied or unit.
        lits = sorted(dict.fromkeys(lits), key=value.__getitem__, reverse=True)
        attach(lits)
        first = lits[0]
        if consistent and value[first] == 0 and \
                (len(lits) == 1 or value[lits[1]] == -1):
            value[first], value[-first] = 1, -1
            trail.append(first)
            consistent = not propagate(len(trail) - 1)
    if not derived_empty:
        return False, "proof does not derive the empty clause"
    return True, "ok"
