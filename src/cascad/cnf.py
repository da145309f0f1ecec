"""Tseitin encoding with a variable-gate map, and DIMACS parsing.

Literals are DIMACS-style signed ints: +v / -v for variable v >= 1.  Only
PI, AND and CONST0 gates own a variable; a NOT gate is the sign of its
fanin's literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

from .circuit import Circuit, GateKind
from .gcpause import paused_gc


class CnfError(Exception):
    pass


def check_literals(clauses, num_vars: int):
    """Raise CnfError if a literal in ``clauses`` (lists of literals) is 0
    or names no variable in 1..num_vars; the message names the first one.

    An unchecked literal would alias another literal's slot in the solver's
    literal-indexed arrays.  The test is one C-level pass over the literals
    into a set, then three over its distinct members.
    """
    lits = set(chain.from_iterable(clauses))
    if lits and (0 in lits or max(lits) > num_vars or min(lits) < -num_vars):
        bad = next(l for l in chain.from_iterable(clauses)
                   if l == 0 or abs(l) > num_vars)
        raise CnfError(f"literal {bad} out of range (num_vars={num_vars})")


def check_model(clauses, model: dict[int, bool]):
    """Raise unless every clause has a literal true in ``model``, a value
    for each variable."""
    true_lits = {v if val else -v for v, val in model.items()}
    violated = next(filter(true_lits.isdisjoint, clauses), None)
    if violated is not None:
        raise RuntimeError(f"internal error: model violates clause {violated}")


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        check_literals(self.clauses, self.num_vars)


@dataclass
class VarGateMap:
    """Which variable carries which gate.

    ``gate_to_var`` and ``var_to_gate`` are a bijection between the
    variables and the gates that own them: the PI, AND and CONST0 gates.
    ``gate_lits[g]`` is the literal that carries gate g's value, for every
    gate: a NOT gate's is the negated literal of its fanin, so it owns no
    variable.
    """
    gate_to_var: dict[int, int] = field(default_factory=dict)
    var_to_gate: dict[int, int] = field(default_factory=dict)
    gate_lits: list[int] = field(default_factory=list)


def signal_to_lit(vmap: VarGateMap, gate: int, polarity: bool = True) -> int:
    lit = vmap.gate_lits[gate]
    return lit if polarity else -lit


def lit_to_signal(vmap: VarGateMap, lit: int) -> tuple[int, bool]:
    """The owning gate of ``lit``'s variable and the value ``lit`` gives it;
    a NOT gate is never returned, since it owns no variable.  A KeyError
    means ``vmap`` is not the map of the CNF ``lit`` comes from."""
    return vmap.var_to_gate[abs(lit)], lit > 0


@paused_gc()
def tseitin_encode(circuit: Circuit,
                   assert_outputs: list[tuple[int, bool]] | None = None
                   ) -> tuple[CnfFormula, VarGateMap]:
    """Standard (full, not polarity-reduced) Tseitin encoding, with
    inverters as literal signs.

    Only PI, AND and CONST0 gates own a variable, numbered densely from 1 in
    gate (topological) order.  A NOT gate's literal is the negation of its
    fanin's, so NOT chains resolve to a signed literal of the gate at their
    foot and add no variable and no clause (Een, Mishchenko & Sorensson,
    SAT 2007).  Each owner's clauses come in gate order: [-v] for the
    constant; [-v, a], [-v, b], [v, -a, -b] for v = AND(a, b), where a and b
    are the fanins' signed literals.  AND(x, NOT x) thus gives the
    tautology [v, -a, a]; it keeps its place, and so its proof id, and the
    solver never watches it.
    """
    gate_lits = [0] * len(circuit.gates)
    owners: list[int] = []
    clauses: list[list[int]] = []
    add = clauses.extend
    AND, NOT, CONST0 = GateKind.AND, GateKind.NOT, GateKind.CONST0
    for g, (kind, fanins) in enumerate(circuit.gates):
        if kind is NOT:
            gate_lits[g] = -gate_lits[fanins[0]]
            continue
        owners.append(g)
        v = gate_lits[g] = len(owners)
        if kind is AND:
            a = gate_lits[fanins[0]]
            b = gate_lits[fanins[1]]
            add(([-v, a], [-v, b], [v, -a, -b]))
        elif kind is CONST0:
            clauses.append([-v])
    # the map shares the owners' variable ints with gate_lits and the clauses
    var_ids = [gate_lits[g] for g in owners]
    vmap = VarGateMap(dict(zip(owners, var_ids)), dict(zip(var_ids, owners)),
                      gate_lits)
    for gate, polarity in (assert_outputs or []):
        clauses.append([signal_to_lit(vmap, gate, polarity)])
    return CnfFormula(len(owners), clauses), vmap


# ASCII digits only: int() would also take '+', underscores and other
# scripts' digits
_COUNT = re.compile("[0-9]+")
_LITERAL = re.compile("-?[0-9]+")


def parse_dimacs(data: bytes) -> CnfFormula:
    if isinstance(data, bytes):
        try:
            data = data.decode()
        except UnicodeDecodeError as e:
            raise CnfError(f"DIMACS input is not UTF-8: {e}") from e
    num_vars = None
    num_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, line in enumerate(data.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise CnfError(f"line {lineno}: second problem line {line!r}")
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not all(map(_COUNT.fullmatch, parts[2:]))):
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise CnfError(f"line {lineno}: clause before problem line")
        toks = line.split()
        if not all(map(_LITERAL.fullmatch, toks)):
            raise CnfError(f"line {lineno}: non-integer literal in {line!r}")
        for lit in map(int, toks):
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise CnfError(f"line {lineno}: literal {lit} exceeds "
                                   f"declared {num_vars} variables")
                current.append(lit)
    if num_vars is None:
        raise CnfError("no problem line")
    if current:
        raise CnfError("unterminated final clause (missing 0)")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise CnfError(f"header declares {num_clauses} clauses, body has {len(clauses)}")
    return CnfFormula(num_vars, clauses)
