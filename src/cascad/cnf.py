"""Tseitin encoding and DIMACS I/O with a bidirectional variable-gate map.

Literals are DIMACS-style signed ints: +v / -v for variable v >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .circuit import Circuit, GateKind


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


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        check_literals(self.clauses, self.num_vars)


@dataclass
class VarGateMap:
    gate_to_var: dict[int, int] = field(default_factory=dict)
    var_to_gate: dict[int, int] = field(default_factory=dict)


def signal_to_lit(vmap: VarGateMap, gate: int, polarity: bool = True) -> int:
    var = vmap.gate_to_var[gate]
    return var if polarity else -var


def lit_to_signal(vmap: VarGateMap, lit: int) -> tuple[int, bool] | None:
    gate = vmap.var_to_gate.get(abs(lit))
    if gate is None:
        return None  # auxiliary variable with no circuit image
    return gate, lit > 0


def tseitin_encode(circuit: Circuit,
                   assert_outputs: list[tuple[int, bool]] | None = None
                   ) -> tuple[CnfFormula, VarGateMap]:
    """Standard (full, not polarity-reduced) Tseitin encoding.

    Gate i is variable i + 1, so variables follow the topological order and
    the map is total and bidirectional; NOT gates are encoded with two
    binary clauses.  Each gate's clauses come in gate order: [-v] for the
    constant; [-v, -a], [v, a] for v = NOT a; [-v, a], [-v, b], [v, -a, -b]
    for v = AND(a, b).
    """
    # one int object per gate id and per variable, shared by the map and
    # the clauses, so a formula holds no more ints than the variables need
    gate_ids = list(range(len(circuit.gates)))
    var_ids = list(range(1, len(gate_ids) + 1))
    vmap = VarGateMap(dict(zip(gate_ids, var_ids)), dict(zip(var_ids, gate_ids)))
    clauses: list[list[int]] = []
    add = clauses.extend
    AND, NOT, CONST0 = GateKind.AND, GateKind.NOT, GateKind.CONST0
    for v, (kind, fanins) in zip(var_ids, circuit.gates):
        if kind is AND:
            a = var_ids[fanins[0]]
            b = var_ids[fanins[1]]
            add(([-v, a], [-v, b], [v, -a, -b]))
        elif kind is NOT:
            a = var_ids[fanins[0]]
            add(([-v, -a], [v, a]))
        elif kind is CONST0:
            clauses.append([-v])
    for gate, polarity in (assert_outputs or []):
        clauses.append([signal_to_lit(vmap, gate, polarity)])
    return CnfFormula(len(var_ids), clauses), vmap


def emit_dimacs(cnf: CnfFormula, comments: list[str] | None = None) -> bytes:
    lines = [f"c {c}" for c in (comments or [])]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    lines += [" ".join(str(l) for l in cl) + " 0" for cl in cnf.clauses]
    return ("\n".join(lines) + "\n").encode()


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
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as e:
                raise CnfError(f"line {lineno}: malformed problem line {line!r}") from e
            if num_vars < 0 or num_clauses < 0:
                raise CnfError(f"line {lineno}: negative count in {line!r}")
            continue
        if num_vars is None:
            raise CnfError(f"line {lineno}: clause before problem line")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError as e:
            raise CnfError(f"line {lineno}: non-integer literal in {line!r}") from e
        for lit in lits:
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
