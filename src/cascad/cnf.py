"""Tseitin encoding and DIMACS I/O with a bidirectional variable-gate map.

Literals are DIMACS-style signed ints: +v / -v for variable v >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit, GateKind


class CnfError(Exception):
    pass


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        for cl in self.clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfError(f"literal {lit} out of range (num_vars={self.num_vars})")


@dataclass
class VarGateMap:
    gate_to_var: dict[int, int] = field(default_factory=dict)
    var_to_gate: dict[int, int] = field(default_factory=dict)

    def add(self, gate: int, var: int):
        self.gate_to_var[gate] = var
        self.var_to_gate[var] = gate


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

    Every gate gets its own variable, numbered by topological order; NOT
    gates are encoded with two binary clauses so the map stays total and
    bidirectional.
    """
    vmap = VarGateMap()
    clauses: list[list[int]] = []
    next_var = 1
    for i, g in enumerate(circuit.gates):
        v = next_var
        next_var += 1
        vmap.add(i, v)
        if g.kind is GateKind.CONST0:
            clauses.append([-v])
        elif g.kind is GateKind.NOT:
            a = vmap.gate_to_var[g.fanins[0]]
            clauses.append([-v, -a])
            clauses.append([v, a])
        elif g.kind is GateKind.AND:
            a, b = (vmap.gate_to_var[f] for f in g.fanins)
            clauses.append([-v, a])
            clauses.append([-v, b])
            clauses.append([v, -a, -b])
    for gate, polarity in (assert_outputs or []):
        clauses.append([signal_to_lit(vmap, gate, polarity)])
    return CnfFormula(next_var - 1, clauses), vmap


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
