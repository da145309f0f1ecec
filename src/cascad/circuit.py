"""And-inverter circuit graphs: parsing, levelization, miters, mutation.

Circuits are DAGs over two basic gate types (AND, NOT) plus primary inputs
and an optional constant-false node.  Inverters are explicit NOT nodes; AIGER
inverted edges are materialized on parse and re-absorbed on emit.
"""

from __future__ import annotations

import random
from collections import namedtuple
from enum import Enum
from itertools import chain

from .gcpause import paused_gc


class GateKind(Enum):
    PI = "PI"
    AND = "AND"
    NOT = "NOT"
    CONST0 = "CONST0"


_FANIN_COUNT = {
    GateKind.PI: 0,
    GateKind.CONST0: 0,
    GateKind.NOT: 1,
    GateKind.AND: 2,
}


class CircuitError(Exception):
    pass


class AigerParseError(CircuitError):
    pass


class CycleError(CircuitError):
    pass


class ShapeError(CircuitError):
    pass


class Gate(namedtuple("Gate", ("kind", "fanins"))):
    """One immutable gate: its kind and the ids of its fanin gates.

    A named tuple, so the Circuit builders, which always pass the right
    number of fanins, create one with a bare ``tuple.__new__``; calling
    ``Gate`` itself checks the fanin count.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, fanins: tuple[int, ...] = ()):
        if len(fanins) != _FANIN_COUNT[kind]:
            raise ShapeError(
                f"{kind.value} gate takes {_FANIN_COUNT[kind]} fanins, "
                f"got {len(fanins)}"
            )
        return tuple.__new__(cls, (kind, fanins))


_new = tuple.__new__  # an unchecked Gate: _new(Gate, (kind, fanins))
_AND = GateKind.AND
_NOT = GateKind.NOT
_PI_GATE = Gate(GateKind.PI)
_CONST0_GATE = Gate(GateKind.CONST0)


class Circuit:
    """Topologically ordered gate list with PI/PO bookkeeping.

    Treated as immutable once fully constructed; transforms return new
    circuits.  Gate ids are dense indices into ``gates``.
    """

    def __init__(self):
        self.gates: list[Gate] = []
        self.primary_inputs: list[int] = []
        self.primary_outputs: list[int] = []
        # shared NOT node per driven signal (hash-consing)
        self._not_cache: dict[int, int] = {}
        self._const0: int | None = None

    # -- construction -----------------------------------------------------

    def _append(self, gate: Gate) -> int:
        for f in gate.fanins:
            if not (0 <= f < len(self.gates)):
                raise ShapeError(f"fanin {f} out of range")
        self.gates.append(gate)
        return len(self.gates) - 1

    def add_pi(self) -> int:
        g = self._append(_PI_GATE)
        self.primary_inputs.append(g)
        return g

    def add_const0(self) -> int:
        if self._const0 is None:
            self._const0 = self._append(_CONST0_GATE)
        return self._const0

    def add_and(self, a: int, b: int) -> int:
        gates = self.gates
        n = len(gates)
        if not (0 <= a < n and 0 <= b < n):
            raise ShapeError(f"fanin {b if 0 <= a < n else a} out of range")
        gates.append(_new(Gate, (_AND, (a, b))))
        return n

    def add_not(self, a: int) -> int:
        gates = self.gates
        if not 0 <= a < len(gates):
            raise ShapeError(f"fanin {a} out of range")
        # collapse double negation through the shared-NOT table
        src = gates[a]
        if src.kind is _NOT:
            return src.fanins[0]
        g = self._not_cache.get(a)
        if g is None:
            g = len(gates)
            gates.append(_new(Gate, (_NOT, (a,))))
            self._not_cache[a] = g
        return g

    def set_outputs(self, pos: list[int]):
        for p in pos:
            if not (0 <= p < len(self.gates)):
                raise ShapeError(f"output {p} is not a gate id")
        self.primary_outputs = list(pos)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def stats(self) -> dict:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
        return {
            "gates": len(self.gates),
            "pis": len(self.primary_inputs),
            "pos": len(self.primary_outputs),
            "depth": max(levelize(self), default=0),
            "kinds": counts,
        }


def levelize(circuit: Circuit) -> list[int]:
    """Level of every gate: PIs at 0, level(g) = 1 + max fanin level.

    NOT gates count as one level.  The gate list is required to be
    topologically ordered; a fanin referencing a later gate indicates a
    cycle in the intended graph.
    """
    levels = [0] * len(circuit.gates)
    for i, g in enumerate(circuit.gates):
        for f in g.fanins:
            if f >= i:
                raise CycleError(f"gate {i} depends on later gate {f}")
        if g.fanins:
            levels[i] = 1 + max(levels[f] for f in g.fanins)
    return levels


# -- AIGER --------------------------------------------------------------------


@paused_gc()
def parse_aiger(data: bytes) -> Circuit:
    """Parse combinational AIGER, ASCII ("aag") or binary ("aig").

    ANDs are built in file order.  An AND whose fanins already exist, as in
    every file emit_aiger writes, is built at once; one that names a later
    AND first builds that AND and its own missing fanins, depth first.
    """
    if not isinstance(data, bytes):
        data = data.encode()
    nl = data.find(b"\n")
    if nl < 0:
        raise AigerParseError("missing header line")
    header = data[:nl].split()
    # M I L O A, then AIGER 1.9's optional B C J F
    if not 6 <= len(header) <= 10 or header[0] not in (b"aag", b"aig"):
        raise AigerParseError(f"malformed header: {data[:nl]!r}")
    # ASCII digits only: int() would also take a sign and underscores
    if not all(map(bytes.isdigit, header[1:])):
        raise AigerParseError(f"malformed header counts: {data[:nl]!r}")
    m, i, l, o, a, *properties = map(int, header[1:])
    if l > 0:
        raise AigerParseError(f"sequential AIGER rejected: {l} latches")
    if any(properties):
        raise AigerParseError("AIGER 1.9 bad-state, constraint, justice or "
                              f"fairness properties rejected: {data[:nl]!r}")

    if header[0] == b"aag":
        inputs, outputs, ands = _parse_ascii_body(data[nl + 1:], i, o, a)
    else:
        inputs, outputs, ands = _parse_binary_body(data[nl + 1:], i, o, a)

    circuit = Circuit()
    var_node: dict[int, int] = {}
    for lit in inputs:
        if lit & 1 or lit < 2:
            raise AigerParseError(f"invalid input literal {lit}")
        if lit >> 1 > m:
            raise AigerParseError(f"input literal {lit} exceeds maxvar {m}")
        if lit >> 1 in var_node:
            raise AigerParseError(f"input literal {lit} repeated")
        var_node[lit >> 1] = circuit.add_pi()
    and_def = _and_definitions(ands, var_node, m)

    gates = circuit.gates
    not_cache = circuit._not_cache
    it = iter(ands)
    for lhs, r0, r1 in zip(it, it, it):
        v = lhs >> 1
        if v in var_node:
            continue  # built early as the fanin of an AND listed before it
        # every variable in var_node is at most m, so a fanin found there
        # is in range; anything else takes the checked path
        n0 = var_node.get(r0 >> 1)
        n1 = var_node.get(r1 >> 1)
        if n0 is None or n1 is None:
            _materialize_and(circuit, v, ands, and_def, var_node, m)
            continue
        # fanins are PIs, ANDs or the constant, never NOTs, so a NOT is
        # either shared already or new
        if r0 & 1:
            n0 = not_cache.get(n0) or circuit.add_not(n0)
        if r1 & 1:
            n1 = not_cache.get(n1) or circuit.add_not(n1)
        var_node[v] = len(gates)
        gates.append(_new(Gate, (_AND, (n0, n1))))

    def node_of(lit: int) -> int:
        var = lit >> 1
        if var > m:
            raise AigerParseError(f"literal {lit} exceeds maxvar {m}")
        if var not in var_node:
            if var != 0:
                raise AigerParseError(f"dangling literal {lit}")
            var_node[0] = circuit.add_const0()
        node = var_node[var]
        return circuit.add_not(node) if lit & 1 else node

    circuit.set_outputs([node_of(lit) for lit in outputs])
    return circuit


def _and_definitions(ands: list[int], var_node: dict[int, int],
                     maxvar: int) -> dict[int, int]:
    """Map each AND's lhs variable to its position in the file, rejecting a
    bad, out-of-range or repeated lhs and one that names an input."""
    lhs_lits = ands[0::3]
    # (1).__rrshift__(x) is x >> 1, the lhs variable
    and_def = dict(zip(map((1).__rrshift__, lhs_lits), range(len(lhs_lits))))
    clean = (len(and_def) == len(lhs_lits)
             and and_def.keys().isdisjoint(var_node)
             and min(lhs_lits, default=2) >= 2
             and max(lhs_lits, default=0) >> 1 <= maxvar
             and not any(map((1).__and__, lhs_lits)))
    if not clean:  # name the first bad AND
        seen: set[int] = set()
        for k, lhs in enumerate(lhs_lits):
            if lhs & 1 or lhs < 2:
                raise AigerParseError(f"AND {k}: bad lhs {lhs}")
            if lhs >> 1 > maxvar:
                raise AigerParseError(f"literal {lhs} exceeds maxvar {maxvar}")
            if lhs >> 1 in var_node:
                raise AigerParseError(f"AND {k}: lhs {lhs} is an input")
            if lhs >> 1 in seen:
                raise AigerParseError(f"AND {k}: lhs {lhs} defined twice")
            seen.add(lhs >> 1)
    return and_def


def _materialize_and(circuit, var, ands, and_def, var_node, maxvar):
    """Build AND ``var`` after the ANDs it depends on, depth first.

    ``open_`` holds the ANDs whose fanins are being built, which is the
    current dependency path, so meeting one of them again is a cycle; an
    AND merely waiting on the stack may be needed by another as well.
    """
    stack = [var]
    open_: set[int] = set()
    while stack:
        v = stack[-1]
        if v in var_node:
            stack.pop()
            continue
        k = 3 * and_def[v]
        r0, r1 = ands[k + 1], ands[k + 2]
        deps = []
        for rl in (r0, r1):
            rv = rl >> 1
            if rv > maxvar:
                raise AigerParseError(f"literal {rl} exceeds maxvar {maxvar}")
            if rv not in var_node:
                if rv == 0:
                    var_node[0] = circuit.add_const0()
                elif rv in and_def:
                    if rv in open_:
                        raise CycleError(f"cyclic AND definition at variable {rv}")
                    deps.append(rv)
                else:
                    raise AigerParseError(f"dangling literal {rl}")
        if deps:
            open_.add(v)
            stack.extend(deps)
            continue
        stack.pop()
        open_.discard(v)
        fan = []
        for rl in (r0, r1):
            n = var_node[rl >> 1]
            fan.append(circuit.add_not(n) if rl & 1 else n)
        var_node[v] = circuit.add_and(fan[0], fan[1])


# the bytes of an ASCII AIGER literal line: int() strips this whitespace
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


def _parse_ascii_body(body: bytes, i, o, a):
    """Input and output literals, and the AND rows as one flat list
    [lhs, rhs0, rhs1, lhs, ...]."""
    need = i + o + a
    lines = body.split(b"\n", need)
    if len(lines) < need:
        raise AigerParseError(f"expected {need} body lines, got {len(lines)}")
    # one C-level pass over the literal lines for a byte int() would take
    # but AIGER does not allow: a sign or an underscore
    end = len(body) - (len(lines[need]) if len(lines) > need else 0)
    if body[:end].translate(None, _DIGITS_AND_SPACE):
        k = next(k for k in range(end) if body[k] not in _DIGITS_AND_SPACE)
        lineno = body.count(b"\n", 0, k) + 2
        raise AigerParseError(f"line {lineno}: {body[k:k + 1]!r} in a literal")
    rows = list(map(bytes.split, lines[i + o:need]))
    if rows and set(map(len, rows)) != {3}:
        k = next(k for k, parts in enumerate(rows) if len(parts) != 3)
        raise AigerParseError(f"AND line {i + o + k + 2}: expected 3 literals, "
                              f"got {lines[i + o + k]!r}")
    try:
        inputs = list(map(int, lines[:i]))
        outputs = list(map(int, lines[i:i + o]))
        ands = list(map(int, chain.from_iterable(rows)))
    except ValueError as e:
        raise AigerParseError(f"non-numeric literal in body: {e}") from e
    return inputs, outputs, ands


def _parse_binary_body(body: bytes, i, o, a):
    # binary AIGER: inputs are implicit literals 2..2i
    inputs = [2 * (k + 1) for k in range(i)]
    pos = 0
    outputs = []
    for _ in range(o):
        nl = body.find(b"\n", pos)
        if nl < 0:
            raise AigerParseError(f"truncated output section at byte {pos}")
        if not body[pos:nl].strip().isdigit():
            raise AigerParseError(f"non-numeric output literal {body[pos:nl]!r}")
        outputs.append(int(body[pos:nl]))
        pos = nl + 1

    def read_delta() -> int:
        nonlocal pos
        x = 0
        shift = 0
        while True:
            if pos >= len(body):
                raise AigerParseError(f"truncated AND section at byte {pos}")
            byte = body[pos]
            pos += 1
            x |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return x
            shift += 7

    ands = []
    for k in range(a):
        lhs = 2 * (i + k + 1)
        d0 = read_delta()
        d1 = read_delta()
        r0 = lhs - d0
        r1 = r0 - d1
        if r0 < 0 or r1 < 0:
            raise AigerParseError(f"invalid delta encoding at AND {k}")
        ands += (lhs, r0, r1)
    return inputs, outputs, ands


def emit_aiger(circuit: Circuit) -> bytes:
    """Emit ASCII AIGER; NOT gates are re-absorbed into inverted edges."""
    lit: dict[int, int] = {}
    next_var = 1
    and_rows = []
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.CONST0:
            lit[i] = 0
        elif g.kind is GateKind.PI:
            lit[i] = 2 * next_var
            next_var += 1
        elif g.kind is GateKind.NOT:
            lit[i] = lit[g.fanins[0]] ^ 1
        else:  # AND
            lit[i] = 2 * next_var
            next_var += 1
            and_rows.append((lit[i], lit[g.fanins[0]], lit[g.fanins[1]]))
    maxvar = next_var - 1
    out = [f"aag {maxvar} {len(circuit.primary_inputs)} 0 "
           f"{len(circuit.primary_outputs)} {len(and_rows)}"]
    out += [str(lit[p]) for p in circuit.primary_inputs]
    out += [str(lit[p]) for p in circuit.primary_outputs]
    out += [f"{l} {r0} {r1}" for l, r0, r1 in and_rows]
    return ("\n".join(out) + "\n").encode()


# -- miters and mutation ------------------------------------------------------


def rebuild(src: Circuit, dst: Circuit, node_map: dict[int, int],
            edit=None) -> dict[int, int]:
    """Copy src's gates into dst in order, extending node_map.

    Gates already in node_map are taken as mapped and are not read;
    unmapped PIs become new PIs of dst.  NOTs go through add_not, so they
    are shared and a NOT of a NOT collapses.  For AND gate i, edit(i,
    fanins), given the fanins already mapped into dst, may return the dst
    node to use in place of AND(fanins).
    """
    add_and, add_not = dst.add_and, dst.add_not
    gates = src.gates
    for i in range(len(gates)):
        if i in node_map:
            continue
        kind, fanins = gates[i]
        if kind is _AND:
            fanins = (node_map[fanins[0]], node_map[fanins[1]])
            node = edit(i, fanins) if edit is not None else None
            node_map[i] = add_and(*fanins) if node is None else node
        elif kind is _NOT:
            node_map[i] = add_not(node_map[fanins[0]])
        elif kind is GateKind.PI:
            node_map[i] = dst.add_pi()
        else:
            node_map[i] = dst.add_const0()
    return node_map


def _cone(circuit: Circuit) -> bytearray:
    """The outputs' cone: 1 for every gate some output reads, directly or
    through other gates, outputs included, and 0 for every other gate."""
    gates = circuit.gates
    live = bytearray(len(gates))
    stack = list(circuit.primary_outputs)
    while stack:
        g = stack.pop()
        if not live[g]:
            live[g] = 1
            stack.extend(gates[g].fanins)
    return live


def strash(circuit: Circuit) -> Circuit:
    """Structural hashing of the outputs' cone: a copy of the gates some
    output reads, in which no two ANDs have the same pair of fanins, in
    either order.

    The copy is a rebuild whose edit looks each AND up by its mapped
    fanins, sorted, and returns the AND already built for that pair, so a
    gate duplicated in the source, such as one both halves of a miter
    share, is built once.  A gate no output reads, directly or through
    other gates, is left out: it is entered in the node map before the
    rebuild, which so neither reads nor copies it.  NOTs are shared and
    double negations collapse as in every rebuild.  Every PI is kept, read
    or not, and the PIs come first, in their order; every output is
    mapped, in its order.
    """
    out = Circuit()
    # no gate of the cone and no output names a gate outside it, so such a
    # gate's entry is never read
    node_map = dict.fromkeys(i for i, x in enumerate(_cone(circuit)) if not x)
    node_map.update((pi, out.add_pi()) for pi in circuit.primary_inputs)
    table: dict[tuple[int, int], int] = {}

    def edit(_i, fanins):
        a, b = fanins
        key = (a, b) if a <= b else (b, a)
        node = table.get(key)
        if node is None:
            node = table[key] = out.add_and(a, b)
        return node

    rebuild(circuit, out, node_map, edit)
    out.set_outputs([node_map[p] for p in circuit.primary_outputs])
    return out


def build_miter(left: Circuit, right: Circuit) -> Circuit:
    """Combine two circuits over shared PIs into a single-output miter.

    The output is 1 iff some pair of outputs, taken in order, differs.
    XOR and OR are macro-expanded into AND/NOT so the result stays in the
    two-gate alphabet.
    """
    if len(left.primary_inputs) != len(right.primary_inputs):
        raise ShapeError(
            f"PI count mismatch: {len(left.primary_inputs)} vs "
            f"{len(right.primary_inputs)}")
    if len(left.primary_outputs) != len(right.primary_outputs):
        raise ShapeError(
            f"PO count mismatch: {len(left.primary_outputs)} vs "
            f"{len(right.primary_outputs)}")
    if not left.primary_outputs:
        raise ShapeError("no outputs to compare")

    miter = Circuit()
    shared = [miter.add_pi() for _ in left.primary_inputs]
    lmap = rebuild(left, miter, dict(zip(left.primary_inputs, shared)))
    rmap = rebuild(right, miter, dict(zip(right.primary_inputs, shared)))

    def or_(x: int, y: int) -> int:  # De Morgan
        return miter.add_not(miter.add_and(miter.add_not(x), miter.add_not(y)))

    def xor(x: int, y: int) -> int:
        return or_(miter.add_and(x, miter.add_not(y)),
                   miter.add_and(miter.add_not(x), y))

    diffs = [xor(lmap[lp], rmap[rp])
             for lp, rp in zip(left.primary_outputs, right.primary_outputs)]
    acc = diffs[0]
    for d in diffs[1:]:
        acc = or_(acc, d)
    miter.set_outputs([acc])
    return miter


class MutationError(CircuitError):
    pass


def mutate_circuit(circuit: Circuit, seed: int) -> Circuit:
    """Apply one seeded local change to an AND some output reads: flip a
    fanin inversion or swap a fanin with another same-level signal.  A
    circuit with no such AND raises MutationError: a change to a gate no
    output reads would leave every output's function as it was."""
    rng = random.Random(seed)
    levels = levelize(circuit)
    observable = _cone(circuit)
    ands = [i for i, g in enumerate(circuit.gates)
            if g.kind is GateKind.AND and observable[i]]
    if not ands:
        raise MutationError("no AND gate in the outputs' cone to mutate")
    target = rng.choice(ands)
    slot = rng.randrange(2)
    old_fanin = circuit.gates[target].fanins[slot]

    # candidates must precede the target so they are already rebuilt
    same_level = [i for i in range(target)
                  if levels[i] == levels[old_fanin] and i != old_fanin]
    do_swap = bool(same_level) and rng.random() < 0.5

    mutated = Circuit()
    node_map: dict[int, int] = {}

    def edit(i, fanins):
        if i != target:
            return None
        if do_swap:
            repl = node_map[rng.choice(same_level)]
        else:
            repl = mutated.add_not(node_map[old_fanin])
        a, b = fanins
        return mutated.add_and(*((repl, b) if slot == 0 else (a, repl)))

    rebuild(circuit, mutated, node_map, edit)
    mutated.set_outputs([node_map[p] for p in circuit.primary_outputs])
    return mutated
