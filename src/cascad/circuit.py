"""And-inverter circuit graphs: parsing, levelization, cones, miters, mutation.

Circuits are DAGs over two basic gate types (AND, NOT) plus primary inputs,
an optional constant-false node, and observation-only virtual gates used for
probability queries.  Inverters are explicit NOT nodes; AIGER inverted edges
are materialized on parse and re-absorbed on emit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum


class GateKind(Enum):
    PI = "PI"
    AND = "AND"
    NOT = "NOT"
    VIRTUAL_AND = "VIRTUAL_AND"
    VIRTUAL_DIV = "VIRTUAL_DIV"
    CONST0 = "CONST0"


_FANIN_COUNT = {
    GateKind.PI: 0,
    GateKind.CONST0: 0,
    GateKind.NOT: 1,
    GateKind.AND: 2,
    GateKind.VIRTUAL_AND: 2,
    GateKind.VIRTUAL_DIV: 2,
}

VIRTUAL_KINDS = (GateKind.VIRTUAL_AND, GateKind.VIRTUAL_DIV)


class CircuitError(Exception):
    pass


class AigerParseError(CircuitError):
    pass


class CycleError(CircuitError):
    pass


class ShapeError(CircuitError):
    pass


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    fanins: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.fanins) != _FANIN_COUNT[self.kind]:
            raise ShapeError(
                f"{self.kind.value} gate takes {_FANIN_COUNT[self.kind]} fanins, "
                f"got {len(self.fanins)}"
            )


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
        self._levels: list[int] | None = None

    # -- construction -----------------------------------------------------

    def _append(self, gate: Gate) -> int:
        for f in gate.fanins:
            if not (0 <= f < len(self.gates)):
                raise ShapeError(f"fanin {f} out of range")
        self.gates.append(gate)
        self._levels = None
        return len(self.gates) - 1

    def add_pi(self) -> int:
        g = self._append(Gate(GateKind.PI))
        self.primary_inputs.append(g)
        return g

    def add_const0(self) -> int:
        if self._const0 is None:
            self._const0 = self._append(Gate(GateKind.CONST0))
        return self._const0

    def add_and(self, a: int, b: int) -> int:
        return self._append(Gate(GateKind.AND, (a, b)))

    def add_not(self, a: int) -> int:
        # collapse double negation through the shared-NOT table
        src = self.gates[a]
        if src.kind is GateKind.NOT:
            return src.fanins[0]
        if a in self._not_cache:
            return self._not_cache[a]
        g = self._append(Gate(GateKind.NOT, (a,)))
        self._not_cache[a] = g
        return g

    def add_virtual_and(self, a: int, b: int) -> int:
        return self._append(Gate(GateKind.VIRTUAL_AND, (a, b)))

    def add_virtual_div(self, num: int, den: int) -> int:
        return self._append(Gate(GateKind.VIRTUAL_DIV, (num, den)))

    def set_outputs(self, pos: list[int]):
        for p in pos:
            if not (0 <= p < len(self.gates)):
                raise ShapeError(f"output {p} is not a gate id")
        self.primary_outputs = list(pos)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def kind(self, g: int) -> GateKind:
        return self.gates[g].kind

    def is_virtual(self, g: int) -> bool:
        return self.gates[g].kind in VIRTUAL_KINDS

    @property
    def levels(self) -> list[int]:
        if self._levels is None:
            self._levels = levelize(self)
        return self._levels

    def level(self, g: int) -> int:
        return self.levels[g]

    def depth(self) -> int:
        boolean = [self.levels[i] for i, g in enumerate(self.gates)
                   if g.kind not in VIRTUAL_KINDS]
        return max(boolean, default=0)

    def fanouts(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.gates]
        for i, g in enumerate(self.gates):
            for f in g.fanins:
                out[f].append(i)
        return out

    def stats(self) -> dict:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
        return {
            "gates": len(self.gates),
            "pis": len(self.primary_inputs),
            "pos": len(self.primary_outputs),
            "depth": self.depth(),
            "kinds": counts,
        }

    def copy(self) -> "Circuit":
        c = Circuit()
        c.gates = list(self.gates)
        c.primary_inputs = list(self.primary_inputs)
        c.primary_outputs = list(self.primary_outputs)
        c._not_cache = dict(self._not_cache)
        c._const0 = self._const0
        return c

    # -- serialization (internal JSON graph; AIGER cannot express virtuals)

    def to_json(self) -> str:
        return json.dumps({
            "gates": [{"kind": g.kind.value, "fanins": list(g.fanins)}
                      for g in self.gates],
            "inputs": self.primary_inputs,
            "outputs": self.primary_outputs,
        })

    @staticmethod
    def from_json(text: str) -> "Circuit":
        data = json.loads(text)
        c = Circuit()
        for spec in data["gates"]:
            c._append(Gate(GateKind(spec["kind"]), tuple(spec["fanins"])))
        c.primary_inputs = list(data["inputs"])
        c.primary_outputs = list(data["outputs"])
        for i, g in enumerate(c.gates):
            if g.kind is GateKind.NOT:
                c._not_cache.setdefault(g.fanins[0], i)
            if g.kind is GateKind.CONST0 and c._const0 is None:
                c._const0 = i
        return c


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


@dataclass
class Cone:
    members: frozenset[int]
    root: int
    direction: str  # "FANIN" | "FANOUT"
    depth_bound: int | None = None


def fanin_cone(circuit: Circuit, root: int, depth_bound: int | None = None) -> Cone:
    """Gates reachable backward from root within depth_bound logic levels."""
    if not (0 <= root < len(circuit)):
        raise ShapeError(f"invalid gate id {root}")
    levels = circuit.levels
    root_level = levels[root]
    seen = {root}
    stack = [root]
    while stack:
        g = stack.pop()
        for f in circuit.gates[g].fanins:
            if f in seen:
                continue
            if depth_bound is not None and root_level - levels[f] > depth_bound:
                continue
            seen.add(f)
            stack.append(f)
    return Cone(frozenset(seen), root, "FANIN", depth_bound)


def fanout_cone(circuit: Circuit, root: int, depth_bound: int | None = None) -> Cone:
    """Gates reachable forward from root within depth_bound logic levels."""
    if not (0 <= root < len(circuit)):
        raise ShapeError(f"invalid gate id {root}")
    levels = circuit.levels
    root_level = levels[root]
    fanouts = circuit.fanouts()
    seen = {root}
    stack = [root]
    while stack:
        g = stack.pop()
        for s in fanouts[g]:
            if s in seen:
                continue
            if depth_bound is not None and levels[s] - root_level > depth_bound:
                continue
            seen.add(s)
            stack.append(s)
    return Cone(frozenset(seen), root, "FANOUT", depth_bound)


# -- AIGER --------------------------------------------------------------------


def parse_aiger(data: bytes) -> Circuit:
    """Parse combinational AIGER, ASCII ("aag") or binary ("aig")."""
    if not isinstance(data, bytes):
        data = data.encode()
    nl = data.find(b"\n")
    if nl < 0:
        raise AigerParseError("missing header line")
    header = data[:nl].split()
    if len(header) < 6 or header[0] not in (b"aag", b"aig"):
        raise AigerParseError(f"malformed header: {data[:nl]!r}")
    try:
        m, i, l, o, a = (int(x) for x in header[1:6])
    except ValueError as e:
        raise AigerParseError(f"malformed header counts: {data[:nl]!r}") from e
    if min(m, i, l, o, a) < 0:
        raise AigerParseError(f"negative header count: {data[:nl]!r}")
    if l > 0:
        raise AigerParseError(f"sequential AIGER rejected: {l} latches")

    if header[0] == b"aag":
        inputs, outputs, ands = _parse_ascii_body(data[nl + 1:], m, i, o, a)
    else:
        inputs, outputs, ands = _parse_binary_body(data[nl + 1:], m, i, o, a)

    circuit = Circuit()
    var_node: dict[int, int] = {}
    for lit in inputs:
        if lit & 1 or lit < 2:
            raise AigerParseError(f"invalid input literal {lit}")
        var_node[lit >> 1] = circuit.add_pi()

    and_def = {lhs >> 1: (r0, r1) for lhs, r0, r1 in ands}

    def node_of(lit: int) -> int:
        var = lit >> 1
        if var > m:
            raise AigerParseError(f"literal {lit} exceeds maxvar {m}")
        if var not in var_node:
            if var == 0:
                var_node[0] = circuit.add_const0()
            elif var in and_def:
                _materialize_and(circuit, var, and_def, var_node, m)
            else:
                raise AigerParseError(f"dangling literal {lit}")
        node = var_node[var]
        return circuit.add_not(node) if lit & 1 else node

    # materialize in listed order first so indices stay close to file order
    for lhs, _, _ in ands:
        node_of(lhs & ~1)
    circuit.set_outputs([node_of(lit) for lit in outputs])
    return circuit


def _materialize_and(circuit, var, and_def, var_node, maxvar):
    stack = [var]
    while stack:
        v = stack[-1]
        if v in var_node:
            stack.pop()
            continue
        r0, r1 = and_def[v]
        deps = []
        for rl in (r0, r1):
            rv = rl >> 1
            if rv > maxvar:
                raise AigerParseError(f"literal {rl} exceeds maxvar {maxvar}")
            if rv not in var_node:
                if rv == 0:
                    var_node[0] = circuit.add_const0()
                elif rv in and_def:
                    if rv in stack:
                        raise CycleError(f"cyclic AND definition at variable {rv}")
                    deps.append(rv)
                else:
                    raise AigerParseError(f"dangling literal {rl}")
        if deps:
            stack.extend(deps)
            continue
        stack.pop()
        fan = []
        for rl in (r0, r1):
            n = var_node[rl >> 1]
            fan.append(circuit.add_not(n) if rl & 1 else n)
        var_node[v] = circuit.add_and(fan[0], fan[1])


def _parse_ascii_body(body: bytes, m, i, o, a):
    lines = body.split(b"\n")
    need = i + o + a
    rows = [ln for ln in lines[:need]]
    if len(rows) < need:
        raise AigerParseError(f"expected {need} body lines, got {len(rows)}")
    try:
        inputs = [int(rows[k]) for k in range(i)]
        outputs = [int(rows[i + k]) for k in range(o)]
        ands = []
        for k in range(a):
            parts = rows[i + o + k].split()
            if len(parts) != 3:
                raise AigerParseError(
                    f"AND line {i + o + k + 2}: expected 3 literals, got {rows[i + o + k]!r}")
            lhs, r0, r1 = (int(p) for p in parts)
            if lhs & 1 or lhs < 2:
                raise AigerParseError(f"AND line {i + o + k + 2}: bad lhs {lhs}")
            ands.append((lhs, r0, r1))
    except ValueError as e:
        raise AigerParseError(f"non-numeric literal in body: {e}") from e
    return inputs, outputs, ands


def _parse_binary_body(body: bytes, m, i, o, a):
    # binary AIGER: inputs are implicit literals 2..2i
    inputs = [2 * (k + 1) for k in range(i)]
    pos = 0
    outputs = []
    for _ in range(o):
        nl = body.find(b"\n", pos)
        if nl < 0:
            raise AigerParseError(f"truncated output section at byte {pos}")
        try:
            outputs.append(int(body[pos:nl]))
        except ValueError as e:
            raise AigerParseError(f"non-numeric output literal {body[pos:nl]!r}") from e
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
        ands.append((lhs, r0, r1))
    return inputs, outputs, ands


def emit_aiger(circuit: Circuit) -> bytes:
    """Emit ASCII AIGER; NOT gates are re-absorbed into inverted edges."""
    lit: dict[int, int] = {}
    next_var = 1
    and_rows = []
    for i, g in enumerate(circuit.gates):
        if g.kind in VIRTUAL_KINDS:
            raise ShapeError("virtual gates cannot be expressed in AIGER")
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
    """Copy src's Boolean gates into dst in order, extending node_map.

    Gates already in node_map are taken as mapped, unmapped PIs become new
    PIs of dst, and virtual gates are skipped.  NOTs go through add_not, so
    they are shared and a NOT of a NOT collapses.  For AND gate i,
    edit(i, fanins), given the fanins already mapped into dst, may return
    the dst node to use in place of AND(fanins).
    """
    for i, g in enumerate(src.gates):
        if i in node_map or g.kind in VIRTUAL_KINDS:
            continue
        if g.kind is GateKind.PI:
            node_map[i] = dst.add_pi()
        elif g.kind is GateKind.CONST0:
            node_map[i] = dst.add_const0()
        elif g.kind is GateKind.NOT:
            node_map[i] = dst.add_not(node_map[g.fanins[0]])
        else:
            fanins = (node_map[g.fanins[0]], node_map[g.fanins[1]])
            node = edit(i, fanins) if edit is not None else None
            node_map[i] = dst.add_and(*fanins) if node is None else node
    return node_map


def build_miter(left: Circuit, right: Circuit,
                po_pairing: list[tuple[int, int]] | None = None) -> Circuit:
    """Combine two circuits over shared PIs into a single-output miter.

    The output is 1 iff some paired outputs differ.  XOR and OR are
    macro-expanded into AND/NOT so the result stays in the two-gate alphabet.
    """
    if len(left.primary_inputs) != len(right.primary_inputs):
        raise ShapeError(
            f"PI count mismatch: {len(left.primary_inputs)} vs "
            f"{len(right.primary_inputs)}")
    if po_pairing is None:
        if len(left.primary_outputs) != len(right.primary_outputs):
            raise ShapeError("PO count mismatch and no explicit pairing")
        po_pairing = list(zip(left.primary_outputs, right.primary_outputs))

    miter = Circuit()
    shared = [miter.add_pi() for _ in left.primary_inputs]
    lmap = rebuild(left, miter, dict(zip(left.primary_inputs, shared)))
    rmap = rebuild(right, miter, dict(zip(right.primary_inputs, shared)))

    def xor(x: int, y: int) -> int:
        a = miter.add_and(x, miter.add_not(y))
        b = miter.add_and(miter.add_not(x), y)
        # OR(a, b) via De Morgan
        return miter.add_not(miter.add_and(miter.add_not(a), miter.add_not(b)))

    diffs = [xor(lmap[lp], rmap[rp]) for lp, rp in po_pairing]
    acc = diffs[0]
    for d in diffs[1:]:
        acc = miter.add_not(miter.add_and(miter.add_not(acc), miter.add_not(d)))
    miter.set_outputs([acc])
    return miter


class MutationError(CircuitError):
    pass


def mutate_circuit(circuit: Circuit, seed: int) -> Circuit:
    """Apply one seeded local change: flip a fanin inversion or swap a fanin
    with another same-level signal."""
    if any(g.kind in VIRTUAL_KINDS for g in circuit.gates):
        raise MutationError("cannot mutate a circuit with virtual gates")
    rng = random.Random(seed)
    # prefer gates observable at an output so the change is usually effective
    observable: set[int] = set()
    for po in circuit.primary_outputs:
        observable |= fanin_cone(circuit, po).members
    ands = [i for i, g in enumerate(circuit.gates)
            if g.kind is GateKind.AND and i in observable]
    if not ands:
        ands = [i for i, g in enumerate(circuit.gates) if g.kind is GateKind.AND]
    if not ands:
        raise MutationError("no AND gate to mutate")
    target = rng.choice(ands)
    slot = rng.randrange(2)
    old_fanin = circuit.gates[target].fanins[slot]

    levels = circuit.levels
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
