"""Front-end pins: what parse_aiger, tseitin_encode and Solver.__init__ build.

Each digest hashes the full output of one front-end stage over seeded
inputs.  A speed-up of the front end must reproduce every digest: the same
gates in the same order, the same clauses in the same order, the same
variable map and the same initial watch lists.
"""

import gc
import hashlib
import random

import pytest

from cascad.bench import reassociate
from cascad.circuit import (AigerParseError, Circuit, GateKind, build_miter,
                            emit_aiger, mutate_circuit, parse_aiger)
from cascad.cnf import CnfError, CnfFormula, check_model, tseitin_encode
from cascad.drat import DratProof
from cascad.solver import Solver, Status

from conftest import random_circuit


def binary_aiger(circuit: Circuit) -> bytes:
    """Binary AIGER ("aig") for a circuit: PIs take variables 1..I, ANDs
    follow in gate order, and each AND stores its two delta-coded fanins."""
    lit: dict[int, int] = {}
    for k, p in enumerate(circuit.primary_inputs):
        lit[p] = 2 * (k + 1)
    next_var = len(circuit.primary_inputs) + 1
    body = bytearray()
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.CONST0:
            lit[i] = 0
        elif g.kind is GateKind.NOT:
            lit[i] = lit[g.fanins[0]] ^ 1
        elif g.kind is GateKind.AND:
            lhs = lit[i] = 2 * next_var
            next_var += 1
            r1, r0 = sorted(lit[f] for f in g.fanins)
            for delta in (lhs - r0, r0 - r1):
                while delta >= 0x80:
                    body.append(0x80 | (delta & 0x7F))
                    delta >>= 7
                body.append(delta)
    pis, pos = len(circuit.primary_inputs), len(circuit.primary_outputs)
    header = f"aig {next_var - 1} {pis} 0 {pos} {next_var - 1 - pis}\n"
    outputs = "".join(f"{lit[p]}\n" for p in circuit.primary_outputs)
    return (header + outputs).encode() + bytes(body)


def shuffled_ands(data: bytes, rng: random.Random) -> bytes:
    """The same ASCII AIGER with its AND lines in a random order, so ANDs
    name fanins defined further down the file."""
    lines = data.decode().rstrip("\n").split("\n")
    _, m, i, l, o, a = lines[0].split()
    head = 1 + int(i) + int(o)
    ands = lines[head:]
    rng.shuffle(ands)
    return ("\n".join(lines[:head] + ands) + "\n").encode()


def circuits():
    """Seeded circuits: random AIGs with a constant and several outputs,
    and miters of them against mutated and reassociated twins."""
    for seed in range(12):
        c = random_circuit(seed, num_pis=6, num_gates=60)
        zero = c.add_const0()
        c.set_outputs([len(c) - 2, c.add_and(zero, c.primary_inputs[0]),
                       c.primary_inputs[1]])
        yield c
        base = random_circuit(100 + seed, num_pis=8, num_gates=120)
        yield build_miter(base, mutate_circuit(base, seed))
        yield build_miter(base, reassociate(base, seed))


def tree_circuit(seed: int) -> Circuit:
    """A random AND tree over 10 PIs and a constant, each signal used once,
    with random inversions: no AND shares a fanin with another."""
    rng = random.Random(seed)
    c = Circuit()
    pool = [c.add_pi() for _ in range(10)] + [c.add_const0()]
    while len(pool) > 1:
        a, b = (pool.pop(rng.randrange(len(pool))) for _ in range(2))
        if rng.random() < 0.4:
            a = c.add_not(a)
        if rng.random() < 0.4:
            b = c.add_not(b)
        pool.append(c.add_and(a, b))
    c.set_outputs(pool)
    return c


def gate_record(c: Circuit):
    return ([(g.kind.value, tuple(g.fanins)) for g in c.gates],
            list(c.primary_inputs), list(c.primary_outputs))


def random_clause(rng: random.Random, nvars: int) -> list[int]:
    """0 to 5 literals, often with a repeated or a complementary literal."""
    size = rng.choices(range(6), weights=(1, 6, 6, 8, 3, 2))[0]
    lits = [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(size)]
    roll = rng.random()
    if lits and roll < 0.2:
        lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
    elif lits and roll < 0.3:
        lits.insert(rng.randrange(len(lits) + 1), -rng.choice(lits))
    return lits


def solver_record(s: Solver):
    return ([[tuple(c.lits) for c in w] for w in s.watches],
            list(s.trail), list(s.values), s.unsat)


class TestFrontEndPin:
    DIGESTS = {
        "parse":
            "205ab2be87006e5060f4a48c147f7bfc3289c8e0f2ff7e0a8a897f79015459da",
        "encode":
            "201ace9fea472754e10a830d19df2f3b0f96c34c2db54723ce8609bce3e26700",
        "init":
            "10d0ccf41bf0dfc71c2f21615accc22bcead66594a0b3fe3896ebf70322bf4cf",
    }

    def test_parse(self):
        h = hashlib.sha256()
        rng = random.Random(5)
        for c in circuits():
            ascii_data = emit_aiger(c)
            for data in (ascii_data, binary_aiger(c)):
                h.update(repr(gate_record(parse_aiger(data))).encode())
        # out-of-order files: ANDs name fanins defined further down
        for seed in range(30):
            data = shuffled_ands(emit_aiger(tree_circuit(seed)), rng)
            h.update(repr(gate_record(parse_aiger(data))).encode())
        assert h.hexdigest() == self.DIGESTS["parse"]

    def test_encode(self):
        h = hashlib.sha256()
        for k, c in enumerate(circuits()):
            asserted = [(po, k % 2 == 0) for po in c.primary_outputs]
            for outputs in (None, asserted):
                formula, vmap = tseitin_encode(c, outputs)
                h.update(repr((formula.num_vars, formula.clauses,
                               list(vmap.gate_to_var.items()),
                               list(vmap.var_to_gate.items()),
                               vmap.gate_lits)).encode())
        assert h.hexdigest() == self.DIGESTS["encode"]

    def test_init(self):
        h = hashlib.sha256()
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            clauses = [random_clause(rng, n)
                       for _ in range(rng.randint(0, 5 * n))]
            proof = DratProof()
            s = Solver(CnfFormula(n, clauses), drat_sink=proof)
            h.update(repr((solver_record(s), proof.steps)).encode())
        for c in circuits():
            formula, _ = tseitin_encode(c, [(c.primary_outputs[0], True)])
            h.update(repr(solver_record(Solver(formula))).encode())
        assert h.hexdigest() == self.DIGESTS["init"]


class TestVerifyModel:
    def test_model_violating_one_clause_raises(self):
        clauses = [[1, 2], [-1, -2], [2, -2, 2]]
        out = Solver(CnfFormula(2, clauses)).solve()
        assert out.status is Status.SAT
        check_model(clauses, out.model)
        # each model breaks exactly one clause: [-1, -2], then [1, 2]
        for model in ({1: True, 2: True}, {1: False, 2: False}):
            with pytest.raises(RuntimeError, match="violates"):
                check_model(clauses, model)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run the test with the collector enabled or disabled, and restore it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestGcPause:
    """Set-up runs with the cyclic collector paused and leaves it as the
    caller had it, on success and on error."""

    def test_success(self, gc_state):
        c = random_circuit(3, num_pis=6, num_gates=200)
        c = parse_aiger(emit_aiger(c))
        assert gc.isenabled() is gc_state
        formula, _ = tseitin_encode(c, [(c.primary_outputs[0], True)])
        assert gc.isenabled() is gc_state
        Solver(formula)
        assert gc.isenabled() is gc_state

    def test_errors(self, gc_state):
        with pytest.raises(AigerParseError):
            parse_aiger(b"aag 1 1 0 1 0\n2\n5\n")  # literal 5 > maxvar 1
        assert gc.isenabled() is gc_state
        formula = CnfFormula(2, [[1, 2]])
        formula.clauses.append([1, 3])  # past num_vars, unchecked here
        with pytest.raises(CnfError, match="out of range"):
            Solver(formula)
        assert gc.isenabled() is gc_state

    def test_paused_inside_solver_init(self, gc_state):
        seen = []

        class Probe(DratProof):
            def add(self, lits):
                seen.append(gc.isenabled())
                super().add(lits)

        Solver(CnfFormula(1, [[1], [-1]]), drat_sink=Probe())  # logs []
        assert seen == [False] and gc.isenabled() is gc_state
