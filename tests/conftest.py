import itertools
import math
import random
from functools import reduce

import numpy as np
import pytest

from cascad.circuit import Circuit, rebuild
from cascad.cnf import CnfFormula
from cascad.estimator import Estimator
from cascad.sim import SimulationPlan, sample_patterns, simulate
from cascad.solver import Solver, SolveOutcome, SolverConfig, Status


def random_circuit(seed: int, num_pis: int = 6, num_gates: int = 40,
                   not_prob: float = 0.4) -> Circuit:
    """Random AIG: each new AND picks two earlier signals, possibly inverted."""
    rng = random.Random(seed)
    c = Circuit()
    for _ in range(num_pis):
        c.add_pi()
    for _ in range(num_gates):
        a = rng.randrange(len(c))
        b = rng.randrange(len(c))
        if rng.random() < not_prob:
            a = c.add_not(a)
        if rng.random() < not_prob:
            b = c.add_not(b)
        c.add_and(a, b)
    # output: the last gate (deepest by construction bias)
    c.set_outputs([len(c) - 1])
    return c


def pad_with_dead_logic(circuit: Circuit, seed: int) -> Circuit:
    """A copy of ``circuit`` with gates no output reads between its own:
    before each AND up to two ANDs of earlier gates, some negated, now and
    then the constant, and one more such AND after the last gate.
    ``circuit`` should have no constant, which a padded one would move."""
    rng = random.Random(seed)
    out = Circuit()

    def edit(_i, _fanins):
        for _ in range(rng.randrange(3)):
            g = out.add_and(rng.randrange(len(out)), rng.randrange(len(out)))
            if rng.random() < 0.5:
                out.add_not(g)
        if rng.random() < 0.1:
            out.add_const0()

    node_map = rebuild(circuit, out, {}, edit)
    out.add_and(rng.randrange(len(out)), rng.randrange(len(out)))
    out.set_outputs([node_map[p] for p in circuit.primary_outputs])
    return out


def eval_circuit(circuit: Circuit, pi_values: dict[int, bool]) -> dict[int, bool]:
    """One-pattern-at-a-time reference interpreter (oracle for simulate)."""
    from cascad.circuit import GateKind
    values: dict[int, bool] = {}
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.PI:
            values[i] = pi_values[i]
        elif g.kind is GateKind.CONST0:
            values[i] = False
        elif g.kind is GateKind.NOT:
            values[i] = not values[g.fanins[0]]
        else:
            values[i] = values[g.fanins[0]] and values[g.fanins[1]]
    return values


def all_input_rows(circuit: Circuit):
    """(row_index, pi_values) in PI-index-major binary counting order."""
    pis = circuit.primary_inputs
    m = len(pis)
    for r in range(1 << m):
        yield r, {pis[j]: bool((r >> (m - 1 - j)) & 1) for j in range(m)}


def solve(cnf: CnfFormula, config: SolverConfig | None = None,
          phase_hook=None, drat_sink=None) -> SolveOutcome:
    """One unbudgeted solve on a fresh Solver."""
    return Solver(cnf, config, phase_hook=phase_hook,
                  drat_sink=drat_sink).solve()


def solve_reducing(solver: Solver, every: int,
                   conflict_budget: int | None = None) -> SolveOutcome:
    """``solver.solve(conflict_budget)`` with a learnt-clause reduction
    after every ``every``-th conflict in place of the solver's own, every
    REDUCE_INTERVAL conflicts: the schedule a reduce interval of ``every``
    runs, so that small formulas reach reduction and put deletions into
    their proofs."""
    solver._next_reduce = math.inf
    left = conflict_budget
    while True:
        chunk = every - solver.stats.conflicts % every
        outcome = solver.solve(conflict_budget=chunk if left is None
                               else min(chunk, left))
        if left is not None:
            left -= min(chunk, left)
        if outcome.status is not Status.UNKNOWN:
            return outcome
        if solver.stats.conflicts % every == 0:
            solver.reduce_db()
            solver.stats.learnt_current = len(solver.learnts)  # as solve sets it
        if left == 0:
            return outcome


def emit_dimacs(cnf: CnfFormula) -> bytes:
    """DIMACS text of cnf: the problem line, then one clause a line."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines += [" ".join(str(l) for l in cl) + " 0" for cl in cnf.clauses]
    return ("\n".join(lines) + "\n").encode()


def enum_cnf_sat(num_vars: int, clauses) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def random_3cnf(rng: random.Random, num_vars: int, ratio: float = 4.3):
    m = max(1, int(num_vars * ratio))
    return [[rng.choice([1, -1]) * v for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(m)]


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    """PHP(pigeons, holes): unsatisfiable by counting when pigeons > holes."""
    clauses = [[p * holes + h + 1 for h in range(holes)]
               for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    return CnfFormula(pigeons * holes, clauses)


def run_workload_suite(circuit: Circuit, num_sims: int = 200,
                       patterns_per_sim: int = 100, seed: int = 0,
                       workload: float | list[float] = 0.5):
    """Repeated biased simulations: per-PI per-sim probabilities plus node
    probabilities aggregated over all num_sims * patterns_per_sim patterns.

    Returns (pi_profile, node_probs): pi_profile has shape (num_pis, num_sims)
    and node_probs[g] is gate g's probability.
    """
    num_pis = len(circuit.primary_inputs)
    pi_profile = np.zeros((num_pis, num_sims))
    counts = np.zeros(len(circuit), dtype=np.int64)
    for s in range(num_sims):
        plan = SimulationPlan(patterns_per_sim, workload, seed=seed + s)
        block = sample_patterns(plan, num_pis)
        per_gate = simulate(circuit, block).counts()
        counts += per_gate.astype(np.int64)
        for k, g in enumerate(circuit.primary_inputs):
            pi_profile[k, s] = per_gate[g] / patterns_per_sim
    total = num_sims * patterns_per_sim
    node_probs = [counts[g] / total for g in range(len(circuit))]
    return pi_profile, node_probs


def quotient_cond_prob(est: Estimator, target, conditions, noise: float = 0.0,
                       noise_seed: int = 0) -> float | None:
    """P(target | conditions) as a quotient of separately estimated joint and
    condition probabilities over est's trace set, each optionally moved by
    +-noise.  The division-amplification pathology the estimator avoids by
    counting trace ratios; criterion 2 and test_estimator.py measure it."""
    t = est.traces
    cond_row = reduce(np.bitwise_and, (t.trace(*c) for c in conditions))
    p_cond = t.popcount(cond_row) / t.num_patterns
    p_joint = t.popcount(cond_row & t.trace(*target)) / t.num_patterns
    if noise:
        rng = np.random.default_rng(noise_seed)
        p_joint += noise * (1 if rng.random() < 0.5 else -1)
        p_cond += noise * (1 if rng.random() < 0.5 else -1)
    if p_cond <= 0:
        return None
    return min(1.0, max(0.0, p_joint / p_cond))


@pytest.fixture
def toy_and():
    """c = a AND b over two PIs."""
    c = Circuit()
    a, b = c.add_pi(), c.add_pi()
    g = c.add_and(a, b)
    c.set_outputs([g])
    return c, a, b, g
