import functools
import hashlib
import random

import pytest

from cascad.circuit import Circuit
from cascad.cnf import lit_to_signal, signal_to_lit, tseitin_encode
from cascad.estimator import (Backend, Estimator, EstimatorConfig,
                              EstimatorError)

from conftest import (all_input_rows, eval_circuit, quotient_cond_prob,
                      random_circuit)


def exact_estimator(circuit, **kw):
    return Estimator(circuit, EstimatorConfig(backend=Backend.EXACT, **kw))


class TestNodeProb:
    def test_toy_exact(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        assert est.node_prob(a) == 0.5
        assert est.node_prob(g) == 0.25
        assert est.node_prob(g, polarity=False) == 0.75

    def test_simulation_close_to_exact(self):
        c = random_circuit(0, num_pis=8, num_gates=50)
        exact = exact_estimator(c)
        sim = Estimator(c, EstimatorConfig(backend=Backend.SIMULATION,
                                           num_patterns=20_000, seed=3))
        for g in range(len(c)):
            assert abs(exact.node_prob(g) - sim.node_prob(g)) <= 0.02

    def test_seed_determinism(self, toy_and):
        c, *_ = toy_and
        cfg = EstimatorConfig(backend=Backend.SIMULATION, num_patterns=500, seed=9)
        assert Estimator(c, cfg).node_prob(2) == Estimator(c, cfg).node_prob(2)

    @pytest.mark.parametrize("num_pis, backend, num_patterns", [
        (16, Backend.EXACT, 1 << 16), (17, Backend.SIMULATION, 20_000)])
    def test_unset_backend_follows_pi_count(self, num_pis, backend,
                                            num_patterns):
        c = random_circuit(1, num_pis=num_pis, num_gates=20)
        for est in (Estimator(c), Estimator(c, EstimatorConfig(seed=4))):
            assert est.backend is backend
            assert est.traces.num_patterns == num_patterns


class TestCondProb:
    """P(target=1 | condition=1), asked as ``phase_table(condition)``."""

    def test_toy_exact(self, toy_and):
        c, a, b, g = toy_and
        assert exact_estimator(c).phase_table(a)[g] == 0.5

    def test_target_among_conditions(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        assert est.phase_table(a)[a] == 1.0
        assert est.phase_table(g)[g] == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_enumeration(self, seed):
        """Every gate's table, each of its entries against the interpreter;
        a gate no row sets gives {}."""
        c = random_circuit(seed, num_pis=5, num_gates=25)
        est = exact_estimator(c)
        evals = [eval_circuit(c, vals) for _, vals in all_input_rows(c)]
        for cond in range(len(c)):
            rows = [e for e in evals if e[cond]]
            want = {g: sum(e[g] for e in rows) / len(rows)
                    for g in range(len(c))} if rows else {}
            assert est.phase_table(cond) == want


class TestQuotientMode:
    def test_agrees_without_noise(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        q = quotient_cond_prob(est, (g, True), ((a, True),))
        assert q == pytest.approx(0.5)

    def test_noise_amplified_on_polar_condition(self):
        # condition true on 1 of 128 rows: small absolute noise on the
        # denominator swings the quotient wildly while the trace ratio is exact
        c = Circuit()
        pis = [c.add_pi() for _ in range(7)]
        acc = pis[0]
        for p in pis[1:]:
            acc = c.add_and(acc, p)  # polar condition, P = 1/128
        c.set_outputs([acc])
        est = exact_estimator(c)
        q = (pis[0], True), ((acc, True),)
        exact_p = est.phase_table(acc)[pis[0]]
        assert exact_p == 1.0
        errs = [abs(quotient_cond_prob(est, *q, noise=0.003, noise_seed=s) - exact_p)
                for s in range(20)
                if quotient_cond_prob(est, *q, noise=0.003, noise_seed=s) is not None]
        assert max(errs) > 0.25

    def test_degenerate_denominator_none(self):
        c = Circuit()
        a = c.add_pi()
        z = c.add_const0()
        c.set_outputs([a])
        est = exact_estimator(c)
        assert quotient_cond_prob(est, (a, True), ((z, True),)) is None


class TestClauseProb:
    def test_correlated_or_semantics(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        assert est.clause_prob([(a, True), (b, True)]) == 0.75

    def test_correlated_sees_correlation(self, toy_and):
        c, a, b, g = toy_and
        est = exact_estimator(c)
        # g or not-a: g implies a, so this is just P(not a) + P(g) = 0.75
        signals = [(g, True), (a, False)]
        assert est.clause_prob(signals) == 0.75
        # independent approximation differs: 1 - (1-0.25)(1-0.5)
        assert est.clause_prob(signals, mode="independent") == pytest.approx(0.625)

    def test_empty_clause_rejected(self, toy_and):
        c, *_ = toy_and
        with pytest.raises(EstimatorError, match="empty"):
            exact_estimator(c).clause_prob([])

    def test_unknown_mode(self, toy_and):
        c, a, *_ = toy_and
        with pytest.raises(EstimatorError, match="mode"):
            exact_estimator(c).clause_prob([(a, True)], mode="weird")


class TestPolarAndPhaseTable:
    def test_phase_table_toy(self, toy_and):
        c, a, b, g = toy_and
        table = exact_estimator(c).phase_table(g)
        assert table[a] == 1.0 and table[b] == 1.0 and table[g] == 1.0

    def test_phase_table_unsat_output_empty(self):
        c = Circuit()
        a = c.add_pi()
        z = c.add_const0()
        c.set_outputs([z])
        assert exact_estimator(c).phase_table(z) == {}


class TestWitness:
    @pytest.mark.parametrize("inputs, first", [
        (range(2, 8), 63), ([1], 64), ([0, 7], 129)])
    def test_first_pattern_the_gate_sets(self, inputs, first):
        """On 8 PIs, PI j is bit 7 - j of the pattern index, so the AND of
        ``inputs`` is first 1 at pattern ``first``: the last bit of word 0,
        the first of word 1, and one in word 2."""
        c = Circuit()
        pis = [c.add_pi() for _ in range(8)]
        g = functools.reduce(c.add_and, [pis[j] for j in inputs])
        c.set_outputs([g])
        values = exact_estimator(c).witness(g)
        row = list(all_input_rows(c))[first][1]
        assert values == list(eval_circuit(c, row).values())
        assert values[g] is True

    def test_agrees_with_the_interpreter(self):
        c = random_circuit(7, num_pis=7, num_gates=80)
        est = exact_estimator(c)
        evals = [list(eval_circuit(c, row).values())
                 for _, row in all_input_rows(c)]
        for g in range(len(c)):
            assert est.witness(g) == next((e for e in evals if e[g]), None)

    def test_constant_gate_gives_none(self):
        c = Circuit()
        c.add_pi()
        z = c.add_const0()
        c.set_outputs([z])
        assert exact_estimator(c).witness(z) is None


PIN_DIGESTS = {
    Backend.EXACT:
        "cde0a7ff412b2935dc2692b749627aed614ead25ac8ccfed538143aa0efae8e7",
    Backend.SIMULATION:
        "7a1f244fbc2bc8ca6fb0d765b73311b69fb5e9846f0b3d7d7ae6c2a9e8c4f7fb",
}


def pin_lines(backend: Backend, seed: int) -> list[str]:
    """Every figure the estimator reports on one seeded circuit, one repr
    per query: node_prob, phase_table of a drawn gate and of the output,
    and clause_prob in both modes."""
    rng = random.Random(seed)
    c = random_circuit(seed, num_pis=6, num_gates=40)
    gates = list(range(len(c)))
    po = c.primary_outputs[0]
    # 777 patterns: the last packed byte has surplus bits
    est = Estimator(c, EstimatorConfig(backend=backend, num_patterns=777, seed=seed))

    def signal():
        return rng.choice(gates), rng.random() < 0.5

    lines = [repr((g, est.node_prob(g), est.node_prob(g, False))) for g in gates]
    for k in range(30):
        # only the last condition's gate is asked, every fifth time the
        # target's own; the other draws keep the clause lines' rng stream
        target = signal()
        conditions = [signal() for _ in range(rng.randint(1, 3))]
        if k % 5 == 0:
            conditions.append((target[0], rng.random() < 0.5))
        cond = conditions[-1][0]
        lines.append(repr((target[0], cond,
                           est.phase_table(cond).get(target[0]))))
    lines.append(repr(sorted(est.phase_table(po).items())))
    _, vmap = tseitin_encode(c)
    for _ in range(20):
        # clauses drawn over (gate, polarity) signals, so a line names no
        # variable number: it reads the same under any encoding that maps
        # the signals to literals soundly
        sigs = [signal() for _ in range(rng.randint(1, 4))]
        # the signals score_clauses passes: a NOT gate's literal names the
        # gate that owns its variable
        owned = [lit_to_signal(vmap, signal_to_lit(vmap, *sig))
                 for sig in sigs]
        lines.append(repr((sigs, est.clause_prob(owned),
                           est.clause_prob(owned, mode="independent"))))
    return lines


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.SIMULATION])
def test_estimator_pin(backend):
    """SHA-256 over pin_lines for 40 seeded circuits; a changed digest
    means some figure the estimator reports changed."""
    h = hashlib.sha256()
    for seed in range(40):
        h.update("\n".join(pin_lines(backend, seed)).encode() + b"\n")
    assert h.hexdigest() == PIN_DIGESTS[backend]
