import numpy as np
import pytest

from cascad.circuit import Circuit, GateKind
from cascad.sim import (TRUTH_TABLE_CAP, PatternTraces, SimError,
                        SimulationPlan, exact_truth_table,
                        exhaustive_patterns, sample_patterns, simulate)

from conftest import (all_input_rows, eval_circuit, random_circuit,
                      run_workload_suite)


# pattern counts on both sides of the byte and the 64-bit word edges; 13
# leaves three surplus bits in the last packed byte
PATTERN_COUNTS = [1, 7, 13, 63, 64, 65, 777, 20_000]


def traces_inputs(n):
    return sample_patterns(SimulationPlan(n, 0.5, seed=2), 6)


def small_traces(n):
    c = random_circuit(5, num_pis=6, num_gates=30)
    return c, simulate(c, traces_inputs(n))


def byte_rows(words, n):
    """The bytes of packed word rows that hold patterns 0..n-1."""
    return words.view(np.uint8)[..., :(n + 7) // 8]


def per_byte_simulate(circuit, block):
    """Reference rows: one uint8 row per gate, evaluated a byte at a time."""
    n = block.num_patterns
    mask = np.full((n + 7) // 8, 0xFF, dtype=np.uint8)
    mask[-1] = 0xFF >> (8 * len(mask) - n)
    inputs = byte_rows(block.words, n)
    bits = np.zeros((len(circuit), len(mask)), dtype=np.uint8)
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.PI:
            bits[i] = inputs[circuit.primary_inputs.index(i)]
        elif g.kind is GateKind.NOT:
            bits[i] = ~bits[g.fanins[0]] & mask
        elif g.kind is GateKind.AND:
            bits[i] = bits[g.fanins[0]] & bits[g.fanins[1]]
    return bits


def pack_rows(pi_columns):
    """Input rows, as PatternTraces, from explicit per-PI bit lists."""
    n = len(pi_columns[0])
    words = np.zeros((len(pi_columns), (n + 63) // 64), dtype=np.uint64)
    for row, col in zip(words, pi_columns):
        packed = np.packbits(np.array(col, dtype=np.uint8), bitorder="little")
        byte_rows(row, n)[:] = packed
    return PatternTraces(words, n)


def minterm_circuit(columns, num_pis):
    """Circuit whose k-th output realizes the OR of the given minterms.

    columns: list of sets of input-row indices where the output is 1.
    """
    c = Circuit()
    pis = [c.add_pi() for _ in range(num_pis)]
    outs = []
    for minterms in columns:
        terms = []
        for r in minterms:
            acc = None
            for j in range(num_pis):
                bit = (r >> (num_pis - 1 - j)) & 1
                sig = pis[j] if bit else c.add_not(pis[j])
                acc = sig if acc is None else c.add_and(acc, sig)
            terms.append(acc)
        if not terms:
            outs.append(c.add_const0())
            continue
        acc = terms[0]
        for t in terms[1:]:
            acc = c.add_not(c.add_and(c.add_not(acc), c.add_not(t)))
        outs.append(acc)
    c.set_outputs(outs)
    return c


class TestSamplePatterns:
    def test_rho_one_all_ones(self):
        block = sample_patterns(SimulationPlan(100, 1.0, seed=1), 2)
        assert block.words.dtype == np.uint64
        assert np.bitwise_count(block.words).sum() == 200

    def test_rho_zero_all_zeros(self):
        block = sample_patterns(SimulationPlan(100, 0.0, seed=1), 2)
        assert not block.words.any()

    def test_empirical_mean_near_rho(self):
        block = sample_patterns(SimulationPlan(20_000, 0.1, seed=3), 4)
        for row in block.words:
            mean = np.bitwise_count(row).sum() / 20_000
            assert abs(mean - 0.1) < 0.01  # binomial 99% interval

    def test_determinism(self):
        p = SimulationPlan(513, 0.3, seed=42)
        b1 = sample_patterns(p, 5)
        b2 = sample_patterns(p, 5)
        assert np.array_equal(b1.words, b2.words)

    def test_per_pi_workloads(self):
        block = sample_patterns(SimulationPlan(20_000, [0.2, 0.8], seed=9), 2)
        m0 = np.bitwise_count(block.words[0]).sum() / 20_000
        m1 = np.bitwise_count(block.words[1]).sum() / 20_000
        assert abs(m0 - 0.2) < 0.02 and abs(m1 - 0.8) < 0.02

    def test_surplus_bits_masked(self):
        block = sample_patterns(SimulationPlan(13, 1.0, seed=0), 1)
        assert np.bitwise_count(block.words).sum() == 13

    @pytest.mark.parametrize("rates", [[0.7], [0.5, 0.5, 0.5, 0.5]])
    def test_per_pi_workload_length_must_match(self, rates):
        with pytest.raises(SimError, match=f"{len(rates)} rates for 3 PIs"):
            sample_patterns(SimulationPlan(8, rates, seed=0), 3)


class TestSimulate:
    def test_and_of_all_ones(self, toy_and):
        c, a, b, g = toy_and
        block = sample_patterns(SimulationPlan(64, 1.0, seed=0), 2)
        traces = simulate(c, block)
        assert traces.count(g) == 64

    def test_simulation_table_example(self):
        # 8 published pattern rows with three observed node columns; the
        # circuit is reconstructed from the rows it must match
        pi_rows = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0),
                   (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
        x_col = [0, 1, 0, 0, 1, 1, 1, 0]
        y_col = [0, 1, 0, 0, 1, 1, 1, 0]
        z_col = [1, 0, 0, 1, 1, 0, 1, 0]
        to_row = lambda bits: sum(b << (3 - j) for j, b in enumerate(bits))
        cols = []
        for col in (x_col, y_col, z_col):
            cols.append({to_row(r) for r, v in zip(pi_rows, col) if v})
        c = minterm_circuit(cols, 4)
        block = pack_rows(list(zip(*pi_rows)))
        traces = simulate(c, block)
        for po, expect in zip(c.primary_outputs, (x_col, y_col, z_col)):
            got = list(np.unpackbits(byte_rows(traces.trace(po), 8),
                                     bitorder="little"))
            assert got == expect
        # node x probability over the 8 rows
        assert traces.count(c.primary_outputs[0]) / traces.num_patterns == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_interpreter(self, seed):
        c = random_circuit(seed, num_pis=7, num_gates=300)
        block = sample_patterns(SimulationPlan(512, 0.5, seed=seed), 7)
        traces = simulate(c, block)
        unpacked = {g: np.unpackbits(byte_rows(traces.words[g], 512),
                                     bitorder="little")
                    for g in range(len(c))}
        for k in range(0, 512, 37):  # spot-check rows
            vals = {p: bool(unpacked[p][k]) for p in c.primary_inputs}
            ref = eval_circuit(c, vals)
            for g, v in ref.items():
                assert bool(unpacked[g][k]) == v

    def test_width_mismatch(self, toy_and):
        c, *_ = toy_and
        with pytest.raises(Exception, match="PI rows"):
            simulate(c, sample_patterns(SimulationPlan(8, 0.5, seed=0), 3))


class TestExactTruthTable:
    def test_not_of_pi(self):
        c = Circuit()
        a = c.add_pi()
        n = c.add_not(a)
        c.set_outputs([n])
        tt = exact_truth_table(c)
        row = np.unpackbits(byte_rows(tt.trace(n), 2), bitorder="little")
        assert list(row[:2]) == [1, 0]

    def test_and_single_true_row(self, toy_and):
        c, a, b, g = toy_and
        tt = exact_truth_table(c)
        assert tt.count(g) == 1

    def test_cap_enforced(self):
        c = Circuit()
        for _ in range(21):
            c.add_pi()
        with pytest.raises(SimError, match="cap"):
            exact_truth_table(c)
        # the cap is the widest table built: one PI more raises
        assert exhaustive_patterns(TRUTH_TABLE_CAP).num_patterns == \
            1 << TRUTH_TABLE_CAP
        with pytest.raises(SimError, match=f"{TRUTH_TABLE_CAP + 1} PIs "
                           f"exceeds the {TRUTH_TABLE_CAP}-PI"):
            exhaustive_patterns(TRUTH_TABLE_CAP + 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_interpreter_everywhere(self, seed):
        c = random_circuit(seed, num_pis=5, num_gates=50)
        tt = exact_truth_table(c)
        rows = byte_rows(tt.words, tt.num_patterns)
        for r, vals in all_input_rows(c):
            ref = eval_circuit(c, vals)
            for g, v in ref.items():
                got = bool((rows[g][r // 8] >> (r % 8)) & 1)
                assert got == v, (g, r)


class TestWorkloadSuite:
    def test_uniform_toy(self, toy_and):
        c, a, b, g = toy_and
        _, probs = run_workload_suite(c, seed=1, workload=0.5)
        assert abs(probs[g] - 0.25) < 0.01

    def test_biased_toy_07_09(self, toy_and):
        c, a, b, g = toy_and
        _, probs = run_workload_suite(c, seed=2, workload=[0.7, 0.9])
        assert abs(probs[g] - 0.630) < 0.01

    def test_biased_toy_01_04(self, toy_and):
        c, a, b, g = toy_and
        _, probs = run_workload_suite(c, seed=3, workload=[0.1, 0.4])
        assert abs(probs[g] - 0.040) < 0.01

    def test_pi_profile_shape(self, toy_and):
        c, *_ = toy_and
        profile, _ = run_workload_suite(c, num_sims=10, patterns_per_sim=50, seed=0)
        assert profile.shape == (2, 10)
        assert ((0 <= profile) & (profile <= 1)).all()


class TestPatternTraces:
    @pytest.mark.parametrize("n", PATTERN_COUNTS)
    def test_rows_match_per_byte_reference(self, n):
        c, traces = small_traces(n)
        ref = per_byte_simulate(c, traces_inputs(n))
        assert traces.words.dtype == np.uint64
        assert traces.words.shape == (len(c), (n + 63) // 64)
        assert np.array_equal(byte_rows(traces.words, n), ref)
        # the word padding past pattern n - 1 holds no set bit
        assert (traces.counts() == np.bitwise_count(ref).sum(axis=1)).all()

    @pytest.mark.parametrize("n", PATTERN_COUNTS)
    def test_negative_row_is_complement(self, n):
        c, traces = small_traces(n)
        for g in range(len(c)):
            pos, neg = traces.trace(g), traces.trace(g, polarity=False)
            assert pos.dtype == neg.dtype == np.uint64
            assert not (pos & neg).any()
            assert traces.popcount(pos) + traces.popcount(neg) == n

    @pytest.mark.parametrize("n", PATTERN_COUNTS)
    def test_counts_under_condition_row(self, n):
        c, traces = small_traces(n)
        ref = per_byte_simulate(c, traces_inputs(n))
        cond = traces.trace(c.primary_inputs[0], polarity=False)
        counts = traces.counts(cond)
        want = np.bitwise_count(ref & byte_rows(cond, n)).sum(axis=1)
        assert (counts == want).all()
        for g in range(len(c)):
            assert counts[g] == traces.popcount(traces.trace(g) & cond)
            assert traces.counts()[g] == traces.count(g)

    def test_counts_across_row_blocks(self):
        # hundreds of gate rows, over a partial last word of patterns
        c = random_circuit(7, num_pis=8, num_gates=552)
        traces = simulate(c, sample_patterns(SimulationPlan(77, 0.5, seed=3), 8))
        cond = traces.trace(len(c) - 1)
        want = np.bitwise_count(traces.words & cond).sum(axis=1)
        got = traces.counts(cond)
        assert got.dtype == want.dtype and (got == want).all()
        assert (traces.counts() == np.bitwise_count(traces.words).sum(axis=1)).all()


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_close_to_exact(self, seed):
        c = random_circuit(seed, num_pis=8, num_gates=60)
        tt = exact_truth_table(c)
        block = sample_patterns(SimulationPlan(20_000, 0.5, seed=seed), 8)
        traces = simulate(c, block)
        for g in range(len(c)):
            exact = tt.count(g) / tt.num_patterns
            sampled = traces.count(g) / traces.num_patterns
            assert abs(exact - sampled) <= 0.02

    def test_exhaustive_patterns_equal_truth_table(self, toy_and):
        c, a, b, g = toy_and
        tt = exact_truth_table(c)
        traces = simulate(c, exhaustive_patterns(2))
        assert np.array_equal(tt.words, traces.words)
