import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cascad.circuit import Circuit
from cascad.sim import (PatternBlock, SimError, SimulationPlan,
                        exact_truth_table, exhaustive_patterns,
                        run_workload_suite, sample_patterns, simulate,
                        trace_probability, read_traces, write_traces)

from conftest import all_input_rows, eval_circuit, random_circuit


def pack_rows(pi_columns):
    """PatternBlock from explicit per-PI bit lists."""
    n = len(pi_columns[0])
    bits = np.array([np.packbits(np.array(col, dtype=np.uint8), bitorder="little")
                     for col in pi_columns])
    return PatternBlock(bits, n)


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
        assert np.bitwise_count(block.bits).sum() == 200

    def test_rho_zero_all_zeros(self):
        block = sample_patterns(SimulationPlan(100, 0.0, seed=1), 2)
        assert block.bits.sum() == 0

    def test_empirical_mean_near_rho(self):
        block = sample_patterns(SimulationPlan(20_000, 0.1, seed=3), 4)
        for row in block.bits:
            mean = np.bitwise_count(row).sum() / 20_000
            assert abs(mean - 0.1) < 0.01  # binomial 99% interval

    def test_determinism(self):
        p = SimulationPlan(513, 0.3, seed=42)
        b1 = sample_patterns(p, 5)
        b2 = sample_patterns(p, 5)
        assert np.array_equal(b1.bits, b2.bits)

    def test_per_pi_workloads(self):
        block = sample_patterns(SimulationPlan(20_000, [0.2, 0.8], seed=9), 2)
        m0 = np.bitwise_count(block.bits[0]).sum() / 20_000
        m1 = np.bitwise_count(block.bits[1]).sum() / 20_000
        assert abs(m0 - 0.2) < 0.02 and abs(m1 - 0.8) < 0.02

    def test_surplus_bits_masked(self):
        block = sample_patterns(SimulationPlan(13, 1.0, seed=0), 1)
        assert np.bitwise_count(block.bits).sum() == 13


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
            got = list(np.unpackbits(traces.trace(po), bitorder="little")[:8])
            assert got == expect
        # node x probability over the 8 rows
        assert trace_probability(traces, c.primary_outputs[0]) == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_interpreter(self, seed):
        c = random_circuit(seed, num_pis=7, num_gates=300)
        block = sample_patterns(SimulationPlan(512, 0.5, seed=seed), 7)
        traces = simulate(c, block)
        unpacked = {g: np.unpackbits(traces.bits[g], bitorder="little")[:512]
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

    def test_virtual_and_trace_law(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        v = aug.add_virtual_and(a, b)
        block = sample_patterns(SimulationPlan(256, 0.5, seed=5), 2)
        traces = simulate(aug, block)
        assert np.array_equal(traces.trace(v),
                              traces.trace(a) & traces.trace(b))

    def test_virtual_div_has_no_trace(self, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        j = aug.add_virtual_and(a, b)
        d = aug.add_virtual_div(j, b)
        traces = simulate(aug, sample_patterns(SimulationPlan(8, 0.5, seed=0), 2))
        with pytest.raises(SimError, match="no trace"):
            traces.trace(d)


class TestExactTruthTable:
    def test_not_of_pi(self):
        c = Circuit()
        a = c.add_pi()
        n = c.add_not(a)
        c.set_outputs([n])
        tt = exact_truth_table(c)
        assert list(np.unpackbits(tt.trace(n), bitorder="little")[:2]) == [1, 0]

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

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_interpreter_everywhere(self, seed):
        c = random_circuit(seed, num_pis=5, num_gates=50)
        tt = exact_truth_table(c)
        for r, vals in all_input_rows(c):
            ref = eval_circuit(c, vals)
            for g, v in ref.items():
                got = bool((tt.bits[g][r // 8] >> (r % 8)) & 1)
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


class TestTraceFile:
    def test_round_trip(self, tmp_path, toy_and):
        c, a, b, g = toy_and
        aug = c.copy()
        j = aug.add_virtual_and(a, b)
        aug.add_virtual_div(j, b)
        traces = simulate(aug, sample_patterns(SimulationPlan(100, 0.5, seed=7), 2))
        path = str(tmp_path / "t.bin")
        write_traces(traces, path)
        back = read_traces(path)
        assert back.num_patterns == traces.num_patterns
        assert np.array_equal(back.bits, traces.bits)
        assert np.array_equal(back.has_trace, traces.has_trace)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(SimError, match="magic"):
            read_traces(str(p))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=40),
        st.builds(lambda version, gates, patterns, body, cut:
                  (b"CTRC" + struct.pack("<III", version, gates, patterns)
                   + body)[:cut],
                  st.sampled_from([1, 2]), st.integers(0, 6),
                  st.integers(0, 20), st.binary(max_size=30),
                  st.integers(0, 60))))
    @example(b"CTRC\x01\x00")
    @example(b"CTRC" + struct.pack("<III", 1, 2, 8) + b"\x03")
    def test_fuzz_raises_only_sim_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.ctrc")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                read_traces(path)
            except SimError:
                pass


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_close_to_exact(self, seed):
        c = random_circuit(seed, num_pis=8, num_gates=60)
        tt = exact_truth_table(c)
        block = sample_patterns(SimulationPlan(20_000, 0.5, seed=seed), 8)
        traces = simulate(c, block)
        for g in range(len(c)):
            exact = trace_probability(tt, g)
            sampled = trace_probability(traces, g)
            assert abs(exact - sampled) <= 0.02

    def test_exhaustive_patterns_equal_truth_table(self, toy_and):
        c, a, b, g = toy_and
        tt = exact_truth_table(c)
        traces = simulate(c, exhaustive_patterns(2))
        assert np.array_equal(tt.bits, traces.bits)
