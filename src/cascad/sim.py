"""Bit-parallel Boolean simulation and exact truth tables.

Traces are bit-packed little-endian (numpy uint8 rows); surplus bits in the
last byte are kept at zero so popcounts are exact.  Pattern sampling uses a
counter-based generator keyed by (seed, PI index, pattern index), so the same
plan always yields the same bits regardless of evaluation order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind, ShapeError

TRUTH_TABLE_CAP = 20  # 2^m rows is impractical beyond this
COUNT_BLOCK_ROWS = 256  # gate rows per block in PatternTraces.counts

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class SimError(Exception):
    pass


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; multiplications wrap modulo 2**64 by design
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64, copy=True)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


@dataclass
class SimulationPlan:
    num_patterns: int
    workload: float | list[float] = 0.5  # per-PI activation probability rho
    seed: int = 0

    def __post_init__(self):
        if self.num_patterns < 1:
            raise SimError("num_patterns must be >= 1")
        rhos = self.workload if isinstance(self.workload, (list, tuple)) else [self.workload]
        for r in rhos:
            if not (0.0 <= r <= 1.0):
                raise SimError(f"workload {r} outside [0, 1]")

    def rho_for(self, pi_index: int) -> float:
        if isinstance(self.workload, (list, tuple)):
            return self.workload[pi_index]
        return self.workload


@dataclass
class PatternBlock:
    """Packed input bits, one row per PI."""
    bits: np.ndarray  # shape (num_pis, num_bytes), uint8
    num_patterns: int


@dataclass
class PatternTraces:
    """Packed outcome bits, one row per gate."""
    bits: np.ndarray  # shape (num_gates, num_bytes), uint8
    num_patterns: int

    def trace(self, gate: int, polarity: bool = True) -> np.ndarray:
        """The gate's packed row, or its complement when polarity is False."""
        row = self.bits[gate]
        if polarity:
            return row
        return ~row & _tail_mask(self.num_patterns, row.shape[0])

    @staticmethod
    def popcount(row: np.ndarray) -> int:
        return int(np.bitwise_count(row).sum())

    def count(self, gate: int) -> int:
        return self.popcount(self.trace(gate))

    def counts(self, cond_row: np.ndarray | None = None) -> np.ndarray:
        """Per-gate popcounts, of the patterns in cond_row when given.

        Rows are counted COUNT_BLOCK_ROWS at a time, so the temporaries
        stay small next to the table: whole-table ones would triple the
        peak memory of a phase-table query."""
        n = self.bits.shape[0]
        out = np.zeros(n, dtype=np.uint64)
        for lo in range(0, n, COUNT_BLOCK_ROWS):
            block = self.bits[lo:lo + COUNT_BLOCK_ROWS]
            if cond_row is not None:
                block = block & cond_row
            np.bitwise_count(block).sum(axis=1, out=out[lo:lo + COUNT_BLOCK_ROWS])
        return out


def _num_bytes(n: int) -> int:
    return (n + 7) // 8


def _tail_mask(num_patterns: int, num_bytes: int) -> np.ndarray:
    mask = np.full(num_bytes, 0xFF, dtype=np.uint8)
    surplus = num_bytes * 8 - num_patterns
    if surplus:
        mask[-1] = 0xFF >> surplus
    return mask


def sample_patterns(plan: SimulationPlan, num_pis: int) -> PatternBlock:
    """Independent Bernoulli(rho_i) bits from the counter-based generator."""
    n = plan.num_patterns
    nb = _num_bytes(n)
    out = np.zeros((num_pis, nb), dtype=np.uint8)
    counter = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    for j in range(num_pis):
        rho = plan.rho_for(j)
        if rho >= 1.0:
            bits = np.ones(n, dtype=np.uint8)
        elif rho <= 0.0:
            bits = np.zeros(n, dtype=np.uint8)
        else:
            base = _mix64(np.uint64(plan.seed & 0xFFFFFFFFFFFFFFFF)
                          ^ _mix64(np.uint64(j) + _GOLDEN))
            draws = _mix64(base + counter)
            threshold = np.uint64(int(rho * 2**64))
            bits = (draws < threshold).astype(np.uint8)
        out[j] = np.packbits(bits, bitorder="little")
    mask = _tail_mask(n, nb)
    out &= mask
    return PatternBlock(out, n)


def simulate(circuit: Circuit, inputs: PatternBlock) -> PatternTraces:
    """Evaluate every gate level-by-level over the packed pattern block."""
    if inputs.bits.shape[0] != len(circuit.primary_inputs):
        raise ShapeError(
            f"pattern block has {inputs.bits.shape[0]} PI rows, circuit has "
            f"{len(circuit.primary_inputs)}")
    n = inputs.num_patterns
    nb = _num_bytes(n)
    mask = _tail_mask(n, nb)
    bits = np.zeros((len(circuit), nb), dtype=np.uint8)
    pi_row = {g: k for k, g in enumerate(circuit.primary_inputs)}
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.PI:
            bits[i] = inputs.bits[pi_row[i]]
        elif g.kind is GateKind.CONST0:
            pass  # zeros
        elif g.kind is GateKind.NOT:
            bits[i] = ~bits[g.fanins[0]] & mask
        else:  # AND
            bits[i] = bits[g.fanins[0]] & bits[g.fanins[1]]
    return PatternTraces(bits, n)


def exhaustive_patterns(num_pis: int) -> PatternBlock:
    """All 2^m input rows in PI-index-major binary counting order."""
    if num_pis > TRUTH_TABLE_CAP:
        raise SimError(f"{num_pis} PIs exceeds the {TRUTH_TABLE_CAP}-PI truth-table cap")
    n = 1 << num_pis
    rows = np.arange(n, dtype=np.uint32)
    out = np.zeros((num_pis, _num_bytes(n)), dtype=np.uint8)
    for j in range(num_pis):
        bit = (rows >> (num_pis - 1 - j)) & 1
        out[j] = np.packbits(bit.astype(np.uint8), bitorder="little")
    return PatternBlock(out, n)


def exact_truth_table(circuit: Circuit) -> PatternTraces:
    block = exhaustive_patterns(len(circuit.primary_inputs))
    return simulate(circuit, block)


def run_workload_suite(circuit: Circuit, num_sims: int = 200,
                       patterns_per_sim: int = 100, seed: int = 0,
                       workload: float | list[float] = 0.5):
    """Repeated biased simulations: per-PI per-sim probabilities plus node
    probabilities aggregated over all num_sims * patterns_per_sim patterns.

    Returns (pi_profile, node_probs): pi_profile has shape (num_pis, num_sims)
    and node_probs[g] is gate g's probability.
    """
    if num_sims < 1 or patterns_per_sim < 1:
        raise SimError("simulation counts must be positive")
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


# -- trace file format ("CTRC") ----------------------------------------------
# magic, <III version/num_gates/num_patterns, one packed "has a trace" flag
# bit per gate (always set), then the packed rows.

_MAGIC = b"CTRC"
_VERSION = 1
_HEADER = len(_MAGIC) + struct.calcsize("<III")


def write_traces(traces: PatternTraces, path: str):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, traces.bits.shape[0],
                             traces.num_patterns))
        flags = np.ones(traces.bits.shape[0], dtype=bool)
        fh.write(np.packbits(flags, bitorder="little").tobytes())
        fh.write(traces.bits.tobytes())


def read_traces(path: str) -> PatternTraces:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise SimError(f"bad trace file magic {data[:4]!r}")
    if len(data) < _HEADER:
        raise SimError(f"truncated trace file header: {len(data)} bytes")
    version, num_gates, num_patterns = struct.unpack_from("<III", data, 4)
    if version != _VERSION:
        raise SimError(f"unsupported trace file version {version}")
    nflags = _num_bytes(num_gates)
    nb = _num_bytes(num_patterns)
    if len(data) < _HEADER + nflags + num_gates * nb:
        raise SimError(f"truncated trace file: {len(data)} bytes for {num_gates} "
                       f"gates x {num_patterns} patterns")
    flags = np.frombuffer(data, np.uint8, nflags, _HEADER)
    untraced = np.flatnonzero(np.unpackbits(flags, bitorder="little")[:num_gates] == 0)
    if untraced.size:
        raise SimError(f"gate {untraced[0]} has no trace row")
    bits = np.frombuffer(data, np.uint8, num_gates * nb, _HEADER + nflags)
    return PatternTraces(bits.reshape(num_gates, nb).copy(), num_patterns)
