"""Bit-parallel Boolean simulation and exact truth tables.

Traces are bit-packed little-endian: pattern k is bit k % 8 of byte k // 8
of a gate's row.  Input blocks hold uint8 rows; trace tables hold their rows
in whole 64-bit words (see PatternTraces).  Surplus bits past the last
pattern are kept at zero so popcounts are exact.  Pattern sampling uses a
counter-based generator keyed by (seed, PI index, pattern index), so the same
plan always yields the same bits regardless of evaluation order.
"""

from __future__ import annotations

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


class PatternTraces:
    """Packed outcome bits, one row per gate.

    Rows are kept in whole 64-bit words (``words``, shape (num_gates,
    ceil(n/64)), uint64), so the simulator and the counts work a machine
    word at a time; every bit past pattern n - 1 is zero.  ``bits`` is the
    byte view of the same rows, shape (num_gates, ceil(n/8)), and
    ``trace`` gives one such byte row."""

    def __init__(self, words: np.ndarray, num_patterns: int):
        self.words = words
        self.num_patterns = num_patterns
        self._num_bytes = _num_bytes(num_patterns)

    @property
    def bits(self) -> np.ndarray:
        return self.words.view(np.uint8)[:, :self._num_bytes]

    def trace(self, gate: int, polarity: bool = True) -> np.ndarray:
        """The gate's packed row, or its complement when polarity is False."""
        row = self.words[gate].view(np.uint8)[:self._num_bytes]
        if polarity:
            return row
        return ~row & _tail_mask(self.num_patterns, self._num_bytes)

    @staticmethod
    def popcount(row: np.ndarray) -> int:
        return int(np.bitwise_count(row).sum())

    def count(self, gate: int) -> int:
        return self.popcount(self.words[gate])

    def counts(self, cond_row: np.ndarray | None = None) -> np.ndarray:
        """Per-gate popcounts, of the patterns in cond_row when given.

        Rows are counted COUNT_BLOCK_ROWS at a time, so the temporaries
        stay small next to the table: whole-table ones would triple the
        peak memory of a phase-table query."""
        words = self.words
        n = words.shape[0]
        out = np.zeros(n, dtype=np.uint64)
        if cond_row is not None:
            cond = _word_row(cond_row, self.num_patterns)
            masked = np.empty((min(n, COUNT_BLOCK_ROWS), words.shape[1]),
                              dtype=np.uint64)
        for lo in range(0, n, COUNT_BLOCK_ROWS):
            block = words[lo:lo + COUNT_BLOCK_ROWS]
            if cond_row is not None:
                block = np.bitwise_and(block, cond, out=masked[:len(block)])
            np.bitwise_count(block).sum(axis=1, out=out[lo:lo + COUNT_BLOCK_ROWS])
        return out


def _num_bytes(n: int) -> int:
    return (n + 7) // 8


def _word_rows(num_rows: int, num_patterns: int) -> np.ndarray:
    """Zeroed rows of whole 64-bit words, room for num_patterns bits each."""
    return np.zeros((num_rows, (num_patterns + 63) // 64), dtype=np.uint64)


def _word_row(byte_row: np.ndarray, num_patterns: int) -> np.ndarray:
    """A packed byte row copied into a zero-padded row of 64-bit words."""
    row = _word_rows(1, num_patterns)[0]
    row.view(np.uint8)[:len(byte_row)] = byte_row
    return row


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
    """Evaluate every gate in index order, 64 patterns per machine word.

    Each gate is written in place into its row of the table; a NOT is an
    XOR with the word mask of the n valid pattern bits, so surplus bits
    stay zero."""
    if inputs.bits.shape[0] != len(circuit.primary_inputs):
        raise ShapeError(
            f"pattern block has {inputs.bits.shape[0]} PI rows, circuit has "
            f"{len(circuit.primary_inputs)}")
    n = inputs.num_patterns
    words = _word_rows(len(circuit), n)
    words.view(np.uint8)[circuit.primary_inputs, :inputs.bits.shape[1]] = inputs.bits
    mask = _word_row(_tail_mask(n, _num_bytes(n)), n)
    rows = list(words)  # one view per gate row, made once
    band, bxor = np.bitwise_and, np.bitwise_xor
    AND, NOT = GateKind.AND, GateKind.NOT
    for row, (kind, fanins) in zip(rows, circuit.gates):
        if kind is AND:
            band(rows[fanins[0]], rows[fanins[1]], out=row)
        elif kind is NOT:
            bxor(rows[fanins[0]], mask, out=row)
        # a PI row is set above; the constant's row stays zero
    return PatternTraces(words, n)


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
