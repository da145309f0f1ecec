"""Bit-parallel Boolean simulation and exact truth tables.

Every row, input or gate, is bit-packed into whole 64-bit words: pattern k
is bit k % 64 of word k // 64.  Surplus bits past the last pattern are kept
at zero so popcounts are exact.  Pattern sampling uses a counter-based
generator keyed by (seed, PI index, pattern index), so the same plan always
yields the same bits regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind, ShapeError

TRUTH_TABLE_CAP = 20  # 2^m rows is impractical beyond this

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


class PatternTraces:
    """Packed bits, one row per gate, or one per PI for a set of inputs.

    ``words`` has shape (num_rows, ceil(n/64)), uint64, so the simulator
    and the counts work a machine word at a time; every bit past pattern
    n - 1 is zero.  ``valid`` is the row of the n valid pattern bits, so a
    row's complement is an XOR with it."""

    def __init__(self, words: np.ndarray, num_patterns: int):
        self.words = words
        self.num_patterns = num_patterns
        self.valid = np.full(words.shape[1], ~np.uint64(0))
        if num_patterns % 64:
            self.valid[-1] = (1 << (num_patterns % 64)) - 1

    def trace(self, gate: int, polarity: bool = True) -> np.ndarray:
        """The gate's packed row, or its complement when polarity is False."""
        row = self.words[gate]
        return row if polarity else row ^ self.valid

    @staticmethod
    def popcount(row: np.ndarray) -> int:
        return int(np.bitwise_count(row).sum())

    def count(self, gate: int) -> int:
        return self.popcount(self.words[gate])

    def first_pattern(self, gate: int) -> list[bool] | None:
        """Every row's bit at the first pattern that row ``gate`` sets, or
        None when it sets none."""
        set_words = np.flatnonzero(self.words[gate])
        if not len(set_words):
            return None
        column = self.words[:, set_words[0]]
        bit = (int(column[gate]) & -int(column[gate])).bit_length() - 1
        return (column >> np.uint64(bit) & np.uint64(1)).astype(bool).tolist()

    def counts(self, cond_row: np.ndarray | None = None) -> np.ndarray:
        """Per-gate popcounts, of the patterns in cond_row when given."""
        words = self.words if cond_row is None else self.words & cond_row
        return np.bitwise_count(words).sum(axis=1, dtype=np.uint64)


def _word_rows(num_rows: int, num_patterns: int) -> np.ndarray:
    """Zeroed rows of whole 64-bit words, room for num_patterns bits each."""
    return np.zeros((num_rows, (num_patterns + 63) // 64), dtype=np.uint64)


def _packed_bytes(words: np.ndarray, num_patterns: int) -> np.ndarray:
    """The bytes of word rows that np.packbits fills for num_patterns bits;
    it zero-fills the last one, so surplus bits stay zero."""
    return words.view(np.uint8)[:, :(num_patterns + 7) // 8]


def sample_patterns(plan: SimulationPlan, num_pis: int) -> PatternTraces:
    """Bernoulli(rho_i) bits, one row per PI, from the counter-based generator."""
    rhos = plan.workload
    if not isinstance(rhos, (list, tuple)):
        rhos = [rhos] * num_pis
    elif len(rhos) != num_pis:
        raise SimError(f"workload gives {len(rhos)} rates for {num_pis} PIs")
    n = plan.num_patterns
    words = _word_rows(num_pis, n)
    packed = _packed_bytes(words, n)
    counter = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    for j, rho in enumerate(rhos):
        if rho >= 1.0:
            bits = np.ones(n, dtype=np.uint8)
        elif rho <= 0.0:
            bits = np.zeros(n, dtype=np.uint8)
        else:
            base = _mix64(np.uint64(plan.seed & 0xFFFFFFFFFFFFFFFF)
                          ^ _mix64(np.uint64(j) + _GOLDEN))
            draws = _mix64(base + counter)
            threshold = np.uint64(int(rho * 2**64))
            bits = draws < threshold
        packed[j] = np.packbits(bits, bitorder="little")
    return PatternTraces(words, n)


def simulate(circuit: Circuit, inputs: PatternTraces) -> PatternTraces:
    """Evaluate every gate on ``inputs``, one row per PI, in index order,
    64 patterns per machine word.

    Each gate is written in place into its row of the table; a NOT is an
    XOR with the table's valid-bits row, so surplus bits stay zero."""
    if inputs.words.shape[0] != len(circuit.primary_inputs):
        raise ShapeError(f"inputs have {inputs.words.shape[0]} PI rows, "
                         f"circuit has {len(circuit.primary_inputs)}")
    traces = PatternTraces(_word_rows(len(circuit), inputs.num_patterns),
                           inputs.num_patterns)
    traces.words[circuit.primary_inputs] = inputs.words
    valid = traces.valid
    rows = list(traces.words)  # one view per gate row, made once
    band, bxor = np.bitwise_and, np.bitwise_xor
    AND, NOT = GateKind.AND, GateKind.NOT
    for row, (kind, fanins) in zip(rows, circuit.gates):
        if kind is AND:
            band(rows[fanins[0]], rows[fanins[1]], out=row)
        elif kind is NOT:
            bxor(rows[fanins[0]], valid, out=row)
        # a PI row is set above; the constant's row stays zero
    return traces


def exhaustive_patterns(num_pis: int) -> PatternTraces:
    """All 2^m input rows in PI-index-major binary counting order."""
    if num_pis > TRUTH_TABLE_CAP:
        raise SimError(f"{num_pis} PIs exceeds the {TRUTH_TABLE_CAP}-PI truth-table cap")
    n = 1 << num_pis
    words = _word_rows(num_pis, n)
    packed = _packed_bytes(words, n)
    rows = np.arange(n, dtype=np.uint32)
    for j in range(num_pis):
        # bit stays bound until the next shift is made: with each 2^m-wide
        # temporary freed as soon as it is used, malloc gives its pages
        # back and faults them in again (at m = 16, 9x the minor faults
        # and 3x the time)
        bit = (rows >> (num_pis - 1 - j)) & 1
        packed[j] = np.packbits(bit.astype(np.uint8), bitorder="little")
    return PatternTraces(words, n)


def exact_truth_table(circuit: Circuit) -> PatternTraces:
    return simulate(circuit, exhaustive_patterns(len(circuit.primary_inputs)))
