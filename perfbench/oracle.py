"""Verdict oracle that shares no code with the program under test.

It reads the ASCII AIGER bytes the program is given and evaluates the miter
output itself: exhaustively over every input row for the expected status, or
on one input vector to check a SAT model.  Rows are evaluated in chunks of
packed bits so the oracle's memory stays far below the program's.
"""

from __future__ import annotations

import numpy as np

MAX_PIS = 16
CHUNK_ROWS = 1 << 12


class OracleError(Exception):
    pass


class Aig:
    """Combinational ASCII AIGER: input literals, output literals, AND rows."""

    def __init__(self, data: bytes):
        lines = data.decode("ascii").split("\n")
        head = lines[0].split()
        if len(head) != 6 or head[0] != "aag":
            raise OracleError(f"not an ASCII AIGER header: {lines[0]!r}")
        _, ni, nl, no, na = (int(x) for x in head[1:])
        if nl:
            raise OracleError("latches are not combinational")
        body = lines[1:1 + ni + no + na]
        if len(body) != ni + no + na:
            raise OracleError("truncated AIGER body")
        self.inputs = [int(x) for x in body[:ni]]
        self.outputs = [int(x) for x in body[ni:ni + no]]
        self.ands = [tuple(int(x) for x in row.split())
                     for row in body[ni + no:]]
        defined = {0} | {lit >> 1 for lit in self.inputs}
        for lhs, r0, r1 in self.ands:
            if (r0 >> 1) not in defined or (r1 >> 1) not in defined:
                raise OracleError(f"AND {lhs} uses an undefined literal")
            defined.add(lhs >> 1)

    def evaluate(self, columns: list[np.ndarray], width: int) -> np.ndarray:
        """Output 0 for packed input columns (one uint8 array per input)."""
        ones = np.full(width, 0xFF, dtype=np.uint8)
        value = {0: np.zeros(width, dtype=np.uint8)}
        for lit, col in zip(self.inputs, columns):
            value[lit >> 1] = col

        def lit_value(lit):
            v = value[lit >> 1]
            return v ^ ones if lit & 1 else v

        for lhs, r0, r1 in self.ands:
            value[lhs >> 1] = lit_value(r0) & lit_value(r1)
        return lit_value(self.outputs[0])


def expected_status(data: bytes) -> str:
    """'SAT' if some input row drives output 0 to 1, else 'UNSAT'."""
    aig = Aig(data)
    m = len(aig.inputs)
    if m > MAX_PIS:
        raise OracleError(f"{m} inputs is beyond the exhaustive cap {MAX_PIS}")
    rows = 1 << m
    step = min(rows, CHUNK_ROWS)
    for lo in range(0, rows, step):
        r = np.arange(lo, lo + step, dtype=np.uint32)
        width = (step + 7) // 8
        cols = [np.packbits(((r >> j) & 1).astype(np.uint8), bitorder="little")
                for j in range(m)]
        out = aig.evaluate(cols, width)
        if step < 8:
            out &= np.uint8((1 << step) - 1)
        if out.any():
            return "SAT"
    return "UNSAT"


def output_on(data: bytes, pi_values: list[bool]) -> bool:
    """Output 0 of the miter on one input vector, in AIGER input order."""
    aig = Aig(data)
    if len(pi_values) != len(aig.inputs):
        raise OracleError("input vector length does not match the AIGER")
    cols = [np.array([0xFF if v else 0], dtype=np.uint8) for v in pi_values]
    return bool(aig.evaluate(cols, 1)[0] & 1)
