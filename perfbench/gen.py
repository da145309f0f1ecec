"""Seeded LEC miter families, built through the program's circuit API.

Everything here is set-up: it is timed as ``setup_s`` and returns only the
AIGER bytes the program is later given.

* ``random_suite``: ``bench.gen_suite`` over random 16-input bases; mostly
  SAT mutations, some UNSAT function-preserving transforms.
* ``multiplier_miters``: UNSAT pairs of n-bit array multipliers.  One twin
  swaps the operands (a*b against b*a); the other adds the partial-product
  rows in another order (a reassociation of the same sum).  The seed also
  shuffles which AIGER input carries which operand bit, so every instance
  numbers its variables differently.
"""

from __future__ import annotations

import random


def random_base(rng: random.Random, num_pis: int, num_ands: int, num_pos: int):
    """Random AIG: each AND takes two earlier signals, each maybe inverted."""
    from cascad.circuit import Circuit
    c = Circuit()
    for _ in range(num_pis):
        c.add_pi()
    for _ in range(num_ands):
        fan = []
        for _ in range(2):
            g = rng.randrange(len(c))
            fan.append(c.add_not(g) if rng.random() < 0.4 else g)
        c.add_and(*fan)
    c.set_outputs(list(range(len(c) - num_pos, len(c))))
    return c


def random_suite(seed: int, num_bases: int, n_sat: int, n_unsat: int,
                 num_pis: int = 16, num_ands: int = 800, draws: int = 8):
    """[(id, aiger_bytes, expected, provenance)] from gen_suite, with the
    status gen_suite itself expects.

    The ``n_sat`` SAT and ``n_unsat`` UNSAT cases are dealt round-robin over
    the bases, as gen_suite deals them, but each base gets its own gen_suite
    call.  Random bases often have constant or heavily masked outputs; when
    gen_suite finds no effective mutation for one (SuiteError), that base
    alone is drawn again from the same seeded stream."""
    from cascad.bench import SuiteError, gen_suite
    from cascad.circuit import emit_aiger
    rng = random.Random(f"random-suite/{seed}")
    out = []
    for b in range(num_bases):
        for draw in range(draws):
            base = random_base(rng, num_pis, num_ands, num_pos=4)
            try:
                cases = gen_suite([base], n_sat=len(range(b, n_sat, num_bases)),
                                  n_unsat=len(range(b, n_unsat, num_bases)),
                                  seed=rng.randrange(2**32))
            except SuiteError:
                if draw == draws - 1:
                    raise
                continue
            out += [(f"b{b:02d}-{c.id}", emit_aiger(c.miter), c.expected,
                     {**c.provenance, "base": b, "base_draw": draw})
                    for c in cases]
            break
    return out


# -- multipliers ----------------------------------------------------------------


def _xor(c, x, y):
    return c.add_not(c.add_and(c.add_not(c.add_and(x, c.add_not(y))),
                               c.add_not(c.add_and(c.add_not(x), y))))


def _or(c, x, y):
    return c.add_not(c.add_and(c.add_not(x), c.add_not(y)))


def _add(c, xs, ys):
    """Ripple-carry sum of two little-endian bit lists (None = constant 0)."""
    out, carry = [], None
    for k in range(max(len(xs), len(ys))):
        bits = [b for b in (xs[k] if k < len(xs) else None,
                            ys[k] if k < len(ys) else None, carry)
                if b is not None]
        if not bits:
            out.append(None)
            carry = None
        elif len(bits) == 1:
            out.append(bits[0])
            carry = None
        elif len(bits) == 2:
            out.append(_xor(c, *bits))
            carry = c.add_and(*bits)
        else:
            x, y, z = bits
            t = _xor(c, x, y)
            out.append(_xor(c, t, z))
            carry = _or(c, c.add_and(x, y), c.add_and(t, z))
    if carry is not None:
        out.append(carry)
    return out


def array_multiplier(n: int, pi_of: dict, swap: bool, row_order: list[int]):
    """n x n -> 2n bit multiplier; row i is a_i * b << i (b_i * a if swap)."""
    from cascad.circuit import Circuit
    c = Circuit()
    pis = [c.add_pi() for _ in range(2 * n)]
    a = [pis[pi_of["a", k]] for k in range(n)]
    b = [pis[pi_of["b", k]] for k in range(n)]
    if swap:
        a, b = b, a
    acc: list = []
    for i in row_order:
        row = [None] * i + [c.add_and(a[i], b[j]) for j in range(n)]
        acc = _add(c, acc, row) if acc else row
    zero = None
    outs = []
    for k in range(2 * n):
        bit = acc[k] if k < len(acc) else None
        if bit is None:
            if zero is None:
                zero = c.add_const0()
            bit = zero
        outs.append(bit)
    c.set_outputs(outs)
    return c


def multiplier_miters(seed: int, sizes: list[int]):
    """[(id, aiger_bytes, "UNSAT", provenance)], one per entry of ``sizes``,
    alternating operand-swap and reassociation twins."""
    from cascad.circuit import build_miter, emit_aiger
    rng = random.Random(f"multiplier/{seed}")
    out = []
    for k, n in enumerate(sizes):
        slots = list(range(2 * n))
        rng.shuffle(slots)
        pi_of = {(side, i): slots[2 * i + (side == "b")]
                 for side in "ab" for i in range(n)}
        order = list(range(n))
        rng.shuffle(order)
        left = array_multiplier(n, pi_of, swap=False, row_order=order)
        if k % 2 == 0:
            twin = "swap"
            right = array_multiplier(n, pi_of, swap=True, row_order=order)
        else:
            twin = "reassoc"
            other = order[:]
            while other == order:
                rng.shuffle(other)
            right = array_multiplier(n, pi_of, swap=False, row_order=other)
        out.append((f"mult{n}-{k:02d}", emit_aiger(build_miter(left, right)),
                    "UNSAT", {"n": n, "twin": twin, "rows": order}))
    return out
