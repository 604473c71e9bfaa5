"""GF(2) linear algebra for the payload solver.

Rows are banded: row i is ``(lead[i], mask[i])``, where bit k of the int
``mask[i]`` holds column ``lead[i] + k`` and bit 0 is set (an empty row is
``(0, 0)``).  This is the one row format: ``eliminate`` takes the two
parallel sequences.  It inserts rows in a caller-chosen priority order
into a row-echelon basis keyed by leading column; a row that reduces to
0 = 1 conflicts with higher-priority rows already accepted and is reported
as violated (greedy maximal consistent subsystem).

If every input row lies within w columns of its lead, so does every
basis row: a row meets only the basis row of its own lead c, both lie in
[c, c + w - 1], and their XOR clears c.  So each step, a list lookup and a
small-int XOR, raises the lead, but w does not bound the steps: each basis
row met can reach w - 1 columns past the row's end.  Rows of the 802.11
K=7 code span 7 columns (both generators tap x[t] and x[t-6]).  Consistent
7-bin plans take at most one step a row (48 bytes: 10,392 of 18,186 rows
insert at once); consistent 12- to 30-bin ones took up to 8, and an
over-constrained 30-bin 32-byte one up to 58.  Back-substitution is one
shift, AND and popcount per pivot on a w-bit window of x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EliminationResult:
    x: np.ndarray  # one solution, free variables zero
    rank: int
    violated: list  # input row indices of rows inconsistent with earlier ones
    satisfied: int
    pivot_cols: list = field(default_factory=list)
    max_span: int = 0  # widest basis row, in columns


def eliminate(lead, mask, rhs, n_cols: int,
              order: np.ndarray | None = None) -> EliminationResult:
    """Greedy row-echelon elimination in priority order.

    Row i is the band ``(lead[i], mask[i])`` with right-hand bit ``rhs[i]``.
    Rows are inserted in ``order`` (default: given order); each is reduced
    against the basis built so far, always at its lowest column.  A row
    reducing to 0 = 1 is skipped and its index i (not its place in
    ``order``) recorded in ``violated``, so the satisfied rows always form
    a consistent system solved exactly by the returned x.
    """
    ids = np.arange(len(lead)) if order is None else np.asarray(order, dtype=np.intp)
    # a list holding masks past 64 bits would become floats in a numpy array
    lead, mask, rhs = (a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
                       for a in (lead, mask, rhs))
    # the basis by pivot column: its mask (0: no pivot yet) and right-hand bit
    piv, pr, cols = [0] * n_cols, bytearray(n_cols), []
    span = 0  # OR of the basis masks, as wide as the widest
    violated: list[int] = []

    for ri, col, m, r in zip(ids.tolist(), lead[ids].tolist(), mask[ids].tolist(),
                             rhs[ids].tolist()):
        while m:
            p = piv[col]
            if not p:
                piv[col], pr[col] = m, r
                cols.append(col)
                span |= m
                break
            m ^= p
            r ^= pr[col]
            if m:
                low = (m & -m).bit_length() - 1
                m >>= low
                col += low
        else:
            if r:
                violated.append(ri)

    # a basis row's other columns all lie above its pivot, so in decreasing
    # pivot order each is fixed before it is read.  Bit k of win is x[col + k];
    # the columns between two pivots are free and stay zero
    x, win, prev, keep = bytearray(n_cols), 0, n_cols, (1 << span.bit_length()) - 1
    for col in np.sort(np.fromiter(cols, np.int64, len(cols)))[::-1].tolist():
        win = (win << (prev - col)) & keep
        r = pr[col] ^ ((win & piv[col]).bit_count() & 1)
        x[col] = r
        win, prev = win | r, col

    return EliminationResult(
        x=np.frombuffer(x, dtype=np.uint8).copy(),
        rank=len(cols),
        violated=violated,
        satisfied=len(lead) - len(violated),
        pivot_cols=cols,
        max_span=span.bit_length(),
    )
