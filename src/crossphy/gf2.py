"""GF(2) linear algebra for the payload solver.

Rows are banded: ``(lead, mask)``, where bit k of the int ``mask`` holds
column ``lead + k`` and bit 0 is set (an empty row is ``(0, 0)``).  This
is the one row format: ``eliminate`` takes bands only.  It inserts rows
in a caller-chosen priority order into a row-echelon basis keyed by
leading column; a row that reduces to 0 = 1 conflicts with higher-priority
rows already accepted and is reported as violated (greedy maximal
consistent subsystem).

If every input row lies within w columns of its lead, so does every basis
row: a row meets only the basis row of its own lead c, both lie in
[c, c + w - 1], and their XOR clears c.  A row thus takes at most w steps,
each a dict lookup and a small-int XOR.  Rows of the 802.11 K=7 code span
7 columns (both generators tap x[t] and x[t-6]), so eliminating them is
linear in the row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EliminationResult:
    x: np.ndarray  # one solution, free variables zero
    rank: int
    violated: list  # indices (into `order`) of rows inconsistent with earlier ones
    satisfied: int
    pivot_cols: list = field(default_factory=list)
    max_span: int = 0  # widest basis row, in columns


def eliminate(rows, rhs: np.ndarray, n_cols: int,
              order: np.ndarray | None = None) -> EliminationResult:
    """Greedy row-echelon elimination in priority order.

    ``rows`` is a sequence of ``(lead, mask)`` rows and ``rhs`` holds the
    right-hand bits.  Rows are inserted in ``order`` (default: given
    order); each is reduced against the basis built so far, always at its
    lowest column.  A row reducing to 0 = 1 is recorded as violated and
    skipped, so the satisfied rows always form a consistent system solved
    exactly by the returned x.
    """
    n_rows = len(rows)
    rhs = np.asarray(rhs).tolist()
    order = range(n_rows) if order is None else np.asarray(order).tolist()
    basis: dict[int, tuple[int, int]] = {}  # pivot column -> (mask, rhs)
    violated: list[int] = []

    for ri in order:
        col, m = rows[ri]
        r = rhs[ri]
        while m:
            hit = basis.get(col)
            if hit is None:
                basis[col] = (m, r)
                break
            m ^= hit[0]
            r ^= hit[1]
            if m:
                low = (m & -m).bit_length() - 1
                m >>= low
                col += low
        else:
            if r:
                violated.append(ri)

    # a basis row's other columns all lie above its pivot, so in decreasing
    # pivot order each is fixed before it is read; free columns stay zero
    x = bytearray(n_cols)
    for col in sorted(basis, reverse=True):
        m, r = basis[col]
        for k in range(1, m.bit_length()):
            if m >> k & 1:
                r ^= x[col + k]
        x[col] = r

    return EliminationResult(
        x=np.frombuffer(x, dtype=np.uint8).copy(),
        rank=len(basis),
        violated=violated,
        satisfied=n_rows - len(violated),
        pivot_cols=list(basis),
        max_span=max((m.bit_length() for m, _ in basis.values()), default=0),
    )
