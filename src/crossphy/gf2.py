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
7-bin plans take at most one step a row; more bins, or an over-constrained
ask, take more.

Numpy inserts the leading run of rows that take at most one step, all at
once; a loop of list lookups and small-int XORs inserts the rest, from the
basis the run built.  Back-substitution is one shift, AND and popcount per
pivot on a w-bit window of x sliding down the pivots.  When the run took
every row, a pivot whose row reaches no other pivot column is its own
right-hand bit, set in one numpy step, and the window walks only the rest.
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


def _one_step_rows(lead, mask, rhs, n_cols: int):
    """The leading run of rows, in insertion order, that insert in at most
    one reduction step: ``(count, cols, masks, rhs)`` of the pivots they
    become, in that order.

    A row of the run either is the first to reach its lead and inserts
    there, or reduces once against that first row and lands on a column no
    earlier row holds.  The run ends at the first row that is neither: a
    first row whose lead an earlier row landed on, or a row that reduces
    to zero or lands on a held column.
    """
    n = min(len(lead), n_cols)  # each row of the run holds its own column
    idx = np.arange(n)
    lead, mask = lead[:n], mask[:n]
    first = np.full(n_cols + 64, n)  # by column: the first row to hold it
    np.minimum.at(first, lead, idx)  # as its lead ...
    head = first[lead]
    once = head != idx
    m = np.where(once, mask ^ mask[head], mask)
    low = np.bitwise_count((m & -m) - 1)
    col = lead + low
    np.minimum.at(first, col, idx)  # ... or where it lands
    ok = (m != 0) & (first[col] == idx)
    count = n if ok.all() else int(np.argmin(ok))
    head, once, rhs = head[:count], once[:count], rhs[:count]
    return count, col[:count], m[:count] >> low[:count], np.where(once, rhs ^ rhs[head], rhs)


def _window(bits, cols):
    """Bit k of entry i is ``bits[cols[i] + k]``, for k < 64 (zero past the
    end), from a 0/1 uint8 array ``bits``."""
    words = np.zeros(len(bits) // 64 + 2, "<u8")
    words.view(np.uint8)[:(len(bits) + 7) // 8] = np.packbits(bits, bitorder="little")
    q, s = cols >> 6, (cols & 63).astype(np.uint64)
    return ((words[q] >> s) | (words[q + 1] << (64 - s))).view(np.int64)


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
    lead, mask, rhs = (a[ids] if isinstance(a, np.ndarray) else np.array(a, dtype=object)[ids]
                       for a in (lead, mask, rhs))
    # the basis by pivot column: its mask (0: no pivot yet) and right-hand bit
    table, pr, cols = np.zeros(n_cols, mask.dtype), bytearray(n_cols), []
    prv, x = np.frombuffer(pr, np.uint8), bytearray(n_cols)
    span = 0  # OR of the basis masks, as wide as the widest
    # signed int arrays only: lists and object arrays (masks past 63 bits)
    # go to the loop whole
    batched = mask.dtype.kind == "i"
    done = 0
    if batched:
        done, c, m, r = _one_step_rows(lead.astype(np.intp, copy=False), mask, rhs, n_cols)
        table[c], prv[c] = m, r
        cols = c.tolist()
        span = int(np.bitwise_or.reduce(m, initial=0))
    violated: list[int] = []

    if batched and done == len(ids):
        # a pivot whose row reaches no other pivot column is its right-hand
        # bit; the others fold those bits into theirs and are walked alone.
        # Where the loop runs, nearly every pivot reaches another (43,771 of
        # 43,917 in a 30-bin plan), so there the window walks them all
        c = np.sort(c)[::-1]
        m = table[c]
        held = np.zeros(n_cols, np.uint8)
        held[c] = 1
        dep = (m & _window(held, c)) > 1  # bit 0 is the pivot's own column
        xv = np.frombuffer(x, np.uint8)
        xv[c[~dep]] = prv[c[~dep]]
        c = c[dep]
        prv[c] ^= (np.bitwise_count(m[dep] & _window(xv, c)) & 1).astype(np.uint8)
        piv, walk = memoryview(table), c.tolist()
    else:
        piv, add, bad = table.tolist(), cols.append, violated.append
        for ri, col, m, r in zip(ids[done:].tolist(), lead[done:].tolist(),
                                 mask[done:].tolist(), rhs[done:].tolist()):
            while m:
                p = piv[col]
                if not p:
                    piv[col], pr[col] = m, r
                    add(col)
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
                    bad(ri)
        walk = np.sort(np.fromiter(cols, np.intp, len(cols)))[::-1].tolist()

    # a basis row's other columns all lie above its pivot, so in decreasing
    # pivot order each is fixed before it is read.  Bit k of win is x[col + k]
    # of a walked pivot; the other columns' bits are folded in or are free
    # (zero), so they stay zero
    win, prev, keep = 0, n_cols, (1 << span.bit_length()) - 1
    for col in walk:
        win = (win << (prev - col)) & keep
        r = pr[col] ^ ((win & piv[col]).bit_count() & 1)
        x[col] = r
        win, prev = win | r, col

    return EliminationResult(
        x=np.frombuffer(x, dtype=np.uint8).copy(),
        rank=len(cols),
        violated=violated,
        satisfied=len(ids) - len(violated),
        pivot_cols=cols,
        max_span=span.bit_length(),
    )
