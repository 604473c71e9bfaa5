"""Oracles for ``gf2.eliminate``.

The GF(2) tests state their oracle systems as dense matrices, which the
brute-force and matrix-product checks read directly; ``dense_to_bands``
converts their rows for the eliminator.  ``eliminate_per_bit`` is the
eliminator with a back-substitution that reads every bit of every basis
row, the specification the sliding-window version is checked against.
"""

import numpy as np

from crossphy.gf2 import EliminationResult


def dense_to_bands(dense) -> tuple[list[int], list[int]]:
    """Rows of a dense (n_rows, n_cols) 0/1 array as ``(lead, mask)``, the
    two parallel lists ``gf2.eliminate`` takes: bit k of ``mask[r]`` is
    column ``lead[r] + k``; an all-zero row is lead 0, mask 0."""
    dense = np.asarray(dense, dtype=np.uint8)
    assert dense.ndim == 2, dense.shape
    packed = np.packbits(dense, axis=1, bitorder="little")
    ints = [int.from_bytes(row.tobytes(), "little") for row in packed]
    leads = [(v & -v).bit_length() - 1 if v else 0 for v in ints]
    return leads, [v >> lead for lead, v in zip(leads, ints)]


def eliminate_per_bit(lead, mask, rhs, n_cols, order=None) -> EliminationResult:
    """The same greedy insertion, pivot rule and reduction as
    ``gf2.eliminate``; back-substitution walks each basis row bit by bit in
    sorted pivot order, and ``max_span`` is a second pass over the basis."""
    lead, mask = list(lead), list(mask)
    n_rows = len(lead)
    rhs = np.asarray(rhs).tolist()
    order = range(n_rows) if order is None else np.asarray(order).tolist()
    basis = {}  # pivot column -> (mask, rhs)
    violated = []

    for ri in order:
        col, m = int(lead[ri]), int(mask[ri])
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
