"""GF(2) linear algebra for the payload solver.

``Gf2Matrix`` packs a dense bit matrix into uint64 words, little-endian
(bit j of word w holds column 64*w + j).  The eliminator works on banded
rows ``(lead, mask)`` instead: bit k of the int ``mask`` holds column
``lead + k``, and bit 0 is set (an empty row is ``(0, 0)``).
``eliminate`` inserts rows in a caller-chosen priority order into a
row-echelon basis keyed by leading column; a row that reduces to 0 = 1
conflicts with higher-priority rows already accepted and is reported as
violated (greedy maximal consistent subsystem).

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

from .errors import DimensionError

WORD = 64


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """1-D 0/1 array -> packed uint64 words (little-endian bit order)."""
    bits = np.asarray(bits, dtype=np.uint8)
    n_words = (len(bits) + WORD - 1) // WORD
    padded = np.zeros(n_words * WORD, dtype=np.uint8)
    padded[: len(bits)] = bits
    chunks = padded.reshape(n_words, WORD).astype(np.uint64)
    return (chunks << np.arange(WORD, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint64)
    bits = (words[:, None] >> np.arange(WORD, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(-1)[:n_bits].astype(np.uint8)


@dataclass
class Gf2Matrix:
    """rows x cols bit matrix, each row packed into uint64 words."""

    rows: int
    cols: int
    words: np.ndarray  # (rows, n_words) uint64

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        n_words = (cols + WORD - 1) // WORD
        return cls(rows, cols, np.zeros((rows, n_words), dtype=np.uint64))

    @classmethod
    def from_dense(cls, dense) -> "Gf2Matrix":
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim != 2:
            raise DimensionError("from_dense expects a 2-D array")
        m = cls.zeros(*dense.shape)
        for r in range(dense.shape[0]):
            m.words[r] = pack_bits(dense[r])
        return m

    @classmethod
    def from_bands(cls, lead: np.ndarray, mask: np.ndarray, cols: int) -> "Gf2Matrix":
        """Pack banded rows given as integer arrays of leads and masks."""
        m = cls.zeros(len(lead), cols)
        r, k = np.nonzero((mask[:, None] >> np.arange(int(mask.max(initial=0)).bit_length())) & 1)
        c = lead[r] + k
        np.bitwise_or.at(m.words, (r, c // WORD), np.uint64(1) << (c % WORD).astype(np.uint64))
        return m

    def to_dense(self) -> np.ndarray:
        return np.stack([unpack_bits(self.words[r], self.cols) for r in range(self.rows)])

    def matvec(self, x) -> np.ndarray:
        """y = G x over GF(2)."""
        xw = pack_bits(np.asarray(x, dtype=np.uint8))
        if len(x) != self.cols:
            raise DimensionError(f"x has {len(x)} bits, matrix has {self.cols} columns")
        acc = np.bitwise_count(self.words & xw[None, :]).sum(axis=1)
        return (acc & 1).astype(np.uint8)


def _packed_to_bands(words: np.ndarray) -> list[tuple[int, int]]:
    ints = [int.from_bytes(row.tobytes(), "little") for row in np.asarray(words, dtype="<u8")]
    leads = [(v & -v).bit_length() - 1 if v else 0 for v in ints]
    return [(lead, v >> lead) for lead, v in zip(leads, ints)]


@dataclass
class EliminationResult:
    x: np.ndarray  # one solution, free variables zero
    rank: int
    violated: list  # indices (into `order`) of rows inconsistent with earlier ones
    satisfied: int
    pivot_cols: list = field(default_factory=list)
    max_span: int = 0  # widest basis row, in columns


def eliminate(rows_words, rhs: np.ndarray, n_cols: int,
              order: np.ndarray | None = None) -> EliminationResult:
    """Greedy row-echelon elimination in priority order.

    ``rows_words`` is a sequence of ``(lead, mask)`` rows, or a packed
    (n_rows, n_words) uint64 array, converted once; ``rhs`` holds the
    right-hand bits.  Rows are inserted in ``order`` (default: given
    order); each is reduced against the basis built so far, always at its
    lowest column.  A row reducing to 0 = 1 is recorded as violated and
    skipped, so the satisfied rows always form a consistent system solved
    exactly by the returned x.
    """
    rows = _packed_to_bands(rows_words) if isinstance(rows_words, np.ndarray) else rows_words
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


def gf2_rank(dense) -> int:
    """Rank of a dense 0/1 matrix (convenience for tests)."""
    m = Gf2Matrix.from_dense(dense)
    res = eliminate(m.words, np.zeros(m.rows, dtype=np.uint8), m.cols)
    return res.rank
