"""Dense 0/1 matrices as the ``(lead, mask)`` bands ``gf2.eliminate`` takes.

The GF(2) tests state their oracle systems as dense matrices, which the
brute-force and matrix-product checks read directly; this converts their
rows for the eliminator.
"""

import numpy as np


def dense_to_bands(dense) -> list[tuple[int, int]]:
    """Row r of a dense (n_rows, n_cols) 0/1 array as ``(lead, mask)``: bit k
    of ``mask`` is column ``lead + k``; an all-zero row is ``(0, 0)``."""
    dense = np.asarray(dense, dtype=np.uint8)
    assert dense.ndim == 2, dense.shape
    packed = np.packbits(dense, axis=1, bitorder="little")
    ints = [int.from_bytes(row.tobytes(), "little") for row in packed]
    leads = [(v & -v).bit_length() - 1 if v else 0 for v in ints]
    return [(lead, v >> lead) for lead, v in zip(leads, ints)]
