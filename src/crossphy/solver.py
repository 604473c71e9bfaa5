"""Inversion of the WiFi coding chain over GF(2).

The scramble -> encode -> interleave chain is affine: chain(x) = G x + c
with c = chain(0).  Solving G x = y + c for the payload bits that realize a
desired grid of constellation points is over-constrained in general (a
rate-1/2 encoder is injective, not surjective), so the solver satisfies a
maximal consistent subsystem greedily, taking constraint bits in descending
target-bin energy so any compromise lands on low-impact subcarriers, and
reports every bit and subcarrier it could not hit.

Rows of G come straight from the encoder taps.  Every coded bit, punctured
or not, is the parity of x[t-6 .. t] under the g0 or g1 taps, and both
generators tap x[t] and x[t-6]; so every row is a band of at most 7
columns, held as two arrays of leads and masks.  The eliminator keeps
bands within 7 columns (see ``gf2``).  A default 7-bin plan's constrained
bits all insert in at most one reduction step, in numpy at once, and only
the pivots whose rows reach another pivot column are walked one by one
(2,671-2,953 of 18,186 in 48-byte plans); wider plans also reduce their
later rows one by one.
``solve_payload``, the one solve entry point, builds only those rows.
``build_generator`` scatters every band into the dense matrix G, which
serves only as the specification's oracle.

The constraint system depends only on the frame's shape, not on the
points asked for: the constrained positions, their rows, the offset c at
those positions and the bins' order.  ``_constraint_system`` builds it
once per shape, keyed by the symbol count, the modulation name and coding
rate, the scrambler seed and the target subcarriers, and keeps the last
shape as read-only arrays, 1.5 MB for a 127-byte 7-bin frame: every
caller plans one shape after another.  A solve then codes its payload
once, for the re-encode check, and the report carries those coded bits,
which ``sim.plan_frame`` transmits (``wifi.coded_grid``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CrossPhyError, DimensionError, DomainError
from .gf2 import eliminate
from .wifi import (
    DATA_SUBCARRIERS,
    McsConfig,
    bits_to_psdu,
    coding_chain,
    interleave_permutation,
    mcs_config,
)
from .wifi import G0_TAPS, G1_TAPS, _PUNCTURE_34_KEEP


@dataclass
class SolveReport:
    x: np.ndarray
    satisfied: int
    violated_positions: list
    perturbed_subcarriers: list = field(default_factory=list)
    psdu: bytes | None = None
    rank: int = 0
    max_span: int = 0  # widest basis row of the elimination, in columns
    coded: np.ndarray | None = None  # coding_chain(x), the checked coded bits


# tap masks over x[t-6] .. x[t]: bit 6 - d holds the tap on x[t-d]
_TAP_MASKS = np.array([sum(tap << (6 - d) for d, tap in enumerate(taps))
                       for taps in (G0_TAPS, G1_TAPS)])
_KEPT_34 = np.nonzero(_PUNCTURE_34_KEEP)[0]


def coded_bit_rows(positions, mcs: McsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rows of G at interleaved coded-bit ``positions``, as ``(lead, mask)``.

    With scrambling cancelled, the linear part of the chain is encode +
    interleave.  Each coded position maps back through the inverse
    interleaver (and the 3/4 keep pattern) to encoder step t and branch
    g0 or g1, whose coded bit is the parity of x[t-6 .. t] under that
    branch's taps.  Taps before x[0] drop out (the encoder starts at zero);
    masks are shifted so bit 0 is the lowest column ``lead``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    sym, j = np.divmod(positions, mcs.n_cbps)
    inverse = np.argsort(interleave_permutation(mcs.n_cbps, mcs.n_bpsc))
    q = sym * mcs.n_cbps + inverse[j]  # index into the encoder's output
    if mcs.coding_rate == "3/4":
        group, kept = np.divmod(q, len(_KEPT_34))
        q = len(_PUNCTURE_34_KEEP) * group + _KEPT_34[kept]
    t, branch = np.divmod(q, 2)
    clip = np.maximum(6 - t, 0)
    mask = _TAP_MASKS[branch] >> clip
    low = np.bitwise_count((mask & -mask) - 1).astype(np.int64)
    return t - 6 + clip + low, mask >> low


def build_generator(n_payload_bits: int, mcs: McsConfig, scrambler_seed: int):
    """(G, c) with chain(x) = (G @ x) % 2 ^ c for all payload bit vectors x.

    G is a dense uint8 0/1 array of shape (n_coded, n_payload_bits), with
    n_coded = (n_payload_bits / n_dbps) * n_cbps; row j is the band
    ``coded_bit_rows`` gives for position j.  c is the scrambler's affine
    offset chain(0).  The solver never builds G; it is the specification's
    statement of the chain, for tests and demos.
    """
    if n_payload_bits % mcs.n_dbps != 0:
        raise DimensionError(
            f"n_payload_bits {n_payload_bits} must fill whole symbols of {mcs.n_dbps}"
        )
    c = coding_chain(np.zeros(n_payload_bits, dtype=np.uint8), mcs, scrambler_seed)
    lead, mask = coded_bit_rows(np.arange(len(c)), mcs)
    r, k = np.nonzero((mask[:, None] >> np.arange(7)) & 1)
    G = np.zeros((len(c), n_payload_bits), dtype=np.uint8)
    G[r, lead[r] + k] = 1
    return G, c


def target_bit_positions(mcs: McsConfig, target_subcarriers, n_symbols: int) -> np.ndarray:
    """Interleaved-coded-bit positions feeding the target subcarriers,
    shape (n_symbols, m, n_bpsc)."""
    slots = np.array([DATA_SUBCARRIERS.index(sc) for sc in target_subcarriers])
    b = mcs.n_bpsc
    sym = np.arange(n_symbols)[:, None, None] * mcs.n_cbps
    return sym + slots[None, :, None] * b + np.arange(b)[None, None, :]


class _System(NamedTuple):
    """One frame shape's constraint system: ``pos``, the (S, m, b) target
    bit positions; ``midx``, the same positions ascending, one row each;
    ``lead`` and ``band``, the rows' bands; ``offset``, c at ``midx``; and
    ``bins``, the (S, m) bins in ``midx`` order, whose b rows sit together."""
    pos: np.ndarray
    midx: np.ndarray
    lead: np.ndarray
    band: np.ndarray
    offset: np.ndarray
    bins: np.ndarray


@lru_cache(maxsize=1)
def _constraint_system(n_symbols: int, modulation: str, coding_rate: str,
                       scrambler_seed: int, target_subcarriers: tuple) -> _System:
    """The constraint system of a frame shape, built once and read-only.
    Keyed by hashable values, since ``McsConfig`` holds arrays."""
    mcs = mcs_config(modulation, coding_rate)
    pos = target_bit_positions(mcs, target_subcarriers, n_symbols)  # (S, m, b)
    midx = np.sort(pos.reshape(-1))
    lead, band = coded_bit_rows(midx, mcs)
    c = coding_chain(np.zeros(n_symbols * mcs.n_dbps, dtype=np.uint8), mcs, scrambler_seed)
    system = _System(pos, midx, lead, band, c[midx], np.argsort(pos[..., 0].reshape(-1)))
    for a in system:
        a.flags.writeable = False
    return system


def solve_payload(
    index_grid: np.ndarray,
    mcs: McsConfig,
    scrambler_seed: int,
    target_subcarriers,
    bin_energy: np.ndarray | None = None,
) -> SolveReport:
    """Payload bits realizing a grid of intended constellation indices.

    ``index_grid`` is (n_symbols, m) from the emulation model, integers in
    [0, 2**n_bpsc) (else ``DomainError``), for m distinct target subcarriers
    (else ``DimensionError``); ``bin_energy``, of the same shape (else
    ``DimensionError``), ranks constraints, largest first.  Positions
    feeding other subcarriers are unconstrained.  The report's achieved
    indices come from re-encoding the solution through the actual coding
    chain, so it is self-verifying.
    """
    index_grid = np.asarray(index_grid)
    if index_grid.ndim != 2 or index_grid.shape[1] != len(target_subcarriers):
        raise DimensionError(f"index grid {index_grid.shape} does not match "
                             f"{len(target_subcarriers)} target subcarriers")
    if len(set(target_subcarriers)) != len(target_subcarriers):
        raise DimensionError(f"target subcarriers {list(target_subcarriers)} "
                             f"repeat a subcarrier")
    n_points = 1 << mcs.n_bpsc
    if index_grid.dtype.kind not in "iu":
        raise DomainError(f"index grid holds {index_grid.dtype} values, not indices "
                          f"of the {n_points}-point constellation")
    outside = (index_grid < 0) | (index_grid >= n_points)
    if outside.any():
        s, t = np.argwhere(outside)[0]
        raise DomainError(f"index grid value {index_grid[s, t]} (symbol {s}, subcarrier "
                          f"{target_subcarriers[t]}) is not an index of the "
                          f"{n_points}-point constellation, 0..{n_points - 1}")
    if bin_energy is not None:
        bin_energy = np.asarray(bin_energy, dtype=np.float64)
        if bin_energy.shape != index_grid.shape:
            raise DimensionError(f"bin_energy {bin_energy.shape} does not match "
                                 f"the index grid {index_grid.shape}")
    n_symbols = index_grid.shape[0]
    n_bits = n_symbols * mcs.n_dbps
    if n_bits % 8 != 0:
        raise DimensionError(
            f"{n_symbols} symbols x {mcs.n_dbps} bits = {n_bits} payload bits, "
            "not a whole number of PSDU bytes; pad the grid to more symbols")
    sys_ = _constraint_system(n_symbols, mcs.constellation.name, mcs.coding_rate,
                              scrambler_seed, tuple(target_subcarriers))
    b = mcs.n_bpsc

    # each bin's b label bits, MSB first, sit together in midx order
    label_bits = ((index_grid[..., None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8)
    y = label_bits.reshape(-1, b)[sys_.bins].reshape(-1)

    if bin_energy is not None:
        energy = bin_energy.reshape(-1)[sys_.bins]
        order = (np.argsort(-energy, kind="stable")[:, None] * b + np.arange(b)).reshape(-1)
    else:
        order = None

    res = eliminate(sys_.lead, sys_.band, y ^ sys_.offset, n_bits, order=order)
    violated = sorted(int(sys_.midx[i]) for i in res.violated)

    # re-encode through the real chain and record every missed subcarrier
    achieved_coded = coding_chain(res.x, mcs, scrambler_seed)
    ok = np.ones(len(y), dtype=bool)
    ok[res.violated] = False
    if not np.array_equal(achieved_coded[sys_.midx[ok]], y[ok]):
        raise CrossPhyError("payload solve failed its re-encode check: the "
                            "coding chain misses positions reported satisfied")

    achieved_bits = achieved_coded[sys_.pos]  # (S, m, b)
    weights = 1 << np.arange(b - 1, -1, -1)
    achieved_idx = (achieved_bits * weights).sum(axis=2)
    perturbed = [
        (int(s), int(target_subcarriers[t]), int(index_grid[s, t]), int(achieved_idx[s, t]))
        for s, t in zip(*np.nonzero(achieved_idx != index_grid))
    ]

    return SolveReport(
        x=res.x,
        satisfied=len(y) - len(violated),
        violated_positions=violated,
        perturbed_subcarriers=perturbed,
        psdu=bits_to_psdu(res.x),
        rank=res.rank,
        max_span=res.max_span,
        coded=achieved_coded,
    )
