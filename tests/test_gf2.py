import random

import numpy as np
from hypothesis import given, settings, strategies as st

from crossphy import gf2, solver, wifi
from crossphy.dsp import make_rng
from gf2_oracle import dense_to_bands, eliminate_per_bit


def brute_force_best(dense, y):
    """Minimum violation count over all 2^n candidates."""
    n = dense.shape[1]
    best = None
    for v in range(2**n):
        x = np.array([(v >> i) & 1 for i in range(n)], dtype=np.uint8)
        bad = int(np.sum((dense @ x) % 2 != y))
        if best is None or bad < best:
            best = bad
    return best


class TestEliminate:
    def test_identity_full_mask(self):
        dense = np.eye(6, dtype=np.uint8)
        y = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
        res = gf2.eliminate(*dense_to_bands(dense), y, 6)
        assert np.array_equal(res.x, y)
        assert not res.violated

    def test_three_by_two_case_vs_bruteforce(self):
        # rows (10, 11, 01): y = (1,0,1) is realized exactly by x = (1,1)
        dense = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
        y = np.array([1, 0, 1], dtype=np.uint8)
        res = gf2.eliminate(*dense_to_bands(dense), y, 2)
        assert len(res.violated) == brute_force_best(dense, y) == 0
        assert np.array_equal(res.x, [1, 1])
        # a genuinely unreachable y: best possible is one violation
        y2 = np.array([1, 1, 1], dtype=np.uint8)
        res2 = gf2.eliminate(*dense_to_bands(dense), y2, 2)
        assert len(res2.violated) == brute_force_best(dense, y2) == 1

    def test_greedy_matches_bruteforce_when_rank_deficient(self):
        rng = make_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            rows = int(rng.integers(n, 2 * n + 4))
            dense = rng.integers(0, 2, (rows, n)).astype(np.uint8)
            y = rng.integers(0, 2, rows).astype(np.uint8)
            res = gf2.eliminate(*dense_to_bands(dense), y, n)
            got = (dense @ res.x) % 2
            ok = np.ones(rows, dtype=bool)
            ok[res.violated] = False
            # satisfied rows reproduce y bit-exactly
            assert np.array_equal(got[ok], y[ok])
            # greedy count is an upper bound on the optimum
            assert len(res.violated) >= brute_force_best(dense, y)

    def test_consistent_systems_never_violate(self):
        rng = make_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            dense = rng.integers(0, 2, (2 * n, n)).astype(np.uint8)
            x_true = rng.integers(0, 2, n).astype(np.uint8)
            y = (dense @ x_true) % 2
            res = gf2.eliminate(*dense_to_bands(dense), y, n)
            assert not res.violated
            assert np.array_equal((dense @ res.x) % 2, y)

    def test_zero_rows_zero_violations_when_rhs_zero(self):
        dense = np.zeros((4, 10), dtype=np.uint8)
        res = gf2.eliminate(*dense_to_bands(dense), np.zeros(4, dtype=np.uint8), 10)
        assert not res.violated and not res.x.any() and res.rank == 0

    def test_rank_property(self):
        # no violations whenever the row count does not exceed the rank
        rng = make_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            k = int(rng.integers(1, n + 1))
            dense = rng.integers(0, 2, (k, n)).astype(np.uint8)
            if gf2.eliminate(*dense_to_bands(dense), np.zeros(k, dtype=np.uint8), n).rank != k:
                continue
            y = rng.integers(0, 2, k).astype(np.uint8)
            res = gf2.eliminate(*dense_to_bands(dense), y, n)
            assert not res.violated

    def test_priority_order_decides_winner(self):
        dense = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        y = np.array([1, 0], dtype=np.uint8)
        first = gf2.eliminate(*dense_to_bands(dense), y, 2, order=np.array([0, 1]))
        assert first.violated == [1] and first.x[0] == 1
        second = gf2.eliminate(*dense_to_bands(dense), y, 2, order=np.array([1, 0]))
        assert second.violated == [0] and second.x[0] == 0

    def test_a_column_goes_to_the_first_row_to_reach_it(self):
        # rows 11, 01 and 01 over two columns: a column's pivot is the first
        # row, in priority order, to reach it, by its own lead or after a
        # reduction.  In given order row 0 takes column 0 and row 1 reaches
        # column 1 only after a reduction, which leaves row 2 nothing but
        # 0 = 1; with row 2 first it takes column 1 by its lead, and row 1 is
        # the conflict
        lead, mask, rhs = [0, 0, 1], [0b11, 0b1, 0b1], [0, 1, 0]
        for order, violated, pivot_cols, x in [(None, [2], [0, 1], [1, 1]),
                                               ([2, 0, 1], [1], [1, 0], [0, 0])]:
            got = gf2.eliminate(lead, mask, rhs, 2, order=order)
            ref = eliminate_per_bit(lead, mask, rhs, 2, order=order)
            assert (got.violated, got.pivot_cols, got.x.tolist()) == (violated, pivot_cols, x)
            assert (ref.violated, ref.pivot_cols, ref.x.tolist()) == (violated, pivot_cols, x)

    def test_dense_and_banded_rows_agree(self):
        # the dense oracle rows, through dense_to_bands, solve as the same
        # system stated as bands directly
        rng = make_rng(7)
        n_rows, n = 60, 40
        lead = rng.integers(0, n - 6, n_rows)
        mask = rng.integers(0, 1 << 7, n_rows) | 1
        lead[::7] = 0
        mask[::7] = 0  # empty rows are (0, 0)
        dense = np.zeros((n_rows, n), dtype=np.uint8)
        for r in range(n_rows):
            for k in range(7):
                if mask[r] >> k & 1:
                    dense[r, lead[r] + k] = 1
        y = rng.integers(0, 2, n_rows).astype(np.uint8)
        order = rng.permutation(n_rows)
        a = gf2.eliminate(*dense_to_bands(dense), y, n, order=order)
        b = gf2.eliminate(lead, mask, y, n, order=order)
        assert a.violated  # more rows than columns, so the order matters
        assert np.array_equal(a.x, b.x)
        assert (a.rank, a.violated, a.satisfied, a.pivot_cols, a.max_span) == (
            b.rank, b.violated, b.satisfied, b.pivot_cols, b.max_span)

    def test_solve_time_at_512_unknowns(self):
        import time

        rng = make_rng(6)
        n = 512
        dense = rng.integers(0, 2, (2 * n, n)).astype(np.uint8)
        y = (dense @ rng.integers(0, 2, n).astype(np.uint8)) % 2
        t0 = time.time()
        res = gf2.eliminate(*dense_to_bands(dense), y, n)
        assert time.time() - t0 < 1.0
        assert not res.violated


@st.composite
def band_systems(draw):
    """Bands of width 1-70 (past one 64-bit word) over up to 160 columns,
    some empty, with a random insertion order or none; the right-hand side
    is random (over-constrained in general) or the image of a hidden x."""
    n_cols = draw(st.integers(1, 160))
    widest = draw(st.integers(1, min(70, n_cols)))
    n_rows = draw(st.integers(0, 2 * n_cols + 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lead, mask = [], []
    for _ in range(n_rows):
        if rng.random() < 0.05:
            lead.append(0)
            mask.append(0)
            continue
        w = rng.randint(1, widest)
        lead.append(rng.randint(0, n_cols - w))
        mask.append(rng.getrandbits(w) | 1 | 1 << (w - 1))
    if draw(st.booleans()):  # consistent
        hidden = rng.getrandbits(n_cols)
        rhs = [((m << c) & hidden).bit_count() & 1 for c, m in zip(lead, mask)]
    else:
        rhs = [rng.getrandbits(1) for _ in range(n_rows)]
    order = draw(st.none() | st.permutations(range(n_rows)))
    return lead, mask, np.array(rhs, dtype=np.uint8), n_cols, order


@settings(derandomize=True, max_examples=300, deadline=None)
@given(system=band_systems())
def test_sliding_window_equals_the_per_bit_back_substitution(system):
    lead, mask, rhs, n_cols, order = system
    got = gf2.eliminate(lead, mask, rhs, n_cols, order=order)
    ref = eliminate_per_bit(lead, mask, rhs, n_cols, order=order)
    assert np.array_equal(got.x, ref.x) and got.x.dtype == ref.x.dtype
    assert (got.rank, got.violated, got.satisfied, got.pivot_cols, got.max_span) == (
        ref.rank, ref.violated, ref.satisfied, ref.pivot_cols, ref.max_span)
    # every row not reported violated holds for x, and free columns are 0
    x = int.from_bytes(np.packbits(got.x, bitorder="little").tobytes(), "little")
    bad = set(got.violated)
    for i, (c, m) in enumerate(zip(lead, mask)):
        if i not in bad:
            assert ((m << c) & x).bit_count() & 1 == rhs[i]
    free = np.ones(n_cols, dtype=bool)
    free[got.pivot_cols] = False
    assert not got.x[free].any()


@st.composite
def encoder_band_systems(draw):
    """The encoder's own bands: rows of ``solver.coded_bit_rows`` at a random
    set of coded positions, up to all of them (twice the columns at rate
    1/2), with a random right-hand side and insertion order.  Dense sets of
    these 7-column bands are where reduction walks run long."""
    mcs = wifi.mcs_config(draw(st.sampled_from(["bpsk", "qpsk", "qam16", "qam64"])),
                          draw(st.sampled_from(["1/2", "3/4"])))
    n_symbols = draw(st.integers(1, 4))
    n_coded = n_symbols * mcs.n_cbps
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    positions = sorted(rng.sample(range(n_coded), draw(st.integers(0, n_coded))))
    lead, mask = solver.coded_bit_rows(positions, mcs)
    rhs = np.array([rng.getrandbits(1) for _ in positions], dtype=np.uint8)
    order = draw(st.none() | st.permutations(range(len(positions))))
    return lead, mask, rhs, n_symbols * mcs.n_dbps, order


@settings(derandomize=True, max_examples=200, deadline=None)
@given(system=encoder_band_systems())
def test_encoder_bands_eliminate_as_the_per_bit_oracle(system):
    lead, mask, rhs, n_cols, order = system
    got = gf2.eliminate(lead, mask, rhs, n_cols, order=order)
    ref = eliminate_per_bit(lead, mask, rhs, n_cols, order=order)
    assert np.array_equal(got.x, ref.x) and got.x.dtype == ref.x.dtype
    assert (got.rank, got.violated, got.satisfied, got.pivot_cols, got.max_span) == (
        ref.rank, ref.violated, ref.satisfied, ref.pivot_cols, ref.max_span)


@st.composite
def int64_band_systems(draw):
    """Bands as int64 arrays, of width 1-62 over up to 160 columns, which
    ``eliminate`` inserts in numpy as far as it can.  Half are random, as
    in ``band_systems``: the numpy run stops somewhere and the loop inserts
    the rest.  The other half are built so that rows insert in at most
    one step: each row is the first on a lead that no earlier row holds,
    or reduces once against the first row of its lead and lands on a
    column that no earlier row holds.  Most of these go through numpy
    whole, the split back-substitution included; in some, a row takes a
    held column (by its lead or where it lands), which ends the numpy run
    there.  The rows are stored shuffled, and ``order`` inserts them as
    built."""
    n_cols = draw(st.integers(1, 160))
    widest = draw(st.integers(1, min(62, n_cols)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lead, mask = [], []
    if draw(st.booleans()):
        held, first = set(), {}  # columns held; the first row's mask by lead
        p_clash = draw(st.sampled_from([0.0, 0.05]))
        for _ in range(draw(st.integers(0, n_cols))):
            clash = rng.random() < p_clash  # this row takes a held column
            if first and rng.random() < 0.5:  # reduce once against a first row
                c = rng.choice(sorted(first))
                offsets = [k for k in range(1, min(widest, n_cols - c))
                           if (c + k in held) == clash]
                if not offsets:
                    continue
                k = rng.choice(offsets)  # where it lands
                w = rng.randint(k + 1, min(widest, n_cols - c))
                lead.append(c)
                mask.append(first[c] ^ (rng.getrandbits(w - k) << k | 1 << k))
                held.add(c + k)
            else:  # the first row on its lead
                landed = sorted(held - first.keys())
                c = rng.choice(landed) if clash and landed else rng.randrange(n_cols)
                if c in first or (c in held) != clash:
                    continue
                w = rng.randint(1, min(widest, n_cols - c))
                first[c] = rng.getrandbits(w) | 1 | 1 << (w - 1)
                lead.append(c)
                mask.append(first[c])
                held.add(c)
    else:
        for _ in range(draw(st.integers(0, 2 * n_cols + 8))):
            w = rng.randint(1, widest)
            lead.append(rng.randint(0, n_cols - w))
            mask.append(rng.getrandbits(w) | 1 | 1 << (w - 1))
    if draw(st.booleans()):  # consistent
        hidden = rng.getrandbits(n_cols)
        rhs = [((m << c) & hidden).bit_count() & 1 for c, m in zip(lead, mask)]
    else:
        rhs = [rng.getrandbits(1) for _ in lead]
    perm = np.array(rng.sample(range(len(lead)), len(lead)), dtype=np.intp)
    return (np.array(lead, dtype=np.int64)[perm], np.array(mask, dtype=np.int64)[perm],
            np.array(rhs, dtype=np.uint8)[perm], n_cols, np.argsort(perm))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(system=int64_band_systems())
def test_int64_bands_eliminate_as_the_per_bit_oracle(system):
    lead, mask, rhs, n_cols, order = system
    got = gf2.eliminate(lead, mask, rhs, n_cols, order=order)
    ref = eliminate_per_bit(lead, mask, rhs, n_cols, order=order)
    assert np.array_equal(got.x, ref.x) and got.x.dtype == ref.x.dtype
    assert (got.rank, got.violated, got.satisfied, got.pivot_cols, got.max_span) == (
        ref.rank, ref.violated, ref.satisfied, ref.pivot_cols, ref.max_span)
