import numpy as np

from crossphy import gf2
from crossphy.dsp import make_rng
from gf2_oracle import dense_to_bands


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
        res = gf2.eliminate(dense_to_bands(dense), y, 6)
        assert np.array_equal(res.x, y)
        assert not res.violated

    def test_three_by_two_case_vs_bruteforce(self):
        # rows (10, 11, 01): y = (1,0,1) is realized exactly by x = (1,1)
        dense = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
        y = np.array([1, 0, 1], dtype=np.uint8)
        res = gf2.eliminate(dense_to_bands(dense), y, 2)
        assert len(res.violated) == brute_force_best(dense, y) == 0
        assert np.array_equal(res.x, [1, 1])
        # a genuinely unreachable y: best possible is one violation
        y2 = np.array([1, 1, 1], dtype=np.uint8)
        res2 = gf2.eliminate(dense_to_bands(dense), y2, 2)
        assert len(res2.violated) == brute_force_best(dense, y2) == 1

    def test_greedy_matches_bruteforce_when_rank_deficient(self):
        rng = make_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            rows = int(rng.integers(n, 2 * n + 4))
            dense = rng.integers(0, 2, (rows, n)).astype(np.uint8)
            y = rng.integers(0, 2, rows).astype(np.uint8)
            res = gf2.eliminate(dense_to_bands(dense), y, n)
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
            res = gf2.eliminate(dense_to_bands(dense), y, n)
            assert not res.violated
            assert np.array_equal((dense @ res.x) % 2, y)

    def test_zero_rows_zero_violations_when_rhs_zero(self):
        dense = np.zeros((4, 10), dtype=np.uint8)
        res = gf2.eliminate(dense_to_bands(dense), np.zeros(4, dtype=np.uint8), 10)
        assert not res.violated and not res.x.any() and res.rank == 0

    def test_rank_property(self):
        # no violations whenever the row count does not exceed the rank
        rng = make_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            k = int(rng.integers(1, n + 1))
            dense = rng.integers(0, 2, (k, n)).astype(np.uint8)
            if gf2.eliminate(dense_to_bands(dense), np.zeros(k, dtype=np.uint8), n).rank != k:
                continue
            y = rng.integers(0, 2, k).astype(np.uint8)
            res = gf2.eliminate(dense_to_bands(dense), y, n)
            assert not res.violated

    def test_priority_order_decides_winner(self):
        dense = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        y = np.array([1, 0], dtype=np.uint8)
        first = gf2.eliminate(dense_to_bands(dense), y, 2, order=np.array([0, 1]))
        assert first.violated == [1] and first.x[0] == 1
        second = gf2.eliminate(dense_to_bands(dense), y, 2, order=np.array([1, 0]))
        assert second.violated == [0] and second.x[0] == 0

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
        a = gf2.eliminate(dense_to_bands(dense), y, n, order=order)
        b = gf2.eliminate(list(zip(lead.tolist(), mask.tolist())), y, n, order=order)
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
        res = gf2.eliminate(dense_to_bands(dense), y, n)
        assert time.time() - t0 < 1.0
        assert not res.violated
