import numpy as np
import pytest

from crossphy import diffblocks as db
from crossphy import dsp
from crossphy.wifi import columns, constellation, pilot_polarity_sequence

MODULATIONS = ("bpsk", "qpsk", "qam16", "qam64")


class SoftQuantize64:
    """The soft quantizer by its per-point formula: (S, n, C) distances to
    every constellation point, softmax over them, and the gradient summed
    over the points.  ``SoftQuantize`` factors the softmax into two
    per-axis ones, so it gives these numbers to within rounding."""

    def __init__(self, const, n, tau=1.0):
        self.n = n
        self.in_dim = self.out_dim = 2 * n
        self.tau = float(tau)
        self.points = const.points

    def forward(self, x):
        wr, wi = x[:, : self.n], x[:, self.n:]
        cr, ci = self.points.real, self.points.imag
        d = (wr[..., None] - cr) ** 2 + (wi[..., None] - ci) ** 2  # (S, n, C)
        logits = -d / self.tau
        logits -= logits.max(axis=2, keepdims=True)
        e = np.exp(logits)
        a = e / e.sum(axis=2, keepdims=True)
        self._x, self._a = x, a
        self.last_weights = a
        return np.concatenate([a @ cr, a @ ci], axis=1)

    def backward(self, gy):
        x, a = self._x, self._a
        wr, wi = x[:, : self.n], x[:, self.n:]
        cr, ci = self.points.real, self.points.imag
        gr, gi = gy[:, : self.n], gy[:, self.n:]
        # dL/da_j, then through softmax: q_l = (-1/tau) a_l (t_l - sum_j a_j t_j)
        t = gr[..., None] * cr + gi[..., None] * ci
        q = (-1.0 / self.tau) * a * (t - np.sum(a * t, axis=2, keepdims=True))
        gwr = np.sum(q * 2.0 * (wr[..., None] - cr), axis=2)
        gwi = np.sum(q * 2.0 * (wi[..., None] - ci), axis=2)
        return np.concatenate([gwr, gwi], axis=1)


def held_rows(block, n_rows):
    """Names of the block's arrays, alone or in a list or tuple, with n_rows
    rows."""
    def rows(v):
        return isinstance(v, np.ndarray) and v.ndim > 0 and v.shape[0] == n_rows
    return [k for k, v in vars(block).items()
            if rows(v) or (isinstance(v, (list, tuple)) and any(map(rows, v)))]


def joint_weights(blk):
    """(S, n, C) weights of a ``SoftQuantize`` forward over the points in
    label order: the outer product of its per-axis weights."""
    ax, ay = blk.axis_weights
    return (ax[..., :, None] * ay[..., None, :]).reshape(ax.shape[:2] + (-1,))


def midpoint_inputs(const, rng, n):
    """(S, 2n) inputs whose every real and imaginary part sits exactly on a
    decision edge between two axis levels, or on a level."""
    levels_x = np.unique(const.points.real)
    levels_y = np.unique(const.points.imag)
    edges_x = np.concatenate([(levels_x[1:] + levels_x[:-1]) / 2, levels_x])
    edges_y = np.concatenate([(levels_y[1:] + levels_y[:-1]) / 2, levels_y])
    return np.concatenate([rng.choice(edges_x, (6, n)), rng.choice(edges_y, (6, n))], axis=1)


class TestFixedMatrices:
    def test_cp_add_structure(self):
        w = db.cp_add_matrix()
        assert w.shape == (80, 64)
        assert np.array_equal(w[:16, 48:], np.eye(16))
        assert np.array_equal(w[16:, :], np.eye(64))
        assert w[:16, :48].sum() == 0

    def test_cp_remove_structure(self):
        w = db.cp_remove_matrix()
        assert w.shape == (64, 80)
        assert np.array_equal(w[:, 16:], np.eye(64))
        assert w[:, :16].sum() == 0

    def test_cp_remove_after_add_is_identity(self):
        assert np.array_equal(db.cp_remove_matrix() @ db.cp_add_matrix(), np.eye(64))

    def test_selection_rows_one_hot(self):
        blk = db.bin_select_layer([3, 17, 50])
        w = blk.weight
        assert w.shape == (6, 128)
        assert np.array_equal(w.sum(axis=1), np.ones(6))


class TestFixedLinearBlocks:
    def test_identity_forward_backward(self):
        blk = db.FixedLinear(np.eye(10))
        x = dsp.make_rng(0).standard_normal((3, 10))
        assert np.array_equal(blk.forward(x), x)
        assert np.array_equal(blk.backward(x), x)

    def test_cp_add_backward_adds_the_prefix_gradient(self):
        gy = np.zeros((1, 160))
        gy[0, 0], gy[0, 64] = 0.25, 0.5  # prefix sample 0 and body sample 48
        assert db.cp_add_layer().backward(gy)[0, 48] == 0.75

    def test_dft_layer_matches_reference(self):
        rng = dsp.make_rng(1)
        blk = db.dft_layer()
        for _ in range(20):
            z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            got = db.unstack_complex(blk.forward(db.stack_complex(z[None, :])))[0]
            assert np.max(np.abs(got - np.fft.fft(z))) < 1e-9

    def test_idft_layer_matches_reference(self):
        rng = dsp.make_rng(2)
        blk = db.idft_layer()
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        got = db.unstack_complex(blk.forward(db.stack_complex(z[None, :])))[0]
        assert np.max(np.abs(got - np.fft.ifft(z))) < 1e-9

    @pytest.mark.parametrize("factory", [db.dft_layer, db.idft_layer,
                                         db.cp_add_layer, db.cp_remove_layer])
    def test_grad_check_fixed(self, factory):
        assert db.grad_check(factory(), dsp.make_rng(3)) < 1e-6

    def test_grad_check_random_matrix(self):
        rng = dsp.make_rng(4)
        blk = db.FixedLinear(rng.standard_normal((7, 13)))
        assert db.grad_check(blk, rng) < 1e-6


class TestComplexScale:
    def test_multiplies_complex(self):
        blk = db.ComplexScale(3)
        blk.set_scale(np.array([2.0, 1j, 1 - 1j]))
        z = np.array([[1 + 1j, 2.0, 3j]])
        out = db.unstack_complex(blk.forward(db.stack_complex(z)))
        assert np.allclose(out, [[2 + 2j, 2j, 3 + 3j]])

    def test_grad_check(self):
        assert db.grad_check(db.ComplexScale(6), dsp.make_rng(5)) < 1e-6


class TestSoftQuantize:
    def setup_method(self):
        self.const = constellation("qam16")

    def test_small_tau_approaches_nearest_point(self):
        rng = dsp.make_rng(6)
        z = 0.8 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        blk = db.SoftQuantize(self.const, 5, tau=1e-4)
        out = db.unstack_complex(blk.forward(db.stack_complex(z[None, :])))[0]
        idx = self.const.nearest(db.unstack_complex(db.stack_complex(z[None, :])))[0]
        assert np.max(np.abs(out - self.const.points[idx])) < 1e-6

    def test_large_tau_approaches_centroid(self):
        blk = db.SoftQuantize(self.const, 2, tau=1e6)
        z = np.array([[0.3 + 0.2j, -0.5j]])
        out = db.unstack_complex(blk.forward(db.stack_complex(z)))
        # symmetric QAM centroid is the origin
        assert np.max(np.abs(out)) < 1e-4

    def test_midpoint_weights_equal(self):
        pts = self.const.points
        mid = (pts[0] + pts[1]) / 2
        blk = db.SoftQuantize(self.const, 1, tau=0.7)
        blk.forward(db.stack_complex(np.array([[mid]])))
        w = joint_weights(blk)[0, 0]
        assert abs(w[0] - w[1]) < 1e-12

    def test_weights_are_a_distribution(self):
        rng = dsp.make_rng(7)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        blk = db.SoftQuantize(self.const, 9, tau=0.5)
        blk.forward(db.stack_complex(z[None, :]))
        w = joint_weights(blk)
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=2), 1.0)

    def test_grad_check(self):
        blk = db.SoftQuantize(self.const, 4, tau=1.0)
        assert db.grad_check(blk, dsp.make_rng(8)) < 1e-4

    def test_hard_matches_bruteforce(self):
        rng = dsp.make_rng(9)
        qpsk = constellation("qpsk")
        for _ in range(200):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            idx = qpsk.nearest(db.unstack_complex(db.stack_complex(np.array([[z]]))))[0, 0]
            brute = min(range(4), key=lambda j: abs(z - qpsk.points[j]) ** 2)
            assert idx == brute

    @pytest.mark.parametrize("name", MODULATIONS)
    @pytest.mark.parametrize("inputs", ["random", "midpoints"])
    def test_equals_the_per_point_formula(self, name, inputs):
        # the two per-axis softmaxes are the 64-point one factored exactly;
        # the floats differ by rounding (measured <= 1.3e-14 on the weights,
        # <= 3e-15/tau on the gradient, whose terms scale with 1/tau)
        const = constellation(name)
        rng = dsp.make_rng(30)
        n = 5
        for tau in (1.0, 0.3, 0.05, 1e-3):
            if inputs == "random":
                x = 1.3 * rng.standard_normal((6, 2 * n))
            else:
                x = midpoint_inputs(const, rng, n)
            gy = rng.standard_normal((6, 2 * n))
            blk, ref = db.SoftQuantize(const, n, tau), SoftQuantize64(const, n, tau)
            assert np.max(np.abs(blk.forward(x) - ref.forward(x))) <= 1e-13
            assert np.max(np.abs(joint_weights(blk) - ref.last_weights)) <= 1e-13
            assert np.max(np.abs(blk.backward(gy) - ref.backward(gy))) <= 1e-13 / tau
            assert np.array_equal(blk.decisions, const.nearest(db.unstack_complex(x)))

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_decisions_are_the_nearest_points(self, name):
        const = constellation(name)
        rng = dsp.make_rng(31)
        blk = db.SoftQuantize(const, 4, tau=0.5)
        for x in (2 * rng.standard_normal((50, 8)), midpoint_inputs(const, rng, 4)):
            blk.forward(x)
            assert np.array_equal(blk.decisions, const.nearest(db.unstack_complex(x)))

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_grad_check_every_constellation(self, name):
        blk = db.SoftQuantize(constellation(name), 3, tau=0.7)
        assert db.grad_check(blk, dsp.make_rng(32)) < 1e-4

    def test_release_drops_the_work_arrays(self):
        blk = db.SoftQuantize(self.const, 3, tau=1.0)
        blk.forward(np.ones((5, 6)))
        blk.backward(np.ones((5, 6)))
        assert held_rows(blk, 5)
        blk.release()
        assert not held_rows(blk, 5)


class TestGridAssemble:
    def test_pilots_fixed_regardless_of_input(self):
        blk = db.GridAssemble([50, 51, 52])
        rng = dsp.make_rng(11)
        pols = pilot_polarity_sequence()
        for _ in range(3):
            x = rng.standard_normal((4, 6))
            out = blk.forward(x)
            grid = db.unstack_complex(out)
            for s in range(4):
                pol = pols[s % 127]
                assert grid[s, columns(-21)] == pol
                assert grid[s, columns(-7)] == pol
                assert grid[s, columns(7)] == pol
                assert grid[s, columns(21)] == -pol

    def test_pilots_follow_row_count_and_wrap_every_127_symbols(self):
        # each call takes the pilots of its own row count, and symbols 127 on
        # repeat the polarity sequence from its start
        pols = pilot_polarity_sequence()
        blk = db.GridAssemble([50])
        for n in (3, 6, 3, 1, 130, 6):
            grid = db.unstack_complex(blk.forward(np.zeros((n, 2))))
            for s in range(n):
                pol = pols[s % 127]
                assert grid[s, columns(-21)] == pol
                assert grid[s, columns(21)] == -pol
        wrapped = db.unstack_complex(blk.forward(np.zeros((130, 2))))
        assert np.array_equal(wrapped[127:], wrapped[:3])

    def test_grad_check(self):
        blk = db.GridAssemble([40, 41])
        assert db.grad_check(blk, dsp.make_rng(12)) < 1e-6

    def test_nontarget_data_bins_zero(self):
        blk = db.GridAssemble([50])
        out = db.unstack_complex(blk.forward(np.ones((1, 2))))
        pilot_cols = set(columns([-21, -7, 7, 21]).tolist())
        for col in range(64):
            if col == 50 or col in pilot_cols:
                continue
            assert out[0, col] == 0


class TestSequential:
    def test_composition_matches_manual(self):
        rng = dsp.make_rng(13)
        a = db.FixedLinear(rng.standard_normal((5, 8)))
        b = db.FixedLinear(rng.standard_normal((3, 5)))
        seq = db.Sequential([a, b])
        x = rng.standard_normal((2, 8))
        assert np.allclose(seq.forward(x), b.forward(a.forward(x)))

    def test_grad_check_with_trainable_inside(self):
        rng = dsp.make_rng(14)
        seq = db.Sequential([
            db.FixedLinear(rng.standard_normal((6, 6))),
            db.ComplexScale(3),
            db.SoftQuantize(constellation("qpsk"), 3, tau=1.0),
        ])
        assert db.grad_check(seq, rng) < 1e-4
