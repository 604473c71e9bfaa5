"""Differentiable-block engine.

Each block is a layer with an explicit forward and an explicit backward that
is the exact adjoint of the forward's linearization: ``forward(x)`` keeps
what ``backward`` needs, and ``backward(gy)`` maps the upstream gradient to
the input gradient.  A block's ``in_dim`` and ``out_dim`` are the widths of
its input and output rows, and ``Sequential`` chains blocks.  Signals travel
through the stack as real matrices of shape (n_ofdm_symbols, 2*width): the
real parts of a width-wide complex vector in the left half, imaginary parts
in the right half.  Complex linear operators become real block matrices
[[A, -B], [B, A]]; operators that act identically on both rails (cyclic
prefix add/remove, bin selection) become block-diagonal.  Every fixed layer
runs as its matrix.  The four that depend on nothing (DFT, IDFT, cyclic
prefix add and remove) are built once and shared, with read-only weights.

Fixed layers carry no trainable state.  The only trainable state in the
whole stack is one array: ``ComplexScale.s``, the per-subcarrier complex
scale in front of the soft quantizer, whose gradient the backward leaves
in ``ComplexScale.grad``.  ``grad_check`` validates any block against
central finite differences.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dsp import DFT_BASIS, IDFT_BASIS, N_FFT
from .errors import DimensionError
from .wifi import CP_LEN, PILOT_SUBCARRIERS, Constellation, columns, pilot_values


def stack_complex(z: np.ndarray) -> np.ndarray:
    """(S, n) complex -> (S, 2n) real, [Re | Im]."""
    z = np.asarray(z, dtype=np.complex128)
    return np.concatenate([z.real, z.imag], axis=1)


def unstack_complex(x: np.ndarray) -> np.ndarray:
    """(S, 2n) real -> (S, n) complex."""
    n = x.shape[1] // 2
    return x[:, :n] + 1j * x[:, n:]


def _complex_to_real_matrix(w: np.ndarray) -> np.ndarray:
    """Complex (m, n) operator -> real (2m, 2n) block matrix."""
    a, b = w.real, w.imag
    return np.block([[a, -b], [b, a]])


def _two_rail(w: np.ndarray) -> np.ndarray:
    """Real (m, n) operator applied to both rails -> (2m, 2n)."""
    z = np.zeros_like(w)
    return np.block([[w, z], [z, w]])


class FixedLinear:
    """y = x @ W.T with a frozen weight matrix; backward is x @ W."""

    def __init__(self, weight: np.ndarray, name: str = "fixed_linear"):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.name = name
        self.out_dim, self.in_dim = self.weight.shape

    def forward(self, x):
        if x.shape[1] != self.in_dim:
            raise DimensionError(f"{self.name}: expected width {self.in_dim}, got {x.shape[1]}")
        return x @ self.weight.T

    def backward(self, gy):
        return gy @ self.weight


def cp_add_matrix() -> np.ndarray:
    """80x64 [[0 I16],[I64]]: copy the last 16 body samples in front."""
    w = np.zeros((CP_LEN + N_FFT, N_FFT))
    w[:CP_LEN, N_FFT - CP_LEN:] = np.eye(CP_LEN)
    w[CP_LEN:, :] = np.eye(N_FFT)
    return w


def cp_remove_matrix() -> np.ndarray:
    """64x80 [0 I64]: drop the first 16 samples."""
    w = np.zeros((N_FFT, CP_LEN + N_FFT))
    w[:, CP_LEN:] = np.eye(N_FFT)
    return w


def _shared(weight: np.ndarray, name: str) -> FixedLinear:
    """A layer built once and shared by every caller: its weight is read-only,
    and a ``FixedLinear`` keeps no other state."""
    weight.flags.writeable = False
    return FixedLinear(weight, name)


@lru_cache(maxsize=1)
def dft_layer() -> FixedLinear:
    """64-point DFT as a 128x128 real layer (basis re/im decomposition)."""
    return _shared(_complex_to_real_matrix(DFT_BASIS), "dft")


@lru_cache(maxsize=1)
def idft_layer() -> FixedLinear:
    return _shared(_complex_to_real_matrix(IDFT_BASIS), "idft")


@lru_cache(maxsize=1)
def cp_add_layer() -> FixedLinear:
    return _shared(_two_rail(cp_add_matrix()), "cp_add")


@lru_cache(maxsize=1)
def cp_remove_layer() -> FixedLinear:
    return _shared(_two_rail(cp_remove_matrix()), "cp_remove")


def bin_select_layer(target_columns) -> FixedLinear:
    """0/1 selection keeping the given complex columns (one 1 per kept row)."""
    return FixedLinear(_two_rail(np.eye(N_FFT)[list(target_columns)]), "bin_select")


class ComplexScale:
    """Trainable per-column complex gain: y_k = s_k * z_k.  ``s`` holds the
    scale as [Re | Im]; ``backward`` sets ``grad``, the gradient for ``s``."""
    name = "complex_scale"

    def __init__(self, n: int):
        self.n = n
        self.in_dim = self.out_dim = 2 * n
        self.s = np.concatenate([np.ones(n), np.zeros(n)])
        self.grad = np.zeros(2 * n)
        self.release()

    def release(self):
        self._x = None

    @property
    def scale(self) -> np.ndarray:
        return self.s[: self.n] + 1j * self.s[self.n:]

    def set_scale(self, s: np.ndarray):
        self.s = np.concatenate([np.real(s), np.imag(s)]).astype(np.float64)

    def _times(self, x, s):
        """``x`` times the complex scale ``s`` per column: x sr + swap(x) (-si, si)."""
        z, s = x.reshape(len(x), 2, self.n), s.reshape(2, self.n)
        return (z * s[0] + z[:, ::-1] * np.multiply.outer((-1.0, 1.0), s[1])).reshape(x.shape)

    def forward(self, x):
        self._x = x
        return self._times(x, self.s)

    def backward(self, gy):
        self.backward_scale(gy)
        return self._times(gy, self.s * np.repeat((1.0, -1.0), self.n))  # times conj(s)

    def backward_scale(self, gy):
        """The part of ``backward`` that sets ``grad``, for a caller that
        needs no input gradient: the column sums of ``gr zr + gi zi`` and
        ``gi zr - gr zi``."""
        z, g = self._x.reshape(len(gy), 2, self.n), gy.reshape(len(gy), 2, self.n)
        terms = g * z  # gr zr, gi zi
        crossed = g * z[:, ::-1]  # gr zi, gi zr
        terms[:, 0] += terms[:, 1]
        np.subtract(crossed[:, 1], crossed[:, 0], out=terms[:, 1])
        self.grad = terms.sum(axis=0).reshape(-1)


class SoftQuantize:
    """Softmax assignment to constellation points.

    For every scaled bin value w the quantizer forms the weights
    ``a_j = softmax(-|w - c_j|^2 / tau)`` over the constellation points and
    outputs ``sum_j a_j c_j``; the weights are the float one-hot the hard
    decision collapses to as ``tau -> 0``.  Temperature is annealed by the
    trainer, not trained.

    Every constellation is the grid of its per-axis ``levels``, point
    ``i*L + q`` at ``lx[i] + 1j*ly[q]``, so ``|w - c|^2`` is a sum of
    per-axis squares and the weights factor exactly: ``a_(i*L+q) = ax_i *
    ay_q``, with ``ax`` the softmax of ``-(Re w - lx)^2 / tau`` over the Lx
    levels and ``ay`` that of ``-(Im w - ly)^2 / tau`` over the Ly levels.
    The block runs these two per-axis softmaxes: the output is ``sum ax lx``
    on Re and ``sum ay ly`` on Im, each axis depends only on its own input,
    and its derivative is ``(2/tau) Var_a(l)``, the weights' variance of the
    levels.  ``axis_weights`` is the last forward's ``(ax, ay)``, and
    ``decisions`` its nearest points ``kx*Ly + ky``, the argmin of the same
    per-axis squares: they equal ``Constellation.nearest`` of the input,
    ``const.nearest(unstack_complex(x))``, the hard decision
    ``EmulationModel.decide`` takes.  The block has no other hard rule.
    """
    name = "soft_quantize"

    def __init__(self, const: Constellation, n: int, tau: float = 1.0):
        self.n = n
        self.in_dim = self.out_dim = 2 * n
        self.tau = float(tau)
        self._lx, self._ly = const.levels
        self.release()

    def release(self):
        """Drop the slopes kept for the backward and the last forward's
        weights and decisions."""
        self._slope = self.axis_weights = self.decisions = None

    def forward(self, x):
        n = self.n
        self.release()  # the last forward's weights go before the new ones come
        out, var, weights, nearest = [], [], [], []
        for w, levels in ((x[:, :n], self._lx), (x[:, n:], self._ly)):
            # level-major (L, S, n), so the sums over the levels add planes;
            # a contiguous w makes the broadcasts below one run per level
            w = np.ascontiguousarray(w)
            col = levels[:, None, None]
            d = np.subtract(w, col)
            np.square(d, out=d)  # squared distances
            mn = d.min(axis=0)  # the first equal is argmin's pick, without its copy
            nearest.append(np.argmax(d == mn, axis=0))
            # the largest logit -d/tau is the one at the smallest distance
            a = np.subtract(mn, d, out=d)
            a /= self.tau
            np.exp(a, out=a)
            a /= a.sum(axis=0)
            mean = (levels @ a.reshape(len(levels), -1)).reshape(w.shape)
            dev = np.subtract(col, mean)
            np.square(dev, out=dev)
            dev *= a
            out.append(mean)
            var.append(dev.sum(axis=0))
            weights.append(a.transpose(1, 2, 0))
            del dev  # before the next axis allocates its distances
        self._slope = (2.0 / self.tau) * np.concatenate(var, axis=1)
        self.axis_weights = tuple(weights)
        self.decisions = nearest[0] * len(self._ly) + nearest[1]
        return np.concatenate(out, axis=1)

    def backward(self, gy):
        return gy * self._slope


class GridAssemble(FixedLinear):
    """Scatter m quantized bins into the 64-bin grid; pilots and nulls are
    constants.

    Pilot bins take the standard +-1 polarity values for their OFDM symbol
    index (affine part, no gradient); everything not a target bin or pilot
    is zero: ``y = x @ weight.T + pilots``."""

    def __init__(self, target_columns):
        super().__init__(_two_rail(np.eye(N_FFT)[:, list(target_columns)]), "grid_assemble")
        self._pilot_cols = columns(PILOT_SUBCARRIERS)

    def forward(self, x):
        y = super().forward(x)
        y[:, self._pilot_cols] += pilot_values(x.shape[0])
        return y


class Sequential:
    """Chain of blocks."""

    def __init__(self, blocks: list):
        self.blocks = list(blocks)
        self.in_dim = self.blocks[0].in_dim
        self.out_dim = self.blocks[-1].out_dim

    def forward(self, x):
        for b in self.blocks:
            x = b.forward(x)
        return x

    def backward(self, gy):
        for b in reversed(self.blocks):
            gy = b.backward(gy)
        return gy


def grad_check(block, rng: np.random.Generator, x: np.ndarray | None = None) -> float:
    """Central finite differences (step 1e-5) vs the analytic backward.

    Probes four random directions through random upstream gradients on both
    the input (by default two random rows) and the scale of every
    ``ComplexScale`` in the block; returns the max relative error.
    """
    h = 1e-5
    if x is None:
        x = rng.standard_normal((2, block.in_dim))
    scales = [b for b in getattr(block, "blocks", [block]) if isinstance(b, ComplexScale)]
    worst = 0.0
    for _ in range(4):
        g = rng.standard_normal((x.shape[0], block.out_dim))
        dx = rng.standard_normal(x.shape)
        block.forward(x)
        ana = float(np.sum(block.backward(g) * dx))
        num = float(np.sum(g * (block.forward(x + h * dx) - block.forward(x - h * dx))) / (2 * h))
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1.0))
        for owner in scales:
            ds = rng.standard_normal(owner.s.shape)
            block.forward(x)
            block.backward(g)
            ana = float(np.sum(owner.grad * ds))
            s0 = owner.s
            owner.s = s0 + h * ds
            yp = block.forward(x)
            owner.s = s0 - h * ds
            ym = block.forward(x)
            owner.s = s0
            num = float(np.sum(g * (yp - ym)) / (2 * h))
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1.0))
    return worst
