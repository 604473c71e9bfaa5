"""Differentiable-block engine.

Each block is a layer with an explicit forward and an explicit backward that
is the exact adjoint of the forward's linearization.  Signals travel through
the stack as real matrices of shape (n_ofdm_symbols, 2*width): the real
parts of a width-wide complex vector in the left half, imaginary parts in
the right half.  Complex linear operators become real block matrices
[[A, -B], [B, A]]; operators that act identically on both rails (cyclic
prefix add/remove, bin selection) become block-diagonal.

Fixed layers carry no trainable parameters; the only trainable state in the
whole stack is the per-subcarrier complex scale in front of the soft
quantizer.  ``grad_check`` validates any block against central finite
differences.
"""

from __future__ import annotations

import numpy as np

from .dsp import DFT_BASIS, IDFT_BASIS, N_FFT
from .errors import DimensionError
from .wifi import CP_LEN, PILOT_SUBCARRIERS, Constellation, pilot_values

__all__ = [
    "DiffBlock",
    "FixedLinear",
    "ComplexScale",
    "SoftQuantize",
    "GridAssemble",
    "Sequential",
    "stack_complex",
    "unstack_complex",
    "cp_add_matrix",
    "cp_remove_matrix",
    "dft_layer",
    "idft_layer",
    "cp_add_layer",
    "cp_remove_layer",
    "bin_select_layer",
    "grad_check",
]


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


class DiffBlock:
    """Forward/backward layer contract.

    ``forward`` caches whatever ``backward`` needs; ``backward`` maps the
    upstream gradient to the input gradient and accumulates parameter
    gradients into ``self.grads``.
    """

    in_dim: int
    out_dim: int
    params: dict
    grads: dict
    trainable: frozenset

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.trainable = frozenset()

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def sample_input(self, rng: np.random.Generator, n_rows: int = 2) -> np.ndarray:
        return rng.standard_normal((n_rows, self.in_dim))


class FixedLinear(DiffBlock):
    """y = x @ W.T with a frozen weight matrix; backward is x @ W."""

    def __init__(self, weight: np.ndarray, name: str = "fixed_linear"):
        super().__init__()
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


def dft_layer() -> FixedLinear:
    """64-point DFT as a 128x128 real layer (basis re/im decomposition)."""
    return FixedLinear(_complex_to_real_matrix(DFT_BASIS), "dft")


def idft_layer() -> FixedLinear:
    return FixedLinear(_complex_to_real_matrix(IDFT_BASIS), "idft")


def cp_add_layer() -> FixedLinear:
    return FixedLinear(_two_rail(cp_add_matrix()), "cp_add")


def cp_remove_layer() -> FixedLinear:
    return FixedLinear(_two_rail(cp_remove_matrix()), "cp_remove")


def bin_select_layer(columns, width: int = N_FFT) -> FixedLinear:
    """0/1 selection keeping the given complex columns (one 1 per kept row)."""
    columns = list(columns)
    w = np.zeros((len(columns), width))
    for r, c in enumerate(columns):
        w[r, c] = 1.0
    return FixedLinear(_two_rail(w), "bin_select")


class ComplexScale(DiffBlock):
    """Trainable per-column complex gain: y_k = s_k * z_k."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.in_dim = self.out_dim = 2 * n
        self.params = {"scale": np.concatenate([np.ones(n), np.zeros(n)])}
        self.trainable = frozenset({"scale"})
        self.zero_grads()

    @property
    def scale(self) -> np.ndarray:
        s = self.params["scale"]
        return s[: self.n] + 1j * s[self.n:]

    def set_scale(self, s: np.ndarray):
        self.params["scale"] = np.concatenate([np.real(s), np.imag(s)]).astype(np.float64)

    def forward(self, x):
        self._x = x
        zr, zi = x[:, : self.n], x[:, self.n:]
        s = self.params["scale"]
        sr, si = s[: self.n], s[self.n:]
        return np.concatenate([sr * zr - si * zi, sr * zi + si * zr], axis=1)

    def backward(self, gy):
        x = self._x
        zr, zi = x[:, : self.n], x[:, self.n:]
        gr, gi = gy[:, : self.n], gy[:, self.n:]
        s = self.params["scale"]
        sr, si = s[: self.n], s[self.n:]
        gzr = gr * sr + gi * si
        gzi = -gr * si + gi * sr
        gsr = np.sum(gr * zr + gi * zi, axis=0)
        gsi = np.sum(-gr * zi + gi * zr, axis=0)
        self.grads["scale"] += np.concatenate([gsr, gsi])
        return np.concatenate([gzr, gzi], axis=1)


class SoftQuantize(DiffBlock):
    """Softmax assignment to constellation points.

    For every scaled bin value w the block forms
    ``a_j = softmax(-|w - c_j|^2 / tau)`` and outputs ``sum_j a_j c_j``; the
    weights a are the float one-hot the hard decision collapses to as
    ``tau -> 0``.  Temperature is annealed by the trainer, not trained.
    """

    def __init__(self, const: Constellation, n: int, tau: float = 1.0):
        super().__init__()
        self.const = const
        self.n = n
        self.in_dim = self.out_dim = 2 * n
        self.tau = float(tau)
        self.points = const.points
        self.last_weights = None

    def forward(self, x):
        wr, wi = x[:, : self.n], x[:, self.n:]
        cr, ci = self.points.real, self.points.imag
        d = (wr[..., None] - cr) ** 2 + (wi[..., None] - ci) ** 2  # (S, n, C)
        logits = -d / self.tau
        logits -= logits.max(axis=2, keepdims=True)
        e = np.exp(logits)
        a = e / e.sum(axis=2, keepdims=True)
        self._x, self._d, self._a = x, d, a
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

    def hard_indices(self, x) -> np.ndarray:
        """argmin_j |w - c_j|^2 per element, ties to the lowest index."""
        return self.const.nearest(unstack_complex(x))


class GridAssemble(DiffBlock):
    """Scatter m quantized bins into the 64-bin grid; pilots and nulls are
    constants.

    Pilot bins take the standard +-1 polarity values for their OFDM symbol
    index (affine part, no gradient); everything not a target bin or pilot
    is zero."""

    def __init__(self, target_columns, start_symbol: int = 0):
        super().__init__()
        self.target_columns = list(target_columns)
        self.start_symbol = start_symbol
        m = len(self.target_columns)
        self.in_dim = 2 * m
        self.out_dim = 2 * N_FFT
        w = np.zeros((N_FFT, m))
        for r, c in enumerate(self.target_columns):
            w[c, r] = 1.0
        self._w2 = _two_rail(w)
        self._pilot_cols = [m_ % N_FFT for m_ in PILOT_SUBCARRIERS]
        self._pilots = np.zeros((0, 2 * N_FFT))

    def pilot_constants(self, n_rows: int) -> np.ndarray:
        """(n_rows, 128) constant grid contribution (pilot bins only), kept
        for the last row count: training asks for the same one every epoch."""
        if self._pilots.shape[0] != n_rows:
            self._pilots = np.zeros((n_rows, 2 * N_FFT))
            self._pilots[:, self._pilot_cols] = pilot_values(n_rows, self.start_symbol)
        return self._pilots

    def forward(self, x):
        y = x @ self._w2.T
        return y + self.pilot_constants(x.shape[0])

    def backward(self, gy):
        return gy @ self._w2


class Sequential(DiffBlock):
    """Chain of blocks; exposes the union of trainable params."""

    def __init__(self, blocks: list):
        super().__init__()
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

    def zero_grads(self):
        for b in self.blocks:
            b.zero_grads()

    def trainable_items(self):
        for b in self.blocks:
            for name in b.trainable:
                yield b, name


def _away_from_boundaries(block, x: np.ndarray, margin: float) -> np.ndarray:
    """Nudge quantizer probe points so no value sits near a decision edge."""
    if not isinstance(block, SoftQuantize):
        return x
    pts = block.points
    for _ in range(50):
        wr, wi = x[:, : block.n], x[:, block.n:]
        d = np.sqrt((wr[..., None] - pts.real) ** 2 + (wi[..., None] - pts.imag) ** 2)
        d2 = np.sort(d, axis=2)
        bad = (d2[..., 1] - d2[..., 0]) < margin
        if not bad.any():
            return x
        x = x.copy()
        x[:, : block.n][bad] += 3 * margin
    return x


def grad_check(
    block: DiffBlock,
    rng: np.random.Generator,
    x: np.ndarray | None = None,
    n_probes: int = 4,
    h: float = 1e-5,
) -> float:
    """Central finite differences vs the analytic backward.

    Probes random directions through random upstream gradients on both the
    input and every trainable parameter; returns the max relative error.
    """
    if x is None:
        x = block.sample_input(rng)
    x = _away_from_boundaries(block, x, margin=10 * h)
    worst = 0.0
    for _ in range(n_probes):
        g = rng.standard_normal((x.shape[0], block.out_dim))
        dx = rng.standard_normal(x.shape)
        block.zero_grads()
        block.forward(x)
        gx = block.backward(g)
        ana = float(np.sum(gx * dx))
        num = float(np.sum(g * (block.forward(x + h * dx) - block.forward(x - h * dx))) / (2 * h))
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1.0))
        # parameter directions
        items = list(block.trainable_items()) if isinstance(block, Sequential) else [
            (block, n) for n in block.trainable
        ]
        for owner, name in items:
            dp = rng.standard_normal(owner.params[name].shape)
            block.zero_grads()
            block.forward(x)
            block.backward(g)
            ana = float(np.sum(owner.grads[name] * dp))
            p0 = owner.params[name].copy()
            owner.params[name] = p0 + h * dp
            yp = block.forward(x)
            owner.params[name] = p0 - h * dp
            ym = block.forward(x)
            owner.params[name] = p0
            num = float(np.sum(g * (yp - ym)) / (2 * h))
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1.0))
    return worst
