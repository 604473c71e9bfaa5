"""QAM-emulation autoencoder: fixed DSP layers around a trainable quantizer.

The model maps an 80*S-sample waveform through cyclic-prefix removal, a
64-point DFT, target-bin selection, a trainable per-subcarrier complex
scale, a soft quantizer onto standard constellation points, grid reassembly
with fixed pilots, an inverse DFT and cyclic-prefix re-addition.  Training
it to reconstruct its own input picks the constellation points whose OFDM
synthesis best matches the target waveform, in the time domain (analog
mode) or in the instantaneous-phase domain (digital mode).

The only trainable state is the scale array of the ``ComplexScale`` layer;
``train(model, u, z, cfg)`` fits it to a target that ``normalize`` has
analysed, and takes its epoch cap, learning rate and temperature schedule
from a ``sim.ExperimentConfig`` and its objective from ``model.mode``.  The
layers before the scale are fixed and so is the training input, so
``train`` runs them once; the layers after the quantizer are fixed and
affine, so ``train`` runs them as one product plus the pilots' waveform.
An epoch is then the scale and the two per-axis softmaxes of the soft
quantizer, forward and backward, and the objective of their points: in
closed form in analog mode, through that product in digital mode.  The
quantizer's forward also yields the epoch's hard decisions, and the hard
grid is re-scored only in epochs whose decisions differ from the previous
epoch's.  ``sim`` is the one caller.

Inference is the one quantization rule every mode but ``wide`` shares:
``normalize`` divides each OFDM symbol by the largest magnitude of its
target bins (``symbol_peaks``) and ``decide`` scales the normalized bins and
takes the nearest constellation point (``Constellation.nearest``).  With
unit scales that is the ``webee`` rule; with trained scales it is the best
epoch's decisions, so a ``trained`` or ``nn-webee`` plan is ``decide`` of a
trained model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import N_FFT
from .diffblocks import (
    ComplexScale,
    GridAssemble,
    Sequential,
    SoftQuantize,
    bin_select_layer,
    cp_add_layer,
    cp_remove_layer,
    dft_layer,
    idft_layer,
    stack_complex,
    unstack_complex,
)
from .errors import ConfigError, DimensionError, DomainError
from .wifi import (
    CP_LEN,
    DATA_SUBCARRIERS,
    SYMBOL_LEN,
    Constellation,
    constellation,
)

MODEL_FORMAT_VERSION = 1


class EmulationModel:
    """The assembled block stack plus bookkeeping for training/inference.

    Built from what a model file stores: constellation, target subcarriers
    and ``mode``, the objective ('analog' or 'digital').  ``stack`` is the
    full eight-layer model: ``prefix`` (cyclic-prefix removal, DFT,
    target-bin selection), ``scale``, ``quantize`` and ``tail`` (grid
    assembly with the pilots, IDFT, cyclic prefix).  The layers are the
    specification: ``forward``, ``synthesize`` and every plan's metrics run
    them, and ``train`` runs the fixed tail as their product.
    """

    def __init__(self, modulation: str, target_subcarriers, mode: str):
        self.const: Constellation = constellation(modulation)
        if mode not in ("analog", "digital"):
            raise ConfigError(f"mode must be 'analog' or 'digital', got {mode!r}")
        self.mode = mode
        bad = [m for m in target_subcarriers if m not in DATA_SUBCARRIERS]
        if bad:
            raise ConfigError(f"target subcarriers {bad} are not data subcarriers")
        if not target_subcarriers:
            raise ConfigError("target subcarrier set is empty")
        if len(set(target_subcarriers)) != len(target_subcarriers):
            raise ConfigError(f"target subcarriers {list(target_subcarriers)} "
                              f"repeat a subcarrier")
        self.target_subcarriers = tuple(sorted(target_subcarriers))
        m = len(self.target_subcarriers)
        cols = [sc % N_FFT for sc in self.target_subcarriers]  # plain DFT order

        self.cp_remove = cp_remove_layer()
        self.dft = dft_layer()
        self.select = bin_select_layer(cols)
        self.scale = ComplexScale(m)
        self.quantize = SoftQuantize(self.const, m)
        # pilots from data symbol 0, as wifi.transmit_psdu sends them
        self.assemble = GridAssemble(cols)
        self.idft = idft_layer()
        self.cp_add = cp_add_layer()
        self.prefix = Sequential([self.cp_remove, self.dft, self.select])
        self.tail = Sequential([self.assemble, self.idft, self.cp_add])
        self.stack = Sequential(
            self.prefix.blocks + [self.scale, self.quantize] + self.tail.blocks)

    # -- shaping ------------------------------------------------------------

    def _to_blocks(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if len(x) % SYMBOL_LEN != 0:
            raise DimensionError(f"waveform length {len(x)} not a multiple of {SYMBOL_LEN}")
        return stack_complex(x.reshape(-1, SYMBOL_LEN))

    def forward(self, x) -> np.ndarray:
        """Waveform in, reconstructed waveform out (same length)."""
        return _waveform(self.stack.forward(self._to_blocks(x)))

    def _bins(self, x) -> np.ndarray:
        """Stacked (S, 2m) target bins of a waveform: the fixed prefix."""
        return self.prefix.forward(self._to_blocks(x))

    def synthesize(self, points) -> np.ndarray:
        """Waveform of an (S, m) grid of complex points on the target bins,
        with the fixed pilots: grid assembly, IDFT, cyclic prefix."""
        return _waveform(self.tail.forward(stack_complex(points)))

    def normalize(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Per-OFDM-symbol max-abs pre-normalization of a raw waveform:
        ``(u, z)``, the normalized waveform and the raw (S, m) target bins.

        Every 80-sample block is divided by ``symbol_peaks`` of its target
        bins, which brings the bins into the constellation's dynamic range;
        the trainable scales then start from 1+0j on top of this.  ZigBee's
        constant envelope keeps the per-block factors nearly equal, and the
        frame decoder is amplitude-invariant anyway.
        """
        x = np.asarray(x, dtype=np.complex128)
        z = unstack_complex(self._bins(x))
        if z.size == 0 or float(np.max(np.abs(z))) <= 0:
            raise DomainError("target has no energy on the selected subcarriers")
        g = symbol_peaks(z)
        return (x.reshape(-1, SYMBOL_LEN) / g[:, None]).reshape(-1), z

    def decide(self, u) -> np.ndarray:
        """(S, m) point indices of a normalized waveform: its target bins,
        scaled, to the nearest point.  Unit scales give the ``webee`` rule,
        trained ones the best epoch's decisions."""
        idx = self.const.nearest(unstack_complex(self.scale.forward(self._bins(u))))
        self.scale.release()
        return idx

    @property
    def tau(self) -> float:
        return self.quantize.tau

    @tau.setter
    def tau(self, value: float):
        if value <= 0:
            raise DomainError("tau must be positive")
        self.quantize.tau = float(value)


def _waveform(h: np.ndarray) -> np.ndarray:
    """Stacked (S, 160) blocks -> one complex waveform."""
    return unstack_complex(h).reshape(-1)


def symbol_peaks(bins) -> np.ndarray:
    """The per-OFDM-symbol normalizer: the largest magnitude in each row of
    (S, m) bins.  Rows below 1e-9 of the overall peak (zero padding) are
    floored there, so they stay near zero instead of being amplified to full
    scale."""
    g = np.max(np.abs(bins), axis=1)
    return np.maximum(g, max(1e-9 * float(g.max()), 1e-300))


def kept_symbols(bins) -> np.ndarray:
    """(S,) True for the rows of (S, m) raw target bins whose peak
    ``symbol_peaks`` did not floor.  A floored row has no content on the
    target bins, such as a frame's last symbol when only its cyclic prefix
    holds target samples, and ``normalize`` scales its other samples by up
    to 1e9."""
    return symbol_peaks(bins) == np.max(np.abs(bins), axis=1)


def build_passthrough_autoencoder() -> Sequential:
    """Validation stack: CP-remove, DFT, IDFT, CP-add with no quantizer and
    all 64 bins kept.  Isolates the cyclic-prefix contribution: the body of
    every 80-sample block is reproduced exactly and each prefix region maps
    to the block's tail."""
    return Sequential([cp_remove_layer(), dft_layer(), idft_layer(), cp_add_layer()])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

# floor of |v|^2 in the denominator of the phase loss's gradient
MAG2_FLOOR = 1e-12


def loss_and_grad(output, target, mode: str):
    """Loss plus its gradient with respect to the (complex) output.

    analog: mean |u-v|^2 over samples; digital: mean wrapped-phase-diff^2.

    The gradient is returned as a complex array whose real/imag parts are
    the partials with respect to the output's real/imag parts.
    """
    u = np.asarray(target, dtype=np.complex128).reshape(-1)
    v = np.asarray(output, dtype=np.complex128).reshape(-1)
    if u.shape != v.shape:
        raise DimensionError(f"length mismatch {u.shape} vs {v.shape}")
    n = len(u)
    if mode == "analog":
        diff = v - u
        return float(np.mean(np.abs(diff) ** 2)), (2.0 / n) * diff
    if mode == "digital":
        e = np.angle(np.multiply(v, np.conj(u)))  # one operand order at every length
        mag2 = np.maximum(np.abs(v) ** 2, MAG2_FLOOR)
        # d(angle v)/d(vr) = -vi/|v|^2, d/d(vi) = vr/|v|^2
        gr = (2.0 / n) * e * (-v.imag / mag2)
        gi = (2.0 / n) * e * (v.real / mag2)
        return float(np.mean(e**2)), gr + 1j * gi
    raise ConfigError(f"unknown loss mode {mode!r}")


def body_mask(n_samples: int) -> np.ndarray:
    """True outside cyclic-prefix regions."""
    mask = np.ones(n_samples, dtype=bool)
    mask.reshape(-1, SYMBOL_LEN)[:, :CP_LEN] = False
    return mask


def nmse_excluding_cp(output, target) -> float:
    u = np.asarray(target).reshape(-1)
    v = np.asarray(output).reshape(-1)
    m = body_mask(len(u))
    return float(np.sum(np.abs(u[m] - v[m]) ** 2) / np.sum(np.abs(u[m]) ** 2))


def phase_mse_excluding_cp(output, target) -> float:
    u = np.asarray(target).reshape(-1)
    v = np.asarray(output).reshape(-1)
    m = body_mask(len(u))
    return float(np.mean(np.angle(v[m] * np.conj(u[m])) ** 2))


def gain_free_loss_and_grad(output, target):
    """The waveform error left after the best complex gain on the output:
    ``(|u|^2 - |c|^2/|v|^2)/n`` with ``c = <v,u> = sum v conj(u)``, and its
    gradient ``-(2/n)(c u/|v|^2 - |c|^2 v/|v|^4)`` in the form of
    ``loss_and_grad``.  The ZigBee receiver is amplitude-invariant, so this
    is the error it sees; an absolute-scale MSE would also charge the
    trainable scales for the gain of the fixed pilots."""
    u = np.asarray(target, dtype=np.complex128).reshape(-1)
    v = np.asarray(output, dtype=np.complex128).reshape(-1)
    n = len(u)
    c = np.vdot(u, v)
    vv = np.vdot(v, v).real
    cc = abs(c) ** 2
    grad = (-2.0 / n) * (c / vv * u - cc / vv**2 * v)
    return float((np.vdot(u, u).real - cc / vv) / n), grad


def gain_free_error_excluding_cp(output, target) -> float:
    """``1 - |<v,u>|^2/(|v|^2 |u|^2)`` over the body samples: the share of
    the target's body energy that no complex gain on the output reaches."""
    u = np.asarray(target).reshape(-1)
    v = np.asarray(output).reshape(-1)
    m = body_mask(len(u))
    u, v = u[m], v[m]
    return float(1.0 - abs(np.vdot(u, v)) ** 2 / (np.vdot(v, v).real * np.vdot(u, u).real))


def fit_loss_and_grad(output, target, mode: str):
    """The training objective and its gradient: ``gain_free_loss_and_grad``
    in analog mode, the phase loss of ``loss_and_grad`` in digital mode.
    ``train`` computes it at the points (``_GainFreeFit``, ``_PhaseFit``)."""
    if mode == "analog":
        return gain_free_loss_and_grad(output, target)
    return loss_and_grad(output, target, mode)


def selection_metric(output, target, mode: str) -> float:
    """Hard-reconstruction quality used to pick the best training epoch:
    the gain-free body error in analog mode, the body phase MSE in digital
    mode.  ``train`` computes it at the points (``_GainFreeFit``, ``_PhaseFit``)."""
    if mode == "analog":
        return gain_free_error_excluding_cp(output, target)
    return phase_mse_excluding_cp(output, target)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# training stops after this many epochs without a better hard metric
PLATEAU_PATIENCE = 50
PLATEAU_TOL = 1e-9


@dataclass
class TrainResult:
    loss_history: list = field(default_factory=list)
    hard_metric_history: list = field(default_factory=list)
    best_epoch: int = -1
    best_hard_metric: float = math.inf
    epochs_run: int = 0


def fused_tail(model: EmulationModel, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed tail (grid assembly, IDFT, cyclic prefix) as one affine map
    of stacked (n_rows, 2m) points: ``points @ a + p``.  ``a`` (2m, 160) is
    the product of the three layers' weights and ``p`` (n_rows, 160) the
    pilots' waveform, the layers run on zero points.  Its backward is
    ``gy @ a.T``."""
    a = model.assemble.weight.T @ model.idft.weight.T @ model.cp_add.weight.T
    return a, model.tail.forward(np.zeros((n_rows, model.assemble.in_dim)))


_BODY_COLUMNS = np.r_[CP_LEN:SYMBOL_LEN, SYMBOL_LEN + CP_LEN:2 * SYMBOL_LEN]


class _GainFreeFit:
    """``gain_free_loss_and_grad`` and ``gain_free_error_excluding_cp`` of
    the waveform ``q @ a + pilots`` of stacked (S, 2m) points ``q``, in
    closed form: ``c = <v,u> = sum(q B) + c0`` with ``B = conj(u) @ (a_re +
    j a_im).T``, and ``|v|^2 = sum((q G + 2P) q) + |p|^2`` with ``G = a a.T``
    and ``P = pilots a.T``.  Both forms (all samples for the objective, body
    samples for the metric) are built once; no epoch synthesizes a waveform."""

    def __init__(self, target, a, pilots):
        u = target.reshape(len(pilots), SYMBOL_LEN)
        self.n = u.size
        self.whole = self._form(u, a, pilots)
        self.body = self._form(u[:, CP_LEN:], a[:, _BODY_COLUMNS], pilots[:, _BODY_COLUMNS])

    @staticmethod
    def _form(u, a, pilots):
        """``(B, c0, G, P, |p|^2, |u|^2)`` of target rows ``u``.  ``|p|^2`` is a
        pairwise sum: a dot product over the repetitive pilots drifts by 20+ eps."""
        w = u.shape[1]
        return (np.conj(u) @ (a[:, :w] + 1j * a[:, w:]).T,
                np.vdot(u, pilots[:, :w] + 1j * pilots[:, w:]), a @ a.T, pilots @ a.T,
                np.sum(np.square(pilots)), np.vdot(u, u).real)

    @staticmethod
    def _terms(q, form):
        """``c``, ``|v|^2`` and ``q G + P`` of points ``q``."""
        b, c0, g, p, pp, _ = form
        qg_p = q @ g + p
        return np.sum(q * b) + c0, np.sum((qg_p + p) * q) + pp, qg_p

    def objective(self, q):
        """``gain_free_loss_and_grad`` of the waveform of ``q``, and the
        gradient ``-(2/(n|v|^2))(Re(conj(c) B) - (|c|^2/|v|^2)(q G + P))``."""
        b, *_, uu = self.whole
        c, vv, qg_p = self._terms(q, self.whole)
        cc = abs(c) ** 2
        grad = (np.conj(c) * b).real - (cc / vv) * qg_p
        grad *= -2.0 / (self.n * vv)
        return float((uu - cc / vv) / self.n), grad

    def metric(self, q) -> float:
        """``gain_free_error_excluding_cp`` of the waveform of ``q``."""
        c, vv, _ = self._terms(q, self.body)
        return float(1.0 - abs(c) ** 2 / (vv * self.body[-1]))


class _PhaseFit:
    """``loss_and_grad`` (digital) and ``phase_mse_excluding_cp`` of the
    waveform ``points @ a + pilots``: the same ufuncs on the same operands
    in buffers allocated once, so every float is bit-identical to theirs.
    The metric synthesizes only the body columns, the samples it reads."""

    def __init__(self, target, a, pilots):
        n_rows = len(pilots)
        self.a, self.pilots = a, pilots
        self.a_body = np.ascontiguousarray(a[:, _BODY_COLUMNS])
        self.pilots_body = np.ascontiguousarray(pilots[:, _BODY_COLUMNS])
        self.conj_target = np.conj(target)
        self.conj_body = np.conj(target.reshape(n_rows, SYMBOL_LEN)[:, CP_LEN:].reshape(-1))
        # h holds the stacked soft waveform until v is formed, then the
        # stacked gradient; v and g are the complex waveform and gradient
        self.h = np.empty((n_rows, 2 * SYMBOL_LEN))
        self.v = np.empty(n_rows * SYMBOL_LEN, dtype=np.complex128)
        self.g = np.empty_like(self.v)
        self.e, self.mag2, self.w = (np.empty(len(self.v)) for _ in range(3))
        self.h_body = np.empty((n_rows, 2 * N_FFT))
        self.v_body = np.empty(n_rows * N_FFT, dtype=np.complex128)
        self.e_body = np.empty(len(self.v_body))

    @staticmethod
    def _synthesize(points, a, pilots, h, v):
        """``_waveform(points @ a + pilots)`` into ``h`` and ``v``."""
        np.matmul(points, a, out=h)
        h += pilots
        half = h.shape[1] // 2
        v2 = v.reshape(len(h), half)
        np.multiply(1j, h[:, half:], out=v2)
        np.add(h[:, :half], v2, out=v2)

    def objective(self, points):
        """The loss and its gradient with respect to ``points``."""
        v, g = self.v, self.g
        self._synthesize(points, self.a, self.pilots, self.h, v)
        p = np.multiply(v, self.conj_target, out=g)
        e = np.arctan2(p.imag, p.real, out=self.e)  # np.angle(p)
        mag2 = np.abs(v, out=self.mag2)
        np.square(mag2, out=mag2)
        np.maximum(mag2, MAG2_FLOOR, out=mag2)
        loss = float(np.mean(np.square(e, out=self.w)))
        np.multiply(2.0 / len(v), e, out=e)
        gr = np.negative(v.imag, out=self.w)
        gr /= mag2
        gi = np.divide(v.real, mag2, out=mag2)
        np.multiply(e, gr, out=gr)
        np.multiply(e, gi, out=gi)
        np.multiply(1j, gi, out=g)
        np.add(gr, g, out=g)
        g2 = g.reshape(len(self.h), SYMBOL_LEN)
        self.h[:, :SYMBOL_LEN] = g2.real
        self.h[:, SYMBOL_LEN:] = g2.imag
        return loss, self.h @ self.a.T

    def metric(self, points) -> float:
        """``phase_mse_excluding_cp`` of the hard waveform of ``points``."""
        v = self.v_body
        self._synthesize(points, self.a_body, self.pilots_body, self.h_body, v)
        p = np.multiply(v, self.conj_body, out=v)
        e = np.arctan2(p.imag, p.real, out=self.e_body)
        return float(np.mean(np.square(e, out=e)))


def train(model: EmulationModel, u, z, cfg) -> TrainResult:
    """Adam on the quantizer scales, tau annealed geometrically.

    ``(u, z)`` is ``model.normalize`` of the target: the normalized waveform
    and its raw (S, m) target bins.  ``cfg``, a ``sim.ExperimentConfig``,
    gives the schedule: ``epochs``, ``learning_rate`` and
    ``tau_start``/``tau_decay``/``tau_floor``; the objective
    (``fit_loss_and_grad``) and the hard-reconstruction metric
    (``selection_metric``) follow ``model.mode``.  Analog mode fits only the
    symbols that ``kept_symbols`` keeps: a floored symbol's normalized
    samples would be the whole objective.  Epoch 0, with scales at 1+0j,
    scores the plain normalize-then-nearest-point quantization.

    The fixed prefix runs once on ``u``; the fixed tail is ``fused_tail``'s
    affine map of the points.  The fit, chosen once from ``model.mode``
    (``_GainFreeFit`` or ``_PhaseFit``), gives the objective and its
    gradient at the soft points and the metric of the hard ones.  Every
    epoch runs the scale and the soft quantizer forward and backward; the
    hard metric is recomputed only when the quantizer's decisions differ
    from the previous epoch's.  The kept scales are the best epoch's by the
    metric, so the result is never worse than that baseline.  Deterministic
    for a fixed config; the scale's and quantizer's per-frame arrays are
    released on return.
    """
    u = np.asarray(u, dtype=np.complex128)
    if len(u) != SYMBOL_LEN * len(z):
        raise DimensionError(f"target of {len(u)} samples for {len(z)} symbols of bins")

    if model.mode == "analog":
        rows, fit_class = kept_symbols(z), _GainFreeFit
    else:
        rows, fit_class = np.ones(len(z), dtype=bool), _PhaseFit
    bins = model._bins(u)[rows]
    a, pilots = fused_tail(model, len(z))
    fit = fit_class(u.reshape(-1, SYMBOL_LEN)[rows].reshape(-1), a, pilots[rows])

    sc, quantize = model.scale, model.quantize
    mom = np.zeros_like(sc.s)
    vel = np.zeros_like(sc.s)
    result = TrainResult()
    best_s = sc.s.copy()
    stale = 0
    idx = None

    for epoch in range(cfg.epochs):
        model.tau = max(cfg.tau_floor, cfg.tau_start * cfg.tau_decay**epoch)

        soft_loss, grad = fit.objective(quantize.forward(sc.forward(bins)))
        if not math.isfinite(soft_loss):
            raise DomainError(f"non-finite training loss at epoch {epoch}: {soft_loss}")
        sc.backward_scale(quantize.backward(grad))

        # the hard grid, and so its metric, changes only with the decisions
        if idx is None or not np.array_equal(quantize.decisions, idx):
            idx = quantize.decisions
            metric = fit.metric(stack_complex(model.const.points[idx]))
        result.loss_history.append(soft_loss)
        result.hard_metric_history.append(metric)
        if metric < result.best_hard_metric - PLATEAU_TOL:
            result.best_hard_metric = metric
            result.best_epoch = epoch
            best_s = sc.s.copy()
            stale = 0
        else:
            stale += 1
            if stale >= PLATEAU_PATIENCE:
                break

        mom = ADAM_BETA1 * mom + (1 - ADAM_BETA1) * sc.grad
        vel = ADAM_BETA2 * vel + (1 - ADAM_BETA2) * sc.grad**2
        m_hat = mom / (1 - ADAM_BETA1 ** (epoch + 1))
        v_hat = vel / (1 - ADAM_BETA2 ** (epoch + 1))
        sc.s = sc.s - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    sc.release()
    quantize.release()
    sc.s = best_s
    model.tau = cfg.tau_floor
    result.epochs_run = len(result.loss_history)
    return result


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(model: EmulationModel, path) -> None:
    s = model.scale.scale
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "constellation": model.const.name,
        "mode": model.mode,
        "target_subcarriers": list(model.target_subcarriers),
        "tau": model.tau,
        "scales_re": s.real.tolist(),
        "scales_im": s.imag.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:  # a JSON integer beyond the float range
        return False


def load_model(path) -> EmulationModel:
    """Read a ``save_model`` file.  Every key is checked before it is used:
    a malformed file is a ``ConfigError`` naming the key."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise ConfigError(f"model_file {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"model_file {path} must hold a JSON object, got {type(doc).__name__}")

    def bad(key, want):
        return ConfigError(f"model_file {path}: key {key}: expected {want}, got {doc.get(key)!r}")

    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise bad("format_version", MODEL_FORMAT_VERSION)
    if doc.get("start_symbol", 0) != 0:
        raise ConfigError(f"model_file {path}: start_symbol must be 0 (the transmitter's "
                          f"first pilot symbol), got {doc['start_symbol']!r}")
    if not isinstance(doc.get("constellation"), str):
        raise bad("constellation", "a modulation name")
    try:
        constellation(doc["constellation"])
    except ConfigError as e:
        raise ConfigError(f"model_file {path}: key constellation: {e}")
    if doc.get("mode") not in ("analog", "digital"):
        raise bad("mode", "'analog' or 'digital'")
    subs = doc.get("target_subcarriers")
    if not isinstance(subs, list) or not all(type(m) is int for m in subs):
        raise bad("target_subcarriers", "a list of subcarrier integers")
    # decide scales bins of magnitude at most 1: parts up to 1e300 keep them finite
    for key in ("scales_re", "scales_im"):
        v = doc.get(key)
        if not (isinstance(v, list) and len(v) == len(subs)
                and all(_finite_number(x) and abs(x) <= 1e300 for x in v)):
            raise bad(key, f"{len(subs)} numbers in [-1e300, 1e300], one per target subcarrier")
    if not (_finite_number(doc.get("tau")) and doc["tau"] > 0):
        raise bad("tau", "a finite number > 0")
    try:
        model = EmulationModel(doc["constellation"], subs, doc["mode"])
    except ConfigError as e:
        raise ConfigError(f"model_file {path}: key target_subcarriers: {e}")
    model.scale.set_scale(np.array(doc["scales_re"], dtype=np.float64)
                          + 1j * np.array(doc["scales_im"], dtype=np.float64))
    model.tau = doc["tau"]
    return model
