"""QAM-emulation autoencoder: fixed DSP layers around a trainable quantizer.

The model maps an 80*S-sample waveform through cyclic-prefix removal, a
64-point DFT, target-bin selection, a trainable per-subcarrier complex
scale, a soft quantizer onto standard constellation points, grid reassembly
with fixed pilots, an inverse DFT and cyclic-prefix re-addition.  Training
it to reconstruct its own input picks the constellation points whose OFDM
synthesis best matches the target waveform, in the time domain (analog
mode) or in the instantaneous-phase domain (digital mode), per the config.

The only trainable state is the scale array of the ``ComplexScale`` layer;
``train(model, u, z, cfg)`` fits it to a target that ``normalize`` has
analysed (``sim`` is the one caller).  The layers before the scale run once
on the fixed input, and the fixed affine layers after the quantizer run as
one product plus the pilots' waveform.  An epoch is the scale and the two
per-axis softmaxes of the quantizer, forward and backward, and the
objective of their points: in closed form in analog mode, through that
product in digital mode.  The hard grid is scored again only in epochs
whose decisions changed, and in digital mode only in the rows that
changed.  ``tests/emulation_oracle.py`` holds the objectives and metrics in
waveform form, the specification the fits are checked against.

Inference is the one quantization rule every mode but ``wide`` shares:
``normalize`` divides each OFDM symbol by the largest magnitude of its
target bins (``symbol_peaks``) and ``decide`` scales the normalized bins and
takes the nearest constellation point (``Constellation.nearest``).  With
unit scales that is the ``webee`` rule; with trained scales it is the best
epoch's decisions, so a ``trained`` plan is ``decide`` of a trained model.
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
    columns,
    constellation,
)

MODEL_FORMAT_VERSION = 1

EMULATION_MODES = ("analog", "digital")


class EmulationModel:
    """The assembled block stack plus bookkeeping for training/inference.

    ``stack`` is the full eight-layer model: ``prefix`` (cyclic-prefix
    removal, DFT, target-bin selection), ``scale``, ``quantize`` and
    ``tail`` (grid assembly with the pilots, IDFT, cyclic prefix).  The
    layers are the specification: ``forward``, ``synthesize`` and every
    plan's metrics run them, and ``train`` runs the fixed tail as their
    product.  The training objective is the config's ``emulation_mode``.
    """

    def __init__(self, modulation: str, target_subcarriers):
        self.const: Constellation = constellation(modulation)
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
        cols = columns(self.target_subcarriers)

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


# ---------------------------------------------------------------------------
# body metrics
# ---------------------------------------------------------------------------

# floor of |v|^2 in the denominator of the phase loss's gradient
MAG2_FLOOR = 1e-12


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


class _GainFreeFit:
    """The analog objective and metric of the waveform ``q @ a + pilots`` of
    stacked (S, 2m) points ``q``: the error left after the best complex gain
    on the waveform, which is what an amplitude-invariant receiver sees
    (``gain_free_loss_and_grad`` and ``gain_free_error_excluding_cp`` in
    ``tests/emulation_oracle.py``).  In closed form: ``c = <v,u> = sum(q B)
    + c0`` with ``B = conj(u) @ (a_re + j a_im).T``, and ``|v|^2 = sum((q G
    + 2P) q) + |p|^2`` with ``G = a a.T`` and ``P = pilots a.T``.  Both
    forms (all samples for the objective, body samples for the metric) are
    built once; no epoch synthesizes a waveform."""

    def __init__(self, target, a, pilots):
        u = target.reshape(len(pilots), SYMBOL_LEN)
        self.n = u.size
        self.whole = self._form(u, a, pilots)
        body = np.r_[CP_LEN:SYMBOL_LEN, SYMBOL_LEN + CP_LEN:2 * SYMBOL_LEN]
        self.body = self._form(u[:, CP_LEN:], a[:, body], pilots[:, body])

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
    """The digital objective, the mean squared wrapped phase error and its
    gradient (``loss_and_grad`` in ``tests/emulation_oracle.py``), and
    ``phase_mse_excluding_cp`` of the waveform ``points @ a + pilots``: the
    same ufuncs on the same operands in buffers allocated once, so every
    float is bit-identical to theirs.  With ``a``'s columns interleaved (Re,
    Im of each sample) the product is the complex waveform's memory.  Signs
    of zero, which pick the phase error (±π or 0) at a zero target sample,
    follow the complex path: ``re + 1j*im`` is ``re + 0*im``, ``im + 0.0``.
    A product's sums start from +0.0 and a sum is -0.0 only when both terms
    are, so ``points @ a + pilots`` holds those signs as it is.
    The metric keeps every body sample's squared error and synthesizes
    again only the rows whose points changed, never one alone: numpy sends
    a one-row product to gemv, which rounds differently from gemm."""

    def __init__(self, target, a, pilots):
        n_rows = len(pilots)
        wave = np.arange(2 * SYMBOL_LEN).reshape(2, -1).T.reshape(-1)
        self.a, self.a_wave, self.pilots_wave = a, a[:, wave].copy(), pilots[:, wave].copy()
        self.conj_target = np.conj(target).reshape(n_rows, SYMBOL_LEN)
        # the body samples: from CP_LEN on, from column 2*CP_LEN interleaved
        self.a_body = self.a_wave[:, 2 * CP_LEN:].copy()
        self.pilots_body = self.pilots_wave[:, 2 * CP_LEN:].copy()
        self.conj_body = self.conj_target[:, CP_LEN:].copy()
        # v: the soft waveform, then the metric's hard rows; g: v*conj(u),
        # then gr, then h, the stacked gradient
        self.v = np.empty((n_rows, SYMBOL_LEN), dtype=np.complex128)
        self.g = np.empty(self.v.size, dtype=np.complex128)
        self.h = self.g.view(np.float64).reshape(n_rows, 2 * SYMBOL_LEN)
        self.e, self.mag2 = np.empty(self.v.size), np.empty(self.v.size)
        # the last metric's points (none yet) and its squared body errors
        self.last, self.e_body = np.full((n_rows, len(a)), np.nan), np.empty(n_rows * N_FFT)

    @staticmethod
    def _synthesize(points, a, pilots, v):
        """``_waveform(points @ a + pilots)`` into the complex ``v``."""
        np.matmul(points, a, out=v.view(np.float64))
        v.view(np.float64)[...] += pilots

    def objective(self, points):
        """The loss and its gradient with respect to ``points``."""
        self._synthesize(points, self.a_wave, self.pilots_wave, self.v)
        v = self.v.reshape(-1)
        p = np.multiply(v, self.conj_target.reshape(-1), out=self.g)
        # np.angle(p), from contiguous copies of its parts in buffers not yet
        # in use: the same floats as from the strided views, in less time
        np.copyto(self.e, p.real)
        np.copyto(self.mag2, p.imag)
        e = np.arctan2(self.mag2, self.e, out=self.e)
        mag2 = np.square(np.abs(v, out=self.mag2), out=self.mag2)
        np.maximum(mag2, MAG2_FLOOR, out=mag2)
        gr = self.h.reshape(-1)[:len(v)]
        loss = float(np.mean(np.square(e, out=gr)))
        e *= 2.0 / len(v)
        np.divide(np.negative(v.imag, out=gr), mag2, out=gr)
        gi = np.divide(v.real, mag2, out=mag2)
        gr *= e
        gi *= e
        re = np.add(gr, np.multiply(gi, 0.0, out=e), out=e)  # Re(gr + 1j*gi)
        gi += 0.0  # Im(gr + 1j*gi)
        h = self.h.reshape(len(self.h), 2, SYMBOL_LEN)
        h[:, 0], h[:, 1] = re.reshape(len(h), -1), gi.reshape(len(h), -1)
        return loss, self.h @ self.a.T

    def metric(self, points) -> float:
        """``phase_mse_excluding_cp`` of the hard waveform of ``points``."""
        changed = (points != self.last).any(axis=1)
        changed[:2] |= np.count_nonzero(changed) < 2  # never one row: gemv rounds unlike gemm
        rows = slice(None) if changed.all() else np.flatnonzero(changed)
        self.last, points = points.copy(), points[rows]
        v = self.v.reshape(-1)[:len(points) * N_FFT].reshape(len(points), N_FFT)
        self._synthesize(points, self.a_body, self.pilots_body[rows], v)
        p = np.multiply(v, self.conj_body[rows], out=v)
        e = np.arctan2(p.imag, p.real, out=self.e[:v.size].reshape(v.shape))
        self.e_body.reshape(-1, N_FFT)[rows] = np.square(e, out=e)
        return float(np.mean(self.e_body))


def train(model: EmulationModel, u, z, cfg) -> TrainResult:
    """Adam on the quantizer scales, tau annealed geometrically.

    ``(u, z)`` is ``model.normalize`` of the target: the normalized waveform
    and its raw (S, m) target bins.  ``cfg``, a ``sim.ExperimentConfig``,
    gives ``epochs``, ``learning_rate``, ``tau_start``/``tau_decay``/
    ``tau_floor`` and the objective, ``emulation_mode``: the fit on
    ``fused_tail``'s map of the points (``fit_loss_and_grad`` and
    ``selection_metric`` in ``tests/emulation_oracle.py``) is ``_PhaseFit``,
    or in analog mode ``_GainFreeFit`` on the symbols ``kept_symbols`` keeps
    (a floored symbol's samples would be the whole objective).  Each epoch
    runs the scale and the soft quantizer forward and backward; the hard
    metric is scored again only when the decisions change, and ``_PhaseFit``
    synthesizes only the changed rows.  Epoch 0, with scales at 1+0j, scores
    the plain nearest-point quantization, and the kept scales are the best
    epoch's, so the result is never worse.  Deterministic; the scale's and
    quantizer's per-frame arrays are released on return.
    """
    u = np.asarray(u, dtype=np.complex128)
    if len(u) != SYMBOL_LEN * len(z):
        raise DimensionError(f"target of {len(u)} samples for {len(z)} symbols of bins")

    if cfg.emulation_mode not in EMULATION_MODES:
        raise ConfigError(f"unknown emulation_mode {cfg.emulation_mode!r}")
    analog = cfg.emulation_mode == "analog"
    rows = kept_symbols(z) if analog else np.ones(len(z), dtype=bool)
    fit_class = _GainFreeFit if analog else _PhaseFit
    bins = model._bins(u)[rows]
    a, pilots = fused_tail(model, len(z))
    fit = fit_class(u.reshape(-1, SYMBOL_LEN)[rows].reshape(-1), a, pilots[rows])

    sc, quantize = model.scale, model.quantize
    mom, vel = np.zeros_like(sc.s), np.zeros_like(sc.s)
    result = TrainResult()
    best_s = sc.s.copy()
    stale, idx = 0, None

    for epoch in range(cfg.epochs):
        quantize.tau = max(cfg.tau_floor, cfg.tau_start * cfg.tau_decay**epoch)

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
    quantize.tau = float(cfg.tau_floor)
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
        "target_subcarriers": list(model.target_subcarriers),
        "tau": model.quantize.tau,
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
    start = doc.get("start_symbol", 0)
    if type(start) is not int or start != 0:  # a bool or a float compares equal to 0
        raise ConfigError(f"model_file {path}: start_symbol must be 0 (the transmitter's "
                          f"first pilot symbol), got {start!r}")
    if not isinstance(doc.get("constellation"), str):
        raise bad("constellation", "a modulation name")
    try:
        constellation(doc["constellation"])
    except ConfigError as e:
        raise ConfigError(f"model_file {path}: key constellation: {e}")
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
        model = EmulationModel(doc["constellation"], subs)
    except ConfigError as e:
        raise ConfigError(f"model_file {path}: key target_subcarriers: {e}")
    model.scale.set_scale(np.array(doc["scales_re"], dtype=np.float64)
                          + 1j * np.array(doc["scales_im"], dtype=np.float64))
    model.quantize.tau = float(doc["tau"])
    return model
