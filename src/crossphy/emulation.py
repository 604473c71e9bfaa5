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
An epoch is then the scale, the two per-axis softmaxes of the soft
quantizer and that product, forward and backward.  The quantizer's forward
also yields the epoch's hard decisions, and the hard grid is re-synthesized
and re-scored only in epochs whose decisions differ from the previous
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
        idx = self.quantize.hard_indices(self.scale.forward(self._bins(u)))
        self.scale.release()
        return idx

    def export_scales(self) -> np.ndarray:
        """Per-subcarrier complex scales applied after the per-symbol max-abs
        normalization, as ``decide`` applies them."""
        return self.scale.scale.copy()

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

def loss(output, target, mode: str) -> float:
    """analog: mean |u-v|^2 over samples; digital: mean wrapped-phase-diff^2."""
    return loss_and_grad(output, target, mode)[0]


def loss_and_grad(output, target, mode: str, eps: float = 1e-12):
    """Loss plus its gradient with respect to the (complex) output.

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
        e = np.angle(v * np.conj(u))
        mag2 = np.maximum(np.abs(v) ** 2, eps)
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
    in analog mode, the phase loss of ``loss_and_grad`` in digital mode."""
    if mode == "analog":
        return gain_free_loss_and_grad(output, target)
    return loss_and_grad(output, target, mode)


def selection_metric(output, target, mode: str) -> float:
    """Hard-reconstruction quality used to pick the best training epoch:
    the gain-free body error in analog mode, the body phase MSE in digital
    mode."""
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

    The fixed prefix runs once on ``u``, and the fixed tail runs as
    ``fused_tail``'s one product, for the soft waveform and the hard one
    alike.  Every epoch runs the scale and the soft quantizer forward and
    backward; the quantizer's forward gives the nearest points to the
    scaled bins, and the hard reconstruction and its metric are recomputed
    only when those decisions differ from the previous epoch's (otherwise
    the metric is the same number).  The kept scales are the best epoch's
    by the metric, so the result is never worse than that baseline.
    Deterministic for a fixed config: no randomness enters the updates.
    The scale's and quantizer's per-frame arrays are released on return.
    """
    u = np.asarray(u, dtype=np.complex128)
    if len(u) != SYMBOL_LEN * len(z):
        raise DimensionError(f"target of {len(u)} samples for {len(z)} symbols of bins")

    rows = kept_symbols(z) if model.mode == "analog" else np.ones(len(z), dtype=bool)
    bins = model._bins(u)[rows]
    target = u.reshape(-1, SYMBOL_LEN)[rows].reshape(-1)
    a, pilots = fused_tail(model, len(z))
    pilots = pilots[rows]

    sc, quantize = model.scale, model.quantize
    mom = np.zeros_like(sc.s)
    vel = np.zeros_like(sc.s)
    result = TrainResult()
    best_s = sc.s.copy()
    stale = 0
    t = 0
    idx = None

    for epoch in range(cfg.epochs):
        model.tau = max(cfg.tau_floor, cfg.tau_start * cfg.tau_decay**epoch)

        v_soft = _waveform(quantize.forward(sc.forward(bins)) @ a + pilots)
        soft_loss, g = fit_loss_and_grad(v_soft, target, model.mode)
        if not math.isfinite(soft_loss):
            raise DomainError(f"non-finite training loss at epoch {epoch}: {soft_loss}")
        sc.backward(quantize.backward(stack_complex(g.reshape(-1, SYMBOL_LEN)) @ a.T))

        # the hard grid, and so its metric, changes only with the decisions
        if idx is None or not np.array_equal(quantize.decisions, idx):
            idx = quantize.decisions
            v_hard = _waveform(stack_complex(model.const.points[idx]) @ a + pilots)
            metric = selection_metric(v_hard, target, model.mode)
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

        t += 1
        mom = ADAM_BETA1 * mom + (1 - ADAM_BETA1) * sc.grad
        vel = ADAM_BETA2 * vel + (1 - ADAM_BETA2) * sc.grad**2
        m_hat = mom / (1 - ADAM_BETA1**t)
        v_hat = vel / (1 - ADAM_BETA2**t)
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
    for key in ("scales_re", "scales_im"):
        v = doc.get(key)
        if not (isinstance(v, list) and len(v) == len(subs) and all(map(_finite_number, v))):
            raise bad(key, f"{len(subs)} finite numbers, one per target subcarrier")
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
