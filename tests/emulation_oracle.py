"""Oracles for ``emulation.train``.

``train`` computes its objectives and metrics at the constellation points
(``_GainFreeFit``, ``_PhaseFit``) and never synthesizes a waveform in
analog mode.  These are the same quantities in waveform form, the
specification the fits are checked against: ``loss_and_grad`` (the plain
time-domain MSE and the digital phase loss), the gain-free analog
objective and metric, and ``fit_loss_and_grad`` and ``selection_metric``,
which pick between them by mode as ``train`` does.
``build_passthrough_autoencoder`` is the quantizer-free layer stack that
isolates the cyclic prefix.
"""

import numpy as np

from crossphy.diffblocks import (
    Sequential,
    cp_add_layer,
    cp_remove_layer,
    dft_layer,
    idft_layer,
)
from crossphy.emulation import MAG2_FLOOR, body_mask, phase_mse_excluding_cp
from crossphy.errors import ConfigError, DimensionError


def build_passthrough_autoencoder() -> Sequential:
    """Validation stack: CP-remove, DFT, IDFT, CP-add with no quantizer and
    all 64 bins kept.  Isolates the cyclic-prefix contribution: the body of
    every 80-sample block is reproduced exactly and each prefix region maps
    to the block's tail."""
    return Sequential([cp_remove_layer(), dft_layer(), idft_layer(), cp_add_layer()])


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
