"""Reference DSP primitives: 64-point DFT/IDFT, frequency shift and AWGN.

Everything here is a plain realization of the defining formulas; the
trainable emulation layers are validated against this module.  ``dft`` and
``idft`` run numpy's FFT, which computes the same unnormalized pair as the
``DFT_BASIS``/``IDFT_BASIS`` matrices without a BLAS product per call.

Conventions
-----------
* 64-bin arrays are in plain DFT order, the order ``dft`` returns and
  ``idft`` reads: bin ``k`` is subcarrier ``k`` for ``k < 32`` and ``k - 64``
  above (``wifi.columns`` maps subcarriers to columns).
* The DFT is unnormalized, ``X[k] = sum_n x[n] exp(-j 2 pi n k / N)``; the
  IDFT carries the ``1/N`` factor.  With this pairing the time-domain MSE of
  two signals equals ``(1/N^2) sum |U[k]-V[k]|^2`` exactly (Parseval).
* Randomness comes from an explicit :func:`make_rng` generator (PCG64 with a
  64-bit seed); the same seed always produces the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError, DomainError

N_FFT = 64

# Unnormalized DFT basis and its 1/N inverse, precomputed once.
_k = np.arange(N_FFT)
DFT_BASIS = np.exp(-2j * np.pi * np.outer(_k, _k) / N_FFT)
IDFT_BASIS = np.exp(2j * np.pi * np.outer(_k, _k) / N_FFT) / N_FFT
del _k


@dataclass(frozen=True)
class ComplexSignal:
    """Sampled complex baseband IQ with a sample rate.

    The samples array is treated as immutable by every consumer in this
    package; operations always return new signals.  A strided view is
    stored as a C-contiguous copy.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128, order="C")
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate_hz > 0:
            raise DomainError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if samples.ndim != 1:
            raise DimensionError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise DomainError("samples contain NaN or Inf")

    def __len__(self):
        return len(self.samples)

    @cached_property
    def power(self) -> float:
        """Mean of |s[n]|^2; ``DimensionError`` for an empty signal.  Computed
        once per signal, since the samples never change."""
        if not len(self.samples):
            raise DimensionError("power needs a non-empty signal")
        return float(np.mean(np.abs(self.samples) ** 2))


def make_rng(seed, *spawn_key) -> np.random.Generator:
    """Deterministic generator: PCG64 seeded through a SeedSequence.

    Extra integers extend the seed so independent streams can be derived
    from one experiment seed (e.g. per trial) without correlation.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def dft(block) -> np.ndarray:
    """64-point DFT, ``X[k] = sum_n x[n] exp(-j 2 pi n k / 64)``."""
    block = np.asarray(block, dtype=np.complex128)
    if block.shape != (N_FFT,):
        raise DimensionError(f"dft expects {N_FFT} samples, got shape {block.shape}")
    return np.fft.fft(block)


def idft(bins) -> np.ndarray:
    """64-point inverse DFT, ``x[n] = (1/64) sum_k X[k] exp(j 2 pi n k / 64)``."""
    bins = np.asarray(bins, dtype=np.complex128)
    if bins.shape != (N_FFT,):
        raise DimensionError(f"idft expects {N_FFT} bins, got shape {bins.shape}")
    return np.fft.ifft(bins)


@lru_cache(maxsize=8)
def _rotation(length: int, delta_f_hz: float, fs_hz: float) -> np.ndarray:
    # channel trials shift same-length signals by the same offset, so the
    # exp runs once per (length, offset, rate); read-only because shared
    n = np.arange(length)
    rot = np.exp(2j * np.pi * delta_f_hz * n / fs_hz)
    rot.flags.writeable = False
    return rot


def frequency_shift(sig: ComplexSignal, delta_f_hz: float) -> ComplexSignal:
    """Multiply by a complex exponential: ``out[n] = s[n] exp(j 2 pi df n / fs)``."""
    rot = _rotation(len(sig.samples), delta_f_hz, sig.sample_rate_hz)
    return ComplexSignal(sig.samples * rot, sig.sample_rate_hz)


def awgn(sig: ComplexSignal, snr_db: float, rng: np.random.Generator) -> ComplexSignal:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    ``snr_db = +inf`` is the noise-disabled sentinel and returns the signal
    unchanged, as an empty signal is returned; NaN and ``-inf`` raise a
    ``DomainError``, and so does an ``snr_db`` whose noise variance
    ``signal_power / 10^(snr_db/10)`` is beyond the float range.  That variance is split evenly between the real
    and imaginary parts; where the mean power of a nonzero signal underflows,
    it is taken relative to the signal's peak magnitude.  The noise is
    ``rng.standard_normal(n)`` for the real parts, then another
    ``rng.standard_normal(n)`` for the imaginary parts, each times
    ``sqrt(var / 2)``: bit for bit the samples of ``(re + 1j im) *
    sqrt(var / 2)``, built in place.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise DomainError(f"snr_db must be a number of dB or +inf, got {snr_db}")
    if snr_db == math.inf or not len(sig.samples):
        return ComplexSignal(sig.samples.copy(), sig.sample_rate_hz)
    p, unit = sig.power, 1.0
    if p == 0.0:
        unit = float(np.max(np.abs(sig.samples)))
        if unit == 0.0:
            raise DomainError("awgn requires a signal with nonzero power")
        p = float(np.mean(np.abs(sig.samples / unit) ** 2))
    try:
        var = p / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        var = math.inf
    if math.isinf(var):
        raise DomainError(f"snr_db out of range for a float noise variance, got {snr_db}")
    n = len(sig.samples)
    scale = unit * math.sqrt(var / 2.0)
    noisy = np.empty(n, dtype=np.complex128)
    draws = np.empty(n)  # the real parts' draws, then the imaginary parts'
    for part in (noisy.real, noisy.imag):
        rng.standard_normal(out=draws)
        np.multiply(draws, scale, out=part)
    noisy += sig.samples
    return ComplexSignal(noisy, sig.sample_rate_hz)
