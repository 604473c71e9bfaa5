"""Reference DSP primitives: the 64-point DFT pair, frequency shift and AWGN.

Everything here is a plain realization of the defining formulas.  The
module's DFT pair is the ``DFT_BASIS``/``IDFT_BASIS`` matrices, which
``wifi.synthesize``, ``wifi.ofdm_analyze`` and the ``diffblocks`` DFT layers
run; the tests check the pair against numpy's FFT.

Conventions
-----------
* 64-bin arrays are in plain DFT order, the order ``DFT_BASIS`` returns and
  ``IDFT_BASIS`` reads: bin ``k`` is subcarrier ``k`` for ``k < 32`` and
  ``k - 64`` above (``wifi.columns`` maps subcarriers to columns).
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
    package; operations always return new signals, over a ``WorkArrays``'
    memory when given one.  A strided view is stored as a C-contiguous copy.
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
        # NaN propagates through max and min, and +-inf is the max or min, so
        # two reductions check every part without an n-sized temporary
        parts = samples.view(np.float64)
        if len(parts) and not (math.isfinite(parts.max()) and math.isfinite(parts.min())):
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


class WorkArrays:
    """Three flat float64 regions that one thread's channel trials
    (``awgn``, ``zigbee.channel_filter``, ``zigbee.decode_frame``) write
    their large arrays into, so that trial after trial reuses the same
    memory instead of allocating, and faulting in, a dozen frame-sized
    arrays.

    Arrays whose lifetimes do not overlap share a region: region 0 holds
    the noisy signal, then the filter's spectra, then the filtered signal,
    which the decoder reads to the end; region 1 the noise draws, then the
    filter's padded parts and, over them, its inverse FFT blocks, then the
    sync search's hard chips, then its doubling scratch and its 32-chip
    words; region 2 the sync search's sign comparisons, then its 16-chip
    windows, then its pattern differences, bit counts and scores.  A
    region grows to the largest size asked of it, in whole float64s
    whatever the dtype.  A signal returned over this memory is valid only
    until the next call given the same object, and one object serves one
    thread.
    """

    def __init__(self):
        self._regions = [np.empty(0)] * 3

    def empty(self, region: int, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous array over the start of ``region``."""
        size = math.prod(shape)
        n = -(-size * np.dtype(dtype).itemsize // 8)  # whole float64s
        if len(self._regions[region]) < n:
            self._regions[region] = np.empty(n)
        return self._regions[region][:n].view(dtype)[:size].reshape(shape)


def work_empty(work: WorkArrays | None, region: int, shape, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)``, or, given ``work``, the same array over
    the start of one of its regions."""
    return np.empty(shape, dtype) if work is None else work.empty(region, shape, dtype)


def make_rng(seed, *spawn_key) -> np.random.Generator:
    """Deterministic generator: PCG64 seeded through a SeedSequence.

    Extra integers extend the seed so independent streams can be derived
    from one experiment seed (e.g. per trial) without correlation.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


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


def awgn(sig: ComplexSignal, snr_db: float, rng: np.random.Generator,
         work: WorkArrays | None = None) -> ComplexSignal:
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
    sqrt(var / 2)``, built in place: in ``work``'s memory when given
    (valid until its next use), else in a new array.
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
    noisy = work_empty(work, 0, (n,), np.complex128)
    draws = work_empty(work, 1, (n,))  # the real parts' draws, then the imaginary parts'
    for part in (noisy.real, noisy.imag):
        rng.standard_normal(out=draws)
        np.multiply(draws, scale, out=part)
    noisy += sig.samples
    return ComplexSignal(noisy, sig.sample_rate_hz)
