"""cf32 IQ file I/O.

The on-disk format is the plain SDR interchange convention: interleaved
32-bit little-endian IEEE-754 floats, I then Q for every sample, no header.
The sample rate travels in sidecar metadata (config / metrics files), not in
the file itself.
"""

from __future__ import annotations

import numpy as np

from .dsp import ComplexSignal
from .errors import DimensionError


def write_cf32(path, sig: ComplexSignal) -> None:
    """Write samples as interleaved little-endian float32 I/Q pairs."""
    flat = np.empty(2 * len(sig.samples), dtype="<f4")
    flat[0::2] = sig.samples.real
    flat[1::2] = sig.samples.imag
    flat.tofile(path)


def read_cf32(path, sample_rate_hz: float) -> ComplexSignal:
    """Read interleaved float32 I/Q pairs; the caller supplies the rate.

    The byte count must be a multiple of 8 (one I/Q pair); an empty file
    is zero samples.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % 8 != 0:
        raise DimensionError(f"{path}: {len(raw)} bytes is not a whole number of "
                             f"8-byte I/Q pairs, not valid cf32")
    flat = np.frombuffer(raw, dtype="<f4")
    samples = flat[0::2].astype(np.float64) + 1j * flat[1::2].astype(np.float64)
    return ComplexSignal(samples, sample_rate_hz)
