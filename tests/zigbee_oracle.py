"""Oracle for the ZigBee modem: ``oqpsk_demodulate`` reads the hard chips of
a signal whose chip grid is known, with none of ``decode_frame``'s timing
and quadrant search, so the modem's round-trip tests check the modulator
and the chip sampling alone.
"""

import numpy as np

from crossphy.dsp import ComplexSignal
from crossphy.errors import DomainError
from crossphy.zigbee import RX_FILTER_CUTOFF_HZ, _chip_samples, _samples_per_chip, channel_filter


def oqpsk_demodulate(sig: ComplexSignal, filter_cutoff_hz: float | None = RX_FILTER_CUTOFF_HZ):
    """Per-chip soft scores and hard chip decisions.

    Assumes the transmit chip grid is sample-aligned and unrotated (the
    frame decoder searches timing and rotation; this primitive does not).
    Returns ``(soft, hard)`` where ``hard = soft > 0``.  Scores scale
    linearly with amplitude, so any positive gain leaves decisions intact.
    ``filter_cutoff_hz=None`` skips the channel filter.
    """
    spc = _samples_per_chip(sig.sample_rate_hz)
    if len(sig.samples) < 2 * spc:
        raise DomainError("signal too short for even one chip")
    x = (sig.samples if filter_cutoff_hz is None
         else channel_filter(sig, filter_cutoff_hz).samples)
    n_chips = len(x) // spc
    w = _chip_samples(x, spc, n_chips)
    soft = w.real
    hard = (soft > 0).astype(np.uint8)
    return soft, hard
