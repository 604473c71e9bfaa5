"""Oracles for the ZigBee modem.

``oqpsk_demodulate`` reads the hard chips of a signal whose chip grid is
known, with none of ``decode_frame``'s timing and quadrant search, so the
modem's round-trip tests check the modulator and the chip sampling alone.
``gather_hard_halves`` and ``loop_sync_search`` are the receiver's hard
chips and sync search written the slow, direct way.
"""

import numpy as np

from crossphy import zigbee
from crossphy.dsp import ComplexSignal
from crossphy.errors import DomainError
from crossphy.zigbee import _chip_samples, _samples_per_chip, channel_filter


def oqpsk_demodulate(sig: ComplexSignal, prefiltered: bool = False):
    """Per-chip soft scores and hard chip decisions.

    Assumes the transmit chip grid is sample-aligned and unrotated (the
    frame decoder searches timing and rotation; this primitive does not).
    Returns ``(soft, hard)`` where ``hard = soft > 0``.  Scores scale
    linearly with amplitude, so any positive gain leaves decisions intact.
    ``prefiltered`` skips the channel filter.
    """
    spc = _samples_per_chip(sig.sample_rate_hz)
    if len(sig.samples) < 2 * spc:
        raise DomainError("signal too short for even one chip")
    x = sig.samples if prefiltered else channel_filter(sig).samples
    n_chips = len(x) // spc
    w = _chip_samples(x, spc, n_chips)
    soft = w.real
    hard = (soft > 0).astype(np.uint8)
    return soft, hard


def gather_hard_halves(x, spc, n_half):
    """``zigbee._hard_halves`` as an index gather of the derotated chip
    samples: the reference the view-based version must equal."""
    chips = zigbee._chip_samples(x, spc, 2 * n_half, offset=np.arange(spc)[:, None])
    hard = np.stack([chips.real >= 0, chips.imag >= 0], axis=1)
    hard = np.ascontiguousarray(hard.reshape(spc, 2, n_half, 2).swapaxes(2, 3))
    return np.where(hard, 1.0, -1.0)


def loop_sync_search(x, spc):
    """The sync search as one direct correlation per (offset, rail,
    pattern), keeping the first strict maximum: the reference that
    ``zigbee._sync_search`` must match exactly.

    Returns ``(best, peaks)``: ``best`` in ``_sync_search``'s format and
    the peak ``|corr|`` of every correlation, in search order.
    """
    pattern = zigbee._sync_pattern()
    n_pat = len(pattern)
    alt = np.where(np.arange(n_pat) % 2 == 0, 1.0, -1.0)
    best = None  # (corr_mag, corr_signed, offset, lag, use_imag, alternated)
    peaks = []
    for off in range(spc):
        n_chips = max(0, -((off - len(x)) // spc))  # ceil; tail chip clamps
        if n_chips < n_pat:
            continue
        w = zigbee._chip_samples(x, spc, n_chips, offset=off)
        for use_imag, stream in ((False, np.sign(w.real)), (True, np.sign(w.imag))):
            stream = np.where(stream == 0, 1.0, stream)
            for alternated, pat in ((False, pattern), (True, pattern * alt)):
                corr = np.correlate(stream, pat) / n_pat
                # pattern parity must match lag parity (I/Q lattice)
                lag0 = 1 if alternated else 0
                if len(corr) <= lag0:
                    continue
                sub = corr[lag0::2]
                i = int(np.argmax(np.abs(sub)))
                lag = lag0 + 2 * i
                c = float(sub[i])
                peaks.append(abs(c))
                if best is None or abs(c) > best[0]:
                    best = (abs(c), c, off, lag, use_imag, alternated)
    return (None if best is None else best[1:]), peaks
