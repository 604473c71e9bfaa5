"""Software IEEE 802.15.4 2.4 GHz O-QPSK/DSSS modem.

Transmit side: PPDU framing (preamble + SFD + length + payload, all
LS-nibble first), 4-bit symbol to 32-chip spreading, half-sine O-QPSK at
2 Mchip/s.  Receive side: a channel-selection low-pass, per-chip phase
sampling on the MSK lattice, preamble/SFD synchronization with timing and
quadrant-ambiguity search, and chip-correlation symbol decisions.

The channel filter is an overlap-save FFT convolution: the zero-padded
real and imaginary parts are cut into overlapping blocks of ``B`` samples,
where ``B`` is the fast FFT length at or above ``8 (taps - 1)`` (1,024 at
20 MHz), and one batched real FFT multiplies every block by the cached tap
spectrum.  Its samples differ from a direct convolution by about 1e-15 of
the signal scale.  The receiver reads only their signs at chip peaks, which
sit far from zero in any decodable frame, and a part that is all zero stays
exactly zero, so no decision moves.

The sync search correlates the hard-chip streams of every timing offset
and both rails with the 320-chip preamble+SFD pattern in one real-FFT
pass.  Each correlation is a sum of 320 products of +-1, an integer, and
the FFT's rounding error is around 1e-12, so rounding the FFT output to the
nearest integer gives exactly the values a direct correlation would.

The chip sequences are transcribed from the 2450 MHz O-QPSK symbol-to-chip
table of IEEE Std 802.15.4 (Table 12-1 in the 2020 revision), chip c0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import ComplexSignal
from .errors import ConfigError, DimensionError, DomainError

CHIP_RATE_HZ = 2e6
CHIPS_PER_SYMBOL = 32
MAX_PAYLOAD_BYTES = 127

_CHIP_TABLE_STR = (
    "11011001110000110101001000101110",
    "11101101100111000011010100100010",
    "00101110110110011100001101010010",
    "00100010111011011001110000110101",
    "01010010001011101101100111000011",
    "00110101001000101110110110011100",
    "11000011010100100010111011011001",
    "10011100001101010010001011101101",
    "10001100100101100000011101111011",
    "10111000110010010110000001110111",
    "01111011100011001001011000000111",
    "01110111101110001100100101100000",
    "00000111011110111000110010010110",
    "01100000011101111011100011001001",
    "10010110000001110111101110001100",
    "11001001011000000111011110111000",
)
CHIP_TABLE = np.array([[int(c) for c in row] for row in _CHIP_TABLE_STR], dtype=np.uint8)
# +-1 view used by the correlation demapper
_CHIP_TABLE_PM = 2.0 * CHIP_TABLE.astype(np.float64) - 1.0

PREAMBLE_SYMBOLS = (0,) * 8
SFD_SYMBOLS = (0x7, 0xA)  # byte 0xA7, LS nibble first
SYNC_SYMBOLS = PREAMBLE_SYMBOLS + SFD_SYMBOLS
SYNC_CHIPS = CHIPS_PER_SYMBOL * len(SYNC_SYMBOLS)  # 320

# Receiver defaults, calibrated at the bench: the low-pass keeps the chip
# main lobe while rejecting energy on out-of-channel OFDM subcarriers; the
# sync threshold sits far above the noise-only correlation floor (~0.06 rms
# over 320 chips) and below the correlation of heavily distorted but still
# decodable emulated frames (~0.72).
RX_FILTER_CUTOFF_HZ = 1.0e6
SYNC_THRESHOLD = 0.5


def bytes_to_symbols(data: bytes) -> np.ndarray:
    """Bytes to 4-bit symbols, LS nibble first."""
    out = np.empty(2 * len(data), dtype=np.int64)
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    out[0::2] = arr & 0xF
    out[1::2] = arr >> 4
    return out


def symbols_to_bytes(symbols) -> bytes:
    symbols = np.asarray(symbols, dtype=np.int64)
    if len(symbols) % 2 != 0:
        raise DimensionError("need an even number of nibble symbols")
    lo = symbols[0::2]
    hi = symbols[1::2]
    return bytes(((hi << 4) | lo).astype(np.uint8).tolist())


def build_frame(payload: bytes) -> np.ndarray:
    """Full PPDU symbol sequence for a payload (<= 127 bytes): 8-symbol
    preamble, SFD 0xA7, length byte, payload."""
    payload = bytes(payload)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise DomainError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD_BYTES}")
    header = np.array(SYNC_SYMBOLS + (len(payload) & 0xF, len(payload) >> 4))
    return np.concatenate([header, bytes_to_symbols(payload)])


def symbols_to_chips(symbols) -> np.ndarray:
    """Spread each 4-bit symbol to its 32-chip PN sequence."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() > 15):
        raise DomainError("symbol values must be in [0, 15]")
    return CHIP_TABLE[symbols].reshape(-1)


def _samples_per_chip(fs_hz: float) -> int:
    spc = fs_hz / CHIP_RATE_HZ
    if abs(spc - round(spc)) > 1e-9 or round(spc) < 2:
        raise ConfigError(f"sample rate {fs_hz} is not an integer multiple of {CHIP_RATE_HZ}")
    return int(round(spc))


def oqpsk_modulate(chips, fs_hz: float = 20e6) -> ComplexSignal:
    """Half-sine O-QPSK: even chips on I, odd chips on Q, Q offset by half
    a pulse (one chip period).

    Each pulse is ``sin(pi t / (2 Tc))`` over two chip periods, peak 1, so
    the chip value can be read off the I or Q rail at the pulse peak.
    Output length is exactly ``len(chips) * fs / chip_rate`` samples; the
    trailing half of the final Q pulse is truncated.
    """
    chips = np.asarray(chips, dtype=np.int64)
    if chips.size and (chips.min() < 0 or chips.max() > 1):
        raise DomainError("chips must be 0/1")
    spc = _samples_per_chip(fs_hz)
    pm = 2.0 * chips - 1.0
    n = len(chips)
    n_even = (n + 1) // 2
    n_odd = n // 2
    pulse = np.sin(np.pi * np.arange(2 * spc) / (2 * spc))
    out = np.zeros(n * spc, dtype=np.complex128)
    re = np.outer(pm[0::2], pulse).ravel()
    out.real = re[: n * spc]
    if n_odd:
        im = np.outer(pm[1::2], pulse).ravel()
        out[spc:] += 1j * im[: n * spc - spc]
    return ComplexSignal(out, fs_hz)


@lru_cache(maxsize=8)
def _rx_taps(fs_hz: float, cutoff_hz: float) -> np.ndarray:
    """Hamming-windowed-sinc low-pass with unit DC gain.

    The floating-point steps are those of ``scipy.signal.firwin(n,
    cutoff_hz, fs=fs_hz)``, so the taps are the same floats: the ideal
    low-pass ``f sinc(f m)`` at ``f = cutoff / (fs/2)``, times the symmetric
    Hamming window accumulated as ``0.54 + (1 - 0.54) cos`` (``1 - 0.54`` is
    not the float ``0.46``), divided by its sum (the response at DC).
    """
    f = cutoff_hz / (0.5 * fs_hz)
    if not 0 < f < 1:
        raise DomainError(f"filter cutoff {cutoff_hz} Hz must lie strictly between 0 and "
                          f"half the sample rate, {0.5 * fs_hz} Hz")
    # ~6.4 us span regardless of rate; odd length keeps zero group delay
    n = int(round(129 * fs_hz / 20e6))
    n += 1 - n % 2
    m = np.arange(n, dtype=np.float64) - 0.5 * (n - 1)
    h = f * np.sinc(f * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n))
    h /= np.sum(h)
    return h


@lru_cache(maxsize=8)
def _rx_blocks(fs_hz: float, cutoff_hz: float) -> tuple[int, int, np.ndarray]:
    """``(block, overlap, spectrum)`` of the overlap-save channel filter.

    ``overlap`` is ``len(_rx_taps) - 1``, and ``block`` the fast FFT length
    at or above ``8 overlap`` (1,024 at 20 MHz), so about 7/8 of every block
    is new output whatever the sample rate.  ``spectrum`` is the real FFT of
    the taps over one block, read-only because shared.
    """
    taps = _rx_taps(fs_hz, cutoff_hz)
    overlap = len(taps) - 1
    block = _next_fast_len(max(1, 8 * overlap))
    spectrum = rfft(taps, block)
    spectrum.flags.writeable = False
    return block, overlap, spectrum


def channel_filter(sig: ComplexSignal, cutoff_hz: float = RX_FILTER_CUTOFF_HZ) -> ComplexSignal:
    """Receiver channel-selection low-pass (zero-delay symmetric FIR).

    Returns the centred ``len(sig)`` samples of the full convolution with
    ``_rx_taps`` for every input length, the empty signal included.  The
    convolution runs as overlap-save on the real and imaginary parts: each,
    with ``overlap / 2`` zeros before it and zeros after, is cut into blocks
    that overlap by ``overlap`` samples (see ``_rx_blocks``), and the
    circular convolution of a block keeps its last ``block - overlap``
    samples, the ones no wrap-around reaches.  The samples match the direct
    sums to about 1e-15 of ``sum|taps| max|x|``, far below the chip-peak
    amplitudes whose signs the receiver reads, and a part that is all zero
    stays exactly zero, as it does in the direct sums.
    """
    block, overlap, spectrum = _rx_blocks(sig.sample_rate_hz, cutoff_hz)
    x = sig.samples
    # the unnormalized FFT sums reach block^2 times the largest sample, so
    # the FFTs run at a power-of-two scale near 1: that changes no rounding
    # above the subnormals, and only an output past the float range overflows
    peak = np.max(np.abs(x.view(np.float64)), initial=0.0)
    scale = 2.0 ** min(max(math.frexp(peak)[1], -1000), 1000)
    step = block - overlap
    padded = np.zeros((2, (len(x) // step + 1) * step + overlap))
    np.multiply(x.real, 1.0 / scale, out=padded[0, overlap // 2 : overlap // 2 + len(x)])
    np.multiply(x.imag, 1.0 / scale, out=padded[1, overlap // 2 : overlap // 2 + len(x)])
    spectra = rfft(sliding_window_view(padded, block, axis=-1)[:, ::step])
    del padded  # each work array goes before the next is allocated
    spectra *= spectrum
    y = irfft(spectra, block)[..., overlap:]
    del spectra
    out = np.empty(y.shape[1:], dtype=np.complex128)
    np.multiply(y[0], scale, out=out.real)
    np.multiply(y[1], scale, out=out.imag)
    return ComplexSignal(out.reshape(-1)[: len(x)], sig.sample_rate_hz)


def _chip_samples(samples: np.ndarray, spc: int, n_chips: int,
                  offset: int | np.ndarray = 0) -> np.ndarray:
    """Complex values at the chip pulse peaks, derotated onto one rail.

    Chip ``k`` peaks at sample ``offset + (k+1)*spc``; even chips lie on the
    I axis and odd chips on Q, so multiplying by ``(-j)^(k mod 2)`` folds
    both onto the real axis (up to the O-QPSK quadrant ambiguity).  Chips
    past the end read the last sample.  An ``offset`` column of shape
    ``(k, 1)`` gives one row of ``n_chips`` values per offset.
    """
    idx = np.minimum(offset + (np.arange(n_chips) + 1) * spc, len(samples) - 1)
    u = samples[idx]
    rot = np.ones(n_chips, dtype=np.complex128)
    rot[1::2] = -1j
    return u * rot


@dataclass
class DecodeResult:
    detected: bool
    payload: bytes | None
    ser: float
    chip_error_rate: float
    sync_corr: float = 0.0
    start_chip: int = -1


def _sync_pattern() -> np.ndarray:
    return 2.0 * symbols_to_chips(np.array(SYNC_SYMBOLS)) - 1.0


@lru_cache(maxsize=8)
def _sync_spectra(n_fft: int) -> np.ndarray:
    """Spectral weights ``(parity, chip phase, bin)`` of the sync search.

    Split a hard-chip stream into its even chips ``e`` and odd chips ``o``,
    and the pattern into ``pe`` and ``po``.  At even lag ``2m`` the plain
    pattern scores ``sum_i e[m+i] pe[i] + o[m+i] po[i]``; at odd lag
    ``2m+1`` the alternated pattern (odd chips negated) scores
    ``sum_i o[m+i] pe[i] - e[m+1+i] po[i]``.  Both are sums of half-length
    correlations, so they come from the spectra of ``e`` and ``o`` times
    these conjugate pattern spectra; the phase ramp is the one-chip
    advance of ``e``.
    """
    pattern = _sync_pattern()
    pe, po = np.conj(rfft(np.stack([pattern[0::2], pattern[1::2]]), n_fft))
    advance = np.exp(2j * np.pi * np.arange(len(pe)) / n_fft)
    spectra = np.array([[pe, po], [-po * advance, pe]])
    spectra.flags.writeable = False
    return spectra


@lru_cache(maxsize=8)
def _next_fast_len(n: int) -> int:
    """The smallest ``2^a 3^b 5^c >= n``: a length the real FFT runs fast
    on (``scipy.fft.next_fast_len(n, real=True)``)."""
    best = 1 << (n - 1).bit_length()  # n >= 1
    odd = 1  # 3^b 5^c
    while odd < best:
        factor = odd
        while factor < best:
            # the smallest power-of-two multiple of factor that reaches n
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def _hard_halves(x: np.ndarray, spc: int, n_half: int) -> np.ndarray:
    """Hard chips of every timing offset as +-1 (``sign``, with 0 -> +1).

    Axes are ``(offset, rail, phase, i)`` for chip ``2i + phase`` of the
    real (rail 0) or imaginary (rail 1) part of the derotated chip samples
    (see ``_chip_samples``).  The array is C-contiguous, which keeps the FFT
    over ``i`` fast.

    Chip ``k`` of offset ``o`` is sample ``(k+1) spc + o``, so the chips of
    all offsets are the samples from ``spc`` on, read as ``(i, phase,
    offset, re/im)`` floats with no copy; the few past the end read the
    last sample.  Derotating by ``(-j)^k`` only picks a part: even chips
    read (re, im) and odd chips (im, -re), so rail 1 of an odd chip is
    ``re <= 0``.
    """
    out = np.empty((spc, 2, 2, n_half))
    row = 2 * spc  # samples per i
    n_inside = max(0, min(n_half, (len(x) - spc) // row))
    tail = np.full((n_half - n_inside) * row, x[-1])
    rest = x[spc + n_inside * row : spc + n_half * row]
    tail[: len(rest)] = rest
    for cols, chips in ((slice(None, n_inside), x[spc : spc + n_inside * row]),
                        (slice(n_inside, None), tail)):
        v = chips.view(np.float64).reshape(-1, 2, spc, 2).transpose(2, 1, 3, 0)
        o = out[..., cols]
        o[:, 0, 0] = np.where(v[:, 0, 0] >= 0, 1.0, -1.0)
        o[:, 1, 0] = np.where(v[:, 0, 1] >= 0, 1.0, -1.0)
        o[:, 0, 1] = np.where(v[:, 1, 1] >= 0, 1.0, -1.0)
        o[:, 1, 1] = np.where(v[:, 1, 0] <= 0, 1.0, -1.0)
    return out


def _sync_search(x: np.ndarray, spc: int):
    """Best preamble+SFD match of the filtered samples ``x``.

    Searches every timing offset in one chip period, both chip rails and
    both pattern parities: the plain pattern at even lags, the alternated
    one at odd lags (the I/Q lattice).  All ``(offset, rail, parity,
    lag // 2)`` correlations come from one real-FFT pass over the hard
    chips (see ``_sync_spectra``), rounded to the integers they are and
    divided by the pattern length.

    Returns ``(corr, offset, lag, use_imag, alternated)`` for the largest
    ``|corr|``, the first in ``(offset, rail, parity, lag)`` order on ties,
    or None when no offset holds a full pattern of chips.
    """
    n_chips = -((np.arange(spc) - len(x)) // spc)  # per offset; ceil, tail chip clamps
    if n_chips[0] < SYNC_CHIPS:
        return None
    # offsets may hold one chip fewer than offset 0; chips past an offset's
    # own count read the clamped last sample and only enter masked lags
    n_half = (int(n_chips[0]) + 1) // 2
    last = (n_chips[:, None] - SYNC_CHIPS - np.arange(2)) // 2  # last valid m per parity
    n_fft = _next_fast_len(n_half)
    # (offset, rail, parity, m) for lag 2m + parity
    corr = irfft(np.einsum("orcb,pcb->orpb", rfft(_hard_halves(x, spc, n_half), n_fft),
                           _sync_spectra(n_fft)), n_fft)[..., : int(last.max()) + 1]
    np.rint(corr, out=corr)
    score = np.abs(corr)
    np.copyto(score, -1.0, where=np.arange(corr.shape[-1]) > last[:, None, :, None])
    best = int(np.argmax(score))
    off, rail, parity, half_lag = np.unravel_index(best, corr.shape)
    return (float(corr.flat[best]) / SYNC_CHIPS, int(off), int(2 * half_lag + parity),
            bool(rail), bool(parity))


def decode_frame(
    sig: ComplexSignal,
    expected_payload: bytes | None = None,
    filter_cutoff_hz: float | None = RX_FILTER_CUTOFF_HZ,
) -> DecodeResult:
    """Correlate for preamble+SFD, then demap 32-chip windows to symbols.

    The sync search covers sample-level timing (one chip period), the even/
    odd chip-rail pairing, and the four-fold O-QPSK phase ambiguity (I/Q
    rail swap and sign).  It computes all of these hard-chip correlations
    with one real-FFT correlation and rounds them to integers, which makes
    them exactly equal to direct correlation sums (see ``_sync_search``).
    Detection requires the best normalized correlation over the 320-chip
    sync pattern to reach ``SYNC_THRESHOLD``; a signal too short for the
    pattern is not detected and reports ``sync_corr`` 0.  ``ser`` and
    ``chip_error_rate`` are computed against ``expected_payload`` when
    given, else reported as NaN.  Pass ``filter_cutoff_hz=None`` for a
    signal already through ``channel_filter``.
    """
    spc = _samples_per_chip(sig.sample_rate_hz)
    x = (sig.samples if filter_cutoff_hz is None
         else channel_filter(sig, filter_cutoff_hz).samples)
    best = _sync_search(x, spc)
    if best is None or abs(best[0]) < SYNC_THRESHOLD:
        return DecodeResult(False, None, float("nan"), float("nan"),
                            sync_corr=0.0 if best is None else abs(best[0]))

    c, off, lag, use_imag, alternated = best
    n_chips = -((off - len(x)) // spc)
    w = _chip_samples(x, spc, n_chips, offset=off)
    soft = w.imag if use_imag else w.real
    soft = np.sign(c) * soft
    if alternated:
        sgn = np.where((np.arange(n_chips) - lag) % 2 == 0, 1.0, -1.0)
        soft = soft * sgn
    hard = soft > 0

    data_start = lag + SYNC_CHIPS
    avail = (n_chips - data_start) // CHIPS_PER_SYMBOL
    if avail < 2:
        return DecodeResult(False, None, float("nan"), float("nan"), sync_corr=abs(c))
    # every whole symbol window after the SFD, demapped once
    chips = hard[data_start : data_start + avail * CHIPS_PER_SYMBOL]
    pm = chips.astype(np.float64).reshape(-1, CHIPS_PER_SYMBOL) * 2 - 1
    syms = np.argmax(pm @ _CHIP_TABLE_PM.T, axis=1)
    n_pay_sym = 2 * int(symbols_to_bytes(syms[:2])[0])
    payload = None
    if avail >= 2 + n_pay_sym:
        payload = symbols_to_bytes(syms[2 : 2 + n_pay_sym])

    ser = float("nan")
    cer = float("nan")
    if expected_payload is not None:
        frame = build_frame(expected_payload)
        exp_syms = frame[len(SYNC_SYMBOLS):]
        n_cmp = min(avail, len(exp_syms))
        ser = float(np.mean(syms[:n_cmp] != exp_syms[:n_cmp])) if n_cmp else 1.0
        exp_chips = symbols_to_chips(frame)
        n_chip_cmp = min(n_chips - lag, len(exp_chips))
        cer = float(np.mean(hard[lag : lag + n_chip_cmp] != exp_chips[:n_chip_cmp].astype(bool)))

    return DecodeResult(
        detected=True,
        payload=payload,
        ser=ser,
        chip_error_rate=cer,
        sync_corr=abs(c),
        start_chip=lag,
    )
