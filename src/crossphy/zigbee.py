"""Software IEEE 802.15.4 2.4 GHz O-QPSK/DSSS modem.

Transmit side: PPDU framing (preamble + SFD + length + payload, all
LS-nibble first), 4-bit symbol to 32-chip spreading, half-sine O-QPSK at
2 Mchip/s.  Receive side: a channel-selection low-pass, per-chip phase
sampling on the MSK lattice, preamble/SFD synchronization with timing and
quadrant-ambiguity search, and chip-correlation symbol decisions.

The channel filter is an overlap-save FFT convolution: the zero-padded
real and imaginary parts are cut into overlapping blocks of ``B`` samples,
where ``B`` is the power of two at or above ``8 (taps - 1)`` (1,024 at
20 MHz), and one batched real FFT multiplies every block by the cached tap
spectrum.  Overlap-save needs only a block longer than the filter, so any
such length serves; the cutoff is ``RX_FILTER_CUTOFF_HZ`` at every rate.
Its samples differ from a direct convolution by about 1e-15 of the signal
scale.  The receiver reads only their signs at chip peaks, which sit far
from zero in any decodable frame, and a part that is all zero stays
exactly zero, so no decision moves.

The sync search scores the hard-chip streams of every timing offset, both
rails and both lag parities against the 320-chip preamble+SFD pattern the
way a DSSS chip correlator does: a correlation of +-1 chips is ``320 - 2d``
for ``d`` differing chips, and ``d`` is the bit count of packed 16-chip
words XORed with the pattern's words.  Every value is an exact integer, so
the search gives the direct correlations' result with no rounding step.

Given a ``dsp.WorkArrays``, the filter and the sync search write their
frame-sized arrays into its memory with the same numpy calls, so the same
values; each thread of ``sim.run_point``'s trials, started for the point
and joined before it returns, makes its own.

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

from .dsp import ComplexSignal, WorkArrays, work_empty
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


def _rx_taps(fs_hz: float) -> np.ndarray:
    """Hamming-windowed-sinc low-pass at ``RX_FILTER_CUTOFF_HZ``, unit DC gain.

    The floating-point steps are those of ``scipy.signal.firwin(n,
    RX_FILTER_CUTOFF_HZ, fs=fs_hz)``, so the taps are the same floats: the
    ideal low-pass ``f sinc(f m)`` at ``f = cutoff / (fs/2)``, times the
    symmetric Hamming window accumulated as ``0.54 + (1 - 0.54) cos`` (``1 -
    0.54`` is not the float ``0.46``), divided by its sum (the response at
    DC).  A rate whose half does not lie above the cutoff, or an infinite
    one, raises ``DomainError``.
    """
    f = RX_FILTER_CUTOFF_HZ / (0.5 * fs_hz)
    if not 0 < f < 1:
        raise DomainError(f"sample rate {fs_hz} Hz must exceed twice the filter cutoff, "
                          f"{2 * RX_FILTER_CUTOFF_HZ} Hz, and be finite")
    # ~6.4 us span regardless of rate; odd length keeps zero group delay
    n = int(round(129 * fs_hz / 20e6))
    n += 1 - n % 2
    m = np.arange(n, dtype=np.float64) - 0.5 * (n - 1)
    h = f * np.sinc(f * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n))
    h /= np.sum(h)
    return h


@lru_cache(maxsize=8)
def _rx_blocks(fs_hz: float) -> tuple[int, int, np.ndarray]:
    """``(block, overlap, spectrum)`` of the overlap-save channel filter.

    ``overlap`` is ``len(_rx_taps) - 1``, and ``block`` the power of two at
    or above ``8 overlap`` (1,024 at 20 MHz), so at least 7/8 of every block
    is new output whatever the sample rate.  ``spectrum`` is the real FFT of
    the taps over one block, read-only because shared by every later
    filter, in every thread.
    """
    taps = _rx_taps(fs_hz)
    overlap = len(taps) - 1
    block = 1 << (8 * overlap - 1).bit_length()
    spectrum = rfft(taps, block)
    spectrum.flags.writeable = False
    return block, overlap, spectrum


def channel_filter(sig: ComplexSignal, work: WorkArrays | None = None) -> ComplexSignal:
    """Receiver channel-selection low-pass (zero-delay symmetric FIR) at
    ``RX_FILTER_CUTOFF_HZ``.

    Returns the centred ``len(sig)`` samples of the full convolution with
    ``_rx_taps`` for every input length, the empty signal included.  The
    convolution runs as overlap-save on the real and imaginary parts: each,
    with ``overlap / 2`` zeros before it and zeros after, is cut into blocks
    that overlap by ``overlap`` samples (see ``_rx_blocks``), and the
    circular convolution of a block keeps its last ``block - overlap``
    samples, the ones no wrap-around reaches.  The samples match the direct
    sums to about 1e-15 of ``sum|taps| max|x|``, far below the chip-peak
    amplitudes whose signs the receiver reads, and a part that is all zero
    stays exactly zero, as it does in the direct sums.  Given ``work``, the
    work arrays and the returned samples lie in its memory, and the samples
    are valid only until its next use; the floats are the same.  A sample
    rate of twice the cutoff or less raises ``DomainError``.
    """
    block, overlap, spectrum = _rx_blocks(sig.sample_rate_hz)
    x = sig.samples
    # the unnormalized FFT sums reach block^2 times the largest sample, so
    # the FFTs run at a power-of-two scale near 1: that changes no rounding
    # above the subnormals, and only an output past the float range overflows
    v = x.view(np.float64)
    peak = max(np.max(v, initial=0.0), -np.min(v, initial=0.0))
    scale = 2.0 ** min(max(math.frexp(peak)[1], -1000), 1000)
    step, head = block - overlap, overlap // 2
    n_blocks = len(x) // step + 1
    # the padded parts, then over the same memory the inverse FFT's blocks,
    # which are no fewer floats
    blocks = work_empty(work, 1, (2, n_blocks, block))
    padded = blocks.reshape(-1)[: 2 * (n_blocks * step + overlap)].reshape(2, -1)
    padded[:, :head] = 0.0
    padded[:, head + len(x) :] = 0.0
    np.multiply(x.real, 1.0 / scale, out=padded[0, head : head + len(x)])
    np.multiply(x.imag, 1.0 / scale, out=padded[1, head : head + len(x)])
    spectra = rfft(sliding_window_view(padded, block, axis=-1)[:, ::step],
                   out=work_empty(work, 0, (2, n_blocks, block // 2 + 1), np.complex128))
    spectra *= spectrum
    y = irfft(spectra, block, out=blocks)[..., overlap:]
    del spectra  # before the output is allocated
    out = work_empty(work, 0, (n_blocks, step), np.complex128)
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


def _sync_words() -> np.ndarray:
    """One word per sync symbol: its 16 even chips in the low half and its
    16 odd chips in the high half, chip ``2j`` (or ``2j + 1``) at bit ``j``
    (or ``16 + j``), 1 for a +1 chip (see ``_sync_search``)."""
    halves = (_sync_pattern() > 0).reshape(len(SYNC_SYMBOLS), 16, 2)
    even, odd = np.moveaxis(halves, 2, 0) @ 2 ** np.arange(16, dtype=np.uint32)
    words = even | odd << 16
    words.flags.writeable = False
    return words


_SYNC_WORDS = _sync_words()


def _hard_halves(x: np.ndarray, spc: int, n_half: int,
                 work: WorkArrays | None = None) -> np.ndarray:
    """Hard chips of every timing offset as bools, True for a +1 chip.

    Axes are ``(offset, rail, phase, i)`` for chip ``2i + phase`` of the
    real (rail 0) or imaginary (rail 1) part of the derotated chip samples
    (see ``_chip_samples``), over memory in ``(phase, offset, rail, i)``
    order, so each phase is one flat run of rows.

    Chip ``k`` of offset ``o`` is sample ``(k+1) spc + o``, so the chips of
    all offsets are the samples from ``spc`` on, in ``(k, o)`` order; the
    few past the end read the last sample.  Derotating by ``(-j)^k`` only
    picks a part: even chips read (re, im) and odd chips (im, -re), so rail
    1 of an odd chip is ``re <= 0``.  Two comparisons run over the samples
    as they lie and three copies put their bits in place.  Given ``work``,
    the comparisons lie in its region 2 and the chips in its region 1.
    """
    n_pos = 2 * n_half * spc  # chip positions (k, o)
    n_in = max(0, min(n_pos, len(x) - spc))
    ge, le = work_empty(work, 2, (2, n_pos, 2), np.bool_)  # (k o, re/im)
    parts = x[spc : spc + n_in].view(np.float64)
    np.greater_equal(parts, 0.0, out=ge[:n_in].reshape(-1))
    # only the real parts are used: one contiguous pass is faster than those
    np.less_equal(parts, 0.0, out=le[:n_in].reshape(-1))
    ge[n_in:] = x[-1].real >= 0, x[-1].imag >= 0
    le[n_in:] = x[-1].real <= 0, x[-1].imag <= 0
    out = work_empty(work, 1, (2, spc, 2, n_half), np.bool_)
    ge = ge.reshape(n_half, 2, spc, 2)  # (i, phase, o, re/im)
    np.copyto(out[0], ge[:, 0].transpose(1, 2, 0))
    np.copyto(out[1, :, 0], ge[:, 1, :, 1].T)
    np.copyto(out[1, :, 1], le.reshape(n_half, 2, spc, 2)[:, 1, :, 0].T)
    return out.transpose(1, 2, 0, 3)


def _sync_search(x: np.ndarray, spc: int, work: WorkArrays | None = None):
    """Best preamble+SFD match of the filtered samples ``x``.

    Searches every timing offset in one chip period, both chip rails and
    both pattern parities: the plain pattern at even lags, the alternated
    one at odd lags (the I/Q lattice).  A correlation of 320 hard chips
    with the +-1 pattern is ``320 - 2 d``, where ``d`` counts the chips
    that differ, so it is an exact integer count on packed bits.

    Split a stream of hard chips into its even chips ``e`` and odd chips
    ``o``.  The word of lag ``2m`` holds ``e[m:m+16]`` in its low half and
    ``o[m:m+16]`` in its high half; the word of lag ``2m + 1`` holds
    ``o[m:m+16]`` and the complement of ``e[m+1:m+17]``, the chips the
    alternated pattern negates.  Then ``d`` is ``popcount(word[m + 16k] ^
    sync_word[k])`` summed over the ten sync symbols (see ``_sync_words``);
    the eight preamble symbols share one word, so their counts add up in
    three doubling sums.  Each step is one numpy call over the flat
    ``(parity, offset, rail, m)`` rows of every stream, shifted along them:
    a row's last positions read into the next row, and only masked lags
    read those.

    Returns ``(corr, offset, lag, use_imag, alternated)`` for the largest
    ``|corr|``, the first in ``(offset, rail, parity, lag)`` order on ties,
    or None when no offset holds a full pattern of chips.  Given ``work``,
    the arrays lie in its regions 1 and 2 (see ``dsp.WorkArrays``).
    """
    n_chips = -((np.arange(spc) - len(x)) // spc)  # per offset; ceil, tail chip clamps
    if n_chips[0] < SYNC_CHIPS:
        return None
    # offsets may hold one chip fewer than offset 0; chips past an offset's
    # own count read the clamped last sample and only enter masked lags
    last = (n_chips[:, None] - SYNC_CHIPS - np.arange(2)) // 2  # last valid m per parity
    n_lags = int(last.max()) + 1
    row = n_lags + 16 * len(SYNC_SYMBOLS)  # a lag's last word starts 144 on and reads 16 more
    # (phase, offset, rail, m) bits -> windows of chips m..m+15, by doubling
    bits = _hard_halves(x, spc, row, work).transpose(2, 0, 1, 3).reshape(-1)
    size = len(bits)
    halves = work_empty(work, 2, (size,), np.uint16)
    np.copyto(halves, bits)
    words = work_empty(work, 1, (size,), np.uint32)
    spare = words.view(np.uint16)[:size]  # over the bits, read now
    for step in (1, 2, 4, 8):
        np.multiply(halves[step:], 1 << step, out=spare[:-step])
        np.bitwise_or(halves[:-step], spare[:-step], out=halves[:-step])
    # (parity, offset, rail, m) words: e[m] with o[m], and o[m] with ~e[m+1]
    n = size // 2
    np.left_shift(halves[n:], 16, out=words[:n], dtype=np.uint32)
    np.left_shift(halves[1 : n + 1], 16, out=words[n:], dtype=np.uint32)
    np.bitwise_or(words, halves, out=words)
    np.bitwise_xor(words[n:], 0xFFFF0000, out=words[n:])
    # per lag, the differing chips of one symbol (uint8), then of all ten
    scratch = work_empty(work, 2, (7, size), np.uint8)
    diff = scratch[:4].reshape(-1).view(np.uint32)
    ones = scratch[4]
    counts = scratch[5:].reshape(-1).view(np.uint16)
    np.bitwise_count(np.bitwise_xor(words, _SYNC_WORDS[0], out=diff), out=ones)
    np.add(ones[:-16], ones[16:], out=ones[:-16])  # 2 symbols, up to 64
    np.add(ones[:-32], ones[32:], out=ones[:-32])  # 4, up to 128
    np.add(ones[:-64], ones[64:], out=counts[:-64], dtype=np.uint16)  # the 8 of the preamble
    for k in range(len(PREAMBLE_SYMBOLS), len(SYNC_SYMBOLS)):
        end = size - 16 * k
        d = np.bitwise_xor(words[16 * k :], _SYNC_WORDS[k], out=diff[:end])
        np.add(counts[:end], np.bitwise_count(d, out=ones[:end]), out=counts[:end])
    # |corr| = |320 - 2 d| is largest where max(d, 320 - d) is, which is at
    # least 160, so 0 masks the lags past an offset's chips
    score = np.subtract(SYNC_CHIPS, counts, out=diff.view(np.uint16)[:size])
    np.maximum(score, counts, out=score)
    score = score.reshape(2, spc, 2, row)
    lo = int(last.min()) + 1  # every offset holds the lags before
    score[..., n_lags:] = 0
    np.copyto(score[..., lo:n_lags], 0, where=np.arange(lo, n_lags) > last.T[:, :, None, None])
    # each parity's first maximum, then the first of the two in (offset,
    # rail, parity, m) order
    firsts = []
    for parity in (0, 1):
        j = int(np.argmax(score[parity]))
        off, rail, m = np.unravel_index(j, score.shape[1:])
        firsts.append((-int(score[parity].flat[j]), int(off), int(rail), parity, int(m)))
    _, off, rail, parity, m = min(firsts)
    d = int(counts.reshape(score.shape)[parity, off, rail, m])
    return (SYNC_CHIPS - 2 * d) / SYNC_CHIPS, off, 2 * m + parity, bool(rail), bool(parity)


def decode_frame(
    sig: ComplexSignal,
    expected_payload: bytes | None = None,
    *,
    prefiltered: bool = False,
    work: WorkArrays | None = None,
) -> DecodeResult:
    """Correlate for preamble+SFD, then demap 32-chip windows to symbols.

    The sync search covers sample-level timing (one chip period), the even/
    odd chip-rail pairing, and the four-fold O-QPSK phase ambiguity (I/Q
    rail swap and sign).  It counts the hard chips that differ from the
    pattern at every one of these lags on packed bits, which gives the
    direct correlation sums exactly (see ``_sync_search``).
    Detection requires the best normalized correlation over the 320-chip
    sync pattern to reach ``SYNC_THRESHOLD``; a signal too short for the
    pattern is not detected and reports ``sync_corr`` 0.  ``ser`` and
    ``chip_error_rate`` are computed against ``expected_payload`` when
    given, else reported as NaN.  ``sig`` goes through ``channel_filter``
    first, unless ``prefiltered`` says it is that filter's output already.
    Given ``work``, the filter and the sync search run in it, with the same
    result.
    """
    spc = _samples_per_chip(sig.sample_rate_hz)
    x = sig.samples if prefiltered else channel_filter(sig, work).samples
    best = _sync_search(x, spc, work)
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
