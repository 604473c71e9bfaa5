"""IEEE 802.11a/g OFDM transmit chain, data field only.

Scrambler, rate-1/2 K=7 convolutional encoder (optional 3/4 puncturing),
the two-permutation block interleaver, Gray QAM mapping, pilot insertion,
64-point IDFT and 16-sample cyclic prefix.  No preamble, SIGNAL field or
tail/padding service bits: the frames built here are consumed by a ZigBee
receiver that treats everything but the emulated span as noise, and keeping
the payload-to-coded-bits map purely affine is what lets the GF(2) solver
invert it.

Bit order follows the standard: octets are serialized LSB first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dsp import DFT_BASIS, IDFT_BASIS, N_FFT, ComplexSignal, FreqGrid
from .errors import ConfigError, DimensionError, DomainError

SAMPLE_RATE_HZ = 20e6
CP_LEN = 16
SYMBOL_LEN = CP_LEN + N_FFT  # 80 samples, 4 us
SUBCARRIER_SPACING_HZ = SAMPLE_RATE_HZ / N_FFT  # 312.5 kHz

PILOT_SUBCARRIERS = (-21, -7, 7, 21)
PILOT_TEMPLATE = (1.0, 1.0, 1.0, -1.0)
DATA_SUBCARRIERS = tuple(
    m for m in range(-26, 27) if m != 0 and m not in PILOT_SUBCARRIERS
)  # 48 of them, ascending
N_DATA_SUBCARRIERS = len(DATA_SUBCARRIERS)

DEFAULT_SCRAMBLER_SEED = 0b1011101

# Modulation tables (17.3.5.8): per-axis Gray levels, bits MSB-first per axis.
_AXIS_LEVELS = {
    1: {0: -1.0, 1: 1.0},
    2: {0: -3.0, 1: -1.0, 3: 1.0, 2: 3.0},
    3: {0: -7.0, 1: -5.0, 3: -3.0, 2: -1.0, 6: 1.0, 7: 3.0, 5: 5.0, 4: 7.0},
}
_KMOD = {1: 1.0, 2: 1.0 / np.sqrt(2.0), 4: 1.0 / np.sqrt(10.0), 6: 1.0 / np.sqrt(42.0)}


@dataclass(frozen=True)
class Constellation:
    """Gray-labeled QAM point set, normalized to unit mean power.

    ``points[j]`` is the symbol whose label bits (MSB first, in transmission
    order) form the integer ``j``.  The set is a grid: ``levels`` holds the
    real and the imaginary axis levels in label order (BPSK has the one
    imaginary level 0), and ``points[kx*Ly + ky]`` is
    ``levels[0][kx] + 1j*levels[1][ky]``.  Both arrays are read-only.
    """

    name: str
    bits_per_symbol: int
    levels: tuple
    k_mod: float

    @cached_property
    def points(self) -> np.ndarray:
        lx, ly = self.levels
        pts = (lx[:, None] + 1j * ly).reshape(-1)
        pts.flags.writeable = False
        return pts

    @property
    def size(self) -> int:
        return len(self.points)

    def labels(self) -> list[tuple[int, ...]]:
        b = self.bits_per_symbol
        return [tuple((j >> (b - 1 - i)) & 1 for i in range(b)) for j in range(self.size)]

    def map_bits(self, bits) -> np.ndarray:
        """Group bits (transmission order) and map to complex symbols."""
        bits = np.asarray(bits, dtype=np.int64)
        b = self.bits_per_symbol
        if len(bits) % b != 0:
            raise DimensionError(f"bit count {len(bits)} not divisible by {b}")
        idx = bits.reshape(-1, b) @ (1 << np.arange(b - 1, -1, -1))
        return self.points[idx]

    def nearest(self, values) -> np.ndarray:
        """Index of the nearest point to every value (any shape).

        The squared distance to a grid point is the sum of its per-axis
        squares, so the nearest point is ``kx*Ly + ky``, with ``kx`` and
        ``ky`` the nearest level on each axis by ``(w - level)**2``.  Ties go
        to the lower label on each axis, and so to the lowest index.  A value
        more than 1 beyond an axis's outer level is clipped to 1 beyond it,
        which keeps that level nearest and the squares finite."""
        w = np.asarray(values, dtype=np.complex128)
        lx, ly = self.levels
        re = np.clip(w.real, lx.min() - 1, lx.max() + 1)
        im = np.clip(w.imag, ly.min() - 1, ly.max() + 1)
        kx = np.argmin(np.square(re[..., None] - lx), axis=-1)
        ky = np.argmin(np.square(im[..., None] - ly), axis=-1)
        return kx * len(ly) + ky


@lru_cache(maxsize=8)
def constellation(name: str) -> Constellation:
    """Build 'bpsk', 'qpsk', 'qam16' or 'qam64' (spelled exactly so)."""
    n_bpsc = {"bpsk": 1, "qpsk": 2, "qam16": 4, "qam64": 6}.get(name)
    if n_bpsc is None:
        raise ConfigError(f"unknown modulation {name!r}")
    k_mod = _KMOD[n_bpsc]
    gray = _AXIS_LEVELS[max(1, n_bpsc // 2)]
    axis = np.array([gray[j] for j in range(len(gray))]) * k_mod
    levels = (axis, axis if n_bpsc > 1 else np.zeros(1))
    for lv in levels:
        lv.flags.writeable = False
    return Constellation(name=name, bits_per_symbol=n_bpsc, levels=levels, k_mod=k_mod)


@dataclass(frozen=True)
class McsConfig:
    """Modulation and coding configuration for the data field."""

    constellation: Constellation
    coding_rate: str  # '1/2' or '3/4'

    def __post_init__(self):
        if self.coding_rate not in ("1/2", "3/4"):
            raise ConfigError(f"unsupported coding_rate {self.coding_rate!r}")

    @property
    def n_bpsc(self) -> int:
        return self.constellation.bits_per_symbol

    @property
    def n_cbps(self) -> int:
        return N_DATA_SUBCARRIERS * self.n_bpsc

    @property
    def n_dbps(self) -> int:
        num, den = (1, 2) if self.coding_rate == "1/2" else (3, 4)
        return self.n_cbps * num // den

    @property
    def name(self) -> str:
        return f"{self.constellation.name}-{self.coding_rate.replace('/', '')}"


def mcs_config(modulation: str = "qam64", coding_rate: str = "1/2") -> McsConfig:
    return McsConfig(constellation=constellation(modulation), coding_rate=coding_rate)


# ---------------------------------------------------------------------------
# scrambler
# ---------------------------------------------------------------------------

def scrambler_sequence(n: int, seed: int) -> np.ndarray:
    """First n bits of the x^7 + x^4 + 1 LFSR stream.

    ``seed`` is the 7-bit initial register state; bit i of the integer loads
    stage x^(i+1).  The all-ones seed yields the standard 127-bit sequence
    beginning 0000 1110 1111 0010 ...
    """
    if not 0 < seed < 128:
        raise DomainError(f"scrambler seed must be a nonzero 7-bit value, got {seed}")
    state = [(seed >> i) & 1 for i in range(7)]  # state[i] = x^(i+1)
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        bit = state[6] ^ state[3]  # x^7 xor x^4
        out[i] = bit
        state = [bit] + state[:6]
    return out


@lru_cache(maxsize=8)
def _scrambler_period(seed: int) -> np.ndarray:
    return scrambler_sequence(127, seed)


def scramble(bits, seed: int) -> np.ndarray:
    """XOR with the self-synchronizing LFSR stream (involution)."""
    bits = np.asarray(bits, dtype=np.uint8)
    seq = _scrambler_period(seed)
    reps = int(np.ceil(len(bits) / 127)) if len(bits) else 0
    stream = np.tile(seq, max(reps, 1))[: len(bits)]
    return bits ^ stream


# ---------------------------------------------------------------------------
# convolutional encoder
# ---------------------------------------------------------------------------

# Generator polynomials g0 = 133 octal, g1 = 171 octal, constraint length 7,
# taps listed for x[t], x[t-1], ..., x[t-6].
G0_TAPS = (1, 0, 1, 1, 0, 1, 1)
G1_TAPS = (1, 1, 1, 1, 0, 0, 1)
# 3/4 puncturing: of each (A1 B1 A2 B2 A3 B3) keep A1 B1 A2 B3.
_PUNCTURE_34_KEEP = np.array([1, 1, 1, 0, 0, 1], dtype=bool)


def _conv_streams(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(bits)
    a = np.zeros(n, dtype=np.uint8)
    b = np.zeros(n, dtype=np.uint8)
    for d, (t0, t1) in enumerate(zip(G0_TAPS, G1_TAPS)):
        if d >= n:
            break
        seg = bits if d == 0 else np.concatenate([np.zeros(d, dtype=np.uint8), bits[:-d]])
        if t0:
            a ^= seg
        if t1:
            b ^= seg
    return a, b


def convolutional_encode(bits, rate: str = "1/2") -> np.ndarray:
    """Rate-1/2 K=7 encoder (zero initial state), output interleaved A,B per
    input bit; rate 3/4 applies the standard puncturing pattern."""
    bits = np.asarray(bits, dtype=np.uint8)
    a, b = _conv_streams(bits)
    out = np.empty(2 * len(bits), dtype=np.uint8)
    out[0::2] = a
    out[1::2] = b
    if rate == "1/2":
        return out
    if rate == "3/4":
        if len(out) % 6 != 0:
            raise DimensionError("rate 3/4 needs an input multiple of 3 bits")
        keep = np.tile(_PUNCTURE_34_KEEP, len(out) // 6)
        return out[keep]
    raise ConfigError(f"unsupported coding_rate {rate!r}")


# ---------------------------------------------------------------------------
# interleaver
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def interleave_permutation(n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Destination index for each input coded bit (17.3.5.7).

    First permutation  i = (n_cbps/16)(k mod 16) + floor(k/16)
    Second permutation j = s floor(i/s) + (i + n_cbps - floor(16 i / n_cbps)) mod s
    with s = max(n_bpsc/2, 1).  Returns ``perm`` with out[perm[k]] = in[k].
    """
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + k // 16
    s = max(n_bpsc // 2, 1)
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    return j


def interleave(bits, n_cbps: int, n_bpsc: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) != n_cbps:
        raise DimensionError(f"interleaver block must be {n_cbps} bits, got {len(bits)}")
    out = np.empty_like(bits)
    out[interleave_permutation(n_cbps, n_bpsc)] = bits
    return out


def deinterleave(bits, n_cbps: int, n_bpsc: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) != n_cbps:
        raise DimensionError(f"deinterleaver block must be {n_cbps} bits, got {len(bits)}")
    return bits[interleave_permutation(n_cbps, n_bpsc)]


# ---------------------------------------------------------------------------
# pilots and OFDM assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def pilot_polarity_sequence() -> np.ndarray:
    """127-element +-1 polarity sequence (all-ones-seed scrambler stream).
    Data symbol n takes element ``n % 127``; indexing starts at 0 because no
    SIGNAL symbol precedes the data field here."""
    return (1.0 - 2.0 * scrambler_sequence(127, 0b1111111)).astype(np.float64)


def pilot_values(n_symbols: int) -> np.ndarray:
    """(n_symbols, 4) real pilot values on PILOT_SUBCARRIERS for data symbols
    0, 1, ...: polarity times template."""
    pol = pilot_polarity_sequence()[np.arange(n_symbols) % 127]
    return pol[:, None] * np.array(PILOT_TEMPLATE)


def assemble_grid(data_symbols: np.ndarray) -> FreqGrid:
    """Place (S, 48) data symbols on the data bins, insert pilots, zero the
    rest.  Returns the shifted-order frequency grid (DC at column 32)."""
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if data_symbols.ndim != 2 or data_symbols.shape[1] != N_DATA_SUBCARRIERS:
        raise DimensionError(f"expected (S, {N_DATA_SUBCARRIERS}) symbols, got {data_symbols.shape}")
    n_sym = data_symbols.shape[0]
    bins = np.zeros((n_sym, N_FFT), dtype=np.complex128)
    data_cols = np.array([FreqGrid.column(m) for m in DATA_SUBCARRIERS])
    bins[:, data_cols] = data_symbols
    pilot_cols = np.array([FreqGrid.column(m) for m in PILOT_SUBCARRIERS])
    bins[:, pilot_cols] = pilot_values(n_sym)
    return FreqGrid(bins)


def synthesize(grid: FreqGrid) -> ComplexSignal:
    """IDFT each symbol's bins and prepend the 16-sample cyclic prefix."""
    plain = np.fft.ifftshift(grid.bins, axes=1)  # column k-32 -> DFT index
    body = plain @ IDFT_BASIS.T
    sym = np.concatenate([body[:, -CP_LEN:], body], axis=1)
    return ComplexSignal(sym.reshape(-1), SAMPLE_RATE_HZ)


def ofdm_analyze(sig: ComplexSignal) -> FreqGrid:
    """Strip cyclic prefixes and DFT each 64-sample body (shifted order)."""
    if len(sig.samples) % SYMBOL_LEN != 0:
        raise DimensionError(f"signal length {len(sig.samples)} not a multiple of {SYMBOL_LEN}")
    body = sig.samples.reshape(-1, SYMBOL_LEN)[:, CP_LEN:]
    plain = body @ DFT_BASIS.T
    return FreqGrid(np.fft.fftshift(plain, axes=1))


# ---------------------------------------------------------------------------
# full transmit chain
# ---------------------------------------------------------------------------

def psdu_to_bits(psdu: bytes) -> np.ndarray:
    arr = np.frombuffer(bytes(psdu), dtype=np.uint8)
    return ((arr[:, None] >> np.arange(8)) & 1).reshape(-1).astype(np.uint8)


def bits_to_psdu(bits) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) % 8 != 0:
        raise DimensionError("bit count must be a multiple of 8")
    return bytes((bits.reshape(-1, 8) @ (1 << np.arange(8))).astype(np.uint8).tolist())


def coding_chain(payload_bits, mcs: McsConfig, scrambler_seed: int) -> np.ndarray:
    """scramble -> convolutional encode -> per-symbol interleave.

    Input length must fill whole OFDM symbols (multiple of n_dbps); output
    is the concatenation of interleaved n_cbps blocks.  This is the affine
    GF(2) map the payload solver inverts.
    """
    bits = np.asarray(payload_bits, dtype=np.uint8)
    if len(bits) % mcs.n_dbps != 0:
        raise DimensionError(f"payload bits {len(bits)} not a multiple of n_dbps {mcs.n_dbps}")
    coded = convolutional_encode(scramble(bits, scrambler_seed), mcs.coding_rate)
    perm = interleave_permutation(mcs.n_cbps, mcs.n_bpsc)
    blocks = coded.reshape(-1, mcs.n_cbps)
    out = np.empty_like(blocks)
    out[:, perm] = blocks
    return out.reshape(-1)


def transmit_psdu(
    psdu: bytes,
    mcs: McsConfig,
    scrambler_seed: int = DEFAULT_SCRAMBLER_SEED,
    return_grid: bool = False,
):
    """Standard data-field transmit: coded bits onto 48 data bins, pilots,
    IDFT, cyclic prefix.  PSDU bits are zero-padded to fill whole OFDM
    symbols."""
    bits = psdu_to_bits(psdu)
    pad = (-len(bits)) % mcs.n_dbps
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    coded = coding_chain(bits, mcs, scrambler_seed)
    symbols = mcs.constellation.map_bits(coded).reshape(-1, N_DATA_SUBCARRIERS)
    grid = assemble_grid(symbols)
    sig = synthesize(grid)
    if return_grid:
        return sig, grid
    return sig
