import numpy as np
import pytest

from crossphy import dsp, wifi
from crossphy.emulation import EmulationModel
from crossphy.errors import ConfigError, DimensionError, DomainError

MODULATIONS = ("bpsk", "qpsk", "qam16", "qam64")


def lfsr_oracle(n, seed):
    """Independent x^7+x^4+1 LFSR: plain shift-register simulation."""
    state = [(seed >> i) & 1 for i in range(7)]
    out = []
    for _ in range(n):
        bit = state[6] ^ state[3]
        out.append(bit)
        state = [bit] + state[:6]
    return np.array(out, dtype=np.uint8)


class TestScrambler:
    def test_involution(self):
        rng = dsp.make_rng(0)
        bits = rng.integers(0, 2, 500).astype(np.uint8)
        assert np.array_equal(wifi.scramble(wifi.scramble(bits, 93), 93), bits)

    def test_all_ones_seed_prefix(self):
        # first bits of the standard 127-bit sequence
        expected = [0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0,
                    1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0]
        seq = wifi.scramble(np.zeros(32, dtype=np.uint8), 0b1111111)
        assert seq.tolist() == expected

    def test_period_127(self):
        for seed in (0b1111111, 0b1011101, 1):
            seq = wifi.scrambler_sequence(254, seed)
            assert np.array_equal(seq[:127], seq[127:])
            assert not np.array_equal(seq[:63], seq[63:126])

    def test_matches_lfsr_oracle(self):
        for seed in (1, 37, 93, 127):
            assert np.array_equal(wifi.scrambler_sequence(300, seed), lfsr_oracle(300, seed))

    def test_zero_seed_rejected(self):
        with pytest.raises(DomainError):
            wifi.scramble(np.zeros(8, dtype=np.uint8), 0)


class TestConvolutionalEncoder:
    def test_zero_in_zero_out(self):
        out = wifi.convolutional_encode(np.zeros(50, dtype=np.uint8))
        assert not out.any()

    def test_impulse_response_matches_generators(self):
        out = wifi.convolutional_encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        assert out[0::2].tolist() == [1, 0, 1, 1, 0, 1, 1]  # g0 = 133 octal
        assert out[1::2].tolist() == [1, 1, 1, 1, 0, 0, 1]  # g1 = 171 octal

    def test_rate_half_doubles_length(self):
        for n in (1, 7, 100):
            assert len(wifi.convolutional_encode(np.zeros(n, dtype=np.uint8))) == 2 * n

    def test_linearity(self):
        rng = dsp.make_rng(1)
        a = rng.integers(0, 2, 96).astype(np.uint8)
        b = rng.integers(0, 2, 96).astype(np.uint8)
        enc = wifi.convolutional_encode
        assert np.array_equal(enc(a ^ b), enc(a) ^ enc(b))

    def test_puncturing_rate(self):
        out = wifi.convolutional_encode(np.zeros(9, dtype=np.uint8), rate="3/4")
        assert len(out) == 12  # 4 out per 3 in

    def test_puncture_pattern_positions(self):
        # keep A1 B1 A2 B3 of each (A1 B1 A2 B2 A3 B3)
        bits = np.array([1, 0, 0], dtype=np.uint8)
        full = wifi.convolutional_encode(bits, rate="1/2")
        punct = wifi.convolutional_encode(bits, rate="3/4")
        assert punct.tolist() == [full[0], full[1], full[2], full[5]]


def deinterleave(bits, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """The inverse of ``wifi.interleave``: the receiver's side, which the
    transmitter never runs."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) != n_cbps:
        raise DimensionError(f"deinterleaver block must be {n_cbps} bits, got {len(bits)}")
    return bits[wifi.interleave_permutation(n_cbps, n_bpsc)]


class TestInterleaver:
    @pytest.mark.parametrize("n_bpsc", [1, 2, 4, 6])
    def test_inverse(self, n_bpsc):
        n_cbps = 48 * n_bpsc
        rng = dsp.make_rng(2)
        bits = rng.integers(0, 2, n_cbps).astype(np.uint8)
        assert np.array_equal(
            deinterleave(wifi.interleave(bits, n_cbps, n_bpsc), n_cbps, n_bpsc), bits
        )

    def test_bpsk_first_permutation_values(self):
        # first-permutation formula: i = (n_cbps/16)(k mod 16) + floor(k/16)
        perm = wifi.interleave_permutation(48, 1)
        assert perm[0] == 0
        assert perm[1] == 3

    @pytest.mark.parametrize("n_bpsc", [1, 2, 4, 6])
    def test_bijective(self, n_bpsc):
        perm = wifi.interleave_permutation(48 * n_bpsc, n_bpsc)
        assert sorted(perm.tolist()) == list(range(48 * n_bpsc))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            wifi.interleave(np.zeros(47, dtype=np.uint8), 48, 1)


class TestConstellation:
    def test_bpsk_table(self):
        c = wifi.constellation("bpsk")
        assert c.map_bits([0]).tolist() == [-1.0]
        assert c.map_bits([1]).tolist() == [1.0]

    @pytest.mark.parametrize("name,k", [("bpsk", 1.0), ("qpsk", 2**-0.5),
                                        ("qam16", 10**-0.5), ("qam64", 42**-0.5)])
    def test_unit_mean_power(self, name, k):
        c = wifi.constellation(name)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
        assert abs(c.k_mod - k) < 1e-12

    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "qam16", "qam64"])
    def test_map_demap_roundtrip(self, name):
        c = wifi.constellation(name)
        rng = dsp.make_rng(3)
        bits = rng.integers(0, 2, 60 * c.bits_per_symbol).astype(np.uint8)
        syms = c.map_bits(bits)
        back = np.array(c.labels())[c.nearest(syms)].reshape(-1)
        assert np.array_equal(back, bits)

    def test_labels_bijective(self):
        c = wifi.constellation("qam64")
        assert len(set(c.labels())) == 64
        assert len(set(np.round(c.points, 12))) == 64

    def test_gray_property_axis(self):
        # adjacent I levels differ in exactly one bit of the I group
        c = wifi.constellation("qam16")
        by_level = {}
        for j, pt in enumerate(c.points):
            by_level.setdefault(round(pt.real, 6), set()).add(j >> 2)
        levels = sorted(by_level)
        for a, b in zip(levels, levels[1:]):
            (ga,), (gb,) = by_level[a], by_level[b]
            assert bin(ga ^ gb).count("1") == 1

    def test_indivisible_length_rejected(self):
        with pytest.raises(DimensionError):
            wifi.constellation("qam16").map_bits([0, 1, 0])

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_nearest_is_the_argmin_over_every_point(self, name):
        c = wifi.constellation(name)
        p = c.points

        def oracle(w):
            d = (w.real[..., None] - p.real) ** 2 + (w.imag[..., None] - p.imag) ** 2
            return np.argmin(d, axis=-1)  # ties to the lowest index

        rng = dsp.make_rng(30)
        re, im = rng.uniform(-1.5, 1.5, (2, 10**5))
        w = re + 1j * im
        assert np.array_equal(c.nearest(w), oracle(w))
        # every level, and every midpoint between neighbouring levels, on
        # each axis: exact ties go to the lowest index
        edges = []
        for lv in c.levels:
            s = np.sort(lv)
            edges.append(np.concatenate([s, (s[1:] + s[:-1]) / 2]))
        grid = edges[0][:, None] + 1j * edges[1]
        assert np.array_equal(c.nearest(grid), oracle(grid))
        # 0 ties the two innermost levels of each axis; the lower labels win:
        # -1/sqrt(10) is label 1 of QAM-16's axis and -1/sqrt(42) label 2 of
        # QAM-64's, so the points 1*4+1 and 2*8+2
        assert c.nearest(0j) == {"bpsk": 0, "qpsk": 0, "qam16": 5, "qam64": 18}[name]

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_nearest_of_huge_values_is_the_outer_point(self, name):
        # (1e182 - level)**2 overflowed to inf for every level, a warning
        # and a tie that went to the lowest label instead of the outer level
        c = wifi.constellation(name)
        big = np.finfo(np.float64).max
        w = np.array([1e182, -1e182, 1e182j, big + 0.5j, -big * 1j, 3 - big * 1j])
        with np.errstate(over="raise"):
            got = c.nearest(w)
        # any value past the outer level has the nearest point of a value 10
        ten = np.clip(w.real, -10, 10) + 1j * np.clip(w.imag, -10, 10)
        want = np.argmin(np.abs(ten[:, None] - c.points), axis=1)
        assert np.array_equal(got, want)
        assert np.all(np.abs(c.points[got[[0, 1, 3]]].real) == np.max(np.abs(c.levels[0])))

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_levels_rebuild_points_bit_for_bit(self, name):
        c = wifi.constellation(name)
        lx, ly = c.levels
        rebuilt = np.array([complex(lx[j // len(ly)], ly[j % len(ly)]) for j in range(c.size)])
        assert np.array_equal(rebuilt.view(np.uint64), c.points.view(np.uint64))

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_points_and_levels_read_only(self, name):
        c = wifi.constellation(name)
        for arr in (c.points, *c.levels):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestTransmit:
    def test_sample_count(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        sig = wifi.transmit_psdu(bytes(18 * 3), mcs)
        assert len(sig) == 3 * 80

    def test_cyclic_prefix_property(self):
        mcs = wifi.mcs_config("qam16", "1/2")
        rng = dsp.make_rng(4)
        sig = wifi.transmit_psdu(bytes(rng.integers(0, 256, 48).tolist()), mcs)
        blocks = sig.samples.reshape(-1, 80)
        assert np.max(np.abs(blocks[:, :16] - blocks[:, 64:])) == 0.0

    def test_data_bins_reproduce_coded_bits(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        rng = dsp.make_rng(5)
        psdu = bytes(rng.integers(0, 256, 36).tolist())
        analyzed = wifi.ofdm_analyze(wifi.transmit_psdu(psdu, mcs))
        data = analyzed[:, wifi.columns(wifi.DATA_SUBCARRIERS)].reshape(-1)
        c = mcs.constellation
        bits = np.array(c.labels())[c.nearest(data)].reshape(-1)
        expected = wifi.coding_chain(wifi.psdu_to_bits(psdu), mcs, wifi.DEFAULT_SCRAMBLER_SEED)
        assert np.array_equal(bits, expected)

    def test_pilot_values_follow_polarity_sequence(self):
        mcs = wifi.mcs_config("qpsk", "1/2")
        psdu = bytes(6 * 130)  # 130 symbols, wraps the 127-long sequence
        grid = wifi.psdu_grid(psdu, mcs)
        seq = 1.0 - 2.0 * lfsr_oracle(127, 0b1111111)  # transcription oracle
        pilots = grid[:, wifi.columns([-21, -7, 7, 21])]
        for n in range(len(grid)):
            pol = seq[n % 127]
            assert np.allclose(pilots[n], pol * np.array([1, 1, 1, -1]))

    def test_null_bins_zero(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        grid = wifi.psdu_grid(bytes(18), mcs)
        nulls = [*range(-32, -26), 0, *range(27, 32)]
        assert np.max(np.abs(grid[:, wifi.columns(nulls)])) == 0.0

    def test_mean_data_power_near_one(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        rng = dsp.make_rng(6)
        psdu = bytes(rng.integers(0, 256, 18 * 40).tolist())
        grid = wifi.psdu_grid(psdu, mcs)
        power = np.mean(np.abs(grid[:, wifi.columns(wifi.DATA_SUBCARRIERS)]) ** 2)
        assert abs(power - 1.0) < 0.02

    def test_coding_chain_is_affine_gf2(self):
        # f(x1 ^ x2) ^ f(0) == (f(x1) ^ f(0)) ^ (f(x2) ^ f(0))
        mcs = wifi.mcs_config("qam64", "1/2")
        seed = wifi.DEFAULT_SCRAMBLER_SEED
        rng = dsp.make_rng(7)
        n = 2 * mcs.n_dbps
        f = lambda x: wifi.coding_chain(x, mcs, seed)
        f0 = f(np.zeros(n, dtype=np.uint8))
        for _ in range(10):
            x1 = rng.integers(0, 2, n).astype(np.uint8)
            x2 = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(f(x1 ^ x2) ^ f0, (f(x1) ^ f0) ^ (f(x2) ^ f0))

    def test_psdu_bit_order_lsb_first(self):
        bits = wifi.psdu_to_bits(bytes([0b00000001, 0b10000000]))
        assert bits[:8].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert bits[8:].tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
        assert wifi.bits_to_psdu(bits) == bytes([1, 128])

    def test_bits_to_psdu_equals_the_weighted_sum(self):
        # packbits, LSB first, against each byte as its bits' weighted sum
        rng = dsp.make_rng(36)
        for n in range(0, 1017, 8):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            want = bytes((bits.reshape(-1, 8) @ (1 << np.arange(8))).astype(np.uint8).tolist())
            assert wifi.bits_to_psdu(bits) == want, n

    def test_bits_to_psdu_rejects_a_partial_byte(self):
        with pytest.raises(DimensionError, match="multiple of 8"):
            wifi.bits_to_psdu(np.ones(12, dtype=np.uint8))

    def test_unknown_constellation_rejected(self):
        with pytest.raises(ConfigError):
            wifi.constellation("qam1024")

    def test_constellation_name_is_case_sensitive(self):
        # a config echoes the name it was given, so only the one spelling runs
        with pytest.raises(ConfigError, match="QAM64"):
            wifi.constellation("QAM64")


class TestOneBinOrder:
    """The transmitter, the receiver's analysis and the emulation model put
    every subcarrier in the same column."""

    @pytest.mark.parametrize("modulation,rate,subs", [
        ("qam64", "1/2", (-14, -13, -12, -11, -10, -9, -8)),
        ("qam16", "3/4", (-26, -1, 1, 26)),
        ("qpsk", "1/2", (8, 9, 10, 11, 12)),
        ("bpsk", "1/2", wifi.DATA_SUBCARRIERS),
    ])
    def test_transmitter_and_emulation_model_agree(self, modulation, rate, subs):
        mcs = wifi.mcs_config(modulation, rate)
        rng = dsp.make_rng(7)
        n_sym = 4
        points = mcs.constellation.points[rng.integers(0, mcs.constellation.size,
                                                       (n_sym, len(subs)))]
        grid = np.zeros((n_sym, 64), dtype=complex)
        grid[:, wifi.columns(subs)] = points
        grid[:, wifi.columns(wifi.PILOT_SUBCARRIERS)] = wifi.pilot_values(n_sym)
        want = wifi.synthesize(grid).samples
        got = EmulationModel(modulation, subs).synthesize(points)
        assert np.max(np.abs(got - want)) < 1e-13

        # the transmitter's coded points and pilots sit in the model's columns
        psdu = bytes(rng.integers(0, 256, n_sym * mcs.n_dbps // 8).tolist())
        sent = wifi.psdu_grid(psdu, mcs, 0b1010101)
        coded = wifi.coding_chain(wifi.psdu_to_bits(psdu), mcs, 0b1010101)
        symbols = mcs.constellation.map_bits(coded).reshape(n_sym, -1)
        slots = [wifi.DATA_SUBCARRIERS.index(m) for m in subs]
        assert np.array_equal(sent[:, wifi.columns(subs)], symbols[:, slots])
        assert np.array_equal(sent[:, wifi.columns(wifi.PILOT_SUBCARRIERS)],
                              wifi.pilot_values(n_sym))
        tx = wifi.transmit_psdu(psdu, mcs, 0b1010101)
        assert np.array_equal(tx.samples, wifi.synthesize(sent).samples)

        noise = rng.standard_normal((n_sym, 64)) + 1j * rng.standard_normal((n_sym, 64))
        for g in (grid, sent, noise):
            assert np.max(np.abs(wifi.ofdm_analyze(wifi.synthesize(g)) - g)) < 1e-13

    def test_columns_are_dft_indices(self):
        assert wifi.columns([-32, -21, -1, 0, 1, 21, 31]).tolist() == [32, 43, 63, 0, 1, 21, 31]
        assert wifi.columns(-7) == 57
