import math
import tracemalloc

import numpy as np
import pytest

from crossphy import dsp
from crossphy.errors import DimensionError, DomainError
from crossphy.iqfile import read_cf32, write_cf32


def random_signal(rng, n=64, fs=20e6):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return dsp.ComplexSignal(x, fs)


class TestDft:
    def test_delta_gives_flat_spectrum(self):
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        assert np.max(np.abs(dsp.dft(x) - 1.0)) < 1e-12

    def test_all_ones_concentrates_in_bin0(self):
        bins = dsp.dft(np.ones(64))
        assert abs(bins[0] - 64.0) < 1e-12
        assert np.max(np.abs(bins[1:])) < 1e-9

    def test_matches_formula_directly(self):
        rng = dsp.make_rng(11)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        k = 17
        expected = sum(x[n] * np.exp(-2j * np.pi * n * k / 64) for n in range(64))
        assert abs(dsp.dft(x)[k] - expected) / abs(expected) < 1e-12

    def test_inverse_pair(self):
        rng = dsp.make_rng(0)
        for _ in range(20):
            x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert np.max(np.abs(dsp.idft(dsp.dft(x)) - x)) < 1e-9
            X = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert np.max(np.abs(dsp.dft(dsp.idft(X)) - X)) < 1e-9

    def test_idft_of_bin0_is_constant(self):
        X = np.zeros(64, dtype=complex)
        X[0] = 64.0
        assert np.max(np.abs(dsp.idft(X) - 1.0)) < 1e-12
        assert np.max(np.abs(dsp.idft(np.zeros(64)))) == 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            dsp.dft(np.ones(63))
        with pytest.raises(DimensionError):
            dsp.idft(np.ones(65))


class TestFrequencyShift:
    def test_zero_shift_is_identity(self):
        sig = random_signal(dsp.make_rng(1), 256)
        out = dsp.frequency_shift(sig, 0.0)
        assert np.array_equal(out.samples, sig.samples)

    def test_shift_inverts(self):
        sig = random_signal(dsp.make_rng(2), 512)
        out = dsp.frequency_shift(dsp.frequency_shift(sig, 2.5e6), -2.5e6)
        assert np.max(np.abs(out.samples - sig.samples)) < 1e-12

    def test_tone_moves_to_expected_bin(self):
        fs = 20e6
        n = np.arange(64)
        tone = np.exp(2j * np.pi * (4 * fs / 64) * n / fs)  # bin 4 exactly
        sig = dsp.ComplexSignal(tone, fs)
        shifted = dsp.frequency_shift(sig, 2 * fs / 64)  # +2 bins
        bins = dsp.dft(shifted.samples)
        assert int(np.argmax(np.abs(bins))) == 6

    def test_power_preserved(self):
        sig = random_signal(dsp.make_rng(3), 1000)
        out = dsp.frequency_shift(sig, 1.234e6)
        assert abs(out.power - sig.power) / sig.power < 1e-12

    def test_cached_rotation_matches_direct_exp(self):
        sig = random_signal(dsp.make_rng(8), 300)
        n = np.arange(300)
        direct = sig.samples * np.exp(2j * np.pi * -3.125e6 * n / sig.sample_rate_hz)
        for _ in range(2):  # the second call reads the cache
            out = dsp.frequency_shift(sig, -3.125e6)
            assert np.array_equal(out.samples, direct)

    def test_cached_rotation_is_read_only(self):
        rot = dsp._rotation(16, 1e6, 20e6)
        with pytest.raises(ValueError):
            rot[0] = 0.0


class TestAwgn:
    def test_infinite_snr_is_identity(self):
        sig = random_signal(dsp.make_rng(4), 100)
        out = dsp.awgn(sig, math.inf, dsp.make_rng(5))
        assert np.array_equal(out.samples, sig.samples)

    def test_same_seed_bit_identical(self):
        sig = random_signal(dsp.make_rng(6), 100)
        a = dsp.awgn(sig, 10.0, dsp.make_rng(7))
        b = dsp.awgn(sig, 10.0, dsp.make_rng(7))
        assert np.array_equal(a.samples, b.samples)

    def test_empirical_snr_within_half_db(self):
        rng = dsp.make_rng(8)
        n = 10**5
        sig = dsp.ComplexSignal(np.exp(1j * rng.uniform(0, 2 * np.pi, n)), 20e6)
        out = dsp.awgn(sig, 10.0, dsp.make_rng(9))
        noise_power = np.mean(np.abs(out.samples - sig.samples) ** 2)
        measured = 10 * np.log10(sig.power / noise_power)
        assert abs(measured - 10.0) < 0.5

    def test_zero_power_rejected(self):
        sig = dsp.ComplexSignal(np.zeros(8, dtype=complex), 1e6)
        with pytest.raises(DomainError):
            dsp.awgn(sig, 10.0, dsp.make_rng(0))

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_and_minus_inf_snr_rejected(self, snr_db):
        sig = random_signal(dsp.make_rng(12), 16)
        with pytest.raises(DomainError, match="snr_db"):
            dsp.awgn(sig, snr_db, dsp.make_rng(0))


    @pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
    def test_snr_beyond_the_float_range_rejected(self, snr_db):
        # 10^(snr_db/10) was a ZeroDivisionError at -4000, an OverflowError at +4000
        sig = random_signal(dsp.make_rng(19), 16)
        with pytest.raises(DomainError, match="snr_db"):
            dsp.awgn(sig, snr_db, dsp.make_rng(0))

    def test_underflowing_power_is_not_zero_power(self):
        # |1e-300|^2 underflows to 0; the noise is the unit signal's, scaled
        tiny = dsp.ComplexSignal(np.full(1000, 1e-300 + 0j), 1e6)
        unit = dsp.ComplexSignal(np.ones(1000, dtype=complex), 1e6)
        got = dsp.awgn(tiny, 0.0, dsp.make_rng(20)).samples
        want = dsp.awgn(unit, 0.0, dsp.make_rng(20)).samples
        assert np.allclose((got - tiny.samples) / 1e-300, want - 1.0, rtol=1e-12, atol=1e-15)

    def test_empty_signal_stays_empty(self):
        # the mean power of no samples was a "Mean of empty slice" warning
        empty = dsp.ComplexSignal(np.zeros(0, complex), 1e6)
        rng = dsp.make_rng(0)
        out = dsp.awgn(empty, 10.0, rng)
        assert len(out) == 0 and out.sample_rate_hz == 1e6
        assert rng.standard_normal() == dsp.make_rng(0).standard_normal()  # nothing drawn


def formula_awgn(sig, snr_db, rng):
    """``dsp.awgn`` as the complex formula: the reference the in-place
    version must equal bit for bit."""
    var = sig.power / 10.0 ** (snr_db / 10.0)
    n = len(sig.samples)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise *= math.sqrt(var / 2.0)
    return sig.samples + noise


class TestAwgnOracle:
    @pytest.mark.parametrize("n", [1, 24400])
    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 4.0, 8.0, 13.7, 1000.0])
    def test_equals_the_formula_bit_for_bit(self, n, snr_db):
        sig = random_signal(dsp.make_rng(13, n), n)
        got = dsp.awgn(sig, snr_db, dsp.make_rng(14, n)).samples
        want = formula_awgn(sig, snr_db, dsp.make_rng(14, n))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_draws_the_same_stream(self):
        # what a caller draws next from the generator is unchanged too
        sig = random_signal(dsp.make_rng(15), 100)
        a, b = dsp.make_rng(16), dsp.make_rng(16)
        dsp.awgn(sig, 4.0, a)
        formula_awgn(sig, 4.0, b)
        assert a.standard_normal() == b.standard_normal()

    def test_draws_share_one_buffer(self):
        # the real parts' draws, then the imaginary parts', in one n-sample
        # buffer: the (2, n) draws held a whole signal, 2.1 signals at peak
        sig = random_signal(dsp.make_rng(21), 24400)
        dsp.awgn(sig, 4.0, dsp.make_rng(22))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            dsp.awgn(sig, 4.0, dsp.make_rng(22))
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 1.75 * sig.samples.nbytes

    @pytest.mark.parametrize("n", [1, 24400])
    def test_infinite_snr_returns_a_copy(self, n):
        sig = random_signal(dsp.make_rng(17, n), n)
        out = dsp.awgn(sig, math.inf, dsp.make_rng(18))
        assert np.array_equal(out.samples.view(np.uint64), sig.samples.view(np.uint64))
        assert not np.shares_memory(out.samples, sig.samples)


class TestComplexSignal:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            dsp.ComplexSignal(np.array([1.0, np.nan]), 1e6)

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            dsp.ComplexSignal(np.ones(4), 0.0)

    def test_strided_view_is_stored_contiguous(self):
        # was a bare numpy ValueError from the finiteness check's float view
        sig = dsp.ComplexSignal(np.ones(10, complex)[::2], 20e6)
        assert sig.samples.flags.c_contiguous
        assert np.array_equal(sig.samples, np.ones(5))

    def test_rejects_zero_dimensional(self):
        with pytest.raises(DimensionError):
            dsp.ComplexSignal(np.complex128(1.0), 1e6)

    def test_power_computed_once(self, monkeypatch):
        # awgn reads the power of the same transmit signal every trial
        sig = random_signal(dsp.make_rng(23), 100)
        first = sig.power
        monkeypatch.setattr(np, "mean", lambda *a, **k: pytest.fail("power recomputed"))
        assert sig.power == first

    def test_power_of_empty_signal_raises(self):
        # was NaN with numpy's "Mean of empty slice" warning
        empty = dsp.ComplexSignal(np.zeros(0, complex), 1e6)
        with pytest.raises(DimensionError, match="non-empty"):
            empty.power


class TestRng:
    def test_same_seed_same_stream(self):
        a = dsp.make_rng(123).standard_normal(32)
        b = dsp.make_rng(123).standard_normal(32)
        assert np.array_equal(a, b)

    def test_spawn_keys_decorrelate(self):
        a = dsp.make_rng(123, 0).standard_normal(32)
        b = dsp.make_rng(123, 1).standard_normal(32)
        assert not np.array_equal(a, b)


class TestIqFile:
    def test_roundtrip(self, tmp_path):
        sig = random_signal(dsp.make_rng(13), 1000)
        path = tmp_path / "x.cf32"
        write_cf32(path, sig)
        back = read_cf32(path, sig.sample_rate_hz)
        assert len(back) == len(sig)
        # float32 quantization is the only loss
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-6
        assert path.stat().st_size == 8 * len(sig)

    def test_interleaving_is_i_then_q(self, tmp_path):
        sig = dsp.ComplexSignal(np.array([1.0 + 2.0j, -3.0 + 4.0j]), 1e6)
        path = tmp_path / "iq.cf32"
        write_cf32(path, sig)
        raw = np.fromfile(path, dtype="<f4")
        assert raw.tolist() == [1.0, 2.0, -3.0, 4.0]

    def test_odd_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cf32"
        np.ones(3, dtype="<f4").tofile(path)
        with pytest.raises(DimensionError):
            read_cf32(path, 1e6)

    @pytest.mark.parametrize("n_bytes", [3, 7, 9, 13])
    def test_partial_pair_rejected(self, tmp_path, n_bytes):
        path = tmp_path / "cut.cf32"
        path.write_bytes(bytes(n_bytes))
        with pytest.raises(DimensionError):
            read_cf32(path, 1e6)

    def test_empty_file_is_zero_samples(self, tmp_path):
        path = tmp_path / "empty.cf32"
        path.write_bytes(b"")
        assert len(read_cf32(path, 1e6)) == 0
