import tracemalloc

import numpy as np
import pytest

from crossphy import dsp, zigbee
from crossphy.errors import ConfigError, DomainError
from zigbee_oracle import gather_hard_halves, loop_sync_search, oqpsk_demodulate


class TestFrame:
    def test_empty_payload_header(self):
        syms = zigbee.build_frame(b"")
        assert syms.tolist() == [0] * 8 + [7, 10] + [0, 0]

    def test_single_byte_payload(self):
        syms = zigbee.build_frame(bytes([0xA5]))
        assert syms.tolist()[10:] == [1, 0, 5, 10]

    def test_symbol_count_32_bytes(self):
        assert len(zigbee.build_frame(bytes(32))) == 8 + 2 + 2 + 64

    def test_oversize_rejected(self):
        with pytest.raises(DomainError):
            zigbee.build_frame(bytes(128))

    def test_nibble_roundtrip(self):
        data = bytes(range(0, 250, 7))
        assert zigbee.symbols_to_bytes(zigbee.bytes_to_symbols(data)) == data


class TestChipTable:
    def test_shape_and_binary(self):
        assert zigbee.CHIP_TABLE.shape == (16, 32)
        assert set(np.unique(zigbee.CHIP_TABLE)) <= {0, 1}

    def test_symbols_0_to_7_are_cyclic_shifts_by_4(self):
        t = zigbee.CHIP_TABLE
        for k in range(7):
            assert np.array_equal(np.roll(t[k], 4), t[k + 1])

    def test_symbols_8_to_15_conjugate_odd_chips(self):
        t = zigbee.CHIP_TABLE
        for k in range(8):
            expect = t[k].copy()
            expect[1::2] ^= 1
            assert np.array_equal(expect, t[8 + k])

    def test_pairwise_hamming_distance_at_least_12(self):
        # brute force over all 16x15 ordered pairs
        t = zigbee.CHIP_TABLE
        dmin = 32
        for i in range(16):
            for j in range(16):
                if i != j:
                    dmin = min(dmin, int(np.sum(t[i] != t[j])))
        assert dmin >= 12

    def test_spreading(self):
        chips = zigbee.symbols_to_chips(np.array([0, 15]))
        assert len(chips) == 64
        assert np.array_equal(chips[:32], zigbee.CHIP_TABLE[0])
        assert np.array_equal(chips[32:], zigbee.CHIP_TABLE[15])
        with pytest.raises(DomainError):
            zigbee.symbols_to_chips(np.array([16]))


class TestModulator:
    def test_one_symbol_is_320_samples(self):
        chips = zigbee.symbols_to_chips(np.array([3]))
        sig = zigbee.oqpsk_modulate(chips, 20e6)
        assert len(sig) == 320  # 16 us at 20 MSa/s

    def test_amplitude_bounded_by_one(self):
        rng = dsp.make_rng(5)
        chips = rng.integers(0, 2, 320)
        sig = zigbee.oqpsk_modulate(chips)
        assert np.max(np.abs(sig.samples)) <= 1.0 + 1e-12
        # constant-envelope except the staggered edges
        mid = np.abs(sig.samples[40:-40])
        assert np.min(mid) > 0.7

    def test_incompatible_rate_rejected(self):
        with pytest.raises(ConfigError):
            zigbee.oqpsk_modulate(np.zeros(32, dtype=int), fs_hz=3e6)

    def test_rate_scales_sample_count(self):
        chips = zigbee.symbols_to_chips(np.array([1]))
        assert len(zigbee.oqpsk_modulate(chips, 4e6)) == 64
        assert len(zigbee.oqpsk_modulate(chips, 10e6)) == 160


class TestDemodulator:
    def test_roundtrip_all_symbols(self):
        for s in range(16):
            chips = zigbee.symbols_to_chips(np.array([s] * 3))
            sig = zigbee.oqpsk_modulate(chips)
            _, hard = oqpsk_demodulate(sig)
            assert np.array_equal(hard, chips), f"symbol {s}"

    def test_roundtrip_random_payloads(self):
        rng = dsp.make_rng(6)
        for _ in range(10):
            payload = bytes(rng.integers(0, 256, int(rng.integers(1, 80))).tolist())
            chips = zigbee.symbols_to_chips(zigbee.build_frame(payload))
            sig = zigbee.oqpsk_modulate(chips)
            _, hard = oqpsk_demodulate(sig)
            assert np.array_equal(hard, chips)

    def test_positive_scale_invariance(self):
        rng = dsp.make_rng(7)
        chips = rng.integers(0, 2, 640)
        sig = zigbee.oqpsk_modulate(chips)
        _, h1 = oqpsk_demodulate(sig)
        scaled = dsp.ComplexSignal(sig.samples * 123.4, sig.sample_rate_hz)
        _, h2 = oqpsk_demodulate(scaled)
        assert np.array_equal(h1, h2)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            oqpsk_demodulate(dsp.ComplexSignal(np.ones(5, dtype=complex), 20e6))

    def test_chip_error_rate_at_0db_below_half(self):
        rng = dsp.make_rng(8)
        n_chips = 10**5
        chips = rng.integers(0, 2, n_chips)
        sig = zigbee.oqpsk_modulate(chips)
        noisy = dsp.awgn(sig, 0.0, dsp.make_rng(9))
        _, hard = oqpsk_demodulate(noisy)
        cer = np.mean(hard != chips)
        assert cer < 0.5
        # with the channel filter the coherent sampler does far better
        assert cer < 0.1


class TestDecodeFrame:
    def test_noiseless_roundtrip(self):
        payload = bytes(range(32))
        chips = zigbee.symbols_to_chips(zigbee.build_frame(payload))
        sig = zigbee.oqpsk_modulate(chips)
        res = zigbee.decode_frame(sig, expected_payload=payload)
        assert res.detected
        assert res.payload == payload
        assert res.ser == 0.0
        assert res.chip_error_rate == 0.0

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    def test_quadrant_rotations_recovered(self, theta):
        payload = bytes([17, 34, 51, 68])
        sig = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(zigbee.build_frame(payload)))
        rotated = dsp.ComplexSignal(sig.samples * np.exp(1j * theta), sig.sample_rate_hz)
        res = zigbee.decode_frame(rotated, expected_payload=payload)
        assert res.detected and res.payload == payload and res.ser == 0.0

    def test_delayed_frame_found(self):
        payload = bytes([1, 2, 3])
        sig = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(zigbee.build_frame(payload)))
        delayed = np.concatenate([np.zeros(737, dtype=complex), sig.samples])
        res = zigbee.decode_frame(dsp.ComplexSignal(delayed, sig.sample_rate_hz),
                                  expected_payload=payload)
        assert res.detected and res.payload == payload

    def test_five_chip_errors_per_window_never_flip_symbols(self):
        # min pairwise distance 12 corrects floor((12-1)/2) = 5 chip errors
        rng = dsp.make_rng(10)
        pm_table = 2.0 * zigbee.CHIP_TABLE.astype(float) - 1
        trials = 10**4
        syms = rng.integers(0, 16, trials)
        chips = zigbee.CHIP_TABLE[syms].astype(float) * 2 - 1
        n_err = rng.integers(0, 6, trials)
        for t in range(trials):
            pos = rng.permutation(32)[: n_err[t]]
            chips[t, pos] *= -1
        decided = np.argmax(chips @ pm_table.T, axis=1)
        assert np.array_equal(decided, syms)

    def test_six_chip_errors_can_flip(self):
        # the budget is tight: flipping 6 chips toward a distance-12
        # neighbor lands midway, so the decision can leave the true symbol
        t = zigbee.CHIP_TABLE
        pm_table = 2.0 * t.astype(float) - 1
        pair = next((i, j) for i in range(16) for j in range(16)
                    if i != j and np.sum(t[i] != t[j]) == 12)
        i, j = pair
        diff = np.nonzero(t[i] != t[j])[0]
        flipped = pm_table[i].copy()
        flipped[diff[:6]] *= -1
        scores = pm_table @ flipped
        assert scores[j] >= scores[i]

    def test_pure_noise_not_detected(self):
        trials = 1000
        hits = 0
        for trial in range(trials):
            rng = dsp.make_rng(1000, trial)
            noise = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) / np.sqrt(2)
            res = zigbee.decode_frame(dsp.ComplexSignal(noise, 20e6))
            hits += int(res.detected)
        assert hits / trials < 0.01

    def test_injected_chip_errors_still_decode(self):
        rng = dsp.make_rng(11)
        payload = bytes(rng.integers(0, 256, 16).tolist())
        chips = zigbee.symbols_to_chips(zigbee.build_frame(payload)).copy()
        # up to 5 random flips in every 32-chip window
        for w in range(len(chips) // 32):
            pos = rng.permutation(32)[: rng.integers(0, 6)]
            chips[32 * w + pos] ^= 1
        sig = zigbee.oqpsk_modulate(chips)
        res = zigbee.decode_frame(sig, expected_payload=payload)
        assert res.detected and res.payload == payload and res.ser == 0.0


class TestChannelFilterLength:
    @pytest.mark.parametrize("n", [0, 5, 128])
    def test_output_keeps_input_length(self, n):
        x = dsp.make_rng(20, n).standard_normal(n) + 0j
        out = zigbee.channel_filter(dsp.ComplexSignal(x, 20e6))
        assert len(out) == n

    @pytest.mark.parametrize("n", [5, 128])
    def test_short_input_is_the_zero_padded_filter(self, n):
        x = dsp.make_rng(21, n).standard_normal(n) + 1j * dsp.make_rng(22, n).standard_normal(n)
        padded = np.concatenate([np.zeros(200), x, np.zeros(200)])
        want = np.convolve(padded, zigbee._rx_taps(20e6), mode="same")[200 : 200 + n]
        got = zigbee.channel_filter(dsp.ComplexSignal(x, 20e6)).samples
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", [129, 130, 3201])
    def test_long_input_unchanged(self, n):
        # overlap-save FFT filtering rounds differently from the direct sums
        # (measured at most 2.8e-16 of the bound's scale, 4 to 200 MHz)
        x = dsp.make_rng(23, n).standard_normal(n) + 0.5j
        taps = zigbee._rx_taps(20e6)
        got = zigbee.channel_filter(dsp.ComplexSignal(x, 20e6)).samples
        want = np.convolve(x, taps, mode="same")
        assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(taps)) * np.max(np.abs(x))

    def test_work_arrays_freed_as_it_goes(self):
        # the padded parts go before the inverse FFT, the spectra before the
        # output; with all four alive at once the filter peaked 4.5 signals
        # above its input here
        x = dsp.make_rng(24).standard_normal(34640) + 1j
        sig = dsp.ComplexSignal(x, 20e6)
        zigbee.channel_filter(sig)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            out = zigbee.channel_filter(sig)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(out) == len(x) and peak < 3 * sig.samples.nbytes

    @pytest.mark.parametrize("n", [0, 5, 128, 3199])
    def test_decode_of_too_short_signal_not_detected(self, n):
        x = np.ones(n, dtype=complex)
        res = zigbee.decode_frame(dsp.ComplexSignal(x, 20e6))
        assert not res.detected and res.sync_corr == 0.0 and res.payload is None


class TestNoScipyReceiver:
    """The receiver's filter design is numpy-only; scipy is its oracle."""

    @pytest.mark.parametrize("fs_hz", [2e6 * k for k in range(2, 41, 2)])
    def test_rx_taps_equal_firwin(self, fs_hz):
        from scipy.signal import firwin
        taps = zigbee._rx_taps(fs_hz)
        want = firwin(len(taps), zigbee.RX_FILTER_CUTOFF_HZ, fs=fs_hz)
        assert taps.tobytes() == want.tobytes(), fs_hz

    @pytest.mark.parametrize("fs_hz", [1e6, 2e6, float("inf")])
    def test_rate_outside_the_band_raises(self, fs_hz):
        # at or below twice the cutoff the taps would be garbage, and an
        # infinite rate would overflow the tap count
        with pytest.raises(DomainError, match="sample rate"):
            zigbee._rx_taps(fs_hz)
        with pytest.raises(DomainError, match="sample rate"):
            zigbee.channel_filter(dsp.ComplexSignal(np.ones(64, dtype=complex), fs_hz))

    @pytest.mark.parametrize("fs_hz", [4e6, 20e6, 80e6, 200e6])
    def test_block_is_a_power_of_two_past_the_overlap(self, fs_hz):
        # overlap-save needs only a block longer than the filter
        block, overlap, spectrum = zigbee._rx_blocks(fs_hz)
        assert overlap == len(zigbee._rx_taps(fs_hz)) - 1
        assert block & (block - 1) == 0 and block >= 8 * overlap
        assert len(spectrum) == block // 2 + 1 and not spectrum.flags.writeable
        if fs_hz == 20e6:
            assert block == 1024

    def test_hard_halves_contiguous(self):
        # phase-major memory: the sync search packs each phase as one flat run
        x = _frame(b"\x01\x02", lead_in=7).samples
        assert zigbee._hard_halves(x, 10, 200).transpose(2, 0, 1, 3).flags.c_contiguous


class TestHardHalvesOracle:
    @pytest.mark.parametrize("n", [3200, 3203, 3209, 5000, 5003, 5009, 24570, 24573, 24579])
    def test_equals_the_gather(self, n):
        rng = dsp.make_rng(40, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # exact zeros of either sign in either part: +0 and -0 both read +1 (True)
        x[rng.integers(0, n, 50)] = 0.0
        x.real[rng.integers(0, n, 50)] = -0.0
        x.imag[rng.integers(0, n, 50)] = -0.0
        x[-3:] = [0.0, -0.0, complex(-0.0, -0.0)]
        n_half = (-(-n // 10) + 1) // 2  # _sync_search asks for this or one more
        for nh in (n_half, n_half + 1, n_half + 2, 1, 160):
            assert np.array_equal(zigbee._hard_halves(x, 10, nh),
                                  gather_hard_halves(x, 10, nh) > 0), nh

    @pytest.mark.parametrize("spc", [2, 4, 10])
    def test_other_rates(self, spc):
        x = _frame(bytes([9, 8, 7]), lead_in=3, tail=spc + 1).samples
        n_half = (-(-len(x) // spc) + 1) // 2
        assert np.array_equal(zigbee._hard_halves(x, spc, n_half),
                              gather_hard_halves(x, spc, n_half) > 0)


def _frame(payload, lead_in=0, tail=0):
    sig = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(zigbee.build_frame(payload)))
    x = np.concatenate([np.zeros(lead_in), sig.samples, np.zeros(tail)])
    return dsp.ComplexSignal(x, sig.sample_rate_hz)


def _noisy(sig, snr_db, *key):
    return dsp.awgn(sig, snr_db, dsp.make_rng(30, *key))


def _oracle_cases():
    """(id, signal, expected payload, prefiltered) for the oracle test; a
    prefiltered signal is raw chips the decoder reads unfiltered."""
    payload = bytes(dsp.make_rng(31).integers(0, 256, 16).tolist())
    frame = _frame(payload, lead_in=415, tail=300)  # 41.5 chips: an odd lag
    cases = []
    # the filtered chip sampler syncs raw O-QPSK down to about -8 dB, so
    # the ladder goes below the link's SNRs to reach the failing paths
    for k, snr in enumerate((np.inf, 8.0, 4.0, 0.0, -3.0, -8.0, -12.0, -16.0)):
        for trial in range(4):
            cases.append((f"snr{snr:g}-{trial}", _noisy(frame, snr, k, trial), payload, False))
    short = _frame(bytes([0x5A]))
    for n in (3201, 3209):
        cut = dsp.ComplexSignal(short.samples[:n], short.sample_rate_hz)
        cases.append((f"len{n}", cut, bytes([0x5A]), False))
        cases.append((f"len{n}-noisy", _noisy(cut, 4.0, n), bytes([0x5A]), False))
    cut = dsp.ComplexSignal(_frame(bytes(5)).samples[:5003], 20e6)
    cases.append(("len5003-noisy", _noisy(cut, 4.0, 5003), bytes(5), False))
    for q, rot in enumerate((1, 1j, -1, -1j)):
        rotated = dsp.ComplexSignal(frame.samples * rot, frame.sample_rate_hz)
        cases.append((f"rot{90 * q}", rotated, payload, False))
        cases.append((f"rot{90 * q}-noisy", _noisy(rotated, 4.0, 99, q), payload, False))
    delayed = _frame(bytes([1, 2, 3]), lead_in=737)
    cases.append(("delay737", delayed, bytes([1, 2, 3]), False))
    cases.append(("delay737-noisy", _noisy(delayed, 4.0, 737), bytes([1, 2, 3]), False))
    for trial in range(4):
        rng = dsp.make_rng(32, trial)
        noise = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        cases.append((f"noise-{trial}", dsp.ComplexSignal(noise, 20e6), None, False))
    # sync fields one chip late and cut short of the frame's last chip:
    # the late offsets lack the chip the odd-lag match needs
    sync = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(np.array(zigbee.SYNC_SYMBOLS)))
    late = dsp.ComplexSignal(np.concatenate([np.zeros(10), sync.samples]), 20e6)
    for n in (3201, 3205):
        cut = dsp.ComplexSignal(late.samples[:n], 20e6)
        for trial in range(3):
            noisy = _noisy(cut, 6.0, n, trial)
            cases.append((f"late-len{n}-{trial}", noisy, None, True))
            cases.append((f"late-len{n}-{trial}-filtered", noisy, None, False))
    # exact zeros count as +1 chips: blank part of an unfiltered preamble
    blanked = _frame(bytes([7, 7]), lead_in=300).samples.copy()
    blanked[300:1900] = 0.0
    cases.append(("zeros", dsp.ComplexSignal(blanked, 20e6), bytes([7, 7]), True))
    # unfiltered noiseless chips: every offset inside a chip's pulse peak
    # reads the same signs, so several offsets tie at the top correlation
    for plen in (0, 4):
        cases.append((f"ties-{plen}", _frame(bytes(range(plen))), bytes(range(plen)), True))
    return cases


_ORACLE_CASES = _oracle_cases()


class TestSyncSearchOracle:
    @pytest.mark.parametrize("case", _ORACLE_CASES, ids=[c[0] for c in _ORACLE_CASES])
    def test_decode_matches_the_loop(self, case, monkeypatch):
        _, sig, payload, prefiltered = case
        got = zigbee.decode_frame(sig, expected_payload=payload, prefiltered=prefiltered)
        x = sig.samples if prefiltered else zigbee.channel_filter(sig).samples
        assert repr(zigbee._sync_search(x, 10)) == repr(loop_sync_search(x, 10)[0])
        monkeypatch.setattr(zigbee, "_sync_search",
                            lambda x, spc, work=None: loop_sync_search(x, spc)[0])
        want = zigbee.decode_frame(sig, expected_payload=payload, prefiltered=prefiltered)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("case", _ORACLE_CASES, ids=[c[0] for c in _ORACLE_CASES])
    def test_prefiltered_is_the_filter_skipped(self, case):
        _, sig, payload, _ = case
        assert (repr(zigbee.decode_frame(zigbee.channel_filter(sig), payload, prefiltered=True))
                == repr(zigbee.decode_frame(sig, payload)))

    def test_cases_reach_every_decode_path(self):
        results = [zigbee.decode_frame(sig, expected_payload=p, prefiltered=f)
                   for _, sig, p, f in _ORACLE_CASES]
        assert any(r.detected and r.payload is not None and r.ser == 0.0 for r in results)
        assert any(r.detected and r.payload is not None and r.ser > 0.0 for r in results)
        assert any(r.detected and r.payload is None for r in results)
        assert any(not r.detected for r in results)
        assert {r.start_chip % 2 for r in results if r.detected} == {0, 1}

    @pytest.mark.parametrize("plen", [0, 4])
    def test_tie_cases_tie(self, plen):
        _, peaks = loop_sync_search(_frame(bytes(range(plen))).samples, 10)
        assert sum(p == max(peaks) for p in peaks) > 1


class TestSyncSearchWork:
    def test_a_warm_search_allocates_little(self):
        # the hard chips, words and counts lie in the work regions, so only
        # numpy's cast buffers are left, about 35 KB
        x = zigbee.channel_filter(_noisy(_frame(bytes(range(32)), lead_in=400), 4.0, 32)).samples
        work = dsp.WorkArrays()
        want = zigbee._sync_search(x, 10, work)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            got = zigbee._sync_search(x, 10, work)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()
        assert got == want and want[0] > zigbee.SYNC_THRESHOLD
        assert peak < 64 * 1024
