"""Property tests of the receiver: the overlap-save channel filter against
the direct convolution, a frame decoder that never raises on a finite
input, and the bit-count sync search against the direct correlations."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from crossphy import dsp, zigbee  # noqa: E402
from zigbee_oracle import loop_sync_search  # noqa: E402


@settings(derandomize=True, max_examples=120, deadline=None)
@given(fs_hz=st.sampled_from([4e6, 20e6, 80e6, 200e6]), n=st.integers(0, 5000),
       seed=st.integers(0, 2**32 - 1), real_only=st.booleans())
def test_filter_matches_the_direct_convolution(fs_hz, n, seed, real_only):
    # at 200 MHz the 1,291 taps are more than a 1,024-sample block holds
    rng = dsp.make_rng(seed)
    x = rng.standard_normal(n) + (0j if real_only else 1j * rng.standard_normal(n))
    taps = zigbee._rx_taps(fs_hz)
    half = (len(taps) - 1) // 2
    got = zigbee.channel_filter(dsp.ComplexSignal(x, fs_hz)).samples
    assert got.shape == (n,)
    if not n:
        return
    want = np.convolve(x, taps)[half : half + n]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(taps)) * np.max(np.abs(x))
    if real_only:
        # a part that is all zero stays exactly zero, as in the direct sums
        assert not np.any(got.imag)


# Inputs reach every finite value whose filtered samples are finite too: a
# filtered part is at most sum|taps| times the part's largest value.
_TAPS = zigbee._rx_taps(20e6)
_MAX_PART = np.finfo(np.float64).max / np.sum(np.abs(_TAPS))
_SCALES = st.sampled_from([1e-310, 1e-300, 1e-6, 1.0, 1e6, 1e300, _MAX_PART / 64])


@st.composite
def _frames(draw):
    """Real frames, delayed, rotated, chip-flipped, noisy and cut short."""
    payload = draw(st.binary(max_size=24))
    chips = zigbee.symbols_to_chips(zigbee.build_frame(payload)).copy()
    flips = draw(st.lists(st.integers(0, len(chips) - 1), max_size=60))
    chips[flips] ^= 1
    sig = zigbee.oqpsk_modulate(chips)
    lead_in = draw(st.integers(0, 1000))
    x = np.concatenate([np.zeros(lead_in), sig.samples])
    x = x[: draw(st.one_of(st.just(20000), st.integers(0, 20000)))]
    snr_db = draw(st.one_of(st.just(math.inf), st.floats(-10, 30)))
    if snr_db != math.inf and np.any(x):
        rng = dsp.make_rng(draw(st.integers(0, 99)))
        x = dsp.awgn(dsp.ComplexSignal(x, 20e6), snr_db, rng).samples
    return x * draw(st.sampled_from([1, 1j, -1, -1j])) * draw(_SCALES), payload


@st.composite
def _noise(draw):
    n = draw(st.one_of(st.integers(0, 20000), st.sampled_from([3199, 3200, 3201, 20000])))
    rng = dsp.make_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * draw(_SCALES), None


_FINITE = st.complex_numbers(max_magnitude=_MAX_PART, allow_nan=False, allow_infinity=False)


@st.composite
def _arrays(draw):
    return draw(arrays(np.complex128, st.integers(0, 400), elements=_FINITE)), None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=st.one_of(_frames(), _noise(), _arrays()), compare=st.booleans())
def test_decode_frame_never_raises(case, compare):
    x, payload = case
    expected = payload if compare and payload is not None else None
    res = zigbee.decode_frame(dsp.ComplexSignal(x, 20e6), expected_payload=expected)
    if res.detected:
        assert res.sync_corr >= zigbee.SYNC_THRESHOLD
        assert res.payload is None or isinstance(res.payload, bytes)
    else:
        assert res.payload is None and 0.0 <= res.sync_corr < zigbee.SYNC_THRESHOLD


@st.composite
def _one_length(draw):
    """Several inputs of one length: frames at any delay, cut anywhere (the
    offsets past the cut hold one chip fewer), noisy or not, rotated or
    real-only, and lengths below the 320-chip pattern."""
    n = draw(st.one_of(st.integers(0, 3199), st.integers(3200, 10000),
                       st.sampled_from([3201, 3209, 5003])))
    inputs = []
    for _ in range(draw(st.integers(2, 5))):
        payload = draw(st.binary(max_size=8))
        frame = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(zigbee.build_frame(payload))).samples
        lead_in = draw(st.integers(0, 400))
        x = np.concatenate([np.zeros(lead_in), frame, np.zeros(n)])[:n]
        rng = dsp.make_rng(draw(st.integers(0, 2**32 - 1)))
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = x * draw(st.sampled_from([1, 1j, -1])) + draw(st.sampled_from([0.0, 0.3, 1.0])) * noise
        if draw(st.booleans()):
            x = x.real + 0j
        inputs.append((x, payload))
    return inputs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(inputs=_one_length())
def test_reused_work_arrays_change_no_output(inputs):
    # one work object across every input, as a trial thread reuses it; each
    # call finds the stale arrays of the one before
    work = dsp.WorkArrays()
    for k, (x, payload) in enumerate(inputs):
        sig = dsp.ComplexSignal(x, 20e6)
        if np.any(x):
            want = dsp.awgn(sig, 4.0, dsp.make_rng(k)).samples
            got = dsp.awgn(sig, 4.0, dsp.make_rng(k), work).samples
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        want = zigbee.channel_filter(sig)
        rx = zigbee.channel_filter(sig, work=work)  # in the work, as run_point filters
        assert np.array_equal(rx.samples.view(np.uint64), want.samples.view(np.uint64))
        if not np.any(x.imag):
            assert not np.any(rx.samples.imag)
        assert (repr(zigbee.decode_frame(rx, payload, prefiltered=True, work=work))
                == repr(zigbee.decode_frame(want, payload, prefiltered=True)))
        assert repr(zigbee.decode_frame(sig, payload, work=work)) == repr(zigbee.decode_frame(sig, payload))


@st.composite
def _sync_inputs(draw):
    """``(x, spc)``: frames at 2, 3, 4 and 10 samples a chip (at 3 the work
    arrays' byte sizes are no multiple of 8), delayed, rotated, noisy,
    filtered or not and cut anywhere near the 320-chip pattern length or up
    to 6,000 samples, with exact +0.0 and -0.0 parts; or constant signals,
    whose correlations all tie."""
    spc = draw(st.sampled_from([2, 3, 4, 10]))
    n = draw(st.one_of(st.integers(3190, 3260), st.integers(0, 6000),
                       st.integers(320 * spc - 12, 321 * spc + 12)))
    rng = dsp.make_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = np.full(n, draw(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1j, complex(-0.0, 3.0)])),
                    dtype=complex)
        return x, spc
    payload = bytes(rng.integers(0, 256, draw(st.integers(0, 6))).tolist())
    # a whole frame, or the sync fields alone: cut a chip late, the odd-lag
    # match lacks a chip at the late offsets
    symbols = draw(st.sampled_from([zigbee.build_frame(payload), np.array(zigbee.SYNC_SYMBOLS)]))
    frame = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(symbols), 2e6 * spc).samples
    x = np.concatenate([np.zeros(draw(st.integers(0, 3 * spc))), frame, np.zeros(n)])[:n]
    x = x * draw(st.sampled_from([1, 1j, -1, -1j]))
    x = x + draw(st.sampled_from([0.0, 0.5, 2.0])) * (rng.standard_normal(n)
                                                      + 1j * rng.standard_normal(n))
    if n and draw(st.booleans()):
        x = zigbee.channel_filter(dsp.ComplexSignal(x, 2e6 * spc)).samples
    for part in (x.real, x.imag):
        part[rng.integers(0, max(n, 1), n // 50)] = 0.0
        part[rng.integers(0, max(n, 1), n // 50)] = -0.0
    return x, spc


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_sync_inputs(), stale=st.integers(0, 4000))
def test_sync_search_matches_the_direct_correlations(case, stale):
    x, spc = case
    # a work object a larger call left full of its own arrays
    work = dsp.WorkArrays()
    rng = dsp.make_rng(stale)
    zigbee._sync_search(rng.standard_normal(len(x) + stale) + 1j, spc, work)
    assert repr(zigbee._sync_search(x, spc, work)) == repr(loop_sync_search(x, spc)[0])
