"""Reference DSP primitives: the 64-point DFT/IDFT pair, the Parseval link
between time-domain error and frequency-domain error, frequency shifting,
and the seeded AWGN channel.

Run:  python demos/01_reference_dsp.py
"""
import numpy as np

from crossphy import dsp

rng = dsp.make_rng(1)

print("== DFT / IDFT pair ==")
x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
X = x @ dsp.DFT_BASIS.T
back = X @ dsp.IDFT_BASIS.T
print(f"idft(dft(x)) max error: {np.max(np.abs(back - x)):.2e}")

delta = np.zeros(64, dtype=complex)
delta[0] = 1.0
print(f"dft(delta) is flat: max |X[k]-1| = {np.max(np.abs(delta @ dsp.DFT_BASIS.T - 1)):.2e}")

print("\n== Parseval: time MSE vs frequency error ==")
u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
time_mse = np.mean(np.abs(u - v) ** 2)
freq_form = np.sum(np.abs(np.fft.fft(u) - np.fft.fft(v)) ** 2) / 64**2
print(f"(1/N) sum|u-v|^2        = {time_mse:.10f}")
print(f"(1/N^2) sum|U-V|^2      = {freq_form:.10f}")
print(f"relative difference     = {abs(time_mse - freq_form) / time_mse:.2e}")
print("Minimizing the waveform error therefore minimizes the per-bin")
print("distance to whatever values the frequency grid carries -- the fact")
print("the trainable quantizer relies on.")

print("\n== Frequency shift ==")
tone = dsp.ComplexSignal(np.exp(2j * np.pi * 4 / 64 * np.arange(64)), 20e6)
shifted = dsp.frequency_shift(tone, 2 * 20e6 / 64)
print(f"tone at bin 4 shifted by +2 bins -> peak at bin "
      f"{int(np.argmax(np.abs(np.fft.fft(shifted.samples))))}")

print("\n== AWGN calibration ==")
sig = dsp.ComplexSignal(np.exp(1j * rng.uniform(0, 2 * np.pi, 100_000)), 20e6)
for snr in (0.0, 10.0, 20.0):
    noisy = dsp.awgn(sig, snr, dsp.make_rng(42))
    measured = 10 * np.log10(sig.power / np.mean(np.abs(noisy.samples - sig.samples) ** 2))
    print(f"requested {snr:5.1f} dB -> measured {measured:5.2f} dB")
same = dsp.awgn(sig, 10.0, dsp.make_rng(7)).samples
again = dsp.awgn(sig, 10.0, dsp.make_rng(7)).samples
print(f"same seed reproduces noise bit-for-bit: {np.array_equal(same, again)}")
