"""The OFDM data-field transmitter: scrambling, convolutional coding,
interleaving, Gray QAM, pilots, IDFT and cyclic prefix -- and the property
the payload solver depends on: the whole bit chain is affine over GF(2).
Bins are indexed in plain DFT order, subcarrier m at ``wifi.columns(m)``.

Run:  python demos/03_wifi_transmitter.py
"""
import numpy as np

from crossphy import dsp, wifi

mcs = wifi.mcs_config("qam64", "1/2")
print(f"MCS {mcs.name}: {mcs.n_bpsc} bits/subcarrier, {mcs.n_cbps} coded / "
      f"{mcs.n_dbps} payload bits per OFDM symbol")

rng = dsp.make_rng(4)
psdu = bytes(rng.integers(0, 256, 18 * 4).tolist())
grid = wifi.psdu_grid(psdu, mcs)
sig = wifi.synthesize(grid)
print(f"{len(psdu)}-byte PSDU -> {len(grid)} OFDM symbols -> {len(sig)} samples")

blocks = sig.samples.reshape(-1, 80)
print(f"cyclic prefix exact: max |s[0:16] - s[64:80]| = "
      f"{np.max(np.abs(blocks[:, :16] - blocks[:, 64:])):.1e}")

pilots = grid[:, wifi.columns(wifi.PILOT_SUBCARRIERS)]
print(f"pilot values, first 4 symbols:\n{pilots[:4].real}")

cols = wifi.columns(wifi.DATA_SUBCARRIERS)
power = np.mean(np.abs(grid[:, cols]) ** 2)
print(f"mean data-bin power: {power:.4f} (normalized constellations)")

print("\n== demodulating our own waveform reproduces the coded bits ==")
const = mcs.constellation
bits = np.array(const.labels())[const.nearest(wifi.ofdm_analyze(sig)[:, cols])].reshape(-1)
expected = wifi.coding_chain(wifi.psdu_to_bits(psdu), mcs, wifi.DEFAULT_SCRAMBLER_SEED)
print(f"bit-exact: {np.array_equal(bits, expected)}")

print("\n== the chain is affine over GF(2) ==")
n = 2 * mcs.n_dbps
f = lambda x: wifi.coding_chain(x, mcs, wifi.DEFAULT_SCRAMBLER_SEED)
f0 = f(np.zeros(n, dtype=np.uint8))
x1 = rng.integers(0, 2, n).astype(np.uint8)
x2 = rng.integers(0, 2, n).astype(np.uint8)
lhs = f(x1 ^ x2) ^ f0
rhs = (f(x1) ^ f0) ^ (f(x2) ^ f0)
print(f"f(x1^x2)^f(0) == (f(x1)^f(0))^(f(x2)^f(0)): {np.array_equal(lhs, rhs)}")
print("so chain(x) = G x + c, and choosing coded bits reduces to solving a")
print("linear system over GF(2) -- see demo 06.")
