"""Inverting the coding chain over GF(2): from intended constellation
points to the PSDU bytes that make the standard transmitter produce them.

Run:  python demos/06_payload_solver.py
"""
import numpy as np

from crossphy import dsp, solver, wifi

mcs = wifi.mcs_config("qam64", "1/2")
seed = wifi.DEFAULT_SCRAMBLER_SEED
subs = (-14, -13, -12, -11, -10, -9, -8)
rng = dsp.make_rng(6)

print("== the generator matrix ==")
n = 2 * mcs.n_dbps
G, c = solver.build_generator(n, mcs, seed)
print(f"G is {G.shape[0]} x {G.shape[1]} over GF(2); c carries the scrambler offset")
x = rng.integers(0, 2, n).astype(np.uint8)
print(f"chain(x) == G x + c for random x: "
      f"{np.array_equal(wifi.coding_chain(x, mcs, seed), (G @ x) % 2 ^ c)}")

print("\n== hitting an intended grid exactly ==")
n_sym = 12
intended = rng.integers(0, 64, (n_sym, len(subs)))
rep = solver.solve_payload(intended, mcs, seed, subs)
print(f"{n_sym} OFDM symbols x {len(subs)} subcarriers = "
      f"{n_sym * len(subs) * mcs.n_bpsc} constrained bits, "
      f"{n_sym * mcs.n_dbps} unknowns")
print(f"violations: {len(rep.violated_positions)}  "
      f"perturbed subcarriers: {len(rep.perturbed_subcarriers)}")
grid = wifi.psdu_grid(rep.psdu, mcs, seed)
achieved = mcs.constellation.nearest(grid[:, wifi.columns(subs)])
print(f"transmitted grid carries the intended points: "
      f"{np.array_equal(achieved.reshape(intended.shape), intended)}")
print(f"PSDU: {rep.psdu[:24].hex()}... ({len(rep.psdu)} bytes)")

print("\n== an over-constrained ask ==")
# demand every data subcarrier at BPSK rate 1/2: 48 constraints per symbol
# against 24 unknowns -- impossible by counting, so the solver satisfies a
# maximal consistent subset, sacrificing the lowest-energy bins first
mcs_b = wifi.mcs_config("bpsk", "1/2")
all_subs = wifi.DATA_SUBCARRIERS
intended_b = rng.integers(0, 2, (4, 48))
energy = rng.random((4, 48))
rep_b = solver.solve_payload(intended_b, mcs_b, seed, all_subs, bin_energy=energy)
print(f"constraints {4 * 48}, unknowns {4 * 24} -> "
      f"satisfied {rep_b.satisfied}, violated {len(rep_b.violated_positions)}")
pos = solver.target_bit_positions(mcs_b, all_subs, 4).reshape(-1)
prio = dict(zip(pos.tolist(), np.repeat(energy.reshape(-1), 1).tolist()))
viol = [prio[p] for p in rep_b.violated_positions]
print(f"median energy of violated bins {np.median(viol):.3f} vs all {np.median(energy):.3f}")
print("(violations land preferentially on low-energy bins)")
