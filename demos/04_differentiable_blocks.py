"""The differentiable layer kit: DFT/IDFT and cyclic-prefix handling as
fixed-weight linear layers, the soft quantizer, and finite-difference
validation of every backward pass.

Run:  python demos/04_differentiable_blocks.py
"""
import numpy as np

from crossphy import diffblocks as db
from crossphy import dsp
from crossphy.wifi import constellation

rng = dsp.make_rng(5)

print("== cyclic prefix as matrix algebra ==")
wa, wr = db.cp_add_matrix(), db.cp_remove_matrix()
print(f"W_A is {wa.shape}, W_R is {wr.shape}, "
      f"W_R @ W_A == I64: {np.array_equal(wr @ wa, np.eye(64))}")

print("\n== every block's backward is the adjoint of its forward ==")
const = constellation("qam64")
for name, blk in [
    ("dft", db.dft_layer()),
    ("idft", db.idft_layer()),
    ("cp_add", db.cp_add_layer()),
    ("cp_remove", db.cp_remove_layer()),
    ("bin_select", db.bin_select_layer([50, 51, 52, 53, 54, 55, 56])),
    ("complex_scale", db.ComplexScale(7)),
    ("soft_quantize", db.SoftQuantize(const, 7, tau=1.0)),
]:
    print(f"  {name:14s} grad check: {db.grad_check(blk, rng):.2e}")

print("\n== soft quantizer temperature ==")
z = np.array([[0.35 + 0.47j]])
for tau in (10.0, 1.0, 0.1, 0.01):
    blk = db.SoftQuantize(const, 1, tau=tau)
    out = db.unstack_complex(blk.forward(db.stack_complex(z)))[0, 0]
    # the 64 point weights are the outer product of the per-axis weights
    ax, ay = blk.axis_weights
    top = np.max(ax) * np.max(ay)
    print(f"  tau={tau:5.2f}: output {out:.3f}, largest weight {top:.3f}")
hard_idx = const.nearest(z)[0, 0]
print(f"  hard decision: point index {hard_idx} = {const.points[hard_idx]:.3f}")
print("As tau -> 0 the float one-hot collapses onto the nearest standard point.")

print("\n== quantizer-bypassed autoencoder isolates the CP error ==")
# no quantizer and all 64 bins kept: only the cyclic prefix is lost
stack = db.Sequential([db.cp_remove_layer(), db.dft_layer(), db.idft_layer(),
                       db.cp_add_layer()])
x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
out = db.unstack_complex(stack.forward(db.stack_complex(x.reshape(-1, 80)))).reshape(-1)
ib, ob = x.reshape(-1, 80), out.reshape(-1, 80)
print(f"body samples exact to {np.max(np.abs(ob[:, 16:] - ib[:, 16:])):.1e}")
print(f"CP region equals the symbol tail to {np.max(np.abs(ob[:, :16] - ib[:, 64:])):.1e}")
print("The residual emulation error is confined to cyclic-prefix regions.")
