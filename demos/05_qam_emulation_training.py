"""Training the emulation autoencoder: the per-subcarrier scales start at
the plain normalize-then-nearest rule and improve from there.  Analog mode
matches the waveform up to a complex gain, the error an amplitude-invariant
receiver sees; digital mode matches its instantaneous phase, which is what
the ZigBee receiver actually demodulates.

Run:  python demos/05_qam_emulation_training.py
"""
import numpy as np

from crossphy import emulation as em, sim

# a short ZigBee chip sequence placed 10 subcarriers below band center
payload = bytes.fromhex("a1b2c3d4")
target = sim.make_target(payload, -3.125e6, lead_in_samples=6)
subs = sim.target_subcarriers(-3.125e6, 7)
print(f"target: {len(target)} samples, emulated on subcarriers {subs}")


def hard_reconstruction(model):
    """The waveform of the model's hard decisions on the normalized target
    (at scales 1+0j this is the plain webee rule), synthesized."""
    u, _ = model.normalize(target.samples)
    return model.synthesize(model.const.points[model.decide(u)])


results = {}
for mode in ("analog", "digital"):
    model = em.EmulationModel("qam64", subs)
    u, z = model.normalize(target.samples)
    cfg = sim.ExperimentConfig(epochs=300, learning_rate=1e-2, emulation_mode=mode)
    res = em.train(model, u, z, cfg)
    v = hard_reconstruction(model)
    results[mode] = dict(
        model=model,
        nmse=em.nmse_excluding_cp(v, u),
        phase=em.phase_mse_excluding_cp(v, u),
    )
    print(f"\n{mode} mode: {res.epochs_run} epochs, best at {res.best_epoch}")
    print(f"  soft loss  first->last: {res.loss_history[0]:.5f} -> {res.loss_history[-1]:.5f}")
    # the metric that picks the best epoch: the body error no complex gain
    # removes (analog), the body phase MSE (digital); epoch 0 is the baseline
    print(f"  hard metric epoch 0->best: {res.hard_metric_history[0]:.4f} -> "
          f"{res.best_hard_metric:.4f}")
    r = results[mode]
    print(f"  hard body NMSE {r['nmse']:.4f}, phase MSE {r['phase']:.4f}")

print("\n== against the plain max-abs nearest-point rule ==")
base = em.EmulationModel("qam64", subs)
u, _ = base.normalize(target.samples)
v0 = hard_reconstruction(base)  # scales still at 1+0j
print(f"baseline       : NMSE {em.nmse_excluding_cp(v0, u):.4f}, "
      f"phase {em.phase_mse_excluding_cp(v0, u):.4f}")
for mode in ("analog", "digital"):
    r = results[mode]
    print(f"trained {mode:7s}: NMSE {r['nmse']:.4f}, phase {r['phase']:.4f}")
print("\nBoth modes give up absolute-scale accuracy (the fixed pilots do not")
print("scale with the trained gains): analog for the waveform up to a gain,")
print("digital for phase, and the amplitude-invariant receiver rewards both.")

print("\n== learned scales (exportable to the scaled-nearest rule) ==")
s = results["digital"]["model"].scale.scale
with np.printoptions(precision=3, suppress=True):
    print(s)
