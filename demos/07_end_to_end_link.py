"""The whole link: ZigBee target -> quantizer (trained or reference rules)
-> GF(2) payload solve -> standard OFDM transmit -> AWGN -> software ZigBee
receiver.  Compares the trained quantizer against the reference rules and
writes a CSV plus a reproducible JSON summary.

Run:  python demos/07_end_to_end_link.py
"""
import dataclasses
import json
import math

from crossphy import sim

cfg = sim.ExperimentConfig(
    payload=bytes(range(32)),
    snr_db=(math.inf, 12.0, 8.0, 4.0, 0.0),
    trials=25,
    epochs=300,
    quantizer_mode="trained",
    emulation_mode="digital",
)

print("== noiseless headline run (trained, digital mode) ==")
plan = sim.plan_frame(cfg)
print(f"trained {plan.train.epochs_run} epochs in {plan.train_seconds:.1f}s; "
      f"solver violations: {len(plan.report.violated_positions)}")
m = sim.run_point(plan, math.inf)
print(f"SER={m.ser}  PRR={m.prr}  chip error rate={m.chip_error_rate:.4f}  "
      f"goodput={m.goodput_kbps:.1f} kbps (this harness's own framing)")

print("\n== quantizer comparison across SNR ==")
plans = {"trained/digital": plan}
for mode, emu in (("trained", "analog"), ("webee", "analog"), ("wide", "analog")):
    c = dataclasses.replace(cfg, quantizer_mode=mode, emulation_mode=emu)
    plans[f"{mode}/{emu}"] = sim.plan_frame(c)

header = f"{'quantizer':18s}" + "".join(f"  snr {s:>4} dB" for s in (12, 8, 4, 0))
print(header + "   (PRR)")
for name, p in plans.items():
    cells = []
    for snr in (12.0, 8.0, 4.0, 0.0):
        mm = sim.run_point(p, snr)
        cells.append(f"{mm.prr:11.2f}")
    print(f"{name:18s}" + "".join(cells))

print("\n== sweep to CSV ==")
rows = sim.sweep(dataclasses.replace(cfg, snr_db=(12.0, 6.0, 0.0), trials=10),
                 payload_lens=[8, 32], modes=["trained", "webee", "wide"])
sim.write_csv(rows, "link_sweep.csv")
print(f"wrote {len(rows)} rows to link_sweep.csv")

summary = sim.summary_json(cfg, [m])
with open("link_summary.json", "w") as f:
    json.dump(summary, f, indent=2)
print("wrote link_summary.json (deterministic block + quarantined host info)")
