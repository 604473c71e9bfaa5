"""Workloads, timing loop, output checks and metrics of the crossphy benchmark.

Imported by run.py after it has pinned BLAS threads and put the checkout's
``src/`` first on the import path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from crossphy import sim, wifi, zigbee
from crossphy.dsp import frequency_shift, make_rng
from tracing import Tracer

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

DELTA_F_HZ = -3.125e6  # -10 subcarriers, the paper's default offset
SETUP_REPEATS = 5      # fresh-process set-ups per run; setup_s is their median
LINK_SETUP_PLANS = 3   # link-sweep plans per run; its plan_s is their mean
CHECK_BATCHES = 8      # noiseless trial batches run on each plan's waveform
CHECK_BATCH = 5        # trials per noiseless batch
LINK_TRIALS = 100      # trials per SNR point on link-sweep
PROBE_TIMEOUT_S = 120
HELD_OUT_SEED = 8191   # tune nothing on it; see README.md

# Host speed reference; see "Timing noise" in README.md
REF_NOMINAL_S = 0.010  # reference kernel time at reference speed
REF_SHARE = 0.10       # share of a stretch's time spent on the kernel


@dataclass(frozen=True)
class Workload:
    payload_len: int
    quantizer: str
    emulation: str = "analog"
    ladder: tuple = ()  # SNR points in dB; non-empty for the link workload
    payloads: int = 1   # distinct payloads per run, each planned once a round


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# plan-trained plans six payloads a round: early stopping makes training
# length depend on the payload, and one payload per run would turn that into
# run-to-run spread.
WORKLOADS = {
    "plan-webee": Workload(48, "webee"),
    "plan-trained": Workload(16, "trained", emulation="digital", payloads=6),
    "link-sweep": Workload(32, "webee", ladder=(math.inf, 8.0, 4.0, 0.0)),
}


def payload_for(seed: int, length: int, k: int = 0) -> bytes:
    """Payload ``k`` of a run.  The first is drawn exactly as ``sim.sweep``
    draws it; later ones come from their own spawned streams."""
    rng = make_rng(seed, 0xBEEF, length, *((k,) if k else ()))
    return bytes(rng.integers(0, 256, length).tolist())


def experiment(wl: Workload, seed: int, k: int = 0) -> sim.ExperimentConfig:
    return sim.ExperimentConfig(
        payload=payload_for(seed, wl.payload_len, k),
        delta_f_hz=DELTA_F_HZ,
        modulation="qam64",
        coding_rate="1/2",
        quantizer_mode=wl.quantizer,
        emulation_mode=wl.emulation,
        snr_db=wl.ladder or (math.inf,),
        trials=LINK_TRIALS if wl.ladder else CHECK_BATCH,
        seed=seed,
    )


def warm_up(wl: Workload, seed: int) -> None:
    """Fill lazy caches and first-call paths with a small plan and trial."""
    cfg = experiment(wl, seed)
    cfg = replace(cfg, payload=cfg.payload[:8], epochs=3, trials=1)
    sim.run_point(sim.plan_frame(cfg), math.inf)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

class Speed:
    """Host speed over a stretch of a run, sampled between its operations.

    The reference kernel is fixed work in the program's own mix: an
    interpreter loop, FFTs, a FIR filter and 64-bit shift/XOR passes.
    ``tick`` runs it until it has taken ``REF_SHARE`` of the time since the
    first tick, so its samples spread over the stretch however long the
    operations are.  ``factor`` rescales wall times measured in the stretch
    to the reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        self._taps = rng.standard_normal(64)
        self._xr = rng.standard_normal(20000)
        self._bits = rng.integers(0, 2**63, 20000, dtype=np.uint64)
        self.samples: list[float] = []
        self.t0 = None
        self.spent = 0.0

    def kernel(self) -> None:
        s = 0
        for i in range(30000):
            s += i ^ (i >> 3)
        for _ in range(12):
            np.fft.ifft(np.fft.fft(self._x))
        for _ in range(3):
            np.convolve(self._xr, self._taps, mode="same")
        y = self._bits.copy()
        for i in range(200):
            y ^= y >> np.uint64(i % 63)

    def tick(self) -> None:
        if self.t0 is None:
            self.t0 = time.perf_counter()
        while (not self.samples
               or self.spent < REF_SHARE * (time.perf_counter() - self.t0)):
            t0 = time.perf_counter()
            self.kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# output checks, made from outside the program
# ---------------------------------------------------------------------------

def check_plan(plan: sim.FramePlan) -> list[str]:
    """Problems with a plan; an empty list means every check passed."""
    cfg, rep = plan.config, plan.report
    mcs = cfg.mcs
    b = mcs.n_bpsc
    n_sym = plan.index_grid.shape[0]
    slots = np.array([wifi.DATA_SUBCARRIERS.index(sc) for sc in plan.subcarriers])
    # interleaved coded-bit positions feeding each target bin, MSB-first labels
    pos = (np.arange(n_sym)[:, None, None] * mcs.n_cbps
           + slots[None, :, None] * b + np.arange(b)[None, None, :]).reshape(-1)
    want = ((plan.index_grid[..., None] >> np.arange(b - 1, -1, -1)) & 1).reshape(-1)
    coded = wifi.coding_chain(wifi.psdu_to_bits(rep.psdu), mcs, cfg.scrambler_seed)
    claimed = ~np.isin(pos, rep.violated_positions)
    problems = []
    missed = int(np.count_nonzero(coded[pos][claimed] != want[claimed]))
    if missed:
        problems.append(f"{missed} constraint bits reported satisfied are not hit")
    if rep.satisfied != int(claimed.sum()):
        problems.append(f"report claims {rep.satisfied} satisfied bits, "
                        f"{int(claimed.sum())} are not listed as violated")
    tx = wifi.transmit_psdu(rep.psdu, mcs, cfg.scrambler_seed)
    if len(tx) != len(plan.target):
        problems.append(f"transmit length {len(tx)} != target length {len(plan.target)}")
    elif not np.array_equal(tx.samples, plan.tx.samples):
        problems.append("plan waveform differs from a fresh transmit of its PSDU")
    res = zigbee.decode_frame(frequency_shift(tx, -cfg.delta_f_hz),
                              expected_payload=cfg.payload)
    if not res.detected or res.payload != cfg.payload:
        problems.append("noiseless decode does not return the payload")
    return problems


def plan_outputs(plan: sim.FramePlan) -> dict:
    """The deterministic outputs of a plan, for repeat checks and the digest."""
    return {
        "psdu": plan.report.psdu.hex(),
        "index_grid": hashlib.sha256(
            np.ascontiguousarray(plan.index_grid, dtype=np.int64).tobytes()).hexdigest(),
        "violated": len(plan.report.violated_positions),
        "phase_mse_body": plan.phase_mse_body,
    }


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed; an operation is a plan or a trial."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops: int, problems: list[str]) -> bool:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)
            for p in problems:
                print(f"crossbench: FAILED: {p}", file=sys.stderr)
        return not problems


def guarded(fn, *args):
    """(result, seconds, problems): an exception becomes a problem."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
        return out, time.perf_counter() - t0, []
    except Exception:  # a failed operation is counted, not fatal
        return None, 0.0, [traceback.format_exc(limit=3).strip()]


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it has imported the
    program and warmed up.  The child prints the monotonic clock when it is
    ready; waiting for its exit would add the exit and a polling delay."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=PROBE_TIMEOUT_S)
    return float(out.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# the workloads' timed loops
# ---------------------------------------------------------------------------

class Session:
    """One run: the timed loop, checks, raw samples and the host speed."""

    def __init__(self, name: str, seed: int, seconds: float, tracer: Tracer | None):
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.tracer = tracer
        self.cfgs = [experiment(self.wl, seed, k) for k in range(self.wl.payloads)]
        self.tally = Tally()
        self.speeds: dict[str, Speed] = {}  # host speed per stretch of the run
        self.speed: Speed | None = None     # the stretch being measured
        self.plan_s: list[float] = []        # untraced plan_frame wall times
        self.traced_s: list[float] = []      # traced op wall times
        self.untraced_op_s: list[float] = []  # untraced op wall times, same unit
        self.trial_s = 0.0                   # wall time of the untraced timed trials
        self.trials = 0
        self.traced_units = 0
        self.plans: dict[int, sim.FramePlan] = {}  # first plan of each payload
        self.outputs: dict[int, dict] = {}         # and its deterministic outputs
        self.links: dict[int, list] = {}           # trial metrics per payload

    def stretch(self, name: str) -> None:
        """Sample the host speed for a new stretch of the run from here on."""
        self.speed = self.speeds[name] = Speed()
        self.speed.tick()

    def repeat_check(self, table: dict, k: int, value, what: str) -> list[str]:
        """Keep the first value per payload; later repeats must equal it."""
        if k not in table:
            table[k] = value
        elif table[k] != value:
            return [f"{what} differ between repeats of one config"]
        return []

    # -- one plan, checked --------------------------------------------------

    def plan_once(self, k: int, traced: bool):
        if traced:
            with self.tracer.installed(), self.tracer.operation("bench.plan"):
                plan, dt, problems = guarded(sim.plan_frame, self.cfgs[k])
        else:
            plan, dt, problems = guarded(sim.plan_frame, self.cfgs[k])
        self.speed.tick()
        if not problems:
            problems = check_plan(plan)
        if not problems:
            problems = self.repeat_check(self.outputs, k, plan_outputs(plan), "plan outputs")
            self.plans.setdefault(k, plan)
        if self.tally.record(1, problems):
            (self.traced_s if traced else self.plan_s).append(dt)
            return plan
        return None

    def noiseless_trials(self, k: int, plan):
        """Batches of channel trials of the plan's own waveform, noise off."""
        for _ in range(CHECK_BATCHES):
            m, dt, problems = guarded(sim.run_point, plan, math.inf)
            self.speed.tick()
            if not problems:
                problems = self.repeat_check(self.links, k, [m.as_dict()],
                                             "noiseless trial metrics")
            if self.tally.record(CHECK_BATCH, problems):
                self.trial_s += dt
                self.trials += CHECK_BATCH

    # -- loops --------------------------------------------------------------

    def missing(self) -> bool:
        """True while the run lacks an untraced op, or a traced one when tracing."""
        return not self.untraced_op_s or (self.tracer is not None and not self.traced_s)

    def more(self, t0: float, steps: int, step_s: float) -> bool:
        """Start another step if it should end within the run's time, judged
        by the last step's duration.  The first step always starts, and up
        to four do while an operation the run needs is missing."""
        if steps == 0 or time.perf_counter() - t0 + step_s <= self.seconds:
            return True
        return self.missing() and steps < 4

    def run_plans(self):
        """Rounds over the run's payloads: each is planned untraced (then its
        noiseless trials run) and, when tracing, once more traced.  Whole
        rounds keep per-plan averages independent of the round count."""
        self.untraced_op_s = self.plan_s
        self.stretch("loop")
        t0 = time.perf_counter()
        rounds, round_s = 0, 0.0
        while self.more(t0, rounds, round_s):
            rounds += 1
            r0 = time.perf_counter()
            for k in range(len(self.cfgs)):
                plan = self.plan_once(k, traced=False)
                if plan is not None:
                    self.noiseless_trials(k, plan)
                if self.tracer is not None:
                    self.plan_once(k, traced=True)
            round_s = time.perf_counter() - r0
        self.traced_units = len(self.traced_s)

    def ladder_pass(self, traced: bool):
        """One pass over the SNR ladder; its time is the sum of its points."""
        plan = self.plans[0]
        results, problems, dt = [], [], 0.0
        for snr in self.wl.ladder:
            if traced:
                with self.tracer.operation("bench.run_point"):
                    m, t, p = guarded(sim.run_point, plan, snr)
            else:
                m, t, p = guarded(sim.run_point, plan, snr)
            self.speed.tick()
            results.append(None if p else m.as_dict())
            problems.extend(p)
            dt += t
        if not problems:
            problems = self.repeat_check(self.links, 0, results, "ladder metrics")
        n = self.cfgs[0].trials * len(self.wl.ladder)
        if self.tally.record(n, problems):
            if traced:
                self.traced_s.append(dt)
                self.traced_units += n
            else:
                self.untraced_op_s.append(dt)
                self.trial_s += dt
                self.trials += n

    def run_ladder(self):
        self.stretch("loop")
        t0 = time.perf_counter()
        i, step_s = 0, 0.0
        while self.more(t0, i, step_s):
            traced = self.tracer is not None and i % 2 == 1
            i += 1
            s0 = time.perf_counter()
            if traced:
                with self.tracer.installed():
                    self.ladder_pass(traced)
            else:
                self.ladder_pass(traced)
            step_s = time.perf_counter() - s0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(s: Session, probes: list[float], setup_plan_s: list[float]) -> dict:
    """Times are wall times rescaled to the reference speed of the stretch
    they were measured in (see Speed)."""
    plans = list(s.plans.values())
    links = [m for ms in s.links.values() for m in ms]
    satisfied = sum(p.report.satisfied for p in plans)
    violated = sum(len(p.report.violated_positions) for p in plans)
    f = {name: speed.factor() for name, speed in s.speeds.items()}
    setup_plan = statistics.fmean(setup_plan_s) * f["setup_plans"] if setup_plan_s else 0.0
    return {
        "setup_s": statistics.median(probes) * f["probes"] + setup_plan,
        "plan_s": statistics.fmean(s.plan_s) * f["loop"] if s.plan_s else setup_plan,
        "trials_per_s": s.trials / s.trial_s / f["loop"] if s.trial_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (s.tally.attempted - s.tally.failed) / s.tally.attempted,
        "constraint_hit_ratio": satisfied / (satisfied + violated),
        "phase_mse_body": statistics.fmean(p.phase_mse_body for p in plans),
        "prr": statistics.fmean(m["prr"] for m in links),
        "chip_error_rate": statistics.fmean(m["chip_error_rate"] for m in links),
    }


# time metric -> (span name, inclusive "total_s" or "self_s")
LAYER_TIMES = {
    "gf2.eliminate_s": ("gf2.eliminate", "total_s"),
    "solver.solve_payload_s": ("solver.solve_payload", "total_s"),
    "solver.self_s": ("solver.solve_payload", "self_s"),
    "emulation.train_s": ("emulation.train", "total_s"),
    "emulation.forward_s": ("emulation.EmulationModel.forward", "total_s"),
    "emulation.backward_s": ("emulation.EmulationModel.backward", "total_s"),
    "emulation.hard_forward_s": ("emulation.EmulationModel.hard_forward", "total_s"),
    "emulation.infer_symbols_s": ("emulation.EmulationModel.infer_symbols", "total_s"),
    "sim.make_target_s": ("sim.make_target", "total_s"),
    "sim.baseline_quantize_s": ("sim.baseline_quantize", "total_s"),
    "wifi.ofdm_analyze_s": ("wifi.ofdm_analyze", "total_s"),
    "wifi.transmit_psdu_s": ("wifi.transmit_psdu", "total_s"),
    "zigbee.decode_frame_s": ("zigbee.decode_frame", "total_s"),
    "zigbee.channel_filter_s": ("zigbee.channel_filter", "total_s"),
    "dsp.awgn_s": ("dsp.awgn", "total_s"),
    "dsp.frequency_shift_s": ("dsp.frequency_shift", "total_s"),
    "sim.run_point_self_s": ("sim.run_point", "self_s"),
}
LAYER_CALLS = {
    "gf2.eliminate_calls": "gf2.eliminate",
    "solver.solve_payload_calls": "solver.solve_payload",
    "emulation.train_calls": "emulation.train",
    "wifi.ofdm_analyze_calls": "wifi.ofdm_analyze",
    "wifi.coding_chain_calls": "wifi.coding_chain",
    "zigbee.decode_frame_calls": "zigbee.decode_frame",
    "zigbee.channel_filter_calls": "zigbee.channel_filter",
}


def _eliminate_rows(tr, args, kwargs, result):
    tr.count("gf2.eliminate_rows", len(args[0] if args else kwargs["rows_words"]))


def _solve_report(tr, args, kwargs, rep):
    tr.count("solver.rank", rep.rank)
    tr.count("solver.constraint_rows", rep.satisfied + len(rep.violated_positions))
    tr.count("solver.violated_rows", len(rep.violated_positions))


def _train_result(tr, args, kwargs, res):
    tr.count("emulation.epochs", res.epochs_run)
    tr.count("emulation.best_epoch", res.best_epoch)


def _decode_result(tr, args, kwargs, res):
    tr.count("zigbee.detected", bool(res.detected))


def make_tracer() -> Tracer:
    return Tracer(
        hooks={
            "gf2.eliminate": _eliminate_rows,
            "solver.solve_payload": _solve_report,
            "emulation.train": _train_result,
            "zigbee.decode_frame": _decode_result,
        },
        memory=("solver.solve_payload",),
    )


def per_layer(s: Session) -> dict:
    """Per-layer values per operation unit: per plan on plan workloads, per
    trial on link-sweep.  Only spans inside traced operations count."""
    tr = s.tracer
    units = s.traced_units
    totals = tr.totals()

    def get(span, key):
        return totals[span][key] if span in totals else 0.0

    out = {m: get(span, key) / units for m, (span, key) in LAYER_TIMES.items()}
    out.update({m: get(span, "calls") / units for m, span in LAYER_CALLS.items()})
    for key in ("gf2.eliminate_rows", "solver.rank", "solver.constraint_rows",
                "solver.violated_rows", "emulation.epochs", "emulation.best_epoch",
                "zigbee.detected"):
        out[key] = tr.counts.get(key, 0.0) / units
    out["solver.peak_alloc_mb"] = tr.peaks.get("solver.solve_payload", 0.0)
    rows = out["solver.constraint_rows"]
    out["solver.satisfied_ratio"] = (rows - out["solver.violated_rows"]) / rows if rows else 0.0
    epochs = out["emulation.epochs"]
    out["emulation.epoch_ms"] = 1000.0 * out["emulation.train_s"] / epochs if epochs else 0.0
    calls = out["zigbee.decode_frame_calls"]
    out["zigbee.detect_ratio"] = out["zigbee.detected"] / calls if calls else 0.0

    # means, like the layer times above, so that the shares add up
    op_unit = units / len(s.traced_s)  # a plan, or one ladder pass of trials
    op_s = sum(s.traced_s) / units
    out["op.traced_s"] = op_s
    out["op.untraced_s"] = statistics.fmean(s.untraced_op_s) / op_unit
    out["trace.overhead_ratio"] = op_s / out["op.untraced_s"] - 1.0
    for share, m in (("solver.solve_payload_share", "solver.solve_payload_s"),
                     ("emulation.train_share", "emulation.train_s"),
                     ("zigbee.decode_frame_share", "zigbee.decode_frame_s")):
        out[share] = out[m] / op_s
    return out


# ---------------------------------------------------------------------------
# provenance, digest, result
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(root),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loop": "closed, one caller",
    }


def compare_digest(workload: str, seed: int, value: str, record: bool) -> str:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    known = table.get(workload, {}).get(str(seed))
    if record:
        table.setdefault(workload, {})[str(seed)] = value
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    if known is None:
        return "not recorded for this seed"
    return "matches the recorded digest" if known == value else \
        f"OUTPUTS CHANGED (recorded {known})"


def metric_specs(root: Path, key: str) -> list[dict]:
    return json.loads((root / "BENCHMARK.json").read_text())[key]


def run(args, root: Path) -> int:
    t_start = time.perf_counter()
    tracer = make_tracer() if args.trace else None
    s = Session(args.workload, args.seed, args.seconds, tracer)

    # set-up: fresh-process probes (untraced runs only), warm-up, and the
    # link workload's plan, which its trials need
    probes = []
    if not tracer:
        s.stretch("probes")
        for _ in range(SETUP_REPEATS):
            probes.append(probe_setup(args.workload, args.seed))
            s.speed.tick()
    warm_up(s.wl, args.seed)
    setup_plan_s = []
    if s.wl.ladder:
        s.stretch("setup_plans")
        for _ in range(1 if tracer else LINK_SETUP_PLANS):
            s.plan_once(0, traced=False)
        setup_plan_s, s.plan_s = s.plan_s, []
        if not s.plans:
            print("crossbench: the link plan failed; no trials to run", file=sys.stderr)
            return 1
        s.run_ladder()
    else:
        s.run_plans()
    if s.missing():
        print("crossbench: no operation of the timed loop succeeded", file=sys.stderr)
        return 1
    outputs = {"plans": [s.outputs.get(k) for k in range(len(s.cfgs))],
               "links": [s.links.get(k) for k in range(len(s.cfgs))]}
    dig = digest(outputs)
    verdict = compare_digest(args.workload, args.seed, dig, args.record)
    prov = provenance(root, args.seed)

    if tracer:
        values, specs = per_layer(s), metric_specs(root, "per_layer")
    else:
        values, specs = end_to_end(s, probes, setup_plan_s), metric_specs(root, "end_to_end")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in specs}

    result = {"correct": s.tally.failed == 0, "attempted": s.tally.attempted,
              "failed": s.tally.failed, "metrics": metrics}
    out_dir = root / ".crossbench"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"provenance": prov, "digest": dig, "digest_verdict": verdict,
              "outputs": outputs, "samples": {
                  "setup_probe_s": probes, "setup_plan_s": setup_plan_s,
                  "plan_s": s.plan_s, "traced_op_s": s.traced_s,
                  "untraced_op_s": s.untraced_op_s,
                  "trials": s.trials, "trial_s": s.trial_s,
                  "reference_s": {n: sp.samples for n, sp in s.speeds.items()},
                  "speed_factor": {n: sp.factor() for n, sp in s.speeds.items()}},
              "problems": s.tally.problems, "result": result,
              "wall_s": time.perf_counter() - t_start}
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(f"{stem}.spans.jsonl")

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"digest {args.workload} seed {args.seed}: {dig} ({verdict})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
