"""End-to-end experiment driver.

Builds a ZigBee target waveform at a subcarrier offset inside the WiFi
baseband, picks constellation points for it (``EmulationModel.decide`` of a
trained or untrained model, or the phase-only ``wide_quantize``), inverts
the coding chain to a PSDU, transmits it through the unmodified OFDM chain,
and runs the software ZigBee receiver over an AWGN channel.

Distance and transmit power, the axes of an over-the-air testbed, are
replaced by the SNR axis here; packet reception requires byte-exact payload
recovery (stricter than a CRC pass).  Noise is seeded per (seed, payload
length, SNR, trial) and never per quantizer mode, so mode comparisons are
paired on identical noise.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import threading
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat

import numpy as np

from . import zigbee
from .dsp import ComplexSignal, WorkArrays, _rotation, awgn, frequency_shift, make_rng
from .emulation import (
    EMULATION_MODES,
    EmulationModel,
    TrainResult,
    nmse_excluding_cp,
    phase_mse_excluding_cp,
    train,
)
from .errors import ConfigError, DimensionError
from .solver import SolveReport, solve_payload
from .wifi import (
    DATA_SUBCARRIERS,
    DEFAULT_SCRAMBLER_SEED,
    N_DATA_SUBCARRIERS,
    SAMPLE_RATE_HZ,
    SUBCARRIER_SPACING_HZ,
    SYMBOL_LEN,
    McsConfig,
    coded_grid,
    columns,
    mcs_config,
    ofdm_analyze,
    synthesize,
)

ZIGBEE_HALF_BANDWIDTH_HZ = 1.5e6  # O-QPSK main lobe half-width
WIFI_HALF_BANDWIDTH_HZ = 10e6

QUANTIZER_MODES = ("trained", "webee", "wide")

# Dead-air samples prepended to the target by default: 6 samples puts only
# one chip-peak sampling instant per OFDM symbol inside the cyclic prefix
# instead of two, roughly halving the irreducible CP chip damage.
DEFAULT_LEAD_IN = 6

# Largest finite |snr_db|: keeps the per-SNR noise stream key of
# ``run_point`` (2**20 + round(1000 snr_db)) non-negative and finite.
MAX_ABS_SNR_DB = 1000.0

# Smallest tau_floor: below it the soft quantizer is a hard decision
# already, and a smaller temperature only overflows the distances it divides.
MIN_TAU = 1e-6


@dataclass
class ExperimentConfig:
    payload: bytes = bytes(range(32))
    delta_f_hz: float = -10 * SUBCARRIER_SPACING_HZ
    modulation: str = "qam64"
    coding_rate: str = "1/2"
    emulation_mode: str = "analog"  # one of EMULATION_MODES
    quantizer_mode: str = "trained"
    snr_db: tuple = (math.inf,)
    trials: int = 1
    seed: int = 0
    epochs: int = 300
    learning_rate: float = 1e-2
    tau_start: float = 1.0
    tau_decay: float = 0.95
    tau_floor: float = 0.05
    target_subcarrier_count: int = 7
    lead_in_samples: int = DEFAULT_LEAD_IN
    scrambler_seed: int = DEFAULT_SCRAMBLER_SEED

    def validate(self) -> None:
        mcs_config(self.modulation, self.coding_rate)  # raises, naming the bad key
        # written so that NaN fails too
        if not abs(self.delta_f_hz) + ZIGBEE_HALF_BANDWIDTH_HZ <= WIFI_HALF_BANDWIDTH_HZ:
            raise ConfigError(f"delta_f_hz {self.delta_f_hz/1e6:g} MHz puts the ZigBee "
                              f"lobe outside the band")
        if self.quantizer_mode not in QUANTIZER_MODES:
            raise ConfigError(f"unknown quantizer_mode {self.quantizer_mode!r}")
        if self.emulation_mode not in EMULATION_MODES:
            raise ConfigError(f"unknown emulation_mode {self.emulation_mode!r}")
        if len(self.payload) > zigbee.MAX_PAYLOAD_BYTES:
            raise ConfigError(f"payload_hex: payload of {len(self.payload)} bytes is longer "
                              f"than {zigbee.MAX_PAYLOAD_BYTES}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.scrambler_seed < 128:
            raise ConfigError(f"scrambler_seed must be in 1..127, got {self.scrambler_seed}")
        if not all(s == math.inf or abs(s) <= MAX_ABS_SNR_DB for s in self.snr_db):
            raise ConfigError(f"snr_db values must be inf or within +-{MAX_ABS_SNR_DB:g} dB, "
                              f"got {list(self.snr_db)}")
        # the lead-in only sets where the chip grid falls within one symbol
        if not 0 <= self.lead_in_samples < SYMBOL_LEN:
            raise ConfigError(f"lead_in_samples must be in 0..{SYMBOL_LEN - 1}, "
                              f"got {self.lead_in_samples}")
        if not 1 <= self.target_subcarrier_count <= N_DATA_SUBCARRIERS:
            raise ConfigError(f"target_subcarrier_count must be in 1..{N_DATA_SUBCARRIERS}, "
                              f"got {self.target_subcarrier_count}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # one Adam step moves the scales (which start at 1+0j) by about this
        if not 0 < self.learning_rate <= 1:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not self.tau_floor >= MIN_TAU:
            raise ConfigError(f"tau_floor must be >= {MIN_TAU:g}, got {self.tau_floor}")
        if not self.tau_start >= self.tau_floor:
            raise ConfigError(f"tau_start must be >= tau_floor ({self.tau_floor}), "
                              f"got {self.tau_start}")
        if not 0 < self.tau_decay <= 1:
            raise ConfigError(f"tau_decay must be in (0, 1], got {self.tau_decay}")

    @property
    def mcs(self) -> McsConfig:
        return mcs_config(self.modulation, self.coding_rate)

    def settings(self) -> dict:
        """Every setting under its config key, as a JSON value: the payload
        as ``payload_hex`` and an infinite SNR as "inf"."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "payload":
                out["payload_hex"] = value.hex()
            elif f.name == "snr_db":
                out["snr_db"] = [("inf" if math.isinf(s) else s) for s in value]
            else:
                out[f.name] = value
        return out


@dataclass
class Metrics:
    snr_db: float
    ser: float
    prr: float
    chip_error_rate: float
    nmse_body: float
    phase_mse_body: float
    violated_bit_count: int
    evm: float
    goodput_kbps: float
    trials: int

    def as_dict(self) -> dict:
        return asdict(self)


def target_subcarriers(delta_f_hz: float, count: int) -> tuple:
    """The `count` data subcarriers nearest the offset, pilots excluded;
    ties break toward the lower subcarrier index."""
    center = delta_f_hz / SUBCARRIER_SPACING_HZ
    ranked = sorted(DATA_SUBCARRIERS, key=lambda m: (abs(m - center), m))
    return tuple(sorted(ranked[:count]))


def make_target(payload: bytes, delta_f_hz: float, lead_in_samples: int = 0) -> ComplexSignal:
    """ZigBee frame -> O-QPSK -> frequency shift, padded to whole OFDM blocks."""
    if abs(delta_f_hz) + ZIGBEE_HALF_BANDWIDTH_HZ > WIFI_HALF_BANDWIDTH_HZ:
        raise ConfigError(f"delta_f {delta_f_hz/1e6:g} MHz exceeds the band")
    chips = zigbee.symbols_to_chips(zigbee.build_frame(payload))
    base = zigbee.oqpsk_modulate(chips, SAMPLE_RATE_HZ)
    shifted = frequency_shift(base, delta_f_hz)
    x = shifted.samples
    if lead_in_samples:
        x = np.concatenate([np.zeros(lead_in_samples, dtype=np.complex128), x])
    pad = (-len(x)) % SYMBOL_LEN
    if pad:
        x = np.concatenate([x, np.zeros(pad, dtype=np.complex128)])
    return ComplexSignal(x, SAMPLE_RATE_HZ)


def wide_quantize(z: np.ndarray, mcs: McsConfig) -> np.ndarray:
    """The ``wide`` rule (the other modes use ``EmulationModel.decide``): for
    each of the (S, m) raw target bins ``z`` the point with the smallest
    wrapped phase difference; magnitude ignored, ties to the lower index."""
    points = mcs.constellation.points
    # bins with no real content have meaningless phase; pin them so the
    # rule stays deterministic and scale-invariant
    znz = np.where(np.abs(z) < 1e-9 * max(float(np.abs(z).max()), 1e-300), 1.0, z)
    dphi = np.abs(np.angle(znz[..., None] * np.conj(points)))
    # symmetric targets produce exact phase ties; round so the winner is
    # the lowest index rather than whichever rounding error is smaller
    return np.argmin(np.round(dphi, 9), axis=-1)


def random_payload(seed: int, n: int) -> bytes:
    """The ``n``-byte payload drawn from ``seed``: the CLI's ``payload_len``
    and every ``sweep`` row of its ``payload_lens``."""
    return bytes(make_rng(seed, 0xBEEF, n).integers(0, 256, n).tolist())


def frame_target(cfg: ExperimentConfig) -> ComplexSignal:
    """The target a frame is planned for: ``make_target``, padded to a
    symbol count whose payload bits fill whole bytes (n_dbps is not
    byte-aligned for every MCS, e.g. BPSK rate 3/4 carries 36)."""
    target = make_target(cfg.payload, cfg.delta_f_hz, lead_in_samples=cfg.lead_in_samples)
    mcs = cfg.mcs
    align = 8 // math.gcd(mcs.n_dbps, 8)
    extra = (-(len(target) // SYMBOL_LEN)) % align
    if extra:
        pad = np.zeros(extra * SYMBOL_LEN, dtype=np.complex128)
        target = ComplexSignal(np.concatenate([target.samples, pad]),
                               target.sample_rate_hz)
    return target


def train_model(cfg: ExperimentConfig) -> tuple[EmulationModel, TrainResult]:
    """Build the emulation model for a config and train it on
    ``frame_target(cfg)``, as ``plan_frame`` does for a ``trained`` plan
    given no model.  The CLI's ``train`` command trains through here.
    The config is validated first, as ``plan_frame`` validates it."""
    cfg.validate()
    return _trained(cfg, frame_target(cfg))[:2]


def _trained(cfg: ExperimentConfig, target: ComplexSignal):
    """``train_model`` on ``target``, also returning its analysis ``(u, z)``."""
    model = EmulationModel(cfg.modulation,
                           target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count))
    u, z = model.normalize(target.samples)
    return model, train(model, u, z, cfg), (u, z)


@dataclass
class FramePlan:
    """Everything derived before the channel: target, chosen grid, PSDU,
    transmit waveform and the noiseless emulation diagnostics."""

    config: ExperimentConfig
    target: ComplexSignal
    subcarriers: tuple
    index_grid: np.ndarray
    report: SolveReport
    tx: ComplexSignal
    model: EmulationModel
    nmse_body: float
    phase_mse_body: float
    evm: float
    train_seconds: float = 0.0
    train: TrainResult | None = None  # None when the plan did not train


def plan_frame(cfg: ExperimentConfig, model: EmulationModel | None = None) -> FramePlan:
    """Target construction, quantization (training if needed), GF(2) solve
    and transmit-waveform synthesis.  Deterministic for a fixed config.

    One ``EmulationModel`` analyses the target, once, and quantizes it:
    ``model``, or one trained here on that analysis, in the ``trained``
    mode; an untrained one in ``webee`` and ``wide``, which check a given
    model against the config and ignore its scales.  ``wide`` takes
    ``wide_quantize`` of the raw bins, the others ``model.decide``."""
    cfg.validate()
    subs = target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
    target = frame_target(cfg)
    mcs = cfg.mcs
    if model is not None and (tuple(model.target_subcarriers) != subs
                              or model.const.name != mcs.constellation.name):
        raise ConfigError(
            f"model (constellation {model.const.name}, target_subcarriers "
            f"{model.target_subcarriers}) does not match the config's modulation {cfg.modulation} "
            f"on {subs}, the subcarriers of delta_f_hz and target_subcarrier_count")

    train_seconds, result = 0.0, None
    if cfg.quantizer_mode == "trained" and model is None:
        t0 = time.perf_counter()
        model, result, (u, z) = _trained(cfg, target)
        train_seconds = time.perf_counter() - t0
    else:
        if cfg.quantizer_mode != "trained":
            model = EmulationModel(cfg.modulation, subs)
        u, z = model.normalize(target.samples)
    index_grid = wide_quantize(z, mcs) if cfg.quantizer_mode == "wide" else model.decide(u)
    report = solve_payload(index_grid, mcs, cfg.scrambler_seed, subs,
                           bin_energy=np.abs(z) ** 2)
    # the coded bits the solver checked, as wifi.transmit_psdu sends its PSDU
    tx = synthesize(coded_grid(report.coded, mcs))
    if len(tx) != len(target):
        raise DimensionError(f"transmit length {len(tx)} != target length {len(target)}")

    # noiseless emulation quality, measured on the normalized problem the
    # quantizer actually solved: per-symbol max-abs normalized target,
    # against the reconstruction from the actually transmitted grid
    intended_pts = mcs.constellation.points[index_grid]
    achieved_pts = ofdm_analyze(tx)[:, columns(subs)]
    emulated = model.synthesize(achieved_pts)
    nmse_body = nmse_excluding_cp(emulated, u)
    phase_mse_body = phase_mse_excluding_cp(emulated, u)
    evm = float(np.sqrt(np.mean(np.abs(achieved_pts - intended_pts) ** 2)))

    return FramePlan(
        config=cfg,
        target=target,
        subcarriers=subs,
        index_grid=index_grid,
        report=report,
        tx=tx,
        model=model,
        nmse_body=nmse_body,
        phase_mse_body=phase_mse_body,
        evm=evm,
        train_seconds=train_seconds,
        train=result,
    )


def _known_timing_chip_errors(rx: ComplexSignal, expected: np.ndarray,
                              lead_in: int) -> float:
    """Chip error rate with genie timing: sample the channel-filtered
    ``rx`` at the known chip grid, resolve only the quadrant ambiguity by
    best agreement."""
    spc = int(rx.sample_rate_hz // zigbee.CHIP_RATE_HZ)
    n = len(expected)
    w = zigbee._chip_samples(rx.samples, spc, n, offset=lead_in)
    ref = 2.0 * expected.astype(np.float64) - 1.0
    best = None
    for stream in (w.real, w.imag):
        c = float(np.dot(np.sign(stream), ref))
        for s in (1.0, -1.0):
            if best is None or s * c > best[0]:
                best = (s * c, s * stream)
    hard = best[1] > 0
    return float(np.mean(hard != expected.astype(bool)))


def _cpu_count() -> int:
    """The CPUs this process may run on: a point's trials run on the calling
    thread and on one thread, started for the point, for each further CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _each_trial(trial, n: int) -> list:
    """``[trial(t, work) for t in range(n)]``, spread over the calling thread
    and ``min(n, _cpu_count()) - 1`` threads started for the call and joined
    before it returns, each thread passing its own ``WorkArrays`` as ``work``.

    Each thread claims the next unclaimed trial until none is left.  A trial
    that raises ends the claims; its exception is raised once every thread
    has finished its trial, so no trial runs after the call returns.  One
    trial, or one CPU, starts no thread: the calling thread claims them all.
    """
    out, errors = [None] * n, []
    lock = threading.Lock()
    claimed = 0

    def claim():
        nonlocal claimed
        work = WorkArrays()
        while True:
            with lock:
                t, claimed = claimed, claimed + 1
            if t >= n:
                return
            try:
                out[t] = trial(t, work)
            except BaseException as exc:
                with lock:
                    claimed = n
                    errors.append(exc)
                return

    threads = []
    try:
        for _ in range(min(n, _cpu_count()) - 1):
            thread = threading.Thread(target=claim, name="crossphy-trial")
            thread.start()
            threads.append(thread)
        claim()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def run_point(plan: FramePlan, snr_db: float) -> Metrics:
    """All trials of one SNR point; deterministic for a fixed config.

    Trial ``t`` draws its noise from its own stream, ``make_rng(seed,
    payload length, snr key, t)``, so the trials are independent: they run
    on every CPU the process may use (``_each_trial``), and their outcomes
    are summed in trial order, so every metric is the same float whatever
    the CPU count.  A noiseless point (``snr_db`` +inf, where ``awgn`` adds
    nothing) receives the same samples in every trial: it decodes once, on
    the calling thread, and sums that one outcome once per trial.

    Each thread, started for the point and joined before it returns, runs
    its trials in its own ``WorkArrays``, so that after its first trial
    its noise, filter and sync search allocate nothing large.
    """
    cfg = plan.config
    # the point's invariants, on this thread, so each cache misses once
    expected_chips = zigbee.symbols_to_chips(zigbee.build_frame(cfg.payload))
    _rotation(len(plan.tx), -cfg.delta_f_hz, plan.tx.sample_rate_hz)  # frequency_shift's
    if math.isfinite(snr_db):
        plan.tx.power  # awgn's, cached on the signal
    # spawn keys must be non-negative; offset covers any sane negative SNR
    snr_key = 2**31 if math.isinf(snr_db) else 2**20 + int(round(snr_db * 1000))

    def trial(t: int, work: WorkArrays) -> tuple[bool, float, float]:
        """(payload received, symbol errors, genie chip errors) of trial t."""
        rng = make_rng(cfg.seed, len(cfg.payload), snr_key, t)
        # one filter pass serves both the decoder and the genie chip errors
        rx = zigbee.channel_filter(frequency_shift(awgn(plan.tx, snr_db, rng, work),
                                                   -cfg.delta_f_hz), work=work)
        res = zigbee.decode_frame(rx, expected_payload=cfg.payload, prefiltered=True, work=work)
        return (res.detected and res.payload == cfg.payload,
                res.ser if res.detected else 1.0,
                _known_timing_chip_errors(rx, expected_chips, cfg.lead_in_samples))

    n_ok = 0
    ser_sum = 0.0
    cer_sum = 0.0
    outcomes = (repeat(trial(0, WorkArrays()), cfg.trials) if snr_db == math.inf
                else _each_trial(trial, cfg.trials))
    for ok, ser, cer in outcomes:
        n_ok += ok
        ser_sum += ser
        cer_sum += cer
    prr = n_ok / cfg.trials
    airtime_s = len(plan.tx) / plan.tx.sample_rate_hz
    return Metrics(
        snr_db=snr_db,
        ser=ser_sum / cfg.trials,
        prr=prr,
        chip_error_rate=cer_sum / cfg.trials,
        nmse_body=plan.nmse_body,
        phase_mse_body=plan.phase_mse_body,
        violated_bit_count=len(plan.report.violated_positions),
        evm=plan.evm,
        goodput_kbps=8 * len(cfg.payload) * prr / airtime_s / 1000.0,
        trials=cfg.trials,
    )


def run_pipeline(cfg: ExperimentConfig, model: EmulationModel | None = None) -> list[Metrics]:
    """plan -> channel trials for every SNR in the config."""
    plan = plan_frame(cfg, model=model)
    return [run_point(plan, snr) for snr in cfg.snr_db]


# ---------------------------------------------------------------------------
# sweeps and reporting
# ---------------------------------------------------------------------------

CSV_FIELDS = [
    "quantizer_mode", "emulation_mode", "payload_len", "modulation", "coding_rate",
    "delta_f_hz", "seed", "snr_db", "trials", "ser", "prr", "chip_error_rate",
    "nmse_body", "phase_mse_body", "violated_bit_count", "evm", "goodput_kbps",
]


def sweep(cfg: ExperimentConfig, payload_lens=None, modes=None) -> list[dict]:
    """Grid over {snr (from cfg), payload, quantizer mode}; one row per
    point with the full metrics and a config echo.  The payloads are
    ``random_payload(cfg.seed, n)`` for each of ``payload_lens``, or
    ``cfg.payload`` alone.  Each ``trained`` row's plan trains its own
    model."""
    payloads = ([random_payload(cfg.seed, n) for n in payload_lens] if payload_lens
                else [cfg.payload])
    modes = list(modes or [cfg.quantizer_mode])
    rows = []
    for payload in payloads:
        plen = len(payload)
        for mode in modes:
            point_cfg = replace(cfg, payload=payload, quantizer_mode=mode)
            for m in run_pipeline(point_cfg):
                rows.append({
                    "quantizer_mode": mode,
                    "emulation_mode": cfg.emulation_mode,
                    "payload_len": plen,
                    "modulation": cfg.modulation,
                    "coding_rate": cfg.coding_rate,
                    "delta_f_hz": cfg.delta_f_hz,
                    "seed": cfg.seed,
                    **m.as_dict(),
                })
    return rows


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_FIELDS})


def summary_json(cfg: ExperimentConfig, metrics: list[Metrics], extra: dict | None = None) -> dict:
    """Deterministic results block plus a quarantined nondeterministic block
    (timestamps, host) so the deterministic part can be diffed byte-for-byte."""
    from . import __version__

    det = {
        "version": __version__,
        "config": {**cfg.settings(), "sample_rate_hz": SAMPLE_RATE_HZ},
        "notes": {
            "channel": "AWGN only; distance/power axes replaced by SNR",
            "prr": "payload-exact frames (stricter than CRC pass)",
            "goodput": "payload bits over this harness's own airtime; not comparable to hardware duty cycles",
        },
        "metrics": [
            {**m.as_dict(), "snr_db": "inf" if math.isinf(m.snr_db) else m.snr_db}
            for m in metrics
        ],
    }
    if extra:
        det.update(extra)
    return {
        "deterministic": det,
        "nondeterministic": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "host": platform.node(),
            "python": platform.python_version(),
        },
    }
