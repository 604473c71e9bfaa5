import csv
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from crossphy import diffblocks, dsp, emulation as em, sim, solver, wifi, zigbee
from crossphy.errors import ConfigError


class TestMakeTarget:
    def test_empty_payload_sample_count(self):
        # 12 symbols * 320 samples = 3840, already a multiple of 80
        sig = sim.make_target(sim.ExperimentConfig(payload=b"", delta_f_hz=0.0,
                                                  lead_in_samples=0))
        assert len(sig) == 3840

    def test_32_byte_payload_sample_count(self):
        sig = sim.make_target(sim.ExperimentConfig(payload=bytes(32), delta_f_hz=0.0,
                                                  lead_in_samples=0))
        assert len(sig) == 76 * 320

    def test_lead_in_pads_to_blocks(self):
        sig = sim.make_target(sim.ExperimentConfig(payload=bytes(4), delta_f_hz=-3.125e6,
                                                  lead_in_samples=6))
        assert len(sig) % 80 == 0

    def test_power_concentrated_in_lobe(self):
        # >= 99% of power within delta_f +- 1.5 MHz, measured by PSD
        sig = sim.make_target(sim.ExperimentConfig(payload=bytes(16), delta_f_hz=-3.125e6,
                                                  lead_in_samples=0))
        spec = np.fft.fft(sig.samples)
        freqs = np.fft.fftfreq(len(sig.samples), d=1 / sig.sample_rate_hz)
        total = np.sum(np.abs(spec) ** 2)
        inband = np.abs(freqs - (-3.125e6)) <= 1.5e6
        assert np.sum(np.abs(spec[inband]) ** 2) / total >= 0.99

    def test_offset_invariant_enforced(self):
        with pytest.raises(ConfigError):
            sim.make_target(sim.ExperimentConfig(payload=b"", delta_f_hz=9e6, lead_in_samples=0))


class TestTargetSubcarriers:
    def test_default_seven_at_minus_ten(self):
        assert sim.target_subcarriers(-10 * wifi.SUBCARRIER_SPACING_HZ, 7) == (
            -14, -13, -12, -11, -10, -9, -8)

    def test_pilots_never_selected(self):
        for df_sc in (-21, -7, 7, 21):
            subs = sim.target_subcarriers(df_sc * wifi.SUBCARRIER_SPACING_HZ, 9)
            assert not set(subs) & set(wifi.PILOT_SUBCARRIERS)

    def test_count_respected(self):
        assert len(sim.target_subcarriers(0.0, 5)) == 5


def normalized(sig, subs):
    """``EmulationModel.normalize`` of a waveform on ``subs``: the
    normalized waveform and the raw target bins."""
    return em.EmulationModel("qam64", subs).normalize(sig.samples)


def webee(sig, subs):
    """The webee rule: ``decide`` of an untrained model."""
    model = em.EmulationModel("qam64", subs)
    return model.decide(model.normalize(sig.samples)[0])


class TestBaselineQuantize:
    def setup_method(self):
        self.mcs = wifi.mcs_config("qam64", "1/2")
        self.subs = (-14, -13, -12, -11, -10, -9, -8)
        self.target = sim.make_target(sim.ExperimentConfig(
            payload=bytes(range(8)), delta_f_hz=-3.125e6, lead_in_samples=6))

    def test_webee_is_fixed_point_on_scaled_constellation(self):
        # bins already at (scaled) constellation points map back to the same
        # points: synthesize a waveform whose target bins are 0.4 * points
        const = self.mcs.constellation
        rng = dsp.make_rng(0)
        idx = rng.integers(0, 64, (4, len(self.subs)))
        pts = const.points[idx]
        grid = np.zeros((4, 64), dtype=complex)
        grid[:, wifi.columns(self.subs)] = 0.4 * pts
        sig = wifi.synthesize(grid)
        got = webee(sig, self.subs)
        peak = np.max(np.abs(pts), axis=1, keepdims=True)
        expect = const.nearest(pts / peak)
        assert np.array_equal(got, expect)

    def test_wide_ignores_magnitude(self):
        _, z = normalized(self.target, self.subs)
        a = sim.wide_quantize(z, self.mcs)
        scaled = dsp.ComplexSignal(self.target.samples * 7.5, self.target.sample_rate_hz)
        b = sim.wide_quantize(normalized(scaled, self.subs)[1], self.mcs)
        assert np.array_equal(a, b)
        # chosen points share the wrapped-phase-nearest property on every
        # bin that carries real content (zero bins have no phase)
        const = self.mcs.constellation
        live = np.abs(z) > 1e-6 * np.abs(z).max()
        pts = const.points[a]
        dphi_chosen = np.abs(np.angle(z * np.conj(pts)))
        dphi_all = np.abs(np.angle(z[..., None] * np.conj(const.points)))
        assert np.allclose(dphi_chosen[live], dphi_all.min(axis=-1)[live])

    def test_webee_equals_hard_quantize_with_per_symbol_scale(self):
        _, z = normalized(self.target, self.subs)
        mx = np.max(np.abs(z), axis=1, keepdims=True)
        live = mx[:, 0] > 0  # the all-zero padding symbol has no defined scale
        expect = self.mcs.constellation.nearest(z[live] / mx[live])
        got = webee(self.target, self.subs)
        assert np.array_equal(got[live], expect)

    def test_nn_webee_with_unit_scales_equals_webee(self):
        ones = np.ones(len(self.subs), dtype=complex)
        model = em.EmulationModel("qam64", self.subs)
        model.scale.set_scale(ones)
        a = model.decide(model.normalize(self.target.samples)[0])
        b = webee(self.target, self.subs)
        assert np.array_equal(a, b)


def small_cfg(**kw):
    defaults = dict(payload=bytes([1, 2, 3, 4]), snr_db=(math.inf,), trials=1,
                    epochs=30, quantizer_mode="webee")
    defaults.update(kw)
    return sim.ExperimentConfig(**defaults)


class TestPipeline:
    def test_noiseless_webee_decodes(self):
        metrics = sim.run_pipeline(small_cfg())
        m = metrics[0]
        assert m.ser == 0.0 and m.prr == 1.0 and m.violated_bit_count == 0

    def test_determinism(self):
        cfg = small_cfg(snr_db=(8.0,), trials=3)
        a = sim.run_pipeline(cfg)
        b = sim.run_pipeline(cfg)
        assert a[0].as_dict() == b[0].as_dict()

    def test_noise_dominated_limit(self):
        cfg = small_cfg(snr_db=(-30.0,), trials=5)
        m = sim.run_pipeline(cfg)[0]
        assert m.prr == 0.0

    def test_transmit_length_matches_target(self):
        plan = sim.plan_frame(small_cfg())
        assert len(plan.tx) == len(plan.target)

    def test_one_target_analysis_per_plan(self, monkeypatch):
        model, _ = sim.train_model(small_cfg())
        normalize, analyze = em.EmulationModel.normalize, sim.ofdm_analyze
        for mode in sim.QUANTIZER_MODES:
            targets, waves = [], []
            monkeypatch.setattr(em.EmulationModel, "normalize",
                                lambda self, x: targets.append(x) or normalize(self, x))
            monkeypatch.setattr(sim, "ofdm_analyze",
                                lambda sig: waves.append(sig) or analyze(sig))
            plan = sim.plan_frame(small_cfg(quantizer_mode=mode), model=model)
            assert len(targets) == 1 and targets[0] is plan.target.samples
            assert len(waves) == 1 and waves[0] is plan.tx

    def test_trained_plan_analyses_its_target_once(self, monkeypatch):
        # the plan trains on the analysis it quantizes with
        normalize, calls = em.EmulationModel.normalize, []
        monkeypatch.setattr(em.EmulationModel, "normalize",
                            lambda self, x: calls.append(x) or normalize(self, x))
        plan = sim.plan_frame(small_cfg(quantizer_mode="trained", epochs=3))
        assert plan.train.epochs_run == 3
        assert len(calls) == 1 and calls[0] is plan.target.samples

    def test_only_a_plan_that_trains_carries_its_training_record(self):
        cfg = small_cfg(quantizer_mode="trained", epochs=3)
        plan = sim.plan_frame(cfg)
        assert plan.train == sim.train_model(cfg)[1]
        assert sim.plan_frame(cfg, model=plan.model).train is None
        assert sim.plan_frame(small_cfg()).train is None

    def test_webee_plan_ignores_a_given_models_scales(self):
        cfg = small_cfg(emulation_mode="digital", payload=bytes(range(6)))
        model, _ = sim.train_model(cfg)
        assert not np.array_equal(model.scale.scale, np.ones(len(model.target_subcarriers)))
        given = sim.plan_frame(cfg, model=model)
        fresh = sim.plan_frame(cfg)
        assert np.array_equal(given.index_grid, fresh.index_grid)
        assert given.report.psdu == fresh.report.psdu
        assert (given.nmse_body, given.phase_mse_body, given.evm) == (
            fresh.nmse_body, fresh.phase_mse_body, fresh.evm)

    def test_one_channel_filter_pass_per_trial(self, monkeypatch):
        calls = []
        real = zigbee.channel_filter

        def counting(sig, *args, **kwargs):
            calls.append(sig)
            return real(sig, *args, **kwargs)

        monkeypatch.setattr(zigbee, "channel_filter", counting)
        plan = sim.plan_frame(small_cfg())
        sim.run_point(replace(plan, config=replace(plan.config, trials=3)), 8.0)
        assert len(calls) == 3

    def test_trained_mode_produces_model(self):
        cfg = small_cfg(quantizer_mode="trained", payload=bytes([9, 9]))
        plan = sim.plan_frame(cfg)
        assert plan.model is not None
        assert plan.train.epochs_run > 0

    def test_trained_plan_is_nn_webee_with_its_scales(self):
        # the webee rule with trained scales: a trained plan given its own
        # model repeats its grid and PSDU
        cfg = small_cfg(quantizer_mode="trained", emulation_mode="digital",
                        payload=bytes(range(6)))
        plan = sim.plan_frame(cfg)
        nn = sim.plan_frame(cfg, model=plan.model)
        assert np.array_equal(plan.index_grid, nn.index_grid)
        assert plan.report.psdu == nn.report.psdu

    def test_train_model_uses_the_padded_frame_target(self):
        # BPSK 3/4 carries 36 bits a symbol: 81 target symbols pad to 82
        cfg = small_cfg(quantizer_mode="trained", modulation="bpsk", coding_rate="3/4")
        # qam64 1/2 carries 144 bits a symbol, so its target has no alignment pad
        plain = sim.make_target(replace(cfg, modulation="qam64", coding_rate="1/2"))
        assert len(sim.make_target(cfg)) == len(plain) + 80
        model, res = sim.train_model(cfg)
        plan = sim.plan_frame(cfg)
        assert res.epochs_run == plan.train.epochs_run
        assert np.array_equal(model.scale.scale, plan.model.scale.scale)

    def test_model_constellation_mismatch_rejected(self):
        cfg = small_cfg(quantizer_mode="trained")
        subs = sim.target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
        model = em.EmulationModel("qam16", subs)
        with pytest.raises(ConfigError):
            sim.plan_frame(cfg, model=model)

    def test_model_mismatch_names_the_model_file_keys(self):
        # a mismatched model file exits 2; its message names the file's keys
        cfg = small_cfg(quantizer_mode="trained")
        model = em.EmulationModel("qam16", (-14, -13))
        with pytest.raises(ConfigError, match=r"constellation qam16, target_subcarriers"):
            sim.plan_frame(cfg, model=model)

    def test_bad_quantizer_mode_rejected(self):
        with pytest.raises(ConfigError):
            sim.run_pipeline(small_cfg(quantizer_mode="nope"))

    def test_mismatched_model_subcarriers_rejected(self):
        cfg = small_cfg(quantizer_mode="trained")
        model = em.EmulationModel("qam64", (8, 9, 10))
        with pytest.raises(ConfigError):
            sim.plan_frame(cfg, model=model)

    def test_common_noise_across_modes(self):
        # same (seed, payload len, snr, trial) noise regardless of mode
        cfg_a = small_cfg(snr_db=(6.0,), quantizer_mode="webee")
        cfg_b = small_cfg(snr_db=(6.0,), quantizer_mode="wide")
        key = 2**20 + 6000
        rng_a = dsp.make_rng(cfg_a.seed, len(cfg_a.payload), key, 0)
        rng_b = dsp.make_rng(cfg_b.seed, len(cfg_b.payload), key, 0)
        assert np.array_equal(rng_a.standard_normal(8), rng_b.standard_normal(8))


@pytest.fixture(scope="module")
def digital_20_epochs():
    base = sim.ExperimentConfig(payload=sim.random_payload(1, 8), emulation_mode="digital",
                                epochs=20)
    return (base, *sim.train_model(base))


# each value binds within 20 epochs: tau_floor 0.9 from epoch 3 on
# (0.95**3 = 0.857), where 0.2 would not until epoch 32
@pytest.mark.parametrize("key,value", [
    ("epochs", 15), ("learning_rate", 5e-2), ("tau_start", 0.5), ("tau_decay", 0.8),
    ("tau_floor", 0.9), ("emulation_mode", "analog"),
])
def test_every_training_setting_reaches_the_trainer(key, value, digital_20_epochs):
    base, base_model, want = digital_20_epochs
    cfg = replace(base, **{key: value})
    assert getattr(cfg, key) != getattr(base, key)
    model, got = sim.train_model(cfg)
    assert (got.loss_history, got.epochs_run) != (want.loss_history, want.epochs_run)
    if key == "tau_floor":
        assert (model.quantize.tau, base_model.quantize.tau) == (0.9, base.tau_floor)


# plan_frame rejects each of these; training alone must too, not run silently
@pytest.mark.parametrize("key,value", [
    ("epochs", 0), ("tau_start", 0.0), ("tau_decay", 2.0), ("learning_rate", 1e200),
])
def test_train_model_rejects_invalid_training_settings(key, value):
    cfg = replace(sim.ExperimentConfig(payload=sim.random_payload(1, 8)), **{key: value})
    with pytest.raises(ConfigError, match=key):
        sim.train_model(cfg)


class TestMcsMatrix:
    @pytest.mark.parametrize("modulation", ["qpsk", "qam16", "qam64"])
    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    def test_complex_constellations_decode_noiseless(self, modulation, rate):
        cfg = small_cfg(modulation=modulation, coding_rate=rate)
        m = sim.run_pipeline(cfg)[0]
        assert m.ser == 0.0 and m.prr == 1.0

    def test_bpsk_rate34_byte_alignment(self):
        # 36 payload bits per symbol: the harness must pad the target to a
        # byte-aligned symbol count instead of failing in the solver
        cfg = small_cfg(modulation="bpsk", coding_rate="3/4")
        plan = sim.plan_frame(cfg)
        assert (len(plan.tx) // 80 * 36) % 8 == 0

    def test_bpsk_emulation_is_degenerate(self):
        # a real-only constellation cannot carry complex bin values; the
        # pipeline runs but reports the poor fidelity honestly
        cfg = small_cfg(modulation="bpsk")
        m = sim.run_pipeline(cfg)[0]
        assert m.nmse_body > 0.5


_MCS = [(m, r) for m in ("bpsk", "qpsk", "qam16", "qam64") for r in ("1/2", "3/4")]


class TestTransmit:
    """``plan_frame`` transmits the coded bits its solve checked; they must
    be the waveform the standard transmitter sends for the plan's PSDU."""

    @pytest.mark.parametrize("mode", sim.QUANTIZER_MODES)
    @pytest.mark.parametrize("modulation,rate", _MCS)
    def test_plan_tx_is_the_standard_transmit_of_its_psdu(self, modulation, rate, mode):
        cfg = small_cfg(payload=sim.random_payload(3, 8), modulation=modulation,
                        coding_rate=rate, quantizer_mode=mode, epochs=3)
        plan = sim.plan_frame(cfg)
        sent = wifi.transmit_psdu(plan.report.psdu, cfg.mcs, cfg.scrambler_seed)
        assert np.array_equal(plan.tx.samples, sent.samples)

    def test_127_byte_webee_plan_tx_is_the_standard_transmit(self):
        cfg = small_cfg(payload=sim.random_payload(3, 127))
        plan = sim.plan_frame(cfg)
        sent = wifi.transmit_psdu(plan.report.psdu, cfg.mcs, cfg.scrambler_seed)
        assert np.array_equal(plan.tx.samples, sent.samples)


def _plan_outputs(cfg):
    plan = sim.plan_frame(cfg)
    r = plan.report
    return (r.psdu, r.x.tobytes(), r.coded.tobytes(), r.satisfied, r.violated_positions,
            r.perturbed_subcarriers, r.rank, r.max_span, plan.index_grid.tobytes(),
            plan.tx.samples.tobytes(), plan.phase_mse_body)


def _clear_shape_caches():
    solver._constraint_system.cache_clear()
    for layer in (diffblocks.dft_layer, diffblocks.idft_layer, diffblocks.cp_add_layer,
                  diffblocks.cp_remove_layer):
        layer.cache_clear()


class TestShapeCaches:
    """Each frame shape's constraint system and the fixed layers are built
    once; a plan must not depend on which shapes were planned before it."""

    def test_plans_do_not_depend_on_the_shapes_planned_before(self):
        payload = sim.random_payload(5, 16)
        first = small_cfg(payload=payload)
        others = [small_cfg(payload=payload, modulation="qpsk", coding_rate="3/4"),
                  small_cfg(payload=payload, target_subcarrier_count=12),
                  small_cfg(payload=payload, scrambler_seed=1),
                  small_cfg(payload=sim.random_payload(5, 32)),
                  small_cfg(payload=sim.random_payload(6, 16)),
                  small_cfg(payload=payload, quantizer_mode="wide")]
        fresh = []  # each config planned right after the caches were cleared
        for cfg in [first] + others:
            _clear_shape_caches()
            fresh.append(_plan_outputs(cfg))
        _clear_shape_caches()
        assert _plan_outputs(first) == fresh[0]
        for cfg, want in zip(others, fresh[1:]):
            assert _plan_outputs(cfg) == want
            assert _plan_outputs(cfg) == want  # from the cached system
            assert _plan_outputs(first) == fresh[0]
        assert solver._constraint_system.cache_info().hits >= len(others)

    def test_cached_arrays_are_read_only(self):
        shape = (4, "qam64", "1/2", wifi.DEFAULT_SCRAMBLER_SEED, (-14, -13, -12, -11, -10, -9, -8))
        system = solver._constraint_system(*shape)
        assert system is solver._constraint_system(*shape)
        layers = [diffblocks.dft_layer(), diffblocks.idft_layer(), diffblocks.cp_add_layer(),
                  diffblocks.cp_remove_layer()]
        for a in list(system) + [layer.weight for layer in layers]:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1


class TestNoiselessChipBudget:
    def test_trained_noiseless_chip_errors_bounded_and_ser_zero(self):
        # The cyclic prefix plus 7-bin spectral truncation leave an
        # irreducible chip-error floor in the emulated waveform: measured
        # worst case is 8 errors per 32-chip window for the trained analog
        # quantizer (6 for digital), above the 5-error minimum-distance
        # budget.  Symbol decisions still come out error-free because
        # correlation demapping only fails near-budget when the error
        # pattern points toward a specific competing sequence, which these
        # structural errors do not.  Assert the real guarantee: bounded
        # per-window errors and SER = 0.
        cfg = small_cfg(payload=bytes(range(16)), quantizer_mode="trained",
                        epochs=120)
        plan = sim.plan_frame(cfg)
        rx = dsp.frequency_shift(plan.tx, -cfg.delta_f_hz)
        x = zigbee.channel_filter(rx).samples
        expected = zigbee.symbols_to_chips(zigbee.build_frame(cfg.payload))
        w = zigbee._chip_samples(x, 10, len(expected), offset=cfg.lead_in_samples)
        ref = 2.0 * expected.astype(float) - 1
        best = None
        for stream in (w.real, w.imag):
            c = float(np.dot(np.sign(stream), ref))
            for s in (1, -1):
                if best is None or s * c > best[0]:
                    best = (s * c, s * stream)
        err = (best[1] > 0) != expected.astype(bool)
        per_window = err.reshape(-1, 32).sum(axis=1)
        assert per_window.max() <= 8
        m = sim.run_point(plan, math.inf)
        assert m.ser == 0.0 and m.prr == 1.0


class TestLinkMetricsPinned:
    # Metrics.as_dict() of an 8-byte webee plan, 40 trials per point, as the
    # loop of direct sync correlations and the per-trial exp produced them
    PINNED = (
        {"snr_db": 4.0, "ser": 0.2638888888888888, "prr": 0.275,
         "chip_error_rate": 0.24790736607142855, "nmse_body": 1.6645375402674338,
         "phase_mse_body": 1.5406597553776629, "violated_bit_count": 0,
         "evm": 9.890830426434554e-15, "goodput_kbps": 38.93805309734514, "trials": 40},
        {"snr_db": 0.0, "ser": 1.0, "prr": 0.0,
         "chip_error_rate": 0.30853794642857146, "nmse_body": 1.6645375402674338,
         "phase_mse_body": 1.5406597553776629, "violated_bit_count": 0,
         "evm": 9.890830426434554e-15, "goodput_kbps": 0.0, "trials": 40},
    )
    # properties of the plan, not of the channel trials; at the FFT's
    # rounding level they may differ between platforms
    PLAN_KEYS = ("nmse_body", "phase_mse_body", "evm")

    def test_metrics_unchanged_and_one_rotation_per_point(self, monkeypatch):
        cfg = small_cfg(payload=bytes(range(8)), snr_db=(4.0, 0.0), trials=40)
        plan = sim.plan_frame(cfg)
        calls = []

        def counted_shift(sig, delta_f_hz):
            calls.append(delta_f_hz)
            return dsp.frequency_shift(sig, delta_f_hz)

        monkeypatch.setattr(sim, "frequency_shift", counted_shift)
        for snr, want in zip(cfg.snr_db, self.PINNED):
            calls.clear()
            dsp._rotation.cache_clear()
            got = sim.run_point(plan, snr).as_dict()
            assert calls == [-cfg.delta_f_hz] * cfg.trials
            assert dsp._rotation.cache_info().misses <= 1  # one exp per point
            for key in self.PLAN_KEYS:
                assert got.pop(key) == pytest.approx(want[key], rel=1e-9, abs=1e-12)
            assert got == {k: v for k, v in want.items() if k not in self.PLAN_KEYS}

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_same_metrics_on_any_cpu_count(self, monkeypatch, cpus):
        # outcomes are summed in trial order, whichever thread ran a trial
        cfg = small_cfg(payload=bytes(range(8)), snr_db=(4.0, 0.0), trials=40)
        plan = sim.plan_frame(cfg)
        runs = {}
        for n in (1, cpus):
            monkeypatch.setattr(sim, "_cpu_count", lambda n=n: n)
            runs[n] = [sim.run_point(plan, snr).as_dict() for snr in cfg.snr_db]
        assert runs[cpus] == runs[1]


class TestTrialThreads:
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("failing", [0, 5, 38])
    def test_a_failing_trial_raises_and_stops_the_claims(self, monkeypatch, failing, cpus):
        plan = sim.plan_frame(small_cfg(trials=40))
        started, finished = [], []
        make_rng, chip_errors = sim.make_rng, sim._known_timing_chip_errors

        def counted_rng(*key):
            started.append(key[-1])
            if key[-1] == failing:
                raise RuntimeError("trial failed")
            return make_rng(*key)

        def counted_errors(*args):
            finished.append(None)
            return chip_errors(*args)

        monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(sim, "make_rng", counted_rng)
        monkeypatch.setattr(sim, "_known_timing_chip_errors", counted_errors)
        with pytest.raises(RuntimeError, match="trial failed"):
            sim.run_point(plan, 4.0)
        seen = (len(started), len(finished))
        assert seen[1] == seen[0] - 1  # every other trial that started has ended
        time.sleep(0.05)
        assert (len(started), len(finished)) == seen  # and none starts after the return
        if failing < 30:
            assert seen[0] < 40  # the claims stopped

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helpers(self, monkeypatch):
        # a child inherits none of the parent's threads; each point it runs
        # starts and joins its own, so it never waits on one that is missing
        monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
        plan = sim.plan_frame(small_cfg(trials=4))
        want = sim.run_point(plan, 4.0)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if sim.run_point(plan, 4.0) == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_one_trial_or_one_cpu_runs_inline(self):
        script = textwrap.dedent("""
            import sys, threading
            from dataclasses import replace
            from crossphy import sim
            plan = sim.plan_frame(sim.ExperimentConfig(
                payload=bytes(range(8)), quantizer_mode="webee", trials=1))
            sim.run_point(plan, 4.0)
            one_trial = (threading.active_count(), "concurrent.futures" in sys.modules)
            sim._cpu_count = lambda: 1
            sim.run_point(replace(plan, config=replace(plan.config, trials=3)), 4.0)
            print(one_trial, (threading.active_count(), "concurrent.futures" in sys.modules))
            sim._cpu_count = lambda: 2  # a noisy point on two CPUs joins its thread
            sim.run_point(replace(plan, config=replace(plan.config, trials=3)), 4.0)
            assert threading.active_count() == 1, threading.enumerate()
        """)
        src = str(Path(sim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["(1,", "False)"] * 2


class TestNoiselessPoint:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("trials", [5, 40])
    def test_decodes_once_and_counts_its_outcome_per_trial(self, monkeypatch, trials, cpus):
        # every trial of a noiseless point receives the same samples
        cfg = small_cfg(payload=bytes(range(8)), trials=trials)
        plan = sim.plan_frame(cfg)

        # one trial's outcome from the public receiver calls
        rx = zigbee.channel_filter(dsp.frequency_shift(plan.tx, -cfg.delta_f_hz))
        res = zigbee.decode_frame(rx, expected_payload=cfg.payload, prefiltered=True)
        ok = res.detected and res.payload == cfg.payload
        ser = res.ser if res.detected else 1.0
        # genie timing: chip k peaks at lead-in + (k+1) samples per chip
        expected = zigbee.symbols_to_chips(zigbee.build_frame(cfg.payload)).astype(bool)
        spc = int(sim.SAMPLE_RATE_HZ // zigbee.CHIP_RATE_HZ)
        peaks = rx.samples[cfg.lead_in_samples + spc * np.arange(1, len(expected) + 1)]
        peaks[1::2] *= -1j
        cer = min(float(np.mean((s * stream > 0) != expected))
                  for stream in (peaks.real, peaks.imag) for s in (1.0, -1.0))
        assert ok and ser == 0.0 and 0.0 < cer < 0.5

        n_ok, ser_sum, cer_sum = 0, 0.0, 0.0
        for _ in range(trials):
            n_ok, ser_sum, cer_sum = n_ok + ok, ser_sum + ser, cer_sum + cer
        prr = n_ok / trials
        airtime_s = len(plan.tx) / plan.tx.sample_rate_hz
        want = {"snr_db": math.inf, "ser": ser_sum / trials, "prr": prr,
                "chip_error_rate": cer_sum / trials, "nmse_body": plan.nmse_body,
                "phase_mse_body": plan.phase_mse_body,
                "violated_bit_count": len(plan.report.violated_positions), "evm": plan.evm,
                "goodput_kbps": 8 * len(cfg.payload) * prr / airtime_s / 1000.0, "trials": trials}

        calls, started = [], []
        filt, decode, start = zigbee.channel_filter, zigbee.decode_frame, threading.Thread.start

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(zigbee, "channel_filter", counted("filter", filt))
        monkeypatch.setattr(zigbee, "decode_frame", counted("decode", decode))
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        got = sim.run_point(plan, math.inf).as_dict()
        here = threading.current_thread()
        assert calls == [("filter", here), ("decode", here)]
        assert started == []
        assert got == want


class TestTrialWorkArrays:
    def test_a_trial_after_the_first_allocates_little(self, monkeypatch):
        # a thread's first noisy trial makes its work arrays; later trials
        # allocate frequency_shift's output and small arrays.  With a dozen
        # frame-sized arrays a trial, the peak was about 3.4 signals
        plan = sim.plan_frame(small_cfg(payload=bytes(range(32)), trials=4))
        peaks, make_rng, chip_errors = [], sim.make_rng, sim._known_timing_chip_errors

        def started(*key):
            tracemalloc.reset_peak()
            peaks.append(tracemalloc.get_traced_memory()[0])
            return make_rng(*key)

        def ended(*args):
            out = chip_errors(*args)
            peaks[-1] = tracemalloc.get_traced_memory()[1] - peaks[-1]
            return out

        monkeypatch.setattr(sim, "_cpu_count", lambda: 1)
        monkeypatch.setattr(sim, "make_rng", started)
        monkeypatch.setattr(sim, "_known_timing_chip_errors", ended)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            sim.run_point(plan, 4.0)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks[1:]) < 1.5 * plan.tx.samples.nbytes

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("snr_db", [math.inf, 4.0])
    def test_one_set_a_thread_dropped_on_return(self, monkeypatch, cpus, snr_db):
        made = []

        class Recorded(dsp.WorkArrays):
            def __init__(self):
                super().__init__()
                made.append((weakref.ref(self), threading.current_thread()))

        monkeypatch.setattr(sim, "WorkArrays", Recorded)
        monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
        sim.run_point(sim.plan_frame(small_cfg(trials=12)), snr_db)
        threads = [t for _, t in made]
        assert 1 <= len(threads) == len(set(threads)) <= (1 if snr_db == math.inf else cpus)
        assert all(ref() is None for ref, _ in made)


class TestMonotonicity:
    def test_prr_non_increasing_as_snr_drops(self):
        # allow one inversion across the sweep at Monte Carlo resolution
        cfg = small_cfg(payload=bytes(range(8)), snr_db=(12.0, 8.0, 6.0, 4.0, 2.0),
                        trials=100, quantizer_mode="webee")
        metrics = sim.run_pipeline(cfg)
        prr = [m.prr for m in metrics]  # ordered high SNR -> low SNR
        inversions = sum(1 for a, b in zip(prr, prr[1:]) if b > a + 0.05)
        assert inversions <= 1, prr


class TestSweep:
    def test_row_count_and_roundtrip(self, tmp_path):
        cfg = small_cfg(snr_db=(math.inf, 10.0))
        rows = sim.sweep(cfg, payload_lens=[2, 4], modes=["webee", "wide"])
        assert len(rows) == 2 * 2 * 2
        path = tmp_path / "sweep.csv"
        sim.write_csv(rows, path)
        with open(path, newline="") as f:
            back = list(csv.DictReader(f))
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert got["quantizer_mode"] == want["quantizer_mode"]
            assert int(got["payload_len"]) == want["payload_len"]
            assert float(got["ser"]) == pytest.approx(want["ser"])
            assert float(got["prr"]) == pytest.approx(want["prr"])

    def test_rows_echo_their_point_settings(self):
        # each row is its point's settings(), payload_len and metrics: every
        # echo column of the CSV holds the point's setting, and the row holds
        # every other setting too (snr_db is the point's own SNR)
        cfg = small_cfg(snr_db=(math.inf, 6.0), trials=2, seed=3, modulation="qpsk",
                        coding_rate="3/4", emulation_mode="digital", delta_f_hz=-2.5e6)
        rows = sim.sweep(cfg, payload_lens=[2, 5], modes=["webee", "wide"])
        assert len(rows) == 2 * 2 * 2
        metric_keys = {f.name for f in fields(sim.Metrics)}
        echo = [k for k in sim.CSV_FIELDS if k not in metric_keys and k != "payload_len"]
        assert echo == ["quantizer_mode", "emulation_mode", "modulation", "coding_rate",
                        "delta_f_hz", "seed"]
        for row in rows:
            point = replace(cfg, payload=sim.random_payload(cfg.seed, row["payload_len"]),
                            quantizer_mode=row["quantizer_mode"]).settings()
            assert {k: row[k] for k in echo} == {k: point[k] for k in echo}
            del point["snr_db"]
            assert {k: row[k] for k in point} == point
        assert [(r["payload_len"], r["quantizer_mode"], r["snr_db"]) for r in rows] == [
            (n, mode, snr) for n in (2, 5) for mode in ("webee", "wide")
            for snr in (math.inf, 6.0)]

    def test_swept_plan_is_the_one_evaluate_plans(self, monkeypatch):
        # with no payload_lens the sweep plans the config's own payload, not
        # another payload of its length
        cfg = small_cfg(payload=bytes([1, 2]))
        plans, plan_frame = [], sim.plan_frame
        monkeypatch.setattr(sim, "plan_frame",
                            lambda *args, **kw: plans.append(plan_frame(*args, **kw)) or plans[-1])
        rows = sim.sweep(cfg)
        sim.run_pipeline(cfg)  # the plan of `crossphy evaluate`
        swept, evaluated = plans
        assert swept.report.psdu == evaluated.report.psdu
        assert swept.config.payload == cfg.payload and rows[0]["payload_len"] == 2

    def test_summary_json_blocks(self):
        cfg = small_cfg()
        metrics = sim.run_pipeline(cfg)
        doc = sim.summary_json(cfg, metrics)
        assert "deterministic" in doc and "nondeterministic" in doc
        assert doc["deterministic"]["config"]["payload_hex"] == cfg.payload.hex()
        assert doc["deterministic"]["metrics"][0]["prr"] == metrics[0].prr


class TestDefaultModeTrains:
    """The default config trains in analog mode (the ``trained_plan``
    fixture is the default config with the acceptance SNRs and trials)."""

    def test_trained_grid_differs_from_webee(self, trained_plan, webee_plan):
        assert trained_plan.config.emulation_mode == sim.ExperimentConfig().emulation_mode
        assert not np.all(trained_plan.model.scale.scale == 1)
        assert not np.array_equal(trained_plan.index_grid, webee_plan.index_grid)

    @pytest.mark.parametrize("snr_db", [8.0, 4.0])
    def test_trained_beats_webee_on_chip_errors(self, trained_plan, webee_plan, snr_db):
        trained = sim.run_point(trained_plan, snr_db)
        webee = sim.run_point(webee_plan, snr_db)
        assert trained.trials == webee.trials == 100
        assert trained.chip_error_rate < webee.chip_error_rate
