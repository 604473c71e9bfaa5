import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossphy import diffblocks as db
from crossphy import dsp, emulation as em, sim, zigbee
from crossphy.errors import ConfigError, DimensionError
from crossphy.wifi import columns, constellation, pilot_polarity_sequence
from emulation_oracle import (
    build_passthrough_autoencoder,
    fit_loss_and_grad,
    loss_and_grad,
    selection_metric,
)
from test_diffblocks import SoftQuantize64, held_rows

SUBS = (-14, -13, -12, -11, -10, -9, -8)


def zigbee_target(n_symbols=1, delta_f=-3.125e6, seed=0):
    rng = dsp.make_rng(seed)
    syms = rng.integers(0, 16, n_symbols)
    sig = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(syms))
    return dsp.frequency_shift(sig, delta_f)


def model_indices(model, target):
    """The model's quantizer: ``decide`` of the normalized target."""
    return model.decide(model.normalize(target.samples)[0])


def hard_reconstruction(model, target):
    return model.synthesize(model.const.points[model_indices(model, target)])


def train(model, target, cfg):
    """``em.train`` on ``model.normalize`` of a target signal."""
    return em.train(model, *model.normalize(target.samples), cfg)


def kept(mode, u, z, v=None):
    """The samples the analog objective sees: ``u`` (or ``v``) on the
    symbols ``kept_symbols`` keeps; every sample in digital mode."""
    w = u if v is None else v
    if mode != "analog":
        return w
    return w.reshape(-1, 80)[em.kept_symbols(z)].reshape(-1)


class TestBuild:
    def test_pilot_overlap_rejected(self):
        with pytest.raises(ConfigError):
            em.EmulationModel("qam64", (-7, -8))

    def test_null_overlap_rejected(self):
        with pytest.raises(ConfigError):
            em.EmulationModel("qam64", (0,))

    def test_output_length_equals_input_length(self):
        model = em.EmulationModel("qam64", SUBS)
        rng = dsp.make_rng(1)
        for blocks in (1, 3, 7):
            x = rng.standard_normal(80 * blocks) + 1j * rng.standard_normal(80 * blocks)
            assert len(model.forward(x)) == 80 * blocks

    def test_non_multiple_length_rejected(self):
        model = em.EmulationModel("qam64", SUBS)
        with pytest.raises(DimensionError):
            model.forward(np.ones(81, dtype=complex))

    def test_internal_grid_pilots_fixed(self):
        model = em.EmulationModel("qam64", SUBS)
        rng = dsp.make_rng(2)
        x = rng.standard_normal(160) + 1j * rng.standard_normal(160)
        h = model._to_blocks(x)
        for blk in (model.cp_remove, model.dft, model.select, model.scale,
                    model.quantize, model.assemble):
            h = blk.forward(h)
        grid = db.unstack_complex(h)
        pols = pilot_polarity_sequence()
        for s in range(2):
            assert grid[s, columns(-21)] == pols[s % 127]
            assert grid[s, columns(21)] == -pols[s % 127]

    def test_infer_shape_and_range(self):
        model = em.EmulationModel("qam64", SUBS)
        target = zigbee_target(2)
        idx = model_indices(model, target)
        assert idx.shape == (len(target.samples) // 80, len(SUBS))
        assert idx.min() >= 0 and idx.max() < 64

    def test_infer_deterministic(self):
        model = em.EmulationModel("qam64", SUBS)
        target = zigbee_target(2)
        a = model_indices(model, target)
        b = model_indices(model, target)
        assert np.array_equal(a, b)


class TestPassthrough:
    def test_body_exact_and_cp_maps_to_tail(self):
        stack = build_passthrough_autoencoder()
        rng = dsp.make_rng(3)
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        out = db.unstack_complex(stack.forward(db.stack_complex(x.reshape(-1, 80)))).reshape(-1)
        ib = x.reshape(-1, 80)
        ob = out.reshape(-1, 80)
        assert np.max(np.abs(ob[:, 16:] - ib[:, 16:])) < 1e-9
        assert np.max(np.abs(ob[:, :16] - ib[:, 64:])) < 1e-9

    def test_full_autoencoder_grad_check(self):
        model = em.EmulationModel("qam64", SUBS)
        err = db.grad_check(model.stack, dsp.make_rng(4),
                            x=dsp.make_rng(5).standard_normal((2, 160)))
        assert err < 1e-4


class TestLoss:
    def test_identical_zero_both_modes(self):
        rng = dsp.make_rng(6)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert loss_and_grad(x, x, "analog")[0] == 0.0
        assert loss_and_grad(x, x, "digital")[0] < 1e-30

    def test_quarter_turn_closed_forms(self):
        rng = dsp.make_rng(7)
        u = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        v = u * np.exp(1j * np.pi / 2)
        analog = loss_and_grad(v, u, "analog")[0]
        expected = abs(1 - np.exp(1j * np.pi / 2)) ** 2 * np.mean(np.abs(u) ** 2)
        assert abs(analog - expected) / expected < 1e-12
        digital = loss_and_grad(v, u, "digital")[0]
        assert abs(digital - (np.pi / 2) ** 2) < 1e-9

    def test_analog_equals_frequency_domain_form(self):
        # time MSE == (1/N^2) sum |U-V|^2 via the reference DFT
        rng = dsp.make_rng(8)
        for _ in range(20):
            u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            lhs = loss_and_grad(v, u, "analog")[0]
            rhs = np.sum(np.abs(np.fft.fft(u) - np.fft.fft(v)) ** 2) / 64**2
            assert abs(lhs - rhs) / rhs < 1e-9

    def test_loss_grad_matches_finite_difference(self):
        rng = dsp.make_rng(9)
        u = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        h = 1e-6
        for mode in ("analog", "digital"):
            _, g = loss_and_grad(v, u, mode)
            d = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            num = (loss_and_grad(v + h * d, u, mode)[0]
                   - loss_and_grad(v - h * d, u, mode)[0]) / (2 * h)
            ana = np.sum(g.real * d.real + g.imag * d.imag)
            assert abs(num - ana) / max(abs(num), 1e-12) < 1e-5

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            loss_and_grad(np.ones(3, dtype=complex), np.ones(4, dtype=complex), "analog")


class TestHardQuantize:
    def test_fixed_point(self):
        const = constellation("qam64")
        s = np.exp(0.3j) * 1.7
        z = const.points[13] / s
        assert const.nearest(np.array([[z]]) * np.array([s]))[0, 0] == 13

    def test_matches_bruteforce_qpsk(self):
        const = constellation("qpsk")
        rng = dsp.make_rng(10)
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        idx = const.nearest(z)
        for i in range(100):
            brute = min(range(4), key=lambda j: abs(z[i] - const.points[j]) ** 2)
            assert idx[i] == brute

    def test_always_in_point_set(self):
        const = constellation("qam16")
        rng = dsp.make_rng(11)
        z = 10 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        idx = const.nearest(z)
        assert set(idx.tolist()) <= set(range(16))

    def test_hard_scale_invariance(self):
        # the hard decision ignores the soft quantizer's temperature entirely
        model = em.EmulationModel("qam64", SUBS)
        model.scale.set_scale(1.3 * np.exp(0.4j) * np.ones(len(SUBS)))
        u = model.normalize(zigbee_target(2).samples)[0]
        i1 = model.decide(u)
        i2 = model.decide(u)  # same input
        model.quantize.tau = 17.0
        i3 = model.decide(u)
        assert np.array_equal(i1, i2)
        assert np.array_equal(i1, i3)


class TestTraining:
    def make(self):
        return em.EmulationModel("qam64", SUBS)

    def test_unknown_mode_rejected(self):
        # train picks its fit from the mode, and would fit any other as digital
        cfg = replace(sim.ExperimentConfig(epochs=1), emulation_mode="bogus")
        with pytest.raises(ConfigError, match="mode"):
            train(self.make(), zigbee_target(1), cfg)

    def test_deterministic(self):
        target = zigbee_target(1)
        runs = []
        for _ in range(2):
            model = self.make()
            train(model, target, sim.ExperimentConfig(epochs=60))
            runs.append(model.scale.s.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_best_metric_non_increasing(self):
        model = self.make()
        res = train(model, zigbee_target(1), sim.ExperimentConfig(epochs=80))
        best = np.minimum.accumulate(res.hard_metric_history)
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))
        assert res.best_hard_metric == pytest.approx(min(res.hard_metric_history))

    def test_trained_not_worse_than_maxabs_baseline(self):
        # baseline: per-symbol max-abs normalize + nearest point (scales = 1).
        # The kept scales are never worse than unit scales by the trainer's
        # own selection metric, the gain-free body error the amplitude-
        # invariant receiver sees (here 0.692 -> 0.488).  The absolute-scale
        # body NMSE is not that metric and rises as the scales move (here
        # 1.92 -> 2.71): the fixed pilots do not scale with them.
        target = zigbee_target(1, seed=3)
        model = self.make()
        baseline_idx = model_indices(model, target)  # scales still at init
        u, z = model.normalize(target.samples)
        pts = model.const.points[baseline_idx]
        h = model.assemble.forward(db.stack_complex(pts))
        h = model.idft.forward(h)
        h = model.cp_add.forward(h)
        v_base = db.unstack_complex(h).reshape(-1)
        base = selection_metric(kept("analog", u, z, v_base), kept("analog", u, z), "analog")
        train(model, target, sim.ExperimentConfig(epochs=120))
        v_hard = hard_reconstruction(model, target)
        got = selection_metric(kept("analog", u, z, v_hard), kept("analog", u, z), "analog")
        assert got <= base + 1e-12

    def test_digital_mode_improves_phase(self):
        target = zigbee_target(2, seed=4)
        analog = self.make()
        train(analog, target, sim.ExperimentConfig(epochs=150))
        digital = self.make()
        train(digital, target, sim.ExperimentConfig(epochs=150, emulation_mode="digital"))
        u, _ = analog.normalize(target.samples)
        pa = em.phase_mse_excluding_cp(hard_reconstruction(analog, target), u)
        pd = em.phase_mse_excluding_cp(hard_reconstruction(digital, target), u)
        assert pd <= pa + 1e-12

    def test_head_scale_gradient_equals_full_stack(self):
        # the trainer runs the fixed prefix once and backpropagates from the
        # scale on; the prefix in front of the scale cannot change the scale
        # gradient
        model = self.make()
        u, _ = model.normalize(zigbee_target(2, seed=6).samples)
        model.scale.set_scale(np.exp(0.3j) * np.linspace(0.8, 1.2, len(SUBS)))
        blocks = model._to_blocks(u)
        g = dsp.make_rng(12).standard_normal((blocks.shape[0], 160))
        model.stack.forward(blocks)
        model.stack.backward(g)
        full = model.scale.grad.copy()
        head = db.Sequential([model.scale, model.quantize] + model.tail.blocks)
        head.forward(model.prefix.forward(blocks))
        head.backward(g)
        assert np.any(full != 0)
        assert np.array_equal(model.scale.grad, full)

    def test_fused_tail_equals_the_layers(self):
        # train runs grid assembly, IDFT and cyclic prefix as one product
        # plus the pilots' waveform; the layers' sums run in another order
        model = self.make()
        rng = dsp.make_rng(13)
        for n_rows in (1, 5, 130):
            a, p = em.fused_tail(model, n_rows)
            q = rng.standard_normal((n_rows, 2 * len(SUBS)))
            gy = rng.standard_normal((n_rows, 160))
            assert np.max(np.abs(q @ a + p - model.tail.forward(q))) <= 1e-13
            assert np.max(np.abs(gy @ a.T - model.tail.backward(gy))) <= 1e-13

    def test_first_epoch_loss_is_the_full_stack_loss(self):
        # the trainer's objective of the layered model at scales 1+0j and
        # tau_start; train's fused tail sums in another order
        target = zigbee_target(2, seed=7)
        model = self.make()
        u, z = model.normalize(target.samples)
        expect, _ = fit_loss_and_grad(kept("analog", u, z, model.forward(u)),
                                      kept("analog", u, z), "analog")
        res = train(model, target, sim.ExperimentConfig(epochs=5))
        assert res.loss_history[0] == pytest.approx(expect, rel=1e-12, abs=0)

    def test_no_floored_symbol_enters_the_analog_objective(self, monkeypatch):
        # a frame's last symbol holds target samples only in its cyclic
        # prefix; normalize floors its peak and scales it by about 1e9
        cfg = sim.ExperimentConfig(payload=sim.random_payload(1, 8), epochs=4)
        model, _ = sim.train_model(replace(cfg, epochs=1))
        u, z = model.normalize(sim.frame_target(cfg).samples)
        floored = ~em.kept_symbols(z)
        assert np.flatnonzero(floored).tolist() == [len(z) - 1]
        assert np.max(np.abs(u.reshape(-1, 80)[floored])) > 1e6
        # the fit is built once on the rows' samples and pilots, and the
        # objective and the metric score points of those rows alone
        built, scored = [], []
        init, objective, metric = (em._GainFreeFit.__init__, em._GainFreeFit.objective,
                                   em._GainFreeFit.metric)

        def seen_init(fit, target, a, pilots):
            built.append((target, len(pilots)))
            init(fit, target, a, pilots)

        def seen_objective(fit, points):
            scored.append(len(points))
            return objective(fit, points)

        def seen_metric(fit, points):
            scored.append(len(points))
            return metric(fit, points)

        monkeypatch.setattr(em._GainFreeFit, "__init__", seen_init)
        monkeypatch.setattr(em._GainFreeFit, "objective", seen_objective)
        monkeypatch.setattr(em._GainFreeFit, "metric", seen_metric)
        em.train(model, u, z, cfg)
        want = u.reshape(-1, 80)[~floored].reshape(-1)
        assert len(built) == 1 and np.array_equal(built[0][0], want)
        assert len(scored) >= 5  # four epochs and at least one hard metric
        assert all(80 * n == len(want) for n in scored + [built[0][1]])

    @pytest.mark.parametrize("mode", ["analog", "digital"])
    def test_epochs_allocate_no_waveform(self, mode):
        # the analog fit synthesizes no waveform and the digital fit writes
        # into buffers allocated once, so an epoch after the first allocates
        # little beyond the quantizer's (L, S, m) weights; one soft waveform
        # is S*80 complex128
        cfg = sim.ExperimentConfig(payload=sim.random_payload(1, 16), emulation_mode=mode,
                                   epochs=12)
        model = em.EmulationModel(cfg.modulation, SUBS)
        u, z = model.normalize(sim.frame_target(cfg).samples)
        forward = model.quantize.forward
        marks = []  # (live, peak since the last mark) at each epoch's start

        def marked_forward(x):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return forward(x)

        model.quantize.forward = marked_forward
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            res = em.train(model, u, z, cfg)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert res.epochs_run == len(marks) - 1 == cfg.epochs
        wave = len(z) * 80 * np.dtype(np.complex128).itemsize
        above = [(peak - live) / wave for (live, _), (_, peak) in zip(marks[1:-1], marks[2:])]
        assert max(above) <= 1.5

    @pytest.mark.parametrize("mode", ["analog", "digital"])
    def test_fits_allocate_no_waveform(self, mode):
        # an objective or metric call allocates less than one stacked
        # (S, 160) waveform: the analog fit synthesizes none, the digital one
        # synthesizes into its buffers and writes complex values through
        # .real and .imag, which costs no cast buffer (measured at 32 B:
        # 0.44 of a waveform in analog mode; 36 KB in digital mode, where
        # the four 128 KB cast buffers of complex-from-real ufuncs peaked at
        # 132 KB)
        cfg = sim.ExperimentConfig(payload=sim.random_payload(1, 32), emulation_mode=mode)
        model = em.EmulationModel(cfg.modulation, SUBS)
        u, z = model.normalize(sim.frame_target(cfg).samples)
        a, pilots = em.fused_tail(model, len(z))
        fit = (em._GainFreeFit if mode == "analog" else em._PhaseFit)(u, a, pilots)
        soft = model.quantize.forward(model.scale.forward(model._bins(u)))
        hard = db.stack_complex(model.const.points[model.quantize.decisions])
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            peaks = []
            for call, points in ((fit.objective, soft), (fit.metric, hard)) * 2:
                tracemalloc.reset_peak()
                live = tracemalloc.get_traced_memory()[0]
                result = call(points)
                peaks.append(tracemalloc.get_traced_memory()[1] - live)
                del result
        finally:
            if not tracing:
                tracemalloc.stop()
        assert max(peaks) < (96 * 1024 if mode == "digital" else pilots.nbytes)

    @pytest.mark.parametrize("mode", ["analog", "digital"])
    @pytest.mark.parametrize("modulation", ["qpsk", "qam16", "qam64"])
    def test_best_hard_metric_is_the_nn_webee_reconstruction(self, modulation, mode):
        target = zigbee_target(2, seed=8)
        model = em.EmulationModel(modulation, SUBS)
        res = train(model, target, sim.ExperimentConfig(epochs=60, emulation_mode=mode))
        u, z = model.normalize(target.samples)
        v = hard_reconstruction(model, target)
        got = selection_metric(kept(mode, u, z, v), kept(mode, u, z), mode)
        # layered synthesis against train's fused tail: qam64-digital is 1 ulp off
        assert got == pytest.approx(res.best_hard_metric, rel=1e-12, abs=0)

    def test_default_config_caps_at_the_cli_epoch_count(self, monkeypatch):
        # no plateau stop, so only the cap ends training
        monkeypatch.setattr(em, "PLATEAU_PATIENCE", 10**9)
        from crossphy import cli

        res = train(self.make(), zigbee_target(1), sim.ExperimentConfig(emulation_mode="digital"))
        assert res.epochs_run == cli.experiment_config({}).epochs == 300

    def test_nonfinite_loss_aborts(self):
        model = self.make()
        bad = dsp.ComplexSignal(np.zeros(160, dtype=complex), 20e6)
        with pytest.raises(Exception):
            train(model, bad, sim.ExperimentConfig(epochs=5))

    def test_save_load_roundtrip(self, tmp_path):
        target = zigbee_target(1, seed=5)
        model = self.make()
        train(model, target, sim.ExperimentConfig(epochs=40))
        path = tmp_path / "model.json"
        em.save_model(model, path)
        back = em.load_model(path)
        assert np.array_equal(model_indices(back, target), model_indices(model, target))
        assert back.const.name == model.const.name
        assert back.target_subcarriers == model.target_subcarriers

    def test_bad_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(ConfigError):
            em.load_model(path)

    def test_overflowing_scales_rejected(self, tmp_path):
        # both parts at 1.7e308 overflowed in decide's scaling of the bins
        model = self.make()
        path = tmp_path / "big.json"
        u = model.normalize(zigbee_target(1).samples)[0]
        model.scale.set_scale(np.full(len(SUBS), 1e300 + 1e300j))
        em.save_model(model, path)
        assert np.array_equal(em.load_model(path).decide(u), model.decide(u))
        model.scale.set_scale(np.full(len(SUBS), 1.7e308 + 1.7e308j))
        em.save_model(model, path)
        with pytest.raises(ConfigError, match="key scales_re"):
            em.load_model(path)


def reference_train(model, target, cfg):
    """The epoch loop as it stood before ``train`` reused the quantizer's
    decisions and fused the tail, run on the specification's layers: the
    per-point soft quantizer, the layered tail on every symbol, and
    ``Constellation.nearest`` plus a hard synthesis every epoch.  In analog
    mode the objective and the metric see the kept symbols' samples, and the
    dropped symbols' gradient is zero."""
    quantize = SoftQuantize64(model.const, model.quantize.n, cfg.tau_start)
    head = db.Sequential([model.scale, quantize] + model.tail.blocks)

    def bins(w):
        return model.prefix.forward(db.stack_complex(w.reshape(-1, 80)))

    x = np.asarray(target.samples, dtype=np.complex128)
    raw = db.unstack_complex(bins(x))
    g = em.symbol_peaks(raw)
    u = (x.reshape(-1, 80) / g[:, None]).reshape(-1)
    z = bins(u)
    rows = em.kept_symbols(raw) if cfg.emulation_mode == "analog" else np.ones(len(z), dtype=bool)
    u_fit = u.reshape(-1, 80)[rows].reshape(-1)

    def fit_samples(h):
        return db.unstack_complex(h[rows]).reshape(-1)

    scale = model.scale
    mom = np.zeros_like(scale.s)
    vel = np.zeros_like(scale.s)
    result = em.TrainResult()
    best_s = scale.s.copy()
    stale = 0
    t = 0

    for epoch in range(cfg.epochs):
        quantize.tau = max(cfg.tau_floor, cfg.tau_start * cfg.tau_decay**epoch)

        v_soft = fit_samples(head.forward(z))
        soft_loss, g = fit_loss_and_grad(v_soft, u_fit, cfg.emulation_mode)
        gy = np.zeros((len(z), 160))
        gy[rows] = db.stack_complex(g.reshape(-1, 80))
        head.backward(gy)

        idx = model.const.nearest(db.unstack_complex(model.scale.forward(z)))
        v_hard = fit_samples(model.tail.forward(db.stack_complex(model.const.points[idx])))
        metric = selection_metric(v_hard, u_fit, cfg.emulation_mode)
        result.loss_history.append(soft_loss)
        result.hard_metric_history.append(metric)
        if metric < result.best_hard_metric - em.PLATEAU_TOL:
            result.best_hard_metric = metric
            result.best_epoch = epoch
            best_s = scale.s.copy()
            stale = 0
        else:
            stale += 1
            if stale >= em.PLATEAU_PATIENCE:
                break

        t += 1
        gk = scale.grad
        mom = em.ADAM_BETA1 * mom + (1 - em.ADAM_BETA1) * gk
        vel = em.ADAM_BETA2 * vel + (1 - em.ADAM_BETA2) * gk**2
        m_hat = mom / (1 - em.ADAM_BETA1**t)
        v_hat = vel / (1 - em.ADAM_BETA2**t)
        scale.s = scale.s - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + em.ADAM_EPS)

    scale.s = best_s
    result.epochs_run = len(result.loss_history)
    return result, len(u_fit)


# 8 B frames are 2/3 of the 32 B ones' rows
@pytest.mark.parametrize("n_bytes", [8, 32])
@pytest.mark.parametrize("mode", ["analog", "digital"])
@pytest.mark.parametrize("modulation,rate", [("bpsk", "3/4"), ("qpsk", "1/2"),
                                             ("qam16", "3/4"), ("qam64", "1/2")])
def test_train_equals_the_reference_loop(modulation, rate, mode, n_bytes):
    # train's per-axis quantizer and fused tail round differently from the
    # layers: the histories agree to rounding, every decision exactly
    payload = sim.random_payload(1, n_bytes)
    cfg = sim.ExperimentConfig(payload=payload, modulation=modulation, coding_rate=rate,
                               emulation_mode=mode)
    model, got = sim.train_model(cfg)

    ref_model = em.EmulationModel(model.const.name, model.target_subcarriers)
    target = sim.frame_target(cfg)
    want, n = reference_train(ref_model, target, cfg)

    assert got.epochs_run == want.epochs_run
    assert got.best_epoch == want.best_epoch
    u, _ = model.normalize(target.samples)
    assert np.array_equal(model.decide(u), ref_model.decide(u))
    assert got.best_hard_metric == pytest.approx(want.best_hard_metric, rel=1e-12, abs=0)
    assert got.hard_metric_history == pytest.approx(want.hard_metric_history, rel=1e-12, abs=0)
    if mode == "analog":
        assert got.loss_history == pytest.approx(want.loss_history, rel=1e-12, abs=0)
    else:
        # the phase error is +-pi instead of 0 where the target sample is
        # exactly zero (ROADMAP, Known defects), and which one the quadrant
        # of the soft output there picks; a sample near zero in one
        # rounding and not the other moves the loss by a multiple of pi^2/n
        turns = (np.array(got.loss_history) - np.array(want.loss_history)) * n / np.pi**2
        assert np.max(np.abs(turns - np.round(turns))) <= 1e-6
    n_rows = len(target.samples) // 80
    assert [(type(b).__name__, held_rows(b, n_rows)) for b in model.stack.blocks
            if held_rows(b, n_rows)] == []


def test_negative_zero_pilots_keep_the_complex_signs_of_zero():
    # the phase fit adds the pilots to the product as reals, which holds the
    # complex path's signs of zero (Re re + 0*im, Im im + 0.0) while the
    # product has no -0.0, even where a pilot part is -0.0
    cfg = sim.ExperimentConfig(payload=sim.random_payload(1, 8), emulation_mode="digital")
    model = em.EmulationModel(cfg.modulation, SUBS)
    u, z = model.normalize(sim.frame_target(cfg).samples)
    a, pilots = em.fused_tail(model, len(z))
    pilots = np.where(pilots == 0, -0.0, pilots)
    assert np.any(np.signbit(pilots) & (pilots == 0))
    fit = em._PhaseFit(u, a, pilots)
    soft = model.quantize.forward(model.scale.forward(model._bins(u)))
    loss, grad = fit_loss_and_grad(em._waveform(soft @ a + pilots), u, "digital")
    assert fit.objective(soft)[0] == loss
    assert np.array_equal(fit.h.view(np.uint64),
                          db.stack_complex(grad.reshape(-1, 80)).view(np.uint64))
    hard = db.stack_complex(model.const.points[model.quantize.decisions])
    assert fit.metric(hard) == selection_metric(em._waveform(hard @ a + pilots), u, "digital")


# Digital frames keep their padded tail, whose exact-zero target samples make
# the phase error +-pi or 0 by the signs of the output's zeros; the digital
# fit's gradients compare as bits, signs of zero too.  The analog fit is the
# oracles' algebra in closed form, so it agrees with them to rounding: within
# 64 eps, the gradient relative to its largest entry.
@pytest.mark.parametrize("n_bytes", [8, 32])
@pytest.mark.parametrize("mode", ["analog", "digital"])
@pytest.mark.parametrize("modulation,rate", [("bpsk", "3/4"), ("qpsk", "1/2"),
                                             ("qam16", "3/4"), ("qam64", "1/2")])
def test_workspace_equals_the_objective_and_metric(modulation, rate, mode, n_bytes):
    cfg = sim.ExperimentConfig(payload=sim.random_payload(1, n_bytes), modulation=modulation,
                               coding_rate=rate, emulation_mode=mode)
    model = em.EmulationModel(modulation, SUBS)
    u, z = model.normalize(sim.frame_target(cfg).samples)
    rows = em.kept_symbols(z) if mode == "analog" else np.ones(len(z), dtype=bool)
    target = u.reshape(-1, 80)[rows].reshape(-1)
    assert mode == "analog" or np.any(target == 0)
    a, pilots = em.fused_tail(model, len(z))
    pilots = pilots[rows]
    fit = (em._GainFreeFit if mode == "analog" else em._PhaseFit)(target, a, pilots)
    bins = model._bins(u)[rows]
    tol = 64 * np.finfo(float).eps
    for scale, tau in ((1.0, cfg.tau_start), (np.exp(0.3j) * np.linspace(0.8, 1.2, 7), 0.05)):
        model.scale.set_scale(np.broadcast_to(scale, 7))
        model.quantize.tau = tau
        soft = model.quantize.forward(model.scale.forward(bins))
        loss, grad = fit_loss_and_grad(em._waveform(soft @ a + pilots), target, mode)
        stacked = db.stack_complex(grad.reshape(-1, 80))
        got_loss, got_grad = fit.objective(soft)
        hard = db.stack_complex(model.const.points[model.quantize.decisions])
        want = selection_metric(em._waveform(hard @ a + pilots), target, mode)
        if mode == "digital":
            assert got_loss == loss
            assert np.array_equal(fit.h.view(np.uint64), stacked.view(np.uint64))
            assert np.array_equal(got_grad.view(np.uint64), (stacked @ a.T).view(np.uint64))
            assert fit.metric(hard) == want
        else:
            assert got_loss == pytest.approx(loss, rel=tol, abs=0)
            err = np.max(np.abs(got_grad - stacked @ a.T))
            assert err <= tol * np.max(np.abs(stacked @ a.T))
            assert fit.metric(hard) == pytest.approx(want, rel=tol, abs=0)


def test_training_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS dot product splits its sum across threads, so its last bits
    # follow the thread count; the fit's sums are numpy's, the same on any
    script = textwrap.dedent("""
        import sys
        from crossphy import sim
        from crossphy.emulation import save_model
        model, result = sim.train_model(sim.ExperimentConfig())
        save_model(model, sys.argv[1])
        print(repr(result))
    """)
    src = str(Path(sim.__file__).resolve().parent.parent)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / f"model-{threads}.json"
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, check=True)
        runs.append((out.stdout, path.read_bytes()))
    assert "TrainResult(" in runs[0][0]
    assert runs[0] == runs[1]
