"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np

from crossphy import diffblocks as db
from crossphy import dsp, emulation as em, sim, solver, wifi, zigbee
from emulation_oracle import build_passthrough_autoencoder, loss_and_grad
from zigbee_oracle import oqpsk_demodulate


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {summary}")
        raise
    print(f"ACCEPTANCE {num} PASS: {summary}")


def test_01_parseval_loss_identity():
    with criterion(1, "time-domain MSE equals (1/N^2) sum|U-V|^2 to 1e-9 rel, 1000 pairs, <1s"):
        rng = dsp.make_rng(100)
        t0 = time.time()
        for _ in range(1000):
            u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            lhs = loss_and_grad(v, u, "analog")[0]
            rhs = float(np.sum(np.abs(np.fft.fft(u) - np.fft.fft(v)) ** 2)) / 64**2
            assert abs(lhs - rhs) / rhs < 1e-9
        assert time.time() - t0 < 1.0


def test_02_nn_vs_reference_dsp_equivalence():
    with criterion(2, "NN DFT/IDFT match reference to 1e-9; NN-path vs reference-path "
                      "hard-demap BER within 0.5pp at SNR 0..20dB, 1e5 symbols/point, <1min"):
        t0 = time.time()
        rng = dsp.make_rng(200)
        dft_blk = db.dft_layer()
        idft_blk = db.idft_layer()
        # transform agreement on 1000 random vectors
        z = rng.standard_normal((1000, 64)) + 1j * rng.standard_normal((1000, 64))
        got_f = db.unstack_complex(dft_blk.forward(db.stack_complex(z)))
        ref_f = z @ dsp.DFT_BASIS.T
        assert np.max(np.abs(got_f - ref_f)) < 1e-9
        got_i = db.unstack_complex(idft_blk.forward(db.stack_complex(z)))
        ref_i = z @ dsp.IDFT_BASIS.T
        assert np.max(np.abs(got_i - ref_i)) < 1e-9

        n_blocks = 1565  # 100160 symbols >= 1e5 per point
        for name in ("qam16", "qam64"):
            const = wifi.constellation(name)
            bps = const.bits_per_symbol
            for snr_db in (0, 4, 8, 12, 16, 20):
                bits = rng.integers(0, 2, n_blocks * 64 * bps).astype(np.uint8)
                syms = const.map_bits(bits).reshape(n_blocks, 64)
                # both paths share one noise realization (paired comparison)
                time_ref = syms @ dsp.IDFT_BASIS.T
                time_nn = db.unstack_complex(idft_blk.forward(db.stack_complex(syms)))
                p = np.mean(np.abs(time_ref) ** 2)
                nv = p / 10 ** (snr_db / 10)
                noise = math.sqrt(nv / 2) * (
                    rng.standard_normal(time_ref.shape) + 1j * rng.standard_normal(time_ref.shape)
                )
                bins_ref = (time_ref + noise) @ dsp.DFT_BASIS.T
                bins_nn = db.unstack_complex(dft_blk.forward(db.stack_complex(time_nn + noise)))
                bits_ref = np.array(const.labels())[const.nearest(bins_ref)].reshape(-1)
                idx_nn = const.nearest(db.unstack_complex(db.stack_complex(bins_nn))).reshape(-1)
                bits_nn = ((idx_nn[:, None] >> np.arange(bps - 1, -1, -1)) & 1).reshape(-1)
                ber_ref = np.mean(bits_ref != bits)
                ber_nn = np.mean(bits_nn.astype(np.uint8) != bits)
                assert abs(ber_nn - ber_ref) < 0.005, (name, snr_db, ber_ref, ber_nn)
        assert time.time() - t0 < 60.0


def test_03_gradient_correctness():
    with criterion(3, "every differentiable block and the full autoencoder pass "
                      "central-difference checks below 1e-4, <1min"):
        t0 = time.time()
        rng = dsp.make_rng(300)
        subs = sim.target_subcarriers(-3.125e6, 7)
        const = wifi.constellation("qam64")
        blocks = {
            "dft": db.dft_layer(),
            "idft": db.idft_layer(),
            "cp_add": db.cp_add_layer(),
            "cp_remove": db.cp_remove_layer(),
            "bin_select": db.bin_select_layer(wifi.columns(subs)),
            "complex_scale": db.ComplexScale(7),
            "soft_quantize": db.SoftQuantize(const, 7, tau=1.0),
            "grid_assemble": db.GridAssemble(wifi.columns(subs)),
        }
        for name, blk in blocks.items():
            err = db.grad_check(blk, rng)
            assert err < 1e-4, (name, err)
        model = em.EmulationModel("qam64", subs)
        err = db.grad_check(model.stack, rng, x=rng.standard_normal((2, 160)))
        assert err < 1e-4, ("autoencoder", err)
        assert time.time() - t0 < 60.0


def test_04_cyclic_prefix_algebra():
    with criterion(4, "W_R W_A = I exactly; bypassed autoencoder reproduces non-CP "
                      "samples to 1e-9 and maps CP regions to symbol tails"):
        assert np.array_equal(db.cp_remove_matrix() @ db.cp_add_matrix(), np.eye(64))
        stack = build_passthrough_autoencoder()
        rng = dsp.make_rng(400)
        x = rng.standard_normal(80 * 12) + 1j * rng.standard_normal(80 * 12)
        out = db.unstack_complex(stack.forward(db.stack_complex(x.reshape(-1, 80)))).reshape(-1)
        ib = x.reshape(-1, 80)
        ob = out.reshape(-1, 80)
        assert np.max(np.abs(ob[:, 16:] - ib[:, 16:])) < 1e-9  # bodies exact
        assert np.max(np.abs(ob[:, :16] - ib[:, 64:])) < 1e-9  # CP = tail copy


def test_05_gf2_solver_consistent_systems():
    with criterion(5, "100 random consistent rate-1/2 systems (<=512 unknowns) solve "
                      "with zero violations, re-encode bit-exactly, each <1s"):
        rng = dsp.make_rng(500)
        specs = [("bpsk", 24), ("qpsk", 48), ("qam16", 96), ("qam64", 144)]
        for trial in range(100):
            name, n_dbps = specs[trial % len(specs)]
            mcs = wifi.mcs_config(name, "1/2")
            n = n_dbps * int(rng.integers(1, 512 // n_dbps + 1))
            seed = int(rng.integers(1, 128))
            G, c = solver.build_generator(n, mcs, seed)
            x_true = rng.integers(0, 2, n).astype(np.uint8)
            y = (G @ x_true) % 2 ^ c
            # labels on all 48 data subcarriers: every coded bit is masked
            b = mcs.n_bpsc
            grid = y.reshape(-1, len(wifi.DATA_SUBCARRIERS), b) @ (1 << np.arange(b - 1, -1, -1))
            t0 = time.time()
            rep = solver.solve_payload(grid, mcs, seed, wifi.DATA_SUBCARRIERS)
            assert time.time() - t0 < 1.0
            assert not rep.violated_positions
            assert np.array_equal(wifi.coding_chain(rep.x, mcs, seed), y)


def test_06_end_to_end_noiseless_decode(trained_plan):
    with criterion(6, "trained analog emulation of a 32-byte frame through the standard "
                      "transmitter decodes with SER=0, PRR=1 over 20 frames; "
                      "training <=10min"):
        assert trained_plan.train_seconds <= 600.0
        assert trained_plan.wall_seconds <= 600.0
        cfg = trained_plan.config
        m = sim.run_point(
            dataclasses.replace(
                # reuse the already-planned frame; only the channel loop runs
                trained_plan, config=dataclasses.replace(cfg, trials=20)
            ),
            math.inf,
        )
        assert m.ser == 0.0, m
        assert m.prr == 1.0, m
        assert m.violated_bit_count == 0


def test_07_baseline_ordering(trained_plan, webee_plan, digital_plan):
    with criterion(7, "at SNR {0,4,8,12} dB x100 trials: CER(trained) <= CER(webee) and "
                      "PRR(trained) >= PRR(webee); digital-mode phase error <= analog"):
        for snr in (12.0, 8.0, 4.0, 0.0):
            mt = sim.run_point(trained_plan, snr)
            mw = sim.run_point(webee_plan, snr)
            assert mt.trials >= 100 and mw.trials >= 100
            assert mt.chip_error_rate <= mw.chip_error_rate + 1e-12, snr
            assert mt.prr >= mw.prr - 1e-12, snr
        assert digital_plan.phase_mse_body <= trained_plan.phase_mse_body + 1e-12


def test_08_exported_scales_improve_webee(webee_plan, nn_webee_plan):
    with criterion(8, "webee rule with trained per-subcarrier scales: CER(nn-webee) <= "
                      "CER(webee) at every tested SNR, 100 trials each"):
        for snr in (12.0, 8.0, 4.0, 0.0):
            mn = sim.run_point(nn_webee_plan, snr)
            mw = sim.run_point(webee_plan, snr)
            assert mn.trials >= 100 and mw.trials >= 100
            assert mn.chip_error_rate <= mw.chip_error_rate + 1e-12, snr


def test_08_exported_scales_transfer_to_other_payloads(acceptance_cfg, trained_plan):
    with criterion(8, "trained scales borrowed by payloads they were not trained on: "
                      "CER(borrowed) <= CER(webee) at every tested SNR, 100 trials each"):
        for payload in (sim.random_payload(1, 32), sim.random_payload(4, 16)):
            cfg = dataclasses.replace(acceptance_cfg, payload=payload, quantizer_mode="trained")
            borrowed = sim.plan_frame(cfg, model=trained_plan.model)
            webee = sim.plan_frame(dataclasses.replace(cfg, quantizer_mode="webee"))
            for snr in (12.0, 8.0, 4.0, 0.0):
                mb = sim.run_point(borrowed, snr)
                mw = sim.run_point(webee, snr)
                assert mb.trials >= 100 and mw.trials >= 100
                assert mb.chip_error_rate <= mw.chip_error_rate + 1e-12, (len(payload), snr)


def test_09_zigbee_modem_self_consistency():
    with criterion(9, "noiseless roundtrips exact for all 16 symbols and 100 random "
                      "payloads; <=5 chip errors per window never flip a symbol (1e4 trials)"):
        for s in range(16):
            chips = zigbee.symbols_to_chips(np.array([s] * 4))
            sig = zigbee.oqpsk_modulate(chips)
            _, hard = oqpsk_demodulate(sig)
            assert np.array_equal(hard, chips), f"symbol {s}"
        rng = dsp.make_rng(900)
        for _ in range(100):
            payload = bytes(rng.integers(0, 256, int(rng.integers(1, 100))).tolist())
            sig = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(zigbee.build_frame(payload)))
            res = zigbee.decode_frame(sig, expected_payload=payload)
            assert res.detected and res.payload == payload and res.ser == 0.0
        # DSSS correction budget, exhaustive symbol values x random masks
        pm_table = 2.0 * zigbee.CHIP_TABLE.astype(float) - 1
        trials = 10**4
        syms = rng.integers(0, 16, trials)
        chips = zigbee.CHIP_TABLE[syms].astype(float) * 2 - 1
        n_err = rng.integers(0, 6, trials)
        for t in range(trials):
            pos = rng.permutation(32)[: n_err[t]]
            chips[t, pos] *= -1
        decided = np.argmax(chips @ pm_table.T, axis=1)
        assert np.array_equal(decided, syms)
