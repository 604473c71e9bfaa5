import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from crossphy import cli, emulation, sim
from crossphy.errors import ConfigError


def run_cli(args):
    return cli.main(args)


class TestParseConfig:
    def test_minimal_defaults(self):
        doc = cli.parse_config(None, {})
        cfg = cli.experiment_config(doc)
        assert cfg.seed == 0
        assert cfg.quantizer_mode == "trained"
        assert cfg.modulation == "qam64"
        assert len(cfg.payload) == 32

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"snr_dd": [1]}))
        with pytest.raises(ConfigError, match="snr_dd"):
            cli.parse_config(str(path), {})

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trials": 3, "seed": 5}))
        doc = cli.parse_config(str(path), {"trials": 9})
        assert doc["trials"] == 9 and doc["seed"] == 5

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trials": "many"}))
        with pytest.raises(ConfigError, match="trials"):
            cli.parse_config(str(path), {})

    def test_snr_inf_sentinel(self):
        cfg = cli.experiment_config({"snr_db": ["inf", 4]})
        assert cfg.snr_db[0] == float("inf") and cfg.snr_db[1] == 4.0

    def test_payload_hex(self):
        cfg = cli.experiment_config({"payload_hex": "deadbeef"})
        assert cfg.payload == bytes.fromhex("deadbeef")


class TestSubcommands:
    def test_unknown_subcommand_usage_exit(self, capsys):
        assert run_cli(["frobnicate"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_missing_config_file_exit(self, capsys):
        assert run_cli(["evaluate", "--config", "/nonexistent.json"]) == cli.EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_unreadable_config_file_exit(self, tmp_path, capsys):
        # a directory opens with IsADirectoryError, an OSError like a missing file's
        assert run_cli(["evaluate", "--config", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: config:" in err and str(tmp_path) in err

    def test_grad_check_passes(self, capsys):
        assert run_cli(["grad-check"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "OK" in out and "autoencoder" in out

    def test_zigbee_mod_demod_roundtrip(self, tmp_path, capsys):
        iq = tmp_path / "z.cf32"
        args = ["--payload-hex", "0102030405", "--iq-out", str(iq)]
        assert run_cli(["zigbee-mod"] + args) == cli.EXIT_OK
        capsys.readouterr()
        out_json = tmp_path / "d.json"
        assert run_cli(["zigbee-demod"] + args + ["--metrics-out", str(out_json)]) == cli.EXIT_OK
        doc = json.loads(out_json.read_text())
        demod = doc["deterministic"]["zigbee_demod"]
        assert demod["detected"] is True
        assert demod["payload_hex"] == "0102030405"
        assert demod["ser"] == 0.0

    @pytest.mark.parametrize("raw", [b"abc", np.ones(3, dtype="<f4").tobytes()],
                             ids=["truncated", "odd-float-count"])
    def test_zigbee_demod_malformed_cf32_names_iq_out(self, tmp_path, capsys, raw):
        iq = tmp_path / "bad.cf32"
        iq.write_bytes(raw)
        assert run_cli(["zigbee-demod", "--iq-out", str(iq)]) == cli.EXIT_CONFIG
        assert "iq_out" in capsys.readouterr().err

    def test_zigbee_demod_empty_cf32_is_not_detected(self, tmp_path):
        iq = tmp_path / "empty.cf32"
        iq.write_bytes(b"")
        out_json = tmp_path / "d.json"
        assert run_cli(["zigbee-demod", "--iq-out", str(iq),
                        "--metrics-out", str(out_json)]) == cli.EXIT_OK
        demod = json.loads(out_json.read_text())["deterministic"]["zigbee_demod"]
        assert demod["detected"] is False and demod["sync_corr"] == 0.0

    @pytest.mark.parametrize("payload", [["--payload-len", "5"], ["--payload-len", "5", "--seed", "3"],
                                         ["--payload-hex", "0102030405"]])
    def test_zigbee_demod_compares_the_payload_zigbee_mod_sent(self, tmp_path, capsys, payload):
        # payload_len selects the payload as payload_hex does, for both commands
        iq, out_json = tmp_path / "z.cf32", tmp_path / "d.json"
        assert run_cli(["zigbee-mod", "--iq-out", str(iq)] + payload) == cli.EXIT_OK
        assert run_cli(["zigbee-demod", "--iq-out", str(iq), "--metrics-out", str(out_json)]
                       + payload) == cli.EXIT_OK
        demod = json.loads(out_json.read_text())["deterministic"]["zigbee_demod"]
        assert demod["detected"] is True
        assert demod["ser"] == demod["chip_error_rate"] == 0.0

    @pytest.mark.parametrize("case", ["empty", "detected", "no-payload"])
    def test_zigbee_demod_writes_strict_json(self, tmp_path, capsys, case):
        # a missing error rate is null: NaN is not JSON (RFC 8259)
        iq = tmp_path / "z.cf32"
        payload = ["--payload-hex", "0102030405"]
        if case == "empty":
            iq.write_bytes(b"")
        else:
            assert run_cli(["zigbee-mod", "--iq-out", str(iq)] + payload) == cli.EXIT_OK
            capsys.readouterr()
        out_json = tmp_path / "d.json"
        args = payload if case == "detected" else []
        assert run_cli(["zigbee-demod", "--iq-out", str(iq),
                        "--metrics-out", str(out_json)] + args) == cli.EXIT_OK

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        demod = json.loads(out_json.read_text(), parse_constant=reject)["deterministic"][
            "zigbee_demod"]
        rates = {"empty": None, "detected": 0.0, "no-payload": None}[case]
        assert demod["detected"] is (case != "empty")
        assert demod["ser"] == demod["chip_error_rate"] == rates

    def test_evaluate_noiseless_webee(self, tmp_path):
        out = tmp_path / "m.json"
        rc = run_cli(["evaluate", "--payload-hex", "00112233", "--quantizer-mode", "webee",
                      "--snr-db", "inf", "--trials", "1", "--metrics-out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        m = doc["deterministic"]["metrics"][0]
        assert m["ser"] == 0.0 and m["prr"] == 1.0

    def test_deterministic_block_reproducible(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = run_cli(["evaluate", "--payload-hex", "0102", "--quantizer-mode", "webee",
                          "--snr-db", "8", "--trials", "2", "--metrics-out", str(out)])
            assert rc == cli.EXIT_OK
            outs.append(json.dumps(json.loads(out.read_text())["deterministic"], sort_keys=True))
        assert outs[0] == outs[1]

    def test_config_echo_holds_every_setting(self, tmp_path):
        echoes = []
        for tau in ("0.5", "0.9"):
            out = tmp_path / f"{tau}.json"
            rc = run_cli(["solve-payload", "--payload-hex", "0011", "--quantizer-mode", "webee",
                          "--tau-start", tau, "--metrics-out", str(out)])
            assert rc == cli.EXIT_OK
            echoes.append(json.loads(out.read_text())["deterministic"]["config"])
        for f in dataclasses.fields(sim.ExperimentConfig):
            assert ("payload_hex" if f.name == "payload" else f.name) in echoes[0]
        assert (echoes[0]["tau_start"], echoes[1]["tau_start"]) == (0.5, 0.9)
        assert echoes[0] != echoes[1]

    def test_transmit_writes_cf32(self, tmp_path, capsys):
        iq = tmp_path / "tx.cf32"
        rc = run_cli(["transmit", "--payload-hex", "00" * 18, "--iq-out", str(iq)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        raw = np.fromfile(iq, dtype="<f4")
        assert len(raw) == 2 * 80  # one OFDM symbol at qam64 r1/2

    def test_train_then_emulate_with_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        args = ["--payload-hex", "aa55", "--epochs", "20", "--model-file", str(model)]
        assert run_cli(["train"] + args) == cli.EXIT_OK
        capsys.readouterr()
        assert model.exists()
        out = tmp_path / "emu.json"
        rc = run_cli(["emulate"] + args + ["--metrics-out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert "emulation" in doc["deterministic"]
        assert doc["deterministic"]["emulation"]["violated_bit_count"] == 0

    def test_solve_payload_emits_psdu(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli(["solve-payload", "--payload-hex", "0011", "--quantizer-mode", "webee",
                      "--metrics-out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["deterministic"]["solve"]["psdu_hex"]) > 0

    def test_evaluate_nn_webee_from_model_file(self, tmp_path):
        model = tmp_path / "model.json"
        base = ["--payload-hex", "a1b2c3", "--epochs", "15"]
        assert run_cli(["train"] + base + ["--model-file", str(model),
                                           "--metrics-out", str(tmp_path / "t.json")]) == cli.EXIT_OK
        out = tmp_path / "m.json"
        rc = run_cli(["evaluate"] + base + ["--quantizer-mode", "trained",
                                            "--model-file", str(model),
                                            "--snr-db", "inf", "--trials", "1",
                                            "--metrics-out", str(out)])
        assert rc == cli.EXIT_OK
        m = json.loads(out.read_text())["deterministic"]["metrics"][0]
        assert m["prr"] == 1.0

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run_cli(["sweep", "--snr-db", "inf", "--trials", "1",
                      "--payload-lens", "2", "--modes", "webee,wide",
                      "--metrics-out", str(out)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + 2 rows


class TestSolvePayloadOutputs:
    @pytest.mark.parametrize("seed", ["0", "200"])
    def test_scrambler_seed_out_of_range_is_config_error(self, seed, capsys):
        rc = run_cli(["solve-payload", "--payload-hex", "0011", "--quantizer-mode", "webee",
                      "--scrambler-seed", seed])
        assert rc == cli.EXIT_CONFIG
        assert "scrambler_seed" in capsys.readouterr().err

    def test_iq_out_holds_transmit_waveform(self, tmp_path):
        from crossphy import sim

        iq = tmp_path / "tx.cf32"
        out = tmp_path / "s.json"
        args = ["--payload-hex", "0011", "--quantizer-mode", "webee"]
        assert run_cli(["solve-payload"] + args + ["--iq-out", str(iq),
                                                   "--metrics-out", str(out)]) == cli.EXIT_OK
        tx = sim.plan_frame(cli.experiment_config(
            {"payload_hex": "0011", "quantizer_mode": "webee"})).tx
        raw = np.fromfile(iq, dtype="<f4")
        assert len(raw) == 2 * len(tx)
        assert np.array_equal(raw[0::2], tx.samples.real.astype("<f4"))
        solve = json.loads(out.read_text())["deterministic"]["solve"]
        assert 1 <= solve["max_span"] <= 7


class TestModelFile:
    @pytest.mark.parametrize("command", ["emulate", "evaluate", "solve-payload"])
    def test_missing_model_file_is_runtime_error(self, command, tmp_path, capsys):
        rc = run_cli([command, "--payload-hex", "aa55", "--epochs", "5",
                      "--model-file", str(tmp_path / "absent.json")])
        assert rc == cli.EXIT_RUNTIME
        assert "absent.json" in capsys.readouterr().err

    def test_solve_payload_uses_the_trained_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        args = ["--payload-hex", "a1b2c3", "--epochs", "25", "--model-file", str(model)]
        assert run_cli(["train"] + args + ["--emulation-mode", "digital"]) == cli.EXIT_OK
        capsys.readouterr()
        # a retrained model would come out of 3 analog epochs, not 25 digital ones
        short = ["--payload-hex", "a1b2c3", "--epochs", "3", "--model-file", str(model)]
        psdu = {}
        for command, block in (("emulate", "emulation"), ("solve-payload", "solve")):
            out = tmp_path / f"{command}.json"
            assert run_cli([command] + short + ["--metrics-out", str(out)]) == cli.EXIT_OK
            psdu[command] = json.loads(out.read_text())["deterministic"][block]["psdu_hex"]
        assert psdu["emulate"] == psdu["solve-payload"]
        cfg = cli.experiment_config({"payload_hex": "a1b2c3"})
        plan = sim.plan_frame(cfg, model=emulation.load_model(model))
        assert psdu["emulate"] == plan.report.psdu.hex()

    # False and 0.0 compare equal to 0 but are not the integer the key holds
    @pytest.mark.parametrize("start_symbol,rc", [(0, cli.EXIT_OK), (5, cli.EXIT_CONFIG),
                                                 (False, cli.EXIT_CONFIG),
                                                 (0.0, cli.EXIT_CONFIG)])
    def test_model_start_symbol_must_be_zero(self, tmp_path, capsys, start_symbol, rc):
        cfg = sim.ExperimentConfig()
        subs = sim.target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
        model = tmp_path / "model.json"
        emulation.save_model(emulation.EmulationModel(cfg.modulation, subs), model)
        doc = json.loads(model.read_text())
        assert "start_symbol" not in doc
        model.write_text(json.dumps({**doc, "start_symbol": start_symbol}))
        assert run_cli(["emulate", "--payload-hex", "aa55", "--model-file", str(model)]) == rc
        if rc == cli.EXIT_CONFIG:
            assert "start_symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate,key", [
        (lambda d: {"format_version": 1}, "constellation"),
        (lambda d: [1], "model_file"),
        (lambda d: {**d, "scales_re": [1.0, 1.0], "scales_im": [0.0, 0.0]}, "scales_re"),
        (lambda d: {**d, "scales_re": ["1"] + d["scales_re"][1:]}, "scales_re"),
        (lambda d: {**d, "scales_im": d["scales_im"] + [0.0]}, "scales_im"),
        (lambda d: {**d, "scales_re": [True] * 7}, "scales_re"),
        (lambda d: {**d, "scales_re": [10**400] * 7}, "scales_re"),
        (lambda d: {**d, "tau": 0}, "tau"),
        (lambda d: {**d, "tau": float("nan")}, "tau"),
        (lambda d: {**d, "constellation": "qam8"}, "constellation"),
        (lambda d: {**d, "constellation": "QAM64"}, "constellation"),
        (lambda d: {**d, "target_subcarriers": "-14"}, "target_subcarriers"),
        (lambda d: {**d, "target_subcarriers": [0] + d["target_subcarriers"][1:]},
         "target_subcarriers"),
        (lambda d: {**d, "target_subcarriers": d["target_subcarriers"][:1] * 2
                    + d["target_subcarriers"][2:]}, "target_subcarriers"),
        (lambda d: {**d, "format_version": True}, "format_version"),
    ], ids=["version-only", "list", "two-scales", "string-scale", "eight-scales",
            "bool-scales", "huge-scales", "zero-tau", "nan-tau", "constellation",
            "upper-case-constellation", "subcarriers-not-list", "null-subcarrier",
            "repeated-subcarrier", "bool-version"])
    def test_malformed_model_file_names_its_key(self, tmp_path, capsys, mutate, key):
        cfg = sim.ExperimentConfig()
        subs = sim.target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
        model = tmp_path / "model.json"
        emulation.save_model(emulation.EmulationModel(cfg.modulation, subs), model)
        model.write_text(json.dumps(mutate(json.loads(model.read_text()))))
        assert run_cli(["emulate", "--payload-hex", "01", "--model-file", str(model)]) \
            == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["analog", "digital"])
    def test_model_file_with_the_retired_mode_key_plans_as_without_it(self, tmp_path, mode):
        # files written while the model kept its own training objective hold
        # a "mode" key; the objective is the config's now, and load_model
        # ignores the key as it ignores any unknown one
        model, _ = sim.train_model(sim.ExperimentConfig(payload=bytes.fromhex("a1b2c3"),
                                                        epochs=25, emulation_mode="digital"))
        assert not np.array_equal(model.scale.scale, np.ones(len(model.target_subcarriers)))
        path = tmp_path / "model.json"
        emulation.save_model(model, path)
        doc = json.loads(path.read_text())
        assert "mode" not in doc
        psdu = []
        for saved in (doc, {"format_version": 1, "constellation": doc["constellation"],
                            "mode": mode, **doc}):
            path.write_text(json.dumps(saved, indent=2))
            out = tmp_path / "emulate.json"
            assert run_cli(["emulate", "--payload-hex", "a1b2c3", "--epochs", "3",
                            "--model-file", str(path), "--metrics-out", str(out)]) == cli.EXIT_OK
            psdu.append(json.loads(out.read_text())["deterministic"]["emulation"]["psdu_hex"])
        assert psdu[0] == psdu[1]
        plan = sim.plan_frame(cli.experiment_config({"payload_hex": "a1b2c3"}), model=model)
        assert psdu[0] == plan.report.psdu.hex()

    @pytest.mark.parametrize("flags,key", [
        (["--modulation", "qam16"], "modulation"),
        (["--target-subcarrier-count", "5"], "target_subcarrier_count"),
        (["--delta-f-hz", "0"], "delta_f_hz"),
    ])
    def test_model_mismatch_names_the_config_key(self, tmp_path, capsys, flags, key):
        # a model file for the default config, planned under another
        # constellation or other subcarriers
        cfg = sim.ExperimentConfig()
        subs = sim.target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
        model = tmp_path / "model.json"
        emulation.save_model(emulation.EmulationModel(cfg.modulation, subs), model)
        assert run_cli(["emulate", "--payload-hex", "01", "--model-file", str(model)]
                       + flags) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_model_file_not_json_is_config_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("{")
        assert run_cli(["emulate", "--payload-hex", "01", "--model-file", str(model)]) \
            == cli.EXIT_CONFIG
        assert "model_file" in capsys.readouterr().err


def _config_exit(tmp_path, capsys, doc, command="evaluate"):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    rc = run_cli([command, "--config", str(path), "--payload-hex", "0011"])
    return rc, capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize("doc,key", [
        ({"epochs": -1}, "epochs"),
        ({"epochs": 0}, "epochs"),
        ({"learning_rate": -0.01}, "learning_rate"),
        ({"learning_rate": 0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"tau_floor": 0}, "tau_floor"),
        ({"tau_floor": -0.1}, "tau_floor"),
        ({"tau_start": 0.01, "tau_floor": 0.05}, "tau_start"),
        ({"tau_decay": 0}, "tau_decay"),
        ({"tau_decay": 1.5}, "tau_decay"),
        ({"tau_floor": 1e-323, "tau_decay": 5e-324}, "tau_floor"),
    ])
    def test_training_settings_rejected(self, tmp_path, capsys, doc, key):
        rc, err = _config_exit(tmp_path, capsys, doc)
        assert rc == cli.EXIT_CONFIG
        assert key in err

    @pytest.mark.parametrize("doc,key", [
        ({"epochs": True}, "epochs"),
        ({"trials": False}, "trials"),
        ({"learning_rate": True}, "learning_rate"),
        ({"delta_f_hz": False}, "delta_f_hz"),
        ({"snr_db": 5}, "snr_db"),
        ({"snr_db": [True]}, "snr_db"),
        ({"modulation": 64}, "modulation"),
        ({"epochs": 1.5}, "epochs"),
        ({"delta_f_hz": 10**400}, "delta_f_hz"),
        ({"snr_db": [10**400]}, "snr_db"),
        ({"modes": [1]}, "modes"),
    ])
    def test_json_value_types_checked(self, tmp_path, capsys, doc, key):
        rc, err = _config_exit(tmp_path, capsys, doc)
        assert rc == cli.EXIT_CONFIG
        assert key in err

    @pytest.mark.parametrize("doc,key", [
        ({"modulation": "qam8"}, "modulation"),
        ({"coding_rate": ""}, "coding_rate"),
        ({"modulation": "QAM64"}, "modulation"),
    ])
    def test_unknown_mcs_names_its_key(self, tmp_path, capsys, doc, key):
        rc, err = _config_exit(tmp_path, capsys, doc)
        assert rc == cli.EXIT_CONFIG
        assert key in err

    def test_training_settings_at_their_bounds_accepted(self):
        cfg = cli.experiment_config({"epochs": 1, "tau_decay": 1.0, "tau_start": 0.05,
                                     "tau_floor": 0.05, "learning_rate": 1e-9})
        assert cfg.epochs == 1 and cfg.tau_decay == 1.0

    @pytest.mark.parametrize("flags,key", [
        (["--payload-hex", "zz"], "payload_hex"),
        (["--lead-in-samples", "-5"], "lead_in_samples"),
        (["--snr-db", "nan"], "snr_db"),
        (["--snr-db=-inf"], "snr_db"),
        (["--snr-db", "loud"], "snr_db"),
        (["--target-subcarrier-count", "0"], "target_subcarrier_count"),
        (["--target-subcarrier-count", "49"], "target_subcarrier_count"),
        (["--target-subcarrier-count", "60"], "target_subcarrier_count"),
        (["--delta-f-hz", "nan"], "delta_f_hz"),
        (["--payload-len", "-5"], "payload_len"),
        (["--payload-lens", "2,x"], "payload_lens"),
        (["--payload-lens=-5"], "payload_lens"),
        (["--payload-lens", "4,200"], "payload_lens"),
        (["--seed=-1"], "seed"),
        (["--snr-db=-1e300"], "snr_db"),
        (["--snr-db", "1e300"], "snr_db"),
        (["--snr-db", "inf,1000.5"], "snr_db"),
        (["--learning-rate", "1e200"], "learning_rate"),
        (["--learning-rate", "1.5"], "learning_rate"),
        (["--lead-in-samples", "80"], "lead_in_samples"),
        (["--lead-in-samples", "100000000000"], "lead_in_samples"),
        (["--modulation", "qam8"], "modulation"),
        (["--coding-rate", "2/3"], "coding_rate"),
        (["--emulation-mode", "foo"], "emulation_mode"),
        (["--quantizer-mode", "foo"], "quantizer_mode"),
        (["--trials", "abc"], "trials"),
        (["--epochs", "1.5"], "epochs"),
        (["--modes", "foo"], "modes"),
        # the config echo holds the name as given, so only the one spelling runs
        (["--modulation", "QAM64"], "modulation"),
        # argparse's own pattern reads -inf and -nan as options, not as values
        (["--snr-db", "-inf"], "snr_db"),
        (["--snr-db", "-nan"], "snr_db"),
        (["--snr-db=-nan"], "snr_db"),
        (["--delta-f-hz", "-inf"], "delta_f_hz"),
        (["--delta-f-hz=-inf"], "delta_f_hz"),
        # nn-webee was trained under a second name
        (["--quantizer-mode", "nn-webee"], "quantizer_mode"),
        (["--modes", "trained,nn-webee"], "modes"),
    ])
    def test_bad_flags_are_config_errors(self, capsys, flags, key):
        rc = run_cli(["solve-payload", "--quantizer-mode", "webee"] + flags)
        assert rc == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-5", "128", "99999"])
    def test_payload_len_out_of_range_beside_payload_hex(self, capsys, n):
        # payload_hex sets the payload, but payload_len is still checked
        rc = run_cli(["solve-payload", "--quantizer-mode", "webee", "--payload-hex", "01",
                      "--payload-len", n])
        assert rc == cli.EXIT_CONFIG
        assert "payload_len" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,key", [
        (["--modulation", "-x"], "modulation"),
        (["--payload-hex", "-a"], "payload_hex"),
        (["--modulation", "-h"], "modulation"),
        (["--snr-db", "--"], "snr_db"),
        (["--snr-db=--"], "snr_db"),
    ])
    def test_flag_value_starting_with_a_dash_is_its_value(self, capsys, flags, key):
        # the next token is the value, as it is in a config file; these
        # exited 1 as a flag without a value, and "--" raised an
        # AttributeError from a list
        rc = run_cli(["solve-payload", "--quantizer-mode", "webee"] + flags)
        assert rc == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_double_dash_value_is_named_as_given(self, capsys):
        # argparse reads a lone "--" value as []; the error named '[]'
        rc = run_cli(["solve-payload", "--quantizer-mode", "webee", "--modulation=--"])
        assert rc == cli.EXIT_CONFIG
        assert "'--'" in capsys.readouterr().err

    def test_empty_list_flag_is_the_empty_list(self, tmp_path, monkeypatch):
        # --snr-db "" exited 2 while {"snr_db": []} in a config file ran
        path = tmp_path / "c.json"
        path.write_text('{"snr_db": []}')
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "evaluate",
                            lambda cfg, doc: seen.append(cfg) or cli.EXIT_OK)
        assert run_cli(["evaluate", "--snr-db", ""]) == cli.EXIT_OK
        assert run_cli(["evaluate", "--config", str(path)]) == cli.EXIT_OK
        assert seen[0] == seen[1] and seen[0].snr_db == ()

    def test_noiseless_spelling_with_spaces_in_a_config_file(self):
        # a flag's list items are stripped, so " inf" ran as a flag and was
        # an error (not a finite number) in a config file
        cfg = cli.experiment_config({"snr_db": [" inf", "noiseless ", " INF "]})
        assert cfg.snr_db == (math.inf,) * 3

    @pytest.mark.parametrize("text", ["1e400", "4,1e400", "-1e400", "infinity"])
    def test_snr_flag_that_overflows_is_config_error(self, capsys, text):
        # float() reads 1e400 as +inf, the noiseless sentinel, which only its
        # own spellings select
        rc = run_cli(["evaluate", "--payload-hex", "0011", "--quantizer-mode", "webee",
                      f"--snr-db={text}"])
        assert rc == cli.EXIT_CONFIG
        assert "snr_db" in capsys.readouterr().err

    def test_snr_in_config_file_that_overflows_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"snr_db": [1e400]}')  # json reads 1e400 as +inf
        rc = run_cli(["evaluate", "--config", str(path), "--payload-hex", "0011",
                      "--quantizer-mode", "webee"])
        assert rc == cli.EXIT_CONFIG
        assert "snr_db" in capsys.readouterr().err

    def test_noiseless_spellings_accepted(self):
        cfg = cli.experiment_config({"snr_db": ["inf", "+inf", "noiseless", "INF", 4]})
        assert cfg.snr_db == (math.inf,) * 4 + (4.0,)

    def test_range_limits_accepted(self):
        cfg = cli.experiment_config({"seed": 0, "snr_db": [-1000, 1000, "inf"],
                                     "learning_rate": 1.0, "lead_in_samples": 79})
        assert cfg.learning_rate == 1.0 and cfg.lead_in_samples == 79

    def test_all_48_data_subcarriers_accepted(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli(["solve-payload", "--payload-hex", "01", "--quantizer-mode", "webee",
                      "--target-subcarrier-count", "48", "--metrics-out", str(out)])
        assert rc == cli.EXIT_OK

    @pytest.mark.parametrize("command,flag,text,key,value", [
        ("solve-payload", "--delta-f-hz", "-3.125e6", "delta_f_hz", -3.125e6),
        ("evaluate", "--snr-db", "-1e3", "snr_db", [-1000.0]),
        ("evaluate", "--snr-db", "-4,8", "snr_db", [-4.0, 8.0]),
    ])
    @pytest.mark.parametrize("joined", [False, True])
    def test_negative_values_in_exponent_form_are_values(self, tmp_path, command, flag,
                                                          text, key, value, joined):
        # argparse's own pattern reads -3.125e6 as an option, not as a number
        out = tmp_path / "m.json"
        flags = [f"{flag}={text}"] if joined else [flag, text]
        rc = run_cli([command, "--payload-hex", "0011", "--quantizer-mode", "webee",
                      "--trials", "1", "--metrics-out", str(out)] + flags)
        assert rc == cli.EXIT_OK
        assert json.loads(out.read_text())["deterministic"]["config"][key] == value

    def test_unknown_flag_is_usage_error(self, capsys):
        rc = run_cli(["solve-payload", "--quantizer-mode", "webee", "--offset-hz", "-3e6"])
        assert rc == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--delta-f", "-3e6"], ["--payload", "00"]])
    def test_flag_prefix_is_usage_error(self, capsys, flags):
        # a prefix of a flag is no key, as "delta_f" is none in a config file
        rc = run_cli(["solve-payload", "--quantizer-mode", "webee", "--payload-hex", "0011"]
                     + flags)
        assert rc == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_retired_nn_webee_config_is_config_error(self, tmp_path, capsys):
        rc, err = _config_exit(tmp_path, capsys, {"quantizer_mode": "nn-webee"})
        assert rc == cli.EXIT_CONFIG
        assert "quantizer_mode" in err


# one value per config key, away from its default
_SAMPLE_VALUES = {
    "payload_hex": "a1b2",
    "delta_f_hz": -2.5e6,
    "modulation": "qam16",
    "coding_rate": "3/4",
    "emulation_mode": "digital",
    "quantizer_mode": "wide",
    "snr_db": ["inf", 4.5],
    "trials": 3,
    "seed": 7,
    "epochs": 5,
    "learning_rate": 0.02,
    "tau_start": 0.5,
    "tau_decay": 0.9,
    "tau_floor": 0.01,
    "target_subcarrier_count": 5,
    "lead_in_samples": 3,
    "scrambler_seed": 17,
    "payload_len": 5,
    "model_file": "m.json",
    "iq_out": "x.cf32",
    "metrics_out": "out.json",
    "payload_lens": [2, 3],
    "modes": ["webee", "wide"],
}


@pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
def test_flag_and_config_file_agree(key, tmp_path, monkeypatch):
    value = _SAMPLE_VALUES[key]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "evaluate",
                        lambda cfg, doc: seen.append((cfg, doc)) or cli.EXIT_OK)
    assert run_cli(["evaluate", f"--{key.replace('_', '-')}={text}"]) == cli.EXIT_OK
    assert run_cli(["evaluate", "--config", str(path)]) == cli.EXIT_OK
    (flag_cfg, flag_doc), (file_cfg, file_doc) = seen
    assert flag_cfg == file_cfg
    if key in cli._SETTINGS or key == "payload_len":
        assert flag_cfg != sim.ExperimentConfig()
    else:
        assert flag_doc[key] == file_doc[key] == value


def test_runtime_imports_no_scipy():
    """The CLI, a webee plan and a channel point run on numpy alone."""
    script = textwrap.dedent("""
        import sys
        import crossphy.cli
        from crossphy import sim
        cfg = sim.ExperimentConfig(payload=bytes(range(8)), quantizer_mode="webee", trials=3)
        sim.run_point(sim.plan_frame(cfg), 4.0)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_import_adds_only_numpy():
    """Importing crossphy in a fresh interpreter loads no third-party module
    but numpy: set-up does no other work."""
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import crossphy
        added = {m.partition(".")[0] for m in set(sys.modules) - before}
        print(",".join(sorted(added - set(sys.stdlib_module_names))))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    added = set(out.stdout.strip().split(","))
    assert "crossphy" in added and added <= {"crossphy", "numpy"}, added
