"""Command-line entry point.

One executable with subcommands; every run is reproducible from the config
it echoes.  Exit codes: 0 success, 1 usage (an unknown subcommand, an
unknown flag or a flag without a value), 2 configuration (a bad setting,
from a flag or a file alike, named by its key), 3 runtime.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import sim, zigbee
from .dsp import make_rng
from .emulation import EmulationModel, load_model, save_model
from .errors import ConfigError, CrossPhyError, DimensionError, DomainError
from .iqfile import read_cf32, write_cf32
from .wifi import SAMPLE_RATE_HZ, transmit_psdu

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Config key -> JSON type.  The settings are the ExperimentConfig fields,
# keyed and typed as the config echo writes them; the keys after them only
# the CLI reads.  Every key is also a flag: ``--payload-hex`` for
# ``payload_hex``.
_SETTINGS = {key: type(value) for key, value in sim.ExperimentConfig().settings().items()}
_CONFIG_KEYS = {
    **_SETTINGS,
    "payload_len": int,
    "model_file": str,
    "iq_out": str,
    "metrics_out": str,
    "payload_lens": list,
    "modes": list,
}


def _parse_snr(values) -> tuple:
    """SNRs in dB.  +inf, the noiseless sentinel, is only ever spelled
    'inf', '+inf' or 'noiseless': a number that overflows to infinity, such
    as 1e400 in a flag or a JSON file, is an error."""
    out = []
    for v in values:
        if isinstance(v, str) and v.strip().lower() in ("inf", "+inf", "noiseless"):
            out.append(math.inf)
            continue
        if isinstance(v, bool):
            raise ConfigError(f"key snr_db: expected numbers, got {v!r}")
        try:
            x = float(v)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"key snr_db: expected numbers, got {v!r}")
        if math.isinf(x):
            raise ConfigError(f"key snr_db: {v!r} is not a finite number; "
                              f"'inf' or 'noiseless' selects no noise")
        out.append(x)
    return tuple(out)


def parse_config(path: str | None, overrides: dict) -> dict:
    """Config file merged with flag overrides; unknown keys rejected."""
    doc = {}
    if path:
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as e:  # a directory, an unreadable file
            raise ConfigError(f"config file {path} cannot be read: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key}")
    doc.update(overrides)
    for key, value in doc.items():
        want = _CONFIG_KEYS[key]
        # bool is an int subclass, so JSON true/false would pass as 1/0
        allowed = (int, float) if want is float else want
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"key {key}: expected {want.__name__}, got {value!r}")
    return doc


def _field_value(key: str, value):
    """The ExperimentConfig field and value a setting's config value sets."""
    if key == "payload_hex":
        try:
            return "payload", bytes.fromhex(value)
        except ValueError:
            raise ConfigError(f"key payload_hex: not a hex string: {value!r}")
    if key == "snr_db":
        return key, _parse_snr(value)
    try:
        return key, float(value) if _SETTINGS[key] is float else value
    except OverflowError:
        raise ConfigError(f"key {key}: integer out of the float range")


def experiment_config(doc: dict) -> sim.ExperimentConfig:
    cfg = replace(sim.ExperimentConfig(),
                  **dict(_field_value(k, v) for k, v in doc.items() if k in _SETTINGS))
    cfg.validate()
    for mode in doc.get("modes", []):
        if mode not in sim.QUANTIZER_MODES:
            raise ConfigError(f"modes: unknown quantizer mode {mode!r}, "
                              f"expected one of {', '.join(sim.QUANTIZER_MODES)}")
    # random payloads are drawn from the seed, so only once it is valid
    max_len = zigbee.MAX_PAYLOAD_BYTES
    for n in doc.get("payload_lens", []):
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= max_len:
            raise ConfigError(f"payload_lens values must be integers in 0..{max_len}, got {n!r}")
    if "payload_len" in doc:
        n = doc["payload_len"]
        if not 0 <= n <= max_len:
            raise ConfigError(f"payload_len must be in 0..{max_len}, got {n}")
        if "payload_hex" not in doc:
            cfg = replace(cfg, payload=sim.random_payload(cfg.seed, n))
    return cfg


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, default=str)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _model(cfg: sim.ExperimentConfig, doc: dict) -> EmulationModel | None:
    """The model in model_file for the ``trained`` mode; None otherwise, and
    a ``trained`` plan then trains one."""
    if doc.get("model_file") and cfg.quantizer_mode == "trained":
        return load_model(doc["model_file"])
    return None


# -- subcommand handlers -----------------------------------------------------

def cmd_train(cfg, doc):
    model, result = sim.train_model(cfg)
    out = doc.get("model_file", "model.json")
    save_model(model, out)
    _emit(sim.summary_json(cfg, [], extra={
        "train": {"epochs_run": result.epochs_run, "best_epoch": result.best_epoch,
                  "best_hard_metric": result.best_hard_metric, "model_file": out},
    }), doc.get("metrics_out"))
    return EXIT_OK


def cmd_emulate(cfg, doc):
    plan = sim.plan_frame(cfg, model=_model(cfg, doc))
    if doc.get("iq_out"):
        write_cf32(doc["iq_out"], plan.tx)
    _emit(sim.summary_json(cfg, [], extra={
        "emulation": {
            "nmse_body": plan.nmse_body,
            "phase_mse_body": plan.phase_mse_body,
            "evm": plan.evm,
            "violated_bit_count": len(plan.report.violated_positions),
            "psdu_hex": plan.report.psdu.hex(),
        },
    }), doc.get("metrics_out"))
    return EXIT_OK


def cmd_solve_payload(cfg, doc):
    plan = sim.plan_frame(cfg, model=_model(cfg, doc))
    if doc.get("iq_out"):
        write_cf32(doc["iq_out"], plan.tx)
    _emit(sim.summary_json(cfg, [], extra={
        "solve": {
            "psdu_hex": plan.report.psdu.hex(),
            "satisfied": plan.report.satisfied,
            "violated_positions": plan.report.violated_positions,
            "perturbed_subcarriers": plan.report.perturbed_subcarriers[:64],
            "rank": plan.report.rank,
            "max_span": plan.report.max_span,
        },
    }), doc.get("metrics_out"))
    return EXIT_OK


def cmd_transmit(cfg, doc):
    sig = transmit_psdu(cfg.payload, cfg.mcs, cfg.scrambler_seed)
    out = doc.get("iq_out", "tx.cf32")
    write_cf32(out, sig)
    _emit(sim.summary_json(cfg, [], extra={
        "transmit": {"samples": len(sig), "sample_rate_hz": SAMPLE_RATE_HZ, "iq_out": out},
    }), doc.get("metrics_out"))
    return EXIT_OK


def cmd_zigbee_mod(cfg, doc):
    frame = zigbee.build_frame(cfg.payload)
    chips = zigbee.symbols_to_chips(frame)
    sig = zigbee.oqpsk_modulate(chips)
    out = doc.get("iq_out", "zigbee.cf32")
    write_cf32(out, sig)
    _emit(sim.summary_json(cfg, [], extra={
        "zigbee_mod": {"symbols": int(len(frame)),
                       "chips": int(len(chips)), "samples": len(sig), "iq_out": out},
    }), doc.get("metrics_out"))
    return EXIT_OK


def cmd_zigbee_demod(cfg, doc):
    if not doc.get("iq_out"):
        raise ConfigError("zigbee-demod needs iq_out pointing at the cf32 file to decode")
    try:
        sig = read_cf32(doc["iq_out"], SAMPLE_RATE_HZ)
    except (DimensionError, DomainError) as e:
        raise ConfigError(f"key iq_out: {e}")
    # the payload zigbee-mod sends for the same payload_hex or payload_len
    expected = cfg.payload if "payload_hex" in doc or "payload_len" in doc else None
    res = zigbee.decode_frame(sig, expected_payload=expected)
    _emit(sim.summary_json(cfg, [], extra={
        "zigbee_demod": {
            "detected": res.detected,
            "payload_hex": res.payload.hex() if res.payload is not None else None,
            # NaN (no expected payload, or nothing detected) is not JSON
            "ser": None if math.isnan(res.ser) else res.ser,
            "chip_error_rate": None if math.isnan(res.chip_error_rate) else res.chip_error_rate,
            "sync_corr": res.sync_corr,
        },
    }), doc.get("metrics_out"))
    return EXIT_OK


def cmd_evaluate(cfg, doc):
    metrics = sim.run_pipeline(cfg, model=_model(cfg, doc))
    _emit(sim.summary_json(cfg, metrics), doc.get("metrics_out"))
    return EXIT_OK


def cmd_sweep(cfg, doc):
    rows = sim.sweep(cfg, payload_lens=doc.get("payload_lens"), modes=doc.get("modes"))
    out = doc.get("metrics_out", "sweep.csv")
    sim.write_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_grad_check(cfg, doc):
    from .diffblocks import grad_check

    rng = make_rng(cfg.seed)
    subs = sim.target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
    model = EmulationModel(cfg.modulation, subs)
    checks = {**{b.name: b for b in model.stack.blocks}, "autoencoder": model.stack}
    worst = 0.0
    report = {}
    for name, block in checks.items():
        err = grad_check(block, rng)
        report[name] = err
        worst = max(worst, err)
        print(f"{name:14s} max relative error {err:.3e}")
    ok = worst < 1e-4
    print(f"worst {worst:.3e} -> {'OK' if ok else 'FAIL'}")
    if doc.get("metrics_out"):
        _emit({"grad_check": report, "worst": worst, "ok": ok}, doc.get("metrics_out"))
    return EXIT_OK if ok else EXIT_RUNTIME


_COMMANDS = {
    "train": cmd_train,
    "emulate": cmd_emulate,
    "solve-payload": cmd_solve_payload,
    "transmit": cmd_transmit,
    "zigbee-mod": cmd_zigbee_mod,
    "zigbee-demod": cmd_zigbee_demod,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "grad-check": cmd_grad_check,
}


def build_parser() -> argparse.ArgumentParser:
    # a flag answers to its whole name only, as a config key does
    p = argparse.ArgumentParser(
        prog="crossphy",
        description="WiFi-to-ZigBee cross-technology waveform emulation toolkit",
        allow_abbrev=False,
    )
    p.add_argument("command", choices=sorted(_COMMANDS), help="subcommand to run")
    p.add_argument("--config", help="JSON config file")
    # values stay strings here: main converts them, so that a bad value is a
    # configuration error naming its key, as it is in a config file
    for key, want in _CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), metavar="A,B,..." if want is list else None)
    return p


def _flag_value(key: str, text):
    """A flag's text as its config key's JSON value: list keys split on
    commas (none in ""), and the payload_lens items are integers."""
    want = _CONFIG_KEYS[key]
    text = text if isinstance(text, str) else "--"  # argparse reads "--" as []
    try:
        if want is not list:
            return want(text)
        items = [s.strip() for s in text.split(",")] if text else []
        return [int(s) for s in items] if key == "payload_lens" else items
    except ValueError:
        what = "integers" if want is list else want.__name__
        raise ConfigError(f"key {key}: expected {what}, got {text!r}")


def _values_attached(argv) -> list:
    """``--key value`` as ``--key=value`` for every flag: the next token is
    the value even if it starts with '-', as it would be in a config file."""
    flags, out = {"--config", *("--" + key.replace("_", "-") for key in _CONFIG_KEYS)}, []
    for token in argv:
        if out and out[-1] in flags:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_values_attached(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        overrides = {k: _flag_value(k, v) for k, v in vars(args).items()
                     if k in _CONFIG_KEYS and v is not None}
        doc = parse_config(args.config, overrides)
        cfg = experiment_config(doc)
        return _COMMANDS[args.command](cfg, doc)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CrossPhyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
