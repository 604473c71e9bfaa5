"""Property test over the config surface: every config either runs
(exit 0) or is refused as a configuration error (exit 2) naming a key it
sets; no input escapes as a traceback (exit 1) or a runtime failure
(exit 3)."""
import contextlib
import functools
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from crossphy import cli, emulation as em, sim, zigbee  # noqa: E402

_ANY_INT = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -1.0, 1e-300, 1e300]))
_ANY_TEXT = st.text(max_size=4)

# Values inside each key's accepted range, so most examples run end to end
# (payloads, epochs and trials stay small to bound the run time) ...
_VALID = {
    "payload_hex": st.binary(max_size=3).map(bytes.hex),
    "payload_len": st.integers(0, 3),
    "delta_f_hz": st.floats(-8.5e6, 8.5e6),
    "modulation": st.sampled_from(["bpsk", "qpsk", "qam16", "qam64"]),
    "coding_rate": st.sampled_from(["1/2", "3/4"]),
    "emulation_mode": st.sampled_from(["analog", "digital"]),
    "quantizer_mode": st.sampled_from(sim.QUANTIZER_MODES),
    "snr_db": st.lists(st.one_of(st.floats(-1000, 1000), st.just("inf")), max_size=2),
    "trials": st.integers(1, 2),
    "seed": st.integers(0, 2**70),
    "epochs": st.integers(1, 2),
    "learning_rate": st.floats(0, 1, exclude_min=True),
    "tau_start": st.floats(0.05, 1e6),
    "tau_decay": st.floats(0, 1, exclude_min=True),
    "tau_floor": st.floats(1e-6, 0.05),
    "target_subcarrier_count": st.integers(1, 48),
    "lead_in_samples": st.integers(0, 79),
    "scrambler_seed": st.integers(1, 127),
}
# ... and any value of the key's JSON type for the one key an example
# perturbs (epochs and trials reach every invalid value but no large
# valid one).
_ANY = {
    "payload_hex": st.one_of(st.binary(max_size=130).map(bytes.hex), _ANY_TEXT),
    "payload_len": _ANY_INT,
    "delta_f_hz": _ANY_FLOAT,
    "modulation": _ANY_TEXT,
    "coding_rate": _ANY_TEXT,
    "emulation_mode": _ANY_TEXT,
    "quantizer_mode": _ANY_TEXT,
    "snr_db": st.lists(st.one_of(_ANY_FLOAT, _ANY_TEXT), max_size=3),
    "trials": st.integers(-2**70, 2),
    "seed": _ANY_INT,
    "epochs": st.integers(-2**70, 2),
    "learning_rate": _ANY_FLOAT,
    "tau_start": _ANY_FLOAT,
    "tau_decay": _ANY_FLOAT,
    "tau_floor": _ANY_FLOAT,
    "target_subcarrier_count": _ANY_INT,
    "lead_in_samples": _ANY_INT,
    "scrambler_seed": _ANY_INT,
}


@st.composite
def configs(draw, valid=_VALID, any_value=_ANY, required=("epochs",)):
    # epochs is always set: the default of 300 would make trained examples slow
    optional = {k: v for k, v in valid.items() if k not in required}
    doc = draw(st.fixed_dictionaries({k: valid[k] for k in required}, optional=optional))
    key = draw(st.none() | st.sampled_from(sorted(any_value)))
    if key is not None:
        doc[key] = draw(any_value[key])
    return doc


# sweep's own keys, and SNR lists that always hold the noiseless point
_SWEEP_VALID = {
    **_VALID,
    "snr_db": _VALID["snr_db"].map(lambda snrs: snrs + ["inf"]),
    "payload_lens": st.lists(st.integers(0, 3), max_size=2),
    "modes": st.lists(st.sampled_from(sim.QUANTIZER_MODES), max_size=3),
}
_SWEEP_ANY = {
    **_ANY,
    "payload_lens": st.lists(st.one_of(_ANY_INT, _ANY_FLOAT, _ANY_TEXT), max_size=3),
    "modes": st.lists(st.one_of(_ANY_TEXT, _ANY_INT), max_size=3),
}


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@functools.lru_cache(maxsize=1)
def _default_model() -> str:
    """A model file for the default config's constellation and subcarriers."""
    model, _ = sim.train_model(sim.ExperimentConfig(payload=bytes(8), epochs=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        em.save_model(model, path)
        with open(path) as f:
            return f.read()


def _runs_or_names_its_bad_key(command, doc, files=False, iq=None):
    """Run ``command`` on ``doc`` as a config file.  With ``files``, its
    model_file, metrics_out and iq_out are in the temp dir, and the model
    file holds ``_default_model`` until train writes its own.  With ``iq``,
    the config's iq_out is a file of those bytes, and the metrics written
    must be strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out.json")
        if iq is not None:
            doc = {**doc, "iq_out": os.path.join(tmp, "in.cf32")}
            with open(doc["iq_out"], "wb") as f:
                f.write(iq)
        with open(path, "w") as f:
            json.dump(doc, f)
        argv = ["--config", path]
        if files:
            model = os.path.join(tmp, "m.json")
            with open(model, "w") as f:
                f.write(_default_model())
            argv += ["--model-file", model, "--metrics-out", out]
            if iq is None:  # transmit and zigbee-mod write one even when unset
                argv += ["--iq-out", os.path.join(tmp, "out.cf32")]
        rc, err = _run([command] + argv)
        if iq is not None and rc == cli.EXIT_OK:
            with open(out) as f:
                json.load(f, parse_constant=_not_json)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG), (rc, err)
    if rc == cli.EXIT_CONFIG:
        assert any(key in err for key in doc), err


def _not_json(name):
    raise AssertionError(f"{name} is not JSON (RFC 8259)")


@settings(derandomize=True, database=None, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_every_config_runs_or_names_its_bad_key(doc):
    _runs_or_names_its_bad_key("evaluate", doc)


@pytest.mark.parametrize("command", ["emulate", "solve-payload", "train", "transmit",
                                     "zigbee-mod", "grad-check"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_every_config_runs_or_names_its_bad_key_in(command, doc):
    _runs_or_names_its_bad_key(command, doc, files=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs(valid=_SWEEP_VALID, any_value=_SWEEP_ANY,
                   required=("epochs", "snr_db", "payload_lens", "modes")))
def test_every_config_runs_or_names_its_bad_key_in_sweep(doc):
    _runs_or_names_its_bad_key("sweep", doc, files=True)


@st.composite
def cf32_files(draw):
    """Any bytes (the empty file and lengths that are no whole sample
    included), random bit patterns long enough for the sync search (NaN,
    infinities and subnormals among them), and a frame some of whose
    samples are set to any float32."""
    kind = draw(st.sampled_from(["bytes", "random", "frame"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "random":
        n = draw(st.integers(0, 8 * 6000))
        return np.random.default_rng(draw(st.integers(0, 2**32))).bytes(n)
    frame = zigbee.build_frame(draw(st.binary(max_size=3)))
    x = zigbee.oqpsk_modulate(zigbee.symbols_to_chips(frame)).samples
    flat = np.empty(2 * len(x), dtype="<f4")
    flat[0::2], flat[1::2] = x.real, x.imag
    for i, v in draw(st.lists(st.tuples(st.integers(0, len(flat) - 1), st.floats(width=32)),
                              max_size=4)):
        flat[i] = v
    return flat.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs(), iq=cf32_files())
def test_every_config_runs_or_names_its_bad_key_in_zigbee_demod(doc, iq):
    _runs_or_names_its_bad_key("zigbee-demod", doc, files=True, iq=iq)


def _flag_text(value) -> str:
    """A config value as the flag text that sets it: lists joined by commas.
    A JSON number beyond the float range is read as infinity, which a flag
    spells 1e400: 'inf' is the noiseless sentinel."""
    if isinstance(value, list):
        return ",".join(_flag_text(v) for v in value)
    if isinstance(value, float) and math.isinf(value):
        return "1e400" if value > 0 else "-1e400"
    return value if isinstance(value, str) else repr(value)


def _renderable(value) -> bool:
    """False for the lists no flag text sets: an item holding a comma, and
    the one empty item, whose text "" is the empty list."""
    return not isinstance(value, list) or (
        not any("," in v for v in value if isinstance(v, str)) and value != [""])


def _named_keys(doc, err) -> set:
    return {key for key in doc if re.search(rf"\b{key}\b", err)}


# the file each command writes besides its metrics
_OUTPUT_FILES = {"train": ("--model-file", "m.json"), "transmit": ("--iq-out", "out.cf32"),
                 "zigbee-mod": ("--iq-out", "out.cf32")}


def _flags_run_or_fail_as_the_config_file_does(command, doc):
    """``doc`` as ``command``'s flags, in both forms, exits as its config
    file does and names the same keys.  Every run writes its metrics, and
    the model file or IQ samples of ``_OUTPUT_FILES``, into the temp dir."""
    assume(all(_renderable(v) for v in doc.values()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        out = ["--metrics-out", os.path.join(tmp, "out")]
        if command in _OUTPUT_FILES:
            flag, name = _OUTPUT_FILES[command]
            out += [flag, os.path.join(tmp, name)]
        rc, err = _run([command, "--config", path] + out)
        flags = [("--" + key.replace("_", "-"), _flag_text(value)) for key, value in doc.items()]
        for argv in ([token for pair in flags for token in pair], [f"{k}={v}" for k, v in flags]):
            flag_rc, flag_err = _run([command] + argv + out)
            assert (flag_rc, _named_keys(doc, flag_err)) == (rc, _named_keys(doc, err)), (
                argv, err, flag_err)


@settings(derandomize=True, database=None, deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_flags_run_or_fail_as_the_config_file_does(doc):
    # every config of the strategy above, as evaluate flags in both forms
    _flags_run_or_fail_as_the_config_file_does("evaluate", doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_flags_run_or_fail_as_the_config_file_does_in_solve_payload(doc):
    # solve-payload plans without a channel: the solver, its per-shape
    # constraint systems and the transmit, from flags as from a file
    _flags_run_or_fail_as_the_config_file_does("solve-payload", doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_flags_run_or_fail_as_the_config_file_does_in_emulate(doc):
    # emulate plans and trains without a channel, from flags as from a file
    _flags_run_or_fail_as_the_config_file_does("emulate", doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs(valid=_SWEEP_VALID, any_value=_SWEEP_ANY,
                   required=("epochs", "snr_db", "payload_lens", "modes")))
def test_flags_run_or_fail_as_the_config_file_does_in_sweep(doc):
    # sweep's own list keys, payload_lens and modes, as comma-joined flags
    _flags_run_or_fail_as_the_config_file_does("sweep", doc)


@pytest.mark.parametrize("command", sorted(_OUTPUT_FILES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_flags_run_or_fail_as_the_config_file_does_in(command, doc):
    # the commands that write a file, into the temp dir; configs() always
    # sets epochs, at most 2, so train stays quick
    _flags_run_or_fail_as_the_config_file_does(command, doc)
