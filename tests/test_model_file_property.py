"""Property test of the model file: a saved model with one key replaced by
any JSON value, or dropped, either runs ``emulate`` (exit 0) or is refused
as a configuration error (exit 2) naming a key; no file escapes as a
traceback or a runtime failure."""
import contextlib
import functools
import io
import json
import os
import re
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from crossphy import cli, emulation as em, sim  # noqa: E402

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8)
    | st.sampled_from(["qam64", "qam16", "analog", "digital", 1, 0, -1, 1e-300]),
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12,
)


def _alternatives(value):
    """Values of ``value``'s JSON type, valid ones among them."""
    if isinstance(value, str):
        return st.sampled_from(["bpsk", "qpsk", "qam16", "qam64", "analog", "digital"])
    if isinstance(value, list):
        item = st.integers(-30, 30) if all(type(v) is int for v in value) else st.floats()
        return (st.permutations(value)
                | st.lists(item, min_size=max(len(value) - 1, 0), max_size=len(value) + 1))
    return st.integers(-2, 2) | st.floats()


@functools.lru_cache(maxsize=1)
def _saved_model() -> dict:
    """A trained 8-byte digital model file as ``save_model`` writes it."""
    model, _ = sim.train_model(sim.ExperimentConfig(payload=bytes(8), epochs=3,
                                                     emulation_mode="digital"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        em.save_model(model, path)
        with open(path) as f:
            return json.load(f)


@st.composite
def _mutations(draw):
    doc = dict(_saved_model())
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(_JSON | _alternatives(doc[key]))
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_mutations())
def test_a_mutated_model_file_runs_or_names_a_key(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["emulate", "--payload-len", "8", "--model-file", path])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG), (rc, err.getvalue())
    if rc == cli.EXIT_CONFIG:
        assert any(re.search(rf"\b{key}\b", err.getvalue()) for key in _saved_model()), \
            err.getvalue()
