"""Output ledger: the default path's plan and link outputs, pinned bit for bit.

Each entry plans one configuration and pins the sha256 of its PSDU, of its
int64 index grid and of its transmit samples, and the ``repr`` of its plan
metrics.  A trained entry also pins its ``TrainResult``: the epoch counts
and a sha256 of each history's float64 bytes.  The 32-byte entries pin
``Metrics.as_dict()`` at +inf and 4 dB over 20 trials as well.

The outputs are computed in two fresh interpreters, one with BLAS on one
thread, as the benchmark's digests are, and one on two threads, and each
must equal the record (the training's sums are numpy's, not BLAS dot
products).  ``tests/ledger.json`` holds the values recorded at one thread;
the test compares and never writes.  A change
that moves an output re-records the ledger and commits the diff, which
names the entries it moved:

    PYTHONPATH=src python tests/test_ledger.py --record
"""
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossphy import sim

LEDGER = Path(__file__).with_name("ledger.json")
BLAS_THREADS = (1, 2)
LINK_SNRS = (math.inf, 4.0)
LINK_TRIALS = 20
PLAN_METRICS = ("nmse_body", "phase_mse_body", "evm")


def configs() -> dict:
    """Every ledger entry's config by name.  The default config (analog
    ``trained``, 32 bytes of ``bytes(range(32))``) is the acceptance plan."""
    default = sim.ExperimentConfig(trials=LINK_TRIALS)
    out = {
        "trained-analog-32": default,
        "trained-digital-32": dataclasses.replace(default, emulation_mode="digital"),
        "webee-32": dataclasses.replace(default, quantizer_mode="webee"),
        "wide-32": dataclasses.replace(default, quantizer_mode="wide"),
    }
    payload = sim.random_payload(4, 8)
    modes = {"webee": {"quantizer_mode": "webee"}, "wide": {"quantizer_mode": "wide"},
             "trained-analog": {}, "trained-digital": {"emulation_mode": "digital"}}
    for modulation in ("bpsk", "qpsk", "qam16", "qam64"):
        for rate in ("1/2", "3/4"):
            for mode, settings in modes.items():
                out[f"{mode}-8-{modulation}-{rate.replace('/', '')}"] = dataclasses.replace(
                    default, payload=payload, modulation=modulation, coding_rate=rate,
                    **settings)
    return out


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def entry(cfg: sim.ExperimentConfig) -> dict:
    """The pinned outputs of ``cfg``'s plan, as JSON values."""
    plan = sim.plan_frame(cfg)
    out = {
        "psdu": hashlib.sha256(plan.report.psdu).hexdigest(),
        "index_grid": _sha(np.asarray(plan.index_grid, dtype=np.int64)),
        "tx": _sha(plan.tx.samples),
        **{name: repr(float(getattr(plan, name))) for name in PLAN_METRICS},
    }
    if plan.train is not None:
        out["epochs_run"] = plan.train.epochs_run
        out["best_epoch"] = plan.train.best_epoch
        out["loss_history"] = _sha(np.asarray(plan.train.loss_history, dtype=np.float64))
        out["hard_metric_history"] = _sha(np.asarray(plan.train.hard_metric_history,
                                                     dtype=np.float64))
    if len(cfg.payload) == 32:
        out["link"] = [{key: repr(value) for key, value in sim.run_point(plan, snr).as_dict().items()}
                       for snr in LINK_SNRS]
    return out


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


@functools.lru_cache(maxsize=len(BLAS_THREADS))
def measured(threads: int = 1) -> dict:
    """The provenance and every entry, from ``--print`` in a child
    interpreter whose BLAS runs on ``threads`` threads."""
    src = str(Path(sim.__file__).resolve().parent.parent)
    n = str(threads)
    env = dict(os.environ, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n, MKL_NUM_THREADS=n,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, __file__, "--print"], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_ledger_names_every_entry():
    assert sorted(json.loads(LEDGER.read_text())["entries"]) == sorted(configs())


@pytest.mark.parametrize("name", sorted(configs()))
def test_outputs_match_the_ledger(name):
    recorded = json.loads(LEDGER.read_text())
    for threads in BLAS_THREADS:
        now = measured(threads)
        assert now["entries"][name] == recorded["entries"][name], (
            f"at {threads} BLAS thread(s): recorded under {recorded['provenance']}, "
            f"running under {now['provenance']}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps({"provenance": provenance(),
                          "entries": {name: entry(cfg) for name, cfg in configs().items()}}))
    elif sys.argv[1:] == ["--record"]:
        LEDGER.write_text(json.dumps(measured(), indent=1) + "\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --record")
