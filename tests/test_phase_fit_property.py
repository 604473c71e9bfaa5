"""Property test of the digital fit's row-incremental metric: whichever
rows change between calls (none, one, two or many), ``_PhaseFit.metric``
and the squared errors it keeps equal those of a fresh fit's full
synthesis bit for bit.  The metric must never synthesize a lone row, since
numpy sends a one-row product to gemv, which rounds differently from the
gemm of the whole grid."""
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crossphy import diffblocks as db  # noqa: E402
from crossphy import emulation as em  # noqa: E402
from crossphy import sim  # noqa: E402

CASES = [(modulation, rate, n_bytes)
         for modulation, rate in (("bpsk", "3/4"), ("qpsk", "1/2"), ("qam16", "3/4"),
                                  ("qam64", "1/2"))
         for n_bytes in (8, 32)]


@lru_cache(maxsize=None)
def digital_fit_inputs(modulation, rate, n_bytes):
    """The phase fit's target, tail map and pilots for a random payload,
    its constellation, and the plain nearest-point grid to start from."""
    cfg = sim.ExperimentConfig(payload=sim.random_payload(1, n_bytes), modulation=modulation,
                               coding_rate=rate, emulation_mode="digital")
    subs = sim.target_subcarriers(cfg.delta_f_hz, cfg.target_subcarrier_count)
    model = em.EmulationModel(modulation, subs)
    u, z = model.normalize(sim.make_target(cfg).samples)
    a, pilots = em.fused_tail(model, len(z))
    return u, a, pilots, model.const, model.decide(u)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=st.sampled_from(CASES),
       steps=st.lists(st.tuples(st.sampled_from([0, 1, 2, "many"]), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=4))
def test_incremental_metric_equals_a_fresh_full_metric(case, steps):
    u, a, pilots, const, start = digital_fit_inputs(*case)
    idx = start.copy()
    fit = em._PhaseFit(u, a, pilots)
    fit.metric(db.stack_complex(const.points[idx]))
    for n_rows, seed in steps:
        rng = np.random.default_rng(seed)
        n_rows = len(idx) // 3 if n_rows == "many" else n_rows
        rows = rng.choice(len(idx), n_rows, replace=False)
        cols = rng.integers(0, idx.shape[1], n_rows)
        # a shift of 1..size-1 labels always picks another point
        idx[rows, cols] = (idx[rows, cols] + rng.integers(1, const.size, n_rows)) % const.size
        points = db.stack_complex(const.points[idx])
        fresh = em._PhaseFit(u, a, pilots)
        assert fit.metric(points).hex() == fresh.metric(points).hex(), (n_rows, rows)
        # the kept squared errors too: the mean of some 10^4 of them can
        # round a one-row product's last bits away
        assert np.array_equal(fit.e_body.view(np.uint64), fresh.e_body.view(np.uint64))
