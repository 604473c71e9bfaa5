"""Property tests of the payload solver: any index grid of any MCS and 1-48
target bins solves without raising, with basis rows of at most 7 columns,
and the grid a real transmission carries solves with no violation."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crossphy import solver, wifi  # noqa: E402
from crossphy.dsp import make_rng  # noqa: E402

SEED = wifi.DEFAULT_SCRAMBLER_SEED
_MCS = st.builds(wifi.mcs_config, st.sampled_from(["bpsk", "qpsk", "qam16", "qam64"]),
                 st.sampled_from(["1/2", "3/4"]))
_SUBS = st.lists(st.sampled_from(wifi.DATA_SUBCARRIERS), min_size=1, max_size=48, unique=True)


def _symbols(draw, mcs):
    """A symbol count whose payload bits fill whole PSDU bytes (BPSK 3/4
    carries 36 bits a symbol, so it takes even counts)."""
    return draw(st.integers(1, 4)) * (8 // math.gcd(mcs.n_dbps, 8))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), mcs=_MCS, subs=_SUBS, seed=st.integers(0, 2**32 - 1),
       energy=st.sampled_from([None, "random", "ties"]))
def test_any_grid_solves_within_seven_columns(data, mcs, subs, seed, energy):
    n_sym = _symbols(data.draw, mcs)
    rng = make_rng(seed)
    grid = rng.integers(0, mcs.constellation.size, (n_sym, len(subs)))
    weights = {None: None, "random": rng.random((n_sym, len(subs))),
               "ties": np.ones((n_sym, len(subs)))}[energy]
    rep = solver.solve_payload(grid, mcs, SEED, subs, bin_energy=weights)
    assert rep.max_span <= 7
    assert len(rep.psdu) * 8 == n_sym * mcs.n_dbps
    n_masked = n_sym * len(subs) * mcs.n_bpsc
    assert rep.satisfied + len(rep.violated_positions) == n_masked


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), mcs=_MCS, subs=_SUBS, scrambler_seed=st.integers(1, 127))
def test_a_transmitted_grid_solves_with_no_violation(data, mcs, subs, scrambler_seed):
    n_sym = _symbols(data.draw, mcs)
    psdu = data.draw(st.binary(min_size=n_sym * mcs.n_dbps // 8,
                               max_size=n_sym * mcs.n_dbps // 8))
    sent = wifi.psdu_grid(psdu, mcs, scrambler_seed)
    grid = mcs.constellation.nearest(sent[:, wifi.columns(subs)])
    rep = solver.solve_payload(grid, mcs, scrambler_seed, subs)
    assert not rep.violated_positions
    assert not rep.perturbed_subcarriers
    assert rep.max_span <= 7
