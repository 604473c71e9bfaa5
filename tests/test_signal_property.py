"""Property tests of ``ComplexSignal``'s finite check: a signal is accepted
exactly when every real and imaginary part is finite."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from crossphy import dsp  # noqa: E402
from crossphy.errors import DomainError  # noqa: E402

# finite parts, with the signed zeros and the subnormals drawn often
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                     np.finfo(np.float64).max, -np.finfo(np.float64).max]))


def _signal(parts):
    return dsp.ComplexSignal(parts.view(np.complex128), 20e6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(parts=arrays(np.float64, st.integers(0, 40).map(lambda n: 2 * n), elements=_FINITE))
def test_finite_parts_are_accepted(parts):
    sig = _signal(parts)
    assert sig.samples.view(np.uint64).tobytes() == parts.view(np.uint64).tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(parts=arrays(np.float64, st.integers(1, 40).map(lambda n: 2 * n), elements=_FINITE),
       bad=st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]), where=st.data())
def test_a_planted_nan_or_infinity_is_rejected(parts, bad, where):
    # at any position of the real or the imaginary part
    parts[where.draw(st.integers(0, len(parts) - 1))] = bad
    with pytest.raises(DomainError, match="NaN or Inf"):
        _signal(parts)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(parts=arrays(np.float64, st.integers(0, 40).map(lambda n: 2 * n)))
def test_accepted_exactly_when_every_part_is_finite(parts):
    if np.all(np.isfinite(parts)):
        _signal(parts)
    else:
        with pytest.raises(DomainError):
            _signal(parts)


def test_the_empty_signal_is_accepted():
    assert len(dsp.ComplexSignal(np.zeros(0, complex), 1e6)) == 0
