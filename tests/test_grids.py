"""The pure-Python grids give numpy's floats bit for bit, so CLI output
does not change with the array library gone."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticlab.cli import _parse_grid
from staticlab.geometry import linspace

np = pytest.importorskip("numpy")

ends = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(a=ends, b=ends, num=st.integers(1, 300))
def test_linspace_matches_numpy(a, b, num):
    assert linspace(a, b, num) == np.linspace(a, b, num).tolist()


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1e3, 1e3), tiny=st.floats(0.0, 1e-300), num=st.integers(2, 9))
def test_linspace_matches_numpy_on_subnormal_steps(a, tiny, num):
    assert linspace(a, a + tiny, num) == np.linspace(a, a + tiny, num).tolist()
    assert linspace(0.0, tiny, num) == np.linspace(0.0, tiny, num).tolist()


@settings(max_examples=500, deadline=None)
@given(a=st.floats(-1e3, 1e3), step=st.floats(1e-4, 10.0),
       count=st.integers(-3, 300), frac=st.floats(0.0, 1.0))
def test_parse_grid_matches_numpy_arange(a, step, count, frac):
    # b lands on the grid (frac = 0), between two points, or below a
    b = a + (count + frac) * step
    want = np.arange(a, b + step / 2, step).tolist()
    assert _parse_grid(f"{a!r}:{b!r}:{step!r}") == want
