"""meshrep.rng draws what NumPy's default_rng draws, and the package runs
without NumPy: the tests keep NumPy as the oracle."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrep.linalg import GF, QQ, Matrix
from meshrep.rep import random_interval_sum
from meshrep.rng import default_rng
from meshrep.shapes import LineQuiver

ROOT = Path(__file__).resolve().parents[1]

# widths from 1 (no draw) to 2^32 (the draw itself); sizes: a scalar, empty,
# 1-D, and 2-D as Matrix.random draws, also with no rows or no columns
CALLS = st.tuples(st.integers(-50, 50), st.sampled_from([1, 2, 5, 101, 32003, 2 ** 31, 2 ** 32]),
                  st.sampled_from([None, None, 0, 1, 3, 7, (2, 3), (3, 0), (0, 2)]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 70), st.lists(CALLS, min_size=1, max_size=12), st.integers(1, 2 ** 32))
def test_default_rng_matches_numpy(seed, calls, high):
    """Scalar and sized calls interleaved on one generator give NumPy's
    integers, which also fixes the spare half of a 64-bit output kept
    between calls; a width above 2^32 raises."""
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for low, width, size in calls:
        want = theirs.integers(low, low + width, size=size)
        got = ours.integers(low, low + width, size=size)
        assert got == (int(want) if size is None else want.tolist())
        assert type(got) is (int if size is None else list)
    assert ours.integers(high) == int(theirs.integers(high))  # 0..high-1
    for low, high in ((0, 2 ** 32 + 1), (-(2 ** 40), 0), (3, 3), (3, 2)):
        with pytest.raises(ValueError):
            ours.integers(low, high)
    with pytest.raises(ValueError):
        default_rng(-1)


def test_random_inputs_do_not_depend_on_the_generator():
    """Matrix.random and random_interval_sum draw the same inputs from the
    package generator as from NumPy's, which they still accept."""
    for seed in range(10):
        for field in (QQ, GF(5)):
            assert (Matrix.random(field, 3, 4, default_rng(seed))
                    == Matrix.random(field, 3, 4, np.random.default_rng(seed)))
            q = LineQuiver(4, "FBF")
            (x, mx), (y, my) = (random_interval_sum(q, field, rng, max_total=4)
                                for rng in (default_rng(seed), np.random.default_rng(seed)))
            assert mx == my and x.dims == y.dims and x.mats == y.mats


NO_NUMPY = """
import sys
from meshrep.suites import suite_census, suite_kernels, suite_stc
assert suite_census(nmax=3, samples=2).passed
assert suite_stc(samples=1, ns=[2]).passed
assert suite_kernels(nmax=2, oracle_pairs=2).passed
print("numpy" in sys.modules)
"""


def test_the_suites_run_without_numpy():
    """Importing the suites and running census, stc and kernels loads no NumPy."""
    out = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.split() == ["False"]
