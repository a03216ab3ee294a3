"""The vectorized "%.17g" kernel of the CSV writer against Python's own
"%.17g", value by value, and its place off the package import path."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench.floattext import g17


def assert_g17(values):
    x = np.array(values, dtype=np.float64)
    assert g17(x).tolist() == [("%.17g" % v).encode() for v in x.tolist()]


def near(value, ulps):
    """The double ulps steps of the bit pattern away from value (> 0)."""
    bits = np.array([value], dtype=np.float64).view(np.int64) + ulps
    return float(bits.view(np.float64)[0])


# ties: for odd k, k / 2**17 in [1, 10) has 18 significant digits, the last a 5
ties = st.integers(2 ** 17, 10 * 2 ** 17 - 1).map(lambda k: k / 2 ** 17)
# powers of ten and their neighbours, where floor(log10) can land either
# side and where rounding to 17 digits carries into the next exponent
powers = st.builds(lambda p, u: near(float(f"1e{p}"), u), st.integers(-6, 18),
                   st.integers(-4, 4))
# the edges of [1e16, 1e17), where the scaled value is an even integer
edges = st.builds(lambda e, u: near(e, u), st.sampled_from([1e16, 1e17, 2.0 ** 53, 2.0 ** 54,
                                                            2.0 ** 55, 2.0 ** 56]),
                  st.integers(-8, 8))
values = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   ties, powers, edges)


@settings(max_examples=300, deadline=None)
@given(st.lists(values, max_size=60), st.booleans(), st.integers(1, 3))
def test_every_text_is_python_g17(draw, negate, repeat):
    x = np.tile(np.array(draw, dtype=np.float64), repeat)
    assert_g17(-x if negate else x)


def test_powers_of_ten_and_their_neighbours():
    # among them the largest double below each power of ten, the only
    # value whose 17 digits could round up into the next exponent
    assert_g17([sign * near(float(f"1e{p}"), u) for p in range(-7, 20) for u in range(-4, 5)
                for sign in (1, -1)])


def test_sorted_distinct_columns():
    # the writer's input: np.unique of bit patterns, both signs, each
    # exponent class a run, the fallback values around them
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20000) * 10.0 ** rng.integers(-8, 20, 20000)
    x = np.concatenate([x, -x, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-5, 1e17]])
    assert_g17(np.unique(x.view(np.uint64)).view(np.float64))


@pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
def test_positional_column_is_returned_as_laid_out(sign):
    # every value in [1e-4, 1e17): no value takes Python's "%.17g"; sign 0
    # mixes both signs
    rng = np.random.default_rng(11)
    x = 10.0 ** rng.uniform(-4, 16.9, 3000)
    x *= sign if sign else rng.choice([-1.0, 1.0], len(x))
    texts = g17(x)
    # the laid-out rows themselves, not a copy scattered into fresh texts
    assert texts.dtype == np.dtype("S24") and texts.base is not None
    assert_g17(x)
    x[7] = 0.0
    assert g17(x).base is None
    assert_g17(x)


def test_empty_column():
    assert g17(np.array([])).shape == (0,)


IMPORT_PROBE = """
import sys
import layerquench
print("layerquench.floattext" in sys.modules, "layerquench.cli" in sys.modules)
"""


def test_package_import_does_not_load_the_kernel():
    import layerquench
    src = os.path.dirname(os.path.dirname(os.path.abspath(layerquench.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]
