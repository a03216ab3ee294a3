"""The repository's pytest warning filters, run on a small suite of their own."""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_a_failing_property_fails_alone(pytester):
    # hypothesis imports libcst to report a failing example, and libcst
    # warns of a deprecation on import; under error::DeprecationWarning
    # that ended the whole run in INTERNALERROR, and no later test ran
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"][
        "filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_probe="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_failing_property(n):
            assert n < 0

        def test_passing():
            pass
    """)
    result = pytester.runpytest_subprocess()
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
