"""The suite's own pytest settings still report a failing property test."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_given_test_is_reported_under_the_repo_settings(pytester):
    # hypothesis's report imports libcst, which warns on import; under
    # filterwarnings = error that warning crashed pytest with INTERNALERROR
    # and the falsifying example was lost
    (pytester.path / "pyproject.toml").write_text(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_probe="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_probe.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1)
