"""Shared test setup.

When a hypothesis test fails, hypothesis imports `hypothesis.extra._patching`
to explain the failure, and that module imports `libcst` if it is installed.
Some `libcst` releases use `mypy_extensions.TypedDict`, which raises a
`DeprecationWarning` at import.  Every warning is an error in these tests
(`filterwarnings = ["error"]` in `pyproject.toml`, the same as `pytest -W
error`), and that one would turn the failure report into an INTERNALERROR
with no falsifying example.  So the module is imported here once, with that
one warning category ignored for that one import; warnings stay errors
everywhere else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
