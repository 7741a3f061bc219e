"""Test-session setup shared by every test module."""

import warnings

# When a hypothesis test fails, hypothesis' report hook imports its patch
# writer, which imports libcst, which emits a DeprecationWarning
# (``mypy_extensions.TypedDict``).  Under a test's
# ``filterwarnings("error")`` mark that warning would stop pytest with
# INTERNALERROR instead of reporting the falsifying example, so the module
# is imported once here, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without its codemod extras
        pass
