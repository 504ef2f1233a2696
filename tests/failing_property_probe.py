"""A property test that fails on purpose.

Its name keeps it out of the suite's collection: ``test_pytest_settings.py``
runs it in a subprocess under the repository's pytest settings and checks that
the failure is reported as a failure, not as an INTERNALERROR.
"""

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails_on_purpose(x):
    assert x < 5
