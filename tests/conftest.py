"""Shared fixtures and hypothesis configuration for the test suite.

The actual seeding/profile logic lives in :mod:`repro.testing`; this
file only binds it to pytest.
"""

import pytest

from repro.testing import make_rng, nightly_enabled, register_hypothesis_profile

register_hypothesis_profile()

#: Skip marker for the long nightly-only tests (full exhaustive grids,
#: million-vector fuzz).  Enable with ``REPRO_NIGHTLY=1``.
nightly = pytest.mark.skipif(
    not nightly_enabled(),
    reason="nightly-only (set REPRO_NIGHTLY=1 to run)")


@pytest.fixture
def rng():
    """Deterministic random generator per test."""
    return make_rng()
