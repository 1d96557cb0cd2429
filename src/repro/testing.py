"""Shared test infrastructure.

The seeding and configuration helpers behind ``tests/conftest.py``: the
deterministic RNG seed, the hypothesis profile and the nightly gate.
Kept in the package so any harness can import them and a seed or
profile change happens in exactly one place.
"""

from __future__ import annotations

import os
import random

__all__ = [
    "TEST_SEED",
    "make_rng",
    "nightly_enabled",
    "register_hypothesis_profile",
]

#: Root seed for every deterministic test RNG.
TEST_SEED = 0xC0FFEE

#: Environment variable that unlocks the long nightly-only tests
#: (full exhaustive grids, million-vector fuzz runs).
NIGHTLY_ENV = "REPRO_NIGHTLY"


def make_rng(salt: int = 0) -> random.Random:
    """Deterministic ``random.Random`` rooted at :data:`TEST_SEED`."""
    return random.Random(TEST_SEED ^ salt)


def nightly_enabled() -> bool:
    """Whether the long nightly-only tests should run (``REPRO_NIGHTLY``)."""
    return os.environ.get(NIGHTLY_ENV, "") not in ("", "0")


def register_hypothesis_profile() -> None:
    """Register and load the shared conservative hypothesis profile.

    Deterministic, no deadline (STA on larger circuits can take a while
    on CI boxes), modest example counts.  Safe to call more than once.
    """
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "repro",
        deadline=None,
        max_examples=60,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repro")
