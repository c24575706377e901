"""Shared test configuration.

Hypothesis deadlines are disabled: property examples run fine in
milliseconds on an idle machine, but the suite must stay deterministic
when run next to the (CPU-heavy) benchmark harness.

The runtime sanitizer is process-global and a ``sanitize=True``
simulation switches it on for good, so every test ends with it reset:
a sanitized test must never turn later tests' replays scalar.
"""

import pytest
from hypothesis import HealthCheck, settings

from repro.analysis import sanitizer

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _reset_sanitizer():
    yield
    sanitizer.reset()
