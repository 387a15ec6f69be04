"""Shared test settings: one Hypothesis profile for every property test.

Derandomized examples and no example database keep each run identical; no
deadline, because exact big-integer kernels vary in time from example to
example.  Hypothesis also caches the constants it reads from local modules
under its home directory, already during collection, so each test run points
that directory at a temporary one and leaves no `.hypothesis/` behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "groupforests", derandomize=True, database=None, deadline=None
)
settings.load_profile("groupforests")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
