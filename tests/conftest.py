"""Shared test settings: one Hypothesis profile for every property test.

Derandomized examples and no example database keep each run identical; no
deadline, because exact big-integer kernels vary in time from example to
example.  Hypothesis also caches the constants it reads from local modules
under its home directory, already during collection, so each test run points
that directory at a temporary one and leaves no `.hypothesis/` behind.

The `engine_passes` fixture counts walks: each engine pass starts with exactly
one call of its engine's kernel.
"""

import collections
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from groupforests import walks

settings.register_profile(
    "groupforests", derandomize=True, database=None, deadline=None
)
settings.load_profile("groupforests")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


# the call that starts one pass of each walk engine; the grid's is its pass,
# as `torus_symbol` also serves the closed-form spectrum
ENGINE_KERNELS = {"direct": "_direct_powers", "grid": "_grid_pass", "tree": "_tree_returns"}


@pytest.fixture
def engine_passes(monkeypatch):
    """Counter of engine passes by engine name, for the rest of the test."""
    calls = collections.Counter()
    for engine, name in ENGINE_KERNELS.items():
        def counted(*args, _engine=engine, _kernel=getattr(walks, name), **kwargs):
            calls[_engine] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(walks, name, counted)
    return calls
