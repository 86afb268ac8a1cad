"""Suite-wide fixtures."""

import pytest

from repro.obs import REGISTRY


@pytest.fixture(autouse=True)
def _release_collectors():
    """Unregister every metrics collector a test left registered.

    The registry holds a collector's owner until the owner's
    ``close()``; components a test did not close would otherwise stay
    resident for the rest of the run and feed later snapshots."""
    before = REGISTRY.collectors()  # held, so no id below is reused
    kept = {id(fn) for fn in before}
    yield
    for fn in REGISTRY.collectors():
        if id(fn) not in kept:
            REGISTRY.unregister_collector(fn)
