"""Shared fixtures."""

import gc

import pytest

from dgreader.autodiff import Tape


@pytest.fixture
def live_tapes():
    """Run the test with the cyclic garbage collector off, so that only
    reference counting frees objects. Returns a function listing every
    Tape created during the test that is still in memory."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Tape)]
    gc.disable()
    try:
        yield lambda: [
            o for o in gc.get_objects()
            if isinstance(o, Tape) and not any(o is b for b in before)
        ]
    finally:
        gc.enable()
