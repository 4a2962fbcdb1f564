"""Pausing the cyclic garbage collector around bulk object construction."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its state on exit.

    Simulating a fleet or reading a log allocates hundreds of thousands
    of tuples and forms no reference cycle, so collections in the middle
    only rescan objects that are still alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
