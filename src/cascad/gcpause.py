"""One way to pause the cyclic garbage collector around per-case set-up.

AIGER parsing, Tseitin encoding and solver set-up each build tens of
thousands of container objects and no reference cycles, so the collections
their allocations trigger free nothing.  ``paused_gc()`` disables the
collector and restores its previous state on the way out, so a caller that
had it disabled keeps it disabled.  It is a context manager and, since it
is a ``contextlib.contextmanager``, also a decorator: ``@paused_gc()``.
Keep it off code that runs user hooks or a search, whose garbage may hold
cycles.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def paused_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
