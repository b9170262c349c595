"""The work tally: a loop calls :func:`count` where the work runs, and a caller reads
the counts from :func:`counting`, so signatures stay pure."""

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

_tally = ContextVar("sipcert_work_tally", default=None)


@contextmanager
def counting():
    """A fresh Counter for this thread or task until the block ends, hiding any outer one."""
    token = _tally.set(Counter())
    try:
        yield _tally.get()
    finally:
        _tally.reset(token)


def count(key: str, n: int = 1) -> None:
    """Add ``n`` to ``key`` in the open tally; outside every ``counting()``, do nothing."""
    if (counts := _tally.get()) is not None:
        counts[key] += n
