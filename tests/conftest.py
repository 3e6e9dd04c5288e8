import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import tubal as tb
from tubal.rng import substream

# Property tests draw the same examples on every run and leave no example
# database behind; solver-sized examples may take longer than the default
# deadline.
settings.register_profile("tubal", derandomize=True, database=None, deadline=None)
settings.load_profile("tubal")


@pytest.fixture(autouse=True)
def nothing_outlives_the_test():
    """Fail a test that leaves a new thread alive or a child process running."""
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    left = [t.name for t in threading.enumerate() if t not in threads]
    running = [p for p in multiprocessing.active_children() if p not in children]
    for proc in running:  # fail the test rather than hang the interpreter's exit
        proc.kill()
        proc.join(10)
    assert not left and not running, f"left alive: threads {left}, processes {running}"


def positive_low_tubal(n1, n2, n3, r, seed):
    """Entrywise-positive tensor of tubal rank r, scaled to max 1.

    Positive factors keep the circular-convolution product positive, so the
    render-to-pixels path needs no shifting that would raise the rank.
    """
    gen = substream(seed, "positive-demo", n1, n2, n3, r)
    p = 0.5 + gen.random((n1, r, n3))
    q = 0.5 + gen.random((r, n2, n3))
    t = tb.tprod(p, q)
    return t / t.max()


def traced_peak(fn):
    """(peak, result): the most memory, in bytes, that tracemalloc saw
    allocated while fn() ran, and what fn() returned."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
