import numpy as np
from hypothesis import settings

import tubal as tb
from tubal.rng import substream

# Property tests draw the same examples on every run and leave no example
# database behind; solver-sized examples may take longer than the default
# deadline.
settings.register_profile("tubal", derandomize=True, database=None, deadline=None)
settings.load_profile("tubal")


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
