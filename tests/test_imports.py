"""Import footprint: completion and the spectral toolkit load no scipy; the
Gaussian path loads scipy.linalg at its first solve, and a Gaussian phase
grid loads it in the calling process before it forks its trial workers.

Each case runs in a fresh interpreter, since the test modules import scipy
themselves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCIPY = ("scipy.fft", "scipy.special", "scipy.linalg")


def _run(script: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_completion_and_the_spectral_toolkit_load_no_scipy():
    _run(f"""
import sys
import numpy as np
import tubal as tb

def loaded():
    return [m for m in {SCIPY!r} if m in sys.modules]

assert loaded() == [], loaded()
a = np.random.default_rng(0).standard_normal((12, 10, 5))
tb.svt(a, 1.0), tb.tsvd(a), tb.tnn(a), tb.tubal_rank(a), tb.tprod(a, a.transpose(1, 0, 2))
x0 = tb.rand_low_tubal(12, 12, 5, 2, seed=1, scale="inv_n")
_, report = tb.solve_completion(tb.make_bernoulli_mask(x0.shape, 0.7, seed=2), x0)
assert report.converged
assert loaded() == [], loaded()
gmap = tb.make_gaussian_map(200, (4, 4, 3), seed=3)
tb.solve_gaussian(gmap, tb.apply_map(gmap, tb.rand_low_tubal(4, 4, 3, 1, seed=4)))
assert "scipy.linalg" in sys.modules
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_gaussian_trial_workers_inherit_the_linalg_routines():
    _run("""
import os
import sys
import tubal as tb
from tubal import solve, tensor

tensor._cpu_count = lambda: 2
loaded_at_fork = []
fork = os.fork

def watched_fork():
    loaded_at_fork.append((solve._linalg.cache_info().currsize, "scipy.linalg" in sys.modules))
    return fork()

os.fork = watched_fork
grid = tb.phase_grid("gaussian", (4, 4, 2), values=[20, 40], ranks=[1], trials=2,
                     base_seed=3)
assert all(not cell.errors for cell in grid.cells)
assert len(loaded_at_fork) == 2 and set(loaded_at_fork) == {(1, True)}, loaded_at_fork
""")
