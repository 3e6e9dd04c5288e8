"""Import footprint: no path of the package loads scipy, and the CLI runs
every solver and a pooled phase grid with scipy unimportable.

Each case runs in a fresh interpreter, since the test modules import scipy
themselves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(script: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_completion_and_the_spectral_toolkit_load_no_scipy():
    _run("""
import sys
import numpy as np
import tubal as tb

def loaded():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

assert loaded() == [], loaded()
a = np.random.default_rng(0).standard_normal((12, 10, 5))
tb.svt(a, 1.0), tb.tsvd(a), tb.tnn(a), tb.tubal_rank(a), tb.tprod(a, a.transpose(1, 0, 2))
x0 = tb.rand_low_tubal(12, 12, 5, 2, seed=1, scale="inv_n")
_, report = tb.solve_completion(tb.make_bernoulli_mask(x0.shape, 0.7, seed=2), x0)
assert report.converged
assert loaded() == [], loaded()
gmap = tb.make_gaussian_map(200, (4, 4, 3), seed=3)
tb.solve_gaussian(gmap, tb.apply_map(gmap, tb.rand_low_tubal(4, 4, 3, 1, seed=4)))
assert loaded() == [], loaded()
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_cli_runs_every_solver_without_scipy(tmp_path):
    # gen, recover on the direct (m >= d = 32) and the Woodbury (m < d) path,
    # complete and a Gaussian phase grid on a 2-process pool, each replayed
    _run(f"""
import multiprocessing
import sys
from pathlib import Path

sys.modules["scipy"] = None  # every import of scipy or of a submodule fails
from tubal import tensor
from tubal.cli import main

tensor._cpu_count = lambda: 2
built = []
fork = type(multiprocessing.get_context("fork"))
pool = fork.Pool

def counting(self, processes=None, *args, **kwargs):
    built.append(processes)
    return pool(self, processes, *args, **kwargs)

fork.Pool = counting
tmp = Path({str(tmp_path)!r})
x0 = str(tmp / "run0" / "x0.t3")
runs = [
    ["gen", "4", "4", "2", "1", "--seed", "3"],
    ["recover", x0, "--m", "43", "--seed", "5", "--history"],
    ["recover", x0, "--m", "20", "--seed", "5"],
    ["complete", x0, "--p", "0.9", "--seed", "6"],
    ["phase", "gaussian", "--n1", "4", "--n2", "4", "--n3", "2", "--values", "20,32",
     "--ranks", "1", "--trials", "2", "--seed", "1"],
]
for i, args in enumerate(runs):
    first, again = tmp / f"run{{i}}", tmp / f"replay{{i}}"
    assert main(args + ["--out", str(first)]) == 0, args
    assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == 0, args
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in again.iterdir()), args
    assert all((first / n).read_bytes() == (again / n).read_bytes() for n in files), args
assert built == [2, 2], built  # the phase grid and its replay ran on the pool
""")
