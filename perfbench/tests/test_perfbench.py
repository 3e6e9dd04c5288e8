"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tubal  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DeskWorkload, make_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    result = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", trace, "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_all_prints_every_metric_of_every_workload():
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--tiny")
    result = last_json(proc)
    assert result["correct"]
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]
            assert f"\n{w} {m['name']} = " in proc.stdout
        assert f"\n{w} fail_frac = 0.0\n" in proc.stdout


def test_perturbed_xhat_counts_as_failure(tmp_path, monkeypatch):
    solve = tubal.solve_gaussian

    def perturbed(*args, **kwargs):
        xhat, report = solve(*args, **kwargs)
        return xhat + 1e-3, report

    monkeypatch.setattr(tubal, "solve_gaussian", perturbed)
    workload = make_workloads(tiny=True)["gauss_table1"]
    result = workload.run_pass(5, tmp_path, Tracer(layers=()))
    assert result.attempted == len(workload.rows)
    assert result.failed == result.attempted


def test_mismatched_replay_counts_as_failure(tmp_path, monkeypatch):
    run_cli = DeskWorkload.run_cli

    def corrupting(self, tracer, argv):
        code = run_cli(self, tracer, argv)
        out = Path(argv[-1])
        if argv[0] == "replay" and out.name == "gen":
            data = bytearray((out / "x0.t3").read_bytes())
            data[-1] ^= 1
            (out / "x0.t3").write_bytes(bytes(data))
        return code

    monkeypatch.setattr(DeskWorkload, "run_cli", corrupting)
    result = make_workloads(tiny=True)["cli_desk"].run_pass(5, tmp_path, Tracer(layers=()))
    assert [t.label for t in result.trials if not t.ok] == ["replay gen"]
    assert result.replays_identical == result.replays - 1


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
