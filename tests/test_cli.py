"""Command-line surface: subcommand flows, exit codes, manifest replay."""

import json
from pathlib import Path

import numpy as np
import pytest

import tubal as tb
from tubal import cli, lab
from tubal import io as tio
from tubal.cli import main

RNG = np.random.default_rng(64)


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_gen_round_trip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["gen", "10", "10", "5", "2", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _dir_bytes(out1) == _dir_bytes(out2)
    x = tio.read_tensor(out1 / "x0.t3")
    assert x.shape == (10, 10, 5)
    assert x.size == 500
    assert tb.tubal_rank(x, 1e-6) == 2
    assert (out1 / "manifest.json").exists()


def test_gen_rejects_zero_rank(tmp_path):
    assert main(["gen", "4", "4", "2", "0", "--out", str(tmp_path / "z")]) == 2


def test_gen_rejects_a_tensor_past_the_size_rule(tmp_path):
    # TooLarge before anything is drawn, not numpy's ValueError
    out = tmp_path / "big"
    assert main(["gen", "99999999999999999999", "3", "3", "1", "--out", str(out)]) == 2
    assert not (out / "x0.t3").exists()


def test_recover_flow(tmp_path):
    gen_out = tmp_path / "gen"
    assert main(["gen", "4", "4", "2", "1", "--seed", "3", "--out", str(gen_out)]) == 0
    rec_out = tmp_path / "rec"
    code = main(["recover", str(gen_out / "x0.t3"), "--m", "43", "--seed", "5",
                 "--history", "--out", str(rec_out)])
    assert code == 0
    x0 = tio.read_tensor(gen_out / "x0.t3")
    xhat = tio.read_tensor(rec_out / "xhat.t3")
    assert tb.rel_error(xhat, x0) <= 1e-5
    report = (rec_out / "report.csv").read_text().splitlines()
    assert "rel_error" in report[0]
    history = (rec_out / "history.csv").read_text().splitlines()
    assert history[0] == "iter,objective,res_x,res_z,res_feas,res_gap,mu"
    assert len(history) >= 3


def test_recover_m_zero_rejected(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "3", "3", "2", "1", "--out", str(gen_out)])
    assert main(["recover", str(gen_out / "x0.t3"), "--m", "0",
                 "--out", str(tmp_path / "r")]) == 2


def test_recover_invalid_solver_settings_rejected(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "3", "3", "2", "1", "--out", str(gen_out)])
    for flags in (["--rho", "1.0"], ["--max-iter", "0"], ["--mu-max", "inf"],
                  ["--eps", "inf"]):
        assert main(["recover", str(gen_out / "x0.t3"), "--m", "50", *flags,
                     "--out", str(tmp_path / "r")]) == 2


def test_recover_not_converged_exit_code(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "4", "4", "2", "1", "--seed", "3", "--out", str(gen_out)])
    rec_out = tmp_path / "rec"
    code = main(["recover", str(gen_out / "x0.t3"), "--m", "43", "--seed", "5",
                 "--max-iter", "2", "--out", str(rec_out)])
    assert code == 3
    assert (rec_out / "report.csv").exists()


def test_recover_penalty_saturates_before_the_cap(tmp_path):
    # rho ** k leaves the float range at k = 309; the run must still reach the cap
    gen_out = tmp_path / "gen"
    main(["gen", "4", "4", "2", "1", "--seed", "3", "--out", str(gen_out)])
    code = main(["recover", str(gen_out / "x0.t3"), "--m", "20", "--seed", "5", "--rho", "10",
                 "--max-iter", "400", "--eps", "1e-300", "--out", str(tmp_path / "rec")])
    assert code == 3


def test_complete_fully_observed(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "8", "8", "4", "2", "--seed", "9", "--scale", "inv_n",
          "--out", str(gen_out)])
    comp_out = tmp_path / "comp"
    code = main(["complete", str(gen_out / "x0.t3"), "--p", "1.0",
                 "--out", str(comp_out)])
    assert code == 0
    x0 = tio.read_tensor(gen_out / "x0.t3")
    xhat = tio.read_tensor(comp_out / "xhat.t3")
    assert tb.rel_error(xhat, x0) <= 1e-6


def test_complete_with_mask_file(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "10", "10", "4", "1", "--seed", "11", "--scale", "inv_n",
          "--out", str(gen_out)])
    mask = tb.make_bernoulli_mask((10, 10, 4), 0.8, seed=12)
    tio.write_mask(tmp_path / "m.om", mask)
    comp_out = tmp_path / "comp"
    code = main(["complete", str(gen_out / "x0.t3"), "--mask",
                 str(tmp_path / "m.om"), "--out", str(comp_out)])
    assert code == 0
    back = tio.read_mask(comp_out / "mask.om")
    assert np.array_equal(back.observed, mask.observed)


def test_complete_rejects_both_p_and_mask(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "4", "4", "2", "1", "--out", str(gen_out)])
    with pytest.raises(SystemExit) as err:
        main(["complete", str(gen_out / "x0.t3"), "--p", "0.5", "--mask", "x.om",
              "--out", str(tmp_path / "c")])
    assert err.value.code == 2


def test_missing_input_file_is_io_error(tmp_path):
    assert main(["info", str(tmp_path / "missing.t3")]) == 4


def test_phase_single_cell(tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["phase", "gaussian", "--n1", "4", "--n2", "4", "--n3", "2",
                 "--values", "32", "--ranks", "1", "--trials", "2",
                 "--seed", "1", "--matrix", "--out", str(out)])
    assert code == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0].startswith("kind,n1,n2,n3,r,m_or_p")
    cells = lines[1].split(",")
    assert cells[0] == "gaussian" and cells[8] == "1"  # success_rate
    assert (out / "grid_matrix.txt").read_text().strip() == "1"


def test_phase_completion_kind(tmp_path):
    out = tmp_path / "grid"
    code = main(["phase", "completion", "--n1", "8", "--n2", "8", "--n3", "4",
                 "--values", "0.9", "--ranks", "1", "--trials", "2",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    row = (out / "grid.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "completion" and float(row[5]) == 0.9
    assert row[8] == "1"  # success_rate


def test_info_nonfinite_tensor_is_usage_error(tmp_path):
    path = tmp_path / "nan.t3"
    tio.write_tensor(path, np.zeros((2, 2, 1)))
    path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    assert main(["info", str(path)]) == 2


def test_complete_overflowing_iterate_is_usage_error(tmp_path):
    # finite data whose solve overflows exits 2, not with a LinAlgError
    tio.write_tensor(tmp_path / "big.t3", np.full((6, 6, 3), 1.7e308))
    assert main(["complete", str(tmp_path / "big.t3"), "--p", "0.5", "--max-iter", "60",
                 "--out", str(tmp_path / "out")]) == 2


def test_info_identity(tmp_path, capsys):
    tio.write_tensor(tmp_path / "i.t3", tb.identity(4, 3))
    assert main(["info", str(tmp_path / "i.t3")]) == 0
    text = capsys.readouterr().out
    assert "tubal_rank: 4" in text
    assert "tnn: 4" in text
    assert "spectral_norm: 1" in text
    tio.write_tensor(tmp_path / "z.t3", np.zeros((3, 3, 2)))
    main(["info", str(tmp_path / "z.t3")])
    assert "tubal_rank: 0" in capsys.readouterr().out


def test_info_matches_library(tmp_path, capsys):
    a = tb.rand_low_tubal(6, 6, 3, 2, seed=5)
    tio.write_tensor(tmp_path / "a.t3", a)
    main(["info", str(tmp_path / "a.t3")])
    text = capsys.readouterr().out
    assert f"tnn: {tio.fmt(tb.tnn(a))}" in text
    assert f"spectral_norm: {tio.fmt(tb.spectral_norm(a))}" in text


def _make_low_rank_image(tmp_path, h=32, w=32, rank=1, seed=2):
    """Quantized positive low-tubal-rank (h, 3, w)-tensor rendered as pixels."""
    from conftest import positive_low_tubal

    t = positive_low_tubal(h, 3, w, rank, seed)
    pixels = np.rint(t.transpose(0, 2, 1) * 255.0).astype(np.uint8)
    path = tmp_path / "scene.ppm"
    tio.write_image(path, pixels)
    return path


def test_inpaint_fully_observed_is_lossless(tmp_path):
    path = _make_low_rank_image(tmp_path)
    out = tmp_path / "inp"
    code = main(["inpaint", str(path), "--p", "1.0", "--out", str(out)])
    assert code == 0
    original = tio.read_image(path)[0]
    recovered = tio.read_image(out / "inpainted.ppm")[0]
    assert np.array_equal(original, recovered)


def test_inpaint_rejects_bad_format(tmp_path):
    bad = tmp_path / "img.ppm"
    bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    assert main(["inpaint", str(bad), "--p", "0.5", "--out", str(tmp_path / "o")]) == 2


def test_recover_table_row_via_cli(tmp_path):
    # first recovery-table row end to end: n=10, n3=5, r=2, m=541
    gen_out = tmp_path / "gen"
    assert main(["gen", "10", "10", "5", "2", "--seed", "17",
                 "--out", str(gen_out)]) == 0
    rec_out = tmp_path / "rec"
    assert main(["recover", str(gen_out / "x0.t3"), "--m", "541", "--seed", "18",
                 "--out", str(rec_out)]) == 0
    x0 = tio.read_tensor(gen_out / "x0.t3")
    xhat = tio.read_tensor(rec_out / "xhat.t3")
    assert tb.rel_error(xhat, x0) <= 1e-6
    assert tb.tubal_rank(xhat, 1e-3) == 2


def test_complete_table_row_via_cli(tmp_path):
    # completion-table row end to end: n=50, r=3, p=0.47, 1/n-scale factors
    gen_out = tmp_path / "gen"
    assert main(["gen", "50", "50", "50", "3", "--seed", "19", "--scale", "inv_n",
                 "--out", str(gen_out)]) == 0
    comp_out = tmp_path / "comp"
    assert main(["complete", str(gen_out / "x0.t3"), "--p", "0.47", "--seed", "20",
                 "--out", str(comp_out)]) == 0
    x0 = tio.read_tensor(gen_out / "x0.t3")
    xhat = tio.read_tensor(comp_out / "xhat.t3")
    assert tb.rel_error(xhat, x0) <= 1e-5
    assert tb.tubal_rank(xhat, 1e-3) == 3


def test_inpaint_grayscale_pgm(tmp_path):
    pixels = RNG.integers(0, 256, size=(6, 7), dtype=np.uint8)
    tio.write_image(tmp_path / "img.pgm", pixels)
    out = tmp_path / "o"
    assert main(["inpaint", str(tmp_path / "img.pgm"), "--p", "1.0",
                 "--out", str(out)]) == 0
    assert np.array_equal(tio.read_image(out / "inpainted.pgm")[0], pixels)


def test_frames_synthetic_low_rank_recovery(tmp_path):
    from conftest import positive_low_tubal

    h, w, f = 48, 48, 8
    scene = positive_low_tubal(h, f, w, 2, seed=23)
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for j in range(f):
        pixels = np.rint(scene[:, j, :] * 255.0).astype(np.uint8)
        tio.write_image(frame_dir / f"frame_{j:02d}.pgm", pixels)
    out = tmp_path / "fout"
    assert main(["frames", str(frame_dir), "--p", "0.6", "--seed", "24",
                 "--out", str(out)]) == 0
    err_sq = 0.0
    for j in range(f):
        truth = np.rint(scene[:, j, :] * 255.0) / 255.0
        got = tio.read_image(out / f"frame_{j:02d}.pgm")[0].astype(float) / 255.0
        err_sq += ((got - truth) ** 2).sum()
    quant = np.rint(scene * 255.0) / 255.0
    assert np.sqrt(err_sq) / np.linalg.norm(quant) <= 1e-2


def test_frames_round_trip_and_mismatch(tmp_path):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    pixels = RNG.integers(0, 256, size=(8, 9), dtype=np.uint8)
    tio.write_image(frame_dir / "f0.pgm", pixels)
    out = tmp_path / "fout"
    code = main(["frames", str(frame_dir), "--p", "1.0", "--out", str(out)])
    assert code == 0
    assert np.array_equal(tio.read_image(out / "f0.pgm")[0], pixels)
    tio.write_image(frame_dir / "f1.pgm", RNG.integers(0, 256, (4, 4), dtype=np.uint8))
    assert main(["frames", str(frame_dir), "--p", "1.0",
                 "--out", str(tmp_path / "f2")]) == 2


@pytest.mark.parametrize("maker", ["gen", "complete", "phase"])
def test_manifest_replay_bitwise(tmp_path, maker):
    first = tmp_path / "first"
    if maker == "gen":
        args = ["gen", "6", "6", "3", "2", "--seed", "13", "--out", str(first)]
    elif maker == "complete":
        gen_out = tmp_path / "gen"
        main(["gen", "8", "8", "4", "1", "--seed", "14", "--scale", "inv_n",
              "--out", str(gen_out)])
        args = ["complete", str(gen_out / "x0.t3"), "--p", "0.8", "--seed", "15",
                "--out", str(first)]
    else:
        args = ["phase", "gaussian", "--n1", "4", "--n2", "4", "--n3", "2",
                "--values", "32,40", "--ranks", "1", "--trials", "2",
                "--seed", "16", "--out", str(first)]
    assert main(args) == 0
    replay_out = tmp_path / "replay"
    assert main(["replay", str(first / "manifest.json"), "--out", str(replay_out)]) == 0
    assert _dir_bytes(first) == _dir_bytes(replay_out)


def test_manifest_replay_recover_bitwise(tmp_path):
    gen_out = tmp_path / "gen"
    main(["gen", "4", "4", "2", "1", "--seed", "3", "--out", str(gen_out)])
    first = tmp_path / "first"
    assert main(["recover", str(gen_out / "x0.t3"), "--m", "43", "--seed", "5",
                 "--history", "--out", str(first)]) == 0
    replay_out = tmp_path / "replay"
    assert main(["replay", str(first / "manifest.json"),
                 "--out", str(replay_out)]) == 0
    assert _dir_bytes(first) == _dir_bytes(replay_out)


def test_replay_rejects_bad_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    for text in ['{"format": 99, "subcommand": "gen"}',
                 '{"format": 1, "subcommand": "gen"}',
                 '["gen"]',
                 '{"format": 1,',
                 '{"format": 1, "subcommand": "gen", "params": {"n1": 3}}',
                 '{"format": 1, "subcommand": "gen", "params": '
                 '{"n1": 3, "n2": 3, "n3": 2, "r": 1, "seed": 0, "scale": "bogus"}}']:
        path.write_text(text)
        assert main(["replay", str(path), "--out", str(tmp_path / "r")]) == 2


def _files(path):
    return sorted(p.name for p in path.iterdir()) if path.exists() else []


def _assert_usage_error_before_solve(monkeypatch, tmp_path, args, replay=True):
    """args exit 2 before any solve and write nothing; so does their replay."""
    def no_solve(*_, **__):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli, "solve_gaussian", no_solve)
    monkeypatch.setattr(cli, "solve_completion", no_solve)
    monkeypatch.setattr(lab, "_trial", no_solve)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    assert _files(out) == []
    if replay:
        params = cli._params_from_args(cli.build_parser().parse_args([*args, "--out", "x"]))
        manifest = tmp_path / "manifest.json"
        tio.write_manifest(manifest, {"format": 1, "subcommand": args[0], "params": params})
        again = tmp_path / "again"
        assert main(["replay", str(manifest), "--out", str(again)]) == 2
        assert _files(again) == []


def test_info_rank_tol_out_of_range(tmp_path):
    tio.write_tensor(tmp_path / "a.t3", tb.identity(3, 2))
    assert main(["info", str(tmp_path / "a.t3"), "--rank-tol", "1.5"]) == 2


def test_recover_rank_tol_out_of_range(tmp_path, monkeypatch):
    main(["gen", "4", "4", "2", "1", "--out", str(tmp_path / "gen")])
    _assert_usage_error_before_solve(monkeypatch, tmp_path, [
        "recover", str(tmp_path / "gen" / "x0.t3"), "--m", "43", "--rank-tol", "2"])


def test_complete_rank_tol_out_of_range(tmp_path, monkeypatch):
    main(["gen", "4", "4", "2", "1", "--out", str(tmp_path / "gen")])
    _assert_usage_error_before_solve(monkeypatch, tmp_path, [
        "complete", str(tmp_path / "gen" / "x0.t3"), "--p", "0.9", "--rank-tol", "-1"])


_PHASE = ["phase", "gaussian", "--n1", "4", "--n2", "4", "--n3", "2", "--ranks", "1"]


def test_phase_zero_trials(tmp_path, monkeypatch):
    _assert_usage_error_before_solve(monkeypatch, tmp_path,
                                     [*_PHASE, "--values", "32", "--trials", "0"])


def test_phase_empty_values(tmp_path, monkeypatch):
    _assert_usage_error_before_solve(monkeypatch, tmp_path, [*_PHASE, "--values", ","])


def test_phase_non_numeric_values(tmp_path, monkeypatch):
    _assert_usage_error_before_solve(monkeypatch, tmp_path, [*_PHASE, "--values", "1,x"],
                                     replay=False)


@pytest.mark.parametrize("kind, values", [("completion", "2,0.5"), ("gaussian", "0")])
def test_phase_values_out_of_range(tmp_path, monkeypatch, kind, values):
    args = [*_PHASE, "--values", values, "--trials", "1"]
    args[1] = kind
    _assert_usage_error_before_solve(monkeypatch, tmp_path, args)


# a repeated flag overrides _PHASE's value (argparse keeps the last)
@pytest.mark.parametrize("extra", [["--threshold", "nan"], ["--threshold", "inf"],
                                   ["--threshold", "-1"], ["--ranks", "9"]])
def test_phase_bad_threshold_or_rank(tmp_path, monkeypatch, extra):
    _assert_usage_error_before_solve(monkeypatch, tmp_path,
                                     [*_PHASE, "--values", "32", "--trials", "1", *extra])


@pytest.mark.parametrize("args", [_PHASE + ["--values", "32"],
                                  ["inpaint", "img.ppm", "--p", "0.5"],
                                  ["frames", "frames", "--p", "0.5"]])
def test_rank_tol_only_where_a_rank_is_reported(args):
    # phase, inpaint and frames report no rank, so they take no --rank-tol
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([*args, "--rank-tol", "0.1", "--out", "x"])
    assert exc.value.code == 2


def test_replay_of_a_manifest_with_rank_tol(tmp_path):
    # manifests of phase, inpaint and frames written before the flag was
    # dropped still carry rank_tol, and still replay
    first = tmp_path / "first"
    assert main([*_PHASE, "--values", "32", "--trials", "1", "--out", str(first)]) == 0
    manifest = tio.read_manifest(first / "manifest.json")
    assert "rank_tol" not in manifest["params"]
    manifest["params"]["rank_tol"] = 1e-3
    tio.write_manifest(first / "manifest.json", manifest)
    again = tmp_path / "again"
    assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == 0
    assert _dir_bytes(first) == _dir_bytes(again)


def test_gen_zero_dimension(tmp_path, monkeypatch):
    _assert_usage_error_before_solve(monkeypatch, tmp_path, ["gen", "4", "4", "0", "1"])


def test_phase_zero_dimension(tmp_path, monkeypatch):
    args = [*_PHASE, "--values", "10", "--trials", "1"]
    args[args.index("--n3") + 1] = "0"
    _assert_usage_error_before_solve(monkeypatch, tmp_path, args)


def _recorded(args):
    """The params a fresh run of args records in its manifest."""
    argv = [args[0], "--out", "x", *args[1:]]
    return cli._params_from_args(cli.build_parser().parse_args(argv))


def _replay(tmp_path, subcommand, params):
    """Replay a manifest of params into tmp_path/again; returns the exit code."""
    manifest = tmp_path / "manifest.json"
    tio.write_manifest(manifest, {"format": 1, "subcommand": subcommand, "params": params})
    return main(["replay", str(manifest), "--out", str(tmp_path / "again")])


@pytest.mark.parametrize("args, key, value", [
    (["gen", "4", "4", "2", "1"], "n1", 4.5),
    (["recover", "x0.t3", "--m", "43"], "m", "abc"),
    (["recover", "x0.t3", "--m", "43"], "m", 20.5),
    (["complete", "x0.t3", "--p", "0.9"], "max_iter", "5.5"),
    ([*_PHASE, "--values", "32"], "trials", 1.5),
    (["frames", "frames", "--p", "0.5"], "p", "x"),
])
def test_replay_rejects_mistyped_params(tmp_path, monkeypatch, args, key, value):
    # the inputs exist, so only the parser can stop the mistyped value
    monkeypatch.chdir(tmp_path)
    tio.write_tensor("x0.t3", tb.rand_low_tubal(4, 4, 2, 1, seed=0))
    Path("frames").mkdir()
    tio.write_image("frames/f0.pgm", RNG.integers(0, 256, (4, 5), dtype=np.uint8))
    assert _replay(tmp_path, args[0], {**_recorded(args), key: value}) == 2
    assert _files(tmp_path / "again") == []


def test_replay_reads_a_numeric_tensor_param_as_a_path(tmp_path, monkeypatch, capsys):
    # "tensor": 5 names the file 5, not the open file descriptor 5
    monkeypatch.chdir(tmp_path)
    params = {**_recorded(["recover", "x0.t3", "--m", "43"]), "tensor": 5}
    assert _replay(tmp_path, "recover", params) == 4
    assert "No such file or directory: '5'" in capsys.readouterr().err
    assert _files(tmp_path / "again") == []


def test_replay_defaults_a_missing_key_and_carries_an_unknown_one(tmp_path):
    first = tmp_path / "first"
    assert main([*_PHASE, "--values", "32", "--trials", "1", "--out", str(first)]) == 0
    params = tio.read_manifest(first / "manifest.json")["params"]
    del params["threshold"]
    assert _replay(tmp_path, "phase", {**params, "note": "kept"}) == 0
    again = tio.read_manifest(tmp_path / "again" / "manifest.json")["params"]
    assert again["threshold"] == 1e-3 and again["note"] == "kept"
    assert (first / "grid.csv").read_bytes() == (tmp_path / "again" / "grid.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ["gen", "6", "6", "3", "2", "--seed", "-3", "--scale", "inv_n"],
    ["recover", "--m", "43", "--history", "--rho", "1.2", "--rank-tol", "0.01", "--", "-x.t3"],
    ["complete", "x0.t3", "--mask", "m.om", "--max-iter", "50", "--seed", "0"],
    ["phase", "completion", "--n1", "8", "--n2", "8", "--n3", "4", "--values", "0.5,0.9",
     "--ranks", "1,2", "--threshold", "0", "--matrix"],
    [*_PHASE, "--values", "16,32", "--mu0", "1e-05"],
    ["inpaint", "img.ppm", "--p", "0.5", "--eps", "1e-06"],
    ["frames", "frames", "--p", "0.6", "--mu-max", "1e8"],
])
def test_replay_argv_parses_back_to_the_recorded_params(args):
    params = _recorded(args)
    parser = cli.build_parser()
    again = cli._params_from_args(parser.parse_args(
        cli._argv(parser, args[0], {**params, "out": "x"})))
    assert json.dumps(again, sort_keys=True) == json.dumps(params, sort_keys=True)
