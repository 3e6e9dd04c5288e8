"""File formats: binary tensors, masks, pixmaps, CSV, manifests."""

import numpy as np
import pytest

import tubal as tb
from tubal import io as tio
from tubal.errors import InvalidRate, NonFiniteValues, UnsupportedFormat

RNG = np.random.default_rng(90210)


def test_tensor_file_round_trip(tmp_path):
    a = RNG.standard_normal((4, 3, 5))
    path = tmp_path / "a.t3"
    tio.write_tensor(path, a)
    back = tio.read_tensor(path)
    assert np.array_equal(back, a)
    # write -> read -> write is byte identical
    path2 = tmp_path / "b.t3"
    tio.write_tensor(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_tensor_file_layout(tmp_path):
    a = np.zeros((2, 2, 1))
    a[1, 0, 0] = 5.0  # second value in index order (i fastest)
    path = tmp_path / "a.t3"
    tio.write_tensor(path, a)
    raw = path.read_bytes()
    assert raw[:4] == b"T3R1" and raw[4] == 1
    dims = np.frombuffer(raw[5:29], dtype="<u8")
    assert list(dims) == [2, 2, 1]
    values = np.frombuffer(raw[29:], dtype="<f8")
    assert list(values) == [0.0, 5.0, 0.0, 0.0]


def test_tensor_file_errors(tmp_path):
    path = tmp_path / "bad.t3"
    path.write_bytes(b"XXXX" + bytes(29))
    with pytest.raises(UnsupportedFormat):
        tio.read_tensor(path)
    with pytest.raises(NonFiniteValues):
        tio.write_tensor(tmp_path / "nan.t3", np.full((1, 1, 1), np.nan))
    tio.write_tensor(path, np.zeros((1, 2, 1)))
    path.write_bytes(path.read_bytes()[:-8] + np.array([np.inf], dtype="<f8").tobytes())
    with pytest.raises(NonFiniteValues):
        tio.read_tensor(path)


def test_truncated_and_oversized_files(tmp_path):
    t3 = tmp_path / "a.t3"
    tio.write_tensor(t3, RNG.standard_normal((2, 3, 2)))
    good = t3.read_bytes()
    huge = good[:5] + np.array([2 ** 40, 1, 1], dtype="<u8").tobytes() + good[29:]
    om = tmp_path / "m.om"
    tio.write_mask(om, tb.make_bernoulli_mask((5, 4, 3), 0.4, seed=17))
    # headers alone: a zero dim asks for no payload, but numpy cannot shape these dims
    headers = [np.array(dims, dtype="<u8").tobytes()
               for dims in [(2 ** 40, 2 ** 40, 0), (2 ** 62, 4, 0), (0, 2 ** 28 + 1, 1)]]
    for path, data, reader in [(t3, good[:-3], tio.read_tensor),
                               (t3, good[:20], tio.read_tensor),
                               (t3, huge, tio.read_tensor),
                               (om, om.read_bytes()[:-2], tio.read_mask),
                               (om, om.read_bytes()[:30], tio.read_mask),
                               *[(t3, good[:5] + dims, tio.read_tensor) for dims in headers],
                               *[(om, om.read_bytes()[:4] + dims + om.read_bytes()[28:44],
                                  tio.read_mask) for dims in headers]]:
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormat):
            reader(path)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1.5])
def test_mask_file_rate_outside_unit_interval(tmp_path, p):
    path = tmp_path / "m.om"
    tio.write_mask(path, tb.make_bernoulli_mask((2, 2, 2), 0.5, seed=3))
    data = path.read_bytes()
    path.write_bytes(data[:28] + np.array([p], dtype="<f8").tobytes() + data[36:])
    with pytest.raises(InvalidRate):
        tio.read_mask(path)


def test_mask_file_round_trip(tmp_path):
    mask = tb.make_bernoulli_mask((5, 4, 3), 0.4, seed=17)
    path = tmp_path / "m.om"
    tio.write_mask(path, mask)
    back = tio.read_mask(path)
    assert back.dims == mask.dims
    assert back.p == mask.p and back.seed == mask.seed
    assert np.array_equal(back.observed, mask.observed)
    path2 = tmp_path / "m2.om"
    tio.write_mask(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_mask_file_bad_magic(tmp_path):
    path = tmp_path / "bad.om"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(UnsupportedFormat):
        tio.read_mask(path)


def test_ppm_round_trip(tmp_path):
    pixels = RNG.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    tio.write_image(path, pixels)
    back, color = tio.read_image(path)
    assert color and np.array_equal(back, pixels)


def test_pgm_round_trip_and_comments(tmp_path):
    pixels = RNG.integers(0, 256, size=(4, 7), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n7 4\n255\n")
        fh.write(pixels.tobytes())
    back, color = tio.read_image(path)
    assert not color and np.array_equal(back, pixels)


def test_image_format_errors(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(UnsupportedFormat):
        tio.read_image(path)
    for data in [b"P5\n2 2\n65535\n" + bytes(8),
                 b"P5\n2 x\n255\n" + bytes(4),
                 b"P5\n2 2\n255\n" + bytes(3),
                 b"P6\n%d 1\n255\n" % 2 ** 62 + bytes(6)]:
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormat):
            tio.read_image(path)


def test_image_tensor_layout():
    pixels = np.zeros((2, 4, 3), dtype=np.uint8)
    pixels[1, 2, 0] = 255  # red channel -> lateral slice 0
    t = tio.image_to_tensor(pixels, color=True)
    assert t.shape == (2, 3, 4)
    assert t[1, 0, 2] == 1.0 and t.sum() == 1.0
    back = tio.tensor_to_image(t, color=True)
    assert np.array_equal(back, pixels)
    gray = np.full((3, 5), 128, dtype=np.uint8)
    tg = tio.image_to_tensor(gray, color=False)
    assert tg.shape == (3, 1, 5)
    assert np.array_equal(tio.tensor_to_image(tg, color=False), gray)


def test_tensor_to_image_clamps():
    t = np.array([[[-0.5, 0.5, 1.5]]])
    out = tio.tensor_to_image(t, color=False)
    assert list(out[0]) == [0, 128, 255]


def test_csv_formatting(tmp_path):
    path = tmp_path / "x.csv"
    tio.write_csv(path, ["a", "b", "c"], [{"a": 1, "b": 0.1, "c": float("inf")}])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b,c"
    assert text.splitlines()[1] == "1,0.10000000000000001,inf"


def test_table_and_grid_csv_writers(tmp_path):
    # a recovered row, whose error cell is empty, and a rejected rank-9 row
    rows = tb.run_table1([(4, 2, 1, tb.gaussian_bound(4, 4, 2, 1)), (4, 2, 9, 43)],
                         base_seed=3)
    tio.write_table_csv(tmp_path / "t1.csv", rows, rate_column="m")
    lines = (tmp_path / "t1.csv").read_text().splitlines()
    assert lines == [
        "n,n3,r,m,rank_estimate,rel_error,iterations,converged,error",
        f"4,2,1,43,1,{rows[0]['rel_error']:.17g},{rows[0]['iterations']},1,",
        "4,2,9,43,,,,,InvalidRank: rank 9 outside [1, 4]",
    ]

    grid = tb.phase_grid("gaussian", (4, 4, 2), values=[32], ranks=[1],
                         trials=2, base_seed=5)
    tio.write_grid_csv(tmp_path / "g.csv", grid)
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert lines[0] == ("kind,n1,n2,n3,r,m_or_p,trials,successes,"
                        "success_rate,mean_rel_err,mean_iters")
    cell = grid.cells[0]
    assert lines[1:] == [f"gaussian,4,4,2,1,32,2,2,1,{cell.mean_rel_err:.17g},"
                         f"{cell.mean_iters:.17g}"]


def test_manifest_round_trip(tmp_path):
    manifest = {"subcommand": "gen", "params": {"n1": 3, "seed": 2}, "outputs": ["x0.t3"]}
    path = tmp_path / "manifest.json"
    tio.write_manifest(path, manifest)
    assert tio.read_manifest(path) == manifest
    path2 = tmp_path / "m2.json"
    tio.write_manifest(path2, tio.read_manifest(path))
    assert path.read_bytes() == path2.read_bytes()
