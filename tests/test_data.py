import hashlib
import math
import os
import shutil
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tramkit import Dataset, SyntheticSpec, gen_synthetic, load_csv, save_csv, split_validation
from tramkit.core import _BLOCK_ROWS
from tramkit.data import _HASH_CHUNK, save_mixture_meta, save_twin

from oracles import csv_writer_bytes, mixture_reference


def test_sigma_zero_collapses_to_means():
    # compared as bits: a point of -0.0 where its mean has +0.0 compares
    # equal as floats
    for d, box in [(1, (-1.0, 1.0)), (3, (0.0, 100.0)), (10, (-1.0, 1.0))]:
        spec = SyntheticSpec(n=200, d=d, k_true=4, box=box, sigma2=0.0, seed=1)
        res = gen_synthetic(spec)
        means = {tuple(m) for m in res.means.view(np.int64)}
        for p in res.data.points.view(np.int64):
            assert tuple(p) in means


def test_single_component_law_of_large_numbers():
    n = 100_000
    spec = SyntheticSpec(n=n, d=4, k_true=1, sigma2=2.0, seed=2)
    res = gen_synthetic(spec)
    sigma = np.sqrt(spec.sigma2)
    dev = np.abs(res.data.points.mean(axis=0) - res.means[0])
    assert np.all(dev <= 4.0 * sigma / np.sqrt(n))


def test_dirichlet_weights_are_heavy_tailed():
    hits = 0
    for seed in range(50):
        spec = SyntheticSpec(n=2000, d=2, k_true=100, dirichlet_alpha=1 / 20, seed=seed)
        res = gen_synthetic(spec)
        # occupied components: those that actually produced points
        dists = ((res.data.points[:, None, :] - res.means[None, :, :]) ** 2).sum(-1)
        counts = np.bincount(dists.argmin(1), minlength=100)
        occupied = counts[counts > 0]
        if occupied.max() > 10 * occupied.min():
            hits += 1
    assert hits >= 45  # >= 90% of seeds


def test_weights_sum_to_one_and_determinism():
    spec = SyntheticSpec(n=100, d=2, k_true=5, seed=3)
    a, b = gen_synthetic(spec), gen_synthetic(spec)
    assert a.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(a.data.points, b.data.points)
    c = gen_synthetic(SyntheticSpec(n=100, d=2, k_true=5, seed=4))
    assert not np.array_equal(a.data.points, c.data.points)


@pytest.mark.parametrize("k_true", [1, 7])
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 10_000])
@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("sigma2", [0.0, 5.0])
def test_gen_synthetic_equals_gathered_means_plus_noise(sigma2, d, n, k_true):
    # the means are added into the noise block by block; addition commutes,
    # so every point keeps the bits of means[comp] + noise
    spec = SyntheticSpec(n=n, d=d, k_true=k_true, sigma2=sigma2, seed=n + d)
    res = gen_synthetic(spec)
    pts, means, weights = mixture_reference(spec)
    assert np.array_equal(res.data.points, pts)
    assert np.array_equal(res.means, means)
    assert np.array_equal(res.weights, weights)


def test_gen_synthetic_holds_one_copy_of_the_points():
    spec = SyntheticSpec(n=60_000, d=10, k_true=10, seed=3)
    # numpy's first calls allocate caches of their own
    gen_synthetic(SyntheticSpec(n=10, d=10, k_true=10, seed=3))
    tracemalloc.start()
    try:
        res = gen_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, the memberships and two blocks of gathered means; a
    # gather of every mean next to the noise holds twice the output
    block = _BLOCK_ROWS * spec.d * 8
    assert peak <= res.data.points.nbytes + spec.n * np.dtype(np.intp).itemsize + 2 * block


def test_generated_points_pass_dataset_invariants():
    res = gen_synthetic(SyntheticSpec(n=50, d=7, k_true=3, seed=5))
    assert res.data.n == 50 and res.data.d == 7
    assert np.all(np.isfinite(res.data.points))


def test_load_csv_basic(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0,0\n1,1\n")
    data = load_csv(f)
    assert data.n == 2 and data.d == 2


def test_load_csv_reports_bad_row(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,a\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(f)
    g = tmp_path / "ragged.csv"
    g.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(g)
    h = tmp_path / "nan.csv"
    h.write_text("1,2\nnan,3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(h)


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(ValueError):
        load_csv(f)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(20, 3)) * 1e3)
    f = tmp_path / "round.csv"
    save_csv(data, f)
    back = load_csv(f, has_header=True)
    assert np.array_equal(back.points, data.points)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def write_csv(pts, f, header):
    # save_csv's file, or the same rows without its header
    if header:
        save_csv(Dataset(pts), f)
    else:
        f.write_bytes(csv_writer_bytes(pts, header=False))


def test_save_csv_bytes_match_csv_writer(tmp_path):
    values = [1e-300, 5e-324, -0.0, 1 / 3, 1e16, 1e22, 2.5e-7, -1.5, 0.0, 123456789.125]
    pts = np.array(values).reshape(5, 2)
    f = tmp_path / "special.csv"
    save_csv(Dataset(pts), f)
    assert f.read_bytes() == csv_writer_bytes(pts)
    for header in (True, False):
        write_csv(pts, f, header)
        assert same_bits(load_csv(f, has_header=header).points, pts)


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_save_csv_chunk_boundaries(tmp_path, n):
    pts = np.random.default_rng(n).normal(size=(n, 3)) * 1e3
    f = tmp_path / "rows.csv"
    save_csv(Dataset(pts), f)
    assert f.read_bytes() == csv_writer_bytes(pts)
    for header in (True, False):
        write_csv(pts, f, header)
        back = load_csv(f, has_header=header).points
        assert same_bits(back, pts)
        assert back.flags.c_contiguous


def test_load_csv_default_does_not_read_save_csvs_file(tmp_path):
    f = tmp_path / "headed.csv"
    save_csv(Dataset(np.arange(6.0).reshape(3, 2)), f)
    with pytest.raises(ValueError, match="row 1: non-numeric field"):
        load_csv(f)
    assert load_csv(f, has_header=None).n == 3


def test_csv_round_trip_is_bit_exact(tmp_path):
    # arbitrary finite doubles: subnormals, -0.0 and every exponent
    bits = np.random.default_rng(10).integers(0, 2**64, size=(300, 4), dtype=np.uint64)
    pts = bits.view(np.float64)
    pts[~np.isfinite(pts)] = -0.0
    f = tmp_path / "bits.csv"
    save_csv(Dataset(pts), f)
    assert same_bits(load_csv(f, has_header=True).points, pts)


def test_csv_round_trip_property(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    shapes = st.tuples(st.integers(1, 12), st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    f = tmp_path / "prop.csv"

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, shapes, elements=finite), st.booleans())
    def round_trip(pts, header):
        write_csv(pts, f, header)
        assert same_bits(load_csv(f, has_header=header).points, pts)

    round_trip()


def test_load_csv_hash_line_is_a_non_numeric_field(tmp_path):
    f = tmp_path / "hash.csv"
    f.write_text("1,2\n#3,4\n5,6\n")
    with pytest.raises(ValueError, match=r"row 2: non-numeric field"):
        load_csv(f)


def test_load_csv_row_parser_inputs_load_as_before(tmp_path):
    f = tmp_path / "odd.csv"
    want = np.array([[1.0, 2.0], [10.0, 4.0]])
    # quoted fields, an underscore digit separator, whitespace-only lines
    for text in ('"1","2"\n1_0,4\n', "1,2\n   \n10,4\n", "x,y\n1,2\n\t\n10,4\n \n"):
        f.write_text(text)
        got = load_csv(f, has_header=text.startswith("x")).points
        assert same_bits(got, want)
        assert got.flags.c_contiguous


@pytest.mark.parametrize("has_header", [True, None])
def test_load_csv_header_only_raises_without_warning(tmp_path, has_header):
    f = tmp_path / "header.csv"
    # the last header's quote never closes, so its field takes the file
    for text in ("x0,x1\r\n", "x0,x1\r\n\r\n\r\n", "x0,x1\n  \n", '"x0,x1\n1,2\n'):
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(f, has_header=has_header)


def _load_through_fifo(path, text, has_header):
    # a named pipe cannot seek and can be read only once
    os.mkfifo(path)

    def feed():
        with open(path, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return load_csv(path, has_header=has_header)
    finally:
        writer.join(timeout=10)


def write_twin(csv_bytes, twin, points, digest=np.array):
    # a twin laid out as save_twin lays it out, of any points, that names
    # `csv_bytes` as its CSV
    np.savez(twin, points=points, sha256=digest(hashlib.sha256(csv_bytes).hexdigest()))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("has_header", [True, False, None])
def test_load_csv_reads_a_stream_that_cannot_seek(tmp_path, has_header):
    # None reads files with a header: it must find it on the one pass
    header = has_header is not False
    pts = np.random.default_rng(12).normal(size=(50, 3)) * 1e3
    f = tmp_path / "pts.csv"
    write_csv(pts, f, header)
    # a twin beside the pipe naming the bytes it carries, but other points:
    # hashing the pipe would consume it, so it is never consulted
    text = f.read_text()
    write_twin(text.encode(), tmp_path / "plain.fifo.npz", pts + 1.0)
    got = _load_through_fifo(tmp_path / "plain.fifo", text, has_header)
    assert same_bits(got.points, pts)
    head = "x,y\n" if header else ""
    got = _load_through_fifo(tmp_path / "quoted.fifo", head + '"1","2"\n1_0,4\n', has_header)
    assert same_bits(got.points, np.array([[1.0, 2.0], [10.0, 4.0]]))
    with pytest.raises(ValueError, match=f"row {2 + header}: non-numeric field"):
        _load_through_fifo(tmp_path / "bad.fifo", head + "1,2\n#3,4\n", has_header)


@pytest.mark.parametrize("has_header", [True, None])
def test_load_csv_gives_the_same_bits_with_and_without_the_twin(tmp_path, has_header):
    # arbitrary finite doubles: subnormals, -0.0 and every exponent
    bits = np.random.default_rng(13).integers(0, 2**64, size=(300, 4), dtype=np.uint64)
    pts = bits.view(np.float64)
    pts[~np.isfinite(pts)] = -0.0
    f = tmp_path / "data.csv"
    twin = save_twin(Dataset(pts), f)
    assert twin == f"{f}.npz"
    assert f.read_bytes() == csv_writer_bytes(pts)
    with_twin = load_csv(f, has_header=has_header).points
    os.remove(twin)
    parsed = load_csv(f, has_header=has_header).points
    assert np.array_equal(with_twin.view(np.int64), pts.view(np.int64))
    assert np.array_equal(parsed.view(np.int64), pts.view(np.int64))
    assert with_twin.flags.c_contiguous and not with_twin.flags.writeable
    # a twin is trusted as its CSV is: one naming the CSV's bytes is what loads
    write_twin(f.read_bytes(), twin, -pts[:7])
    assert same_bits(load_csv(f, has_header=has_header).points, -pts[:7])


_CONVERTED_TWINS = {
    "float32": lambda pts: pts.astype(np.float32),
    "fortran": np.asfortranarray,
}


@pytest.mark.parametrize("stored", _CONVERTED_TWINS.values(), ids=_CONVERTED_TWINS)
def test_load_csv_converts_a_twin_to_c_ordered_float64(tmp_path, stored):
    # the twins whose points the loader must convert rather than take as read
    pts = np.random.default_rng(15).normal(size=(300, 4)) * 1e3
    f = tmp_path / "data.csv"
    twin = save_twin(Dataset(pts), f)
    write_twin(f.read_bytes(), twin, stored(pts))
    got = load_csv(f, has_header=True).points
    assert same_bits(got, np.asarray(stored(pts), np.float64, order="C"))
    assert got.dtype == np.float64
    assert got.flags.c_contiguous and not got.flags.writeable


def test_load_csv_holds_one_copy_of_the_twins_points(tmp_path):
    data = gen_synthetic(SyntheticSpec(n=60_000, d=10, k_true=10, seed=3)).data
    f = tmp_path / "data.csv"
    save_twin(data, f)
    assert data.points.nbytes > _HASH_CHUNK
    # numpy's and zipfile's first calls allocate caches of their own
    small = tmp_path / "small.csv"
    save_twin(Dataset(data.points[:5]), small)
    load_csv(small, has_header=True)
    tracemalloc.start()
    try:
        got = load_csv(f, has_header=True).points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the points, a bool finiteness mask and a hash chunk; a validating
    # copy of what np.load returns would hold the points twice
    assert peak < 1.5 * got.nbytes
    assert same_bits(got, data.points)
    assert got.flags.c_contiguous and not got.flags.writeable


def _edit_a_digit(f, twin, pts):
    head, body = f.read_bytes().split(b"\r\n", 1)
    f.write_bytes(head + b"\r\n" + body.replace(b"5", b"6", 1))


def _append_a_row(f, twin, pts):
    with open(f, "ab") as fh:
        fh.write(b"1.5,-2.5,3.5\r\n")


def _write_npy(f, twin, pts):
    with open(twin, "wb") as fh:
        np.save(fh, pts + 1.0)


_SPOILED_TWINS = {
    "digit-edited": _edit_a_digit,
    "row-appended": _append_a_row,
    "empty": lambda f, twin, pts: twin.write_bytes(b""),
    "garbage": lambda f, twin, pts: twin.write_bytes(bytes(range(256)) * 8),
    "truncated": lambda f, twin, pts: twin.write_bytes(twin.read_bytes()[:1000]),
    "nan-points": lambda f, twin, pts: write_twin(
        f.read_bytes(), twin, np.where(pts > 0, np.nan, pts)
    ),
    "no-digest": lambda f, twin, pts: np.savez(twin, points=pts + 1.0),
    # unpickled, this 0-d object array would name the CSV
    "pickled-digest": lambda f, twin, pts: write_twin(
        f.read_bytes(), twin, pts + 1.0, digest=lambda h: np.array(h, dtype=object)
    ),
    "npy-file": _write_npy,
}


@pytest.mark.parametrize("spoil", _SPOILED_TWINS.values(), ids=_SPOILED_TWINS)
def test_load_csv_parses_the_csv_when_its_twin_does_not_match(tmp_path, spoil):
    pts = np.random.default_rng(14).normal(size=(200, 3)) * 1e3
    f = tmp_path / "data.csv"
    twin = Path(save_twin(Dataset(pts), f))
    spoil(f, twin, pts)
    plain = tmp_path / "plain.csv"
    shutil.copyfile(f, plain)
    want = load_csv(plain, has_header=None).points
    assert same_bits(load_csv(f, has_header=None).points, want)
    if spoil in (_edit_a_digit, _append_a_row):
        assert not same_bits(want, pts)


def test_load_csv_without_a_header_never_reads_the_twin(tmp_path):
    f = tmp_path / "data.csv"
    save_twin(Dataset(np.arange(6.0).reshape(3, 2)), f)
    with pytest.raises(ValueError, match="row 1: non-numeric field"):
        load_csv(f, has_header=False)


def test_mixture_meta_sidecar(tmp_path):
    res = gen_synthetic(SyntheticSpec(n=10, d=2, k_true=3, seed=7))
    f = tmp_path / "meta.csv"
    save_mixture_meta(res, f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "weight,mu0,mu1"
    assert len(lines) == 4
    weights = [float(line.split(",")[0]) for line in lines[1:]]
    assert sum(weights) == pytest.approx(1.0, rel=1e-12)


def test_split_sizes_and_disjointness():
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(10, 2)))
    train, val = split_validation(data, 0.2, seed=1)
    assert val.n == 2 and train.n == 8
    combined = np.vstack([train.points, val.points])
    assert np.array_equal(
        np.sort(combined, axis=0), np.sort(data.points, axis=0)
    )


def test_split_determinism():
    rng = np.random.default_rng(9)
    data = Dataset(rng.normal(size=(30, 2)))
    t1, v1 = split_validation(data, 0.3, seed=5)
    t2, v2 = split_validation(data, 0.3, seed=5)
    assert np.array_equal(t1.points, t2.points)
    assert np.array_equal(v1.points, v2.points)


def test_split_empty_part_rejected():
    data = Dataset([[1.0]])
    with pytest.raises(ValueError):
        split_validation(data, 0.5, seed=0)
    small = Dataset([[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError):
        split_validation(small, 0.1, seed=0)  # floor(0.3) = 0 validation points
    for fraction in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\)"):
            split_validation(small, fraction, seed=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0)
    for alpha in (0.0, math.nan):
        with pytest.raises(ValueError, match="dirichlet_alpha must be positive"):
            SyntheticSpec(n=1, dirichlet_alpha=alpha)
    # inf is the equal-weights limit
    weights = gen_synthetic(SyntheticSpec(n=5, d=2, k_true=4, dirichlet_alpha=math.inf)).weights
    assert (weights == 0.25).all()
    with pytest.raises(ValueError):
        SyntheticSpec(n=1, box=(4.0, 4.0))
    with pytest.raises(ValueError, match="sigma2 must be nonnegative"):
        SyntheticSpec(n=1, sigma2=-0.5)
    # gen_synthetic would wrap non-finite points, or numpy would overflow
    for sigma2 in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="sigma2 must be nonnegative and finite"):
            SyntheticSpec(n=1, sigma2=sigma2)
    for box in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite width"):
            SyntheticSpec(n=1, box=box)
