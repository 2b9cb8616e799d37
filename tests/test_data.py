import math
import string
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fudsa import data as D
from fudsa import tensor as T
from fudsa.errors import FudsaError, InvalidArgument, InvalidLabel

from conftest import traced_peak


# ---------------------------------------------------------------------------
# HU windowing

def test_window_endpoints():
    raw = np.array([[-1000, 170], [-2000, 3000]], dtype=np.int16)
    v = D.window_and_normalize(raw).data[0, 0]
    assert v[0, 0] == 0.0
    assert v[0, 1] == 1.0
    # out-of-window values clip to the endpoints
    assert v[1, 0] == 0.0
    assert v[1, 1] == 1.0


def test_window_midpoint():
    # midpoint of [-1000, 170] is -415 and must land exactly on 0.5
    raw = np.array([[-415]], dtype=np.int16)
    assert abs(D.window_and_normalize(raw).data[0, 0, 0, 0] - 0.5) < 1e-7


def test_window_is_linear():
    hu = np.arange(-1000, 171, dtype=np.int16).reshape(1, -1)
    v = D.window_and_normalize(hu).data[0, 0, 0]
    np.testing.assert_allclose(v, (hu[0] + 1000.0) / 1170.0, atol=1e-6)


def test_window_rejects_inverted_bounds():
    raw = np.zeros((2, 2), dtype=np.int16)
    with pytest.raises(InvalidArgument):
        D.window_and_normalize(raw, lo_hu=170, hi_hu=-1000)


@pytest.mark.parametrize("lo, hi", [(np.nan, 170.0), (-1000.0, np.nan), (-np.inf, 170.0),
                                    (-1000.0, np.inf), (np.nan, np.nan)])
def test_window_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(InvalidArgument, match="finite"):
        D.window_and_normalize(np.zeros((2, 2), dtype=np.int16), lo_hu=lo, hi_hu=hi)


# ---------------------------------------------------------------------------
# resizing

def _pair(img, msk):
    return D.SamplePair(T.from_array(img.astype(np.float32)),
                        T.from_array(msk.astype(np.float32)), "p")


def test_resize_identity_passthrough():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (16, 16))
    msk = (rng.uniform(0, 1, (16, 16)) > 0.5).astype(float)
    p = D.resize_pair(_pair(img, msk), 16)
    np.testing.assert_array_equal(p.image.data[0, 0], img.astype(np.float32))


def test_resize_constant_image_stays_constant():
    p = D.resize_pair(_pair(np.full((16, 16), 0.3), np.zeros((16, 16))), 32)
    np.testing.assert_allclose(p.image.data, 0.3, atol=1e-6)
    assert p.image.shape == (1, 1, 32, 32)


def test_resize_mask_stays_binary():
    rng = np.random.default_rng(1)
    msk = (rng.uniform(0, 1, (20, 20)) > 0.5).astype(float)
    p = D.resize_pair(_pair(rng.uniform(0, 1, (20, 20)), msk), 32)
    assert set(np.unique(p.mask.data)) <= {0.0, 1.0}


def test_resize_mask_downscale_checkerboard():
    # exact 2x downscale of a checkerboard picks one source pixel per cell,
    # never an interpolated grey
    msk = np.indices((16, 16)).sum(0) % 2
    p = D.resize_pair(_pair(np.zeros((16, 16)), msk.astype(float)), 8)
    assert set(np.unique(p.mask.data)) <= {0.0, 1.0}
    assert p.mask.shape == (1, 1, 8, 8)


def test_resize_rejects_tiny_target():
    with pytest.raises(InvalidArgument):
        D.resize_pair(_pair(np.zeros((16, 16)), np.zeros((16, 16))), 4)


# ---------------------------------------------------------------------------
# filtering and splitting

def test_filter_lesion_slices():
    rng = np.random.default_rng(2)
    empty = _pair(rng.uniform(0, 1, (8, 8)), np.zeros((8, 8)))
    msk = np.zeros((8, 8))
    msk[3, 3] = 1.0
    kept = _pair(rng.uniform(0, 1, (8, 8)), msk)
    out = D.filter_lesion_slices([empty, kept, empty])
    assert len(out) == 1 and out[0] is kept


def test_split_partition_sizes():
    for n in range(2, 51):
        ids = [f"s{i}" for i in range(n)]
        sp = D.split_dataset(ids, seed=7)
        assert len(sp.train_ids) == math.ceil(0.8 * n)
        assert len(sp.train_ids) + len(sp.val_ids) == n
        assert sorted(sp.train_ids + sp.val_ids) == sorted(ids)
        assert not set(sp.train_ids) & set(sp.val_ids)


def test_split_deterministic_and_seed_sensitive():
    ids = [f"s{i}" for i in range(20)]
    a = D.split_dataset(ids, seed=3)
    b = D.split_dataset(ids, seed=3)
    c = D.split_dataset(ids, seed=4)
    assert a.train_ids == b.train_ids and a.val_ids == b.val_ids
    assert a.train_ids != c.train_ids


def test_split_rejects_single_id():
    with pytest.raises(InvalidArgument):
        D.split_dataset(["only"], seed=0)


def test_manifest_roundtrip(tmp_path):
    ids = [f"id{i:03d}" for i in range(7)]
    sp = D.split_dataset(ids, seed=11)
    path = tmp_path / "manifest.txt"
    D.write_manifest(path, ids, sp)
    got_ids, got_sp = D.read_manifest(path)
    assert got_ids == ids
    assert got_sp.seed == 11
    assert got_sp.train_ids == sp.train_ids
    assert got_sp.val_ids == sp.val_ids


@pytest.mark.parametrize("train,val", [(["a", "b"], ["b", "c"]),   # b in both
                                       (["a", "b"], ["z"])])        # z not listed
def test_manifest_rejects_leaking_split(tmp_path, train, val):
    path = tmp_path / "manifest.txt"
    D.write_manifest(path, ["a", "b", "c"], D.SplitManifest(train, val, 0))
    with pytest.raises(InvalidArgument, match="under both|not listed"):
        D.read_manifest(path)


@pytest.mark.parametrize("text", ["a\nb\na\n",
                                  "a\nb\n# split seed=0\ntrain:\na\na\nval:\nb\n",
                                  # a second split line once started a new split: these
                                  # read as train [], val [c], and as two empty lists
                                  "a\nb\nc\n# split seed=1\ntrain:\na\nb\n"
                                  "# split seed=2\nval:\nc\n",
                                  "a\nb\nc\n# split seed=1\ntrain:\na\nb\nval:\nc\n"
                                  "# split seed=1\n"])
def test_manifest_rejects_an_id_listed_twice(tmp_path, text):
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    with pytest.raises(InvalidArgument,
                       match="manifest.txt: (id 'a'|a split line) is listed twice"):
        D.read_manifest(path)


@pytest.mark.parametrize("line", ["../x", "a/b", "/abs", ".", "..", "a\0b"])
def test_manifest_rejects_an_id_that_is_not_a_file_name(tmp_path, line):
    # an id names <root>/images/<id>.pgm: "../x" once read and wrote outside the dataset
    path = tmp_path / "manifest.txt"
    path.write_text("a\n" + line + "\n")
    with pytest.raises(InvalidArgument, match="is not a plain file name"):
        D.read_manifest(path)


def test_manifest_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"a\n\xff\xfe\n")
    with pytest.raises(InvalidArgument, match="manifest.txt: not UTF-8 text"):
        D.read_manifest(path)


def test_manifest_starting_with_a_byte_order_mark_reads_plain_ids(tmp_path):
    # the mark once read as part of the first id, '\ufeffa'
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"\xef\xbb\xbfa\nb\n")
    assert D.read_manifest(path) == (["a", "b"], None)


MANIFEST_PIECES = [b"a", b"b", b"/", b".", b"..", b"\x00", b"#", b" ", b"train:", b"val:",
                   b"# split seed=3", b"\xff", b"\xc3", b"\xc3\xa9"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(MANIFEST_PIECES), max_size=4).map(b"".join),
                max_size=8))
def test_manifest_lines_parse_to_plain_ids_or_raise(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.txt"
        path.write_bytes(b"\n".join(lines))
        try:
            ids, split = D.read_manifest(path)
        except FudsaError:
            return
    for ident in ids + (split.train_ids + split.val_ids if split else []):
        assert ident and ident == ident.strip() and not ident.startswith("#")
        assert ident not in (".", "..", "train:", "val:")
        assert "/" not in ident and "\0" not in ident


def fixed_width_id(i, width):
    """Id ``i`` as base-62 digits, left-padded with '0' to ``width`` characters."""
    digits = string.digits + string.ascii_letters
    out = ""
    while True:
        i, d = divmod(i, 62)
        out = digits[d] + out
        if not i:
            return out.rjust(width, "0")


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(1, 4000), st.booleans())
@example(1, 62, True)
@example(2, 2816, False)  # the largest multiple of the file size measured
@example(2, 3000, True)  # 85x when each (list, id) pair was a tuple in one set
@example(200, 3000, True)
def test_manifest_read_peaks_within_a_multiple_of_the_file(width, count, with_split):
    ids = [fixed_width_id(i, width) for i in range(min(count, 62 ** width))]
    cut = len(ids) * 4 // 5
    split = D.SplitManifest(ids[:cut], ids[cut:], 3) if with_split else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.txt"
        D.write_manifest(path, ids, split)
        size = path.stat().st_size
        peak = traced_peak(lambda: D.read_manifest(path))
    assert peak <= 40 * size + 64 * 1024, (peak, size)


def test_manifest_without_split(tmp_path):
    path = tmp_path / "manifest.txt"
    D.write_manifest(path, ["a", "b"])
    ids, sp = D.read_manifest(path)
    assert ids == ["a", "b"] and sp is None


# ---------------------------------------------------------------------------
# PGM I/O

def test_pgm_roundtrip_8bit(tmp_path):
    a = np.random.default_rng(0).integers(0, 256, (9, 13)).astype(np.uint8)
    D.write_pgm(tmp_path / "x.pgm", a, 255)
    got, maxval = D.read_pgm(tmp_path / "x.pgm")
    assert maxval == 255
    np.testing.assert_array_equal(got, a)


def test_pgm_roundtrip_16bit(tmp_path):
    a = np.random.default_rng(1).integers(0, 65536, (5, 7)).astype(np.uint16)
    D.write_pgm(tmp_path / "x.pgm", a, 65535)
    got, maxval = D.read_pgm(tmp_path / "x.pgm")
    assert maxval == 65535
    np.testing.assert_array_equal(got, a)


def test_pgm_16bit_payload_is_big_endian(tmp_path):
    D.write_pgm(tmp_path / "x.pgm", np.array([[0x0102]], dtype=np.uint16), 65535)
    blob = (tmp_path / "x.pgm").read_bytes()
    assert blob.endswith(b"\x01\x02")


def test_pgm_reader_skips_comments(tmp_path):
    payload = bytes([10, 20, 30, 40])
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
    got, maxval = D.read_pgm(tmp_path / "c.pgm")
    np.testing.assert_array_equal(got, np.array([[10, 20], [30, 40]]))


def test_pgm_rejects_truncation_and_bad_magic(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P6\n2 2\n255\n0000")
    with pytest.raises(InvalidArgument):
        D.read_pgm(tmp_path / "bad.pgm")
    (tmp_path / "short.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(InvalidArgument):
        D.read_pgm(tmp_path / "short.pgm")


@pytest.mark.parametrize("blob", [
    b"P5\nab 4\n255\n",         # non-integer field
    b"P5 #x",                    # comment without a newline
    b"P5",                       # empty header
    b"P52 2\n255\n\x00\x00\x00\x00",  # no whitespace after the magic
    b"P5\n2 2\n0\n\x00\x00\x00\x00",  # maxval out of range
    b"P5\n0 2\n255\n",           # no pixel: write_pgm cannot write it back
])
def test_pgm_rejects_malformed_header(tmp_path, blob):
    (tmp_path / "h.pgm").write_bytes(blob)
    with pytest.raises(InvalidArgument):
        D.read_pgm(tmp_path / "h.pgm")


@pytest.mark.parametrize("blob", [
    b"P5 2 1 100\n\x00\xff",       # an 8-bit sample above a maxval below 255
    b"P5 1 1 1\n\xff",              # a mask with maxval 1 holding 255
    b"P5 1 1 1000\n\x03\xe9",       # a 16-bit sample of 1001
])
def test_pgm_rejects_samples_above_maxval(tmp_path, blob):
    # read_image01 once scaled such samples to values above 1
    (tmp_path / "x.pgm").write_bytes(blob)
    with pytest.raises(InvalidArgument, match="above maxval"):
        D.read_image01(tmp_path / "x.pgm")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pgm_damaged_bytes_read_back_or_raise(data):
    maxval = data.draw(st.sampled_from([255, 65535]))
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    a = np.random.default_rng(data.draw(st.integers(0, 99))).integers(0, maxval + 1, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        D.write_pgm(path, a, maxval)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans()):
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        else:
            for _ in range(data.draw(st.integers(1, 3))):
                blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(
                    st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789 \n#")))
        path.write_bytes(blob)
        try:
            got, got_max = D.read_pgm(path)
        except FudsaError:
            return
        assert 0 < got_max < 65536 and got.max() <= got_max
        if got_max in (255, 65535):  # the maxvals write_pgm takes
            D.write_pgm(path, got, got_max)
            again, again_max = D.read_pgm(path)
            assert again_max == got_max and np.array_equal(again, got)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 600), st.integers(1, 600), st.sampled_from([255, 65535]))
@example(512, 512, 255)
@example(512, 512, 65535)
def test_pgm_read_peaks_below_two_copies_of_the_file(h, w, maxval):
    # the file's bytes and the returned array: the payload is not copied out first
    a = np.random.default_rng(h * w).integers(0, maxval + 1, (h, w))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        D.write_pgm(path, a, maxval)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            got, got_max = D.read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * size + 8192, (peak, size)  # the constant: file object and header bytes
    assert got_max == maxval and np.array_equal(got, a)


def test_raw_slice_roundtrip_preserves_negative_hu(tmp_path):
    hu = np.array([[-1000, 0], [170, -32768]], dtype=np.int16)
    D.write_raw_slice(tmp_path / "r.pgm", hu)
    got = D.read_raw_slice(tmp_path / "r.pgm")
    np.testing.assert_array_equal(got, hu)
    assert got.dtype == np.int16


def test_mask_roundtrip(tmp_path):
    m = (np.random.default_rng(2).uniform(0, 1, (8, 8)) > 0.5).astype(np.float32)
    D.write_mask(tmp_path / "m.pgm", m)
    got = D.read_mask(tmp_path / "m.pgm")
    np.testing.assert_array_equal(got, m)


def test_mask_rejects_grey_values(tmp_path):
    with pytest.raises(InvalidLabel):
        D.write_mask(tmp_path / "m.pgm", np.array([[0.5]]))
    D.write_pgm(tmp_path / "g.pgm", np.array([[128]], dtype=np.uint8), 255)
    with pytest.raises(InvalidLabel):
        D.read_mask(tmp_path / "g.pgm")


def test_image01_quantized_roundtrip(tmp_path):
    a = np.random.default_rng(3).uniform(0, 1, (8, 8)).astype(np.float32)
    D.write_image01(tmp_path / "i.pgm", a)
    got = D.read_image01(tmp_path / "i.pgm")
    # one 16-bit quantization step of tolerance
    np.testing.assert_allclose(got, a, atol=1.0 / 65535 + 1e-7)


# ---------------------------------------------------------------------------
# synthetic phantoms

def test_phantom_deterministic():
    a_hu, a_mask, a_les = D.synth_phantom_fields(5, 64)
    b_hu, b_mask, b_les = D.synth_phantom_fields(5, 64)
    np.testing.assert_array_equal(a_hu, b_hu)
    np.testing.assert_array_equal(a_mask, b_mask)
    assert a_les == b_les


def test_phantom_seed_sensitivity():
    a_hu, _, _ = D.synth_phantom_fields(5, 64)
    b_hu, _, _ = D.synth_phantom_fields(6, 64)
    assert not np.array_equal(a_hu, b_hu)


def test_phantom_lesion_count_and_mask_area():
    for seed in range(20):
        _, mask, lesions = D.synth_phantom_fields(seed, 64)
        assert 1 <= len(lesions) <= 3
        # the mask is the union of the ellipse supports, so its area is at
        # most the sum of the individual areas and at least the largest one
        areas = [np.pi * l["a"] * l["b"] for l in lesions]
        got = mask.sum()
        assert got <= sum(areas) * 1.10
        assert got >= max(areas) * 0.80


def test_phantom_single_lesion_area_matches_ellipse():
    for seed in range(10):
        _, mask, lesions = D.synth_phantom_fields(seed, 128, n_lesions_range=(1, 1))
        expected = np.pi * lesions[0]["a"] * lesions[0]["b"]
        assert abs(mask.sum() - expected) <= 0.10 * expected


def test_phantom_lung_region_is_dark():
    hu, _, _ = D.synth_phantom_fields(0, 64)
    c = 32
    # center belongs to the lung ellipse: far below soft tissue even with noise
    assert hu[c - 2:c + 2, c - 2:c + 2].mean() < -400


def test_phantom_lesions_sit_inside_lung():
    for seed in range(10):
        hu, mask, _ = D.synth_phantom_fields(seed, 64)
        ys, xs = np.nonzero(mask)
        # lesion centroids stay away from the frame edge
        assert 8 < ys.mean() < 56 and 8 < xs.mean() < 56


def test_phantom_pair_wrapper():
    p = D.synth_phantom(9, 32)
    assert p.image.shape == (1, 1, 32, 32)
    assert p.mask.shape == (1, 1, 32, 32)
    assert p.identifier == "phantom000009"
    assert p.image.data.min() >= 0.0 and p.image.data.max() <= 1.0
    assert set(np.unique(p.mask.data)) <= {0.0, 1.0}


def test_phantom_rejects_bad_ranges():
    with pytest.raises(InvalidArgument):
        D.synth_phantom_fields(0, 32, n_lesions_range=(3, 1))
    with pytest.raises(InvalidArgument):
        D.synth_phantom_fields(0, 32, contrast_range=(0.5, 0.2))


def test_load_pairs_roundtrip(tmp_path):
    (tmp_path / "images").mkdir()
    (tmp_path / "masks").mkdir()
    pairs = [D.synth_phantom(s, 32) for s in range(3)]
    for p in pairs:
        D.write_image01(tmp_path / "images" / f"{p.identifier}.pgm", p.image)
        D.write_mask(tmp_path / "masks" / f"{p.identifier}.pgm", p.mask)
    got = D.load_pairs(tmp_path, [p.identifier for p in pairs])
    for orig, back in zip(pairs, got):
        assert back.identifier == orig.identifier
        np.testing.assert_array_equal(back.mask.data, orig.mask.data)
        np.testing.assert_allclose(back.image.data, orig.image.data,
                                   atol=1.0 / 65535 + 1e-7)
