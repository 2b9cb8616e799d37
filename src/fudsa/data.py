"""Preprocessing pipeline and the synthetic phantom generator.

Dataset directory layout:
    <root>/images/<id>.pgm    raw: 16-bit P5, value = HU + 32768
                              processed: 16-bit P5, value = round(v * 65535), v in [0,1]
    <root>/masks/<id>.pgm     8-bit P5, values 0 / 255
    <root>/manifest.txt       one id per line; after splitting, a
                              "# split seed=<n>" trailer with train:/val: sections
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import InvalidArgument, InvalidLabel, ShapeMismatch

HU_OFFSET = 32768
DEFAULT_LO_HU = -1000.0
DEFAULT_HI_HU = 170.0


@dataclass
class SamplePair:
    image: T.Tensor   # (1,1,H,W) in [0,1]
    mask: T.Tensor    # (1,1,H,W) in {0,1}
    identifier: str


@dataclass
class SplitManifest:
    train_ids: list
    val_ids: list
    seed: int


# ---------------------------------------------------------------------------
# PGM

def write_pgm(path, array, maxval):
    a = np.asarray(array)
    if a.ndim != 2:
        raise InvalidArgument(f"PGM stores 2-D images, got shape {a.shape}")
    if maxval not in (255, 65535):
        raise InvalidArgument(f"maxval must be 255 or 65535, got {maxval}")
    if a.min() < 0 or a.max() > maxval:
        raise InvalidArgument("pixel values outside [0, maxval]")
    dtype = ">u2" if maxval == 65535 else "u1"
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n{maxval}\n".encode()
    Path(path).write_bytes(header + a.astype(dtype).tobytes())


def read_pgm(path):
    """Returns (array uint16/uint8 of shape (H, W), maxval)."""
    blob = Path(path).read_bytes()
    if blob[:2] != b"P5" or not blob[2:3].isspace():
        raise InvalidArgument(f"{path}: not a binary PGM (P5)")
    # header: magic, width, height, maxval; '#' comments allowed
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            if end < 0:
                raise InvalidArgument(f"{path}: unterminated comment in PGM header")
            pos = end + 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token:
            raise InvalidArgument(f"{path}: truncated PGM header")
        if not token.isdigit():
            raise InvalidArgument(f"{path}: PGM header field {token!r} is not an integer")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if not 0 < maxval < 65536:
        raise InvalidArgument(f"{path}: PGM maxval {maxval} outside 1..65535")
    if not w or not h:
        raise InvalidArgument(f"{path}: PGM extents {w}x{h} hold no pixel")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    if len(blob) - pos < w * h * dtype.itemsize:
        raise InvalidArgument(f"{path}: truncated PGM payload")
    a = np.frombuffer(blob, dtype, count=w * h, offset=pos).reshape(h, w)  # no copy of the payload
    if a.max() > maxval:
        raise InvalidArgument(f"{path}: PGM sample {a.max()} above maxval {maxval}")
    return a.astype(np.uint16 if maxval > 255 else np.uint8), maxval


def write_raw_slice(path, hu):
    write_pgm(path, hu.astype(np.int32) + HU_OFFSET, 65535)


def read_raw_slice(path):
    """A raw slice as an int16 (H, W) array of Hounsfield units."""
    a, maxval = read_pgm(path)
    if maxval != 65535:
        raise InvalidArgument(f"{path}: raw slices are 16-bit PGM")
    return (a.astype(np.int32) - HU_OFFSET).astype(np.int16)


def write_mask(path, mask):
    m = mask.data[0, 0] if isinstance(mask, T.Tensor) else np.asarray(mask)
    if not np.all((m == 0) | (m == 1)):
        raise InvalidLabel("mask must be binary")
    write_pgm(path, (m * 255).astype(np.uint8), 255)


def read_mask(path):
    a, _ = read_pgm(path)
    vals = np.unique(a)
    if not set(vals.tolist()) <= {0, 255}:
        raise InvalidLabel(f"{path}: mask values must be 0 or 255")
    return (a > 0).astype(np.float32)


def write_image01(path, image):
    a = image.data[0, 0] if isinstance(image, T.Tensor) else np.asarray(image)
    write_pgm(path, np.rint(np.clip(a, 0.0, 1.0) * 65535).astype(np.uint16), 65535)


def read_image01(path):
    a, maxval = read_pgm(path)
    return a.astype(np.float32) / maxval


# ---------------------------------------------------------------------------
# preprocessing

def window_and_normalize(hu, lo_hu=DEFAULT_LO_HU, hi_hu=DEFAULT_HI_HU) -> T.Tensor:
    """Clip an array of HU values to [lo, hi] and map it linearly onto [0, 1]."""
    if not -np.inf < lo_hu < hi_hu < np.inf:  # false for NaN too
        raise InvalidArgument(f"need finite lo_hu < hi_hu, got [{lo_hu}, {hi_hu}]")
    v = np.clip(hu.astype(np.float32), lo_hu, hi_hu)
    return T.from_array((v - lo_hu) / (hi_hu - lo_hu))


def _resize_bilinear(a, out_h, out_w):
    mh = T._interp_matrix(out_h, a.shape[0], np.float64)
    mw = T._interp_matrix(out_w, a.shape[1], np.float64)
    return (mh @ a.astype(np.float64) @ mw.T).astype(a.dtype)


def _resize_nearest(a, out_h, out_w):
    ih = np.clip(((np.arange(out_h) + 0.5) * a.shape[0] / out_h).astype(int), 0, a.shape[0] - 1)
    iw = np.clip(((np.arange(out_w) + 0.5) * a.shape[1] / out_w).astype(int), 0, a.shape[1] - 1)
    return a[np.ix_(ih, iw)]


def resize_pair(pair: SamplePair, target: int) -> SamplePair:
    """Bilinear for the image, nearest (re-binarized) for the mask."""
    if target < 8:
        raise InvalidArgument(f"target extent must be >= 8, got {target}")
    h, w = pair.image.shape[2:]
    if (h, w) == (target, target):
        return pair
    img = _resize_bilinear(pair.image.data[0, 0], target, target)
    msk = _resize_nearest(pair.mask.data[0, 0], target, target)
    msk = (msk > 0.5).astype(msk.dtype)
    return SamplePair(T.from_array(img), T.from_array(msk), pair.identifier)


def filter_lesion_slices(pairs):
    """Keep only pairs whose mask has at least one positive pixel."""
    return [p for p in pairs if p.mask.data.sum() > 0]


def split_dataset(ids, seed) -> SplitManifest:
    ids = list(ids)
    if len(ids) < 2:
        raise InvalidArgument("need at least 2 ids to split")
    order = list(ids)
    np.random.default_rng(seed).shuffle(order)
    n_train = -(-len(order) * 8 // 10)  # ceil(0.8 n)
    return SplitManifest(order[:n_train], order[n_train:], seed)


# ---------------------------------------------------------------------------
# manifest

def write_manifest(path, ids, split: SplitManifest | None = None):
    lines = list(ids)
    if split is not None:
        lines.append(f"# split seed={split.seed}")
        lines.append("train:")
        lines.extend(split.train_ids)
        lines.append("val:")
        lines.extend(split.val_ids)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_utf8(path):
    """A text file's contents less a leading byte-order mark; bytes that are not UTF-8
    are an InvalidArgument naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return text.removeprefix("\ufeff")  # not utf-8-sig: its error offsets skip the mark


def read_manifest(path):
    """Returns (ids, split-or-None).  An id names files under the dataset's
    directories, so it cannot hold '/' or NUL, or be '.' or '..'."""
    ids, split, section, bit = [], None, None, 1
    held = {}  # id -> the lists that hold it, as bits: 1 the ids, 2 train:, 4 val:
    for line in read_utf8(path).splitlines():
        line = line.strip()
        if not line:
            continue
        m = re.fullmatch(r"#\s*split\s+seed=(-?\d+)", line)
        if m:
            if split is not None:  # a second one once dropped the sections above it
                raise InvalidArgument(f"{path}: a split line is listed twice, at {line!r}")
            split = SplitManifest([], [], int(m.group(1)))
            continue
        if line.startswith("#"):
            continue
        if line in ("train:", "val:"):
            if split is None:
                raise InvalidArgument(f"{path}: {line!r} comes before the '# split seed=' line")
            section, bit = (split.train_ids, 2) if line == "train:" else (split.val_ids, 4)
            continue
        if "/" in line or "\0" in line or line in (".", ".."):
            raise InvalidArgument(f"{path}: id {line!r} is not a plain file name")
        if held.get(line, 0) & bit:  # an id may appear once per list
            raise InvalidArgument(f"{path}: id {line!r} is listed twice")
        held[line] = held.get(line, 0) | bit
        (ids if section is None else section).append(line)
    if split is not None:
        both = sorted(i for i, bits in held.items() if bits & 6 == 6)
        if both:
            raise InvalidArgument(f"{path}: ids under both train: and val: {both}")
        unknown = sorted(i for i, bits in held.items() if bits & 6 and not bits & 1)
        if unknown:
            raise InvalidArgument(f"{path}: split ids not listed above the split {unknown}")
    return ids, split


def load_pairs(root, ids):
    root = Path(root)
    pairs = []
    for ident in ids:
        img = read_image01(root / "images" / f"{ident}.pgm")
        msk = read_mask(root / "masks" / f"{ident}.pgm")
        if img.shape != msk.shape:
            raise ShapeMismatch(f"{ident}: image {img.shape} vs mask {msk.shape}")
        if pairs and img.shape != pairs[0].image.shape[2:]:  # batches stack a split's images
            raise ShapeMismatch(f"{ident}: image {img.shape} vs {pairs[0].identifier}'s "
                                f"{pairs[0].image.shape[2:]}; a split holds one extent")
        pairs.append(SamplePair(T.from_array(img), T.from_array(msk), ident))
    return pairs


# ---------------------------------------------------------------------------
# synthetic phantoms

_WINDOW_WIDTH = DEFAULT_HI_HU - DEFAULT_LO_HU


def _gauss_blur(a, sigma):
    r = max(1, int(3 * sigma))
    k = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma) ** 2)
    k /= k.sum()
    pad = np.pad(a, ((r, r), (0, 0)), mode="edge")
    a = np.einsum("k,kij->ij", k, np.stack([pad[i:i + a.shape[0]] for i in range(2 * r + 1)]))
    pad = np.pad(a, ((0, 0), (r, r)), mode="edge")
    return np.einsum("k,kij->ij", k, np.stack(
        [pad[:, i:i + a.shape[1]] for i in range(2 * r + 1)]))


def _ellipse_mask(size, cy, cx, a, b, theta):
    yy, xx = np.mgrid[0:size, 0:size]
    dy, dx = yy - cy, xx - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def synth_phantom_fields(seed, size, n_lesions_range=(1, 3), contrast_range=(0.15, 0.45)):
    """HU image, binary mask and per-lesion parameters for one phantom."""
    lo, hi = n_lesions_range
    if not (0 <= lo <= hi):
        raise InvalidArgument(f"bad n_lesions_range {n_lesions_range}")
    clo, chi = contrast_range
    if not (0 < clo < chi <= 1):
        raise InvalidArgument(f"bad contrast_range {contrast_range}")
    rng = np.random.default_rng(seed)

    hu = np.full((size, size), 40.0)  # soft-tissue background
    cy = size / 2 + rng.uniform(-0.03, 0.03) * size
    cx = size / 2 + rng.uniform(-0.03, 0.03) * size
    la = rng.uniform(0.34, 0.42) * size
    lb = rng.uniform(0.26, 0.34) * size
    lung = _ellipse_mask(size, cy, cx, lb, la, 0.0)
    hu[lung] = -850.0
    hu += rng.normal(0.0, 25.0, (size, size))

    mask = np.zeros((size, size), dtype=bool)
    lesions = []
    n = int(rng.integers(lo, hi + 1))
    bump = np.zeros((size, size))
    for _ in range(n):
        for _attempt in range(100):
            ly = rng.uniform(cy - 0.7 * lb, cy + 0.7 * lb)
            lx = rng.uniform(cx - 0.7 * la, cx + 0.7 * la)
            if lung[int(ly), int(lx)]:
                break
        a = rng.uniform(0.05, 0.12) * size
        b = a * rng.uniform(0.6, 1.0)
        theta = rng.uniform(0.0, np.pi)
        offset = rng.uniform(clo, chi) * _WINDOW_WIDTH
        support = _ellipse_mask(size, ly, lx, a, b, theta)
        bump += offset * support
        mask |= support
        lesions.append({"cy": ly, "cx": lx, "a": a, "b": b,
                        "theta": theta, "offset_hu": offset})
    # blur only the lesion bump; the mask keeps the sharp pre-blur support
    hu += _gauss_blur(bump, sigma=max(1.0, size / 64))
    hu = np.clip(hu, -32768, 32767)
    return hu.astype(np.int16), mask.astype(np.float32), lesions


def synth_phantom(seed, size, n_lesions_range=(1, 3), contrast_range=(0.15, 0.45)) -> SamplePair:
    hu, mask, _ = synth_phantom_fields(seed, size, n_lesions_range, contrast_range)
    img = window_and_normalize(hu)
    return SamplePair(img, T.from_array(mask), f"phantom{seed:06d}")
