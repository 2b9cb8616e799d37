import io
import struct
import tracemalloc

import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.errors import InvalidArgument
from fudsa.layers import initialise
from fudsa.training import central_differences


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def uniform(shape, lo, hi, seed, dtype=np.float32, requires_grad=False):
    """A seeded tensor of values drawn uniformly from [lo, hi)."""
    if not lo < hi:
        raise InvalidArgument(f"uniform needs lo < hi, got [{lo}, {hi})")
    data = np.random.default_rng(seed).uniform(lo, hi, shape).astype(dtype)
    return T.Tensor(data, requires_grad=requires_grad)


def build(module, seed=0, dtype=np.float32):
    """``module`` initialised as ``FudsaNet`` initialises itself, from ``seed``."""
    initialise(module, np.random.default_rng(seed), dtype)
    return module


def traced_peak(fn):
    """tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fud1_records(blob):
    """(record start, FTEN start, record end) of every record in a FUD1 blob."""
    (count,) = struct.unpack_from("<I", blob, 4)
    pos, spans = 8, []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        ften = pos + 2 + nlen
        code, rank = blob[ften + 5], blob[ften + 6]
        shape = struct.unpack_from(f"<{rank}Q", blob, ften + 12)
        spans.append((pos, ften, ften + 12 + 8 * rank + int(np.prod(shape)) * (4, 8)[code]))
        pos = spans[-1][2]
    assert pos == len(blob)
    return spans


def replace_record(blob, name, array):
    """FUD1 blob with entry ``name``'s record holding ``array`` instead, written as it
    stands: the way to a file that ``save_checkpoint`` refuses to write."""
    start, _, end = next(r for r in fud1_records(blob) if blob[r[0] + 2:r[1]] == name.encode())
    ften = io.BytesIO()
    T.write_ften(ften, array)
    head = struct.pack("<H", len(name)) + name.encode()
    return blob[:start] + head + ften.getvalue() + blob[end:]


def repeat_record(blob, name):
    """FUD1 blob with a copy of entry ``name``'s record appended and the count raised."""
    spans = fud1_records(blob)
    start, _, end = next(r for r in spans if blob[r[0] + 2:r[1]] == name.encode())
    return blob[:4] + struct.pack("<I", len(spans) + 1) + blob[8:] + blob[start:end]


def check_grads(make_loss, tensors, h=1e-6, tol=1e-6, n=20, seed=0):
    """Assert analytic grads of a scalar loss match central differences.

    ``make_loss`` builds the graph and returns the loss tensor; tensors is the
    list of (f64) leaf tensors to check.
    """
    with T.Tape() as tape:
        loss = make_loss()
        T.backward(loss, tape)
    rng = np.random.default_rng(seed)
    for t in tensors:
        assert t.grad is not None, "no gradient reached a checked tensor"
        coords = rng.choice(t.data.size, size=min(n, t.data.size), replace=False)
        numeric = np.array(central_differences(lambda: make_loss().item(), t, coords, h))
        analytic = t.grad.reshape(-1)[coords]
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert err.max() < tol, f"gradient mismatch: max rel err {err.max():.3e}"
    for t in tensors:
        t.grad = None


@pytest.fixture
def sigmoid_doubled_grad(monkeypatch):
    """Swap in a sigmoid with the right value and twice the right gradient."""
    real = T.sigmoid

    def sigmoid(x):
        y = real(x)
        return T.add(y, T.sub(y, T.Tensor(y.data)))  # y + (y - y) is y, bit for bit

    monkeypatch.setattr(T, "sigmoid", sigmoid)
