import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.errors import InvalidArgument


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def uniform(shape, lo, hi, seed, dtype=np.float32, requires_grad=False):
    """A seeded tensor of values drawn uniformly from [lo, hi)."""
    if not lo < hi:
        raise InvalidArgument(f"uniform needs lo < hi, got [{lo}, {hi})")
    data = np.random.default_rng(seed).uniform(lo, hi, shape).astype(dtype)
    return T.Tensor(data, requires_grad=requires_grad)


def finite_diff(f, tensor, coords, h):
    """Central differences of scalar f() wrt selected flat coords of tensor."""
    flat = tensor.data.reshape(-1)
    out = []
    for c in coords:
        keep = flat[c]
        flat[c] = keep + h
        fp = f()
        flat[c] = keep - h
        fm = f()
        flat[c] = keep
        out.append((fp - fm) / (2 * h))
    return np.array(out)


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
        numeric = finite_diff(lambda: make_loss().item(), t, coords, h)
        analytic = t.grad.reshape(-1)[coords]
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert err.max() < tol, f"gradient mismatch: max rel err {err.max():.3e}"
    for t in tensors:
        t.zero_grad()


@pytest.fixture
def sigmoid_doubled_grad(monkeypatch):
    """Swap in a sigmoid with the right value and twice the right gradient."""
    real = T.sigmoid

    def sigmoid(x):
        y = real(x)
        return T.add(y, T.sub(y, T.Tensor(y.data)))  # y + (y - y) is y, bit for bit

    monkeypatch.setattr(T, "sigmoid", sigmoid)
