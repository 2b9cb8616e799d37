import functools
import hashlib
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fudsa import data as D
from fudsa import network
from fudsa import tensor as T
from fudsa import training
from fudsa.errors import (CorruptCheckpoint, FudsaError, InvalidArgument, InvalidState,
                          NumericalDivergence)
from fudsa.losses import supervised_loss
from fudsa.network import FudsaNet, NetworkConfig, VARIANTS
from fudsa.training import (AdamState, TrainConfig, adam_step, evaluate,
                            gradient_check, load_checkpoint, save_checkpoint,
                            train)

from conftest import fud1_records, repeat_record, replace_record, traced_peak

SMALL = NetworkConfig(levels=2, base_channels=4)


def small_model(seed=0, variant="full", dtype="f32"):
    return FudsaNet(NetworkConfig(levels=2, base_channels=4, dtype=dtype,
                                  **VARIANTS[variant]), seed=seed)


def tiny_pairs(n, size=16, base_seed=50):
    return D.filter_lesion_slices(
        [D.synth_phantom(base_seed + i, size) for i in range(n + 3)])[:n]


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_grad_is_noop():
    p = T.Tensor(np.array([[[[1.0, 2.0]]]]), requires_grad=True)
    params = [("w", p)]
    state = AdamState(params)
    p.grad = np.zeros_like(p.data)
    adam_step(params, state, TrainConfig(learning_rate=0.1))
    np.testing.assert_array_equal(p.data, [[[[1.0, 2.0]]]])
    assert state.t == 1


def test_adam_first_step_magnitude():
    # with bias correction the first update is lr * g / (|g| + eps) == ~lr
    p = T.Tensor(np.array([[[[5.0]]]]), requires_grad=True)
    p.grad = np.array([[[[3.0]]]])
    params = [("w", p)]
    adam_step(params, AdamState(params), TrainConfig(learning_rate=0.1))
    assert abs(p.data[0, 0, 0, 0] - (5.0 - 0.1)) < 1e-7


def test_adam_two_step_scalar_oracle():
    # hand-rolled reference for two updates with distinct gradients
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    w = 2.0
    m = v = 0.0
    for t, g in ((1, 0.5), (2, -1.5)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = T.Tensor(np.array([[[[2.0]]]], dtype=np.float64), requires_grad=True)
    params = [("w", p)]
    state = AdamState(params)
    cfg = TrainConfig(learning_rate=lr)
    for g in (0.5, -1.5):
        p.grad = np.array([[[[g]]]])
        adam_step(params, state, cfg)
    assert abs(p.data[0, 0, 0, 0] - w) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_matches_the_one_line_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 2, 3, 3), "b": (1, 3, 1, 1), "none": (2, 2, 1, 1)}
    params = [(n, T.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True))
              for n, s in shapes.items()]
    state = AdamState(params)
    want = {n: p.data.copy() for n, p in params}
    m = {n: np.zeros(s, dtype) for n, s in shapes.items()}
    v = {n: np.zeros(s, dtype) for n, s in shapes.items()}
    lr, b1, b2 = 3e-3, training.ADAM_BETA1, training.ADAM_BETA2
    for t in (1, 2, 3):
        for n, p in params:  # "none" never has a gradient
            p.grad = None if n == "none" else (rng.normal(size=p.shape) * 1e-3).astype(dtype)
        adam_step(params, state, TrainConfig(learning_rate=lr))
        for n, p in params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m[n] *= b1
            m[n] += (1.0 - b1) * g
            v[n] *= b2
            v[n] += (1.0 - b2) * (g * g)
            want[n] -= lr * (m[n] / (1.0 - b1 ** t)) / (
                np.sqrt(v[n] / (1.0 - b2 ** t)) + training.ADAM_EPS)
        for n, p in params:
            assert np.array_equal(p.data, want[n]) and p.data.dtype == dtype
            assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n])


def test_adam_rejects_shape_drift():
    p = T.Tensor(np.zeros((1, 1, 1, 2)), requires_grad=True)
    params = [("w", p)]
    state = AdamState(params)
    p.data = np.zeros((1, 1, 1, 3))
    with pytest.raises(InvalidState):
        adam_step(params, state, TrainConfig())


def test_train_config_validation():
    with pytest.raises(InvalidArgument):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidArgument):
        TrainConfig(patience=0)
    with pytest.raises(InvalidArgument):
        TrainConfig(batch_size=0)
    for bad in ({"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                {"seed": -1}, {"max_epochs": 0}):
        with pytest.raises(InvalidArgument):
            TrainConfig(**bad)


# ---------------------------------------------------------------------------
# training loop

def test_train_loss_decreases_on_repeated_sample():
    pairs = tiny_pairs(2)
    model = small_model(seed=1)
    cfg = TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=12,
                      patience=12, seed=0)
    rep = train(model, pairs, pairs, cfg)
    first, last = rep.epochs[0].train_loss, rep.epochs[-1].train_loss
    assert last < first


def test_train_single_sample_loss_non_increasing():
    pair = tiny_pairs(1)
    model = small_model(seed=4)
    cfg = TrainConfig(learning_rate=3e-4, batch_size=1, max_epochs=50,
                      patience=50, seed=0)
    rep = train(model, pair, pair, cfg)
    losses = [r.train_loss for r in rep.epochs]
    assert len(losses) == 50
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-3


def test_train_early_stopping_patience_one():
    pairs = tiny_pairs(2)
    model = small_model(seed=1)
    # at this learning rate no epoch moves the val loss by MIN_DELTA, so none improves
    cfg = TrainConfig(learning_rate=1e-12, batch_size=2, max_epochs=50,
                      patience=1, seed=0)
    rep = train(model, pairs, pairs, cfg)
    assert rep.stopped_early
    assert abs(rep.epochs[1].val_loss - rep.epochs[0].val_loss) < training.MIN_DELTA
    # epoch 1 always beats the +inf sentinel; epoch 2 trips patience=1
    assert len(rep.epochs) == 2
    assert rep.best_epoch == 1


def test_train_restores_best_snapshot():
    pairs = tiny_pairs(2)
    model = small_model(seed=1)
    cfg = TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=6,
                      patience=6, seed=0)
    rep = train(model, pairs, pairs, cfg)
    rec, loss = evaluate(model, pairs)
    assert abs(loss - rep.best_val_loss) < 1e-6


def test_train_identical_seeds_reproduce_loss_curve():
    pairs = tiny_pairs(2)
    cfg = TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=4,
                      patience=4, seed=0)
    reps = []
    for _ in range(2):
        reps.append(train(small_model(seed=1), pairs, pairs, cfg))
    a, b = reps
    assert [r.train_loss for r in a.epochs] == [r.train_loss for r in b.epochs]
    assert [r.val_loss for r in a.epochs] == [r.val_loss for r in b.epochs]


def test_train_shuffle_streams_differ_across_seed_and_epoch(monkeypatch):
    # a seed-XOR-epoch stream gave seed 1 at epoch 2 the order of seed 2 at epoch 1
    pairs = tiny_pairs(8)
    batches = []
    stack = training._stack
    monkeypatch.setattr(training, "_stack",
                        lambda b, dtype: batches.append([id(p) for p in b]) or stack(b, dtype))

    def epoch_orders(seed, epochs):
        batches.clear()
        cfg = TrainConfig(batch_size=len(pairs), max_epochs=epochs, patience=epochs, seed=seed)
        train(small_model(seed=1), pairs, pairs[:1], cfg)
        return [b for b in batches if len(b) == len(pairs)]

    assert epoch_orders(1, 2)[1] != epoch_orders(2, 1)[0]


def test_train_rejects_empty_sets():
    pairs = tiny_pairs(2)
    with pytest.raises(InvalidArgument):
        train(small_model(), [], pairs, TrainConfig())


def test_train_nan_raises_divergence():
    pairs = tiny_pairs(2)
    model = small_model(seed=1)
    for _, p in model.named_params():
        p.data[...] = np.nan
    with pytest.raises(NumericalDivergence):
        train(model, pairs, pairs, TrainConfig(max_epochs=1))


def test_train_report_csv_shape():
    pairs = tiny_pairs(2)
    rep = train(small_model(seed=1), pairs, pairs,
                TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=2,
                            patience=2, seed=0))
    lines = rep.csv().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_dsc,val_iou,val_recall"
    assert len(lines) == 2 + 2  # header + 2 epochs + trailer
    assert lines[-1].startswith("# best_epoch=")


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_does_not_mutate_parameters():
    pairs = tiny_pairs(3)
    model = small_model(seed=2)
    before = {n: p.data.copy() for n, p in model.named_params()}
    evaluate(model, pairs)
    for n, p in model.named_params():
        np.testing.assert_array_equal(p.data, before[n])


def test_evaluate_pooled_counts_match_per_image_sum():
    pairs = tiny_pairs(5)
    model = small_model(seed=2)
    pooled, _ = evaluate(model, pairs)
    tp = fp = fn = tn = 0
    for p in pairs:
        r, _ = evaluate(model, [p])
        tp, fp, fn, tn = tp + r.tp, fp + r.fp, fn + r.fn, tn + r.tn
    assert (pooled.tp, pooled.fp, pooled.fn, pooled.tn) == (tp, fp, fn, tn)


def test_evaluate_pooled_differs_from_mean_per_image_dsc():
    # one tiny and one large lesion: pooling confusion counts before the
    # ratio is not the same as averaging per-image DSC values
    big = np.zeros((1, 1, 8, 8), dtype=np.float32)
    big[0, 0, :6, :6] = 1.0          # 36 positive pixels
    tiny = np.zeros((1, 1, 8, 8), dtype=np.float32)
    tiny[0, 0, 0, 0] = 1.0           # 1 positive pixel

    # predictions: big lesion perfect, tiny lesion fully missed
    pred_big, pred_tiny = big, np.zeros_like(tiny)

    from fudsa.losses import confusion_counts, MetricsRecord
    tp = fp = fn = tn = 0
    per_image = []
    for p, y in ((pred_big, big), (pred_tiny, tiny)):
        c = confusion_counts(p, y)
        tp, fp, fn, tn = tp + c[0], fp + c[1], fn + c[2], tn + c[3]
        per_image.append(MetricsRecord.from_counts(*c).dsc)
    pooled = MetricsRecord.from_counts(tp, fp, fn, tn).dsc
    # hand arithmetic: tp=36, fn=1 -> 72/73; per-image mean = (1 + 0)/2
    assert abs(pooled - 72.0 / 73.0) < 1e-12
    assert abs(np.mean(per_image) - 0.5) < 1e-12
    assert abs(pooled - np.mean(per_image)) > 0.1


def test_evaluate_chunking_invariance(monkeypatch):
    pairs = tiny_pairs(5)
    model = small_model(seed=2)
    monkeypatch.setattr(training, "EVAL_CHUNK", 2)
    a, la = evaluate(model, pairs)
    monkeypatch.setattr(training, "EVAL_CHUNK", 8)
    b, lb = evaluate(model, pairs)
    assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)
    assert abs(la - lb) < 1e-6


def test_evaluate_all_background_prediction_recall_zero():
    pairs = tiny_pairs(2)
    model = small_model(seed=2)
    # drive the final head hard negative so every pixel predicts background
    head = dict(model.named_params())
    for name, p in head.items():
        if name.startswith("final_head"):
            p.data[...] = 0.0
            if name.endswith("bias"):
                p.data[...] = -50.0
    rec, _ = evaluate(model, pairs)
    assert rec.recall == 0.0 and rec.tp == 0


def _one_step(levels, channels, size, batch, variant="full"):
    """A seeded model, its Adam state and phantom batch, and one training step on them."""
    model = FudsaNet(NetworkConfig(levels=levels, base_channels=channels,
                                   **VARIANTS[variant]), seed=0)
    params = list(model.named_params())
    state, cfg = AdamState(params), TrainConfig(learning_rate=3e-4, batch_size=batch)
    pairs = [D.synth_phantom(100 + i, size) for i in range(batch)]
    x, y = (T.Tensor(np.concatenate([getattr(p, k).data for p in pairs]).astype(np.float32))
            for k in ("image", "mask"))

    def step():
        with T.Tape() as tape:
            out = model(x)
            T.backward(supervised_loss(out, y, cfg.loss), tape)
        adam_step(params, state, cfg)
        model.zero_grad()

    return model, x, y, step


def _step_peak(levels, channels, size, batch):
    """traced_peak of one full-model step, as perfbench's peak_mib takes it."""
    step = _one_step(levels, channels, size, batch)[3]
    step()  # the first step fills caches that later steps reuse
    return traced_peak(step)


def test_ablation32_train_step_peak_is_bounded():
    # one full-model step at the criterion-6 geometry, holding the forward's outputs
    # through backward: it reads 16.10 MiB; it read 18.77 while one conv's backward
    # gathered all its gradient columns at once, 20.74 while ForwardOutputs also held
    # every E^l, G^l, D and E-hat, 24.03 while each relu after a conv kept its own tape
    # node (and the conv's holder the gradient before the relu), 24.38 while the gates
    # kept their S maps, and 29.17 when backward also copied each gradient it stored
    assert _step_peak(3, 8, 32, 16) <= 16.5 * 2 ** 20


def test_train64_step_peak_is_bounded():
    # the same at perfbench train64's geometry (L4 C16, 64 px, batch 4): it reads
    # 41.34 MiB, and read 48.21 while one conv's backward gathered all its gradient
    # columns at once
    assert _step_peak(4, 16, 64, 4) <= 41.75 * 2 ** 20


@pytest.mark.parametrize("levels, channels, size, batch, variant",
                         [(4, 16, 64, 4, "full")] + [(3, 8, 32, 16, v) for v in VARIANTS])
def test_conv_blocks_keep_parameter_gradients_to_the_bit(monkeypatch, levels, channels,
                                                         size, batch, variant):
    # the blocks the default _COLS_BLOCK picks at train64's and criterion 6's
    # geometries give the parameter gradients that one gather per conv gives
    split, real = [], T._parts
    monkeypatch.setattr(T, "_parts", lambda *a: split.append(len(parts := real(*a))) or parts)
    digests = []
    for block in (T._COLS_BLOCK, 2 ** 62):
        monkeypatch.setattr(T, "_COLS_BLOCK", block)
        model, x, y, _ = _one_step(levels, channels, size, batch, variant)
        with T.Tape() as tape:
            T.backward(supervised_loss(model(x), y, TrainConfig.loss), tape)
        digests.append(hashlib.sha256(b"".join(
            p.grad.tobytes() for _, p in model.named_params())).hexdigest())
    assert max(split) > 1  # some conv ran in blocks (under the default block only)
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_forward_identical(tmp_path):
    pairs = tiny_pairs(2)
    model = small_model(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, None, path)
    loaded, state = load_checkpoint(path)
    assert state is None
    x = pairs[0].image
    a = model(T.Tensor(x.data.astype(np.float32))).final_map.data
    b = loaded(T.Tensor(x.data.astype(np.float32))).final_map.data
    np.testing.assert_array_equal(a, b)


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    model = small_model(seed=3)
    params = list(model.named_params())
    state = AdamState(params)
    for _, p in params:
        p.grad = np.ones_like(p.data)
    adam_step(params, state, TrainConfig(learning_rate=1e-3))
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, state, p1)
    loaded, lstate = load_checkpoint(p1)
    assert lstate is not None and lstate.t == state.t
    save_checkpoint(loaded, lstate, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_preserves_variant_config(tmp_path):
    cfg = NetworkConfig(levels=3, base_channels=4, **VARIANTS["II"])
    model = FudsaNet(cfg, seed=4)
    path = tmp_path / "v.ckpt"
    save_checkpoint(model, None, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.config == cfg


def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch):
    model = small_model(seed=3)
    path = tmp_path / "r.ckpt"
    save_checkpoint(model, None, path)

    def forbidden(*args, **kwargs):
        raise AssertionError("load_checkpoint initialised or drew random numbers")

    # every parameter gets its array from the file alone
    monkeypatch.setattr(network, "initialise", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    loaded, _ = load_checkpoint(path)
    for (name, p), (lname, lp) in zip(model.named_params(), loaded.named_params()):
        assert name == lname
        np.testing.assert_array_equal(p.data, lp.data)
        assert lp.data.flags.writeable and lp.data.flags.owndata


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    model = small_model(seed=3)
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, None, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    model = small_model(seed=3)
    path = tmp_path / "g.ckpt"
    save_checkpoint(model, None, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_entry_listed_twice_is_corrupt(tmp_path):
    # the later record once won: a second p/final_head.bias of 7.0 loaded over the saved 0.0
    path = tmp_path / "d.ckpt"
    save_checkpoint(small_model(seed=3), None, path)
    blob = bytearray(repeat_record(path.read_bytes(), "p/final_head.bias"))
    struct.pack_into("<f", blob, len(blob) - 4, 7.0)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint, match="'p/final_head.bias' is listed twice"):
        load_checkpoint(path)


MIB = 2 ** 20
FEW_MIB = NetworkConfig(levels=3, base_channels=16)  # 3.0 MiB of f32 parameters


@pytest.mark.parametrize("with_adam,factor", [(False, 1.1), (True, 3.1)])
def test_checkpoint_load_peak_is_bounded_by_the_tensors_it_returns(tmp_path, with_adam,
                                                                    factor):
    # each tensor is read straight into the buffer it ends in: no whole-file
    # bytes object and no second copy
    model = FudsaNet(FEW_MIB, seed=1)
    nbytes = sum(p.data.nbytes for _, p in model.named_params())
    assert nbytes > 2 * MIB
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState(list(model.named_params())) if with_adam else None, path)
    assert traced_peak(lambda: load_checkpoint(path)) <= factor * nbytes + MIB / 2


def test_checkpoint_header_claiming_huge_payload_is_rejected_before_allocating(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(FudsaNet(FEW_MIB, seed=1), None, path)
    blob = bytearray(path.read_bytes())
    name = b"p/bottleneck.conv2.weight"
    at = blob.index(name) + len(name)
    assert blob[at:at + 4] == b"FTEN" and blob[at + 6] == 4
    struct.pack_into("<Q", blob, at + 12, 2 ** 40)  # first extent: 2**40 * 128 * 3 * 3 elements
    path.write_bytes(bytes(blob))

    def load():
        with pytest.raises(CorruptCheckpoint, match="truncated FTEN payload"):
            load_checkpoint(path)

    assert traced_peak(load) < MIB


def _ften_header_bytes(blob):
    """Offsets of every FTEN version, dtype, rank and extent byte in a FUD1 blob."""
    return [i for _, at, _ in fud1_records(blob)
            for i in [at + 4, at + 5, at + 6, *range(at + 12, at + 12 + 8 * blob[at + 6])]]


def test_checkpoint_seeded_corruption_raises_corrupt_checkpoint(tmp_path):
    # a changed FTEN header byte or a cut anywhere must end as CorruptCheckpoint,
    # never as a bare ValueError from numpy (rank > 64, extents too big to index)
    model = small_model(seed=3)
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, AdamState(list(model.named_params())), path)
    blob = path.read_bytes()
    header = _ften_header_bytes(blob)
    rng = np.random.default_rng(0)
    bad = tmp_path / "bad.ckpt"
    for case in range(600):
        if case % 2:
            b = bytearray(blob)
            i = header[rng.integers(len(header))]
            b[i] = (b[i] + rng.integers(1, 256)) % 256
        else:
            b = blob[:rng.integers(len(blob))]
        bad.write_bytes(bytes(b))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(bad)


@functools.cache
def _checkpoint_with_adam_state():
    model = small_model(seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(model, AdamState(model.named_params()), Path(tmp) / "c.ckpt")
        return (Path(tmp) / "c.ckpt").read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_damaged_bytes_load_or_raise(data):
    # a load returns a model or raises a FudsaError subclass: a truncated or extended
    # file or a repeated record raises, and only changed bytes may still load, and
    # then only as finite parameters and moments
    blob = bytearray(_checkpoint_with_adam_state())
    damage = data.draw(st.sampled_from(["truncate", "change", "extend", "repeat"]))
    if damage == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif damage == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=16))
    elif damage == "repeat":
        names = [bytes(blob[r[0] + 2:r[1]]).decode() for r in fud1_records(blob)]
        blob = repeat_record(blob, data.draw(st.sampled_from(names)))
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        path.write_bytes(blob)
        try:
            model, state = load_checkpoint(path)
        except FudsaError:
            return
    assert damage == "change"
    moments = [*state.m.values(), *state.v.values()] if state else []
    assert all(np.isfinite(a).all() for a in [*(p.data for p in model.params()), *moments])


@pytest.mark.parametrize("value", [np.nan, np.inf, 2.5])
def test_checkpoint_rejects_non_integer_config_entry(tmp_path, value):
    path = tmp_path / "c.ckpt"
    save_checkpoint(small_model(seed=3), None, path)
    blob = bytearray(path.read_bytes())
    name = b"cfg/levels"
    at = blob.index(name) + len(name) + 12 + 4 * 8  # past the FTEN header of a rank-4 entry
    assert struct.unpack_from("<d", blob, at) == (2.0,)
    struct.pack_into("<d", blob, at, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint, match="integer config entry"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", [b"cfg/levels", b"cfg/f64", b"cfg/upsample_bilinear"])
def test_checkpoint_empty_config_entry_is_corrupt(tmp_path, name):
    # a cfg/ entry with no elements once escaped load_checkpoint as a bare IndexError
    path = tmp_path / "c.ckpt"
    path.write_bytes((Path(__file__).parent / "legacy" / "final.ckpt").read_bytes())
    blob = bytearray(path.read_bytes())
    at = blob.index(name) + len(name)
    struct.pack_into("<Q", blob, at + 12 + 8, 0)  # shape (1, 0, 1, 1)
    del blob[at + 12 + 4 * 8:at + 12 + 4 * 8 + 8]  # and no payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def _with_config_entry(tmp_path, name, value):
    """A saved seeded 2-level model's checkpoint whose cfg/ entry ``name`` holds ``value``."""
    path = tmp_path / "c.ckpt"
    save_checkpoint(small_model(seed=3), None, path)
    blob = bytearray(path.read_bytes())
    at = blob.index(name) + len(name) + 12 + 4 * 8  # past the FTEN header of a rank-4 entry
    struct.pack_into("<d", blob, at, value)
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("name,value", [(b"cfg/levels", 131072.0), (b"cfg/levels", 2.0 ** 40),
                                        (b"cfg/levels", 3.0), (b"cfg/base_channels", 2.0 ** 20)])
def test_checkpoint_geometry_checked_before_building(tmp_path, name, value):
    # a large finite levels or channel count once made load_checkpoint allocate GiBs, and
    # levels=2^40 once died with a MemoryError computing 2^levels; a shapes-only model
    # holds no parameter memory, so only the width bound and the stored shapes decide
    path = _with_config_entry(tmp_path, name, value)

    def load():
        with pytest.raises(CorruptCheckpoint, match="at most 1024 are allowed|"
                                                    "missing p/encoder.2.conv1.weight"):
            load_checkpoint(path)

    assert traced_peak(load) < 4 * MIB


# every boolean cfg/ entry: the flags, and the dtype stored as the flag f64
BOOL_ENTRIES = [f"cfg/{f.name}".encode() for f in fields(NetworkConfig)
                if isinstance(f.default, bool)] + [b"cfg/f64"]


@pytest.mark.parametrize("value", [0.5, np.nan, 2.0])
@pytest.mark.parametrize("name", BOOL_ENTRIES)
def test_checkpoint_rejects_boolean_config_entry_other_than_0_or_1(tmp_path, name, value):
    # 0.5, NaN and 2.0 once loaded as true: a spatial_only of 0.5 predicted as variant I
    assert len(BOOL_ENTRIES) == 4
    with pytest.raises(CorruptCheckpoint, match="boolean config entry holds .*only 0 and 1"):
        load_checkpoint(_with_config_entry(tmp_path, name, value))


def test_shapes_only_model_holds_no_parameter_memory():
    # the default L4 C16 model has 12.25 MiB of parameters; seed=None allocates none of them
    peak = traced_peak(lambda: FudsaNet(NetworkConfig(), seed=None))
    assert peak < 256 * 2 ** 10
    assert sum(p.data.nbytes for p in FudsaNet(NetworkConfig(), seed=0).params()) > 12 * MIB


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_save_checkpoint_rejects_a_shapes_only_model_before_opening(tmp_path, dtype):
    # an f32 shapes-only model once saved as a valid all-zero model
    path = tmp_path / "c.ckpt"
    with pytest.raises(InvalidArgument, match="'encoder.0.conv1.weight' is a shape only"):
        save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=2, dtype=dtype),
                                 seed=None), None, path)
    assert not path.exists()


def test_save_checkpoint_rejects_a_parameter_of_another_dtype_before_opening(tmp_path):
    # f32 data in an f64 model would be written as f32 under cfg/f64 = 1
    model = small_model(seed=3, dtype="f64")
    model.encoder[0].conv1.weight.data = model.encoder[0].conv1.weight.data.astype(np.float32)
    path = tmp_path / "c.ckpt"
    with pytest.raises(InvalidArgument, match=r"p/encoder.0.conv1.weight is float32 \(4, 1, 3, "
                                              r"3\), expected float64"):
        save_checkpoint(model, None, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_save_checkpoint_rejects_a_non_finite_parameter_before_opening(tmp_path, value):
    # such a model was once written, and load_checkpoint then refused the file as corrupt
    model = small_model(seed=3)
    model.encoder[0].conv1.weight.data[0, 0, 1, 1] = value
    path = tmp_path / "c.ckpt"
    with pytest.raises(InvalidArgument, match="p/encoder.0.conv1.weight holds a NaN or an "
                                              "infinity"):
        save_checkpoint(model, None, path)
    assert not path.exists()


@pytest.mark.parametrize("key, damage", [
    ("p/encoder.0.conv1.weight", lambda a: a.astype(np.float64)),
    ("p/final_head.bias", lambda a: np.full_like(a, np.nan)),
    ("m/final_head.bias", lambda a: np.zeros((1, 1, 1, 5), a.dtype)),
    ("v/encoder.0.conv1.weight", lambda a: np.full_like(a, np.inf))],
    ids=["p-width", "p-nan", "m-shape", "v-inf"])
def test_save_and_load_refuse_the_same_damage_naming_the_same_entry(tmp_path, key, damage):
    # save runs load's own reading of the entries, so neither accepts what the other refuses
    model = small_model(seed=3)
    state = AdamState(model.named_params())
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, state, path)
    kind, name = key.split("/", 1)
    params = dict(model.named_params())
    arrays = {"p": {n: p.data for n, p in params.items()}, "m": state.m, "v": state.v}[kind]
    bad = damage(arrays[name])
    path.write_bytes(replace_record(path.read_bytes(), key, bad))
    with pytest.raises(CorruptCheckpoint) as loading:
        load_checkpoint(path)

    if kind == "p":
        params[name].data = bad
    else:
        arrays[name] = bad
    unsaved = tmp_path / "unsaved.ckpt"
    with pytest.raises(InvalidArgument) as saving:
        save_checkpoint(model, state, unsaved)
    assert not unsaved.exists()
    assert str(saving.value).startswith(f"{key} ")
    assert str(loading.value) == f"{path}: {saving.value}"


def test_checkpoint_parameter_of_another_width_is_corrupt(tmp_path):
    # an f64 payload under an f32 config: save_checkpoint never writes one, so it is
    # corrupt, as a moment of another width is, and not converted
    path = tmp_path / "c.ckpt"
    save_checkpoint(small_model(seed=3, dtype="f64"), None, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, blob.index(b"cfg/f64") + len(b"cfg/f64") + 12 + 4 * 8, 0.0)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint, match=r"p/encoder.0.conv1.weight is float64 \(4, 1, 3, "
                                                r"3\), expected float32 \(4, 1, 3, 3\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("variant, dropped, tensors", [
    ("I", (b".attention.sdc.", b".attention.mlp."), 30), ("III", (b".proj.",), 6)])
def test_checkpoint_of_the_older_variant_layout_loads(tmp_path, variant, dropped, tensors):
    # I and III files written before those variants stopped building the channel branch
    # and the residual projections hold p/, m/ and v/ entries for them: they load, and
    # the entries are never read
    cfg = NetworkConfig(levels=3, base_channels=4)
    for name, c in (("new", cfg.with_variant(variant)), ("full", cfg)):
        model = FudsaNet(c, seed=3)
        save_checkpoint(model, AdamState(model.named_params()), tmp_path / f"{name}.ckpt")
    new, full = ((tmp_path / f"{name}.ckpt").read_bytes() for name in ("new", "full"))
    extra = [full[a:z] for a, at, z in fud1_records(full)
             if any(d in full[a + 2:at] for d in dropped)]
    assert len(extra) == 3 * tensors  # the p/, m/ and v/ entries of each
    (count,) = struct.unpack_from("<I", new, 4)
    (tmp_path / "old.ckpt").write_bytes(
        new[:4] + struct.pack("<I", count + len(extra)) + new[8:] + b"".join(extra))
    (a, sa), (b, sb) = (load_checkpoint(tmp_path / f"{n}.ckpt") for n in ("new", "old"))
    x = T.Tensor(np.random.default_rng(4).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
    assert a(x).final_map.data.tobytes() == b(x).final_map.data.tobytes()
    for (name, p), (lname, lp) in zip(a.named_params(), b.named_params(), strict=True):
        assert name == lname and p.data.tobytes() == lp.data.tobytes()
        assert sa.m[name].tobytes() == sb.m[name].tobytes()
        assert sa.v[name].tobytes() == sb.v[name].tobytes()


@pytest.mark.parametrize("moment, stored", [("m", np.zeros((1, 1, 1, 5), np.float32)),
                                            ("v", np.zeros((1, 1, 1, 1), np.float64))],
                         ids=["m-shape", "v-width"])
def test_checkpoint_moment_not_matching_its_parameter_is_corrupt(tmp_path, moment, stored):
    # checked at load: a wrong shape once loaded and failed at the next adam_step;
    # save_checkpoint refuses such a moment, so the file is patched after saving
    model = small_model(seed=3)
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, AdamState(model.named_params()), path)
    path.write_bytes(replace_record(path.read_bytes(), f"{moment}/final_head.bias", stored))
    with pytest.raises(CorruptCheckpoint, match=f"{moment}/final_head.bias is {stored.dtype}"):
        load_checkpoint(path)


def test_negative_adam_step_count_is_refused_by_load_and_save(tmp_path):
    # a stored adam/t of -5 once loaded as state.t == -5
    model = small_model(seed=3)
    state = AdamState(model.named_params())
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, state, path)
    path.write_bytes(replace_record(path.read_bytes(), "adam/t", np.full((1, 1, 1, 1), -5.0)))
    with pytest.raises(CorruptCheckpoint, match="adam/t holds -5"):
        load_checkpoint(path)
    state.t = -5
    unsaved = tmp_path / "unsaved.ckpt"
    with pytest.raises(InvalidArgument, match="adam/t holds -5"):
        save_checkpoint(model, state, unsaved)
    assert not unsaved.exists()


BIAS = "final_head.bias"
OTHER_MODEL = NetworkConfig(levels=3, base_channels=4)


@pytest.mark.parametrize("damage, message", [
    (lambda s: s.v.update({BIAS: s.v[BIAS].astype(np.float64)}),
     r"v/final_head.bias is float64 \(1, 1, 1, 1\), expected float32"),
    (lambda s: s.m.update({BIAS: np.zeros((1, 1, 1, 5), np.float32)}),
     r"m/final_head.bias is float32 \(1, 1, 1, 5\), expected float32"),
    (lambda s: s.m["encoder.0.conv1.weight"].fill(np.nan),
     "m/encoder.0.conv1.weight holds a NaN or an infinity"),
    (lambda s: s.m.pop(BIAS), "names are not the model's parameters"),
    (lambda s: s.v.update(AdamState(FudsaNet(OTHER_MODEL, seed=0).named_params()).v),
     "names are not the model's parameters")],
    ids=["v-width", "m-shape", "m-nan", "m-missing", "v-other-model"])
def test_save_checkpoint_rejects_adam_state_that_would_not_load_before_opening(
        tmp_path, damage, message):
    # each such state was once written, and load_checkpoint then refused the file
    model = small_model(seed=3)
    state = AdamState(model.named_params())
    damage(state)
    path = tmp_path / "c.ckpt"
    with pytest.raises(InvalidArgument, match=message):
        save_checkpoint(model, state, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# finite-difference parameter check

def test_gradient_check_passes_f64():
    model = small_model(seed=5, dtype="f64")
    pair = D.synth_phantom(60, 16)
    x = T.Tensor(pair.image.data.astype(np.float64))
    y = T.Tensor(pair.mask.data.astype(np.float64))
    results = gradient_check(model, x, y, n_samples=3, seed=0)
    assert results
    assert max(err for _, err in results) < 1e-5


def test_gradient_check_detects_corruption(sigmoid_doubled_grad):
    model = small_model(seed=5, dtype="f64")
    pair = D.synth_phantom(60, 16)
    x = T.Tensor(pair.image.data.astype(np.float64))
    y = T.Tensor(pair.mask.data.astype(np.float64))
    name = next(n for n, _ in model.named_params())
    results = gradient_check(model, x, y, n_samples=3, seed=0)
    worst = dict(results)[name]
    assert worst > 1e-3
