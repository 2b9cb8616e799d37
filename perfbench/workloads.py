"""The benchmark's workloads: train64, ablation32 and predict64.

Each workload is one closed loop with a single client.  It builds its inputs
from the run seed, times set-up, then runs timed operations (an optimiser
step, or one ``fudsa predict`` call) in whole rounds until ``seconds`` have
passed.  Every operation is checked; a failed check counts toward
``Run.failed``.

With a tracer, every second operation runs with the tracer installed and the
others run unpatched, so the two latency series give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fudsa import cli, data as D, losses, training
from fudsa import tensor as T
from fudsa.network import FudsaNet, NetworkConfig

_TINY = np.finfo(np.float32).tiny
_SEED_RANGE = 2 ** 31 - 1
# A training step is in the subnormal regime when at least this share of its
# gradient elements (tape outputs and parameters) are subnormal float32.
SUBNORMAL_REGIME = 0.015
# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5
# predict64 makes at least this many calls, however short the window.
MIN_CALLS = 4
# predict64 tries up to this many initialisations for a non-constant mask.
CHECKPOINT_TRIES = 8
# The train64 regime warm-up (see _warm_to_regime): a reference model built
# from WARMUP_SEED trains on WARMUP_IMAGES phantoms for at most
# MAX_WARMUP_STEPS steps, and for SETTLE_STEPS more once it is in the regime;
# the state nearest REGIME_TARGET subnormal share is kept.
WARMUP_SEED = 7
WARMUP_IMAGES = 8
MAX_WARMUP_STEPS = 40
SETTLE_STEPS = 4
REGIME_TARGET = 0.05
# From the regime state, epoch losses are not monotone: they can rise for a
# few epochs, and for some seeds keep rising.  So train64's learning check
# trains DESCENT_STEPS untimed steps on one batch from that state and compares
# the batch's first and last loss.
DESCENT_STEPS = 4


@dataclass(frozen=True)
class TrainSpec:
    levels: int
    channels: int
    size: int
    batch: int
    lr: float
    n_images: int
    split: bool                    # seeded 80/20 split; else validate on the train set
    variants: tuple = ("full",)
    lesions: tuple = (1, 3)
    contrast: tuple = (0.15, 0.45)
    # With a warm-up rate, set-up trains the reference model into the subnormal
    # regime and every timed round restarts from that state.  Without it,
    # timed rounds continue training from one untimed step per variant.
    warmup_lr: float | None = None
    epochs_per_round: int = 1
    min_rounds: int = 2


@dataclass(frozen=True)
class PredictSpec:
    levels: int
    channels: int
    size: int
    pool: int


WORKLOADS = {
    "train64": TrainSpec(levels=4, channels=16, size=64, batch=4, lr=1e-4, n_images=16,
                         split=False, lesions=(1, 1), contrast=(0.3, 0.45),
                         warmup_lr=2e-4, epochs_per_round=2, min_rounds=1),
    "ablation32": TrainSpec(levels=3, channels=8, size=32, batch=16, lr=3e-4,
                            n_images=200, split=True, variants=("full", "I", "II", "III")),
    "predict64": PredictSpec(levels=4, channels=16, size=64, pool=16),
}


@dataclass
class Run:
    """Everything one workload run measured."""
    latencies: list = field(default_factory=list)         # s, untraced operations
    traced_latencies: list = field(default_factory=list)  # s, traced operations
    busy_s: float = 0.0          # timed work, validation included
    items: int = 0               # images trained or predicted in the timed window
    setup_s: float = 0.0
    peak_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    grad_counts: list = field(default_factory=list)  # (subnormal, elements) per traced step
    tape_sizes: list = field(default_factory=list)   # (nodes, bytes) per traced step
    ops: int = 0

    def end_to_end(self):
        ms = np.array(self.latencies) * 1000.0
        return {
            "latency_ms.p50": float(np.percentile(ms, 50)),
            "latency_ms.p90": float(np.percentile(ms, 90)),
            "throughput_per_s": self.items / self.busy_s,
            "peak_mib": self.peak_mib,
            "setup_s": self.setup_s,
        }

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _traced(tracer, epoch, j):
    """Trace every second operation, alternating between epochs."""
    return tracer is not None and (epoch + j) % 2 == 1


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, _SEED_RANGE, size=n)]


def _installed(tracer):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def _median_setup(reps, build, tracer):
    """Run build() reps times; return the last result and the median time."""
    times, result = [], None
    with _installed(tracer):
        for rep in range(reps):
            t0 = time.perf_counter()
            result = build(rep)
            times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


# ---------------------------------------------------------------------------
# gradient and tape statistics (traced steps only)

def grad_counts(tape, grads):
    """(subnormal elements, all elements) over every gradient of one step."""
    arrays = [out.grad for out, _ in tape.nodes if out.grad is not None]
    arrays += [g for g in grads if g is not None]
    sub = total = 0
    for g in arrays:
        a = np.abs(g)
        sub += int(np.count_nonzero((a < _TINY) & (a > 0)))
        total += g.size
    return sub, total


def tape_size(tape, params):
    """(nodes, bytes) the tape keeps alive: op outputs and closure arrays.

    Parameters are excluded; views count as their base array, once.
    """
    skip = {id(p.data) for p in params}
    seen, total = set(), 0

    def add(a):
        nonlocal total
        while a.base is not None and isinstance(a.base, np.ndarray):
            a = a.base
        if id(a) not in seen and id(a) not in skip:
            seen.add(id(a))
            total += a.nbytes

    def walk(fn, depth=0):
        for cell in fn.__closure__ or ():
            val = cell.cell_contents
            if isinstance(val, np.ndarray):
                add(val)
            elif isinstance(val, T.Tensor):
                add(val.data)
            elif callable(val) and getattr(val, "__closure__", None) and depth < 3:
                walk(val, depth + 1)

    for out, fn in tape.nodes:
        add(out.data)
        walk(fn)
    return len(tape.nodes), total


# ---------------------------------------------------------------------------
# training workloads

def _train_step(model, params, state, cfg, x, y, keep=False):
    """One optimiser step: forward, loss, backward, Adam, zero_grad."""
    t0 = time.perf_counter()
    with T.Tape() as tape:
        out = model(x)
        loss = losses.supervised_loss(out, y, cfg.loss)
        value = loss.item()
        if np.isfinite(value):
            T.backward(loss, tape)
    if np.isfinite(value):
        training.adam_step(params, state, cfg)
    grads = [p.grad for _, p in params] if keep else None
    model.zero_grad()
    dt = time.perf_counter() - t0
    return dt, value, (tape, grads) if keep else None


def _make_dataset(spec, phantom_seeds, split_seed, root):
    """Synthesize phantoms, write them as PGM files and load them back."""
    (root / "images").mkdir(parents=True)
    (root / "masks").mkdir()
    ids = []
    for s in phantom_seeds:
        pair = D.synth_phantom(s, spec.size, spec.lesions, spec.contrast)
        D.write_image01(root / "images" / f"{pair.identifier}.pgm", pair.image)
        D.write_mask(root / "masks" / f"{pair.identifier}.pgm", pair.mask)
        ids.append(pair.identifier)
    if not spec.split:
        pairs = D.load_pairs(root, ids)
        return pairs, pairs
    split = D.split_dataset(ids, split_seed)
    return D.load_pairs(root, split.train_ids), D.load_pairs(root, split.val_ids)


def _batches(pairs, order, size, dtype):
    out = []
    for b0 in range(0, len(order), size):
        chunk = [pairs[i] for i in order[b0:b0 + size]]
        x = np.concatenate([p.image.data for p in chunk]).astype(dtype)
        y = np.concatenate([p.mask.data for p in chunk]).astype(dtype)
        out.append((T.Tensor(x), T.Tensor(y)))
    return out


class _Learner:
    """One variant's model, optimiser state and loss history."""

    def __init__(self, cfg, init_seed, tcfg):
        self.model = FudsaNet(cfg, seed=init_seed)
        self.params = list(self.model.named_params())
        self.state = training.AdamState(self.params)
        self.cfg = tcfg
        self.epoch_losses = []

    def snapshot(self):
        return ([p.data.copy() for _, p in self.params],
                {k: v.copy() for k, v in self.state.m.items()},
                {k: v.copy() for k, v in self.state.v.items()}, self.state.t)

    def restore(self, snap):
        data, m, v, t = snap
        for (_, p), d in zip(self.params, data):
            p.data[...] = d
        for k in m:
            self.state.m[k][...] = m[k]
            self.state.v[k][...] = v[k]
        self.state.t = t

    def step(self, x, y, cfg=None, keep=False):
        return _train_step(self.model, self.params, self.state, cfg or self.cfg, x, y, keep)


def _warm_to_regime(spec, learner, train_set, rng):
    """Train at the warm-up rate, step by step, into the subnormal regime.

    Warm-up goes on for SETTLE_STEPS after the first step in the regime.
    Of the steps since then, the one whose subnormal share is closest to
    REGIME_TARGET (in log scale) is kept, and the learner is left in the
    state before it.  If the regime is never reached, the step with the
    largest share is kept.  Returns that state.
    """
    cfg = replace(learner.cfg, learning_rate=spec.warmup_lr)
    dtype = learner.model.config.np_dtype
    best, onset, step = None, None, 0
    while step < MAX_WARMUP_STEPS and (onset is None or step < onset + SETTLE_STEPS):
        for x, y in _batches(train_set, rng.permutation(len(train_set)), spec.batch, dtype):
            snap = learner.snapshot()
            _, _, (tape, grads) = learner.step(x, y, cfg, keep=True)
            sub, total = grad_counts(tape, grads)
            share = sub / total
            if onset is None and share >= SUBNORMAL_REGIME:
                onset, best = step, None
            score = abs(np.log(max(share, 1e-12) / REGIME_TARGET))
            if best is None or (score < best[0] if onset is not None else share > best[1]):
                best = (score, share, step, snap)
            step += 1
    _, share, chosen, snap = best
    learner.restore(snap)
    print(f"warm-up: {step} steps at lr {spec.warmup_lr:g}, regime from step {onset}, "
          f"kept the state before step {chosen} (subnormal share {share:.4f})",
          file=sys.stderr)
    return snap


def _train_epoch(run, tracer, learner, batches, val_set, epoch, name):
    """Timed steps over batches, then validation; returns the mean train loss."""
    values = []
    for j, (x, y) in enumerate(batches):
        traced = _traced(tracer, epoch, j)
        if traced:
            tracer.op = run.ops
        with _installed(tracer if traced else None):
            dt, value, kept = learner.step(x, y, keep=traced)
        (run.traced_latencies if traced else run.latencies).append(dt)
        run.busy_s += dt
        run.items += x.shape[0]
        run.ops += 1
        values.append(value)
        run.check(np.isfinite(value), f"{name}: non-finite train loss {value}")
        if traced:
            tracer.op = -1
            run.grad_counts.append(grad_counts(*kept))
            run.tape_sizes.append(tape_size(kept[0], learner.model.params()))
    t0 = time.perf_counter()
    with _installed(tracer if _traced(tracer, epoch, 0) else None):
        _, val_loss = training.evaluate(learner.model, val_set, loss_cfg=learner.cfg.loss)
    run.busy_s += time.perf_counter() - t0
    run.check(np.isfinite(val_loss), f"{name}: non-finite validation loss")
    return float(np.mean(values))


def run_train(spec: TrainSpec, seed, seconds, tracer, work: Path) -> Run:
    run = Run()
    rng = np.random.default_rng(seed)
    phantom_seeds = _seeds(rng, spec.n_images)
    split_seed, init_seed, order_seed = _seeds(rng, 3)
    # the regime state comes from a fixed reference run, so it is the same for every seed
    ref = np.random.default_rng(WARMUP_SEED)
    ref_seeds = _seeds(ref, WARMUP_IMAGES)
    ref_split, ref_init, ref_order = _seeds(ref, 3)
    net = NetworkConfig(levels=spec.levels, base_channels=spec.channels)
    tcfg = training.TrainConfig(learning_rate=spec.lr, batch_size=spec.batch)
    dtype = net.np_dtype

    def build(rep):
        sets = _make_dataset(spec, phantom_seeds, split_seed, work / f"data{rep}")
        if spec.warmup_lr is not None:
            ref_set, _ = _make_dataset(spec, ref_seeds, ref_split, work / f"reference{rep}")
            return sets, ref_set, {"full": _Learner(net, ref_init, tcfg)}
        learners = {v: _Learner(net.with_variant(v), init_seed, tcfg) for v in spec.variants}
        x, y = _batches(sets[0], np.arange(spec.batch), spec.batch, dtype)[0]
        for learner in learners.values():
            learner.step(x, y)  # first step, untimed
        return sets, None, learners

    ((train_set, val_set), ref_set, learners), run.setup_s = _median_setup(
        SETUP_REPS, build, tracer)
    order_rng = np.random.default_rng(order_seed)
    regime = None
    if ref_set is not None:
        # Runs once, not SETUP_REPS times; its steps have the shapes of the timed ones.
        t0 = time.perf_counter()
        regime = _warm_to_regime(spec, learners["full"], ref_set,
                                 np.random.default_rng(ref_order))
        run.setup_s += time.perf_counter() - t0

    # A round is epochs_per_round epochs of every variant in turn.  With a
    # regime state, every round restarts from it on the same batches, so all
    # rounds do the same work.
    fixed = [_batches(train_set, order_rng.permutation(len(train_set)), spec.batch, dtype)
             for _ in range(spec.epochs_per_round)] if regime is not None else None
    start = time.perf_counter()
    rounds = epoch = 0
    while rounds < spec.min_rounds or time.perf_counter() - start < seconds:
        for v, learner in learners.items():
            if regime is not None:
                learner.restore(regime)
            for e in range(spec.epochs_per_round):
                batches = fixed[e] if fixed else _batches(
                    train_set, order_rng.permutation(len(train_set)), spec.batch, dtype)
                learner.epoch_losses.append(
                    _train_epoch(run, tracer, learner, batches, val_set, epoch + e, v))
        epoch += spec.epochs_per_round
        rounds += 1

    if regime is not None:
        learner = learners["full"]
        learner.restore(regime)
        x, y = fixed[0][0]
        first, *_, last = [learner.step(x, y)[1] for _ in range(DESCENT_STEPS)]
        run.check(last < first, f"full: loss on one batch {last:.6f} after {DESCENT_STEPS - 1} "
                                f"steps not below its first {first:.6f}")
    else:
        for v, learner in learners.items():
            first, last = learner.epoch_losses[0], learner.epoch_losses[-1]
            run.check(last < first, f"{v}: last train loss {last:.6f} not below first {first:.6f}")

    if tracer is None:
        learner = next(iter(learners.values()))
        x, y = _batches(train_set, np.arange(spec.batch), spec.batch, dtype)[0]
        run.peak_mib = _peak_mib(lambda: learner.step(x, y))
    return run


# ---------------------------------------------------------------------------
# predict workload

def _peak_mib(fn):
    """tracemalloc peak of one call, in MiB; never taken while timing."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _two_valued(mask):
    return np.unique(mask).size == 2


def _pick_init(net, image, init_seeds):
    """First initialisation whose thresholded forward of image has both values.

    An untrained model may threshold to a constant mask, against which the
    mask check is blind.  The choice is part of making the inputs, so it is
    not timed; if no seed qualifies, the run's mask check fails.
    """
    for init_seed in init_seeds:
        final = FudsaNet(net, seed=init_seed)(image).final_map.data
        if _two_valued(final >= 0.5):
            break
    return init_seed


def _predict(ckpt, image, out, sink):
    with contextlib.redirect_stdout(sink):
        return cli.main(["predict", "--checkpoint", str(ckpt), "--image", str(image),
                         "--out", str(out)])


def run_predict(spec: PredictSpec, seed, seconds, tracer, work: Path) -> Run:
    run = Run()
    rng = np.random.default_rng(seed)
    phantom_seeds = _seeds(rng, spec.pool)
    net = NetworkConfig(levels=spec.levels, base_channels=spec.channels)
    init_seed = _pick_init(net, D.synth_phantom(phantom_seeds[0], spec.size).image,
                           _seeds(rng, CHECKPOINT_TRIES))
    sink = io.StringIO()

    def build(rep):
        root = work / f"pool{rep}"
        root.mkdir(parents=True)
        images = []
        for s in phantom_seeds:
            pair = D.synth_phantom(s, spec.size)
            images.append(root / f"{pair.identifier}.pgm")
            D.write_image01(images[-1], pair.image)
        ckpt = root / "model.ckpt"
        training.save_checkpoint(FudsaNet(net, seed=init_seed), None, ckpt)
        _predict(ckpt, images[0], root / "warm.pgm", sink)
        return ckpt, images, root

    (ckpt, images, root), run.setup_s = _median_setup(SETUP_REPS, build, tracer)

    expected = {}

    def expected_mask(k):
        if k not in expected:
            model, _ = training.load_checkpoint(ckpt)
            x = D.read_image01(images[k])[np.newaxis, np.newaxis]
            final = model(T.Tensor(x.astype(model.config.np_dtype))).final_map.data[0, 0]
            expected[k] = (final >= 0.5).astype(np.uint8) * 255
        return expected[k]

    mixed = False
    start = time.perf_counter()
    while run.ops < MIN_CALLS or time.perf_counter() - start < seconds:
        k = run.ops % spec.pool
        out = root / f"pred{k}.pgm"
        traced = _traced(tracer, run.ops // spec.pool, k)
        if traced:
            tracer.op = run.ops
        with _installed(tracer if traced else None):
            t0 = time.perf_counter()
            code = _predict(ckpt, images[k], out, sink)
            dt = time.perf_counter() - t0
        if traced:
            tracer.op = -1
        (run.traced_latencies if traced else run.latencies).append(dt)
        run.busy_s += dt
        run.items += 1
        run.ops += 1
        mask = D.read_pgm(out)[0] if code == 0 else None
        ok = mask is not None and np.array_equal(mask, expected_mask(k))
        run.check(ok, f"predict {images[k].name}: exit {code} or mask differs from forward")
        mixed = mixed or (mask is not None and _two_valued(mask))
        sink.seek(0)
        sink.truncate()

    run.check(mixed, "predict: every mask is constant, so a shifted or transposed "
                     "output would pass the mask check")
    if tracer is None:
        run.peak_mib = _peak_mib(lambda: _predict(ckpt, images[0], root / "peak.pgm", sink))
    return run


def run_workload(name, seed, seconds, tracer, work):
    spec = WORKLOADS[name]
    runner = run_predict if isinstance(spec, PredictSpec) else run_train
    return runner(spec, seed, seconds, tracer, work)
