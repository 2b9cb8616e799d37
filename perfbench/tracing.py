"""Span tracer for the benchmark.

``Tracer.installed()`` wraps public functions and methods of the fudsa
package, records one span per call, and puts every original back when the
block ends.  Tensor ops also get their backward closure wrapped: after an op
appends ``(out, fn)`` to the live ``Tape.nodes``, the entry is replaced by
``(out, wrapped_fn)`` so backward time is attributed to the op that caused it.

A span is ``(id, parent, name, op, start, end, self_s, flop)``.  ``op`` is the
index of the timed operation (optimiser step or predict call) the span belongs
to, or -1 during set-up.  Self time is the span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

from fudsa import attention, cli, data, layers, losses, network, training
from fudsa import tensor as T
from workloads import SUBNORMAL_REGIME

EWISE_OPS = ("add", "sub", "mul", "div", "scale", "add_scalar", "rsub_scalar",
             "power", "tsum")
OTHER_OPS = ("upsample", "max_pool2", "relu", "sigmoid", "concat_channels",
             "dense", "global_avg_pool")
CONV_KINDS = ("k3", "k3dil", "k2s2", "k1")
MODULE_SPANS = (
    (layers.ConvBlock, "layers.conv_block"),
    (layers.MatchChain, "layers.match_chain"),
    (layers.SdcBlock, "layers.sdc_block"),
    (layers.MlpHead, "layers.mlp_head"),
)
FUNCTION_SPANS = (
    (T, "backward", "tensor.backward"),
    (training, "adam_step", "training.adam_step"),
    (training, "evaluate", "training.evaluate"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (losses, "supervised_loss", "losses.supervised_loss"),
    (losses, "confusion_counts", "losses.confusion_counts"),
    (data, "synth_phantom", "data.synth_phantom"),
    (data, "read_image01", "data.read_image01"),
    (data, "write_pgm", "data.write_pgm"),
    (data, "load_pairs", "data.load_pairs"),
)


def _conv_kind(kernel, stride, dilation):
    kh = kernel.shape[2]
    if kh == 1:
        return "k1"
    if stride == 2 and kh == 2:
        return "k2s2"
    return "k3dil" if dilation > 1 else "k3"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._next_id = 0
        self._stack = []      # [id, name, start, child_s]
        self._tapes = []      # tapes entered while installed
        self._tracked = set()  # ids of tensors recorded on the current tape

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, flop=0):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, parent, name, self.op, start, end, dur - child, flop))

    def _timed(self, name_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- tensor ops and their backward closures -------------------------------

    def _wrap_bwd(self, name, fn, flop):
        def bwd(g):
            self._enter(name)
            try:
                fn(g)
            finally:
                self._exit(flop)
        return bwd

    def _op(self, name, fn, flop_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = self._tapes[-1] if self._tapes else None
            before = len(tape.nodes) if tape is not None else 0
            fname, fflop, bflop = name, 0, 0
            if flop_of is not None:
                fname, fflop, bflop = flop_of(*args, **kwargs)
            self._enter(fname + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(fflop)
            if tape is not None and len(tape.nodes) > before:
                node_out, bwd = tape.nodes[-1]
                tape.nodes[-1] = (node_out, self._wrap_bwd(fname + ".bwd", bwd, bflop))
                self._tracked.add(id(node_out))
            return out
        return wrapper

    def _conv_flop(self, x, kernel, bias=None, stride=1, dilation=1, padding=0):
        n, _, h, w = x.shape
        cout, cin, kh, kw = kernel.shape
        hout = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
        wout = (w + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
        fwd = 2 * n * cout * hout * wout * cin * kh * kw
        grads = sum(1 for t in (x, kernel)
                    if t.requires_grad or id(t) in self._tracked)
        name = f"tensor.conv2d.{_conv_kind(kernel, stride, dilation)}"
        return name, fwd, fwd * grads

    # -- install / restore -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable for the duration of the block."""
        undo = []

        def replace_function(orig, new):
            # the function may also be bound by name in other fudsa modules
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "fudsa":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, new)

        def replace_method(cls, attr, new):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

        def fixed(name):
            return lambda args: name

        try:
            replace_function(T.conv2d, self._op("tensor.conv2d", T.conv2d, self._conv_flop))
            for op in OTHER_OPS:
                replace_function(getattr(T, op), self._op(f"tensor.{op}", getattr(T, op)))
            for op in EWISE_OPS:
                replace_function(getattr(T, op), self._op("tensor.ewise", getattr(T, op)))
            for mod, attr, name in FUNCTION_SPANS:
                fn = getattr(mod, attr)
                replace_function(fn, self._timed(fixed(name), fn))
            replace_function(cli.main, self._timed(fixed("cli.predict"), cli.main))
            replace_method(network.FudsaNet, "__call__",
                           self._timed(fixed("network.forward"),
                                       network.FudsaNet.__dict__["__call__"]))
            replace_method(attention.AttentionGate, "__call__",
                           self._timed(lambda args: f"attention.gate.l{args[0].level}",
                                       attention.AttentionGate.__dict__["__call__"]))
            for cls, name in MODULE_SPANS:
                replace_method(cls, "__call__",
                               self._timed(fixed(name), cls.__dict__["__call__"]))
            replace_method(T.Tape, "__enter__", self._tape_enter(T.Tape.__dict__["__enter__"]))
            replace_method(T.Tape, "__exit__", self._tape_exit(T.Tape.__dict__["__exit__"]))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def _tape_enter(self, orig):
        def enter(tape):
            self._tapes.append(tape)
            self._tracked.clear()
            return orig(tape)
        return enter

    def _tape_exit(self, orig):
        def exit_(tape, *exc):
            if self._tapes and self._tapes[-1] is tape:
                self._tapes.pop()
            return orig(tape, *exc)
        return exit_

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """Write the recorded spans as JSON lines, one span per line."""
        keys = ("id", "parent", "name", "op", "start", "end", "self_s", "flop")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(tracer, run):
    """Per-layer metrics of a traced run.

    Tensor-op, module and backward figures are per traced timed operation
    (self time for ops, inclusive time for modules).  Figures of functions
    in training, losses and data are mean milliseconds per call over the
    whole traced run, set-up included.
    """
    n_ops = max(1, len(run.traced_latencies))
    per_op, calls, flop = {}, {}, {}
    incl, n_calls, self_total = {}, {}, {}
    for _sid, _parent, name, op, start, end, self_s, fl in tracer.spans:
        incl[name] = incl.get(name, 0.0) + (end - start)
        n_calls[name] = n_calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + self_s
        if op >= 0:
            per_op[name] = per_op.get(name, 0.0) + (self_s if name.startswith("tensor.")
                                                    and name != "tensor.backward"
                                                    else end - start)
            calls[name] = calls.get(name, 0) + 1
            flop[name] = flop.get(name, 0) + fl

    def op_ms(name):
        return 1000.0 * per_op.get(name, 0.0) / n_ops

    def call_ms(name, table=incl):
        return 1000.0 * table.get(name, 0.0) / max(1, n_calls.get(name, 0))

    m = {}
    conv_s = conv_flop = 0.0
    for kind in CONV_KINDS:
        for phase in ("fwd", "bwd"):
            key = f"tensor.conv2d.{kind}.{phase}"
            m[f"tensor.conv2d.{kind}.{phase}_ms"] = op_ms(key)
            conv_s += per_op.get(key, 0.0)
            conv_flop += flop.get(key, 0)
    for phase in ("fwd", "bwd"):
        m[f"tensor.conv2d.{phase}_ms"] = sum(m[f"tensor.conv2d.{k}.{phase}_ms"]
                                             for k in CONV_KINDS)
    m["tensor.conv2d.calls"] = sum(calls.get(f"tensor.conv2d.{k}.fwd", 0)
                                   for k in CONV_KINDS) / n_ops
    m["tensor.conv2d.gflop"] = conv_flop / n_ops / 1e9
    m["tensor.conv2d.gflops_rate"] = conv_flop / conv_s / 1e9 if conv_s else 0.0
    for op in OTHER_OPS + ("ewise",):
        for phase in ("fwd", "bwd"):
            m[f"tensor.{op}.{phase}_ms"] = op_ms(f"tensor.{op}.{phase}")
        m[f"tensor.{op}.calls"] = calls.get(f"tensor.{op}.fwd", 0) / n_ops
    m["tensor.backward_ms"] = op_ms("tensor.backward")
    m["network.forward_ms"] = op_ms("network.forward")
    for level in range(1, 5):
        m[f"attention.gate.l{level}.fwd_ms"] = op_ms(f"attention.gate.l{level}")
    for _cls, name in MODULE_SPANS:
        m[f"{name}.fwd_ms"] = op_ms(name)
    for _mod, _attr, name in FUNCTION_SPANS:
        if name != "tensor.backward":
            m[f"{name}_ms"] = call_ms(name)
    m["cli.predict.self_ms"] = call_ms("cli.predict", self_total)

    sub, total = run.grad_counts[0] if run.grad_counts else (0, 0)
    m["tensor.subnormal_grads"] = sub
    m["tensor.grad_elements"] = total
    m["tensor.subnormal_frac"] = sub / total if total else 0.0
    in_regime = [s >= SUBNORMAL_REGIME * t for s, t in run.grad_counts if t]
    m["tensor.subnormal_step_share"] = sum(in_regime) / len(in_regime) if in_regime else 0.0
    sizes = run.tape_sizes or [(0, 0)]
    m["tensor.tape_nodes"] = sum(s[0] for s in sizes) / len(sizes)
    m["tensor.tape_mib"] = sum(s[1] for s in sizes) / len(sizes) / 2 ** 20

    base = statistics.median(run.latencies) if run.latencies else 0.0
    extra = statistics.median(run.traced_latencies) - base if run.traced_latencies else 0.0
    m["trace.overhead_ms"] = 1000.0 * extra
    m["trace.overhead_pct"] = 100.0 * extra / base if base else 0.0
    return m
