"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs a scaled-down copy of every workload, untraced and traced, through
``run.main``.  Each run must pass its correctness checks, print every metric
of ``BENCHMARK.json`` with its unit on the last line, and leave every
function and method the tracer wraps as it was.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402
from fudsa import attention, network  # noqa: E402
from fudsa import tensor as T  # noqa: E402

TINY = {
    "train64": replace(workloads.WORKLOADS["train64"], levels=2, channels=4, size=32,
                       batch=2, n_images=4, lr=3e-3),
    "ablation32": replace(workloads.WORKLOADS["ablation32"], levels=2, channels=4,
                          size=16, batch=4, n_images=10),
    "predict64": replace(workloads.WORKLOADS["predict64"], levels=2, channels=4, size=32,
                         pool=2),
}
TINY_CONSTANTS = {"SETUP_REPS": 1, "MAX_WARMUP_STEPS": 3}


def _patchable_state():
    """Every attribute the tracer may replace, by identity."""
    mods = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "fudsa"]
    state = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    classes = [T.Tape, network.FudsaNet, attention.AttentionGate,
               *(cls for cls, _ in tracing.MODULE_SPANS)]
    for cls in classes:
        state.update({(cls.__qualname__, k): id(v) for k, v in vars(cls).items()})
    return state


def check_workload(name, trace, declared):
    before = _patchable_state()
    out = io.StringIO()
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS[name] = TINY[name]
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "424242", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"exit {code}, result {result['correct']}, {result['failed']} failed")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        problems.append(f"bad result keys or attempted: {sorted(result)}")
    wanted = declared["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{m['name']}: {got}")
    if _patchable_state() != before:
        problems.append("tracer left a function or method patched")
    return problems


def main():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for k, v in TINY_CONSTANTS.items():
        setattr(workloads, k, v)
    failed = False
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems = check_workload(name, trace, declared)
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
