"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train64 --seed 0 --seconds 20 --trace 0

Run from the root of a fudsa checkout; the package is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The same record, with the environment,
is written to ``perfbench/out/``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def git_sha(root):
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(ROOT),
    }


# Names the summary prints next to the generic metric names, per workload kind.
ALIASES = {
    "train": {"latency_ms.p50": "step_ms.p50", "latency_ms.p90": "step_ms.p90",
              "throughput_per_s": "train_samples_per_s"},
    "predict": {"latency_ms.p50": "predict_ms.p50", "latency_ms.p90": "predict_ms.p90",
                "throughput_per_s": "predict_images_per_s"},
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fudsa" / "__init__.py").is_file():
        print(f"error: no fudsa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    tracer = tracing.Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        values = tracing.layer_metrics(tracer, run)
        tracer.write(OUT / f"{stem}-spans.jsonl")
    else:
        values = run.end_to_end()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    kind = "predict" if isinstance(workloads.WORKLOADS[args.workload],
                                   workloads.PredictSpec) else "train"
    n = len(run.traced_latencies if tracer else run.latencies)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.ops} timed operations, {n} in the latency sample")
    for name, m in metrics.items():
        alias = ALIASES[kind].get(name)
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']:8s}"
              + (f" ({alias})" if alias else ""))
    print(f"  {'fail_ratio':34s} {run.failed / run.attempted:14.4f} "
          f"{'ratio':8s} ({run.failed} of {run.attempted} checks failed)")
    for what in run.failures[:20]:
        print(f"  FAIL {what}")

    env = environment(np)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "failures": run.failures,
              "latencies_ms": [1000.0 * t for t in run.latencies],
              "traced_latencies_ms": [1000.0 * t for t in run.traced_latencies],
              "correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
