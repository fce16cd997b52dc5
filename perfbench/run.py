"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-graph-p2 --seed 1 --seconds 20 --trace 0

Run from the repository root: the benchmark imports ``aepn`` from ``src/``
there and nowhere else.  With ``--trace 0`` it prints every end-to-end
metric with its unit and the output-check verdict; with ``--trace 1`` it
then runs the same operations again with every layer wrapped in spans and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Traced runs also write their spans under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-graph-p2", "train-vector-p2", "sim-greedy-p2-h200")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the traced run's named spans must cover at least this share of its wall time
MIN_COVERAGE = 0.9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """One process: BLAS may use every core this process may run on."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def import_aepn():
    src = ROOT / "src"
    if not (src / "aepn" / "__init__.py").is_file():
        raise SystemExit(f"error: no aepn sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import aepn
    if Path(aepn.__file__).resolve().parent != (src / "aepn").resolve():
        raise SystemExit(f"error: imported aepn from {aepn.__file__}, not {src}")


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cap = cap_blas_threads()
    load1 = os.getloadavg()[0]
    import_aepn()
    import numpy as np
    import spans
    import workloads

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={cap} loadavg_1m={load1:.2f}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    base = workloads.run(args.workload, args.seed, args.seconds)
    tally = base.tally
    if args.trace:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            again = workloads.run(args.workload, args.seed, args.seconds,
                                  rounds=base.rounds)
        tally.attempted += again.tally.attempted
        tally.failures += again.tally.failures
        metrics = spans.layer_metrics(tracer, base.work_s, again.work_s, again.wall_s)
        units = spans.PER_LAYER
        same = again.workload.returns == base.workload.returns
        print(f"traced run: {again.rounds} rounds, {len(tracer.names)} spans, "
              f"outputs {'identical to' if same else 'DIFFER from'} the untraced run")
        for target in tracer.missing:
            print(f"span target missing, reported as never called: {target}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = base.metrics()
        units = workloads.END_TO_END
    print_metrics(metrics, units)
    print(f"  failed_frac {tally.failed}/{tally.attempted} = {tally.failed_frac:.4g}")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")
    if args.trace:
        share = metrics["trace.uncovered_frac"]
        print(f"coverage: {share:.1%} of the traced wall time is in no span "
              f"({'ok' if share <= 1 - MIN_COVERAGE else 'LOW'}), tracing overhead "
              f"{metrics['trace.overhead_frac']:.1%}")
    print(f"check: {'PASS' if tally.failed == 0 else 'FAIL'}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
