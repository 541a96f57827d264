"""Benchmark entry point.

    python3 perfbench/run.py --workload formation --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dqeig is imported from its src/.
Prints a summary, writes a report under perfbench/out/, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, pinned before numpy is first imported, and DQEIG_THREADS
# unset, so every solve runs sequentially in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
DQEIG_THREADS = os.environ.pop("DQEIG_THREADS", None)

import harness  # noqa: E402  (numpy loads only after the pinning above)
import machine  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_dqeig():
    """Import dqeig from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dqeig" / "__init__.py").is_file():
        sys.exit(f"error: no dqeig sources under {src}")
    sys.path.insert(0, str(src))
    import dqeig

    if Path(dqeig.__file__).resolve().parent != src / "dqeig":
        sys.exit(f"error: dqeig imported from {dqeig.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SOLVERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_dqeig()

    env = machine.environment(ROOT, args.seed, DQEIG_THREADS)
    run = harness.Run(args.workload, args.seed, str(ROOT))
    result, detail = run.execute(args.seconds, args.trace)

    report = os.path.join(
        run.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    harness.write_report(report, vars(args), env, result, detail)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, default=str))
    for name, st in sorted((detail.get("solvers") or detail["solvers_untraced"]).items()):
        if st["samples"]:
            print(f"  {name:9s} samples={st['samples']:4d} p50={st['s_p50']:.4g}s "
                  f"tail={st['s_tail']:.4g}s (p{st['tail_pct']:.0f}, {st['tail_beyond']} beyond)")
        if st["work_samples"]:
            print(f"  {name:9s} over floor: p50={st['x_floor_p50']:.4g}x "
                  f"tail={st['x_floor_tail']:.4g}x ({st['work_samples']} solves)")
    if detail.get("absent_spans"):
        print("absent spans: " + ", ".join(detail["absent_spans"]))
    for line in detail["failures"]:
        print("failed: " + line)
    print(f"report: {os.path.relpath(report, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
