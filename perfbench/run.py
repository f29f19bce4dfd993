"""snnkit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload palette-gaussian --seed 42 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in its own subprocess
with the BLAS thread count fixed (at most 2, never more than the CPUs this
process may use); its peak RSS is read when it exits.  Prints the metrics one
per line, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
Exits 1 when any solve failed a check or a budget, 2 when the run itself
could not be made (no snnkit sources, a crashed or hung workload).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see measure.py), whose spans are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the benchmark's own tests")
    ap.add_argument("--inject-fault", choices=("off-palette", "total"),
                    help="corrupt every output before it is checked (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "snnkit" / "__init__.py").is_file():
        print(f"no snnkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    threads = blas_threads()
    env = dict(os.environ, **{v: str(threads) for v in BLAS_VARS})
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    if proc.returncode != 0 or not stdout.strip():
        print(f"workload exited with code {proc.returncode}", file=sys.stderr)
        return 2
    child = json.loads(stdout.strip().splitlines()[-1])
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    declared = bench["per_layer" if args.trace else "end_to_end"]
    values = dict(child["metrics"])
    if not args.trace:
        values["peak_rss_mb"] = peak_mib
    if set(values) != {m["name"] for m in declared}:
        print(f"workload metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env_line = dict(child["env"], nproc=len(os.sched_getaffinity(0)), blas_threads=threads)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"scale={args.scale} loop=closed clients=1")
    print("# env " + " ".join(f"{k}={v}" for k, v in env_line.items()))
    for name, m in metrics.items():
        note = ""
        if name == "solve_s.tail":
            note = f"  (p{child['tail_percentile']:.1f} of n={child['samples']} solves)"
        elif name == "solve_s.p50":
            note = f"  (n={child['samples']} solves)"
        elif name.startswith("metric.cross.bytes"):
            note = "  (computed from output shapes)"
        print(f"{name:<42} {m['value']:>18.6g} {m['unit']}{note}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"{'error_rate':<42} {failed / attempted:>18.6g} ratio  ({failed}/{attempted})")
    for reason in child.get("failures", []):
        print(f"# failure: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
