"""One workload run, in the subprocess that `run.py` starts.

Imports snnkit from the checkout's `src/`, sets the workload up several
times, then runs passes in a closed loop until `--seconds` have passed and
at least MIN_SOLVES solves are timed; `--trace 0` also times the import again
in a few fresh interpreters, for `setup_s`.  With `--trace 1` the same time is
split: untraced passes first, then traced passes over inputs set up again
under the tracer, then one pass that also records the allocation peak of
`euclidean_refine`.  Prints one JSON line for `run.py` to read.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import snnkit  # noqa: E402

import spans  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

T_IMPORT = time.perf_counter() - T_START

SETUP_REPEATS = 5
IMPORT_REPEATS = 4       # fresh interpreters, besides this one
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, scipy, snnkit; "
                "print(time.perf_counter() - t)")
MIN_SOLVES = 11          # so that ten solves lie beyond the reported tail
MIN_TRACE_SOLVES = 3
# counts that must repeat exactly between passes and between runs of one seed
EXACT_COUNTS = ("core.enum_states", "zeroext.enum_states", "exact.bb_nodes",
                "inn.pruned_labels", "denoise.palette_size", "metric.cross.bytes_max")


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it, and its percentile."""
    s = sorted(times)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (len(s) - 10) / len(s) if len(s) > 10 else 0.0


def import_seconds() -> float:
    """Median import time of numpy, scipy and snnkit over this process and
    IMPORT_REPEATS fresh interpreters; one import alone varies by 10-20%."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [T_IMPORT]
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def loop(wl, inputs, tracer, seconds, min_solves, fault, label=None):
    """Closed loop of whole passes until `seconds` have passed and `min_solves` ran."""
    passes = []
    t0 = time.perf_counter()
    while True:
        with tracer.phase(label) if label else nullcontext():
            passes.append(wl.run_pass(inputs, tracer, fault))
        n = sum(len(p.solves) for p in passes)
        if time.perf_counter() - t0 >= seconds and n >= min_solves:
            return passes


def outcome(passes, objective):
    """Solves, their times, and the failures.  A pass over identical inputs whose
    objective differs from `objective` fails all of its solves."""
    for i, p in enumerate(passes):
        if p.objective != objective:
            p.fail_all(f"pass {i} objective {p.objective!r} != {objective!r}")
    solves = [s for p in passes for s in p.solves]
    return solves, [s.seconds for s in solves], [s.failure for s in solves if s.failure]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--inject-fault", choices=workloads.FAULTS)
    args = ap.parse_args(argv)

    if not Path(snnkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"snnkit imported from {snnkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.scale)
    tracer = spans.Tracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = loop(wl, inputs, tracer, seconds,
                 MIN_TRACE_SOLVES if args.trace else MIN_SOLVES, args.inject_fault)
    objective = plain[0].objective
    solves, times, failures = outcome(plain, objective)
    p50 = statistics.median(times)
    out = {"attempted": len(solves), "failed": len(failures),
           "env": {"python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__}}
    if not args.trace:
        t_tail, pct = tail(times)
        out.update(failures=failures[:5], samples=len(times), tail_percentile=pct, metrics={
            "setup_s": import_seconds() + statistics.median(setup_times),
            "solve_s.p50": p50,
            "solve_s.tail": t_tail,
            "queries_per_s": sum(s.queries for s in solves) / sum(times),
            "objective": objective,
        })
        print(json.dumps(out))
        return 0

    # traced: set up again under the tracer, time passes, then one memory pass
    tracer.install()
    try:
        with tracer.phase("setup"):
            inputs = wl.setup(args.seed)
        traced = loop(wl, inputs, tracer, seconds, MIN_TRACE_SOLVES, args.inject_fault,
                      "pass")
        tracer.track_memory = True
        with tracer.phase("memory"):
            traced.append(wl.run_pass(inputs, tracer, args.inject_fault))
    finally:
        tracer.track_memory = False
        tracer.uninstall()

    summaries = [tracer.phase_summary(i) for i in range(len(tracer.passes))]
    setup_sum, pass_sums = summaries[0], summaries[1:]
    ref = pass_sums[0]["counts"]
    for i, s in enumerate(pass_sums[1:], 1):
        differ = [k for k in EXACT_COUNTS + ("inn.stage2.exact", "inn.stage2.tree")
                  if s["counts"].get(k, 0) != ref.get(k, 0)]
        if differ:
            traced[i].fail_all(f"traced pass {i}: counts {differ} differ from pass 0")
    t_solves, _, t_failures = outcome(traced, objective)
    t_times = [s.seconds for p in traced[:-1] for s in p.solves]
    failures += t_failures
    out.update(attempted=len(solves) + len(t_solves), failed=len(failures),
               failures=failures[:5])
    out["metrics"] = layer_metrics(setup_sum, pass_sums[:-1], pass_sums[-1], traced[0],
                                   statistics.median(t_times) - p50)
    tracer.dump(ROOT / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "scale": args.scale})
    print(json.dumps(out))
    return 0


def layer_metrics(setup, passes, mem, first_pass, overhead) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts are per pass."""
    def t(name):
        return statistics.median(p["time"].get(name, 0.0) for p in passes)

    c = passes[0]["counts"]
    bf, bb, zx = t("core.brute_force_opt"), t("exact.bb_opt"), t("zeroext.zero_ext_exact")
    before = c.get("treesolve.cost_before_refine", 0.0)
    labels = c.get("inn.labels_before_pruning", 0)
    return {
        "core.brute_force_opt.s": bf,
        "core.enum_states": c.get("core.enum_states", 0),
        "core.enum_states_per_s": c.get("core.enum_states", 0) / bf if bf else 0.0,
        "zeroext.zero_ext_exact.s": zx,
        "zeroext.enum_states": c.get("zeroext.enum_states", 0),
        "exact.bb_opt.s": bb,
        "exact.bb_nodes": c.get("exact.bb_nodes", 0),
        "exact.bb_nodes_per_s": c.get("exact.bb_nodes", 0) / bb if bb else 0.0,
        "sparse.rplus_solve.s": t("sparse.rplus_solve"),
        "sparse.sparse_assign.s": t("sparse.sparse_assign"),
        "graphs.orient_edges.s": t("graphs.orient_edges"),
        "sparse.rplus_bound_ratio": first_pass.extras.get("sparse.rplus_bound_ratio", 0.0),
        "inn.pruned_label_set.s": t("inn.pruned_label_set"),
        "inn.pruned_labels": c.get("inn.pruned_labels", 0),
        "inn.prune_keep_ratio": c.get("inn.pruned_labels", 0) / labels if labels else 0.0,
        "inn.stage2.exact": c["inn.stage2.exact"],
        "inn.stage2.tree": c["inn.stage2.tree"],
        "nn.nn_map.s": t("nn.NnIndex.nn_map") + t("nn.lattice_nn_map"),
        "treesolve.descend.s": t("treesolve.descend"),
        "treemetric.build_tree_metric.s": t("treemetric.build_tree_metric"),
        "treesolve.euclidean_refine.s": t("treesolve.euclidean_refine"),
        "treesolve.euclidean_refine.peak_mb":
            mem["counts"].get("treesolve.euclidean_refine.peak_mb", 0.0),
        "treesolve.refine_gain":
            (before - c.get("treesolve.cost_after_refine", 0.0)) / before if before else 0.0,
        "metric.cross.calls": c.get("metric.cross.calls", 0),
        "metric.cross.bytes_max": c.get("metric.cross.bytes_max", 0),
        "metric.cross.bytes_total": c.get("metric.cross.bytes_total", 0),
        "denoise.add_noise.s": setup["time"].get("denoise.add_noise", 0.0),
        "denoise.pixel_instance.s": setup["time"].get("denoise.pixel_instance", 0.0),
        "denoise.palette_size": setup["counts"].get("denoise.palette_size", 0),
        "generators.random_instance.s": setup["time"].get("generators.random_instance", 0.0),
        "lowerbound.build_lower_bound_instance.s":
            setup["time"].get("lowerbound.build_lower_bound_instance", 0.0),
        "trace.overhead_s": overhead,
    }


if __name__ == "__main__":
    sys.exit(main())
