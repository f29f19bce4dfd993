"""Steadiness check of the benchmark across seeds.

    python3 perfbench/steady.py --workload exact-certify --seeds 1-10

Runs `run.py --trace 0` once per seed, in two sets, and for every end-to-end
metric of BENCHMARK.json prints the median and the spread of each set: the
distance between the first and third quartile as a share of the median.
Every spread must stay within the metric's bound; "steady" means below a
third of it.  The second set's median may not be worse than the first's by
more than the bound.

Then the first COUNT_SEEDS seeds run `--trace 1` twice each, and the counts
in EXACT_COUNTS must repeat exactly.  Every run must pass its own output
checks.  Exits 1 when anything fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import EXACT_COUNTS  # noqa: E402

SETS = 2
COUNT_SEEDS = 2


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit"] = proc.returncode
    return result


def spread(values) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    problems = []
    sets = []
    for n in range(SETS):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            r = run(args.workload, seed, seconds, 0)
            if r["exit"] != 0 or not r.get("correct"):
                problems.append(f"set {n} seed {seed}: exit {r['exit']}, correct "
                                f"{r.get('correct')}")
                continue
            line = {k: m["value"] for k, m in r["metrics"].items()}
            print(f"set {n} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in line.items()),
                  flush=True)
            for k, v in line.items():
                values.setdefault(k, []).append(v)
        sets.append(values)

    for n, values in enumerate(sets):
        for m in bench["end_to_end"]:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                problems.append(f"set {n} {m['name']}: too few runs")
                continue
            med, sp = spread(vals)
            verdict = "steady" if sp < m["bound"] / 3 else "within" if sp <= m["bound"] else "WIDE"
            if verdict == "WIDE":
                problems.append(f"set {n} {m['name']}: spread {sp:.4f} > bound {m['bound']}")
            print(f"set {n} {m['name']:<16} median {med:.6g} {m['unit']:<5} spread {sp:.4f} "
                  f"bound {m['bound']} {verdict}")
            if n:
                first = statistics.median(sets[0][m["name"]])
                worse = (med - first) / first * (1 if m["better"] == "lower" else -1)
                print(f"      second median vs first: {worse:+.4f} (bound {m['bound']})")
                if worse > m["bound"]:
                    problems.append(f"{m['name']}: second median worse by {worse:.4f}")

    for seed in args.seeds[:COUNT_SEEDS]:
        a, b = (run(args.workload, seed, seconds, 1) for _ in range(2))
        for r in (a, b):
            if r["exit"] != 0 or not r.get("correct"):
                problems.append(f"traced seed {seed}: exit {r['exit']}")
        if "metrics" not in a or "metrics" not in b:
            continue
        for key in EXACT_COUNTS:
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            print(f"seed {seed} {key}: {va} / {vb}")
            if va != vb:
                problems.append(f"seed {seed} {key} did not repeat: {va} != {vb}")
        print(f"seed {seed} trace.overhead_s: {a['metrics']['trace.overhead_s']['value']:.6g} / "
              f"{b['metrics']['trace.overhead_s']['value']:.6g}")

    for p in problems:
        print("FAIL " + p)
    print("steady check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
