"""Run the benchmark over several seeds and summarise the spread.

Usage, from the repository root:

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--seconds S]
                             [--trace] [--out FILE]

For every workload and seed this runs ``bench/run.py`` once (and once more
with ``--trace 1`` for the first seed when ``--trace`` is given) and prints
its end-to-end metrics with units and its failed_ops_frac.  It then prints
for each end-to-end metric the median over seeds and the quartile spread,
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``, next to
the metric's bound from BENCHMARK.json.  ``--out`` writes every run's stamp,
metrics and the summary as JSON.  Exit code 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = done.stdout.strip().splitlines()
    stamp = next((json.loads(ln[len("# stamp "):]) for ln in lines
                  if ln.startswith("# stamp ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return {"seed": seed, "trace": trace, "exit": done.returncode,
            "stamp": stamp, "result": result,
            "summary": [ln for ln in lines
                        if ln.startswith("# ") and not ln.startswith("# stamp")],
            "stderr": done.stderr.strip().splitlines()[-5:]}


def spread(values) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(one_run(workload, seed, args.seconds, 0))
            r = runs[-1]
            ok &= r["exit"] == 0 and bool(r["result"]) and r["result"]["correct"]
            res = r["result"] or {}
            frac = res["failed"] / res["attempted"] if res else 1.0
            print(f"{workload} seed={seed} exit={r['exit']} " + " ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in
                res.get("metrics", {}).items()) +
                f" failed_ops_frac={frac:g} ratio", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if r["result"] and name in r["result"]["metrics"]]
            if len(values) < 2:
                continue
            med, rel = spread(values)
            summary[name] = {"median": med, "iqr_over_median": rel,
                             "bound": bound, "n": len(values)}
            print(f"  {name}: median {med:.6g}  spread {rel:.4f}  "
                  f"bound {bound}  ({rel / bound:.2f} of bound)")
        traced = None
        if args.trace:
            traced = one_run(workload, seed_list(args.seeds)[0], args.seconds, 1)
            ok &= traced["exit"] == 0
            print("\n".join(traced["summary"]))
        doc["workloads"][workload] = {"runs": runs, "summary": summary,
                                      "traced": traced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
