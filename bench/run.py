"""Seeded benchmark of csneighborly, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): certify-d64, faces-d16,
containment-d32.  Nothing is built: the package is imported from ``src/``.

``--trace 0`` repeats rounds for about S seconds (at least three).  Each round is a
fresh interpreter doing what one CLI run does: ``sylvester`` + ``build`` (the
set-up), then one sampled sweep with ``jobs=1``.  Round r draws its sample
with seed N*1000 + r.  Reported, times normalised to full host speed
(workloads.py says how and why; the raw medians are printed too):

  setup_s       median over rounds of sylvester + build with its verification
  wall_s        median of set-up plus sweep: time to verdict
  cpu_s         median of process CPU time over the same span
  ops_per_s     all ops / all sweep time; an op is one certificate row
                checked (certify) or one LP solved (faces, containment)
  peak_rss_mib  median of the round's peak resident set

``--trace 1`` runs a fixed set of rounds at the workload's trace size: one
untraced, one traced with ``jobs=1`` and one traced with ``jobs=2``, and
reports the per-layer metrics of spans.py, plus the tracing overhead
(normalised wall time, traced minus untraced), the ``jobs=2`` speed-up
(normalised sweep time, traced jobs=1 over traced jobs=2) and whether all
three reports are equal.  Deterministic
counters are kept in ``.bench_out/counters.json`` per (workload, seed,
source digest); ``counters.mismatched`` counts those that differ from an
earlier traced run of the same code and seed.

Every round's report is compared field by field with the expected report
(reference.py).  An op in a report part that differs, or in a round that
raised, counts as failed; ``failed_ops_frac`` is failed / attempted.  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics; the lines before it are a stamp and a readable summary.  Exit code 0
when every op is correct, 1 when not, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

from reference import Golden  # noqa: E402
from workloads import PACKAGE, SRC, WORKLOADS, expected, ops  # noqa: E402

MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0          # a run must end within 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
         "peak_rss_mib": "MiB"}
COUNTERS = (
    "certificate.rows_checked", "simplex.lp_calls", "simplex.pivots_total",
    "sampling.draws", "blocks.row_calls", "exact.matmul_calls",
    "simplex.pivots_per_lp.p50", "simplex.pivots_per_lp.max",
    "simplex.witness_den_bits_max",
)


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def tree_digest(top: str, suffix: str = ".py") -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(suffix):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def stamp(args, spec) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "spec": spec, "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(), "src_digest": tree_digest(SRC),
        "bench_digest": tree_digest(BENCH),
    }


def child(spec, seed, jobs, trace, deadline):
    """One round in a fresh interpreter; returns (result or None, error)."""
    request = json.dumps({"spec": spec, "seed": seed, "jobs": jobs,
                          "trace": trace})
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "workloads.py"), request],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"round timed out after {timeout:.0f} s"
    if done.returncode != 0:
        return None, (done.stderr.strip().splitlines() or ["round failed"])[-1]
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def failed_ops(spec, seed, out, golden) -> int:
    """Ops whose part of the report differs from the expected report."""
    want = expected(spec, seed, golden)
    got = out["report"]
    if got == want:
        return 0
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            print(f"# mismatch {spec['kind']} seed={seed} {key}: "
                  f"expected {want.get(key)!r}, got {got.get(key)!r}",
                  file=sys.stderr)
    if spec["kind"] == "certify" and all(
            want[k] == got.get(k) for k in want if k != "blocks"):
        return sum(w["rows_checked"] for w, g in
                   zip(want["blocks"], got.get("blocks", ())) if w != g) or \
            ops(spec)
    return ops(spec)


def round_metrics(rounds, view) -> dict:
    """End-to-end metrics over rounds; view picks normalised or raw times.

    Times are medians over rounds.  ops_per_s is all ops over all sweep
    time, because per-round rates scatter with the sampled inputs.
    """
    med = statistics.median
    times = [view(r) for r in rounds]
    return {
        "setup_s": med(t["setup_s"] for t in times),
        "wall_s": med(t["wall_s"] for t in times),
        "cpu_s": med(t["cpu_s"] for t in times),
        "ops_per_s": sum(r["ops"] for r in rounds) /
        sum(t["sweep_s"] for t in times),
        "peak_rss_mib": med(r["peak_rss_mib"] for r in rounds),
    }


def timed_run(spec, seed, seconds, golden, deadline):
    """Rounds for about `seconds` (at least MIN_ROUNDS) and their metrics.

    A round is started only if it is expected to end nearer to `seconds`
    than the run would end without it, so runs overshoot by at most half a
    round.
    """
    rounds, took = [], []         # took: seconds per round, gate included
    attempted = failed = 0
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or (
            time.monotonic() - start + statistics.median(took) / 2 < seconds
            and time.monotonic() + 2 * max(took) < deadline):
        t0 = time.monotonic()
        rs = round_seed(seed, len(rounds))
        out, error = child(spec, rs, 1, False, deadline)
        attempted += ops(spec)
        if out is None:
            print(f"# round failed: {error}", file=sys.stderr)
            failed += ops(spec)
            break
        failed += failed_ops(spec, rs, out, golden)
        took.append(time.monotonic() - t0)
        rounds.append(out)
    if not rounds:
        return attempted, failed, {}, {}
    metrics = round_metrics(rounds, lambda r: r)
    raw = round_metrics(rounds, lambda r: r["raw"])
    speeds = [r["speed"] for r in rounds]
    print(f"# host speed (calibration, 1 = full speed): median "
          f"{statistics.median(speeds):.3f}, min {min(speeds):.3f}, "
          f"max {max(speeds):.3f}; rounds {len(rounds)}")
    print("# raw (not normalised): " + " ".join(
        f"{k}={v:.6g}" for k, v in raw.items()))
    per_round = {k: [r[k] for r in rounds]
                 for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")}
    return attempted, failed, {k: (v, UNITS[k]) for k, v in metrics.items()}, \
        per_round


def counter_check(name, seed, layers, src_digest, bench_digest) -> int:
    """Counters that differ from an earlier traced run of the same code."""
    path = os.path.join(OUT_DIR, "counters.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = f"{name}|seed={seed}|src={src_digest}|bench={bench_digest}"
    now = {c: layers[c][0] for c in COUNTERS}
    before = seen.get(key)
    if before is None:
        seen[key] = now
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return 0
    bad = [c for c in COUNTERS if before.get(c) != now[c]]
    for c in bad:
        print(f"# counter {c} changed: {before.get(c)} -> {now[c]}",
              file=sys.stderr)
    return len(bad)


def traced_run(name, spec, seed, golden, deadline, digests):
    """Untraced, traced and traced jobs=2 rounds of the same inputs."""
    tspec = dict(spec, size=spec["trace_size"])
    rs = round_seed(seed, 0)
    outs, attempted, failed = [], 0, 0
    for jobs, trace in ((1, False), (1, True), (2, True)):
        out, error = child(tspec, rs, jobs, trace, deadline)
        attempted += ops(tspec)
        if out is None:
            print(f"# round failed: {error}", file=sys.stderr)
            return attempted, failed + ops(tspec), {}, {}
        failed += failed_ops(tspec, rs, out, golden)
        outs.append(out)
    plain, traced, pooled = outs
    if traced["missing"]:
        print(f"# not traced (absent in this version): {traced['missing']}",
              file=sys.stderr)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics.update({
        "pool.speedup_jobs2": (traced["sweep_s"] / pooled["sweep_s"], "x"),
        "pool.reports_equal": (int(pooled["report"] == plain["report"]), "bool"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
        "trace.reports_equal": (int(traced["report"] == plain["report"]),
                                "bool"),
        "counters.mismatched": (
            counter_check(name, seed, metrics, *digests), "count"),
    })
    return attempted, failed, metrics, {}


def summary(name, seed, attempted, failed, metrics, per_round) -> None:
    frac = failed / attempted if attempted else 1.0
    rounds = len(per_round.get("wall_s", ()))
    print(f"# {name} seed={seed} rounds={rounds} attempted={attempted} "
          f"failed={failed} failed_ops_frac={frac:g} ratio")
    for key, (value, unit) in metrics.items():
        values = per_round.get(key)
        spread = f"  (min {min(values):.6g}, max {max(values):.6g}, " \
                 f"n={len(values)})" if values else ""
        print(f"#   {key} = {value:.6g} {unit}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: package source {os.path.join(SRC, PACKAGE)} not found",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    spec = WORKLOADS[args.workload]
    info = stamp(args, spec)
    print("# stamp " + json.dumps(info, sort_keys=True))
    golden = Golden()
    if args.trace:
        attempted, failed, metrics, per_round = traced_run(
            args.workload, spec, args.seed, golden, deadline,
            (info["src_digest"], info["bench_digest"]))
    else:
        attempted, failed, metrics, per_round = timed_run(
            spec, args.seed, args.seconds, golden, deadline)
    summary(args.workload, args.seed, attempted, failed, metrics, per_round)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
