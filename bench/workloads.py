"""The benchmark's workloads and the round that each measurement repeats.

A round is what one CLI run does, through the same library calls and
arguments: ``sylvester`` and ``build`` (the set-up), then one sampled sweep.
Each round runs in a fresh interpreter, as each CLI run does, so nothing a
round leaves in memory can make the next one cheaper.

Times are normalised to full host speed.  The benchmark was written on a
shared 2-core host whose CPU runs, for stretches of a second to a minute, up
to 2x slower; raw medians of 35-s runs spread by 15-30% between runs.  Each
phase (set-up, sweep) is therefore bracketed by short calibration kernels of
the same kind of arithmetic, and its measured time is multiplied by the mean
speed they saw (1 = full speed).  The kernels are benchmark code and do not
call the package, so a change to the package cannot move them.  The raw
times are returned beside the normalised ones.

Run as ``python3 bench/workloads.py '<json spec>'`` to execute one round and
print its timings and report as one JSON line; ``run.py`` does this.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from math import isqrt

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE = "csneighborly"
DEFAULT_CAP = 1_000_000          # the CLI's exhaustive cap; unused in sample mode

# size: rows sampled per block (certify), subsets (faces) or vertices sampled
# per block (containment) in a timed round.  trace_size is the traced round's
# size; containment needs 34 per block there so that the LP time percentile
# p90 has at least ten samples beyond it.  Why each workload was chosen, and
# why larger ones were left out, is recorded in BENCHMARK.json.
WORKLOADS = {
    "certify-d64": {"kind": "certify", "d": 64, "size": 300, "trace_size": 300},
    "faces-d16": {"kind": "faces", "d": 16, "size": 50, "trace_size": 100},
    "containment-d32": {
        "kind": "containment", "d": 32, "size": 6, "trace_size": 34},
}


def ops(spec: dict) -> int:
    """Operations in one round: certificate rows checked or LPs solved."""
    size, k = spec["size"], isqrt(spec["d"]) // 2
    if spec["kind"] == "certify":
        return (k + 1) * (size + 2)
    if spec["kind"] == "faces":
        return size
    return (k + 1) * size


def sweep(spec: dict, con, seed: int, jobs: int):
    """The sampled sweep the CLI runs for this workload kind."""
    from csneighborly import certificate, oracle

    kind, size = spec["kind"], spec["size"]
    if kind == "certify":     # certify --sample SIZE --seed S --jobs J
        return certificate.verify_conditions(
            con, mode="sample", row_cap=DEFAULT_CAP, sample_rows=size,
            seed=seed, jobs=jobs)
    common = dict(k=con.k, mode="sample", cap=DEFAULT_CAP, samples=size,
                  seed=seed, jobs=jobs)
    if kind == "faces":       # verify --check faces --mode sample
        return oracle.verify_k_neighborly(con, **common)
    return oracle.projection_containment(con, **common)   # --check containment


def expected(spec: dict, seed: int, golden) -> dict:
    """The report the gate requires for this round."""
    import reference

    d, size = spec["d"], spec["size"]
    k = reference.params(d)[0]
    if spec["kind"] == "certify":
        return reference.expected_certify(d, size, seed)
    if spec["kind"] == "faces":
        return reference.expected_faces(golden, d, k, size, seed)
    return reference.expected_containment(golden, d, k, size, seed)


def _fraction_kernel():
    for i in range(1, 300):
        (Fraction(i, i % 7 + 3) * Fraction(i % 5 + 1, i + 2)).numerator


_XS = list(range(-32, 32))


def _dot_kernel():
    for r in range(300):
        r %= 64
        sum(a * b for a, b in zip(_XS, _XS[r:] + _XS[:r]))


_BIG = [(i * 7919) ** 9 % (1 << 160) - (1 << 159) for i in range(130)]
_PIV = [(i * 104729) ** 9 % (1 << 160) for i in range(130)]


def _bigint_kernel():
    for i in range(1, 40):
        p, f, den = _PIV[i], _BIG[i], _PIV[i - 1] | 1
        [(a * p - f * b) // den for a, b in zip(_BIG, _PIV)]


# Calibration kernels and their times at full speed on the 2.0 GHz Xeon the
# benchmark was written on (min over a minute).  On a shared host the CPU
# runs at times up to 2x slower, and code of each kind slows by a different
# factor, so each phase is calibrated with kernels of its own arithmetic:
# Fraction products (build), small-int dot products (certificate rows) and
# big-int row updates (simplex pivots).
KERNELS = {
    "fraction": (_fraction_kernel, 0.00079),
    "dot": (_dot_kernel, 0.00117),
    "bigint": (_bigint_kernel, 0.0025),
}
SETUP_KERNELS = ("fraction",)
SWEEP_KERNELS = {"certify": ("dot",), "faces": ("fraction", "bigint"),
                 "containment": ("bigint",)}
CAL_SECONDS = 0.03


def host_speed(kernels) -> float:
    """Current speed relative to full speed, averaged over the kernels."""
    speeds = []
    for name in kernels:
        fn, full = KERNELS[name]
        times = []
        end = time.perf_counter() + CAL_SECONDS
        while len(times) < 5 or time.perf_counter() < end:
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        speeds.append(full / statistics.median(times))
    return statistics.fmean(speeds)


def run_round(spec: dict, seed: int, jobs: int, trace: bool) -> dict:
    """Set up and sweep once in this process; returns timings and report.

    setup_s, sweep_s, wall_s (their sum) and cpu_s are normalised; "raw"
    holds the same times as measured and "speed" the mean host speed.
    Traced rounds add the per-layer metrics of spans.py, in raw times.
    """
    sys.path.insert(0, SRC)
    from csneighborly import construction, hadamard
    from reference import report_dict
    from spans import Tracer, layer_metrics

    tracer = None
    if trace:
        tracer = Tracer(PACKAGE)
        tracer.install()
    d = spec["d"]
    sweep_kernels = SWEEP_KERNELS[spec["kind"]]
    # host speed while each phase ran: the mean of calibrations around it
    setup_speed = host_speed(SETUP_KERNELS)
    w0, c0 = time.perf_counter(), time.process_time()
    h = hadamard.sylvester(d.bit_length() - 1)
    con = construction.build(h)
    w1, c1 = time.perf_counter(), time.process_time()
    setup_speed = (setup_speed + host_speed(SETUP_KERNELS)) / 2
    sweep_speed = host_speed(sweep_kernels)
    w2, c2 = time.perf_counter(), time.process_time()
    report = sweep(spec, con, seed, jobs)
    w3, c3 = time.perf_counter(), time.process_time()
    sweep_speed = (sweep_speed + host_speed(sweep_kernels)) / 2
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {"setup_s": w1 - w0, "sweep_s": w3 - w2, "wall_s": w1 - w0 + w3 - w2,
           "cpu_s": c1 - c0 + c3 - c2}
    out = {
        "setup_s": raw["setup_s"] * setup_speed,
        "sweep_s": raw["sweep_s"] * sweep_speed,
        "cpu_s": (c1 - c0) * setup_speed + (c3 - c2) * sweep_speed,
        "peak_rss_mib": rss_mib, "raw": raw,
        "speed": (setup_speed + sweep_speed) / 2,
        "ops": ops(spec), "report": report_dict(report),
    }
    out["wall_s"] = out["setup_s"] + out["sweep_s"]
    if tracer is not None:
        tracer.uninstall()
        t = time.perf_counter()
        construction.build(h, verify=False)
        noverify_s = time.perf_counter() - t
        rows = sum(b.rows_checked for b in getattr(report, "blocks", ()))
        out["layers"] = layer_metrics(tracer, w3 - w2, rows, noverify_s)
        out["missing"] = tracer.missing
    return out


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    result = run_round(request["spec"], request["seed"], request["jobs"],
                       request["trace"])
    sys.stdout.write(json.dumps(result) + "\n")
