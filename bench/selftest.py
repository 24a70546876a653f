"""Quick self-test of the benchmark itself (about 15 s).

Usage, from the repository root:

    python3 bench/selftest.py

Runs each workload shape at d = 8 through the same timed and traced code
paths as run.py and checks that:

  * every metric named in BENCHMARK.json is reported, with its unit, and
    nothing else is;
  * every round passes the correctness gate, tracing and jobs=2 leave the
    reports unchanged, and counters repeat those of the last self-test of
    the same code;
  * the gate's own row and subset orderings agree with the package's
    enumeration order, and a report with one exact value changed fails it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import time
from itertools import islice

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
from workloads import SRC  # noqa: E402

SMALL = {
    "certify-d8": {"kind": "certify", "d": 8, "size": 20, "trace_size": 20},
    "faces-d8": {"kind": "faces", "d": 8, "size": 100, "trace_size": 100},
    "containment-d8": {
        "kind": "containment", "d": 8, "size": 50, "trace_size": 50},
}


def check_metrics(where, metrics, wanted) -> None:
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        raise AssertionError(f"{where}: metrics {got} != declared {wanted}")
    for name, (value, _) in metrics.items():
        if not isinstance(value, (int, float)):
            raise AssertionError(f"{where}: {name} = {value!r} is not a number")


def check_orderings() -> None:
    sys.path.insert(0, SRC)
    from csneighborly import blocks

    for d, l in ((6, 0), (6, 2), (7, 3), (16, 2)):
        for r, row in enumerate(blocks.iter_signed_rows(d, l)):
            if reference.signed_row(d, l, r) != (row.support, row.signs):
                raise AssertionError(f"signed row order differs at {d},{l},{r}")
    for d, k in ((8, 2), (16, 2)):
        for l in range(k + 1):
            stream = blocks.block_rows(d, k, l)
            for index, (left, right) in islice(enumerate(stream), 0, None, 7):
                want = ((left.support, left.signs), (right.support, right.signs))
                if reference.block_row(d, k, l, index) != want:
                    raise AssertionError(f"block row order differs at {index}")
    m, k = 32, 2
    for r in range(0, 496, 5):
        if reference.support(m, k, r) != blocks.unrank_support(m, k, r):
            raise AssertionError(f"support order differs at {r}")


def check_gate_catches(golden) -> None:
    spec = SMALL["faces-d8"]
    out, error = run.child(spec, 5, 1, False, time.monotonic() + 60)
    if out is None:
        raise AssertionError(error)
    if run.failed_ops(spec, 5, out, golden) != 0:
        raise AssertionError("gate rejects a correct report")
    bad = copy.deepcopy(out)
    bad["report"]["min_margin"] = "1/1000"
    with contextlib.redirect_stderr(io.StringIO()):
        caught = run.failed_ops(spec, 5, bad, golden)
    if caught != spec["size"]:
        raise AssertionError("gate accepts a wrong min_margin")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")

    golden = reference.Golden()
    digests = (run.tree_digest(SRC), run.tree_digest(BENCH))
    check_orderings()
    check_gate_catches(golden)
    for name, spec in SMALL.items():
        t0 = time.monotonic()
        deadline = t0 + 120
        attempted, failed, metrics, _ = run.timed_run(
            spec, 3, 0.5, golden, deadline)
        if failed or not attempted:
            raise AssertionError(f"{name}: {failed} of {attempted} ops failed")
        check_metrics(f"{name} trace 0", metrics, end_to_end)
        attempted, failed, metrics, _ = run.traced_run(
            f"selftest-{name}", spec, 3, golden, deadline, digests)
        if failed or not attempted:
            raise AssertionError(f"{name}: {failed} of {attempted} ops failed")
        check_metrics(f"{name} trace 1", metrics, per_layer)
        for flag, want in (("pool.reports_equal", 1),
                           ("trace.reports_equal", 1),
                           ("counters.mismatched", 0)):
            if metrics[flag][0] != want:
                raise AssertionError(f"{name}: {flag} is {metrics[flag][0]}")
        print(f"{name}: ok ({time.monotonic() - t0:.1f} s)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
