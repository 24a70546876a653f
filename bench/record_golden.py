"""Record the exact oracle outputs that the benchmark's correctness gate uses.

Usage (from the repository root):

    python3 bench/record_golden.py

For every input the sampled workloads can draw, this solves the LP once and
stores the exact margin:

  * faces: every canonical antipode-free k-subset at d = 8 (k = 1) and
    d = 16 (k = 2), keyed by its ((index, sign), ...) tuple;
  * containment: every vertex of the weight-k section at d = 8 (k = 1) and
    d = 32 (k = 2), listed per block in block-row order.

A sampled run of any seed is then checked against these tables without
solving anything again.  The tables hold the values of the commit that
recorded them; re-record only from a commit whose oracle outputs are known
to be right, never to make a failing gate pass.  d = 32 containment solves
8064 LPs: about 34 minutes on one core of a 2.0 GHz Xeon.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from csneighborly import oracle  # noqa: E402
from csneighborly.blocks import block_rows  # noqa: E402
from csneighborly.construction import build  # noqa: E402
from csneighborly.hadamard import sylvester  # noqa: E402

GOLDEN = os.path.join(ROOT, "bench", "golden.json")
FACES = ((8, 1), (16, 2))
CONTAINMENT = ((8, 1), (32, 2))

def subset_key(subset) -> str:
    return ",".join(f"{i}{'+' if s > 0 else '-'}" for i, s in subset)


def record() -> dict:
    doc = {"faces": {}, "containment": {}}
    for d, k in FACES:
        con = build(sylvester(d.bit_length() - 1))
        t0 = time.monotonic()
        table = {}
        for subset in oracle.canonical_subsets(con.m, k):
            rep = oracle.is_face(con, subset)
            if rep.status != "face":
                raise SystemExit(f"faces d={d}: {subset} is {rep.status}")
            table[subset_key(subset)] = str(rep.margin)
        doc["faces"][f"{d}/{k}"] = table
        print(f"faces d={d} k={k}: {len(table)} subsets, "
              f"{time.monotonic() - t0:.1f} s", flush=True)
    for d, k in CONTAINMENT:
        con = build(sylvester(d.bit_length() - 1))
        t0 = time.monotonic()
        blocks = []
        for l in range(k + 1):
            margins = [
                oracle.membership_margin(con, left.dense() + right.dense())[0]
                for left, right in block_rows(d, k, l)
            ]
            if min(margins) < 0:
                raise SystemExit(f"containment d={d}: negative margin")
            values = sorted(set(margins))
            index = {v: i for i, v in enumerate(values)}
            blocks.append({"values": [str(v) for v in values],
                           "rows": [index[m] for m in margins]})
            print(f"containment d={d} k={k} l={l}: {len(margins)} points, "
                  f"{time.monotonic() - t0:.1f} s", flush=True)
        doc["containment"][f"{d}/{k}"] = blocks
    return doc


def main() -> int:
    doc = record()
    tmp = GOLDEN + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
