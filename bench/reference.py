"""Expected reports for the benchmark's correctness gate.

Every sweep the benchmark runs is sampled from a seed, so the expected report
is rebuilt here for that seed without calling the package:

  * the sampled indices come from a separate copy of SplitMix64 and of the
    frozen row and subset orderings;
  * certificate maxima come from the closed form of the Sylvester matrix,
    H[i][j] = (-1)^popcount(i & j), and the theorem's verdict (every
    condition holds);
  * LP margins come from ``golden.json``, which holds the exact margin of
    every input the LP workloads can draw, recorded by ``record_golden.py``.

Reports are compared as plain dicts (``report_dict``), field by field.
"""

from __future__ import annotations

import dataclasses
import json
import os
from fractions import Fraction
from math import comb, isqrt

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
MASK = (1 << 64) - 1


def report_dict(report) -> dict:
    """A report dataclass as JSON-ready data, exact values as 'p/q' strings."""

    def plain(x):
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x

    return plain(dataclasses.asdict(report))


class Rng:
    """SplitMix64 with modulo-reduced bounded draws."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def below(self, n: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return (z ^ (z >> 31)) % n


def support(d: int, l: int, r: int) -> tuple:
    """Weight-l support of rank r, supports ordered by 0/1 indicator vector.

    A support avoiding position p sorts before one containing it, so the
    first comb(d - p - 1, l) supports of the remaining range skip p.
    """
    out = []
    for p in range(d):
        if l == 0:
            break
        skip = comb(d - p - 1, l)
        if r >= skip:
            out.append(p)
            r -= skip
            l -= 1
    return tuple(out)


def signed_row(d: int, l: int, r: int) -> tuple:
    """(support, signs) at rank r; signs count in binary, +1 before -1."""
    sup = support(d, l, r >> l)
    bits = r & ((1 << l) - 1)
    signs = tuple(-1 if (bits >> (l - 1 - i)) & 1 else 1 for i in range(l))
    return sup, signs


def block_count(d: int, k: int, l: int) -> tuple:
    """(rows in block l, rows in its right factor) for n = d."""
    right = (1 << (k - l)) * comb(d, k - l)
    return (1 << l) * comb(d, l) * right, right


def block_row(d: int, k: int, l: int, index: int) -> tuple:
    _, right = block_count(d, k, l)
    return signed_row(d, l, index // right), signed_row(d, k - l, index % right)


def block_seed(seed: int, d: int, k: int, l: int) -> int:
    return (seed << 24) + (d << 12) + (k << 6) + l


def params(d: int) -> tuple:
    k = isqrt(d) // 2
    alpha = Fraction(1, 2 * k)
    return k, alpha, 1 / (alpha * d)


def sylvester_columns(d: int) -> dict:
    """{(i, s): s * column i} of the Sylvester matrix of order d."""
    out = {}
    for i in range(d):
        col = tuple(-1 if (c & i).bit_count() & 1 else 1 for c in range(d))
        out[i, 1] = col
        out[i, -1] = tuple(-v for v in col)
    return out


def _max_signed_sum(cols: dict, row) -> int:
    """max_c |sum_i s_i H[c][i]| over the row's support (H is symmetric)."""
    sup, signs = row
    if not sup:
        return 0
    return max(abs(sum(t)) for t in zip(*(cols[i, s] for i, s in zip(sup, signs))))


def expected_certify(d: int, sample_rows: int, seed: int) -> dict:
    """ConditionsReport of verify_conditions(mode='sample') at this seed."""
    k, alpha, beta = params(d)
    cols = sylvester_columns(d)
    blocks = []
    for l in range(k + 1):
        total, _ = block_count(d, k, l)
        rng = Rng(block_seed(seed, d, k, l))
        indices = [0, total - 1] + [rng.below(total) for _ in range(sample_rows)]
        max_m = max_n = 0
        for index in set(indices):
            left, right = block_row(d, k, l, index)
            max_m = max(max_m, _max_signed_sum(cols, right))
            max_n = max(max_n, _max_signed_sum(cols, left))
        coeff = (k - l) * beta + l * alpha
        blocks.append({
            "l": l, "rows_total": total, "rows_checked": len(indices),
            "sampled": True, "max_abs_left": str(beta * max_m),
            "max_abs_right": str(alpha * max_n),
            "coefficient_sum": str(coeff),
            "coefficient_sum_expected": str(coeff),
            "entry_bound_ok": True, "equation_ok": True,
            "certificate_ok": True, "first_failure": None,
        })
    return {
        "d": d, "k": k, "alpha": str(alpha), "beta": str(beta),
        "mode": "sample", "seed": seed, "sample_rows": sample_rows,
        "blocks": blocks,
        "structural": {"hadamard_gram_ok": True, "alpha_beta_product_ok": True},
    }


class Golden:
    """Recorded LP margins, loaded on first use."""

    def __init__(self, path=GOLDEN):
        self.path = path
        self._doc = None

    @property
    def doc(self) -> dict:
        if self._doc is None:
            with open(self.path, "r", encoding="utf-8") as fh:
                self._doc = json.load(fh)
        return self._doc

    def face_margin(self, d: int, k: int, subset) -> str:
        key = ",".join(f"{i}{'+' if s > 0 else '-'}" for i, s in subset)
        return self.doc["faces"][f"{d}/{k}"][key]

    def containment_margin(self, d: int, k: int, l: int, index: int) -> str:
        block = self.doc["containment"][f"{d}/{k}"][l]
        return block["values"][block["rows"][index]]


def expected_faces(golden: Golden, d: int, k: int, samples: int,
                   seed: int) -> dict:
    """NeighborlinessReport of verify_k_neighborly(mode='sample')."""
    m = 2 * d
    rng = Rng((seed << 20) ^ (m << 8) ^ k)
    margins = []
    for _ in range(samples):
        idxs = support(m, k, rng.below(comb(m, k)))
        bits = rng.below(1 << (k - 1))
        signs = (1,) + tuple(
            -1 if (bits >> (k - 2 - p)) & 1 else 1 for p in range(k - 1))
        margins.append(Fraction(golden.face_margin(d, k, zip(idxs, signs))))
    return {
        "d": d, "k": k, "mode": "sample", "enumerated": samples,
        "checked": 2 * samples, "passed": 2 * samples, "failed": 0,
        "min_margin": str(min(margins)), "failures": [], "seed": seed,
    }


def expected_containment(golden: Golden, d: int, k: int, samples: int,
                         seed: int) -> dict:
    """ContainmentReport of projection_containment(mode='sample')."""
    best = best_at = None
    for l in range(k + 1):
        total, _ = block_count(d, k, l)
        rng = Rng(block_seed(seed, d, k, l))
        for _ in range(samples):
            index = rng.below(total)
            margin = Fraction(golden.containment_margin(d, k, l, index))
            if best is None or margin < best:
                best, best_at = margin, [l, index]
    return {
        "d": d, "k": k, "mode": "sample", "vertices_checked": (k + 1) * samples,
        "min_margin": str(best), "min_at": best_at, "seed": seed,
    }
