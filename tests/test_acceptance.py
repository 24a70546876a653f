"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete.  The heavy sweeps (the d = 16 exhaustive face sweep and
the sampled d = 64 certificate pass) take a few minutes in total.
"""

import random
import time
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

from csneighborly import (
    HadamardMatrix,
    block_row_count,
    block_rows,
    build,
    dominant_subset_sweep,
    orthogonality_check,
    projection_containment,
    sylvester,
    total_row_count,
    validate,
    verify_conditions,
    verify_k_neighborly,
)
from csneighborly.cli import main
from csneighborly.oracle import is_face
from csneighborly.simplex import lp_max
from literal import parse_ext, parse_vertices_json

HALF = F(1, 2)


def report(criterion, ok, detail):
    print(f"\nacceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cons():
    return {d: build(sylvester(d.bit_length() - 1)) for d in (4, 8, 16, 32, 64)}


def test_criterion_1_d4_vertices(cons):
    start = time.monotonic()
    rep = verify_k_neighborly(cons[4], 1, mode="exhaustive")
    elapsed = time.monotonic() - start
    ok = (
        rep.checked == 16
        and rep.passed == 16
        and rep.failed == 0
        and rep.min_margin > 0
        and elapsed < 5.0
    )
    report(1, ok, f"16/16 singleton faces, min margin {rep.min_margin}, "
                  f"{elapsed:.2f}s")


def test_criterion_2_d16_edges(cons):
    start = time.monotonic()
    rep = verify_k_neighborly(cons[16], 2, mode="exhaustive")
    elapsed = time.monotonic() - start
    ok = (
        rep.checked == 1984
        and rep.passed == 1984
        and rep.failed == 0
        and rep.min_margin > 0
        and elapsed < 300.0
    )
    report(2, ok, f"{rep.passed}/{rep.checked} antipode-free pairs are edges, "
                  f"min margin {rep.min_margin}, {elapsed:.1f}s single-threaded")


def test_criterion_3_three_way_agreement(cons):
    lines = []
    ok = True
    for d in (4, 8, 16):
        con = cons[d]
        cert = verify_conditions(con, mode="auto")
        dom = dominant_subset_sweep(con, con.k, mode="exhaustive")
        cont = projection_containment(con, con.k, mode="exhaustive")
        agree = cert.passed and dom.dominant_found == 0 and cont.min_margin >= 0
        # the three verdicts must also agree with each other
        agree = agree and (cert.passed == (dom.dominant_found == 0)
                           == (cont.min_margin >= 0))
        # auto mode sweeps every block of these orders exhaustively
        agree = agree and all(not b.sampled and b.rows_checked == b.rows_total
                              for b in cert.blocks)
        ok &= agree
        lines.append(
            f"d={d}: cert={cert.passed}, dominant={dom.dominant_found}, "
            f"containment min={cont.min_margin}"
        )
    report(3, ok, "; ".join(lines))


def test_criterion_4_certificate_all_orders(cons):
    lines = []
    ok = True
    d64_elapsed = None
    for d in (4, 8, 16, 32, 64):
        con = cons[d]
        k = con.k
        alpha, beta = con.params.alpha, con.params.beta
        if d <= 16:
            rep = verify_conditions(con, mode="auto")
            exhaustive = all(not b.sampled for b in rep.blocks)
            covered = exhaustive and all(b.rows_checked == b.rows_total
                                         for b in rep.blocks)
        else:
            start = time.monotonic()
            rep = verify_conditions(con, mode="sample", sample_rows=100_000,
                                    seed=0)
            elapsed = time.monotonic() - start
            if d == 64:
                d64_elapsed = elapsed
            exhaustive = False
            covered = all(b.rows_checked >= 100_000 for b in rep.blocks)
        ok &= rep.passed and covered and rep.structural.passed
        # entry bound holds everywhere and is attained at alpha = beta orders
        ok &= rep.max_abs_entry <= HALF
        if d in (4, 16, 64):
            ok &= rep.max_abs_entry == HALF
            ok &= max(b.max_abs_left for b in rep.blocks) == HALF
        else:
            # the left-part bound beta*k is strict away from d = 4k^2
            ok &= max(b.max_abs_left for b in rep.blocks) < HALF
        # per-block coefficient sums: (k-l)*beta + l*alpha exactly
        sums = [b.coefficient_sum for b in rep.blocks]
        ok &= sums == [(k - l) * beta + l * alpha for l in range(k + 1)]
        ok &= sorted(sums) == sorted(
            HALF - l * (alpha - beta) for l in range(k + 1)
        )
        lines.append(
            f"d={d}: {'exhaustive' if exhaustive else 'sampled'} "
            f"{sum(b.rows_checked for b in rep.blocks)} rows, "
            f"max entry {rep.max_abs_entry}, sums {[str(s) for s in sums]}"
        )
    ok &= d64_elapsed is not None and d64_elapsed < 600.0
    lines.append(f"d=64 sampled pass {d64_elapsed:.1f}s")
    report(4, ok, "; ".join(lines))


def test_criterion_5_block_identities():
    ok = True
    lines = []
    for d in (4, 8, 16):
        k = build(sylvester(d.bit_length() - 1)).k
        for l in range(k + 1):
            rep = orthogonality_check(d, k, l)
            expected = (1 << k) * (comb(d - 1, l - 1) if l else 0) * comb(d, k - l)
            ok &= rep.passed and rep.expected_diagonal == expected
        counts = sum(block_row_count(d, k, l) for l in range(k + 1))
        ok &= counts == (1 << k) * comb(2 * d, k) == total_row_count(d, k)
        lines.append(f"d={d} (k={k}): Gram and cross identities exact, "
                     f"{counts} rows")
    report(5, ok, "; ".join(lines))


def test_criterion_6_hadamard_suite():
    ok = True
    for e in range(8):
        ok &= validate(sylvester(e).signs) is True
    ok &= validate([[1] * 4 for _ in range(4)]) is False
    for bad in ([[1, -1], [1, 1, -1]], [[0, 1], [1, 1]]):
        try:
            validate(bad)
            ok = False
        except ValueError:
            pass
    try:
        HadamardMatrix([[1, 1], [1, 1]])
        ok = False
    except ValueError:
        pass
    report(6, ok, "sylvester orders 1..128 validate; malformed and "
                  "non-Hadamard inputs rejected")


def test_criterion_7_property_suite(cons, tmp_path, capsys):
    con16 = cons[16]

    # LP witnesses re-substitute with zero residual on every solved instance
    rng = random.Random(0)
    lp_ok = True
    for _ in range(25):
        n = rng.randint(2, 3)
        objective = [F(rng.randint(-3, 3)) for _ in range(n)]
        le = (
            [(tuple(F(rng.randint(-3, 3)) for _ in range(n)),
              F(rng.randint(0, 5)))
             for _ in range(rng.randint(2, 5))]
            + [(tuple(F(1) if i == j else F(0) for j in range(n)), F(4))
               for i in range(n)]
            + [(tuple(F(-1) if i == j else F(0) for j in range(n)), F(4))
               for i in range(n)]
        )
        # every right-hand side is >= 0, so the origin is feasible
        res = lp_max([int(c) for c in objective],
                     [([int(a) for a in coeffs], None, int(rhs))
                      for coeffs, rhs in le],
                     [(None, None)] * n)
        # re-substituted into the rows given here, not the solver's copy
        lp_ok &= res.status == "optimal"
        if res.status == "optimal":
            for coeffs, rhs in le:
                lp_ok &= sum(c * v for c, v in zip(coeffs, res.x)) <= rhs
            lp_ok &= sum(
                c * v for c, v in zip(objective, res.x)
            ) == res.objective

    # is_face invariant under global negation on 1000 randomized subsets
    flip_ok = True
    rng = random.Random(1)
    for _ in range(1000):
        size = rng.randint(1, 3)
        idxs = rng.sample(range(32), size)
        subset = [(i, rng.choice((1, -1))) for i in idxs]
        a = is_face(con16, subset)
        b = is_face(con16, [(i, -s) for i, s in subset])
        flip_ok &= a.status == b.status and a.margin == b.margin

    # block streams re-enumerate byte-identically
    stream_ok = True
    for l in range(3):
        stream = block_rows(16, 2, l)
        first = [(e, f) for e, f in stream]
        second = [(e, f) for e, f in stream]
        stream_ok &= first == second

    # generate output re-imports to the identical exact matrix
    rt_ok = True
    for d, fmt, parse in ((4, "ext", parse_ext), (8, "json", parse_vertices_json)):
        out = tmp_path / f"v{d}.{fmt}"
        code = main(["generate", "--d", str(d), "--format", fmt,
                     "--out", str(out)])
        rt_ok &= code == 0
        con = cons[d]
        expected = [con.vertex_representative(i, 1) for i in range(con.m)]
        expected += [con.vertex_representative(i, -1) for i in range(con.m)]
        rt_ok &= parse(out.read_text()) == expected

    ok = lp_ok and flip_ok and stream_ok and rt_ok
    report(7, ok, f"LP residuals exact: {lp_ok}; 1000 sign-flip pairs "
                  f"invariant: {flip_ok}; streams repeat: {stream_ok}; "
                  f"round-trips exact: {rt_ok}")


def test_criterion_8_brute_force_cross_check():
    rows = set()
    for l in range(2):
        for e, f in block_rows(4, 1, l):
            rows.add(e.dense() + f.dense())
    naive = {
        vec
        for vec in product((-1, 0, 1), repeat=8)
        if sum(1 for v in vec if v) == 1
    }
    ok = rows == naive and len(rows) == 16
    report(8, ok, f"{len(rows)} weight-1 rows equal the naive enumeration")
