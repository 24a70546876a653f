import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from csneighborly import (
    block_rows,
    build,
    expand_combination,
    structural_identities,
    sylvester,
    verify_conditions,
)
from csneighborly.blocks import (SignedSupportRow, block_row_count,
                                 part_sums, sample_indices, signed_row_count,
                                 unrank_part)
from csneighborly.certificate import _halves, _packed_tables
from csneighborly.construction import cs_transform_defect
from csneighborly.hadamard import HadamardMatrix
from literal import (
    HALF,
    alpha_matrix,
    block_row,
    literal_conditions,
    literal_halves,
    literal_part_sum,
    literal_row_check,
    naive_product,
)


def half_row_check(con, left, right):
    """The sweep's verdict on one row (e | f), composed from its two halves.

    Returns (entry_ok, eq_ok, cert_ok, max|f H^T|, max|e H|).
    """
    h, k, l = con.hadamard, con.k, len(left.support)
    alpha, beta = con.params.alpha, con.params.beta
    p, q = alpha.numerator, alpha.denominator
    packed = _packed_tables(h, k)
    [left_result] = _halves(packed, p, q, l, [literal_part_sum(
        packed.lefts, left.support, left.signs)])
    [right_result] = _halves(packed, q, p * con.d, k - l, [literal_part_sum(
        packed.rights, right.support, right.signs)])
    eps_ok = (k - l) * beta + l * alpha <= HALF
    entry_ok, eq_ok = left_result[0] and right_result[0], right_result[1]
    return (entry_ok, eq_ok, eps_ok and eq_ok,
            right_result[2], left_result[2])


def assert_halves_match_literal(con, left, right):
    """The composed halves and the literal oracle agree on one row."""
    fast = half_row_check(con, left, right)
    slow = literal_row_check(con, left, right)
    assert fast[:3] == slow[:3]
    assert con.params.beta * fast[3] == max(map(abs, slow[5]))
    assert con.params.alpha * fast[4] == max(map(abs, slow[6]))
    return fast[:3]


def sampled_rows(d, k, l, count, seed):
    """The (left, right) rows of block l at its drawn sample indices."""
    return (block_row(d, k, l, index)
            for index in sample_indices(d, k, l, count, seed))


def unvalidated_hadamard(signs):
    """A HadamardMatrix holding `signs` without the orthogonality check; its
    gram is the literal integer product H^T H, so it need not be d*I, and
    entries other than +-1 (which the package's gram_rows refuses) work."""
    h = object.__new__(HadamardMatrix)
    h.signs = tuple(tuple(row) for row in signs)
    h.order = len(h.signs)
    h.columns = tuple(zip(*h.signs))
    h.gram = naive_product(h.columns, h.signs)
    return h


def flipped_sylvester(e, i, j):
    """sylvester(e) with entry (i, j) negated: no longer a Hadamard matrix."""
    rows = [list(row) for row in sylvester(e).signs]
    rows[i][j] = -rows[i][j]
    return unvalidated_hadamard(rows)


def random_sign_matrix(d, seed, entries=(1, -1)):
    """An unvalidated d x d matrix of pseudorandom entries (+-1 by default)."""
    rng = random.Random(seed)
    return unvalidated_hadamard(
        [[rng.choice(entries) for _ in range(d)] for _ in range(d)])


class TestRowCheckAgainstLiteralOracle:
    @pytest.mark.parametrize("e", [2, 3])
    def test_every_row_small_orders(self, e):
        con = build(sylvester(e))
        d, k = con.d, con.k
        for l in range(k + 1):
            for left, right in block_rows(d, k, l):
                assert assert_halves_match_literal(con, left, right) == (
                    True, True, True)

    def test_sampled_rows_d16(self):
        con = build(sylvester(4))
        for l in range(3):
            for left, right in sampled_rows(16, 2, l, 40, seed=1):
                assert assert_halves_match_literal(con, left, right) == (
                    True, True, True)

    def test_overridden_alpha_every_row(self):
        con = build(sylvester(3), alpha=F(2, 5))
        for l in range(2):
            for left, right in block_rows(8, 1, l):
                assert assert_halves_match_literal(con, left, right) == (
                    True, True, True)

    def test_non_hadamard_agrees_row_by_row(self):
        # one flipped entry: H^T H != d*I, so some rows must fail, and the
        # halves, which sum the literal H and G, must fail exactly the rows
        # the dense Fraction oracle fails, with the same three verdicts
        h = flipped_sylvester(3, 2, 5)
        con = build(h, verify=False)
        assert h.gram != tuple(
            tuple(8 if i == j else 0 for j in range(8)) for i in range(8))
        failing = 0
        for l in range(con.k + 1):
            for left, right in block_rows(8, con.k, l):
                failing += not all(
                    assert_halves_match_literal(con, left, right))
        assert failing > 0
        # the integer build check rejects the same matrix
        assert cs_transform_defect(h.gram) is not None
        with pytest.raises(ValueError, match="H\\^T H != d\\*I at entry"):
            build(h)

    @pytest.mark.parametrize("con", [
        pytest.param(lambda: build(flipped_sylvester(4, 6, 9), verify=False),
                     id="flipped16"),
        pytest.param(lambda: build(random_sign_matrix(16, 3), verify=False),
                     id="random16"),
    ])
    def test_failing_rows_agree_row_by_row(self, con):
        # sampled rows of every block of a d = 16 matrix that is not Hadamard
        con = con()
        verdicts = set()
        for l in range(con.k + 1):
            for left, right in sampled_rows(16, 2, l, 100, seed=2):
                verdicts.add(assert_halves_match_literal(con, left, right))
        assert verdicts - {(True, True, True)}

    def test_scaled_hadamard_fails_entry_bound(self):
        # 3H: every correction row is three times too large, so the first
        # failing row of each block fails condition (a) first
        con = build(unvalidated_hadamard(
            [[3 * v for v in row] for row in sylvester(2).signs]),
            verify=False)
        rep = verify_conditions(con)
        assert not rep.condition_a
        assert rep.failures
        assert {reason for _, _, reason in rep.failures} == {
            "entry bound exceeded"}
        assert rep == literal_conditions(con)

    def test_non_hadamard_fails_the_sweep(self):
        con = build(flipped_sylvester(3, 2, 5), verify=False)
        rep = verify_conditions(con)
        assert not rep.passed
        assert not rep.structural.hadamard_gram_ok
        assert rep.failures


SWEEP_CASES = [
    pytest.param(lambda: build(sylvester(2)), id="sylvester2"),
    pytest.param(lambda: build(sylvester(3)), id="sylvester3"),
    pytest.param(lambda: build(sylvester(3), alpha=F(2, 5)),
                 id="sylvester3-alpha2/5"),
    pytest.param(lambda: build(flipped_sylvester(3, 2, 5), verify=False),
                 id="flipped8"),
    pytest.param(lambda: build(flipped_sylvester(4, 6, 9), verify=False),
                 id="flipped16"),
    pytest.param(lambda: build(random_sign_matrix(16, 3), verify=False),
                 id="random16"),
    # row 15 = -row 14: the first left part of block 2, +e_14 + e_15, has
    # e H = 0, so its maximum must come from later rows
    pytest.param(lambda: build(unvalidated_hadamard(
        sylvester(4).signs[:15] + (tuple(-v for v in sylvester(4).signs[14]),)),
        verify=False), id="negated-row16"),
]


class TestConditionsAgainstLiteralSweep:
    """verify_conditions equals the row-by-row literal sweep, field by field,
    on the failure path too, for every job count."""

    @pytest.mark.parametrize("con", SWEEP_CASES)
    @pytest.mark.parametrize("mode,options", [
        # auto mode: every block of these cases is under the cap, so each
        # is swept exhaustively
        pytest.param("auto", {}, id="exhaustive-options0"),
        ("sample", {"sample_rows": 25, "seed": 7}),
    ])
    def test_equals_literal_sweep(self, con, mode, options):
        con = con()
        expected = literal_conditions(con, mode=mode, **options)
        for jobs in (1, 2):
            assert verify_conditions(con, mode=mode, jobs=jobs,
                                     **options) == expected
        if mode == "auto":
            assert not any(b.sampled for b in expected.blocks)

    def test_failing_cases_fail(self):
        # the non-Hadamard cases above do exercise the failure path, on
        # exhaustive blocks that stop only at their first failing row
        for case in SWEEP_CASES[3:]:
            rep = verify_conditions(case.values[0](), mode="auto")
            assert not rep.passed and rep.failures
            for b in rep.blocks:
                assert not b.sampled
                assert b.first_failure or b.rows_checked == b.rows_total


class TestPackedHalves:
    """The packed half kernels where G's fields are wider than 8 bits, and
    the guard on H's byte fields."""

    def test_sampled_rows_d64(self):
        con = build(sylvester(6))
        assert _packed_tables(con.hadamard, con.k).width == 10
        for l in range(con.k + 1):
            for left, right in sampled_rows(64, 4, l, 3, seed=4):
                assert assert_halves_match_literal(con, left, right) == (
                    True, True, True)

    @pytest.mark.parametrize("entries", [(1, -1, 2, -2, 3, -3), (63, -63, 1)])
    def test_large_entries_match_dense_sums(self, entries):
        # G's entries reach 16*max|H|^2, so its fields are 10 or more bits
        h = random_sign_matrix(16, 5, entries)
        con = build(h, verify=False)
        packed = _packed_tables(h, con.k)
        assert packed.width > 8
        p, q = con.params.alpha.as_integer_ratio()
        gram_verdicts = set()
        for l in range(con.k + 1):
            for left, right in sampled_rows(16, 2, l, 60, seed=6):
                n_top, m_top, gram_ok = literal_halves(h.signs, left, right)
                left_sum = literal_part_sum(packed.lefts, left.support,
                                            left.signs)
                right_sum = literal_part_sum(packed.rights, right.support,
                                             right.signs)
                assert _halves(packed, p, q, l, [left_sum]) == [
                    (2 * p * n_top <= q, True, n_top)]
                assert _halves(packed, q, p * 16, 2 - l, [right_sum]) == [
                    (2 * q * m_top <= p * 16, gram_ok, m_top)]
                gram_verdicts.add(gram_ok)
        assert gram_verdicts == {True, False}

    def test_width_guard_raises(self):
        # at d = 16 (k = 2) a byte field holds 2*k*max|H| <= 255: 63 fits,
        # 64 does not
        rows = [list(row) for row in sylvester(4).signs]
        rows[3][7] = 63
        _packed_tables(unvalidated_hadamard(rows), 2)
        rows[3][7] = 64
        con = build(unvalidated_hadamard(rows), verify=False)
        with pytest.raises(ValueError, match="byte fields"):
            verify_conditions(con)


def skewed_sylvester16():
    """sylvester(4) with column 5 tripled and column 3 copied into column 9.
    G_55 = 9d, so G's fields are wider than 8 bits.  The right parts that
    read column 5, 3 or 9 fail f G == d*f and the others pass."""
    rows = [list(row) for row in sylvester(4).signs]
    for row in rows:
        row[5] *= 3
        row[9] = row[3]
    return unvalidated_hadamard(rows)


class TestBatchHalvesAgainstLiteral:
    """The batch half kernel on mixed batches of either side.  Each batch
    holds every part of one weight, shuffled, with repeats: every result
    must equal the literal verdict on its own part, so a result that equal
    parts share leaks to no other part."""

    @staticmethod
    def check_batches(h, weight, seed):
        """Run the batch kernel on one mixed batch of the parts of the given
        weight at d = 16, as left and as right parts, and compare each
        result with literal_halves.
        Returns the set of (side, entry_ok, gram_ok, slow) over the batch,
        slow meaning the max is below weight*hbias."""
        con = build(h, verify=False)
        packed = _packed_tables(h, con.k)
        p, q = con.params.alpha.as_integer_ratio()
        ranks = list(range(signed_row_count(16, weight)))
        rng = random.Random(seed)
        rng.shuffle(ranks)
        ranks += ranks[:5]
        parts = [SignedSupportRow(16, *unrank_part(16, weight, r))
                 for r in ranks]
        want = ([], [])
        for part in parts:
            n_top, m_top, gram_ok = literal_halves(h.signs, part, part)
            want[0].append((2 * p * n_top <= q, True, n_top))
            want[1].append((2 * q * m_top <= p * 16, gram_ok, m_top))
        seen = set()
        for side, table, num, den in ((0, packed.lefts, p, q),
                                      (1, packed.rights, q, p * 16)):
            totals = [literal_part_sum(table, part.support, part.signs)
                      for part in parts]
            got = _halves(packed, num, den, weight, totals)
            assert got == want[side]
            seen.update((side, ok, gram_ok, top < packed.hbias * weight)
                        for ok, gram_ok, top in got)
        return seen

    def test_one_batch_holds_every_verdict(self):
        # at weight 1 a right part reads one column of H: column 5 gives max
        # 3 and fails the entry bound, the others max 1 < 3 (the slow path
        # of the byte search), and columns 3 and 9 fail f G == d*f with the
        # max of a passing part.  A left part of weight 2 passes, on the
        # slow path, when its two rows' entries in column 5 cancel, and
        # fails at the search's first step when they add
        h = skewed_sylvester16()
        assert _packed_tables(h, 2).width > 8
        seen = self.check_batches(h, 1, seed=1)
        assert {s for s in seen if s[0] == 1} == {
            (1, True, True, True), (1, True, False, True),
            (1, False, False, False)}
        seen = self.check_batches(h, 2, seed=2)
        assert {s for s in seen if s[0] == 0} == {
            (0, True, True, True), (0, False, True, False)}
        assert {s[1:3] for s in seen if s[0] == 1} == {
            (True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("entries", [(1, -1, 2, -2, 3, -3), (63, -63, 1)])
    def test_wide_gram_batches(self, entries):
        # the matrices of test_large_entries_match_dense_sums; only the
        # empty part passes f G == d*f there
        h = random_sign_matrix(16, 5, entries)
        seen = set()
        for weight in range(3):
            seen |= self.check_batches(h, weight, seed=weight)
        assert {s[2] for s in seen if s[0] == 1} == {True, False}
        assert {s[1] for s in seen} == {True, False}
        assert {s[3] for s in seen} == {True, False}

    def test_left_batches_pass_the_gram_check(self):
        # a left sum lies in H's low 8d bits, so the kernel reads gram_ok
        # True for every left part, also where right parts of the same
        # weight fail f G == d*f
        h = skewed_sylvester16()
        for weight in (1, 2):
            seen = self.check_batches(h, weight, seed=weight)
            assert {s[2] for s in seen if s[0] == 0} == {True}
            assert {s[2] for s in seen if s[0] == 1} == {True, False}

    def test_empty_batch(self):
        packed = _packed_tables(sylvester(4), 2)
        assert _halves(packed, 1, 4, 2, []) == []
        assert _halves(packed, 4, 16, 2, []) == []


def assert_part_sums_literal(packed, d, l, ranks):
    """part_sums at ranks, as given and as a list, equals the literal sum
    over each part unrank_part gives, for both packed tables."""
    for table in (packed.lefts, packed.rights):
        want = [literal_part_sum(table, *unrank_part(d, l, r)) for r in ranks]
        assert part_sums(d, l, ranks, table[1], table[-1]) == want
        assert part_sums(d, l, list(ranks), table[1], table[-1]) == want


class TestPartSumsAgainstLiteralSum:
    """The fused unrank-and-sum kernel, streamed (a range) and unranked (a
    list), against the sum of table[s][i] over the parts of unrank_part."""

    @pytest.mark.parametrize("hadamard", [
        pytest.param(lambda: sylvester(2), id="d4"),
        pytest.param(lambda: sylvester(3), id="d8"),
        pytest.param(lambda: sylvester(4), id="d16"),
        pytest.param(lambda: random_sign_matrix(16, 5, (1, -1, 2, -2, 3, -3)),
                     id="d16-wide-gram"),
    ])
    def test_every_rank_small_orders(self, hadamard):
        h = hadamard()
        con = build(h, verify=False)
        d, k = con.d, con.k
        packed = _packed_tables(h, k)
        rng = random.Random(d)
        for l in range(k + 1):                 # weight 0 included
            n = signed_row_count(d, l)
            assert_part_sums_literal(packed, d, l, range(n))
            assert_part_sums_literal(packed, d, l, rng.sample(range(n), n))
            # ranges that start and end inside a support's sign patterns
            for start in range(0, n, 5):
                assert_part_sums_literal(packed, d, l,
                                         range(start, min(n, start + 7)))

    def test_seeded_ranks_d64(self):
        con = build(sylvester(6))
        packed = _packed_tables(con.hadamard, con.k)
        for l in range(con.k + 1):
            n = signed_row_count(64, l)
            rng = random.Random(64 + l)
            ranks = [rng.randrange(n) for _ in range(2000)] + [0, n - 1]
            assert_part_sums_literal(packed, 64, l, ranks)
            for start in ranks[:20] + [max(0, n - 40)]:
                assert_part_sums_literal(packed, 64, l,
                                         range(start, min(n, start + 40)))

    def test_out_of_range_ranks_rejected(self):
        con = build(sylvester(3))
        packed = _packed_tables(con.hadamard, con.k)
        plus, minus = packed.lefts[1], packed.lefts[-1]
        n = signed_row_count(8, 1)
        for ranks in ([-1], [n], [0, n], range(-1, 2), range(n - 1, n + 1)):
            with pytest.raises(ValueError, match="out of range"):
                part_sums(8, 1, ranks, plus, minus)
        with pytest.raises(ValueError, match="out of range"):
            part_sums(8, 9, [0], plus, minus)
        assert part_sums(8, 1, range(3, 3), plus, minus) == []
        assert part_sums(8, 1, [], plus, minus) == []


class TestCertificateBlocks:
    def test_d4_k1_l1_rows(self):
        con = build(sylvester(2))
        rows = list(block_rows(4, 1, 1))
        assert len(rows) == 8
        for left, right in rows:
            *oks, _, _, m_row, n_row = literal_row_check(con, left, right)
            assert oks == [True, True, True]
            # f is empty so the left correction vanishes
            assert all(v == 0 for v in m_row)
            j, s = left.support[0], left.signs[0]
            expected = [HALF * s * x for x in con.hadamard.signs[j]]
            assert n_row == expected
            # the halves see the same maxima, unscaled
            _, _, _, max_m, max_n = half_row_check(con, left, right)
            assert (max_m, con.params.alpha * max_n) == (0, HALF)

    def test_running_max_d16_l2(self):
        con = build(sylvester(4))
        alpha, beta = con.params.alpha, con.params.beta
        worst = max(
            max(beta * max_m, alpha * max_n)
            for _, _, _, max_m, max_n in (
                half_row_check(con, left, right)
                for left, right in block_rows(16, 2, 2)
            )
        )
        assert worst == HALF  # alpha*l = 1/2 attained

    def test_structural_identities(self):
        for e in (2, 3, 4):
            rep = structural_identities(build(sylvester(e)))
            assert rep.passed

    def test_correction_times_a_equals_f(self):
        # left_correction @ A == f for every row of a small block
        con = build(sylvester(3))
        a = alpha_matrix(con)
        for left, right in block_rows(con.d, con.k, 0):
            m_row = literal_row_check(con, left, right)[5]
            prod = [F(0)] * con.d
            for j in range(con.d):
                for c in range(con.d):
                    prod[c] += m_row[j] * a[j][c]
            assert tuple(prod) == right.dense()


class TestVerifyConditions:
    def test_d4_exhaustive(self):
        rep = verify_conditions(build(sylvester(2)))
        assert rep.passed
        assert sum(b.rows_checked for b in rep.blocks) == 16
        assert [str(b.coefficient_sum) for b in rep.blocks] == ["1/2", "1/2"]

    def test_d16_sums(self):
        rep = verify_conditions(build(sylvester(4)))
        assert rep.passed
        assert [b.coefficient_sum for b in rep.blocks] == [HALF, HALF, HALF]

    def test_d8_sums(self):
        # alpha = 1/2, beta = 1/4: the sums are (k-l)*beta + l*alpha
        rep = verify_conditions(build(sylvester(3)))
        assert rep.passed
        assert [b.coefficient_sum for b in rep.blocks] == [F(1, 4), F(1, 2)]
        assert sorted(b.coefficient_sum for b in rep.blocks) == [F(1, 4), HALF]

    def test_max_entry_parts(self):
        # the right part attains 1/2 at every order; the left part attains it
        # exactly when alpha = beta (d = 4k^2)
        for e, sharp_left in ((2, True), (3, False), (4, True)):
            rep = verify_conditions(build(sylvester(e)))
            assert rep.max_abs_entry == HALF
            left_max = max(b.max_abs_left for b in rep.blocks)
            right_max = max(b.max_abs_right for b in rep.blocks)
            assert right_max == HALF
            assert (left_max == HALF) is sharp_left

    def test_sampled_mode_deterministic(self):
        con = build(sylvester(4))
        a = verify_conditions(con, mode="sample", sample_rows=100, seed=3)
        b = verify_conditions(con, mode="sample", sample_rows=100, seed=3)
        assert a == b
        assert all(blk.sampled for blk in a.blocks)

    def test_jobs_do_not_change_report(self):
        con = build(sylvester(3))
        serial = verify_conditions(con)
        parallel = verify_conditions(con, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("mode", ["exhaustive", "bogus"])
    def test_unknown_mode_rejected(self, mode):
        # auto already sweeps every block under the cap exhaustively, so no
        # mode forces it
        with pytest.raises(ValueError, match="unknown mode"):
            verify_conditions(build(sylvester(2)), mode=mode)

    def test_alpha_override_still_passes(self):
        # any alpha inside the window must satisfy all three conditions
        con = build(sylvester(3), alpha=F(1, 3))
        rep = verify_conditions(con)
        assert rep.passed
        assert rep.max_abs_entry <= HALF


class TestExpandCombination:
    """Certificates of block rows named by (block l, row index)."""

    def test_d4_left_singleton(self):
        # row 0 of block 1 is (e_3 | 0): two weight-alpha/2 terms
        con = build(sylvester(2))
        cert = expand_combination(con, 1, 0)
        assert cert.block == 1
        assert cert.target == (1, 0, 0, 0, 1, 0, 0, 0, 0)
        assert len(cert.mu_terms) == 2
        assert all(mu == F(1, 4) for mu, _ in cert.mu_terms)
        assert cert.coefficient_sum == HALF
        assert cert.eps == 0

    def test_d4_right_singleton(self):
        # row 5 of block 0 is (0 | -e_1): two weight-beta/2 terms
        con = build(sylvester(2))
        cert = expand_combination(con, 0, 5)
        assert cert.block == 0
        assert cert.target == (1, 0, 0, 0, 0, 0, -1, 0, 0)
        assert len(cert.mu_terms) == 2
        assert all(mu == F(1, 4) for mu, _ in cert.mu_terms)
        assert cert.coefficient_sum == HALF
        assert cert.eps == 0

    def test_d8_l1_row(self):
        # alpha = 1/2: the two weight-alpha/2 terms sum to 1/2, eps = 0
        con = build(sylvester(3))
        cert = expand_combination(con, 1, 4)          # (e_5 | 0)
        assert cert.target[1:9] == (0, 0, 0, 0, 0, 1, 0, 0)
        assert cert.coefficient_sum == HALF
        assert cert.eps == 0

    def test_d8_l0_row(self):
        # beta = 1/4: two weight-1/8 terms, eps = 1/2
        con = build(sylvester(3))
        cert = expand_combination(con, 0, 8)          # (0 | e_3)
        assert cert.target[9:] == (0, 0, 0, 1, 0, 0, 0, 0)
        assert cert.coefficient_sum == F(1, 4)
        assert cert.eps == HALF

    @pytest.mark.parametrize("l", [-1, 2, 5])
    def test_rejects_block_outside_range(self, l):
        con = build(sylvester(3))                     # k = 1
        with pytest.raises(ValueError, match=f"l={l} outside 0..1"):
            expand_combination(con, l, 0)

    @pytest.mark.parametrize("l, index", [(0, -1), (0, 16), (1, 16), (2, 480)])
    def test_rejects_index_outside_block(self, l, index):
        con = build(sylvester(4)) if l == 2 else build(sylvester(3))
        count = block_row_count(con.d, con.k, l)
        assert index in (-1, count)
        with pytest.raises(ValueError, match=f"out of range \\({count}\\)"):
            expand_combination(con, l, index)

    def test_every_certificate_reverifies(self):
        # sylvester(3) with row 1 negated is not symmetric: A must be alpha*H,
        # not alpha*H^T
        signs = sylvester(3).signs
        negated = HadamardMatrix(
            tuple(-v for v in row) if r == 1 else row
            for r, row in enumerate(signs))
        for h in (sylvester(3), negated):
            con = build(h)
            a = alpha_matrix(con)
            for l in range(con.k + 1):
                for index in range(block_row_count(con.d, con.k, l)):
                    cert = expand_combination(con, l, index)
                    cert.verify(a)  # must not raise
                    assert cert.coefficient_sum <= HALF

    def test_targets_follow_the_block_stream_d8(self):
        # (l, index) names the index-th row that block_rows streams; the
        # containment sweep's points are checked the same way in
        # test_oracle.py
        con = build(sylvester(3))
        for l in range(con.k + 1):
            stream = block_rows(con.d, con.k, l)
            for index, (left, right) in enumerate(stream):
                cert = expand_combination(con, l, index)
                assert cert.block == l
                assert cert.target == (1,) + left.dense() + right.dense()
            assert index + 1 == block_row_count(con.d, con.k, l)


def d4_certificate():
    """The certificate of the d = 4 row (e_3 | 0), row 0 of block 1: two
    weight-1/4 terms."""
    con = build(sylvester(2))
    return con, expand_combination(con, 1, 0)


def _flip_first_delta(cert, delta):
    (mu, _), rest = cert.mu_terms[0], cert.mu_terms[1:]
    return replace(cert, mu_terms=((mu, delta),) + rest)


CERTIFICATE_DEFECTS = [
    pytest.param(lambda c: replace(c, target=(F(2),) + c.target[1:]),
                 "target must be", id="target-lead"),
    pytest.param(lambda c: replace(c, target=c.target[:-1]),
                 "target must be", id="target-short"),
    pytest.param(lambda c: replace(c, nus=c.nus[:-1]),
                 "expected 4 subspace multipliers", id="nus-short"),
    pytest.param(lambda c: replace(c, mu_terms=c.mu_terms + c.mu_terms[:1]),
                 "coefficient sum 3/4 exceeds 1/2", id="sum-above-half"),
    pytest.param(lambda c: replace(c, eps=F(-1)),
                 "slack -1 is negative", id="negative-slack"),
    pytest.param(lambda c: replace(c, mu_terms=(
        (-c.mu_terms[0][0], c.mu_terms[0][1]),) + c.mu_terms[1:]),
                 "negative combination weight -1/4", id="negative-weight"),
    pytest.param(lambda c: _flip_first_delta(
        c, (0,) + c.mu_terms[0][1][1:]), "delta rows", id="zero-in-delta"),
    pytest.param(lambda c: _flip_first_delta(c, c.mu_terms[0][1][:-1]),
                 "delta rows", id="short-delta"),
    pytest.param(lambda c: replace(c, nus=(c.nus[0] + 1,) + c.nus[1:]),
                 "multiplier 0 is", id="multiplier-off"),
    pytest.param(lambda c: replace(c, eps=F(1, 4)),
                 "does not re-sum", id="slack-off"),
]


class TestCertificateVerifyRejects:
    """Each defect of a certificate is refused by its exact re-summation."""

    @pytest.mark.parametrize("corrupt, message", CERTIFICATE_DEFECTS)
    def test_defect_rejected(self, corrupt, message):
        con, cert = d4_certificate()
        a = alpha_matrix(con)
        cert.verify(a)  # the uncorrupted certificate holds
        with pytest.raises(ValueError, match=message):
            corrupt(cert).verify(a)

    def test_another_matrix_rejected(self):
        # the multipliers do not depend on A, so only the re-sum can fail
        con, cert = d4_certificate()
        negated = [[-v for v in row] for row in alpha_matrix(con)]
        with pytest.raises(ValueError, match="does not re-sum"):
            cert.verify(negated)
