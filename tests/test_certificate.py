from fractions import Fraction as F

import pytest

from csneighborly import (
    Matrix,
    block_rows,
    build,
    expand_combination,
    hadamard_correction_rule,
    structural_identities,
    sylvester,
    verify_conditions,
    verify_general,
)
from csneighborly.blocks import SignedSupportRow
from csneighborly.certificate import (
    _check_row_scaled,
    cube_combination,
    hadamard_gram,
)
from csneighborly.construction import cs_transform_defect
from csneighborly.hadamard import HadamardMatrix

HALF = F(1, 2)


def literal_row_check(con, left, right):
    """Independent oracle: the three conditions in plain Fraction arithmetic.

    Computes the correction rows and the full table re-summation literally,
    with no integer scaling and no shared subexpressions.  Returns
    (bound_ok, eq_ok, cert_ok, coefficient sum, max entry, left correction,
    right correction).
    """
    d, k = con.d, con.k
    alpha, beta = con.params.alpha, con.params.beta
    h = con.hadamard
    e = left.dense()
    f = right.dense()

    m_row = [F(0)] * d
    for i, s in zip(right.support, right.signs):
        for c in range(d):
            m_row[c] += beta * s * h.column_signs(i)[c]
    n_row = [F(0)] * d
    for j, s in zip(left.support, left.signs):
        for c in range(d):
            n_row[c] += alpha * s * h.row_signs(j)[c]

    worst = max(
        max((abs(v) for v in m_row), default=F(0)),
        max((abs(v) for v in n_row), default=F(0)),
    )
    bound_ok = worst <= HALF

    lhs = [F(0)] * d
    for j in range(d):
        coeff = e[j] + m_row[j]
        for c in range(d):
            lhs[c] += coeff * con.A.entry(j, c)
    eq_ok = all(lhs[c] == f[c] + n_row[c] for c in range(d))

    # the explicit expansion and its literal re-summation
    terms = []
    ones = (1,) * d
    neg = (-1,) * d
    for i, s in zip(right.support, right.signs):
        col = tuple(s * x for x in h.column_signs(i))
        terms.append((beta / 2, col + ones))
        terms.append((beta / 2, col + neg))
    for j, s in zip(left.support, left.signs):
        row = tuple(s * x for x in h.row_signs(j))
        terms.append((alpha / 2, ones + row))
        terms.append((alpha / 2, neg + row))
    total = sum((mu for mu, _ in terms), F(0))
    eps = 1 - 2 * total
    shift = [F(0)] * (2 * d)
    for mu, delta in terms:
        for c in range(2 * d):
            shift[c] += mu * delta[c]
    nus = [e[j] + shift[j] for j in range(d)]
    acc = [F(0)] * (1 + 2 * d)
    for mu, delta in terms:
        acc[0] += 2 * mu
        for c in range(2 * d):
            acc[1 + c] -= mu * delta[c]
    for j, nu in enumerate(nus):
        acc[1 + j] += nu
        for c in range(d):
            acc[1 + d + c] += nu * con.A.entry(j, c)
    acc[0] += eps
    target = (F(1),) + tuple(e) + tuple(f)
    cert_ok = eps >= 0 and total <= HALF and tuple(acc) == target
    return bound_ok, eq_ok, cert_ok, total, worst, m_row, n_row


def scaled_row_check(con, left, right):
    h = con.hadamard
    p, q = con.params.alpha.numerator, con.params.alpha.denominator
    return _check_row_scaled(h.signs, h.columns, hadamard_gram(h), con.d,
                             con.k, p, q, left, right)


def unvalidated_hadamard(signs):
    """A HadamardMatrix holding `signs` without the orthogonality check."""
    h = object.__new__(HadamardMatrix)
    h.signs = tuple(tuple(row) for row in signs)
    h.order = len(h.signs)
    h.columns = tuple(zip(*h.signs))
    return h


def flipped_sylvester(e, i, j):
    """sylvester(e) with entry (i, j) negated: no longer a Hadamard matrix."""
    rows = [list(row) for row in sylvester(e).signs]
    rows[i][j] = -rows[i][j]
    return unvalidated_hadamard(rows)


class TestRowCheckAgainstLiteralOracle:
    @pytest.mark.parametrize("e", [2, 3])
    def test_every_row_small_orders(self, e):
        con = build(sylvester(e))
        d, k = con.d, con.k
        for l in range(k + 1):
            for left, right in block_rows(d, k, l):
                fast = scaled_row_check(con, left, right)
                slow = literal_row_check(con, left, right)
                assert fast[:3] == slow[:3] == (True, True, True)

    def test_sampled_rows_d16(self):
        con = build(sylvester(4))
        for l in range(3):
            for _, (left, right) in block_rows(16, 2, l).sample(40, seed=1):
                fast = scaled_row_check(con, left, right)
                slow = literal_row_check(con, left, right)
                assert fast[:3] == slow[:3] == (True, True, True)

    def test_overridden_alpha_every_row(self):
        con = build(sylvester(3), alpha=F(2, 5))
        for l in range(2):
            for left, right in block_rows(8, 1, l):
                fast = scaled_row_check(con, left, right)
                slow = literal_row_check(con, left, right)
                assert fast[:3] == slow[:3] == (True, True, True)

    def test_non_hadamard_agrees_row_by_row(self):
        # one flipped entry: H^T H != d*I, so some rows must fail, and the
        # kernel, which sums the literal G, must fail exactly the rows the
        # dense Fraction oracle fails, with the same three verdicts
        h = flipped_sylvester(3, 2, 5)
        con = build(h, verify=False)
        assert hadamard_gram(h) != tuple(
            tuple(8 if i == j else 0 for j in range(8)) for i in range(8))
        failing = 0
        for l in range(con.k + 1):
            for left, right in block_rows(8, con.k, l):
                fast = scaled_row_check(con, left, right)
                slow = literal_row_check(con, left, right)
                assert fast[:3] == slow[:3]
                failing += not all(fast[:3])
        assert failing > 0
        # the integer build check rejects the same matrix
        assert cs_transform_defect(h.signs) is not None
        with pytest.raises(ValueError, match="H H\\^T != d\\*I"):
            build(h)

    def test_non_hadamard_fails_the_sweep(self):
        con = build(flipped_sylvester(3, 2, 5), verify=False)
        rep = verify_conditions(con)
        assert not rep.passed
        assert not rep.structural.hadamard_gram_ok
        assert rep.failures


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
            expected = [HALF * s * x for x in con.hadamard.row_signs(j)]
            assert n_row == expected
            # the scaled kernel sees the same maxima, unscaled
            _, _, _, max_m, max_n = scaled_row_check(con, left, right)
            assert (max_m, con.params.alpha * max_n) == (0, HALF)

    def test_running_max_d16_l2(self):
        con = build(sylvester(4))
        alpha, beta = con.params.alpha, con.params.beta
        worst = max(
            max(beta * max_m, alpha * max_n)
            for _, _, _, max_m, max_n in (
                scaled_row_check(con, left, right)
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
        for left, right in block_rows(con.d, con.k, 0):
            m_row = literal_row_check(con, left, right)[5]
            prod = [F(0)] * con.d
            for j in range(con.d):
                for c in range(con.d):
                    prod[c] += m_row[j] * con.A.entry(j, c)
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

    def test_exhaustive_cap(self):
        con = build(sylvester(4))
        with pytest.raises(ValueError, match="cap"):
            verify_conditions(con, mode="exhaustive", row_cap=100)

    def test_alpha_override_still_passes(self):
        # any alpha inside the window must satisfy all three conditions
        con = build(sylvester(3), alpha=F(1, 3))
        rep = verify_conditions(con)
        assert rep.passed
        assert rep.max_abs_entry <= HALF


class TestExpandCombination:
    def test_d4_left_singleton(self):
        con = build(sylvester(2))
        left = SignedSupportRow(4, (0,), (1,))
        right = SignedSupportRow(4, (), ())
        cert = expand_combination(con, left, right)
        assert len(cert.mu_terms) == 2
        assert all(mu == F(1, 4) for mu, _ in cert.mu_terms)
        assert cert.coefficient_sum == HALF
        assert cert.eps == 0

    def test_d4_right_singleton(self):
        con = build(sylvester(2))
        left = SignedSupportRow(4, (), ())
        right = SignedSupportRow(4, (2,), (-1,))
        cert = expand_combination(con, left, right)
        assert len(cert.mu_terms) == 2
        assert all(mu == F(1, 4) for mu, _ in cert.mu_terms)
        assert cert.coefficient_sum == HALF
        assert cert.eps == 0

    def test_d8_l1_row(self):
        # alpha = 1/2: the two weight-alpha/2 terms sum to 1/2, eps = 0
        con = build(sylvester(3))
        left = SignedSupportRow(8, (5,), (1,))
        right = SignedSupportRow(8, (), ())
        cert = expand_combination(con, left, right)
        assert cert.coefficient_sum == HALF
        assert cert.eps == 0

    def test_d8_l0_row(self):
        # beta = 1/4: two weight-1/8 terms, eps = 1/2
        con = build(sylvester(3))
        left = SignedSupportRow(8, (), ())
        right = SignedSupportRow(8, (3,), (1,))
        cert = expand_combination(con, left, right)
        assert cert.coefficient_sum == F(1, 4)
        assert cert.eps == HALF

    def test_rejects_wrong_weight(self):
        con = build(sylvester(2))
        with pytest.raises(ValueError, match="sum to k"):
            expand_combination(
                con,
                SignedSupportRow(4, (0, 1), (1, 1)),
                SignedSupportRow(4, (), ()),
            )

    def test_every_certificate_reverifies(self):
        con = build(sylvester(3))
        for l in range(con.k + 1):
            for left, right in block_rows(con.d, con.k, l):
                cert = expand_combination(con, left, right)
                cert.verify(con.A)  # must not raise
                assert cert.coefficient_sum <= HALF


class TestCubeCombination:
    def test_zero(self):
        assert cube_combination((F(0), F(0))) == []

    def test_reconstructs_and_sums_to_max_norm(self):
        import random

        rng = random.Random(9)
        for _ in range(50):
            m = rng.randint(1, 6)
            x = [F(rng.randint(-4, 4), rng.randint(1, 8)) for _ in range(m)]
            terms = cube_combination(x)
            acc = [F(0)] * m
            for mu, delta in terms:
                assert mu > 0
                assert all(v in (1, -1) for v in delta)
                for j in range(m):
                    acc[j] += mu * delta[j]
            assert acc == x
            total = sum((mu for mu, _ in terms), F(0))
            assert total == max((abs(v) for v in x), default=F(0))


class TestVerifyGeneral:
    def test_hadamard_rule_passes(self):
        con = build(sylvester(2))
        rep = verify_general(con.A, k=1)
        assert rep.passed

    def test_matches_verify_conditions(self):
        con = build(sylvester(3))
        assert verify_general(con.A, k=con.k).passed == verify_conditions(con).passed

    def test_zero_pair_fails_equation(self):
        d = 4
        a = Matrix.zero(d, d)
        zero_rule = lambda left, right: ((F(0),) * d, (F(0),) * d)
        rep = verify_general(a, k=1, correction_rule=zero_rule)
        assert not rep.passed
        # rows with a nonzero right part cannot satisfy the equation
        assert any(
            reason == "matrix equation failed" for _, _, reason in rep.failures
        )

    def test_unscaled_hadamard_fails_bound(self):
        a = sylvester(2).to_matrix()  # alpha = 1 violates the window
        rep = verify_general(a, k=1)
        assert not rep.passed
        assert any(
            reason == "entry bound exceeded" for _, _, reason in rep.failures
        )

    def test_custom_rectangular_rule(self):
        # d = n = 1, A = [1]: corrections -e/2 and e/2 balance the equation
        a = Matrix([[1]])
        rule = lambda left, right: (
            (F(-1, 2) * sum(left.dense()) + F(1, 2) * sum(right.dense()),),
            (F(1, 2) * sum(left.dense()) - F(1, 2) * sum(right.dense()),),
        )
        rep = verify_general(a, k=1, correction_rule=rule)
        assert rep.passed

    def test_rule_width_checked(self):
        a = Matrix.identity(2)
        bad_rule = lambda left, right: ((F(0),), (F(0),))
        with pytest.raises(ValueError, match="width"):
            verify_general(a, k=1, correction_rule=bad_rule)
