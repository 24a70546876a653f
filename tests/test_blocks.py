from itertools import product
from math import comb

import pytest

from csneighborly import (
    block_row_count,
    block_rows,
    orthogonality_check,
    signed_support_matrix,
    total_row_count,
)
from csneighborly.blocks import (
    iter_signed_rows,
    iter_supports,
    signed_row_count,
    unrank_signed_row,
    unrank_support,
)
from literal import identity, naive_product, transpose


def brute_force_weight_vectors(length, weight):
    """Independent oracle: every 0/+-1 vector of the given weight."""
    out = set()
    for vec in product((-1, 0, 1), repeat=length):
        if sum(1 for v in vec if v) == weight:
            out.add(vec)
    return out


class TestSupports:
    def test_indicator_lex_order_d2(self):
        assert list(iter_supports(2, 1)) == [(1,), (0,)]

    def test_indicator_lex_order_d4(self):
        got = list(iter_supports(4, 2))
        assert got == [(2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1)]
        # matches sorting by the 0/1 indicator tuple
        def indicator(sup):
            return tuple(1 if i in sup else 0 for i in range(4))
        assert got == sorted(got, key=indicator)

    def test_unrank_agrees_with_stream(self):
        for d, l in ((5, 2), (6, 3), (7, 1), (4, 0), (4, 4)):
            listed = list(iter_supports(d, l))
            assert len(listed) == comb(d, l)
            assert listed == [unrank_support(d, l, r) for r in range(len(listed))]


class TestSignedRows:
    def test_c21_frozen(self):
        rows = [r.dense() for r in iter_signed_rows(2, 1)]
        assert rows == [(0, 1), (0, -1), (1, 0), (-1, 0)]

    def test_weight_zero_single_row(self):
        rows = list(iter_signed_rows(5, 0))
        assert len(rows) == 1 and rows[0].dense() == (0,) * 5

    def test_sign_order_plus_first(self):
        rows = [r.signs for r in iter_signed_rows(3, 2)][:4]
        assert rows == [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_unrank_agrees_with_stream(self):
        for d, l in ((4, 2), (5, 1), (3, 3)):
            listed = list(iter_signed_rows(d, l))
            assert listed == [
                unrank_signed_row(d, l, r) for r in range(signed_row_count(d, l))
            ]


class TestSignedSupportMatrix:
    def test_gram_d4_l1(self):
        c = signed_support_matrix(4, 1)
        assert naive_product(transpose(c), c) == identity(4, 2)

    def test_gram_formula(self):
        for d, l in ((4, 2), (5, 2), (5, 3)):
            c = signed_support_matrix(d, l)
            coeff = (1 << l) * comb(d - 1, l - 1)
            assert naive_product(transpose(c), c) == identity(d, coeff)

    def test_column_sums_vanish(self):
        for d, l in ((4, 1), (5, 2), (6, 3)):
            c = signed_support_matrix(d, l)
            assert all(sum(col) == 0 for col in zip(*c))


class TestBlockStreams:
    def test_counts_d16_k2(self):
        counts = [block_row_count(16, 2, l) for l in range(3)]
        assert counts == [480, 1024, 480]
        assert sum(counts) == 1984 == (1 << 2) * comb(32, 2)

    def test_total_matches_vandermonde(self):
        for d, k in ((4, 1), (4, 2), (8, 1), (16, 2), (6, 3)):
            assert total_row_count(d, k) == (1 << k) * comb(2 * d, k)

    def test_d4_k1_l1_rows(self):
        rows = [(e.dense(), f.dense()) for e, f in block_rows(4, 1, 1)]
        assert len(rows) == 8
        assert all(f == (0, 0, 0, 0) for _, f in rows)
        expected = []
        for i in (3, 2, 1, 0):
            for s in (1, -1):
                vec = [0] * 4
                vec[i] = s
                expected.append(tuple(vec))
        assert [e for e, _ in rows] == expected

    def test_first_row_d4_k2_l1(self):
        e, f = next(iter(block_rows(4, 2, 1)))
        assert e.dense() == (0, 0, 0, 1)
        assert f.dense() == (0, 0, 0, 1)

    def test_brute_force_set_equality_d4_k1(self):
        rows = set()
        for l in range(2):
            for e, f in block_rows(4, 1, l):
                rows.add(e.dense() + f.dense())
        assert rows == brute_force_weight_vectors(8, 1)
        assert len(rows) == 16

    def test_brute_force_set_equality_d3_k2(self):
        rows = set()
        for l in range(3):
            for e, f in block_rows(3, 2, l):
                rows.add(e.dense() + f.dense())
        assert rows == brute_force_weight_vectors(6, 2)

    def test_restartable(self):
        stream = block_rows(4, 2, 1)
        first = [(e.dense(), f.dense()) for e, f in stream]
        second = [(e.dense(), f.dense()) for e, f in stream]
        assert first == second

    def test_no_duplicates(self):
        seen = set()
        for l in range(3):
            for e, f in block_rows(4, 2, l):
                row = e.dense() + f.dense()
                assert row not in seen
                seen.add(row)
        assert len(seen) == total_row_count(4, 2)

    def test_unrank_agrees_with_stream(self):
        stream = block_rows(4, 2, 1)
        for i, row in enumerate(stream):
            assert stream.row(i) == row

    def test_sample_deterministic(self):
        stream = block_rows(16, 2, 1)
        a = list(stream.sample(50, seed=0))
        b = list(stream.sample(50, seed=0))
        assert a == b
        assert all(0 <= i < stream.count for i, _ in a)

    def test_rectangular_widths(self):
        # left width 2, right width 3
        assert block_row_count(2, 1, 0, n=3) == 6
        assert block_row_count(2, 1, 1, n=3) == 4
        assert total_row_count(2, 1, n=3) == 10 == 2 * comb(5, 1)
        rows = [(e.dense(), f.dense()) for e, f in block_rows(2, 1, 0, n=3)]
        assert all(len(e) == 2 and len(f) == 3 for e, f in rows)


class TestOrthogonality:
    def test_d4_k2_l1(self):
        rep = orthogonality_check(4, 2, 1)
        assert rep.expected_diagonal == 16
        assert rep.passed

    def test_d4_k1_l1(self):
        rep = orthogonality_check(4, 1, 1)
        assert rep.expected_diagonal == 2
        assert rep.passed

    def test_all_blocks_small_orders(self):
        for d, k in ((4, 1), (4, 2), (8, 1)):
            for l in range(k + 1):
                assert orthogonality_check(d, k, l).passed

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="sampled"):
            orthogonality_check(16, 2, 1, cap=100)
