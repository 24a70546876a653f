import random
import tracemalloc
from itertools import islice, product
from math import comb

import pytest

from csneighborly import (
    block_row_count,
    block_rows,
    orthogonality_check,
    total_row_count,
)
from csneighborly import blocks
from csneighborly.blocks import (
    SignedSupportRow,
    dense_parts,
    iter_signed_rows,
    iter_supports,
    sample_indices,
    signed_row_count,
    unrank_part,
    unrank_support,
)
from literal import (
    identity, literal_unrank_support, naive_product, signed_support_matrix,
    transpose,
)


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


class TestUnrankAgainstLiteralWalk:
    def test_every_rank_small_orders(self):
        for d in range(13):
            for l in range(d + 1):
                assert [unrank_support(d, l, r) for r in range(comb(d, l))] == [
                    literal_unrank_support(d, l, r) for r in range(comb(d, l))]

    @pytest.mark.parametrize("d", [64, 256])
    def test_random_and_end_ranks_large_orders(self, d):
        rng = random.Random(d)
        for l in (0, 1, 2, 3, 4, 5, 8, 13, d // 2, d - 1, d):
            total = comb(d, l)
            ranks = {0, total - 1} | {rng.randrange(total) for _ in range(200)}
            for r in sorted(ranks):
                assert unrank_support(d, l, r) == literal_unrank_support(d, l, r)

    def test_out_of_range_ranks_rejected(self):
        for d, l in ((6, 2), (64, 4), (5, 0)):
            for r in (-1, comb(d, l)):
                with pytest.raises(ValueError, match="out of range"):
                    unrank_support(d, l, r)
            for r in (-1, signed_row_count(d, l)):
                with pytest.raises(ValueError, match="out of range"):
                    unrank_part(d, l, r)
        with pytest.raises(ValueError, match="out of range"):
            unrank_support(4, 5, 0)


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
            listed = [(row.support, row.signs) for row in iter_signed_rows(d, l)]
            assert listed == [
                unrank_part(d, l, r) for r in range(signed_row_count(d, l))
            ]

    @pytest.mark.parametrize("d,l", [(6, 3), (14, 13), (16, 0)])
    def test_parts_agree_with_rows(self, d, l):
        # (14, 13) has weight above the sign-pattern tables: the stream runs
        # product((1, -1)) once per support, and unrank_part reads the bits;
        # the window runs across the first support boundary
        per_support = 1 << l
        start = max(0, per_support - 20)
        rows = islice(iter_signed_rows(d, l), start, start + 40)
        parts = [(row.support, row.signs) for row in rows]
        assert parts == [unrank_part(d, l, r)
                         for r in range(start, start + len(parts))]
        assert len(parts) == min(40, signed_row_count(d, l) - start)


class TestDenseParts:
    def test_parts_side_by_side(self):
        assert dense_parts(4, ((3,), (-1,)), ((0, 2), (1, -1))) == (
            0, 0, 0, -1, 1, 0, -1, 0)
        assert dense_parts(3, ((), ())) == (0, 0, 0)
        assert dense_parts(3) == ()

    def test_matches_signed_support_rows(self):
        for d, l in ((5, 2), (4, 4), (6, 0)):
            for row in iter_signed_rows(d, l):
                dense = row.dense()
                assert dense_parts(d, (row.support, row.signs)) == dense
                assert dense_parts(d, (row.support, row.signs),
                                   ((), ())) == dense + (0,) * d


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


class TestStreamsStartSmall:
    """Starting a stream allocates nothing in proportion to its block."""

    @pytest.mark.parametrize("rows", [
        lambda: iter(block_rows(64, 4, 1)),    # right factor: 333312 rows
        lambda: iter_signed_rows(64, 16),      # 2^16 patterns per support
    ], ids=["block_rows(64,4,1)", "iter_signed_rows(64,16)"])
    def test_first_row_peak_under_a_mebibyte(self, rows):
        tracemalloc.start()
        try:
            next(rows())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
        # row i*R + j of a block is (left part i | right part j), R = n(k-l)
        for d, k, l in ((4, 2, 1), (5, 3, 2), (4, 3, 0)):
            rights = signed_row_count(d, k - l)
            for index, (e, f) in enumerate(block_rows(d, k, l)):
                assert (e.support, e.signs) == unrank_part(
                    d, l, index // rights)
                assert (f.support, f.signs) == unrank_part(
                    d, k - l, index % rights)

    def test_sample_deterministic(self):
        a = list(sample_indices(16, 2, 1, 50, seed=0))
        b = list(sample_indices(16, 2, 1, 50, seed=0))
        assert a == b and len(a) == 50
        assert all(0 <= i < block_row_count(16, 2, 1) for i in a)

    def test_sample_of_empty_block(self):
        # k - l = 3 exceeds the width d = 2, so block 0 has no rows
        assert block_row_count(2, 3, 0) == 0
        assert list(sample_indices(2, 3, 0, 5, seed=0)) == []

    @pytest.mark.parametrize("d, k", [(2, 1), (3, 2), (4, 2)])
    def test_square_widths(self, d, k):
        # both parts of every row have width d; block l holds the
        # 2^k C(d, l) C(d, k-l) rows of left weight l
        for l in range(k + 1):
            rows = [(e.dense(), f.dense()) for e, f in block_rows(d, k, l)]
            assert len(rows) == block_row_count(d, k, l) == (
                (1 << k) * comb(d, l) * comb(d, k - l))
            for e, f in rows:
                assert len(e) == len(f) == d
                assert sum(map(abs, e)) == l and sum(map(abs, f)) == k - l

    @pytest.mark.parametrize("l", [-1, 3])
    def test_block_index_outside_range_rejected(self, l):
        with pytest.raises(ValueError, match=f"l={l} outside 0..2"):
            block_rows(4, 2, l)


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

    @pytest.mark.parametrize("d,k,l", [(4, 9, 2), (4, 5, 0), (4, 5, 5)])
    def test_empty_block_rejected(self, d, k, l):
        assert block_row_count(d, k, l) == 0
        with pytest.raises(ValueError, match="no rows"):
            orthogonality_check(d, k, l)

    @pytest.mark.parametrize("k,l,weight,index,flags", [
        # both factors read the flipped C_1: the cross product fails
        (2, 1, 1, 3, (True, False)),
        # only the left factor C_2 is flipped: the Gram identity fails
        (3, 2, 2, 5, (False, True)),
        # only the right factor C_2 is flipped, and the left factor's
        # column sums vanish: both identities still hold
        (3, 1, 2, 0, (True, True)),
    ])
    def test_flipped_sign_matches_dense_product(self, monkeypatch, k, l,
                                                weight, index, flags):
        # one sign flipped in row `index` of every C_weight stream
        d, streamed = 4, blocks.iter_signed_rows

        def flipped(width, w):
            for r, row in enumerate(streamed(width, w)):
                if (w, r) == (weight, index):
                    row = SignedSupportRow(width, row.support,
                                           (-row.signs[0],) + row.signs[1:])
                yield row

        monkeypatch.setattr(blocks, "iter_signed_rows", flipped)
        rep = orthogonality_check(d, k, l)
        left = [e.dense() for e, _ in block_rows(d, k, l)]
        right = [f.dense() for _, f in block_rows(d, k, l)]
        assert len(left) == rep.rows == block_row_count(d, k, l)
        dense = (naive_product(transpose(left), left)
                 == identity(d, rep.expected_diagonal),
                 naive_product(transpose(left), right) == identity(d, 0))
        assert (rep.gram_is_expected_multiple,
                rep.cross_product_zero) == dense == flags
