from fractions import Fraction as F

import pytest

from csneighborly import (
    build,
    cs_transform_points,
    parameters,
    sylvester,
)
from csneighborly.construction import cs_transform_defect
from csneighborly.hadamard import HadamardMatrix
from literal import gauss_rank, hstack, identity, naive_product, transpose


def row_negated_sylvester(e, i):
    """sylvester(e) with row i negated: still Hadamard, no longer symmetric."""
    return HadamardMatrix(
        tuple(-v for v in row) if r == i else row
        for r, row in enumerate(sylvester(e).signs)
    )


# (Hadamard matrix, alpha override): d = 4, 16, an off-canonical alpha at
# d = 8, and a non-symmetric H, on which rows and columns of H differ
FORMULA_CASES = (
    (sylvester(2), None),
    (sylvester(4), None),
    (sylvester(3), F(2, 5)),
    (row_negated_sylvester(3, 1), None),
)


def unit(d, i):
    return tuple(F(1) if c == i else F(0) for c in range(d))


class TestParameters:
    @pytest.mark.parametrize(
        "d,k,alpha,beta",
        [
            (4, 1, F(1, 2), F(1, 2)),
            (8, 1, F(1, 2), F(1, 4)),
            (16, 2, F(1, 4), F(1, 4)),
            (32, 2, F(1, 4), F(1, 8)),
            (64, 4, F(1, 8), F(1, 8)),
        ],
    )
    def test_canonical_values(self, d, k, alpha, beta):
        p = parameters(d)
        assert (p.k, p.alpha, p.beta) == (k, alpha, beta)
        assert p.m == 2 * d and p.n == d

    def test_small_d_rejected(self):
        for d in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                parameters(d)

    def test_window(self):
        for d in (4, 8, 16, 32, 64):
            p = parameters(d)
            assert F(2 * p.k, d) <= p.alpha <= F(1, 2 * p.k)
            if d == 4 * p.k * p.k:
                assert F(2 * p.k, d) == p.alpha == F(1, 2 * p.k)
            assert p.alpha * p.k <= F(1, 2)
            assert p.beta * p.k <= F(1, 2)

    def test_alpha_override(self):
        # d = 8 has a proper window [1/4, 1/2]; at d = 4k^2 it degenerates
        p = parameters(8, alpha=F(1, 3))
        assert p.beta == F(3, 8)
        with pytest.raises(ValueError):
            parameters(8, alpha=F(1, 5))  # below 2k/d = 1/4
        with pytest.raises(ValueError):
            parameters(8, alpha=F(2, 3))  # above 1/(2k) = 1/2
        with pytest.raises(ValueError):
            parameters(16, alpha=F(3, 10))  # window at d = 16 is the point 1/4


class TestBuild:
    def test_d4_vertices(self):
        # x_i = e_i and x_{d+j} = alpha*H[:, j]; the antipodes are -x_i
        for h, alpha_override in FORMULA_CASES:
            con = build(h, alpha=alpha_override)
            d, alpha = con.d, con.params.alpha
            signs = h.signs
            expected = [unit(d, i) for i in range(d)]
            expected += [
                tuple(alpha * signs[r][j] for r in range(d)) for j in range(d)
            ]
            assert list(con.X) == expected
            for i, x in enumerate(expected):
                assert con.vertex_representative(i) == x
                assert con.vertex_representative(i, -1) == tuple(-c for c in x)
            assert con.A == tuple(
                tuple(alpha * s for s in row) for row in signs
            )

    def test_d4_orthogonality(self):
        con = build(sylvester(2))
        prod = naive_product(transpose(con.X), cs_transform_points(con))
        assert prod == identity(4, 0)

    def test_full_rank_certificate(self):
        for e in (2, 3, 4):
            con = build(sylvester(e))
            assert gauss_rank(hstack(con.X, cs_transform_points(con))) == con.m

    @pytest.mark.parametrize("e, alpha", [
        (2, None), (3, None), (4, None), (3, F(2, 5)),
    ])
    def test_integer_check_agrees_with_literal_checks(self, e, alpha):
        # build checks rank [X | T] = m through an integer Gram identity and
        # takes X^T T = 0 from the construction; the literal Fraction
        # products must give the same verdict
        con = build(sylvester(e), alpha=alpha)
        t = cs_transform_points(con)
        integer_ok = cs_transform_defect(con.hadamard.signs) is None
        literal_ok = (
            naive_product(transpose(con.X), t) == identity(con.d, 0)
            and gauss_rank(hstack(con.X, t)) == con.m
        )
        assert integer_ok and literal_ok

    def test_entry_bounds(self):
        con = build(sylvester(3))
        alpha = con.params.alpha
        assert all(abs(v) == alpha for row in con.A for v in row)
        assert all(abs(v) <= 1 for row in con.X for v in row)

    def test_d16_signed_vertices_distinct(self):
        con = build(sylvester(4))
        seen = {coords for _, coords in con.signed_vertices()}
        assert len(seen) == 64  # all 4d points distinct, no accidental antipodes

    def test_signed_vertices_built_once(self):
        con = build(sylvester(3))
        signed = con.signed_vertices()
        assert con.signed_vertices() is signed
        assert [key for key, _ in signed] == (
            [(i, 1) for i in range(con.m)] + [(i, -1) for i in range(con.m)]
        )
        for (i, s), coords in signed:
            assert con.vertex_representative(i, s) is coords
            assert coords == tuple(s * c for c in con.X[i])

    def test_propagates_parameter_errors(self):
        with pytest.raises(ValueError):
            build(sylvester(1))  # order 2 < 4


class TestCsTransform:
    def test_d4_points(self):
        # v_i = -alpha*H[i, :] and v_{d+j} = e_j
        for h, alpha_override in FORMULA_CASES:
            con = build(h, alpha=alpha_override)
            d, alpha = con.d, con.params.alpha
            pts = cs_transform_points(con)
            assert len(pts) == con.m
            for i in range(d):
                expected = tuple(-alpha * v for v in h.signs[i])
                assert pts[i] == expected
            for j in range(d):
                assert pts[d + j] == unit(d, j)

    def test_cs_closure_after_antipodes(self):
        con = build(sylvester(2))
        pts = set(cs_transform_points(con))
        closed = pts | {tuple(-c for c in p) for p in pts}
        assert {tuple(-c for c in p) for p in closed} == closed

    def test_point_matrix_rank(self):
        con = build(sylvester(2))
        assert gauss_rank(cs_transform_points(con)) == 4
