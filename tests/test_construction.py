from fractions import Fraction as F

import pytest

from csneighborly import build, parameters, sylvester
from csneighborly.construction import cs_transform_defect
from csneighborly.hadamard import HadamardMatrix
from literal import (
    alpha_matrix, cs_transform_points, gauss_rank, hstack, identity,
    naive_product, signed_vertices, transpose, vertex_matrix,
)


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

    @pytest.mark.parametrize("d", [8, 16, 32, 64])
    def test_window_ends_are_the_two_bounds(self, d):
        # beta = 1/(alpha*d), so alpha*k <= 1/2 is the window's top end
        # 1/(2k) and beta*k <= 1/2 its bottom end 2k/d
        k = parameters(d).k
        low, high = F(2 * k, d), F(1, 2 * k)
        assert parameters(d, alpha=low).beta * k == F(1, 2)
        assert parameters(d, alpha=high).alpha * k == F(1, 2)
        with pytest.raises(ValueError, match=r"alpha\*k = .* exceeds 1/2"):
            parameters(d, alpha=high + F(1, 1000))
        with pytest.raises(ValueError, match=r"beta\*k = .* exceeds 1/2"):
            parameters(d, alpha=low - F(1, 1000))

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

    @pytest.mark.parametrize("alpha", [0, F(0), "0", F(-1, 3)])
    def test_nonpositive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            parameters(8, alpha=alpha)


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
            assert list(vertex_matrix(con)) == expected
            for i, x in enumerate(expected):
                assert con.vertex_representative(i) == x
                assert con.vertex_representative(i, -1) == tuple(-c for c in x)
            assert alpha_matrix(con) == tuple(
                tuple(alpha * s for s in row) for row in signs
            )

    def test_d4_orthogonality(self):
        con = build(sylvester(2))
        prod = naive_product(transpose(vertex_matrix(con)),
                             cs_transform_points(con))
        assert prod == identity(4, 0)

    def test_full_rank_certificate(self):
        for e in (2, 3, 4):
            con = build(sylvester(e))
            stacked = hstack(vertex_matrix(con), cs_transform_points(con))
            assert gauss_rank(stacked) == con.m

    @pytest.mark.parametrize("e, alpha", [
        (2, None), (3, None), (4, None), (3, F(2, 5)),
    ])
    def test_integer_check_agrees_with_literal_checks(self, e, alpha):
        # build checks rank [X | T] = m through an integer Gram identity and
        # takes X^T T = 0 from the construction; the literal Fraction
        # products must give the same verdict
        con = build(sylvester(e), alpha=alpha)
        x, t = vertex_matrix(con), cs_transform_points(con)
        integer_ok = cs_transform_defect(con.hadamard.gram) is None
        literal_ok = (
            naive_product(transpose(x), t) == identity(con.d, 0)
            and gauss_rank(hstack(x, t)) == con.m
        )
        assert integer_ok and literal_ok

    def test_entry_bounds(self):
        con = build(sylvester(3))
        alpha = con.params.alpha
        assert all(abs(v) == alpha for row in alpha_matrix(con) for v in row)
        vertices = [con.vertex_representative(i) for i in range(con.m)]
        assert all(abs(v) <= 1 for row in vertices for v in row)

    def test_d16_signed_vertices_distinct(self):
        con = build(sylvester(4))
        seen = {coords for _, coords in signed_vertices(con)}
        assert len(seen) == 64  # all 4d points distinct, no accidental antipodes

    def test_signed_vertices_order_and_values(self):
        # representatives first, then their negations
        con = build(sylvester(3))
        signed = signed_vertices(con)
        x = vertex_matrix(con)
        assert [key for key, _ in signed] == (
            [(i, 1) for i in range(con.m)] + [(i, -1) for i in range(con.m)]
        )
        for (i, s), coords in signed:
            assert con.vertex_representative(i, s) == coords
            assert coords == tuple(s * c for c in x[i])

    def test_vertex_representative_rejects_bad_arguments(self):
        con = build(sylvester(2))
        for index, sign in [(-1, 1), (con.m, 1), (0, 0), (con.d, 0), (1, 2)]:
            with pytest.raises(ValueError, match="bad vertex"):
                con.vertex_representative(index, sign)

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
