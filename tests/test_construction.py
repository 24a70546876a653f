from fractions import Fraction as F

import pytest

from csneighborly import (
    build,
    cs_transform_points,
    parameters,
    rank,
    sylvester,
)
from csneighborly.construction import cs_transform_defect
from csneighborly.exact import Matrix


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
        con = build(sylvester(2))
        half = F(1, 2)
        # first four representatives are the standard basis vectors
        for i in range(4):
            expected = tuple(F(1) if j == i else F(0) for j in range(4))
            assert con.vertex_representative(i) == expected
        # the last four are the halved Hadamard columns
        for j in range(4):
            col = con.hadamard.column_signs(j)
            assert con.vertex_representative(4 + j) == tuple(half * v for v in col)

    def test_d4_orthogonality(self):
        con = build(sylvester(2))
        prod = con.X.transpose() @ con.T
        assert prod == Matrix.zero(4, 4)

    def test_full_rank_certificate(self):
        for e in (2, 3, 4):
            con = build(sylvester(e))
            assert rank(con.X.hstack(con.T)) == con.m

    @pytest.mark.parametrize("e, alpha", [
        (2, None), (3, None), (4, None), (3, F(2, 5)),
    ])
    def test_integer_check_agrees_with_literal_checks(self, e, alpha):
        # build checks rank [X | T] = m through an integer Gram identity and
        # takes X^T T = 0 from the construction; the literal Fraction
        # products must give the same verdict
        con = build(sylvester(e), alpha=alpha)
        integer_ok = cs_transform_defect(con.hadamard.signs) is None
        literal_ok = (
            (con.X.transpose() @ con.T).is_zero()
            and rank(con.X.hstack(con.T)) == con.m
        )
        assert integer_ok and literal_ok

    def test_entry_bounds(self):
        con = build(sylvester(3))
        alpha = con.params.alpha
        assert all(abs(v) == alpha for row in con.A.data for v in row)
        assert all(abs(v) <= 1 for row in con.X.data for v in row)

    def test_d16_signed_vertices_distinct(self):
        con = build(sylvester(4))
        seen = {coords for _, coords in con.signed_vertices()}
        assert len(seen) == 64  # all 4d points distinct, no accidental antipodes

    def test_propagates_parameter_errors(self):
        with pytest.raises(ValueError):
            build(sylvester(1))  # order 2 < 4


class TestCsTransform:
    def test_d4_points(self):
        con = build(sylvester(2))
        pts = cs_transform_points(con)
        half = F(1, 2)
        for i in range(4):
            expected = tuple(-half * v for v in con.hadamard.row_signs(i))
            assert pts[i] == expected
        for j in range(4):
            expected = tuple(F(1) if c == j else F(0) for c in range(4))
            assert pts[4 + j] == expected

    def test_cs_closure_after_antipodes(self):
        con = build(sylvester(2))
        pts = set(cs_transform_points(con))
        closed = pts | {tuple(-c for c in p) for p in pts}
        assert {tuple(-c for c in p) for p in closed} == closed

    def test_point_matrix_rank(self):
        con = build(sylvester(2))
        assert rank(Matrix(cs_transform_points(con))) == 4
