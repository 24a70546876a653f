import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from csneighborly import build, sylvester
from csneighborly.construction import cs_transform_defect
from csneighborly.exact import as_scalar
from csneighborly.hadamard import HadamardMatrix, gram_rows
from literal import (
    cs_transform_points, gauss_rank, hstack, identity, kron, naive_product,
    transpose, vertex_matrix,
)


def random_matrix(rng, rows, cols, den=6):
    return tuple(
        tuple(F(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(cols))
        for _ in range(rows)
    )


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def minors_rank(m):
    """Largest r with a nonzero r x r minor, determinants by the Leibniz sum."""
    def det(rows, cols):
        total = F(0)
        for perm in permutations(range(len(cols))):
            inversions = sum(
                1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j]
            )
            term = F(-1 if inversions % 2 else 1)
            for r, c in zip(rows, perm):
                term *= m[r][cols[c]]
            total += term
        return total

    for size in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), size):
            for cols in combinations(range(len(m[0])), size):
                if det(rows, cols) != 0:
                    return size
    return 0


def unvalidated_signs(rng, order):
    """A random +-1 square matrix wrapped as a HadamardMatrix, unchecked;
    its gram is the package's own product H^T H."""
    h = object.__new__(HadamardMatrix)
    h.signs = tuple(
        tuple(rng.choice((1, -1)) for _ in range(order)) for _ in range(order)
    )
    h.order = order
    h.columns = tuple(zip(*h.signs))
    h.gram = tuple(gram_rows(h.columns))
    return h


class TestScalars:
    def test_canonical_closure(self):
        rng = random.Random(7)
        for _ in range(200):
            a = F(rng.randint(-50, 50), rng.randint(1, 20))
            b = F(rng.randint(-50, 50), rng.randint(1, 20))
            for value in (a + b, a - b, a * b):
                assert value.denominator > 0
            if b != 0:
                q = a / b
                assert q.denominator > 0
            assert a + (-a) == 0

    def test_as_scalar_coercion(self):
        half = F(1, 2)
        assert as_scalar(half) is half
        assert as_scalar(3) == F(3) and isinstance(as_scalar(3), F)
        assert as_scalar("-2/6") == F(-1, 3)
        for bad in (0.5, 1e-3, None, [1]):
            with pytest.raises(TypeError):
                as_scalar(bad)


class TestMatMul:
    """The literal product that the construction's identities are checked with."""

    def test_identity(self):
        m = ((F(1, 2), 3), (-2, F(5, 7)))
        assert naive_product(identity(2), m) == m

    def test_hadamard_gram_order_two(self):
        h2 = ((1, 1), (1, -1))
        assert naive_product(h2, transpose(h2)) == ((2, 0), (0, 2))

    def test_cancellation(self):
        assert naive_product(((F(1, 2), F(1, 2)),), ((1,), (-1,))) == ((0,),)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            naive_product(identity(2), identity(3))

    def test_against_naive_oracle(self):
        # the package's integer product G = H^T H agrees with the literal
        # product on random (mostly non-Hadamard) signs, and the build check
        # on G agrees with H H^T = d*I (equivalent for a square H)
        rng = random.Random(11)
        for order in (1, 2, 3, 4, 4, 6, 8, 8):
            h = unvalidated_signs(rng, order)
            assert h.gram == naive_product(transpose(h.signs), h.signs)
            literal_ok = naive_product(h.signs, transpose(h.signs)) == identity(
                order, order
            )
            assert (cs_transform_defect(h.gram) is None) == literal_ok
        h = sylvester(3)
        assert h.gram == identity(8, 8)
        assert cs_transform_defect(h.gram) is None

    def test_associative_and_distributive(self):
        rng = random.Random(13)
        for _ in range(15):
            a = random_matrix(rng, 3, 2)
            b = random_matrix(rng, 2, 4)
            c = random_matrix(rng, 4, 3)
            assert naive_product(naive_product(a, b), c) == naive_product(
                a, naive_product(b, c)
            )
            b2 = random_matrix(rng, 2, 4)
            assert naive_product(a, add(b, b2)) == add(
                naive_product(a, b), naive_product(a, b2)
            )


class TestKron:
    """The literal Kronecker product that builds the regular order-16 seed."""

    def test_scalar_one(self):
        m = random_matrix(random.Random(3), 2, 3)
        assert kron(((1,),), m) == m

    def test_column_replication(self):
        assert kron(((1,), (1,)), ((1, -1),)) == ((1, -1), (1, -1))

    def test_transpose_identity(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_matrix(rng, 2, 2)
            b = random_matrix(rng, 2, 2)
            assert transpose(kron(a, b)) == kron(transpose(a), transpose(b))

    def test_mixed_product_identity(self):
        rng = random.Random(19)
        for _ in range(10):
            a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
            assert naive_product(kron(a, b), kron(c, d)) == kron(
                naive_product(a, c), naive_product(b, d)
            )

    def test_shape(self):
        a = random_matrix(random.Random(23), 2, 3)
        b = random_matrix(random.Random(29), 4, 5)
        out = kron(a, b)
        assert (len(out), len(out[0])) == (8, 15)


class TestRank:
    """The literal rank behind the rank [X | T] = m cross-checks."""

    def test_identity(self):
        assert gauss_rank(identity(4)) == 4

    def test_zero(self):
        assert gauss_rank(identity(3, 0)) == 0

    def test_construction_stack_full_rank(self):
        con = build(sylvester(2))
        stacked = hstack(vertex_matrix(con), cs_transform_points(con))
        assert gauss_rank(stacked) == 8 == con.m

    def test_against_gauss_oracle(self):
        # an independent reference for the reference: largest nonzero minor
        rng = random.Random(31)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            if rng.random() < 0.4:   # force a dependent row now and then
                m = m + (tuple(2 * v for v in m[0]),)
            assert gauss_rank(m) == minors_rank(m)

    def test_rank_deficient(self):
        m = ((1, 2, 3), (2, 4, 6), (1, 1, 1))
        assert gauss_rank(m) == 2 == minors_rank(m)
