import random
from fractions import Fraction as F

import pytest

from csneighborly import (
    build,
    dominant_subset_sweep,
    is_dominant,
    is_face,
    membership_margin,
    projection_containment,
    sylvester,
    verify_k_neighborly,
)
from csneighborly.oracle import canonical_subsets


@pytest.fixture(scope="module")
def con4():
    return build(sylvester(2))


@pytest.fixture(scope="module")
def con8():
    return build(sylvester(3))


@pytest.fixture(scope="module")
def con16():
    return build(sylvester(4))


class TestIsFace:
    def test_singleton_margin_d4(self, con4):
        # hand-derived: the optimal separating margin for any vertex is 1/2
        rep = is_face(con4, [(0, 1)])
        assert rep.status == "face"
        assert rep.margin == F(1, 2)

    def test_singleton_margin_d16(self, con16):
        # hand-derived via row orthogonality: margin 3/4
        rep = is_face(con16, [(3, 1)])
        assert rep.status == "face"
        assert rep.margin == F(3, 4)

    def test_antipodal_rejected(self, con4):
        rep = is_face(con4, [(0, 1), (0, -1)])
        assert rep.status == "antipodal-rejected"
        assert rep.margin is None

    def test_basis_and_hadamard_pair_d16(self, con16):
        # e_1 together with the first scaled Hadamard column vertex
        rep = is_face(con16, [(0, 1), (16, 1)])
        assert rep.status == "face"
        assert rep.margin > 0

    def test_witness_resubstitutes(self, con4):
        rep = is_face(con4, [(2, -1)])
        assert rep.status == "face"
        for key, coords in con4.signed_vertices():
            val = sum(c * v for c, v in zip(rep.witness, coords))
            if key == (2, -1):
                assert val == 1
            else:
                assert val <= 1 - rep.margin

    def test_negation_invariance_sample(self, con16):
        rng = random.Random(0)
        for _ in range(25):
            size = rng.randint(1, 3)
            idxs = rng.sample(range(32), size)
            subset = [(i, rng.choice((1, -1))) for i in idxs]
            flipped = [(i, -s) for i, s in subset]
            a = is_face(con16, subset)
            b = is_face(con16, flipped)
            assert a.status == b.status
            assert a.margin == b.margin

    def test_input_validation(self, con4):
        with pytest.raises(ValueError):
            is_face(con4, [])
        with pytest.raises(ValueError):
            is_face(con4, [(99, 1)])
        with pytest.raises(ValueError):
            is_face(con4, [(i, 1) for i in range(5)])  # larger than d


class TestVerifyKNeighborly:
    def test_d4_all_vertices(self, con4):
        rep = verify_k_neighborly(con4, 1)
        assert rep.enumerated == 8
        assert rep.checked == rep.passed == 16
        assert rep.failed == 0
        assert rep.min_margin == F(1, 2)

    def test_d8_k1(self, con8):
        rep = verify_k_neighborly(con8, 1)
        assert rep.checked == rep.passed == 32
        assert rep.min_margin > 0

    def test_sample_mode_deterministic(self, con16):
        a = verify_k_neighborly(con16, 2, mode="sample", samples=20, seed=5)
        b = verify_k_neighborly(con16, 2, mode="sample", samples=20, seed=5)
        assert a == b
        assert a.enumerated == 20

    def test_cap(self, con16):
        with pytest.raises(ValueError, match="cap"):
            verify_k_neighborly(con16, 2, cap=10)

    def test_beyond_guarantee_reports_without_assertion(self, con16):
        # k = 3 exceeds the guaranteed neighborliness; the sweep still
        # reports margins and counts
        rep = verify_k_neighborly(con16, 3, mode="sample", samples=10, seed=4)
        assert rep.checked == 20
        assert rep.passed + rep.failed == 20

    def test_jobs_match_serial(self, con16):
        subs = list(canonical_subsets(con16.m, 2))[:30]
        serial = [is_face(con16, s) for s in subs]
        from csneighborly.sweep import ordered_map

        parallel = list(ordered_map(is_face, con16, subs, jobs=2))
        assert serial == parallel


class TestMembership:
    def test_d4_margin_exact(self, con4):
        # hand-derived: every weight-1 point has margin exactly 1/6
        for i in (0, 4):
            point = [0] * 8
            point[i] = 1
            margin, witness = membership_margin(con4, point)
            assert margin == F(1, 6)
            # the witness places the shifted point inside the shrunk cube
            shifted = list(point)
            for r in range(8):
                row = con4.X[r]
                shifted[r] += sum(c * y for c, y in zip(row, witness))
            assert max(abs(v) for v in shifted) == F(1, 2) - margin

    def test_origin_strictly_inside(self, con4):
        margin, _ = membership_margin(con4, [0] * 8)
        assert margin == F(1, 2)


class TestDominance:
    def test_full_index_set_dominant(self, con4):
        rep = is_dominant(con4, range(8))
        assert rep.dominant
        assert len(rep.pattern_margins) == 256
        assert rep.min_margin <= 0

    def test_singletons_not_dominant(self, con8):
        for i in (0, 5, 12):
            rep = is_dominant(con8, [i])
            assert not rep.dominant
            assert rep.min_margin > 0

    def test_d16_small_subsets_not_dominant(self, con16):
        assert not is_dominant(con16, [0]).dominant
        assert not is_dominant(con16, [1, 20]).dominant

    def test_sweep_d4(self, con4):
        rep = dominant_subset_sweep(con4, 1)
        assert rep.subsets_checked == 8
        assert rep.patterns_checked == 16
        assert rep.dominant_found == 0
        assert rep.min_margin == F(1, 6)

    def test_validation(self, con4):
        with pytest.raises(ValueError):
            is_dominant(con4, [])
        with pytest.raises(ValueError):
            is_dominant(con4, [42])


class TestContainment:
    def test_d4_k1(self, con4):
        rep = projection_containment(con4, 1)
        assert rep.vertices_checked == 16
        assert rep.min_margin == F(1, 6)
        assert rep.contained and rep.strictly_contained

    def test_d4_k3_reporting_only(self, con4):
        rep = projection_containment(con4, 3)
        assert rep.vertices_checked == 448
        assert isinstance(rep.min_margin, F)  # empirical, no sign assertion

    def test_sample_mode(self, con16):
        rep = projection_containment(con16, 2, mode="sample", samples=15, seed=2)
        assert rep.vertices_checked == 45  # 15 per block
        assert rep.seed == 2

    def test_agreement_d8(self, con8):
        faces = verify_k_neighborly(con8, 1)
        dom = dominant_subset_sweep(con8, 1)
        cont = projection_containment(con8, 1)
        assert faces.all_faces
        assert dom.dominant_found == 0
        assert cont.min_margin > 0
