import copy
import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from itertools import chain, combinations, islice, product
from math import comb

import pytest

from csneighborly import (
    FaceReport,
    block_rows,
    build,
    dominant_subset_sweep,
    is_dominant,
    is_face,
    membership_margin,
    projection_containment,
    sylvester,
    verify_k_neighborly,
)
from csneighborly import oracle
from csneighborly.blocks import block_row_count, sample_indices
from csneighborly.construction import Construction
from csneighborly.oracle import canonical_subsets
from csneighborly.sampling import draws
from csneighborly.simplex import _field_width, _recheck, lp_max
from literal import (block_row, literal_balanced_rows,
                     literal_balanced_sigma, literal_correction_rows,
                     literal_correction_sigma, literal_face_witness,
                     literal_unrank_support, recheck_face, signed_vertices,
                     vertex_matrix)


# (status, margin) of each of the 848 canonical d = 4 subsets of sizes 1-4,
# recorded with the two-phase tableau solver that the bounded-variable
# dictionary replaced: a tally, and the sha256 of the lines
# "<subset> <status> <margin>" in canonical_subsets order.  The 12 margin-1
# faces take the LP's unbounded (ray) path, and the 60 not-face subsets with
# margin None its sigma* = 0 path.
D4_FACE_TALLY = {
    ("face", "1"): 12, ("face", "1/2"): 8, ("face", "2/3"): 16,
    ("not-face", "-1"): 8, ("not-face", "-2"): 240, ("not-face", "-4"): 32,
    ("not-face", "0"): 472, ("not-face", None): 60,
}
D4_FACE_DIGEST = (
    "dbb4aac6413c791fc6b9e74cf86aefd1d422294949b8be767829d77b6f1256dd")

# membership margins of 20 seeded rational points at d = 8 (see
# TestMembership.test_rational_points_d8), recorded with the same solver
D8_RATIONAL_MARGINS = (
    "43/160", "1/9", "79/308", "23/80", "1217/5940", "43/165", "223/1680",
    "661/2520", "2687/7920", "2503/9240", "179/840", "203/1080", "2579/6336",
    "23/112", "181/1080", "2927/15840", "3567/10780", "-57/6160", "13/80",
    "11453/41580",
)


def cube_offsets(con, point, y):
    """point + X y, in the caller's coordinates."""
    return [w + sum(c * v for c, v in zip(row, y))
            for w, row in zip(point, vertex_matrix(con))]


def witness_sigma(con, subset):
    """sigma_w of the face sweep's witness point for the subset, after the
    point is re-substituted into the face LP; None without a point."""
    columns = oracle._PackedColumns(con)
    members = tuple(sorted(subset))
    witness = oracle._face_witness(columns, members)
    if witness is None:
        return None
    nums, den = witness
    oracle._face_point_check(columns, members, nums, den)
    return F(nums[-1], den)


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
        for key, coords in signed_vertices(con4):
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


class TestFaceWitnessLiteral:
    def test_sweep_witnesses_resubstitute(self, con16, monkeypatch):
        # every subset of seeded d = 16 sweeps at sizes 1-4, including the
        # failure path: k = 4, seed 2 fails 6 subsets (3 canonical LPs and
        # their negations), all with margin 0.  The sweep keeps no witness,
        # so is_face solves each subset again for it.  Each batch starts
        # from tau = the probe's sigma* (the probe: the first subset of
        # least witness sigma_w, solved to its optimum), and tau falls to
        # each optimal face below it.  Where the sweep returns sigma*,
        # is_face must find the sweep's verdict and margin; where it kept a
        # witness point or stopped an LP at tau, is_face must find a face
        # with margin at least the sweep's, which is at least tau's,
        # 1 - 1/tau
        reports, batch_sigmas, kinds, probes = [], [], Counter(), []
        real_batch, real_check = oracle._face_batch, oracle._face_check

        def batch(context, pairs):
            # each subset comes with the witness point the sweep formed for
            # it, which is the one _face_witness forms
            columns, tau, outcomes = context
            (probe, outcome), = outcomes.items()
            for members, witness in pairs:
                assert witness == oracle._face_witness(columns, members)
            sigma_w = [witness_sigma(con16, s) for s, _ in pairs]
            assert all(v is None or v >= witness_sigma(con16, probe)
                       for v in sigma_w)
            rep = is_face(con16, probe)
            assert outcome == (rep.subset, rep.status, rep.margin)
            assert tau == (1 / (1 - rep.margin) if rep.margin < 1 else None)
            probes.append(probe)
            batch_sigmas[:] = [tau]
            return real_batch(context, pairs)

        def recorded(columns, subset, witness, tau=None):
            assert tau == min((v for v in batch_sigmas if v is not None),
                              default=None)
            outcome, sigma = real_check(columns, subset, witness, tau)
            batch_sigmas.append(sigma)
            rep = is_face(con16, subset)
            if outcome == (rep.subset, rep.status, rep.margin):
                kinds["optimum"] += 1
                assert sigma is None or sigma == 1 / (1 - rep.margin)
            else:
                assert sigma is None and rep.subset == outcome[0]
                assert rep.status == outcome[1] == "face"
                assert rep.margin >= outcome[2] >= 1 - 1 / tau
                assert outcome[2] > 0
                kinds["bound"] += 1
            reports.append(rep)
            return outcome, sigma

        monkeypatch.setattr(oracle, "_face_batch", batch)
        monkeypatch.setattr(oracle, "_face_check", recorded)
        sweeps = ((1, 10, 1), (2, 12, 1), (3, 12, 1), (4, 40, 2))
        for k, samples, seed in sweeps:
            rep = verify_k_neighborly(con16, k, mode="sample", samples=samples,
                                      seed=seed)
        assert kinds["optimum"] and kinds["bound"]
        assert rep.failed == 6
        assert [(st, margin) for _, st, margin in rep.failures] == [
            ("not-face", 0)] * 3
        # every subset but the probe of each sweep, which is solved before
        # the batches
        assert len(set(probes)) == len(sweeps) and len(reports) == 74 - 4
        with_witness = [r for r in reports if r.witness is not None]
        assert {r.status for r in with_witness} == {"face", "not-face"}
        for r in with_witness:
            assert recheck_face(con16, r) == [], r.subset

    def test_literal_recheck_catches_a_bad_witness(self, con16):
        rep = is_face(con16, [(0, 1), (16, 1)])
        assert rep.status == "face" and recheck_face(con16, rep) == []
        shifted = rep.witness[:-1] + (rep.witness[-1] + F(1, 7),)
        bad_witness = FaceReport(rep.subset, rep.status, shifted, rep.margin)
        bad_margin = FaceReport(rep.subset, rep.status, rep.witness,
                                2 * rep.margin)
        assert recheck_face(con16, bad_witness) != []
        assert recheck_face(con16, bad_margin) != []


class TestWitnessPoint:
    """The face sweep's witness point: its sigma_w is that of the literal
    Fraction point, and the point is feasible for is_face's LP, so
    sigma_w <= sigma*."""

    @staticmethod
    def check(con, subset, x=None):
        sigma = witness_sigma(con, subset)
        if x is not None:
            assert sigma == literal_face_witness(x, subset), subset
        rep = is_face(con, subset)
        if sigma is not None:
            assert rep.margin is not None, subset
            assert rep.margin == 1 or sigma <= 1 / (1 - rep.margin), subset
        return sigma, rep

    @pytest.mark.parametrize("e,ks,literal_every", [
        (2, (1, 2, 3, 4), 1), (3, (1, 2), 1), (4, (2,), 8)])
    def test_every_canonical_subset(self, e, ks, literal_every):
        # the Fraction reference is slow at d = 16: it sees every 8th subset
        con = build(sylvester(e))
        x, tally = vertex_matrix(con), Counter()
        for k in ks:
            for n, subset in enumerate(canonical_subsets(con.m, k)):
                sigma, rep = self.check(
                    con, subset, None if n % literal_every else x)
                tally[sigma is None, rep.status] += 1
        # the sweep's rule: a face whose point has sigma_w > 1 needs no LP;
        # every failure has sigma_w <= sigma* <= 1, or no point at all
        assert tally[False, "face"] > 0
        if e == 2:
            # no point: a singular G, for 96 subsets, all at k = 4
            assert tally[True, "face"] + tally[True, "not-face"] == 96

    @pytest.mark.parametrize("e,k,samples,alpha", [
        (5, 2, 8, None), (5, 2, 6, F(3, 16)), (6, 4, 3, None)])
    def test_sampled_subsets(self, e, k, samples, alpha):
        con = build(sylvester(e), alpha=alpha)
        x, rng = vertex_matrix(con), random.Random(e * 100 + samples)
        for _ in range(samples):
            indices = sorted(rng.sample(range(con.m), k))
            subset = tuple((i, rng.choice((1, -1))) for i in indices)
            sigma, rep = self.check(con, subset, x)
            assert sigma is not None and rep.status == "face"

    def test_understated_bound_is_rejected(self, con16):
        # den is the largest |<C, y_j>| over the non-members; one unit less
        # makes the point leave a row or bound, and a larger sigma breaks
        # the members' equalities
        columns = oracle._PackedColumns(con16)
        for members in (((0, 1), (16, 1)), ((3, -1), (7, 1)),
                        ((17, 1), (30, -1))):
            nums, den = oracle._face_witness(columns, members)
            oracle._face_point_check(columns, members, nums, den)
            with pytest.raises(RuntimeError,
                               match="internal error: row or bound violated"):
                oracle._face_point_check(columns, members, nums, den - 1)
            with pytest.raises(RuntimeError, match="internal error: "):
                oracle._face_point_check(columns, members,
                                         nums[:-1] + [nums[-1] + 1], den)


class TestFaceTableD4:
    def test_every_canonical_subset_of_sizes_1_to_4(self, con4):
        lines, tally = [], Counter()
        for k in range(1, 5):
            for subset in canonical_subsets(con4.m, k):
                rep = is_face(con4, subset)
                margin = None if rep.margin is None else str(rep.margin)
                lines.append(f"{subset} {rep.status} {margin}")
                tally[rep.status, margin] += 1
                if rep.witness is None:
                    assert rep.margin is None
                else:
                    assert recheck_face(con4, rep) == [], subset
        assert len(lines) == 848
        assert dict(tally) == D4_FACE_TALLY
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == D4_FACE_DIGEST


class TestIntegerArguments:
    def test_sweeps_check_the_entries_of_h_once(self, con4, monkeypatch):
        # an H entry that is not an int stops a sweep before its first LP,
        # with lp_max's TypeError
        columns = list(con4.hadamard.columns)
        columns[2] = (1.0,) + columns[2][1:]
        bad = copy.copy(con4.hadamard)
        bad.columns = tuple(columns)
        con = Construction(con4.params, bad)

        def no_lp(*program):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(oracle, "lp_max", no_lp)
        for sweep in (verify_k_neighborly, dominant_subset_sweep,
                      projection_containment):
            with pytest.raises(TypeError, match="coefficient is not an int"):
                sweep(con, 1)

    def test_is_face_rejects_float_members(self, con4):
        for subset in ([(1.9, 1)], [(1, 1.0)]):
            with pytest.raises(TypeError):
                is_face(con4, subset)

    def test_is_dominant_rejects_float_indices(self, con4):
        with pytest.raises(TypeError):
            is_dominant(con4, [0.5, 2.7])


class TestVertexRows:
    """The LPs read H's +-1 columns, with alpha's numerator p moved from
    the rows into the bounds (u' = p*u)."""

    @staticmethod
    def recorded_programs(monkeypatch):
        """(rows, bounds, target) of each LP solved, as lp_max gets them;
        each LP's packed table is checked to be lp_max's own packing of its
        rows."""
        programs = []
        real_lp_max = oracle.lp_max

        def recording_lp_max(objective, lp_rows, bounds, target=None):
            rows = [(tuple(c), low, high) for c, low, high in lp_rows]
            width = _field_width(objective, rows, bounds)
            shifts = range(0, width * len(objective), width)
            assert lp_rows.width == width
            assert list(lp_rows.table) == [
                sum(a << sh for a, sh in zip(c, shifts)) for c, _, _ in rows]
            programs.append((rows, list(bounds), target))
            return real_lp_max(objective, lp_rows, bounds, target=target)

        monkeypatch.setattr(oracle, "lp_max", recording_lp_max)
        return programs

    def test_rows_are_hadamard_columns(self, monkeypatch):
        con = build(sylvester(2))                     # alpha = p/q = 1/2
        cols = con.hadamard.columns
        programs = self.recorded_programs(monkeypatch)
        is_face(con, [(4, 1)])
        membership_margin(con, [1] + [0] * 7)
        is_face(con, [(5, -1), (1, 1)])
        face, member, face2 = ([tuple(c[:4]) for c, _, _ in lp_rows]
                               for lp_rows, _, _ in programs)
        assert face == member == list(cols)
        assert face2 == [(0, 1, 0, 0), tuple(-v for v in cols[1]),
                         cols[0], cols[2], cols[3]]
        assert [target for _, _, target in programs] == [None] * 3
        bounds = [b for _, b, _ in programs]
        assert bounds[0] == bounds[1] == [(-1, 1)] * 4 + [(0, None)]
        assert bounds[2] == [(-1, 1), (None, None), (-1, 1), (-1, 1),
                             (0, None)]

        # the sweeps' LPs: each row is a signed column of H or, in a face
        # LP, a unit row of a member vertex
        del programs[:]
        verify_k_neighborly(con, 2)
        dominant_subset_sweep(con, 1)
        projection_containment(con, 1)
        assert len(programs) == 40 + 1 + 1
        signed = set(cols) | {tuple(-v for v in col) for col in cols}
        units = {tuple(int(i == j) * s for j in range(4))
                 for i in range(4) for s in (1, -1)}
        for lp_rows, _, _ in programs:
            heads = [c[:4] for c, _, _ in lp_rows]
            assert len(heads) >= 4 and set(heads) <= signed | units
        # the face sweep solves only its 40 failing subsets: its probe
        # fails with sigma* = 1, so no face LP gets a target, and its 16
        # faces are settled by their witness points.  The dominance and
        # containment sweeps each solve only their probe, without a target:
        # every margin is 1/6, so every other point's closed-form point
        # ties the probe's sigma* = 3 after it and settles the point
        assert [target for _, _, target in programs] == [None] * 42

    def test_p_moves_into_the_bounds(self, monkeypatch):
        # alpha = p/q = 2/5 at d = 8: the rows stay H's +-1 columns, u' = 2u
        # is bounded by +-2, and the LP optima hold on the Fraction vertices
        con = build(sylvester(3), alpha=F(2, 5))
        d, cols = con.d, con.hadamard.columns
        free = (None, None)
        programs = self.recorded_programs(monkeypatch)
        for subset in [[(0, 1)], [(8, 1)], [(3, 1), (12, -1)]]:
            rep = is_face(con, subset)
            assert rep.status == "face" and recheck_face(con, rep) == []
        rng = random.Random(9)
        for _ in range(5):
            point = [F(rng.randint(-3, 3), 4) for _ in range(con.m)]
            margin, witness = membership_margin(con, point)
            offsets = cube_offsets(con, point, witness)
            assert max(abs(v) for v in offsets) == F(1, 2) - margin

        (rows0, bounds0, _), (rows1, bounds1, _), (rows2, bounds2, _) = (
            programs[:3])
        unit0 = (1,) + (0,) * (d - 1)
        assert rows0 == [(unit0 + (-2,), 0, 0)] + [
            (col + (0,), -5, 5) for col in cols]
        assert bounds0 == [free] + [(-2, 2)] * (d - 1) + [(0, None)]
        assert rows1 == [(cols[0] + (-5,), 0, 0)] + [
            (col + (0,), -5, 5) for col in cols[1:]]
        assert bounds1 == [(-2, 2)] * d + [(0, None)]
        assert [c[:d] for c, _, _ in rows2[:2]] == [
            tuple(int(j == 3) for j in range(d)),
            tuple(-v for v in cols[4])]
        assert bounds2[3] == free
        for lp_rows, bounds, _ in programs[3:]:        # membership LPs
            assert bounds == [(-2, 2)] * d + [(0, None)]
            for (c, low, high), col in zip(lp_rows, cols):
                # scaled by the lcm of the point's denominators, high / 5
                assert low == -high and high % 5 == 0
                assert tuple(c[:d]) == tuple(high // 5 * v for v in col)


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

    @staticmethod
    def per_subset(con, k, **options):
        """verify_k_neighborly's report, and its (passed, failed,
        min_margin, failures) formed from is_face on each subset the sweep
        checks."""
        tasks = []
        real = oracle.ordered_map

        def spy(check, context, batches, jobs=1):
            tasks.extend(members for members, _ in chain.from_iterable(
                batches))
            return real(check, context, batches, jobs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "ordered_map", spy)
            rep = verify_k_neighborly(con, k, **options)
        reports = [is_face(con, subset) for subset in tasks]
        passed = sum(r.status == "face" for r in reports)
        margins = [r.margin for r in reports if r.margin is not None]
        expected = (2 * passed, 2 * (len(tasks) - passed),
                    min(margins, default=None),
                    tuple((r.subset, r.status, r.margin) for r in reports
                          if r.status != "face")[:20])
        return rep, expected

    @pytest.mark.parametrize("d,k,options", [
        (8, 1, {}), (8, 2, {}), (8, 3, {}), (8, 4, {}), (16, 2, {}),
        (32, 2, {"mode": "sample", "samples": 40, "seed": 7}),
        (16, 3, {"mode": "sample", "samples": 40, "seed": 1}),
        (32, 2, {"mode": "sample", "samples": 20, "seed": 6,
                 "alpha": F(3, 16)}),
    ])
    def test_report_equals_per_subset_is_face(self, d, k, options):
        # the sweep settles most subsets by their witness points and solves
        # most other LPs only up to tau; its minimum, counts and first
        # failures are those of solving each subset to its optimum
        options = dict(options)
        con = build(sylvester(d.bit_length() - 1),
                    alpha=options.pop("alpha", None))
        rep, expected = self.per_subset(con, k, **options)
        assert (rep.passed, rep.failed, rep.min_margin,
                rep.failures) == expected
        assert rep.enumerated == rep.checked // 2 == (
            expected[0] + expected[1]) // 2

    def test_jobs_match_serial(self, con8, con16):
        subs = list(canonical_subsets(con16.m, 2))[:30]
        serial = [is_face(con16, s) for s in subs]
        from csneighborly.sweep import ordered_map

        parallel = list(ordered_map(is_face, con16, subs, jobs=2))
        assert serial == parallel

        # every sweep hands its packed columns of H to the workers as its
        # context: exhaustive at d = 8, sampled at d = 16
        for sweep in (verify_k_neighborly, projection_containment,
                      dominant_subset_sweep):
            for con, options in ((con8, {}),
                                 (con16, {"mode": "sample", "samples": 12,
                                          "seed": 3})):
                reports = [sweep(con, jobs=jobs, **options)
                           for jobs in (1, 2, 4)]
                assert reports[0] == reports[1] == reports[2]


class TestMembership:
    def test_d4_margin_exact(self, con4):
        # hand-derived: every weight-1 point has margin exactly 1/6
        for i in (0, 4):
            point = [0] * 8
            point[i] = 1
            margin, witness = membership_margin(con4, point)
            assert margin == F(1, 6)
            # the witness places the shifted point inside the shrunk cube
            shifted = cube_offsets(con4, point, witness)
            assert max(abs(v) for v in shifted) == F(1, 2) - margin

    def test_origin_strictly_inside(self, con4):
        # sigma is unbounded: the witness comes from the ray
        margin, witness = membership_margin(con4, [0] * 8)
        assert margin == F(1, 2)
        assert cube_offsets(con4, [0] * 8, witness) == [0] * 8

    def test_rational_points_d8(self, con8):
        rng = random.Random(8)
        margins = []
        for _ in range(20):
            point = [F(rng.randint(-3, 3), rng.randint(4, 12))
                     for _ in range(con8.m)]
            margin, witness = membership_margin(con8, point)
            margins.append(str(margin))
            offsets = cube_offsets(con8, point, witness)
            assert max(abs(v) for v in offsets) == F(1, 2) - margin
        assert tuple(margins) == D8_RATIONAL_MARGINS

    def test_float_entry_rejected(self, con4):
        with pytest.raises(TypeError, match="not an exact scalar"):
            membership_margin(con4, [0.1] + [0] * 7)
        # the same point in exact form is accepted
        margin, _ = membership_margin(con4, ["1/10"] + [0] * 7)
        assert margin == membership_margin(con4, [F(1, 10)] + [0] * 7)[0]


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_points_follow_the_block_stream_d8(self, con8, k, monkeypatch):
        # the sweep's k sizes the blocks, not con.k (1 at d = 8): the point
        # of task (l, index) is the index-th row block_rows(8, k, l) streams.
        # The calling process forms every point once, in stream order,
        # before it solves the probe's LP
        events = []                # each point formed, and "lp" per LP
        real_offsets, real_lp_max = oracle._offsets, oracle.lp_max

        def recording_offsets(columns, w):
            events.append(tuple(w))
            return real_offsets(columns, w)

        def recording_lp_max(*args, **kwargs):
            events.append("lp")
            return real_lp_max(*args, **kwargs)

        monkeypatch.setattr(oracle, "_offsets", recording_offsets)
        monkeypatch.setattr(oracle, "lp_max", recording_lp_max)
        rep = projection_containment(con8, k)
        streamed = [e.dense() + f.dense() for l in range(k + 1)
                    for e, f in block_rows(8, k, l)]
        points = [event for event in events if event != "lp"]
        assert points == streamed == events[:len(points)]
        assert events[len(points)] == "lp"
        assert rep.vertices_checked == len(points) == (1 << k) * (
            16 if k == 1 else 120)

    def test_min_at_names_a_least_margin_vertex_d8(self, con8):
        rep = projection_containment(con8, 2)
        l, index = rep.min_at
        e, f = next(islice(block_rows(8, 2, l), index, None))
        margin, _ = membership_margin(con8, e.dense() + f.dense())
        assert margin == rep.min_margin

    def test_sampled_min_at_names_a_least_margin_vertex_d16(self, con16):
        rep = projection_containment(con16, 2, mode="sample", samples=6,
                                     seed=4)
        l, index = rep.min_at
        e, f = next(islice(block_rows(16, 2, l), index, None))
        margin, _ = membership_margin(con16, e.dense() + f.dense())
        assert margin == rep.min_margin

    def test_agreement_d8(self, con8):
        faces = verify_k_neighborly(con8, 1)
        dom = dominant_subset_sweep(con8, 1)
        cont = projection_containment(con8, 1)
        assert faces.all_faces
        assert dom.dominant_found == 0
        assert cont.min_margin > 0


class TestContainmentLiteral:
    """projection_containment against a fold of membership_margin, which
    solves each vertex's LP to its optimum, with no target."""

    folds = {}                     # (d, k, options) -> the fold's report

    @staticmethod
    def tasks(d, k, mode="exhaustive", samples=0, seed=0):
        """The sweep's (block l, row index) tasks, in task order."""
        if mode == "exhaustive":
            return [(l, index) for l in range(k + 1)
                    for index in range(block_row_count(d, k, l))]
        return [(l, index) for l in range(k + 1)
                for index in sample_indices(d, k, l, samples, seed)]

    @classmethod
    def fold(cls, con, k, options):
        """(min_margin, min_at, vertices_checked): the least margin, first
        in task order."""
        key = (con.d, k, tuple(sorted(options.items())))
        if key not in cls.folds:
            best = best_at = None
            tasks = cls.tasks(con.d, k, **options)
            for l, index in tasks:
                e, f = block_row(con.d, k, l, index)
                margin, _ = membership_margin(con, e.dense() + f.dense())
                if best is None or margin < best:
                    best, best_at = margin, (l, index)
            cls.folds[key] = (best, best_at, len(tasks))
        return cls.folds[key]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("d,k,options", [
        (8, 1, {}), (8, 2, {}), (8, 3, {}), (16, 2, {}),
        (32, 2, {"mode": "sample", "samples": 6, "seed": 1}),
    ])
    def test_report_equals_fold_of_membership_margin(self, d, k, options,
                                                     jobs):
        # most LPs stop once sigma exceeds the least probe optimum; the
        # report is that of solving every LP to its optimum
        con = build(sylvester(d.bit_length() - 1))
        rep = projection_containment(con, k, jobs=jobs, **options)
        assert (rep.min_margin, rep.min_at, rep.vertices_checked) == (
            self.fold(con, k, options))

    def test_known_minima_d8(self, con8):
        # k = 2 touches the boundary; k = 3 leaves the cube at (2, 3)
        assert self.fold(con8, 2, {})[0] == 0
        assert self.fold(con8, 3, {})[:2] == (F(-1, 8), (2, 3))


class SweepSpy:
    """The LPs and tasks of one serial membership sweep: lps holds
    (objective, rows, bounds, target, result) of each LP in order, and
    tasks (index, margin, LPs) of each oracle._task_margin call in order,
    with the LPs solved within it."""

    def __init__(self, monkeypatch):
        self.lps, self.tasks = [], []
        real_lp_max, real_task_margin = oracle.lp_max, oracle._task_margin

        def recording_lp_max(objective, rows, bounds, target=None):
            result = real_lp_max(objective, rows, bounds, target=target)
            self.lps.append((objective, rows, bounds, target, result))
            return result

        def recording_task_margin(context, item):
            before = len(self.lps)
            margin = real_task_margin(context, item)
            self.tasks.append((item[0], margin, self.lps[before:]))
            return margin

        monkeypatch.setattr(oracle, "lp_max", recording_lp_max)
        monkeypatch.setattr(oracle, "_task_margin", recording_task_margin)

    def check(self, con, points, floor=None):
        """Check the sweep's rule (module docstring of oracle) on its task
        points, from each point's literal closed-form sigma_pt; returns
        (probe index, tau, how many points were settled).

        The probe, the point with the least sigma_pt (the first on ties),
        is solved first to its optimum; tau is its sigma*, raised to floor.
        A point after the probe, when tau is above the floor, is settled
        when sigma_pt >= tau and its LP otherwise gets the target tau; any
        other point is settled when sigma_pt > tau and its LP gets tau+.
        A settled point's margin is 1/2 - 1/sigma_pt, and every LP whose
        sigma* is below what stops it is solved to its optimum.
        """
        sigmas = [literal_balanced_sigma(con, w) for w in points]
        probe = min((i for i, s in enumerate(sigmas) if s is not None),
                    key=sigmas.__getitem__)
        *_, target, optimum = self.lps[0]
        assert target is None and optimum.status == "optimal"
        tau, ties = optimum.objective, probe + 1
        if floor is not None and tau <= floor:
            tau, ties = floor, len(points)        # no tie stops
        assert [i for i, _, _ in self.tasks] == list(range(len(points)))
        settled = 0
        for i, margin, lps in self.tasks:
            sigma, tie = sigmas[i], i >= ties
            if i == probe:                       # looked up
                assert lps == [] and margin == F(1, 2) - 1 / optimum.objective
                continue
            if sigma is not None and (sigma >= tau if tie else sigma > tau):
                settled += 1
                assert lps == [] and margin == F(1, 2) - 1 / sigma
                continue
            (objective, rows, bounds, target, result), = lps
            # tau+ = tau + 1/(b * 2**(W-2)): sigma >= tau+ iff sigma > tau
            assert target == (tau if tie else tau + F(
                1, F(tau).denominator << (rows.width - 2)))
            if result.status == "reached":
                assert result.objective >= tau if tie else (
                    result.objective > tau)
            solved = lp_max(objective, rows, bounds)
            if solved.status == "optimal" and (
                    solved.objective < tau if tie
                    else solved.objective <= tau):
                assert result == solved          # solved to its optimum
        assert len(self.lps) == len(points) - settled
        with pytest.MonkeyPatch.context() as patch:    # not recorded
            patch.setattr(oracle, "lp_max", lp_max)
            exact, _ = membership_margin(con, points[probe])
        assert exact == F(1, 2) - 1 / optimum.objective
        return probe, tau, settled


class TestContainmentTargets:
    """The probe and target rule of projection_containment, read off the
    LPs it solves (module docstring of oracle)."""

    @pytest.mark.parametrize("d,k,options,probe,lps", [
        (8, 3, {}, (2, 3), 450),                     # fails: sigma* < 2
        (8, 3, {"mode": "sample", "samples": 2, "seed": 2}, (2, 559), 6),
        (16, 2, {}, (0, 0), 1),                      # ties at the minimum
        (32, 2, {"mode": "sample", "samples": 34, "seed": 1}, (2, 1479), 1),
    ])
    def test_targets_stop_only_lps_at_or_above_tau(self, d, k, options,
                                                   probe, lps, monkeypatch):
        spy = SweepSpy(monkeypatch)
        con = build(sylvester(d.bit_length() - 1))
        projection_containment(con, k, **options)
        tasks = TestContainmentLiteral.tasks(d, k, **options)
        points = [block_row(d, k, l, index) for l, index in tasks]
        index, _, settled = spy.check(
            con, [e.dense() + f.dense() for e, f in points])
        assert tasks[index] == probe and len(spy.lps) == lps
        # from d = 16 on the probe is the one LP: every other vertex's
        # closed-form point reaches tau
        assert (settled == len(tasks) - 1) == (d > 8)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_a_tie_before_the_probe_is_min_at(self, con8, jobs):
        # d = 8, k = 3, 2 rows per block (seed 2): the probe (2, 559) has
        # sigma_pt = 8/5 and sigma* = tau = 2; the earlier (1, 877) has
        # sigma_pt = sigma* = 2, a tie before the probe.  It keeps the
        # strict test and the target tau+, so its LP is solved to its
        # optimum and it is min_at, as in the fold of membership_margin
        options = {"mode": "sample", "samples": 2, "seed": 2}
        rep = projection_containment(con8, 3, jobs=jobs, **options)
        assert (rep.min_margin, rep.min_at, rep.vertices_checked) == (
            TestContainmentLiteral.fold(con8, 3, options))
        tasks = TestContainmentLiteral.tasks(8, 3, **options)
        sigmas = [literal_balanced_sigma(con8, e.dense() + f.dense())
                  for e, f in (block_row(8, 3, *task) for task in tasks)]
        probe = sigmas.index(min(sigmas))
        assert (rep.min_margin, rep.min_at, tasks[probe]) == (
            0, (1, 877), (2, 559))
        assert tasks.index(rep.min_at) < probe
        assert sigmas[tasks.index(rep.min_at)] == 2 > sigmas[probe]


class TestVanishingMix:
    """d = 4, k = 4: the balanced mix of 24 block-2 vertices has no
    nonzero row (m1 = 0), so their closed-form point is the correction-row
    point.  The reports are those of the sweeps before the mix."""

    def test_reports_d4_k4(self, con4):
        for jobs in (1, 2):
            cont = projection_containment(con4, 4, jobs=jobs)
            assert (cont.vertices_checked, cont.min_margin, cont.min_at) == (
                1120, F(-1, 2), (2, 18))
            dom = dominant_subset_sweep(con4, 4, jobs=jobs)
            assert (dom.subsets_checked, dom.patterns_checked,
                    dom.dominant_found, dom.min_margin,
                    dom.first_dominant) == (
                70, 1120, 70, F(-1, 2),
                ((0, 1, 2, 3), (-1, -1, -1, -1), F(-1, 6)))

    def test_vanishing_points_fall_back(self, con4):
        columns, vanishing = oracle._PackedColumns(con4), Counter()
        for l in range(5):
            for left, right in block_rows(4, 4, l):
                point = left.dense() + right.dense()
                _, rows = literal_balanced_rows(con4, point)
                if not any(rows):
                    vanishing[l] += 1
                    sigma = closed_form_point(columns, point)[0]
                    assert sigma == literal_correction_sigma(con4, point) == 1
                    # the mix is a ray: the LP is unbounded
                    assert membership_margin(con4, point)[0] == F(1, 2)
        assert vanishing == {2: 24}


def closed_form_point(columns, point):
    """(sigma_pt, nums, den, rows, bounds) of the membership sweeps'
    closed-form point x = nums / den of the point, after it is
    re-substituted into the LP's integer rows and bounds |u'_i| <= p,
    sigma >= 0 (simplex._recheck); None when the point has none."""
    d = columns.d
    scale, qbs, ints = oracle._offsets(columns, point)
    found = oracle._correction_point(columns, ints, qbs, scale)
    if found is None:
        return None
    nums, den = found
    objective, rows, bounds = oracle._program(columns, scale, qbs)
    assert objective == (0,) * d + (1,)
    assert bounds == [(-columns.p, columns.p)] * d + [(0, None)]
    _recheck(objective, rows, bounds, nums, den, nums[d])
    return F(nums[d], den), nums, den, rows, bounds


class TestCorrectionPoint:
    """The membership sweeps' closed-form point: the better of the paper's
    correction-row point and its balanced mix with the point itself
    (literal_balanced_sigma), feasible for membership_margin's LP, so
    sigma_pt <= sigma*."""

    @staticmethod
    def check(con, columns, point):
        sigma = closed_form_point(columns, point)[0]
        assert sigma == literal_balanced_sigma(con, point), point
        assert sigma >= literal_correction_sigma(con, point)
        optimum, _ = membership_margin(con, point)
        star = None if optimum == F(1, 2) else 1 / (F(1, 2) - optimum)
        assert star is None or sigma <= star, point
        return sigma, star

    @pytest.mark.parametrize("e,ks", [(2, (1, 2, 3, 4)), (3, (1, 2, 3)),
                                      (4, (2,))])
    def test_every_vertex(self, e, ks):
        con = build(sylvester(e))
        columns, tally, mixed = oracle._PackedColumns(con), Counter(), 0
        for k in ks:
            for l in range(k + 1):
                for left, right in block_rows(con.d, k, l):
                    point = left.dense() + right.dense()
                    sigma, star = self.check(con, columns, point)
                    tally[sigma == star] += 1
                    mixed += sigma > literal_correction_sigma(con, point)
        # the point is optimal at some vertices and short of it at others,
        # and the mix beats the correction-row point at some
        assert tally[True] and tally[False] and mixed

    @pytest.mark.parametrize("e,k,samples,alpha", [
        (5, 2, 4, None), (5, 2, 3, F(3, 16)), (6, 4, 2, None)])
    def test_sampled_vertices(self, e, k, samples, alpha):
        con = build(sylvester(e), alpha=alpha)
        columns = oracle._PackedColumns(con)
        for l in range(k + 1):
            for index in sample_indices(con.d, k, l, samples, seed=e):
                left, right = block_row(con.d, k, l, index)
                self.check(con, columns, left.dense() + right.dense())

    @pytest.mark.parametrize("e", [4, 5, 6])
    def test_pure_blocks(self, e):
        # on block 0 (e = 0) sigma_pt is 1 + p*d/(q*k), on block k (f = 0)
        # 1 + q/(p*k); with k = 2 that is sigma* at d = 16, 32 and 64.  At
        # k = 4 it can fall short: at d = 64 both blocks give 3 < sigma* = 4
        con = build(sylvester(e))
        columns, (p, q), d = (oracle._PackedColumns(con),
                              con.params.alpha.as_integer_ratio(), con.d)
        for k in (2, 4):
            for l, closed in ((0, 1 + F(p * d, q * k)), (k, 1 + F(q, p * k))):
                for index in sample_indices(d, k, l, 3, seed=e):
                    left, right = block_row(d, k, l, index)
                    sigma, star = self.check(con, columns,
                                             left.dense() + right.dense())
                    assert sigma == closed
                    assert sigma == star or k == 4

    @pytest.mark.parametrize("e,alpha", [(3, None), (3, F(2, 5)), (4, None)])
    def test_fractional_points(self, e, alpha):
        # the sweeps' points are ints; _offsets scales any other point's
        # rows by the lcm of its denominators, and its closed-form point too
        con = build(sylvester(e), alpha=alpha)
        columns, rng = oracle._PackedColumns(con), random.Random(e)
        for _ in range(10):
            self.check(con, columns, [F(rng.randint(-3, 3), rng.randint(2, 7))
                                      for _ in range(con.m)])

    def test_rows_are_the_cube_offsets(self, con16):
        # with y = -(e + beta*f*H^T), w + X y is the two correction rows;
        # at (1 - lam)*y it is the balanced mix's rows
        for l, index in ((0, 7), (1, 300), (2, 400)):
            left, right = block_row(16, 2, l, index)
            point = left.dense() + right.dense()
            for y, rows in (literal_correction_rows(con16, point),
                            literal_balanced_rows(con16, point)):
                assert cube_offsets(con16, point, y) == rows

    def test_origin_has_no_point(self, con8):
        assert closed_form_point(oracle._PackedColumns(con8), [0] * 16) is None
        assert literal_balanced_sigma(con8, [0] * 16) is None

    def test_settled_points_are_rechecked(self, con16, monkeypatch):
        # the exhaustive d = 16 sweep settles every vertex but its probe,
        # each after re-substituting its closed-form point
        calls = []
        real_recheck = oracle._recheck

        def recording(*args):
            calls.append(args)
            return real_recheck(*args)

        monkeypatch.setattr(oracle, "_recheck", recording)
        projection_containment(con16, 2)
        columns = oracle._PackedColumns(con16)
        points = [left.dense() + right.dense() for l in range(3)
                  for left, right in block_rows(16, 2, l)][1:]
        assert len(calls) == len(points) == 1983
        for (_, rows, bounds, nums, den, value), point in zip(calls, points):
            _, x, x_den, x_rows, x_bounds = closed_form_point(columns, point)
            assert (rows, bounds, nums, den, value) == (
                x_rows, x_bounds, x, x_den, x[16])

    def test_overstated_point_is_rejected(self, con16):
        # sigma_pt is the least limit of a row or bound, so one unit less
        # in den, or the point moved out along its ray by (den + 1)/den,
        # leaves a row or bound
        columns = oracle._PackedColumns(con16)
        for l, index in ((0, 5), (1, 100), (1, 1000), (2, 300)):
            left, right = block_row(16, 2, l, index)
            _, nums, den, rows, bounds = closed_form_point(
                columns, left.dense() + right.dense())
            out = [v * (den + 1) for v in nums]
            for bad, bad_den in ((nums, den - 1), (out, den * den)):
                with pytest.raises(RuntimeError, match="internal error: "
                                   "row or bound violated"):
                    _recheck((0,) * 16 + (1,), rows, bounds, bad, bad_den,
                             bad[16])


def pattern_point(m, indices, signs):
    """The cs-transform point of a sign pattern: the signs at the indices,
    0 elsewhere."""
    point = [0] * m
    for i, s in zip(indices, signs):
        point[i] = s
    return point


class TestDominanceLiteral:
    """dominant_subset_sweep against a fold of membership_margin, which
    solves each sign pattern's LP to its optimum, with no target."""

    folds = {}                     # (d, k, options) -> the fold's report

    @staticmethod
    def subsets(m, k, mode="exhaustive", samples=0, seed=0):
        """The sweep's index subsets, in task order."""
        if mode == "exhaustive":
            return list(combinations(range(m), k))
        return [literal_unrank_support(m, k, rank) for (rank,) in
                draws((seed << 20) ^ (m << 8) ^ k ^ 0x515, (comb(m, k),),
                      samples)]

    @classmethod
    def fold(cls, con, k, options):
        """(subsets_checked, patterns_checked, dominant_found, min_margin,
        first_dominant): first_dominant is the first dominant subset with
        its least (margin, signs) pattern."""
        key = (con.d, k, tuple(sorted(options.items())))
        if key not in cls.folds:
            subsets = cls.subsets(con.m, k, **options)
            found, best, first = 0, None, None
            for indices in subsets:
                margin, signs = min(
                    (membership_margin(con, pattern_point(con.m, indices,
                                                          signs))[0], signs)
                    for signs in product((1, -1), repeat=k))
                best = margin if best is None else min(best, margin)
                if margin <= 0:
                    found += 1
                    first = first or (indices, signs, margin)
            cls.folds[key] = (len(subsets), len(subsets) << k, found, best,
                              first)
        return cls.folds[key]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("d,k,options", [
        (4, 4, {}), (8, 1, {}), (8, 2, {}), (8, 3, {}), (16, 2, {}),
        (32, 2, {"mode": "sample", "samples": 10, "seed": 1}),
    ])
    def test_report_equals_fold_of_membership_margin(self, d, k, options,
                                                     jobs):
        # most LPs stop once sigma exceeds the larger of 2 and the probe's
        # optimum (3/2 at d = 4, k = 4); the report is that of solving
        # every LP to its optimum
        con = build(sylvester(d.bit_length() - 1))
        rep = dominant_subset_sweep(con, k, jobs=jobs, **options)
        assert (rep.subsets_checked, rep.patterns_checked,
                rep.dominant_found, rep.min_margin,
                rep.first_dominant) == self.fold(con, k, options)

    def test_known_dominant_subsets_d8(self, con8):
        # k = 1 has none; k = 2 first touches the boundary at (0, 1), and
        # k = 3 has a pattern outside the cube
        assert self.fold(con8, 1, {})[2:4] == (0, F(1, 6))
        assert self.fold(con8, 2, {})[2:] == (28, 0, ((0, 1), (-1, -1), 0))
        assert self.fold(con8, 3, {})[2:4] == (504, F(-1, 8))

    @pytest.mark.parametrize("indices", [(0, 1), (2, 9), (3, 12, 15)])
    def test_is_dominant_margins_are_exact(self, con8, indices):
        rep = is_dominant(con8, indices)
        assert rep.pattern_margins == tuple(
            (signs, membership_margin(con8, pattern_point(16, indices,
                                                          signs))[0])
            for signs in product((1, -1), repeat=len(indices)))
        assert rep.min_margin == min(m for _, m in rep.pattern_margins)


class TestDominanceTargets:
    """The probe and target rule of dominant_subset_sweep, read off the LPs
    it solves (module docstring of oracle): tau is the probe's sigma*,
    raised to the floor of 2."""

    @pytest.mark.parametrize("d,k,options,tau,lps", [
        (4, 4, {}, F(6, 5), 1056),                   # the floor 2 in force
        (8, 2, {}, 2, 240),                          # tau = 2: no tie stops
        (16, 2, {}, 3, 1),
        (32, 2, {"mode": "sample", "samples": 25, "seed": 4}, 3, 1),
    ])
    def test_targets_stop_only_lps_at_or_above_tau(self, d, k, options, tau,
                                                   lps, monkeypatch):
        spy = SweepSpy(monkeypatch)
        con = build(sylvester(d.bit_length() - 1))
        dominant_subset_sweep(con, k, **options)
        subsets = TestDominanceLiteral.subsets(con.m, k, **options)
        points = [pattern_point(con.m, indices, signs) for indices in subsets
                  for signs in product((1, -1), repeat=k)]
        _, floor, settled = spy.check(con, points, floor=2)
        assert spy.lps[0][4].objective == tau and floor == max(tau, 2)
        assert len(spy.lps) == lps
        assert (settled == len(points) - 1) == (d > 8)

    def test_no_bounded_probe_gives_no_target(self, con4, monkeypatch):
        # the probe is the first point with the least sigma_pt, 1: a block-2
        # vertex of the d = 4, k = 4 section whose balanced mix vanishes, so
        # that its LP is unbounded (margin 1/2).  With no tau the floor of 2
        # alone sets no target, and every LP is solved to its optimum: the
        # origin's (which has no closed-form point) and that of "outside",
        # whose sigma_pt ties the probe's
        spy = SweepSpy(monkeypatch)
        points = {"vanishing": (0, 0, 1, 1, 1, 0, -1, 0), "origin": (0,) * 8,
                  "e0": pattern_point(8, (0,), (1,)),
                  "outside": (0, 0, 1, 1, -1, 0, 1, 0)}
        tasks = list(points)
        assert [literal_balanced_sigma(con4, points[t]) for t in tasks] == [
            1, None, 3, 1]
        exact = [membership_margin(con4, points[t])[0] for t in tasks]
        assert exact == [F(1, 2), F(1, 2), F(1, 6), F(-1, 2)]
        for floor in (2, None):
            del spy.lps[:]
            assert list(oracle._membership_margins(
                oracle._PackedColumns(con4), lambda _, task: points[task],
                tasks, floor, 1)) == exact
            assert [lp[3] for lp in spy.lps] == [None] * len(tasks)
            assert spy.lps[0][4].status == "unbounded"
