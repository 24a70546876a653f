import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest

from csneighborly import block_rows, lp_max, oracle, simplex
from csneighborly.blocks import sample_indices
from csneighborly.cli import main
from csneighborly.construction import build
from csneighborly.hadamard import sylvester
from csneighborly.simplex import (PackedRows, _check_dual, _field_width,
                                  _recheck)
from literal import block_row, literal_dual_failures, literal_lp_max

FREE = (None, None)


def solve_square(rows, rhs):
    """Exact Gaussian solve; None when the system is singular/inconsistent."""
    n = len(rhs)
    work = [list(map(F, row)) + [F(rhs_i)] for row, rhs_i in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return None
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [v * inv for v in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [work[i][n] for i in range(n)]


def basic_points(n, eq, le):
    """Every feasible intersection of n constraint hyperplanes, with
    repeats, read from the caller's own rows."""
    cons = [(coeffs, rhs, True) for coeffs, rhs in eq]
    cons += [(coeffs, rhs, False) for coeffs, rhs in le]
    points = []
    for subset in combinations(range(len(cons)), n):
        rows = [cons[i][0] for i in subset]
        rhs = [cons[i][1] for i in subset]
        point = solve_square(rows, rhs)
        if point is None:
            continue
        feasible = True
        for coeffs, b, is_eq in cons:
            val = sum(c * v for c, v in zip(coeffs, point))
            if (is_eq and val != b) or (not is_eq and val > b):
                feasible = False
                break
        if feasible:
            points.append(point)
    return points


def brute_force_max(objective, eq, le):
    """Independent oracle for bounded problems: enumerate basic points.

    Reads the caller's rows, not the solver's copy, so an error in how
    ``lp_max`` reads its rows shows as a disagreement.  Requires the
    feasible region to be bounded (the callers add box constraints), so it
    is a polytope and the optimum sits at a vertex, i.e. at an intersection
    of n constraint hyperplanes.
    """
    return max(
        (sum(c * v for c, v in zip(objective, point))
         for point in basic_points(len(objective), eq, le)),
        default=None,
    )


def boxed(n, le, bound=5):
    """Return ``le`` plus |x_i| <= bound rows, so the brute-force oracle
    applies."""
    extra = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        extra.append((tuple(e), F(bound)))
        e2 = [F(0)] * n
        e2[i] = F(-1)
        extra.append((tuple(e2), F(bound)))
    return list(le) + extra


def ints(values):
    """Integer-valued Fractions as ints; anything else is a test error."""
    values = list(values)
    assert all(F(v).denominator == 1 for v in values)
    return [int(v) for v in values]


def ranged(eq, le):
    """The rows eq (a.x = b) and le (a.x <= b) in lp_max's ranged form."""
    return ([(ints(a), int(b), int(b)) for a, b in eq]
            + [(ints(a), None, int(b)) for a, b in le])


def origin_feasible(eq, le):
    return all(b == 0 for _, b in eq) and all(b >= 0 for _, b in le)


def assert_witness(objective, eq, le, x, value):
    """Re-substitute the point x into the caller's own rows and objective."""
    for coeffs, rhs in eq:
        assert sum(c * v for c, v in zip(coeffs, x)) == rhs
    for coeffs, rhs in le:
        assert sum(c * v for c, v in zip(coeffs, x)) <= rhs
    assert sum(c * v for c, v in zip(objective, x)) == value


def solve_shifted(c_ints, eq, le, x0, box=None):
    """Solve in y = D (x - x0), D the lcm of x0's denominators, so that every
    row and bound is integral and the origin is feasible.  The rows come
    from eq, le and, as bounds, the box |x_i| <= box.  Returns the result
    and x = x0 + y / D, c.x = c.x0 + optimum / D."""
    scale = lcm(*(v.denominator for v in x0))

    def shift(coeffs, rhs):
        return int(scale * (rhs - sum(a * v for a, v in zip(coeffs, x0))))

    rows = [(ints(a), shift(a, b), shift(a, b)) for a, b in eq]
    rows += [(ints(a), None, shift(a, b)) for a, b in le]
    bounds = [FREE] * len(x0) if box is None else [
        (int(scale * (-box - v)), int(scale * (box - v))) for v in x0]
    res = lp_max(c_ints, rows, bounds)
    assert res.status == "optimal"
    assert res == literal_lp_max(c_ints, rows, bounds)
    x = [v + y / scale for v, y in zip(x0, res.x)]
    value = sum(c * v for c, v in zip(c_ints, x0)) + res.objective / scale
    return res, x, value


def assert_ray(objective, rows, bounds, res):
    """The ray improves the objective and every row and bound admits it."""
    assert res.status == "unbounded" and res.objective is None
    assert sum(c * r for c, r in zip(objective, res.x)) > 0
    limits = [(sum(a * r for a, r in zip(coeffs, res.x)), lo, hi)
              for coeffs, lo, hi in rows]
    limits += [(r, lo, hi) for r, (lo, hi) in zip(res.x, bounds)]
    for value, lo, hi in limits:
        assert hi is None or value <= 0
        assert lo is None or value >= 0


class TestTrivialPrograms:
    def test_single_bound(self):
        res = lp_max([1], [([1], None, 3)], [FREE])
        assert res.status == "optimal"
        assert res.objective == 3

    def test_exact_third(self):
        # x <= 1/3 and x <= 1/2, each row scaled to integers by the caller
        res = lp_max([1], [([3], None, 1), ([2], None, 1)], [FREE])
        assert res.objective == F(1, 3)

    def test_unbounded(self):
        rows, bounds = [([-1], None, 0)], [FREE]
        res = lp_max([1], rows, bounds)
        assert res.x == (1,)
        assert_ray([1], rows, bounds, res)

    def test_unbounded_ray_through_a_ranged_row(self):
        # maximize x + y with -1 <= x - y <= 1 and y >= 0: the ray is (1, 1)
        rows, bounds = [([1, -1], -1, 1)], [FREE, (0, None)]
        res = lp_max([1, 1], rows, bounds)
        assert res.x[0] == res.x[1] > 0
        assert_ray([1, 1], rows, bounds, res)

    def test_equalities(self):
        # x + y = 0 and -3 <= x - 2y <= 3: y = 1 at x = -1
        res = lp_max([0, 1], [([1, 1], 0, 0), ([1, -2], -3, 3)], [FREE, FREE])
        assert res.objective == 1
        assert res.x == (-1, 1)

    def test_ranged_equality_row(self):
        # x - y in [0, 0], -1 <= x <= 2, y free: y = x = 2
        res = lp_max([0, 1], [([1, -1], 0, 0)], [(-1, 2), FREE])
        assert res.objective == 2
        assert res.x == (2, 2)

    def test_ranged_row_both_sides(self):
        # -1 <= x + y <= 1 and |y| <= 2: x = 3 at y = -2
        res = lp_max([1, 0], [([1, 1], -1, 1)], [FREE, (-2, 2)])
        assert res.objective == 3
        assert res.x == (3, -2)

    @pytest.mark.parametrize("row", [([-1], None, 4), ([1], -4, None)])
    def test_free_variables_go_negative(self, row):
        res = lp_max([-1], [row], [FREE])
        assert res.objective == 4
        assert res.x == (F(-4),)


class TestBoundFlips:
    def test_flips_need_no_pivot(self):
        # no rows: each variable moves to its upper bound by a flip
        res = lp_max([1, 1], [], [(0, 2), (0, 3)])
        assert res.objective == 5
        assert res.x == (2, 3)
        assert res.pivots == 0

    def test_flip_then_pivot(self):
        # x flips to 1, then y enters and the row x + y <= 4 stops it at 3
        res = lp_max([1, 1], [([1, 1], None, 4)], [(0, 1), (0, 5)])
        assert res.objective == 4
        assert res.x == (1, 3)
        assert res.pivots == 1

    def test_flip_to_lower_bound(self):
        res = lp_max([-2, 1], [([1, 1], None, 1)], [(-3, 3), (0, None)])
        assert res.objective == 10
        assert res.x == (-3, 4)


class TestDegeneracy:
    def test_beale_cycling_instance(self):
        # Beale's classic cycling example, objective and rows scaled to
        # integers (objective by 100).  It cycles in the textbook tableau,
        # but not here: this dictionary's ratio-test ties go to other
        # variables, and the run ends in 6 pivots with or without the Bland
        # fallback.  The first 4 pivots are degenerate (n = 4), so Bland's
        # rule picks the fifth pivot's entering variable
        nonneg = (0, None)
        program = (
            [75, -15000, 2, -600],
            [
                ([25, -6000, -4, 900], None, 0),
                ([50, -9000, -2, 300], None, 0),
                ([0, 0, 1, 0], None, 1),
            ],
            [nonneg] * 4,
        )
        res = lp_max(*program)
        assert res.status == "optimal"
        assert res.objective == 5
        assert res.x == (F(1, 25), F(0), F(1), F(0))
        assert res.pivots == 6
        blands = []
        assert literal_lp_max(*program, blands=blands) == res
        assert blands == [False, False, False, False, True, False]

    def test_degenerate_vertex(self):
        res = lp_max(
            [1, 1],
            [([1, 0], None, 1), ([0, 1], None, 1), ([1, 1], None, 2),
             ([1, -1], None, 0)],
            [FREE, FREE],
        )
        assert res.objective == 2

    def test_ratio_tie_goes_to_the_bound_flip(self):
        # maximize 2x + y with x - y <= 0 and 0 <= x, y <= 2.  x enters
        # first (the larger cost) and the row stops it at step 0, so x is
        # basic, x = y + (x - y).  Then y enters: x reaches 2 at step 2, the
        # same step as y's own bound.  The flip takes it; had x (the smaller
        # index) left, y would leave again at step 0 on the next pivot, and
        # the run would take 3 pivots.
        le = [((F(1), F(-1)), F(0)), ((F(1), F(0)), F(2)),
              ((F(0), F(1)), F(2)), ((F(-1), F(0)), F(0)),
              ((F(0), F(-1)), F(0))]
        program = ([2, 1], [([1, -1], None, 0)], [(0, 2), (0, 2)])
        res = lp_max(*program)
        assert res.pivots == 1
        assert res.x == (2, 2)
        assert res.objective == brute_force_max([F(2), F(1)], [], le) == 6
        assert res == literal_lp_max(*program)

    # maximize -x + y - z with three rows through the origin and |x_j| <= 1:
    # the first n = 3 pivots all stay at the origin, so Bland's rule picks
    # the fourth pivot's entering variable
    THROUGH_ORIGIN = ([-1, 1, -1],
                      [([-3, 2, 1], None, 0), ([-1, -3, 0], None, 0),
                       ([-1, -1, 0], None, 0)],
                      [(-1, 1)] * 3)

    def test_bland_fallback_after_n_degenerate_pivots(self, monkeypatch):
        blands = []
        expected = literal_lp_max(*self.THROUGH_ORIGIN, blands=blands)
        assert blands == [False, False, False, True, False, False]
        assert expected.objective == F(5, 3)
        assert expected.x == (F(1, 3), 1, -1)
        objective, rows, _ = self.THROUGH_ORIGIN
        le = boxed(3, [(tuple(map(F, a)), F(0)) for a, _, _ in rows], 1)
        assert brute_force_max(list(map(F, objective)), [], le) == F(5, 3)
        calls = []
        entering = simplex._entering

        def recording(*args):
            calls.append(args[-1])
            return entering(*args)

        monkeypatch.setattr(simplex, "_entering", recording)
        assert lp_max(*self.THROUGH_ORIGIN) == expected
        assert calls.count(True) == 1 and calls.index(True) == 3
        # without the fallback the largest cost enters at the fourth pivot
        # too, and the run differs
        monkeypatch.setattr(simplex, "_entering",
                            lambda *args: entering(*args[:-1], False))
        assert lp_max(*self.THROUGH_ORIGIN) != expected


class TestAgainstBruteForce:
    """Every program is solved twice where it can be: as given, when the
    origin is feasible (ValueError is asserted when it is not), and shifted
    to the centroid of its feasible basic points, when it has any."""

    @pytest.mark.parametrize("box_as_bounds", [False, True])
    def test_random_inequality_programs(self, box_as_bounds):
        rng = random.Random(101)
        paths = {"optimal": 0, "origin infeasible": 0, "shifted": 0}
        for _ in range(40):
            n = rng.randint(2, 3)
            objective = [F(rng.randint(-4, 4)) for _ in range(n)]
            le = [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    F(rng.randint(-4, 6)),
                )
                for _ in range(rng.randint(2, 5))
            ]
            # the same |x_i| <= 5 box, given as rows or as variable bounds
            box = 5 if box_as_bounds else None
            given = le if box_as_bounds else boxed(n, le)
            le = boxed(n, le)
            expected = brute_force_max(objective, [], le)
            rows = ranged([], given)
            bounds = [(-5, 5) if box else FREE] * n
            if origin_feasible([], le):
                res = lp_max(ints(objective), rows, bounds)
                assert res.status == "optimal"
                assert res == literal_lp_max(ints(objective), rows, bounds)
                assert res.objective == expected
                assert_witness(objective, [], le, res.x, res.objective)
                paths["optimal"] += 1
            else:
                with pytest.raises(ValueError, match="origin"):
                    lp_max(ints(objective), rows, bounds)
                paths["origin infeasible"] += 1
            points = basic_points(n, [], le)
            if points:
                x0 = [sum(col) / len(points) for col in zip(*points)]
                _, x, value = solve_shifted(ints(objective), [], given, x0,
                                            box)
                assert value == expected
                assert_witness(objective, [], le, x, value)
                paths["shifted"] += 1
        assert min(paths.values()) > 0   # the sample exercises every path

    def test_random_mixed_programs(self):
        rng = random.Random(202)
        paths = {"optimal": 0, "origin infeasible": 0, "shifted": 0,
                 "infeasible": 0}
        for _ in range(30):
            n = rng.randint(2, 3)
            eq = []
            if rng.random() < 0.7:
                eq.append(
                    (
                        tuple(F(rng.randint(-2, 2)) for _ in range(n)),
                        F(rng.randint(-3, 3)),
                    )
                )
            objective = [
                F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)
            ]
            le = boxed(n, [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    F(rng.randint(-3, 6)),
                )
                for _ in range(rng.randint(1, 4))
            ])
            # the objective in integers: scaled by the lcm of its
            # denominators, which scales the optimum and not the maximizer
            scale = lcm(*(c.denominator for c in objective))
            c_ints = ints(c * scale for c in objective)
            expected = brute_force_max(objective, eq, le)
            if origin_feasible(eq, le):
                program = (c_ints, ranged(eq, le), [FREE] * n)
                res = lp_max(*program)
                assert res == literal_lp_max(*program)
                assert res.objective == scale * expected
                assert_witness(objective, eq, le, res.x, expected)
                paths["optimal"] += 1
            else:
                with pytest.raises(ValueError, match="origin"):
                    lp_max(c_ints, ranged(eq, le), [FREE] * n)
                paths["origin infeasible"] += 1
            points = basic_points(n, eq, le)
            if points:
                x0 = [sum(col) / len(points) for col in zip(*points)]
                _, x, value = solve_shifted(c_ints, eq, le, x0)
                assert value == scale * expected
                assert_witness(objective, eq, le, x, expected)
                paths["shifted"] += 1
            else:
                paths["infeasible"] += 1
        assert min(paths.values()) > 0


class TestWitnesses:
    def test_exact_resubstitution(self):
        # maximize 6x - y with 0 <= 7x + 7y <= 5, x - y <= 2 and x >= 0
        objective = [6, -1]
        rows = [([7, 7], 0, 5), ([1, -1], None, 2)]
        res = lp_max(objective, rows, [(0, None), FREE])
        assert res.x == (F(19, 14), F(-9, 14))
        assert 7 * res.x[0] + 7 * res.x[1] == 5
        assert res.objective == 6 * res.x[0] - res.x[1]

    def test_determinism(self):
        args = (
            [1, 2, -1],
            [([1, 1, 1], None, 4), ([1, -1, 0], None, 1),
             ([-1, 0, 2], None, 3), ([1, 0, -1], 0, 0)],
            [FREE] * 3,
        )
        first = lp_max(*args)
        second = lp_max(*args)
        assert first == second

    def test_rejects_empty_program(self):
        with pytest.raises(ValueError):
            lp_max([], [], [])


class TestInputs:
    @pytest.mark.parametrize("args", [
        ([1, 0.5], [], [FREE, FREE]),
        ([1, F(1, 2)], [], [FREE, FREE]),
        ([1, 1], [([0.5, 1], None, 1)], [FREE, FREE]),
        ([1, 1], [([1, 1], None, F(1, 2))], [FREE, FREE]),
        ([1, 1], [([1, 1], "0", 1)], [FREE, FREE]),
        ([1, 1], [], [FREE, (0, 0.5)]),
        ([1, 1], [], [FREE, (None, True)]),
    ])
    def test_non_int_entry_rejected(self, args):
        with pytest.raises(TypeError, match="not an int"):
            lp_max(*args)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row width 3 != 2"):
            lp_max([1, 1], [([1, 1, 1], None, 1)], [FREE, FREE])
        with pytest.raises(ValueError, match="1 bounds for 2 variables"):
            lp_max([1, 1], [], [FREE])

    @pytest.mark.parametrize("rows,bounds", [
        ([([1], 1, 2)], [FREE]),             # the row excludes 0
        ([([1], None, -1)], [FREE]),
        ([([1], 0, 0), ([1], 1, 1)], [FREE]),
        ([], [(1, None)]),                   # the bound excludes 0
        ([], [(None, -1)]),
    ])
    def test_infeasible_origin_rejected(self, rows, bounds):
        with pytest.raises(ValueError, match="origin is not feasible"):
            lp_max([1], rows, bounds)

    # x + y <= 3 and x - y in [-1, 1], packed in 8-bit fields; the first
    # column counts as checked by the caller
    PACKED = [((1, 1), None, 3), ((1, -1), -1, 1)]

    @staticmethod
    def packed(rows, table=None):
        shifts = (0, 8)
        if table is None:
            table = [sum(int(a) << sh for a, sh in zip(c, shifts))
                     for c, _, _ in rows]
        return PackedRows(rows, 8, table, 1)

    def test_packed_rows_give_lp_max_result(self):
        rows = self.PACKED
        res = lp_max([1, 2], self.packed(rows), [FREE, FREE])
        assert res == lp_max([1, 2], rows, [FREE, FREE])
        assert res.objective == 5

    @pytest.mark.parametrize("rows,bounds", [
        ([((1, 1.0), None, 3), ((1, -1), -1, 1)], [FREE, FREE]),
        ([((1, 1), None, 3.0), ((1, -1), -1, 1)], [FREE, FREE]),
        (PACKED, [FREE, (None, F(1))]),
    ])
    def test_packed_rows_check_the_rest(self, rows, bounds):
        with pytest.raises(TypeError, match="not an int"):
            lp_max([1, 2], self.packed(rows), bounds)

    def test_packed_rows_need_one_int_per_row(self):
        with pytest.raises(ValueError, match="1 packed rows for 2 rows"):
            lp_max([1, 2], self.packed(self.PACKED, [0]), [FREE, FREE])

    def test_rows_may_be_any_iterable(self):
        rows = (((v, 1), None, 3) for v in (1, 2))
        res = lp_max([1, 1], rows, iter([FREE, (0, 1)]))
        assert res.objective == 2 and res.x == (1, 1)


class TestRecheck:
    """The result check runs on integer numerators over a denominator."""

    # maximize x + 2y  s.t.  0 <= 2x + 2y <= 3,  2x - 2y <= 1,  x >= 0
    ARGS = ([1, 2], [([2, 2], 0, 3), ([2, -2], None, 1)], [(0, None), FREE])

    def test_optimum_passes(self):
        res = lp_max(*self.ARGS)
        assert res.x == (0, F(3, 2)) and res.objective == 3
        # x = (0, 3) / 2, and c.x = 6 / 2
        _recheck(*self.ARGS, [0, 3], 2, 6)
        _recheck(*self.ARGS, [0, 6], 4, 12)

    @pytest.mark.parametrize("nums,den,optimum,message", [
        ([1, 3], 2, 7, "row or bound violated"),
        ([5, 1], 4, 7, "row or bound violated"),
        ([-1, 4], 2, 7, "row or bound violated"),
        ([0, 3], 2, 5, "objective mismatch"),
        ([0, 3], 2, 7, "objective mismatch"),
    ])
    def test_each_violation_raises(self, nums, den, optimum, message):
        with pytest.raises(RuntimeError, match=message):
            _recheck(*self.ARGS, nums, den, optimum)

    # maximize x + y  s.t.  -1 <= x - y <= 1,  y >= 0: the ray (1, 1)
    RAY = ([1, 1], [([1, -1], -1, 1)], [FREE, (0, None)])

    def test_ray_passes(self):
        res = lp_max(*self.RAY)
        assert res.status == "unbounded"
        _recheck(*self.RAY, [1, 1], 1, None)
        _recheck(*self.RAY, [3, 3], 7, None)

    @pytest.mark.parametrize("ray,message", [
        ([1, 0], "ray leaves a row or bound"),
        ([-1, -1], "ray leaves a row or bound"),
        ([0, 0], "objective mismatch"),
    ])
    def test_each_ray_violation_raises(self, ray, message):
        with pytest.raises(RuntimeError, match=message):
            _recheck(*self.RAY, ray, 1, None)


def solves_of(sweep, *args, **kwargs):
    """(program, rows as given, result) of every LP that an oracle call
    solves: program is (objective, rows, bounds, target) with plain tuple
    rows, so that lp_max(*program) and literal_lp_max(*program) solve it
    with the oracle's target, and rows as given are the PackedRows that the
    oracle passed to lp_max."""
    solves = []
    solve = oracle.lp_max

    def recording(objective, rows, bounds, target=None):
        program = (tuple(objective),
                   tuple((tuple(a), low, high) for a, low, high in rows),
                   tuple(bounds), target)
        result = solve(objective, rows, bounds, target=target)
        solves.append((program, rows, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "lp_max", recording)
        sweep(*args, **kwargs)
    return solves


def face_lps(con, subsets):
    """is_face on each subset: one face LP each, solved to its optimum.
    The face sweep settles most subsets by witness points, so it is not a
    source of many face LPs."""
    return [oracle.is_face(con, subset) for subset in subsets]


def programs_of(solves):
    return [program for program, _, _ in solves]


def membership_lps(con, points):
    """membership_margin on each point: one membership LP each, solved to
    its optimum.  The membership sweeps settle most points by their
    closed-form points, so they are not a source of many membership LPs."""
    return [oracle.membership_margin(con, point) for point in points]


def sampled_vertices(con, k, samples, seed):
    """The points of a sampled containment sweep, in task order."""
    return [left.dense() + right.dense() for l in range(k + 1)
            for left, right in (block_row(con.d, k, l, index) for index in
                                sample_indices(con.d, k, l, samples, seed))]


@pytest.fixture(scope="module")
def d8_solves():
    """The face LP of every canonical subset of the d = 8 face sweep, and
    the membership LP of every vertex of the d = 8 containment sweep and
    of every sign pattern of the d = 8 dominance sweep."""
    con = build(sylvester(3))
    faces = solves_of(face_lps, con, oracle.canonical_subsets(con.m, con.k))
    vertices = [left.dense() + right.dense() for l in range(con.k + 1)
                for left, right in block_rows(con.d, con.k, l)]
    patterns = [[s if j == i else 0 for j in range(con.m)]
                for i in range(con.m) for s in (1, -1)]
    return faces + solves_of(membership_lps, con, vertices + patterns)


@pytest.fixture(scope="module")
def d8_programs(d8_solves):
    return programs_of(d8_solves)


@pytest.fixture(scope="module")
def d16_face_solves():
    """The face LP of every canonical subset of the exhaustive d = 16
    sweep: 992 subsets."""
    con = build(sylvester(4))
    return solves_of(face_lps, con, oracle.canonical_subsets(con.m, con.k))


@pytest.fixture(scope="module")
def d16_face_programs(d16_face_solves):
    return programs_of(d16_face_solves)


@pytest.fixture(scope="module")
def d32_membership_solves():
    """Membership LPs of the vertices of a seeded d = 32 containment
    sample, 2 per block, each solved to its optimum (the sweep itself
    solves only its probe)."""
    con = build(sylvester(5))
    return solves_of(membership_lps, con, sampled_vertices(con, 2, 2, 3))


@pytest.fixture(scope="module")
def d32_membership_programs(d32_membership_solves):
    return programs_of(d32_membership_solves)


@pytest.fixture(scope="module")
def literal_of():
    """literal_lp_max(*program), each program solved once per module."""
    results = {}

    def literal(program):
        if program not in results:
            results[program] = literal_lp_max(*program)
        return results[program]

    return literal


def literal_runs(programs):
    """(program, literal result, largest integer entry per dictionary)."""
    runs = []
    for program in programs:
        entries = []
        runs.append((program, literal_lp_max(*program, entries=entries),
                     entries))
    return runs


@pytest.fixture(scope="module")
def sampled_literal_runs(d16_face_programs, d32_membership_programs):
    """The literal oracle on 8 seeded d = 16 face LPs and on the d = 32
    membership sample."""
    faces = random.Random(16).sample(d16_face_programs, 8)
    return literal_runs(faces + d32_membership_programs)


SMALL_PROGRAMS = [
    ([1], [([1], None, 3)], [FREE]),
    ([1], [([3], None, 1), ([2], None, 1)], [FREE]),
    ([1], [([-1], None, 0)], [FREE]),
    ([1, 1], [([1, -1], -1, 1)], [FREE, (0, None)]),
    ([0, 1], [([1, 1], 0, 0), ([1, -2], -3, 3)], [FREE, FREE]),
    ([1, 0], [([1, 1], -1, 1)], [FREE, (-2, 2)]),
    ([1, 1], [], [(0, 2), (0, 3)]),
    ([1, 1], [([1, 1], None, 4)], [(0, 1), (0, 5)]),
    ([-2, 1], [([1, 1], None, 1)], [(-3, 3), (0, None)]),
    ([75, -15000, 2, -600],
     [([25, -6000, -4, 900], None, 0), ([50, -9000, -2, 300], None, 0),
      ([0, 0, 1, 0], None, 1)],
     [(0, None)] * 4),
    ([6, -1], [([7, 7], 0, 5), ([1, -1], None, 2)], [(0, None), FREE]),
]


class TestAgainstLiteralOracle:
    """lp_max's result (status, objective, x and pivots) equals that of the
    Fraction dictionary in tests/literal.py, which makes the same choices."""

    @pytest.mark.parametrize("program", SMALL_PROGRAMS)
    def test_small_programs(self, program):
        assert lp_max(*program) == literal_lp_max(*program)

    def test_every_d8_program(self, d8_programs):
        assert len(d8_programs) == 80
        for program in d8_programs:
            assert lp_max(*program) == literal_lp_max(*program)

    def test_sampled_d16_face_and_d32_membership_programs(
            self, sampled_literal_runs):
        statuses = Counter()
        for program, expected, _ in sampled_literal_runs:
            assert lp_max(*program) == expected
            statuses[expected.status] += 1
        assert statuses["optimal"] > 0


def wide_entry(rng):
    """0, +-1, +-2, +-4, or a signed int of 2 to 40 bits."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    sign = rng.choice((1, -1))
    if kind == 1:
        return sign << rng.randrange(3)
    return sign * rng.getrandbits(rng.randrange(2, 41))


def wide_program(rng):
    """A program with the origin feasible and entries of up to 40 bits."""
    n = rng.randint(2, 4)
    objective = [wide_entry(rng) for _ in range(n)]
    rows = [([wide_entry(rng) for _ in range(n)],
             -rng.getrandbits(40), rng.getrandbits(40))
            for _ in range(rng.randint(2, 5))]
    bounds = [(-rng.getrandbits(20), rng.getrandbits(20))
              if rng.random() < 0.5 else FREE for _ in range(n)]
    return objective, rows, bounds


def split(den):
    """den as (twos, odd) with den == odd << twos."""
    twos = (den & -den).bit_length() - 1
    return twos, den >> twos


class TestDivisionSplit:
    """Each pivot divides its rows by den = odd << twos as a shift, then by
    the odd part where it is not 1."""

    def test_shift_then_odd_part_floors_as_one_division(self):
        """(N >> twos) // odd (N >> twos when odd == 1) is N // den for
        every signed N, exact or not, so a faulty dictionary floors as
        before."""
        rng = random.Random(19)
        odds = {1, 3, 13, 93, (1 << 29) + 1}              # one digit
        odds |= {rng.getrandbits(90) | 1 for _ in range(4)}
        inexact = 0
        for odd in sorted(odds):
            for twos in (0, 1, 7, 30, 31, 64, 81):
                den = odd << twos
                assert split(den) == (twos, odd)
                for _ in range(40):
                    n = rng.choice((1, -1)) * rng.getrandbits(
                        rng.randrange(1, 3300))
                    if rng.random() < 0.5:
                        n *= den                          # exact
                    inexact += n % den != 0
                    quotient = n >> twos
                    if odd != 1:
                        quotient //= odd
                    assert quotient == n // den
        assert inexact > 100

    def test_wide_programs_against_literal_oracle(self):
        """On seeded programs with entries up to 2**40, lp_max equals the
        literal Fraction dictionary, whose determinants D cover a power of
        two above 1, a one-digit odd part and a wider odd part."""
        rng = random.Random(40)
        kinds = Counter()
        for _ in range(200):
            program = wide_program(rng)
            dens = []
            assert lp_max(*program) == literal_lp_max(*program, dens=dens)
            for den in dens:
                assert den.denominator == 1
                odd = split(den.numerator)[1]
                kinds["power of two" if odd == 1 and den > 1
                      else "odd part <= 2**30" if 2 <= odd <= 1 << 30
                      else "odd part > 2**30" if odd > 1 << 30
                      else "1"] += 1
        assert kinds["power of two"] and kinds["odd part <= 2**30"]
        assert kinds["odd part > 2**30"]


class TestTarget:
    """With a target, lp_max stops at the first dictionary whose c.x
    reaches it, as the literal oracle does, and returns its point as
    "reached"; a program whose optimum or ray comes first returns as
    without a target."""

    # maximize x + y with x + y <= 4, 0 <= x <= 1 and 0 <= y <= 5: x enters
    # first (a tie, to the smaller index) and flips to 1, then y enters and
    # the row stops it at 3, the optimum 4 after 1 pivot
    PROGRAM = ([1, 1], [([1, 1], None, 4)], [(0, 1), (0, 5)])

    @pytest.mark.parametrize("target,status,objective,x,pivots", [
        (-3, "reached", 0, (0, 0), 0),           # <= 0: the origin
        (0, "reached", 0, (0, 0), 0),
        (F(1, 2), "reached", 1, (1, 0), 0),      # after the flip
        (2, "reached", 4, (1, 3), 1),            # below the optimum
        (4, "reached", 4, (1, 3), 1),            # at it
        (F(9, 2), "optimal", 4, (1, 3), 1),      # above it
    ])
    def test_target_below_at_and_above_the_optimum(
            self, monkeypatch, target, status, objective, x, pivots):
        checked = []
        check = simplex._check_dual

        def recording(*args):
            checked.append(None)
            check(*args)

        monkeypatch.setattr(simplex, "_check_dual", recording)
        res = lp_max(*self.PROGRAM, target=target)
        assert (res.status, res.objective, res.x, res.pivots) == (
            status, objective, x, pivots)
        assert res == literal_lp_max(*self.PROGRAM, target)
        # only an optimum is certified by multipliers
        assert len(checked) == (status == "optimal")
        if status == "optimal":
            assert res == lp_max(*self.PROGRAM)

    def test_ray_before_the_target(self):
        program = ([1, 1], [([1, -1], -1, 1)], [FREE, (0, None)])
        res = lp_max(*program, target=1 << 40)
        assert res.status == "unbounded"
        assert res == lp_max(*program) == literal_lp_max(*program, 1 << 40)

    @pytest.mark.parametrize("target", [0.5, "1", True])
    def test_target_must_be_int_or_fraction(self, target):
        with pytest.raises(TypeError, match="target is not an int"):
            lp_max(*self.PROGRAM, target=target)

    def test_wide_programs_against_literal_oracle(self):
        """On seeded programs with entries up to 2**40, targets below, at
        and above each optimum stop where the literal dictionary stops."""
        rng = random.Random(41)
        statuses = Counter()
        for _ in range(100):
            program = wide_program(rng)
            full = lp_max(*program)
            if full.status == "optimal":
                best = full.objective
                targets = (best / 3, best, best + F(1, 7))
            else:
                targets = (F(1, 3), 1 << 90)
            for target in targets:
                res = lp_max(*program, target=target)
                assert res == literal_lp_max(*program, target)
                statuses[res.status] += 1
                assert res.pivots <= full.pivots
                if res.status == "reached":
                    assert res.objective >= target
                else:
                    assert res == full
        assert statuses["reached"] and statuses["optimal"]
        assert statuses["unbounded"]


def lp_max_packing(program, width):
    """The rows of a program packed as lp_max packs them, in width-bit
    fields."""
    objective, rows = program[:2]
    shifts = range(0, width * len(objective), width)
    return [sum(a << sh for a, sh in zip(coeffs, shifts))
            for coeffs, _, _ in rows]


def assert_packed_as_lp_max(solves):
    """Each oracle LP got PackedRows with _field_width's width and lp_max's
    own packing of its rows, all but the sigma column checked once per
    sweep, and returned lp_max's result on the plain rows."""
    for program, rows, result in solves:
        assert isinstance(rows, PackedRows)
        assert rows.checked == len(program[0]) - 1
        width = _field_width(*program[:3])
        assert rows.width == width
        assert list(rows.table) == lp_max_packing(program, width)
        assert result == lp_max(*program)


class TestPackedColumns:
    """The oracle packs H's columns once per sweep and each LP's rows from
    them: every LP gets the result (status, objective, x and pivots) that
    lp_max and the literal oracle give on its plain rows."""

    def test_every_d8_lp(self, d8_solves):
        assert len(d8_solves) == 80
        assert_packed_as_lp_max(d8_solves)
        for program, _, result in d8_solves:
            assert result == literal_lp_max(*program)

    def test_sampled_d16_face_and_d32_membership_lps(
            self, d16_face_solves, d32_membership_solves,
            sampled_literal_runs):
        solves = d16_face_solves + d32_membership_solves
        assert_packed_as_lp_max(solves)
        expected = {program: result
                    for program, result, _ in sampled_literal_runs}
        got = {program: result for program, _, result in solves
               if program in expected}
        assert got == expected

    def test_alpha_3_16_at_d32(self):
        con = build(sylvester(5), alpha=F(3, 16))
        solves = solves_of(oracle.verify_k_neighborly, con, mode="sample",
                           samples=2, seed=1)
        solves += solves_of(face_lps, con, [((3, 1), (40, -1)),
                                            ((33, 1), (50, 1))])
        # the containment sweep solves its probe; every vertex it samples
        # is solved to its optimum as well
        solves += solves_of(oracle.projection_containment, con,
                            mode="sample", samples=1, seed=1)
        solves += solves_of(membership_lps, con,
                            sampled_vertices(con, 2, 1, 1))
        assert len(solves) == 1 + 2 + 1 + 3
        assert_packed_as_lp_max(solves)
        for program, _, result in solves:
            assert result == literal_lp_max(*program)

    @pytest.mark.parametrize("order,alpha", [(3, None), (3, F(2, 5)),
                                             (4, None)])
    def test_fractional_membership_point(self, order, alpha):
        # the rows are H's columns times the lcm of the denominators
        con = build(sylvester(order), alpha=alpha)
        rng = random.Random(order)
        point = [F(rng.randint(-3, 3), rng.randint(2, 7))
                 for _ in range(con.m)]
        scale = lcm(*(v.denominator for v in point))
        solves = solves_of(oracle.membership_margin, con, point)
        (program, _, result), = solves
        q = con.params.alpha.denominator
        assert scale > 1 and program[1][0][2] == scale * q
        assert_packed_as_lp_max(solves)
        assert result == literal_lp_max(*program)


class TestDualCertificate:
    """Every optimum is certified by its multipliers before it is returned."""

    # maximize x + 2y  s.t.  0 <= 2x + 2y <= 3,  2x - 2y <= 1,  x >= 0; at
    # the optimum (0, 3/2), den = 2, x sits at lo (z = -2) and the first row
    # at hi (y = 2): 2 * (1, 2) = (-2, 0) + 2 * (2, 2), and -2*0 + 2*3 = 6
    ARGS = TestRecheck.ARGS
    CERTIFICATE = ([-2, 0, 2, 0], 2, 6)

    def test_optimum_passes(self):
        _check_dual(*self.ARGS, *self.CERTIFICATE)
        multipliers, den, optimum = self.CERTIFICATE
        fractions = [F(v, den) for v in multipliers]
        assert literal_dual_failures(
            *self.ARGS, fractions, F(optimum, den)) == []

    @pytest.mark.parametrize("multipliers,den,optimum,message,failure", [
        ([-2, 0, 2, 2], 2, 6, "multipliers not stationary", "stationary"),
        ([-2, 0, 0, 0], 2, 0, "multipliers not stationary", "stationary"),
        ([3, 0, 0, -1], 1, 3, "a multiplier selects no bound", "bounded"),
        ([-2, 0, 2, 0], 2, 7, "dual bound mismatch", "tight"),
    ])
    def test_each_violation_raises(self, multipliers, den, optimum, message,
                                   failure):
        with pytest.raises(RuntimeError, match=f"internal error: {message}"):
            _check_dual(*self.ARGS, multipliers, den, optimum)
        assert failure in literal_dual_failures(
            *self.ARGS, [F(v, den) for v in multipliers], F(optimum, den))

    def test_every_certificate_passes_the_literal_check(self, monkeypatch,
                                                        d8_programs):
        certificates = []
        check = simplex._check_dual

        def recording(objective, rows, bounds, multipliers, den, optimum):
            certificates.append((list(multipliers), den))
            check(objective, rows, bounds, multipliers, den, optimum)

        monkeypatch.setattr(simplex, "_check_dual", recording)
        optima = 0
        for program in SMALL_PROGRAMS + d8_programs:
            program = program[:3]              # to the optimum, no target
            res = lp_max(*program)
            if res.status != "optimal":
                continue
            optima += 1
            multipliers, den = certificates.pop()
            fractions = [F(v, den) for v in multipliers]
            assert literal_dual_failures(
                *program, fractions, res.objective) == []
        assert not certificates and optima > 80

    @staticmethod
    def stop_early(monkeypatch, after):
        """Make lp_max stop pricing, as if optimal, after `after` steps."""
        calls = []
        entering = simplex._entering

        def stopping(*args):
            calls.append(None)
            return -1 if len(calls) > after else entering(*args)

        monkeypatch.setattr(simplex, "_entering", stopping)

    def test_early_stop_is_an_internal_error(self, monkeypatch, d8_programs):
        program = d8_programs[0]
        assert lp_max(*program).pivots > 3
        self.stop_early(monkeypatch, 3)
        # the point is feasible and its value the dictionary's, so _recheck
        # passes it; the multipliers show it is not optimal
        with pytest.raises(RuntimeError, match="internal error: dual bound"):
            lp_max(*program)

    def test_early_stop_exits_1(self, monkeypatch, capsys):
        self.stop_early(monkeypatch, 3)
        assert main(["verify", "--d", "8", "--check", "faces"]) == 1
        assert "internal error: dual bound" in capsys.readouterr().err


class TestFieldWidth:
    def test_width_holds_every_entry(self, sampled_literal_runs):
        """Each dictionary's largest entry (D times every entry, value and
        reduced cost, and D) fits in the width less its 2 spare bits."""
        for program, _, entries in sampled_literal_runs:
            width = _field_width(*program[:3])
            assert all(v.denominator == 1 for v in entries)
            assert max(entries).numerator.bit_length() <= width - 2

    def test_narrow_fields_raise_or_agree(self, monkeypatch, d16_face_programs,
                                          d32_membership_programs, literal_of):
        """Fields too narrow for their entries make lp_max raise an internal
        error or, where no entry outgrows them, return the literal result;
        never another result."""
        monkeypatch.setattr(simplex, "_field_width", lambda *program: 8)
        outcomes = Counter()
        for program in d16_face_programs + d32_membership_programs:
            try:
                res = lp_max(*program)
            except RuntimeError as exc:
                assert str(exc).startswith("internal error: ")
                outcomes["internal error"] += 1
            else:
                assert res == literal_of(program)
                outcomes["agrees"] += 1
        assert outcomes["internal error"] > 0 and outcomes["agrees"] > 0

    def test_narrow_fields_in_a_sweep(self, monkeypatch, literal_of):
        """The same through verify_k_neighborly at d = 16, every LP's rows
        packed from 8-bit columns of H.  Each internal error is answered
        with lp_max on the plain rows, so the sweep's report stays that of
        the full-width sweep.  At k = 3 the sweep's witness points leave 15
        of 40 subsets to LPs, 12 of them stopped at tau."""
        con = build(sylvester(4))
        options = {"k": 3, "mode": "sample", "samples": 40, "seed": 1}
        expected = oracle.verify_k_neighborly(con, **options)
        solve = oracle.lp_max
        outcomes = Counter()

        def narrow(objective, rows, bounds, target=None):
            assert rows.width == 8
            try:
                res = solve(objective, rows, bounds, target=target)
            except RuntimeError as exc:
                assert str(exc).startswith("internal error: ")
                outcomes["internal error"] += 1
                return solve(objective, tuple(rows), bounds, target=target)
            program = (tuple(objective),
                       tuple((tuple(a), low, high) for a, low, high in rows),
                       tuple(bounds), target)
            assert res == literal_of(program)
            outcomes["agrees"] += 1
            return res

        monkeypatch.setattr(oracle, "_field_width", lambda *program: 8)
        monkeypatch.setattr(oracle, "lp_max", narrow)
        assert oracle.verify_k_neighborly(con, **options) == expected
        assert sum(outcomes.values()) == 15
        assert outcomes["internal error"] > 0 and outcomes["agrees"] > 0
