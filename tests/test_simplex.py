import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from csneighborly import LinearProgram, lp_max
from csneighborly.simplex import _recheck


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


def brute_force_max(objective, eq, le):
    """Independent oracle for bounded problems: enumerate basic points.

    Reads the caller's rows, not the solver's scaled copy, so a scaling
    error in ``LinearProgram`` shows as a disagreement.  Requires the
    feasible region to be bounded (the callers add box constraints), so it
    is a polytope and the optimum sits at a vertex, i.e. at an intersection
    of n constraint hyperplanes.
    """
    n = len(objective)
    cons = [(coeffs, rhs, True) for coeffs, rhs in eq]
    cons += [(coeffs, rhs, False) for coeffs, rhs in le]
    best = None
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
            value = sum(c * v for c, v in zip(objective, point))
            if best is None or value > best:
                best = value
    return best


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


def assert_witness(objective, eq, le, res):
    """Re-substitute ``res.x`` into the caller's own rows."""
    assert res.status == "optimal"
    for coeffs, rhs in eq:
        assert sum(c * v for c, v in zip(coeffs, res.x)) == rhs
    for coeffs, rhs in le:
        assert sum(c * v for c, v in zip(coeffs, res.x)) <= rhs
    assert sum(c * v for c, v in zip(objective, res.x)) == res.objective


class TestTrivialPrograms:
    def test_single_bound(self):
        lp = LinearProgram.maximize([1], le=[([1], 3)])
        res = lp_max(lp)
        assert res.status == "optimal"
        assert res.objective == 3

    def test_exact_third(self):
        lp = LinearProgram.maximize(
            [1], le=[([1], F(1, 3)), ([1], F(1, 2))]
        )
        res = lp_max(lp)
        assert res.objective == F(1, 3)

    def test_infeasible(self):
        lp = LinearProgram.maximize([1], le=[([1], 0), ([-1], -1)])
        assert lp_max(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram.maximize([1], le=[([-1], 0)])
        assert lp_max(lp).status == "unbounded"

    def test_equalities(self):
        lp = LinearProgram.maximize(
            [0, 1], eq=[([1, 1], 1), ([1, -1], 0)]
        )
        res = lp_max(lp)
        assert res.objective == F(1, 2)
        assert res.x == (F(1, 2), F(1, 2))

    def test_inconsistent_equalities(self):
        lp = LinearProgram.maximize([1], eq=[([1], 1), ([1], 2)])
        assert lp_max(lp).status == "infeasible"

    def test_negative_rhs_inequalities(self):
        # x >= 1, x >= 2, maximize -x  ->  x = 2
        lp = LinearProgram.maximize([-1], le=[([-1], -1), ([-1], -2)])
        res = lp_max(lp)
        assert res.objective == -2

    def test_free_variables_go_negative(self):
        lp = LinearProgram.maximize([-1], le=[([-1], 4)])
        res = lp_max(lp)
        assert res.objective == 4
        assert res.x == (F(-4),)


class TestDegeneracy:
    def test_beale_cycling_instance(self):
        # the classic cycling example; Bland's rule must terminate
        lp = LinearProgram.maximize(
            [F(3, 4), -150, F(1, 50), -6],
            le=[
                ([F(1, 4), -60, F(-1, 25), 9], 0),
                ([F(1, 2), -90, F(-1, 50), 3], 0),
                ([0, 0, 1, 0], 1),
                ([-1, 0, 0, 0], 0),
                ([0, -1, 0, 0], 0),
                ([0, 0, -1, 0], 0),
                ([0, 0, 0, -1], 0),
            ],
        )
        res = lp_max(lp)
        assert res.status == "optimal"
        assert res.objective == F(1, 20)
        assert res.x == (F(1, 25), F(0), F(1), F(0))

    def test_degenerate_vertex(self):
        lp = LinearProgram.maximize(
            [1, 1],
            le=[([1, 0], 1), ([0, 1], 1), ([1, 1], 2), ([1, -1], 0)],
        )
        res = lp_max(lp)
        assert res.objective == 2


class TestAgainstBruteForce:
    def test_random_inequality_programs(self):
        rng = random.Random(101)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(40):
            n = rng.randint(2, 3)
            objective = [F(rng.randint(-4, 4)) for _ in range(n)]
            le = boxed(n, [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    F(rng.randint(-4, 6)),
                )
                for _ in range(rng.randint(2, 5))
            ])
            res = lp_max(LinearProgram.maximize(objective, le=le))
            expected = brute_force_max(objective, [], le)
            if expected is None:
                assert res.status == "infeasible"
            else:
                assert res.objective == expected
                assert_witness(objective, [], le, res)
            statuses[res.status] += 1
        assert statuses["optimal"] > 0  # the sample exercises both paths

    def test_random_mixed_programs(self):
        rng = random.Random(202)
        seen_infeasible = False
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
            res = lp_max(LinearProgram.maximize(objective, eq=eq, le=le))
            expected = brute_force_max(objective, eq, le)
            if expected is None:
                assert res.status == "infeasible"
                seen_infeasible = True
            else:
                assert res.status == "optimal", expected
                assert res.objective == expected
                assert_witness(objective, eq, le, res)
        assert seen_infeasible


class TestWitnesses:
    def test_exact_resubstitution(self):
        objective = [F(2), F(-1, 3)]
        eq = [([1, 1], F(5, 7))]
        le = [([1, -1], 2), ([-1, 0], 0)]
        res = lp_max(LinearProgram.maximize(objective, eq=eq, le=le))
        assert_witness(objective, eq, le, res)

    def test_determinism(self):
        lp = LinearProgram.maximize(
            [1, 2, -1],
            le=[([1, 1, 1], 4), ([1, -1, 0], 1), ([-1, 0, 2], 3)],
            eq=[([1, 0, -1], 0)],
        )
        first = lp_max(lp)
        second = lp_max(lp)
        assert first == second

    def test_rejects_empty_program(self):
        with pytest.raises(ValueError):
            lp_max(LinearProgram.maximize([]))


class TestIntegerRows:
    def test_mixed_denominators_scaled_by_lcm(self):
        row = ([F(1, 2), F(1, 3)], F(5, 6))
        programs = [
            LinearProgram.maximize([0, 1], eq=[row], le=[row]),
            LinearProgram(n_vars=2, objective=(0, 1), eq=(row,), le=(row,)),
        ]
        for lp in programs:
            assert lp.eq == lp.le == (((3, 2), 5),)
            ints, rhs = lp.le[0]
            assert all(type(v) is int for v in ints + (rhs,))
            assert lp.objective == (F(0), F(1))

    def test_sign_and_mixed_inputs(self):
        lp = LinearProgram.maximize(
            [F(1, 2), 1], le=[(["-1/4", 1], F(-3, 2)), ((2, 4), 6)]
        )
        assert lp.le == (((-1, 4), -6), ((2, 4), 6))
        assert lp.objective == (F(1, 2), F(1))   # not scaled

    def test_random_rows_are_lcm_multiples(self):
        # each held row is the caller's row times the lcm of its
        # denominators, computed here with Fraction arithmetic
        rng = random.Random(303)
        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [
                (tuple(F(rng.randint(-9, 9), rng.randint(1, 12))
                       for _ in range(n)),
                 F(rng.randint(-9, 9), rng.randint(1, 12)))
                for _ in range(rng.randint(1, 3))
            ]
            lp = LinearProgram.maximize([0] * n, eq=rows, le=rows)
            expected = []
            for coeffs, rhs in rows:
                lcm = math.lcm(*(v.denominator for v in coeffs + (rhs,)))
                expected.append(
                    (tuple(v * lcm for v in coeffs), rhs * lcm)
                )
            assert lp.eq == lp.le == tuple(expected)

    @pytest.mark.parametrize("kind", ["eq", "le"])
    def test_float_entry_rejected(self, kind):
        with pytest.raises(TypeError):
            LinearProgram.maximize([1, 1], **{kind: [([0.5, 1], 1)]})
        with pytest.raises(TypeError):
            LinearProgram(n_vars=2, objective=(1, 1),
                          **{kind: (((1, 1), 0.5),)})
        with pytest.raises(TypeError):
            LinearProgram.maximize([1, 0.5])

    @pytest.mark.parametrize("kind", ["eq", "le"])
    def test_width_mismatch_rejected(self, kind):
        with pytest.raises(ValueError, match="constraint width 3 != 2"):
            LinearProgram.maximize([1, 1], **{kind: [([1, 1, 1], 1)]})
        with pytest.raises(ValueError, match="constraint width 1 != 2"):
            LinearProgram(n_vars=2, objective=(1, 1), **{kind: (((1,), 1),)})
        with pytest.raises(ValueError, match="objective width 1 != 2"):
            LinearProgram(n_vars=2, objective=(1,))


class TestRecheck:
    """The witness check runs on integer numerators over a denominator."""

    # maximize x + 2y  s.t.  x + y = 3/2,  x - y <= 1/2,  -x <= 0
    LP = LinearProgram.maximize(
        [1, 2], eq=[([1, 1], F(3, 2))], le=[([1, -1], F(1, 2)), ([-1, 0], 0)]
    )

    def test_optimum_passes(self):
        res = lp_max(self.LP)
        assert res.x == (0, F(3, 2)) and res.objective == 3
        # x = (0, 3) / 2, and c.x = 6 / 2
        _recheck(self.LP, [0, 3], 2, [1, 2], 6)
        _recheck(self.LP, [0, 6], 4, [1, 2], 12)

    @pytest.mark.parametrize("nums,den,optimum,message", [
        ([1, 3], 2, 7, "equality violated"),
        ([5, 1], 4, 7, "inequality violated"),
        ([-1, 4], 2, 7, "inequality violated"),
        ([0, 3], 2, 5, "objective mismatch"),
        ([0, 3], 2, 7, "objective mismatch"),
    ])
    def test_each_violation_raises(self, nums, den, optimum, message):
        with pytest.raises(RuntimeError, match=message):
            _recheck(self.LP, nums, den, [1, 2], optimum)
