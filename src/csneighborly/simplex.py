"""Exact linear programming on an integer dictionary with bounded variables.

``lp_max`` maximizes c.x over rational x subject to ranged rows
lo <= a.x <= hi and per-variable bounds lo <= x_j <= hi, all data integers,
with None for a side that has no limit.  The origin must be feasible.  That
is the form both of the package's LPs take (see oracle.py), and it needs no
phase 1, no slack or artificial columns and no split of free variables:
each row's value a.x is a variable of its own (a logical), basic at the
start, and the structural variables start nonbasic at 0.

The dictionary is kept all-integer, as in lrs (Avis 2000): with D the basis
determinant up to sign, each basic variable satisfies D * x_B = T_B . x_N for
an integer row T_B over the nonbasic variables x_N, and each row carries
its value D * x_B as a last entry.  Nonbasic variables sit at 0 or at an
integer bound, so those values are integers too.  A pivot on entry (r, s)
maps the other rows by the Edmonds/Bareiss exchange

    T'[i][j] = (T[i][j] * T[r][s] - T[i][s] * T[r][j]) / D      (j != s)

with D' = |T[r][s]|.  Every division is exact, so no Fraction arithmetic
happens in the pivot loop.  A nonbasic variable that reaches its other bound
first is flipped there without a pivot (Dantzig's upper-bounding technique).
Entering and leaving variables are chosen by Bland's smallest-index rule over
fixed variable indices (structural 0..n-1, then one logical per row), so
identical inputs give identical pivot sequences and outputs.

The result is re-substituted once into the caller's rows, in integers,
before it is returned (``_recheck``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

MAX_PIVOTS = 200_000             # lp_max raises RuntimeError beyond it


@dataclass(frozen=True)
class LpResult:
    status: str                    # "optimal" | "unbounded"
    objective: Fraction | None     # the optimum; None when unbounded
    x: tuple                       # optimal point, or the improving ray
    pivots: int                    # basis exchanges (bound flips not counted)


def _ints(values, what: str, none_ok: bool = False) -> None:
    """Raise TypeError unless every value is an int (or None, if allowed)."""
    for v in values:
        if type(v) is not int and not (none_ok and v is None):
            raise TypeError(f"{what} is not an int: {v!r}")


def lp_max(objective, rows, bounds) -> LpResult:
    """Maximize objective . x subject to lo <= a.x <= hi for each row
    (a, lo, hi) and lo <= x_j <= hi for each bound (lo, hi).

    All entries are ints; None marks a side without limit.  Raises TypeError
    on any other entry, and ValueError on a width mismatch or when the
    origin is infeasible.  An "optimal" result has x = nums / den, an
    "unbounded" one has x = a ray r (c.r > 0) that every row and bound
    admits.
    """
    objective = tuple(objective)
    rows = tuple((tuple(a), low, high) for a, low, high in rows)
    bounds = tuple(bounds)
    n = len(objective)
    if n == 0:
        raise ValueError("the program needs at least one variable")
    if len(bounds) != n:
        raise ValueError(f"{len(bounds)} bounds for {n} variables")
    _ints(objective, "coefficient")
    lo, hi = [], []
    for low, high in bounds:
        _ints((low, high), "bound", none_ok=True)
        lo.append(low)
        hi.append(high)
    table = []
    for coeffs, low, high in rows:
        if len(coeffs) != n:
            raise ValueError(f"row width {len(coeffs)} != {n} variables")
        _ints(coeffs, "coefficient")
        _ints((low, high), "row limit", none_ok=True)
        table.append(list(coeffs) + [0])          # the value D * x_B is last
        lo.append(low)
        hi.append(high)
    for low, high in zip(lo, hi):
        if (low is not None and low > 0) or (high is not None and high < 0):
            raise ValueError("the origin is not feasible")

    basic = list(range(n, n + len(table)))        # variable index per row
    nonbasic = list(range(n))                     # variable index per column
    at = [0] * n                                  # value of each nonbasic
    obj = list(objective) + [0]                   # D * reduced costs, D * c.x
    den, pivots = 1, 0
    while True:
        # entering: the smallest-index nonbasic that improves and can move
        s = -1
        for j, var in enumerate(nonbasic):
            cost = obj[j]
            if ((cost > 0 and (hi[var] is None or at[j] < hi[var]))
                    or (cost < 0 and (lo[var] is None or at[j] > lo[var]))):
                if s < 0 or var < nonbasic[s]:
                    s = j
        if s < 0:
            break
        up = obj[s] > 0

        # leaving: the smallest step theta = num / dnm, ties to the smallest
        # variable index; r = -1 is the entering variable's own bound
        var = nonbasic[s]
        limit = hi[var] if up else lo[var]
        r, leave, num, dnm = -2, -1, 0, 1
        if limit is not None:
            r, leave, num = -1, var, abs(limit - at[s])
        for i, row in enumerate(table):
            t = row[s]
            if not t:
                continue
            b = hi[basic[i]] if (t > 0) == up else lo[basic[i]]
            if b is None:
                continue
            step = abs(b * den - row[-1])
            t = abs(t)
            cmp = step * dnm - num * t
            if r == -2 or cmp < 0 or (cmp == 0 and basic[i] < leave):
                r, leave, num, dnm = i, basic[i], step, t
        if r == -2:
            break                                 # nothing stops it: a ray
        if r == -1:
            # bound flip: the entering variable moves to its other bound
            delta = num if up else -num
            at[s] += delta
            for row in table:
                if row[s]:
                    row[-1] += row[s] * delta
            obj[-1] += obj[s] * delta
            continue

        # pivot: basic[r] leaves at the bound it reached, nonbasic[s] enters
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        row_r = table[r]
        sign = 1 if row_r[s] > 0 else -1
        piv = row_r if sign > 0 else [-v for v in row_r]
        p = piv[s]
        beta = hi[leave] if (row_r[s] > 0) == up else lo[leave]
        for i, row in enumerate(table):
            if i != r:
                table[i] = _exchange(row, piv, s, p, den, sign, beta)
        obj[:] = _exchange(obj, piv, s, p, den, sign, beta)
        new_r = [-v for v in piv]
        new_r[s] = sign * den
        new_r[-1] += sign * den * beta + p * at[s]
        table[r] = new_r
        basic[r], nonbasic[s] = var, leave
        at[s] = beta
        den = p

    # x = nums / den is the optimum, with c.x = obj[-1] / den, or the ray
    # along which nonbasic[s] grows: D * x_B moves at T_B[s] per unit of it
    ray = s >= 0
    if ray:
        sign = 1 if up else -1
        values = [sign * den if j == s else 0 for j in range(n)]
        values += [sign * row[s] for row in table]
    else:
        values = [v * den for v in at] + [row[-1] for row in table]
    nums = [0] * n
    for var, v in zip(nonbasic + basic, values):
        if var < n:
            nums[var] = v
    optimum = None if ray else obj[-1]
    _recheck(objective, rows, bounds, nums, den, optimum)
    x = tuple(Fraction(v, den) for v in nums)
    if ray:
        return LpResult("unbounded", None, x, pivots)
    return LpResult("optimal", Fraction(optimum, den), x, pivots)


def _exchange(row, piv, s, p, den, sign, beta):
    """One row of the integer exchange on pivot column s, pivot p > 0."""
    f = row[s]
    if not f:
        if p == den:
            return row
        return [v * p // den for v in row]
    if den == 1:
        new = [a * p - f * b for a, b in zip(row, piv)]
    else:
        new = [(a * p - f * b) // den for a, b in zip(row, piv)]
    new[s] = sign * f
    new[-1] += sign * f * beta
    return new


def _recheck(objective, rows, bounds, nums, den: int, optimum) -> None:
    """Check x = nums / den in the caller's integer rows and bounds, and
    c . nums against the dictionary's optimum (den * c.x).

    With optimum None, nums is a ray: it must lie in the recession cone
    (a.r <= 0 where hi is finite, a.r >= 0 where lo is finite) and c.r > 0.
    """
    ray = optimum is None
    scale = 0 if ray else den
    values = [sum(map(mul, coeffs, nums)) for coeffs, _, _ in rows] + nums
    limits = [(low, high) for _, low, high in rows] + list(bounds)
    for value, (low, high) in zip(values, limits):
        if ((low is not None and value < low * scale)
                or (high is not None and value > high * scale)):
            kind = "ray leaves a row or bound" if ray else "row or bound violated"
            raise RuntimeError(f"internal error: {kind}")
    value = sum(map(mul, objective, nums))
    if (value <= 0) if ray else (value != optimum):
        raise RuntimeError("internal error: objective mismatch")
