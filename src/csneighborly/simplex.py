"""Exact linear programming on a packed integer dictionary with bounded
variables.

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
Variables have fixed indices (structural 0..n-1, then one logical per row).
The entering variable is the one whose reduced cost times D is largest in
size, ties to the smallest index; after n degenerate pivots in a row (each
a step of 0) it is the smallest-index one instead, Bland's rule, until the
point moves again (``_entering``).  The leaving variable is the one reached
at the smallest step; the entering variable's own bound wins a tie, so it
flips rather than entering only to leave at step 0, and ties among rows go
to the smallest index.  Identical inputs give identical pivot sequences and
outputs.

Each row, and the objective row (D times the reduced costs, then D * c.x),
is one Python int of n + 1 fields of W bits: X = sum_j x_j * 2**(W*j), the
entry of nonbasic column j in field j and the value in field n, each a
signed value.  The exchange is linear in the rows, and each field of its
numerator X * p - f * P (p = T[r][s] made positive, f = T[i][s], P the
pivot row of the same sign) is divisible by D; so the whole packed numerator
is, and its quotient is exactly the packed new row.  Whatever the fields of
the numerator hold, a row update is two products, a difference and one
exact division of ints.  The division is by D = odd * 2**twos, split once
per pivot: each numerator is shifted right by twos, then floor-divided by
odd unless odd is 1.  As (N >> t) // o == N // (o << t) for every int N
and o > 0, the quotient is that of one division by D, bit for bit, exact
or not.  For +-1 matrices D is mostly a power of two with a small odd part,
so where D spans several 30-bit digits (up to 76 bits at d = 32) a long
division becomes a shift and at most one division by a one-digit int.
Field s of the quotient is 0, and the exchange then puts sign * f there
and adds sign * f * beta to the value (beta the bound the leaving variable
reached); both are folded into P once per pivot.  A bound flip by delta
adds T[i][s] * delta to each value field.  Fields are read, by adding one
bias of 2**(W-1) per field and shifting and masking, only where the
algorithm reads entries: column s and the values in the ratio test, the
reduced costs when pricing, and the final point.

The width W is fixed once per program (``_field_width``).  Every tableau
entry, D, and D times a reduced cost is, up to sign, a minor of order at
most m + 1 of [[c, 0], [A, I]], so Hadamard's inequality bounds it by
E = isqrt(product of the m + 1 largest squared column norms of [c; A], each
at least 1) + 1.  Each value is a sum of entries times nonbasic values at
their bounds, at most E * (1 + sum of the finite |bounds|), and W is the
bit length of that plus 2, so every field read holds its signed entry with
a bit to spare.  A field whose entry outgrew it would wrap around (the
value field, read without a mask, cannot).  Pricing and the ratio test
raise RuntimeError("internal error: field overflow") when a reduced cost or
an entry of column s reaches 2**(W-2) in size, as a wrapped field does at
random, so fields too narrow stop the solver rather than steer it.

Packing.  lp_max type-checks every entry, sizes the fields with
``_field_width`` and packs each row once per program, unless the rows come
as PackedRows, already packed by the caller.  The oracle's sweeps pass them
so: each of their rows is a signed, scaled column of one matrix H plus one
coefficient, sigma's, so a sweep checks H's entries once, packs its
columns once per width W, and forms each packed row as
s * scale * packed_j + (sigma coefficient << W*d), which is exact because
packing is linear.  W stays _field_width's, given the column norms of
[c; A] in closed form.  Per program, lp_max then checks only the
coefficients after the caller's checked ones (sigma's), the row limits and
the bounds, and runs the same pivot loop.

Neither check of the result reads the packed tableau.  The point is
re-substituted once into the caller's rows, in integers (``_recheck``),
and an optimum is certified by the final reduced costs in the style of
Applegate, Cook, Dash and Espinoza, "Exact solutions to linear programming
problems" (Oper. Res. Lett. 2007) (``_check_dual``): with one multiplier
per variable, D times its reduced cost when nonbasic and 0 when basic,
D * c equals sum_i y_i a_i + z (y for the rows' logicals, z for the
structurals), each nonzero multiplier selects a finite bound, hi when
positive and lo when negative, and the sum of multiplier * bound equals
D * c.x.  By weak duality no feasible point then exceeds c.x; the sum also
forces each nonzero multiplier's variable to sit at the bound it selects.
A fault in the tableau, or fields too narrow for its entries, can therefore
raise RuntimeError("internal error: ...") but cannot return an infeasible
point, a value short of the optimum or a false ray.

A caller that needs only a feasible point with c.x >= target, not the
optimum, passes the target: the loop then stops at the first dictionary
whose value reaches it (checked before pricing, so at the origin too) and
returns that point as "reached".  Such a point is a certificate of c.x >=
target that anyone can re-check by substitution, in the sense of
McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying algorithms"
(Computer Science Review 5, 2011); ``_recheck`` re-substitutes it as it
does an optimum.  The reduced costs at that dictionary certify nothing, as
more pivots might raise c.x, so ``_check_dual`` is not run.  All three
sweeps use it (oracle.py).  In the face sweep, a subset whose sigma reaches
tau, the least optimum of the probe and of its batch so far, is a face that
cannot lower the sweep's minimum.  In the dominance and containment sweeps
tau is the probe's optimum (at least 2, for dominance): a point whose
sigma passes tau, or reaches it after the probe, is neither where the
minimum is first met nor a dominant pattern.  Each sweep settles most of
its tasks with no LP at all, and the membership sweeps at d = 16 and in
the sampled d = 32 rounds all but their probe: a subset's closed-form
witness point and a point's closed-form membership point are certificates
of the same kind, and each sweep re-substitutes them with ``_recheck``
before it relies on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod
from operator import lshift, mul

MAX_PIVOTS = 200_000             # lp_max raises RuntimeError beyond it


@dataclass(frozen=True)
class LpResult:
    status: str                    # "optimal" | "unbounded" | "reached"
    objective: Fraction | None     # c.x at x; None when unbounded
    x: tuple                       # the point (optimal, or the first one
                                   # with c.x >= target), or the ray
    pivots: int                    # basis exchanges (bound flips not counted)


def _ints(values, what: str, none_ok: bool = False) -> None:
    """Raise TypeError unless every value is an int (or None, if allowed)."""
    for v in values:
        if type(v) is not int and not (none_ok and v is None):
            raise TypeError(f"{what} is not an int: {v!r}")


class PackedRows(tuple):
    """A program's rows (coeffs, lo, hi) with the packing lp_max would give
    them: table[i] is row i's coefficients in fields of `width` bits,
    sum_j a_j * 2**(width*j).

    The first `checked` coefficients of every row are ints that the caller
    has type-checked already, once for many programs (the sweeps' columns
    of H); lp_max checks the other coefficients, the row limits and the
    bounds as for any rows, and reads the rows themselves, not the table,
    in its checks of the result.  With the width of ``_field_width`` the
    result is lp_max's on the plain rows; fields too narrow can only make
    it raise an internal error.
    """

    def __new__(cls, rows, width: int, table, checked: int):
        self = super().__new__(cls, rows)
        self.width, self.table, self.checked = width, table, checked
        return self


def lp_max(objective, rows, bounds, target=None) -> LpResult:
    """Maximize objective . x subject to lo <= a.x <= hi for each row
    (a, lo, hi) and lo <= x_j <= hi for each bound (lo, hi).

    All entries are ints; None marks a side without limit.  Raises TypeError
    on any other entry, and ValueError on a width mismatch or when the
    origin is infeasible.  An "optimal" result has x = nums / den, an
    "unbounded" one has x = a ray r (c.r > 0) that every row and bound
    admits.  Rows given as PackedRows are solved from their table as it is.

    With a target (an int or a Fraction), the loop stops at the first
    dictionary whose point has c.x >= target, the origin included, and
    returns it as "reached" with objective c.x.  The point is re-substituted
    into the rows and bounds as an optimum is, so its feasibility and c.x
    are checked; it claims no optimality, so no multipliers are checked.
    A program whose optimum or ray comes first returns as without a target,
    and without one the pivots and results are those of the plain loop.
    """
    if target is not None and type(target) not in (int, Fraction):
        raise TypeError(f"target is not an int or a Fraction: {target!r}")
    objective = tuple(objective)
    bounds = tuple(bounds)
    packed = isinstance(rows, PackedRows)
    if not packed:
        rows = tuple((tuple(a), low, high) for a, low, high in rows)
    checked = rows.checked if packed else 0
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
    for coeffs, low, high in rows:
        if len(coeffs) != n:
            raise ValueError(f"row width {len(coeffs)} != {n} variables")
        _ints(coeffs[checked:], "coefficient")
        _ints((low, high), "row limit", none_ok=True)
        lo.append(low)
        hi.append(high)
    for low, high in zip(lo, hi):
        if (low is not None and low > 0) or (high is not None and high < 0):
            raise ValueError("the origin is not feasible")

    width = rows.width if packed else _field_width(objective, rows, bounds)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    shifts = range(0, width * n, width)           # field j of column j
    top = width * n                               # the value field
    bias = sum(half << sh for sh in shifts)       # read: (x + bias) >> ...
    overflow = 1 << (width - 2)                   # no entry reaches it
    if packed:
        table = list(rows.table)
        if len(table) != len(rows):
            raise ValueError(f"{len(table)} packed rows for {len(rows)} rows")
    else:
        table = [sum(map(lshift, coeffs, shifts))
                 for coeffs, _, _ in rows]        # values D * x_B = 0
    obj = sum(map(lshift, objective, shifts))

    basic = list(range(n, n + len(table)))        # variable index per row
    nonbasic = list(range(n))                     # variable index per column
    at = [0] * n                                  # value of each nonbasic
    den, pivots = 1, 0
    stalled = 0                                   # degenerate pivots in a row
    if target is not None:
        goal, goal_den = target.numerator, target.denominator
    reached = False
    while True:
        if target is not None and (
                ((obj + bias) >> top) * goal_den >= goal * den):
            s, reached = -1, True                 # D * c.x >= D * target
            break
        y = obj + bias
        costs = [((y >> sh) & mask) - half for sh in shifts]
        if max(costs) >= overflow or min(costs) <= -overflow:
            raise RuntimeError("internal error: field overflow")
        s = _entering(costs, nonbasic, at, lo, hi, stalled >= n)
        if s < 0:
            break
        cost = costs[s]
        up = cost > 0

        # leaving: the smallest step theta = num / dnm, ties to the entering
        # variable's own bound (r = -1, a flip), then to the smallest index
        var = nonbasic[s]
        limit = hi[var] if up else lo[var]
        r, leave, num, dnm = -2, -1, 0, 1
        if limit is not None:
            r, leave, num = -1, var, abs(limit - at[s])
        sh = shifts[s]
        col = []                                  # column s, T[i][s]
        for i, x in enumerate(table):
            x += bias
            t = ((x >> sh) & mask) - half
            col.append(t)
            if not t:
                continue
            b = hi[basic[i]] if (t > 0) == up else lo[basic[i]]
            if b is None:
                continue
            step = abs(b * den - (x >> top))
            t = abs(t)
            cmp = step * dnm - num * t
            if (r == -2 or cmp < 0
                    or (cmp == 0 and r >= 0 and basic[i] < leave)):
                r, leave, num, dnm = i, basic[i], step, t
        if max(col, default=0) >= overflow or min(col, default=0) <= -overflow:
            raise RuntimeError("internal error: field overflow")
        if r == -2:
            break                                 # nothing stops it: a ray
        if r == -1:
            # bound flip: the entering variable moves to its other bound
            delta = num if up else -num
            at[s] += delta
            moved = delta << top
            for i, t in enumerate(col):
                if t:
                    table[i] += t * moved
            obj += cost * moved
            stalled = 0
            continue

        # pivot: basic[r] leaves at the bound it reached, nonbasic[s] enters
        pivots += 1
        stalled = 0 if num else stalled + 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        t = col[r]
        sign = 1 if t > 0 else -1
        piv = table[r] if sign > 0 else -table[r]
        p = abs(t)
        beta = hi[leave] if (t > 0) == up else lo[leave]
        # (x * p - f * fold) / den is the exchange with sign * f put in
        # field s and sign * f * beta added to the value
        fold = piv - sign * den * ((1 << sh) + (beta << top))
        # divide by den = odd << twos as a shift, then by the odd part where
        # it is not 1: (N >> t) // o == N // (o << t) for every int N
        twos = (den & -den).bit_length() - 1
        odd = den >> twos
        for i, f in enumerate(col):
            if f:
                x = (table[i] * p - f * fold) >> twos
            elif p != den:
                x = table[i] * p >> twos
            else:
                continue
            table[i] = x if odd == 1 else x // odd
        obj = (obj * p - cost * fold) >> twos
        if odd != 1:
            obj //= odd
        table[r] = (((sign * den + p) << sh)
                    + ((sign * den * beta + p * at[s]) << top) - piv)
        basic[r], nonbasic[s] = var, leave
        at[s] = beta
        den = p

    # x = nums / den is the optimum (or the point that reached the target),
    # with c.x = obj's value / den, or the ray along which nonbasic[s]
    # grows: D * x_B moves at T_B[s] per unit of it
    ray = s >= 0
    if ray:
        sign = 1 if up else -1
        values = [sign * den if j == s else 0 for j in range(n)]
        values += [sign * t for t in col]
    else:
        values = [v * den for v in at] + [(x + bias) >> top for x in table]
    nums = [0] * n
    for var, v in zip(nonbasic + basic, values):
        if var < n:
            nums[var] = v
    optimum = None if ray else (obj + bias) >> top
    _recheck(objective, rows, bounds, nums, den, optimum)
    x = tuple(Fraction(v, den) for v in nums)
    if ray:
        return LpResult("unbounded", None, x, pivots)
    if reached:
        return LpResult("reached", Fraction(optimum, den), x, pivots)
    multipliers = [0] * len(lo)                   # by variable index
    for var, cost in zip(nonbasic, costs):
        multipliers[var] = cost
    _check_dual(objective, rows, bounds, multipliers, den, optimum)
    return LpResult("optimal", Fraction(optimum, den), x, pivots)


def _field_width(objective, rows, bounds, squares=None) -> int:
    """Bits per packed field, from Hadamard's inequality (module docstring):
    the bit length of E * (1 + sum of the finite |bounds| and |row limits|),
    plus 2.

    squares, when given, are the squared norms of the columns of [c; A], as
    a caller that knows them in closed form passes them; otherwise they are
    summed from the rows.
    """
    if squares is None:
        columns = zip(objective, *(coeffs for coeffs, _, _ in rows))
        squares = [sum(map(mul, col, col)) for col in columns]
    squares = sorted((max(1, v) for v in squares), reverse=True)
    entry = isqrt(prod(squares[:len(rows) + 1])) + 1
    limits = [(low, high) for _, low, high in rows] + list(bounds)
    total = sum(abs(v) for pair in limits for v in pair if v is not None)
    return (entry * (1 + total)).bit_length() + 2


def _entering(costs, nonbasic, at, lo, hi, bland: bool) -> int:
    """The column of the nonbasic variable to enter, among those whose
    reduced cost improves and whose bound lets them move; -1 when none can.

    It is the largest |cost| (D times the reduced cost), ties to the smallest
    variable index, or with bland the smallest index (Bland's rule).  lp_max
    sets bland after n degenerate pivots in a row and clears it when the
    point moves.  That ends every run.  c.x never falls, and a flip or a
    nondegenerate pivot raises it (a flip by a positive step), so no
    dictionary met before such a step comes back after it; there are
    finitely many, so a run without end would, from some pivot on, make
    only degenerate pivots.  From the n-th of those on, both choices are
    Bland's, since a tie at step 0 never involves the entering variable's
    own bound, and Bland's rule does not cycle (Bland, "New finite pivoting
    rules for the simplex method", Math. Oper. Res. 2, 1977).
    """
    s, size = -1, 0
    for j, cost in enumerate(costs):
        var = nonbasic[j]
        if ((cost > 0 and (hi[var] is None or at[j] < hi[var]))
                or (cost < 0 and (lo[var] is None or at[j] > lo[var]))):
            key = 1 if bland else abs(cost)
            if key > size or (key == size and var < nonbasic[s]):
                s, size = j, key
    return s


def _recheck(objective, rows, bounds, nums, den: int, optimum) -> None:
    """Check x = nums / den in the caller's integer rows and bounds, and
    c . nums against the dictionary's value `optimum` (den * c.x, the
    optimum or the value that reached a target).

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


def _check_dual(objective, rows, bounds, multipliers, den: int,
                optimum: int) -> None:
    """Check that multipliers certify den * c.x <= optimum on every feasible
    x, in the caller's integer rows and bounds.

    multipliers has one entry per variable: the n structurals (z), then
    one per row (y).  Requires den * c == sum_i y_i a_i + z, a finite bound
    selected by each nonzero multiplier (hi when positive, lo when
    negative), and the sum of multiplier * bound equal to optimum.
    """
    n = len(objective)
    value = 0
    ys, picked = [], []                           # nonzero y_i and their a_i
    limits = list(bounds) + [(low, high) for _, low, high in rows]
    for var, y in enumerate(multipliers):
        if not y:
            continue
        low, high = limits[var]
        bound = high if y > 0 else low
        if bound is None:
            raise RuntimeError("internal error: a multiplier selects no bound")
        value += y * bound
        if var >= n:
            ys.append(y)
            picked.append(rows[var - n][0])
    total = multipliers[:n]                       # z, plus y_i a_i by columns
    if picked:
        total = [z + sum(map(mul, ys, col))
                 for z, col in zip(total, zip(*picked))]
    if total != [den * c for c in objective]:
        raise RuntimeError("internal error: multipliers not stationary")
    if value != optimum:
        raise RuntimeError("internal error: dual bound mismatch")
