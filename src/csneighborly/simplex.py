"""Exact rational linear programming by two-phase simplex.

Problems are stated over free rational variables (maximize c.x subject to
equality and <= constraints).  Internally each free variable is split into a
difference of two nonnegative columns, slack columns turn inequalities into
equations, and artificial columns seed the basis where no slack can.

The tableau is kept all-integer: the rational simplex tableau equals T / D
for an integer matrix T and a single positive integer D (the current basis
determinant up to sign), and a pivot on entry (r, s) maps

    T'[i][j] = (T[i][j] * T[r][s] - T[i][s] * T[r][j]) / D      (i != r)

with the pivot row kept verbatim and D' = T[r][s].  Every division above is
exact, so no Fraction arithmetic (and no rounding of any kind) happens in the
pivot loop.  Pivot selection is Bland's smallest-index rule in both phases,
which guarantees termination; identical inputs therefore produce identical
pivot sequences and outputs.

Fractions appear only in a LinearProgram's inputs, scaled once to integer
rows, and in the LpResult; the witness is re-substituted once, as integer
numerators over the tableau denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .exact import as_scalar


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x over free x, subject to eq rows and <= rows.

    Each constraint (coeffs, rhs) is held as an integer row, scaled by the lcm
    of its denominators: ([1/2, 1/3], 5/6) as ((3, 2), 5).  The objective is
    held unscaled, as Fractions.
    """

    n_vars: int
    objective: tuple
    eq: tuple = ()
    le: tuple = ()

    def __post_init__(self):
        n = self.n_vars
        objective = tuple(as_scalar(c) for c in self.objective)
        if len(objective) != n:
            raise ValueError(f"objective width {len(objective)} != {n}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "eq", _integer_rows(self.eq, n))
        object.__setattr__(self, "le", _integer_rows(self.le, n))

    @classmethod
    def maximize(cls, objective, eq=(), le=()) -> "LinearProgram":
        objective = tuple(objective)
        return cls(n_vars=len(objective), objective=objective, eq=eq, le=le)


def _integer_rows(rows, n: int) -> tuple:
    """Each (coeffs, rhs) scaled by the lcm of its denominators, as ints."""
    out = []
    for coeffs, rhs in rows:
        coeffs = [as_scalar(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError(
                f"constraint width {len(coeffs)} != {n} variables"
            )
        coeffs.append(as_scalar(rhs))
        mult = lcm(*(c.denominator for c in coeffs))
        ints = tuple(c.numerator * (mult // c.denominator) for c in coeffs)
        out.append((ints[:-1], ints[-1]))
    return tuple(out)


@dataclass(frozen=True)
class LpResult:
    status: str                    # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: tuple | None
    pivots: int


class _Tableau:
    """Integer simplex tableau with shared denominator and Bland pivoting."""

    def __init__(self, rows, basis):
        self.rows = rows            # list of int lists, rhs entry last
        self.basis = basis          # basis column per row
        self.den = 1
        self.pivots = 0

    def _transform(self, row, piv_row, s, p):
        den = self.den
        f = row[s]
        if f:
            if den == 1:
                return [a * p - f * b for a, b in zip(row, piv_row)]
            return [(a * p - f * b) // den for a, b in zip(row, piv_row)]
        if p == den:
            return row
        if den == 1:
            return [a * p for a in row]
        return [(a * p) // den for a in row]

    def pivot(self, obj, r: int, s: int) -> None:
        piv_row = self.rows[r]
        p = piv_row[s]
        if p <= 0:
            raise RuntimeError("internal error: nonpositive pivot")
        obj[:] = self._transform(obj, piv_row, s, p)
        for q, row in enumerate(self.rows):
            if q != r:
                self.rows[q] = self._transform(row, piv_row, s, p)
        self.den = p
        self.basis[r] = s
        self.pivots += 1

    def run(self, obj, allowed, max_pivots: int) -> str:
        """Maximize; returns "optimal" or "unbounded".  obj is updated in place."""
        while True:
            enter = -1
            for j in allowed:
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"

            leave = -1
            best_num = best_den = 0
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef <= 0:
                    continue
                num = row[-1]
                if leave < 0:
                    leave, best_num, best_den = i, num, coef
                    continue
                cmp = num * best_den - best_num * coef
                if cmp < 0 or (cmp == 0 and self.basis[i] < self.basis[leave]):
                    leave, best_num, best_den = i, num, coef
            if leave < 0:
                return "unbounded"
            self.pivot(obj, leave, enter)
            if self.pivots > max_pivots:
                raise RuntimeError("pivot limit exceeded")


def lp_max(lp: LinearProgram, max_pivots: int = 200_000) -> LpResult:
    """Exact optimum of a LinearProgram via two-phase simplex.

    The returned witness is re-substituted into every constraint and the
    objective before the result is returned; any mismatch raises.
    """
    n = lp.n_vars
    if n <= 0:
        raise ValueError("the program needs at least one variable")

    # one record per constraint: (int coeffs, rhs >= 0, kind, negated)
    records = []
    for ints, b in lp.eq:
        if b < 0:
            ints, b = [-v for v in ints], -b
        records.append((ints, b, "eq", False))
    for ints, b in lp.le:
        negated = b < 0
        if negated:
            ints, b = [-v for v in ints], -b
        records.append((ints, b, "le", negated))

    n_struct = 2 * n
    slack_base = n_struct
    n_slack = sum(1 for r in records if r[2] == "le")
    art_base = slack_base + n_slack
    n_art = sum(1 for r in records if r[2] == "eq" or r[3])
    n_cols = art_base + n_art

    rows = []
    basis = []
    artificials = []
    slack_at = art_at = 0
    for ints, b, kind, negated in records:
        full = [0] * (n_cols + 1)
        for j, v in enumerate(ints):
            full[j] = v
            full[n + j] = -v
        if kind == "le":
            # a negated <= row reads -a.x >= -b, so its slack is a surplus
            full[slack_base + slack_at] = -1 if negated else 1
            slack_at += 1
        if kind == "eq" or negated:
            col = art_base + art_at
            full[col] = 1
            artificials.append(col)
            basis.append(col)
            art_at += 1
        else:
            basis.append(slack_base + slack_at - 1)
        full[-1] = b
        rows.append(full)

    tab = _Tableau(rows, basis)
    allowed = range(art_base)       # artificial columns never (re-)enter

    if n_art:
        # phase 1: maximize -(sum of artificials); basic columns price out
        # by adding each artificial row to the cost vector
        obj = [0] * (n_cols + 1)
        for col in artificials:
            obj[col] = -1
        art_set = set(artificials)
        for i, b in enumerate(tab.basis):
            if b in art_set:
                obj = [a + t for a, t in zip(obj, tab.rows[i])]
        status = tab.run(obj, allowed, max_pivots)
        if status != "optimal":
            raise RuntimeError("internal error: phase 1 cannot be unbounded")
        if obj[-1] != 0:
            return LpResult("infeasible", None, None, tab.pivots)
        _evict_artificials(tab, artificials, art_base)

    # phase 2: the real objective, priced out for the current basis
    obj_mult = lcm(*(c.denominator for c in lp.objective))
    c_ints = [c.numerator * (obj_mult // c.denominator) for c in lp.objective]
    c_full = c_ints + [-c for c in c_ints] + [0] * (n_cols + 1 - n_struct)
    obj = [tab.den * c for c in c_full]
    for i, b in enumerate(tab.basis):
        cb = c_full[b]
        if cb:
            obj = [a - cb * t for a, t in zip(obj, tab.rows[i])]
    status = tab.run(obj, allowed, max_pivots)
    if status == "unbounded":
        return LpResult("unbounded", None, None, tab.pivots)

    # the witness is x = nums / den, and c.x = optimum / (den * obj_mult)
    values = {b: tab.rows[i][-1] for i, b in enumerate(tab.basis)}
    nums = [values.get(j, 0) - values.get(n + j, 0) for j in range(n)]
    den, optimum = tab.den, -obj[-1]
    _recheck(lp, nums, den, c_ints, optimum)
    x = tuple(Fraction(v, den) for v in nums)
    return LpResult("optimal", Fraction(optimum, den * obj_mult), x, tab.pivots)


def _evict_artificials(tab: _Tableau, artificials, art_base) -> None:
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    art_set = set(artificials)
    dummy = [0] * (len(tab.rows[0]))
    drop = []
    for i in range(len(tab.rows)):
        if tab.basis[i] not in art_set:
            continue
        row = tab.rows[i]
        if row[-1] != 0:
            raise RuntimeError("internal error: artificial left at nonzero level")
        enter = -1
        for j in range(art_base):
            if row[j]:
                enter = j
                break
        if enter < 0:
            drop.append(i)          # all-zero over real columns: redundant
            continue
        if row[enter] < 0:
            tab.rows[i] = [-a for a in row]   # same equation, positive pivot
        tab.pivot(dummy, i, enter)
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]


def _recheck(lp: LinearProgram, nums, den: int, c_ints, optimum: int) -> None:
    """Check x = nums / den in lp's integer rows, and c_ints . x against the
    tableau's optimum, optimum / den."""
    for coeffs, rhs in lp.eq:
        if sum(map(mul, coeffs, nums)) != rhs * den:
            raise RuntimeError("internal error: equality violated by witness")
    for coeffs, rhs in lp.le:
        if sum(map(mul, coeffs, nums)) > rhs * den:
            raise RuntimeError("internal error: inequality violated by witness")
    if sum(map(mul, c_ints, nums)) != optimum:
        raise RuntimeError("internal error: objective mismatch")
