"""Literal references for the tests, on plain row sequences.

The package never multiplies, ranks or stacks Fraction matrices: its
identities hold by construction or reduce to integer products.  Nor does it
re-substitute a face witness into the vertices in Fractions: the face LP's
integer recheck covers that, and it checks a certificate row as two halves
in packed integer fields.  It unranks supports from a table of binomials.
It solves its LPs on a dictionary of packed integer rows, and certifies
each optimum from the integer reduced costs.  These slow, obvious versions
(a Fraction simplex dictionary and a Fraction dual check among them) are
what the tests check those shortcuts against, together with the dense
matrices (C_l, T) and the signed vertex list that only the tests form.  The
package writes vertex files and reads none: their parsers are here, where
the tests read `generate`'s output back.
"""

import json
from fractions import Fraction as F
from math import comb

from csneighborly.blocks import (SignedSupportRow, block_row_count,
                                 iter_signed_rows, signed_row_count,
                                 unrank_part)
from csneighborly.certificate import (
    BlockConditionReport,
    ConditionsReport,
    StructuralReport,
    block_sweep_indices,
)
from csneighborly.cli import SCHEMA
from csneighborly.simplex import LpResult

HALF = F(1, 2)


def transpose(a):
    return tuple(zip(*a))


def hstack(a, b):
    """[a | b] for row sequences with the same number of rows."""
    if len(a) != len(b):
        raise ValueError(f"row mismatch: {len(a)} | {len(b)}")
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, b))


def identity(n, scale=1):
    """scale * I_n as integer rows."""
    return tuple(
        tuple(scale if i == j else 0 for j in range(n)) for i in range(n)
    )


def naive_product(a, b):
    """Triple-loop product of two row sequences, exact: int entries for
    int factors, Fractions as soon as a factor holds one."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError(f"shape mismatch for product: {len(a[0])} x {inner}")
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = 0
            for t in range(inner):
                acc += a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def kron(a, b):
    """Kronecker product: each entry a_ij replaced by the block a_ij * b."""
    return tuple(
        tuple(x * y for x in arow for y in brow) for arow in a for brow in b
    )


def gauss_rank(m):
    """Rank by plain Fraction row reduction."""
    work = [[F(v) for v in row] for row in m]
    rows, cols = len(work), len(work[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def signed_support_matrix(d, l):
    """The n(l) x d matrix C_l of weight-l signed rows, as dense integer
    rows in stream order."""
    return tuple(row.dense() for row in iter_signed_rows(d, l))


def block_row(d, k, l, index):
    """Row index of block l as a pair of SignedSupportRows, each part
    unranked on its own: left index // n(k-l), right index % n(k-l)."""
    rights = signed_row_count(d, k - l)
    return (SignedSupportRow(d, *unrank_part(d, l, index // rights)),
            SignedSupportRow(d, *unrank_part(d, k - l, index % rights)))


def alpha_matrix(con):
    """A = alpha*H as rows of Fractions, from H's signs and alpha."""
    alpha = con.params.alpha
    return tuple(tuple(alpha * s for s in row) for row in con.hadamard.signs)


def vertex_matrix(con):
    """X = [I_d; A^T]: the m vertex representatives x_i as rows."""
    return identity(con.d) + transpose(alpha_matrix(con))


def cs_transform_points(con):
    """The m cs-transform points, the rows of T = [-A; I_d], in order: one
    representative per antipodal pair of {+-v_1, ..., +-v_m}."""
    return (tuple(tuple(-v for v in row) for row in alpha_matrix(con))
            + identity(con.d))


def signed_vertices(con):
    """All 2m vertices as ((index, sign), coordinates), representatives
    first."""
    return tuple(((i, s), con.vertex_representative(i, s))
                 for s in (1, -1) for i in range(con.m))


def literal_unrank_support(d, l, r):
    """Support at position r of iter_supports(d, l), by walking the
    positions in order: at each one, the supports that avoid it come first."""
    out = []
    start = 0
    while l > 0:
        skip = comb(d - start - 1, l)  # supports avoiding position `start`
        if r < skip:
            start += 1
        else:
            out.append(start)
            r -= skip
            start += 1
            l -= 1
    return tuple(out)


def literal_halves(signs, left, right):
    """(max|e H|, max|f H^T|, f G == d*f) for the row (e | f), by dense
    integer sums over H = signs and a literal G = H^T H."""
    d = len(signs)
    e, f = left.dense(), right.dense()
    n_hat = [sum(e[i] * signs[i][j] for i in range(d)) for j in range(d)]
    m_hat = [sum(f[i] * signs[j][i] for i in range(d)) for j in range(d)]
    g = [[sum(signs[t][i] * signs[t][j] for t in range(d)) for j in range(d)]
         for i in range(d)]
    f_g = [sum(f[i] * g[i][j] for i in range(d)) for j in range(d)]
    return (max(map(abs, n_hat)), max(map(abs, m_hat)),
            f_g == [d * x for x in f])


def literal_part_sum(table, support, signs):
    """Sum of table[s][i] over the (i, s) of a part (support, signs), for a
    table indexed by sign and then by support index (PackedHalves)."""
    return sum(table[s][i] for i, s in zip(support, signs))


def recheck_face(con, report):
    """Signed vertices at which a FaceReport's witness fails, in Fractions.

    The witness c must give <c, v> = 1 on every subset vertex and
    <c, v> <= 1 - margin on every other of the 2m signed vertices; returns
    the keys (index, sign) where that does not hold.
    """
    members = set(report.subset)
    bad = []
    for key, coords in signed_vertices(con):
        value = sum((c * v for c, v in zip(report.witness, coords)), F(0))
        ok = value == 1 if key in members else value <= 1 - report.margin
        if not ok:
            bad.append(key)
    return bad


def literal_row_check(con, left, right):
    """The three conditions on one row (e | f), in plain Fraction arithmetic.

    Computes the correction rows and the full table re-summation literally,
    with no integer scaling and no shared subexpressions.  Returns
    (bound_ok, eq_ok, cert_ok, coefficient sum, max entry, left correction,
    right correction).
    """
    d = con.d
    alpha, beta = con.params.alpha, con.params.beta
    h = con.hadamard
    a = alpha_matrix(con)
    e = left.dense()
    f = right.dense()

    m_row = [F(0)] * d
    for i, s in zip(right.support, right.signs):
        for c in range(d):
            m_row[c] += beta * s * h.columns[i][c]
    n_row = [F(0)] * d
    for j, s in zip(left.support, left.signs):
        for c in range(d):
            n_row[c] += alpha * s * h.signs[j][c]

    worst = max(
        max((abs(v) for v in m_row), default=F(0)),
        max((abs(v) for v in n_row), default=F(0)),
    )
    bound_ok = worst <= HALF

    lhs = [F(0)] * d
    for j in range(d):
        coeff = e[j] + m_row[j]
        for c in range(d):
            lhs[c] += coeff * a[j][c]
    eq_ok = all(lhs[c] == f[c] + n_row[c] for c in range(d))

    # the explicit expansion and its literal re-summation
    terms = []
    ones = (1,) * d
    neg = (-1,) * d
    for i, s in zip(right.support, right.signs):
        col = tuple(s * x for x in h.columns[i])
        terms.append((beta / 2, col + ones))
        terms.append((beta / 2, col + neg))
    for j, s in zip(left.support, left.signs):
        row = tuple(s * x for x in h.signs[j])
        terms.append((alpha / 2, ones + row))
        terms.append((alpha / 2, neg + row))
    total = sum((mu for mu, _ in terms), F(0))
    eps = 1 - 2 * total
    shift = [F(0)] * (2 * d)
    for mu, delta in terms:
        for c in range(2 * d):
            shift[c] += mu * delta[c]
    nus = [e[j] + shift[j] for j in range(d)]
    acc = [F(0)] * (1 + 2 * d)
    for mu, delta in terms:
        acc[0] += 2 * mu
        for c in range(2 * d):
            acc[1 + c] -= mu * delta[c]
    for j, nu in enumerate(nus):
        acc[1 + j] += nu
        for c in range(d):
            acc[1 + d + c] += nu * a[j][c]
    acc[0] += eps
    target = (F(1),) + tuple(e) + tuple(f)
    cert_ok = eps >= 0 and total <= HALF and tuple(acc) == target
    return bound_ok, eq_ok, cert_ok, total, worst, m_row, n_row


def literal_conditions(con, mode="auto", row_cap=1_000_000,
                       sample_rows=100_000, seed=0):
    """Row-by-row reference for verify_conditions.

    Folds literal_row_check over the rows of block_sweep_indices, in sweep
    order, and stops each block at its first failing row.  The structural
    identities are checked with a literal Fraction product H^T H.
    """
    d, k = con.d, con.k
    alpha, beta = con.params.alpha, con.params.beta
    blocks = []
    for l in range(k + 1):
        total = block_row_count(d, k, l)
        sampled = mode == "sample" or total > row_cap
        checked, max_left, max_right = 0, F(0), F(0)
        flags, failure = (True, True, True), None
        for index in block_sweep_indices(d, k, l, sampled, sample_rows,
                                         seed):
            left, right = block_row(d, k, l, index)
            *row_flags, musum, _, m_row, n_row = literal_row_check(
                con, left, right)
            checked += 1
            max_left = max(max_left, *map(abs, m_row))
            max_right = max(max_right, *map(abs, n_row))
            if not all(row_flags):
                flags = tuple(row_flags)
                reason = (
                    "entry bound exceeded" if not flags[0]
                    else "matrix equation failed" if not flags[1]
                    else "combination certificate failed"
                )
                failure = (index, reason)
                break
        blocks.append(BlockConditionReport(
            l=l, rows_total=total, rows_checked=checked, sampled=sampled,
            max_abs_left=max_left, max_abs_right=max_right,
            coefficient_sum=musum,
            coefficient_sum_expected=(k - l) * beta + l * alpha,
            entry_bound_ok=flags[0], equation_ok=flags[1],
            certificate_ok=flags[2], first_failure=failure,
        ))
    h = con.hadamard.signs
    return ConditionsReport(
        d=d, k=k, alpha=alpha, beta=beta, mode=mode, seed=seed,
        sample_rows=sample_rows, blocks=tuple(blocks),
        structural=StructuralReport(
            hadamard_gram_ok=naive_product(transpose(h), h) == identity(d, d),
            alpha_beta_product_ok=alpha * beta * d == 1,
        ),
    )



def literal_lp_max(objective, rows, bounds, entries=None, dens=None):
    """lp_max on a Fraction dictionary, as the textbook writes it.

    Each basic variable is x_B = sum_j T[i][j] x_N[j] over the nonbasic
    variables, and c.x = sum_j red[j] x_N[j]; basic values are summed afresh
    from the nonbasic ones whenever they are read.  Bland's rule picks the
    smallest-index improving nonbasic that can move, and the ratio test the
    least (step, variable index), the entering variable's own bound
    competing as its own index; a bound reached first is a flip, not a
    pivot.  Returns an LpResult.

    With a list entries, appends at each dictionary met the largest |value|
    among D times every entry, basic value, reduced cost and c.x, and D
    itself, where D is the product of the |pivots| (the determinant that
    the integer dictionary divides out).  With a list dens, appends D after
    each pivot.
    """
    n = len(objective)
    table = [[F(a) for a in coeffs] for coeffs, _, _ in rows]
    lo = [low for low, _ in bounds] + [low for _, low, _ in rows]
    hi = [high for _, high in bounds] + [high for _, _, high in rows]
    red = [F(c) for c in objective]
    basic = list(range(n, n + len(table)))
    nonbasic = list(range(n))
    at = [F(0)] * n
    den, pivots = F(1), 0

    def value(row):
        return sum((t * v for t, v in zip(row, at)), F(0))

    while True:
        if entries is not None:
            seen = [den, den * value(red)] + [den * v for v in red]
            for row in table:
                seen += [den * value(row)] + [den * t for t in row]
            entries.append(max(abs(v) for v in seen))
        s = -1
        for j, var in enumerate(nonbasic):
            if ((red[j] > 0 and (hi[var] is None or at[j] < hi[var]))
                    or (red[j] < 0 and (lo[var] is None or at[j] > lo[var]))):
                if s < 0 or var < nonbasic[s]:
                    s = j
        if s < 0:
            break
        up = red[s] > 0
        var = nonbasic[s]
        limit = hi[var] if up else lo[var]
        best = None                    # (step, leaving variable, row or -1)
        if limit is not None:
            best = (abs(limit - at[s]), var, -1)
        for i, row in enumerate(table):
            t = row[s]
            if t == 0:
                continue
            b = hi[basic[i]] if (t > 0) == up else lo[basic[i]]
            if b is None:
                continue
            step = abs(b - value(row)) / abs(t)
            if best is None or (step, basic[i]) < best[:2]:
                best = (step, basic[i], i)
        if best is None:
            break
        _, leave, r = best
        if r < 0:
            at[s] = limit
            continue
        pivots += 1
        t = table[r][s]
        beta = hi[leave] if (t > 0) == up else lo[leave]
        # x_N[s] = (x_leave - sum_{j != s} T[r][j] x_N[j]) / T[r][s]
        solved = [-v / t for v in table[r]]
        solved[s] = 1 / t
        for i, row in enumerate(table):
            if i != r:
                table[i] = _substitute(row, solved, s)
        red = _substitute(red, solved, s)
        table[r] = solved
        basic[r], nonbasic[s] = var, leave
        at[s] = beta
        den *= abs(t)
        if dens is not None:
            dens.append(den)

    x = [F(0)] * n
    if s >= 0:                         # the ray along which nonbasic[s] grows
        sign = 1 if up else -1
        moves = [F(sign) if j == s else F(0) for j in range(n)]
        moves += [sign * row[s] for row in table]
    else:
        moves = list(at) + [value(row) for row in table]
    for var, v in zip(nonbasic + basic, moves):
        if var < n:
            x[var] = v
    if s >= 0:
        return LpResult("unbounded", None, tuple(x), pivots)
    optimum = sum((F(c) * v for c, v in zip(objective, x)), F(0))
    return LpResult("optimal", optimum, tuple(x), pivots)


def _substitute(row, solved, s):
    """row with x_N[s] replaced by solved . (x_N with x_leave at s)."""
    f = row[s]
    out = [a + f * b for a, b in zip(row, solved)]
    out[s] = f * solved[s]
    return out


def literal_dual_failures(objective, rows, bounds, multipliers, optimum):
    """The dual conditions that Fraction multipliers fail, as names.

    multipliers has one entry per variable (the structurals, then one per
    row).  The conditions: c = sum_i y_i a_i + z ("stationary"); each
    nonzero multiplier has a finite bound on its side, hi when positive and
    lo when negative ("bounded"); the sum of multiplier * bound equals
    optimum ("tight").  All three bound c.x by optimum on the feasible set.
    """
    n = len(objective)
    limits = list(bounds) + [(low, high) for _, low, high in rows]
    combined = [F(z) for z in multipliers[:n]]
    for (coeffs, _, _), y in zip(rows, multipliers[n:]):
        for j, a in enumerate(coeffs):
            combined[j] += y * a
    failures = []
    if combined != [F(c) for c in objective]:
        failures.append("stationary")
    chosen = [(y, high if y > 0 else low)
              for y, (low, high) in zip(multipliers, limits) if y != 0]
    if any(bound is None for _, bound in chosen):
        failures.append("bounded")
    elif sum((y * bound for y, bound in chosen), F(0)) != optimum:
        failures.append("tight")
    return failures


# -- the vertex files that `generate` writes ----------------------------------


def _exact_token(tok):
    """An int or 'p/q' coordinate; anything else raises ValueError."""
    try:
        if type(tok) in (str, int):
            return F(tok)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"coordinate {tok!r} is not an exact number")


def _parse_points_tokens(tokens, width):
    points = []
    for line in tokens:
        if len(line) != width:
            raise ValueError(
                f"vertex line has {len(line)} fields, expected {width}")
        points.append(tuple(_exact_token(tok) for tok in line))
    return points


def parse_ext(text):
    """Parse a cdd-style V-representation written by `generate --format
    ext`; malformed text raises ValueError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "V-representation":
        raise ValueError("missing V-representation header")
    if lines[1:2] != ["begin"]:
        raise ValueError("missing begin line")
    size = lines[2].split() if len(lines) > 2 else []
    if len(size) != 3:
        raise ValueError("missing size line 'count width rational'")
    count_s, width_s, kind = size
    if kind != "rational":
        raise ValueError(f"unsupported number type {kind!r}")
    count, width = int(count_s), int(width_s)
    body = lines[3 : 3 + count]
    if len(body) != count or lines[3 + count : 4 + count] != ["end"]:
        raise ValueError("vertex count does not match body")
    points = _parse_points_tokens([ln.split() for ln in body], width)
    for p in points:
        if p[0] != 1:
            raise ValueError("vertex lines must start with 1")
    return [p[1:] for p in points]


def parse_vertices_json(text):
    """Parse the document `generate --format json` writes; malformed text
    raises ValueError."""
    doc = json.loads(text)
    if type(doc) is not dict or (doc.get("schema"), doc.get("kind")) != (
            SCHEMA, "vertices"):
        raise ValueError("not a vertices document")
    points = doc.get("points")
    if type(points) is not list or any(type(p) is not list for p in points):
        raise ValueError("points must be a list of coordinate lists")
    return [tuple(_exact_token(tok) for tok in p) for p in points]
