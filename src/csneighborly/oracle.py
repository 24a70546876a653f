"""Independent verification on the polytope itself, via exact LPs.

Three checks, each reduced to small exact linear programs:

  * is_face: a signed vertex subset S is the vertex set of a face iff some
    functional c attains 1 on S and at most 1 - t (t > 0) on every other
    vertex; the LP maximizes that margin t.

  * is_dominant: a subset I of the cs-transform points is dominant iff some
    sign pattern puts the corresponding weight-|I| vertex w of the signed
    cube section on or outside the boundary of the projected cube.  The
    membership LP maximizes t subject to w + X y lying in the cube shrunk to
    half-width 1/2 - t; on-or-outside means optimal t <= 0.

  * projection_containment: the same membership margin, swept over every
    vertex of the weight-k section; containment holds iff the minimum margin
    is >= 0 (strict if > 0).

Each sweep lists its tasks through one plan (_plan): every task in
exhaustive mode, refused above a cap, or a seeded draw in sample mode
(sampling.draws, with replacement).  The tasks run through
sweep.ordered_map, serially or on worker processes, and results are
aggregated in task order, so reports do not depend on the worker count.

The face sweep solves an LP only where its report needs an optimum.  Its
report reads the verdicts, the first failures with their margins and the
least margin.  Each subset first gets a witness point (_face_witness): with
G the members' signed Gram matrix and G lambda = 1, c = sum lambda_i s_i x_i
has <c, s_i x_i> = 1 on every member, and with m the largest |<c, x_j>| over
the other vertex pairs, u = c/m and sigma_w = 1/m are feasible for
is_face's LP, so sigma_w <= sigma*.  Each <x_i, x_j> is [i = j], alpha*H_ij
or alpha^2 G_ij (G = H^T H, d*I once validated), so the point costs O(k*d)
integer operations read from H, G and (p, q); Gauss-Jordan solves
G lambda = 1 once per sweep and member pattern (_PackedColumns.solutions).
The calling process forms every subset's point once, solves the LP of the
subset with the least sigma_w (the first in task order), the probe, to a
dual-certified optimum, and hands out the subsets with their points in
batches of FACE_BATCH consecutive ones.  Within a batch, tau starts at the
probe's sigma* and falls to the sigma* of each subset solved to an optimum
as a face below it.  A later subset with sigma_w >= tau and sigma_w > 1
gets no LP: its witness point is re-substituted into the LP's rows and
bounds (simplex._recheck), and shows a face whose margin, at least
1 - 1/sigma_w, is the one the report keeps.  Every other subset's LP stops
at the first point with sigma >= tau when tau > 1 (simplex.lp_max's
target), with its margin that of the point, at least 1 - 1/tau.  Neither
can lower the minimum, which the probe or an earlier subset already attains
at tau or below.  A failure has sigma_w <= sigma* <= 1, so it is never
settled by its point and never reaches tau: failures, and the subset that
sets the minimum, are solved to a dual-certified optimum.  The probe and
the batches depend only on the task list, so every LP's pivots are the
same for every worker count.

The dominance and containment sweeps check one point per task
(_membership_margins): each sign pattern of each index subset, or each
vertex of the weight-k section.  The calling process forms each point's
closed-form point of the membership LP once (_correction_point) and hands
it out with its task, as the face sweep hands out its witness points.  It
is the better of two.  The paper's certificate, y = -(e + beta*H f) with
alpha*beta*d = 1, puts w + X y at the two correction rows
(-beta*H f | f - alpha*e H - G f/d), which read -alpha*e H on the right
once G = d*I; with c0 their largest |entry|, sigma_c = 1/c0.  At y = 0,
w + X y is w itself.  The balanced mix y = (1 - lam)*y_c, lam =
c0/(1 + c0), has the rows (1 - lam)*(correction rows) + lam*w, where the
two often cancel: on block 0 (e = 0) its sigma is 1 + p*d/(q*k), on block
k (f = 0) 1 + q/(p*k), which is sigma* in the k = 2 sweeps at d = 16, 32
and 64.  In (u', sigma), with V = H f', R_j = d*qb_j - q*(G f')_j (w' =
(e' | f') = scale*w, qb_j the LP's sigma coefficients), m0 = max(p*max|R_j|,
q^2*max|V_i|), d0 = p*q*scale*d and l = m0 + d0, the correction-row point
is u' = -p*q^2*V/m0 with sigma_c = d0/m0, and the mix, with b_i =
m0*p*d*e'_i - d0*q*V_i and m1 = max(p*max_j|m0*q*d*f'_j + d0*R_j|,
q*max|b_i|), is u' = p*q*b/m1 with sigma = l*d0/m1.  The mix is taken when
0 < m1 < m0*l (m1 = 0 makes it a ray of the LP, whose sigma* is then
unbounded).  Both cost O(k*d) integer sums over f's support, and the
point's sigma_pt is at most sigma*.

The probe is the task with the least sigma_pt, the first in task order on
ties (the first task when no point has one); the calling process solves
its LP to a dual-certified optimum.  tau is its sigma*, and for dominance
at least 2: a pattern is dominant exactly when its margin 1/2 - 1/sigma*
is <= 0.  When tau is above that floor, a task after the probe is settled
by its point when sigma_pt >= tau, and its LP otherwise stops at the first
point with sigma >= tau.  Every other task is settled when sigma_pt > tau,
and its LP stops at the first point with sigma > tau, through the target
tau + 1/(b * 2**(W-2)) (b tau's denominator, W the LP's field width; see
_margin for why that is exact).  A settled point is re-substituted into
the LP's rows and bounds (simplex._recheck), which rejects it unless it is
feasible whatever G holds, and its margin is 1/2 - 1/sigma_pt.  Every
point with sigma* < tau is solved to its optimum, as its sigma_pt <=
sigma*, and so is a tie (sigma* = tau) before the probe, which can be
where the least margin is first met (containment's min_at).  A point
after the probe that settles or stops at sigma >= tau keeps a margin at
least the probe's, which comes first, so it is not where the least margin
is first met; that margin is above 0, as tau is then above 2, so it is
not dominant.  The strict test keeps every other kept margin above the
probe's, and above 0 when the floor is in force, where a point at
sigma = 2 would read as dominant.  With an unbounded probe there is no
tau and no LP stops: a floor of 2 alone would let a stopped point's
margin stand in for the least margin when that is above 0.  The probe's
index and margin and tau go to the sweep in its context, so no LP is
solved twice; the points, the probe and tau depend only on the task list,
so every settled set and every LP is the same for every worker count.

Every LP row is a column of H, signed and scaled, with a sigma coefficient
(or a unit row on a member vertex).  Once per sweep, _PackedColumns
type-checks H's entries and sums its column norms; the first time a
program needs field width W (in this process, or in each pool worker, from
the sweep context), it packs the d columns of H into W-bit fields, as
simplex.lp_max would pack them.  Per LP the oracle then forms the caller's
integer rows (which lp_max's checks of the result read), the column norms
of [c; A] in closed form for _field_width, and each packed row with one
product and one shift: s * scale * packed[j] + (sigma coefficient << W*d),
exact because packing is linear.  lp_max still checks each LP's sigma
column, row limits and bounds.  The sweeps keep only margins and verdicts,
so they keep no face witness c and form no cube witness y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, islice, product
from math import comb, lcm
from operator import index as as_index, itemgetter, lshift

from .blocks import (_signs_from_bits, block_row_count, block_row_parts,
                     dense_parts, sample_indices, total_row_count,
                     unrank_support)
from .construction import Construction
from .exact import as_scalar
from .sampling import draws
from .simplex import PackedRows, _field_width, _ints, _recheck, lp_max
from .sweep import ordered_map

HALF = Fraction(1, 2)
FACE_BATCH = 16                  # consecutive subsets per face-sweep task


class _PackedColumns:
    """H's columns for the face and membership LPs of one sweep: checked
    once, packed once per field width (module docstring).

    rows[i] is row i of H, and norms[i] its squared norm: that of LP column
    i < d over the d rows h_j.  gram is G = H^T H, as validation formed
    it; solutions keeps _unit_solution's result for each signed Gram
    matrix of face members that the sweep meets.
    """

    def __init__(self, con: Construction):
        self.con = con
        self.d = con.d
        self.p, self.q = con.params.alpha.as_integer_ratio()
        self.columns = con.hadamard.columns
        self.rows = tuple(zip(*self.columns))     # row i of H
        _ints(chain.from_iterable(self.columns), "coefficient")
        self.norms = [sum(h * h for h in row) for row in self.rows]
        self.gram = con.hadamard.gram
        self._by_width = {}
        self.solutions = {}

    def packed(self, width: int) -> tuple:
        """Column j of H as sum_i h_ij * 2**(width*i), for each j."""
        packed = self._by_width.get(width)
        if packed is None:
            shifts = range(0, width * self.d, width)
            packed = tuple(sum(map(lshift, col, shifts))
                           for col in self.columns)
            self._by_width[width] = packed
        return packed


def _plan(mode, total, cap, what, every, sampled, seed):
    """(tasks, the seed the report echoes) of an oracle sweep.

    Exhaustive mode lists every, refused when its total `what` exceed cap,
    and echoes no seed; sample mode lists sampled and echoes seed.  Each
    iterable is read only in its own mode.
    """
    if mode == "exhaustive":
        if total > cap:
            raise ValueError(f"{total} {what} exceed the exhaustive cap "
                             f"{cap}; use sample mode")
        return list(every), None
    if mode == "sample":
        return list(sampled), seed
    raise ValueError(f"unknown mode {mode!r}")


# -- face checks ---------------------------------------------------------------


@dataclass(frozen=True)
class FaceReport:
    """Outcome of one face check.  witness and margin are the face LP's
    optimum (c, t): exactly <c, v> = 1 on the subset and <c, v> + t <= 1 on
    the other 2m vertices.  margin is None when no c attains 1 on the whole
    subset."""

    subset: tuple                  # ((vertex index, sign), ...) sorted
    status: str                    # "face" | "not-face" | "antipodal-rejected"
    witness: tuple | None          # functional c with <c, x> = 1 on the subset
    margin: Fraction | None        # optimal t; face iff t > 0


def is_face(con: Construction, subset) -> FaceReport:
    """Decide whether the signed subset is the vertex set of a face.

    Subset members are (index, sign) pairs of ints over the m vertex
    representatives (a float raises TypeError); a subset containing an
    antipodal pair is rejected without solving.

    The LP maximizes t with <c, s x_i> = 1 on the members and
    |<c, x_i>| <= 1 - t on the other vertex pairs.  In u = c/(1-t) and
    sigma = 1/(1-t): maximize sigma >= 0 with s x_i.u = sigma on the members
    and |x_i.u| <= 1 on the other pairs (for i < d, a bound on u_i).  Then
    t = 1 - 1/sigma and c = u/sigma; sigma* = 0 means no c attains 1 on the
    subset, and an unbounded sigma means t = 1, with c from the ray.

    Solved in u' = p*u (alpha = p/q), the rows are H's +-1 columns:
    |u'_i| <= p, s*u'_i = p*sigma or s*h_j.u' = q*sigma on the members,
    |h_j.u'| <= q on the others, and c = u'/(p*sigma).  The rescaling maps
    the feasible points of the LP in u onto those in u' and keeps sigma, so
    the margin is unchanged and c is an optimal witness; the pivots may
    differ, as pricing by the largest cost sees u' and not u.
    """
    members = tuple(sorted(set((as_index(i), as_index(s)) for i, s in subset)))
    if not members:
        raise ValueError("subset must be non-empty")
    if len(members) > con.d:
        raise ValueError(f"subset size {len(members)} exceeds d = {con.d}")
    for i, s in members:
        if not 0 <= i < con.m or s not in (1, -1):
            raise ValueError(f"bad subset member ({i}, {s})")
    if len({i for i, _ in members}) < len(members):
        return FaceReport(members, "antipodal-rejected", None, None)
    columns = _PackedColumns(con)
    status, margin, result = _face(columns, members)
    if margin is None:
        return FaceReport(members, status, None, None)
    d = con.d
    p_sigma = columns.p * result.x[d]
    return FaceReport(members, status,
                      tuple(c / p_sigma for c in result.x[:d]), margin)


def _face(columns: _PackedColumns, members, target=None) -> tuple:
    """(status, margin, LP result) of is_face over antipode-free members,
    the LP stopped at sigma >= target if one is given.

    With a target > 1, a "reached" result shows a face whose margin is at
    least 1 - 1/target; the margin is then that of the point, not the
    optimum.
    """
    result = _face_lp(columns, members, target)
    sigma = result.x[columns.d]
    if not sigma:
        return "not-face", None, result
    margin = Fraction(1) if result.status == "unbounded" else 1 - 1 / sigma
    return "face" if margin > 0 else "not-face", margin, result


def _face_rows(columns: _PackedColumns, members) -> tuple:
    """(rows, bounds, squares, others) of the face LP of is_face over
    antipode-free members: its rows and bounds in (u', sigma), the squared
    column norms of [c; A], and the non-member columns j of H, whose rows
    |h_j.u'| <= q follow the members' rows."""
    d, p, q, cols = columns.d, columns.p, columns.q, columns.columns
    bounds = [(-p, p)] * d + [(0, None)]
    squares = columns.norms + [1]                 # columns of [c; A]
    rows, used = [], set()
    for i, s in members:                         # s x_i.u' - p*sigma in [0, 0]
        if i < d:
            coeffs = [0] * (d + 1)
            coeffs[i], coeffs[d] = s, -p
            bounds[i] = (None, None)
            squares[i] += 1
            squares[d] += p * p
        else:
            coeffs = [s * v for v in cols[i - d]] + [-q]
            used.add(i - d)
            squares[d] += q * q
        rows.append((coeffs, 0, 0))
    others = [j for j in range(d) if j not in used]
    rows += [(cols[j] + (0,), -q, q) for j in others]    # |h_j.u'| <= q
    return rows, bounds, squares, others


def _face_lp(columns: _PackedColumns, members, target=None):
    """The face LP of is_face over antipode-free members, its rows packed
    from the sweep's columns of H, solved up to sigma >= target."""
    d, p, q = columns.d, columns.p, columns.q
    rows, bounds, squares, others = _face_rows(columns, members)
    objective = (0,) * d + (1,)
    width = _field_width(objective, rows, bounds, squares)
    packed, top = columns.packed(width), width * d
    table = [(s << width * i) - (p << top) if i < d
             else s * packed[i - d] - (q << top) for i, s in members]
    table += [packed[j] for j in others]
    return lp_max(objective, PackedRows(rows, width, table, d), bounds,
                  target=target)


def _face_witness(columns: _PackedColumns, members) -> tuple | None:
    """(nums, den): the members' witness point x = nums / den of the face
    LP in (u', sigma), sigma_w = nums[d] / den (module docstring); None when
    their signed Gram matrix is singular (as it is when they hold an
    antipodal pair) or no other vertex pair bounds the point.

    In y_i = q*x_i, C = sum nu_i s_i y_i (nu from _unit_solution) has
    <C, s_i y_i> = delta on each member.  <C, y_j> at every vertex sums the
    members' Gram rows: q^2 e_i and p*q times row i of H for e_i, p*q h_j
    and p^2 times row j of G for column j.  den is its largest size over
    the non-members, sigma = delta / den, and u' = p*q*C / den, whose entry
    i is p*<C, y_i> / den.
    """
    d, p, q = columns.d, columns.p, columns.q
    key = tuple(s * t * _gram_entry(columns, i, j)
                for i, s in members for j, t in members)
    solutions = columns.solutions
    if key not in solutions:
        solutions[key] = _unit_solution(key, len(members))
    if solutions[key] is None:
        return None
    nu, delta = solutions[key]
    units, others = [0] * d, [0] * d          # <C, y_i> at e_i, at column i
    for (i, s), v in zip(members, nu):
        w = s * v
        if i < d:
            units[i] += w * q * q
            w *= p * q
            others = [o + w * h for o, h in zip(others, columns.rows[i])]
        else:
            wpq, wpp = w * p * q, w * p * p
            units = [u + wpq * h
                     for u, h in zip(units, columns.columns[i - d])]
            others = [o + wpp * g for o, g in zip(others, columns.gram[i - d])]
    values = units + others
    for i, _ in members:
        values[i] = 0
    den = max(max(values), -min(values))
    if not den:
        return None
    return [p * u for u in units] + [delta], den


def _gram_entry(columns: _PackedColumns, i: int, j: int) -> int:
    """<y_i, y_j> for the vertices y_i = q*x_i and y_j = q*x_j."""
    if i > j:
        i, j = j, i
    d = columns.d
    if j < d:
        return columns.q * columns.q if i == j else 0
    if i < d:
        return columns.p * columns.q * columns.rows[i][j - d]
    return columns.p * columns.p * columns.gram[i - d][j - d]


def _unit_solution(gram, k: int) -> tuple | None:
    """(nu, delta): ints with delta > 0 and G nu = delta * (1, ..., 1) for
    the k x k matrix G whose entries gram lists row by row; None when G is
    singular.  Gauss-Jordan elimination in Fractions, once per sweep and
    member pattern."""
    rows = [[Fraction(v) for v in gram[r * k:(r + 1) * k]] + [Fraction(1)]
            for r in range(k)]
    for c in range(k):
        r = next((r for r in range(c, k) if rows[r][c]), None)
        if r is None:
            return None
        rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                f = row[c] / pivot[c]
                rows[i] = [a - f * b for a, b in zip(row, pivot)]
    lam = [row[k] / row[c] for c, row in enumerate(rows)]
    delta = lcm(*(v.denominator for v in lam))
    return tuple(v.numerator * (delta // v.denominator) for v in lam), delta


def _face_point_check(columns: _PackedColumns, members, nums, den) -> None:
    """Re-substitute the point nums / den into the face LP's integer rows
    and bounds over the members (simplex._recheck), with sigma = nums[d] /
    den; raises RuntimeError("internal error: ...") unless it is feasible."""
    rows, bounds, _, _ = _face_rows(columns, members)
    _recheck((0,) * columns.d + (1,), rows, bounds, nums, den, nums[-1])


def _face_batch(context, batch) -> list:
    """(subset, status, margin) of each subset of a batch of (members,
    witness point) pairs, in order: one task of verify_k_neighborly;
    context = (packed columns, the probe's sigma*, the probe's outcome by
    its members).

    tau starts at the probe's sigma* and falls to the sigma* of each subset
    of the batch solved to an optimum as a face below it.  Each subset is
    checked through the module global _face_check, so that a test that
    replaces it sees every subset but the probe.
    """
    columns, tau, probes = context
    outcomes = []
    for members, witness in batch:
        outcome = probes.get(members)
        if outcome is None:
            outcome, sigma = _face_check(columns, members, witness, tau)
            if sigma is not None and (tau is None or sigma < tau):
                tau = sigma
        outcomes.append(outcome)
    return outcomes


def _face_check(columns: _PackedColumns, members, witness,
                tau=None) -> tuple:
    """((members, status, margin), sigma*) of one subset of the face sweep,
    with its witness point (_face_witness, None without one): sigma* when
    its LP was solved to an optimum as a face with a margin below 1, else
    None.

    With tau, a subset whose witness has sigma_w >= tau and sigma_w > 1
    gets no LP: its point is re-substituted, and its margin is the point's,
    1 - 1/sigma_w.  Any other subset's LP stops once sigma reaches tau, when
    tau > 1, and its margin is then that of the point.
    """
    if tau is not None and witness is not None:
        nums, den = witness
        sigma = Fraction(nums[-1], den)
        if sigma >= tau and sigma > 1:
            _face_point_check(columns, members, nums, den)
            return (members, "face", 1 - 1 / sigma), None
    target = tau if tau is not None and tau > 1 else None
    status, margin, result = _face(columns, members, target)
    sigma = (1 / (1 - margin) if result.status != "reached"
             and status == "face" and margin < 1 else None)
    return (members, status, margin), sigma


def canonical_subsets(m: int, k: int):
    """Antipode-free k-subsets, one per antipodal pair of subsets.

    Index combinations ascend lexicographically; sign patterns run through a
    binary counter with +1 before -1 and the first sign pinned to +1, which
    selects the lexicographically smaller of S and -S.
    """
    for idxs in combinations(range(m), k):
        for signs in product((1, -1), repeat=k - 1):
            yield tuple(zip(idxs, (1,) + signs))


@dataclass(frozen=True)
class NeighborlinessReport:
    d: int
    k: int
    mode: str
    enumerated: int                # canonical subsets checked
    checked: int                   # logical subsets covered (x2 by symmetry)
    passed: int
    failed: int
    min_margin: Fraction | None
    failures: tuple                # first few (subset, status, margin)
    seed: int | None = None

    @property
    def all_faces(self) -> bool:
        return self.failed == 0


def verify_k_neighborly(
    con: Construction,
    k: int | None = None,
    mode: str = "exhaustive",
    cap: int = 1_000_000,
    samples: int = 1_000,
    seed: int = 0,
    jobs: int = 1,
) -> NeighborlinessReport:
    """Sweep antipode-free k-subsets and check that each one is a face.

    Exhaustive mode enumerates one canonical representative per antipodal
    subset pair (global sign flip does not change face status, so reported
    logical counts are doubled); sample mode draws `samples` canonical
    subsets deterministically from the seed.

    The subset with the least witness sigma_w, the probe, is solved first,
    in this process, to a dual-certified optimum.  The others are checked
    in batches of FACE_BATCH consecutive ones (_face_batch), with tau the
    least of the probe's sigma* and the batch's earlier optimal faces'.  A
    subset with sigma_w >= tau (and > 1) is settled by its re-substituted
    witness point, without an LP, and any other LP stops once sigma
    reaches tau (module docstring).  Verdicts, failures and min_margin are
    those of solving every LP to its optimum.
    """
    k = con.k if k is None else k
    if k < 1 or k > con.d:
        raise ValueError(f"subset size k={k} must be in 1..{con.d}")
    m = con.m
    tasks, used_seed = _plan(
        mode, (1 << k) * comb(m, k), cap, "subsets", canonical_subsets(m, k),
        (tuple(zip(unrank_support(m, k, rank),
                   (1,) + _signs_from_bits(k - 1, bits))) for rank, bits in
         draws((seed << 20) ^ (m << 8) ^ k, (comb(m, k), 1 << (k - 1)),
               samples)),
        seed)

    # canonical subsets are sorted and antipode-free: each is its members
    columns = _PackedColumns(con)
    pairs = [(members, _face_witness(columns, members)) for members in tasks]
    sigmas = {i: Fraction(w[0][-1], w[1])     # sigma_w of each witness point
              for i, (_, w) in enumerate(pairs) if w}
    probes, tau = {}, None
    if sigmas:
        probe = tasks[min(sigmas, key=sigmas.get)]
        status, margin, _ = _face(columns, probe)
        probes[probe] = probe, status, margin
        if margin is not None and margin < 1:
            tau = 1 / (1 - margin)        # the probe's sigma*
    batches = [pairs[i:i + FACE_BATCH]
               for i in range(0, len(pairs), FACE_BATCH)]
    outcomes = list(chain.from_iterable(
        ordered_map(_face_batch, (columns, tau, probes), batches, jobs)))

    passed = sum(1 for _, status, _ in outcomes if status == "face")
    failures = tuple(o for o in outcomes if o[1] != "face")[:20]
    margins = [margin for _, _, margin in outcomes if margin is not None]
    return NeighborlinessReport(
        d=con.d,
        k=k,
        mode=mode,
        enumerated=len(tasks),
        checked=2 * len(tasks),
        passed=2 * passed,
        failed=2 * (len(tasks) - passed),
        min_margin=min(margins) if margins else None,
        failures=failures,
        seed=used_seed,
    )


# -- membership margins (dominance and containment) ------------------------------


def membership_margin(con: Construction, point) -> tuple:
    """Margin of proj(point) inside the projected cube, with the cube witness.

    Maximizes t subject to w + X y lying in the cube of half-width 1/2 - t,
    w the point; t > 0 means strictly inside, t = 0 on the boundary, t < 0
    outside.  Returns (t, y).  Entries are ints, 'p/q' strings or
    Fractions; a float raises TypeError.

    In u = (w_{1..d} + y)/(1/2 - t) and sigma = 1/(1/2 - t): maximize
    sigma >= 0 with |u_i| <= 1 and |x_{d+j}.u + b_j sigma| <= 1, where
    b_j = w_{d+j} - x_{d+j}.w_{1..d}.  Then t = 1/2 - 1/sigma (1/2 when
    sigma is unbounded) and y = u/sigma - w_{1..d}.  As in is_face it is
    solved in u' = p*u: |u'_i| <= p and |h_j.u' + q b_j sigma| <= q, rows
    scaled by the lcm of w's denominators, and y = u'/(p*sigma) - w_{1..d}.
    """
    if len(point) != con.m:
        raise ValueError(f"point must have length {con.m}")
    w = [v if type(v) is int else as_scalar(v) for v in point]
    columns = _PackedColumns(con)
    margin, result = _margin(columns, *_offsets(columns, w)[:2])
    d = con.d
    p_sigma = columns.p * result.x[d]
    return margin, tuple(u / p_sigma - v for u, v in zip(result.x[:d], w))


def _offsets(columns: _PackedColumns, w) -> tuple:
    """(scale, qbs, ints) of the point w (ints or Fractions): scale the lcm
    of its denominators, ints = scale*w, and qbs the membership LP's sigma
    coefficients scale*q*b_j = q*ints_{d+j} - p*h_j.ints_{1..d}, the dot
    products summed over the rows of H at w's nonzeros."""
    d, p, q = columns.d, columns.p, columns.q
    scale = lcm(*(v.denominator for v in w))
    ints = [v.numerator * (scale // v.denominator) for v in w]
    qbs = [q * v for v in ints[d:]]
    for v, row in zip(ints[:d], columns.rows):
        if v:
            pv = p * v
            qbs = [qb - pv * h for qb, h in zip(qbs, row)]
    return scale, qbs, ints


def _program(columns: _PackedColumns, scale: int, qbs) -> tuple:
    """(objective, rows, bounds) of the membership LP of the point with
    offsets (scale, qbs) (_offsets), in integers: maximize sigma with
    |scale*h_j.u' + qbs_j*sigma| <= scale*q for each column h_j of H,
    |u'_i| <= p and sigma >= 0."""
    d, cols = columns.d, columns.columns
    if scale != 1:
        cols = [tuple(scale * v for v in col) for col in cols]
    limit = scale * columns.q
    rows = [(col + (qb,), -limit, limit) for col, qb in zip(cols, qbs)]
    return ((0,) * d + (1,), rows,
            [(-columns.p, columns.p)] * d + [(0, None)])


def _margin(columns: _PackedColumns, scale: int, qbs, tau=None,
            ties: bool = False) -> tuple:
    """(membership margin, LP result) of the point with offsets (scale,
    qbs) (_offsets), its rows packed from the sweep's columns of H.

    With tau (a rational a/b) the LP stops at the first point with sigma >=
    tau when ties, else at the first with sigma > tau: lp_max gets the
    target tau+ = tau + 1/(b * 2**(W-2)), W the LP's field width.  At every
    dictionary sigma = V/D with V an int and 0 < D < 2**(W-2), as lp_max's
    overflow guard bounds every pivot entry and so every D; so sigma > tau
    gives sigma - tau >= 1/(b*D) > 1/(b * 2**(W-2)), and sigma >= tau+
    holds exactly when sigma > tau.  A "reached" result's margin is that of
    its point, at least 1/2 - 1/tau (above it without ties); an LP whose
    sigma* is below tau (at most tau without ties) is solved to its
    optimum.
    """
    d = columns.d
    objective, rows, bounds = _program(columns, scale, qbs)
    squares = [v * scale * scale for v in columns.norms]   # of [c; A]
    squares.append(1 + sum(qb * qb for qb in qbs))

    width = _field_width(objective, rows, bounds, squares)
    packed, top = columns.packed(width), width * d
    table = [scale * x + (qb << top) for x, qb in zip(packed, qbs)]
    target = tau
    if tau is not None and not ties:
        target = tau + Fraction(1, tau.denominator << (width - 2))
    result = lp_max(objective, PackedRows(rows, width, table, d), bounds,
                    target=target)
    sigma = result.x[d]
    margin = HALF if result.status == "unbounded" else HALF - 1 / sigma
    return margin, result


def _correction_point(columns: _PackedColumns, ints, qbs,
                      scale: int) -> tuple | None:
    """(nums, den): the closed-form point x = nums / den, sigma_pt =
    nums[d] / den, of the membership LP of (e | f) = ints / scale, qbs its
    sigma coefficients: the better of the correction-row point and its
    balanced mix with the point (e | f) itself (module docstring); None
    when both correction rows vanish."""
    d, p, q = columns.d, columns.p, columns.q
    vs, gfs = [0] * d, [0] * d                  # V = H f' and G f'
    for j, v in enumerate(ints[d:]):
        if v:
            vs = [a + v * h for a, h in zip(vs, columns.columns[j])]
            gfs = [a + v * g for a, g in zip(gfs, columns.gram[j])]
    rs = [d * qb - q * g for qb, g in zip(qbs, gfs)]     # R_j
    m0 = max(p * max(map(abs, rs)), q * q * max(map(abs, vs)))
    if not m0:
        return None
    d0 = p * q * scale * d
    ell = m0 + d0
    bs = [m0 * p * d * x - d0 * q * v for x, v in zip(ints[:d], vs)]
    m1 = max(p * max(abs(m0 * q * d * x + d0 * r)
                     for x, r in zip(ints[d:], rs)),
             q * max(map(abs, bs)))
    if 0 < m1 < m0 * ell:                       # the mix: sigma = ell*d0/m1
        return [p * q * b for b in bs] + [ell * d0], m1
    return [-p * q * q * v for v in vs] + [d0], m0      # sigma_c = d0/m0


def _membership_margins(columns: _PackedColumns, point, tasks, floor,
                        jobs: int):
    """The membership margin of point(columns, task) for each task, in task
    order: the kernel of both membership sweeps (module docstring).

    This process forms each task's closed-form point and solves the probe,
    the task with the least sigma_pt (the first on ties), to its optimum.
    tau is the probe's sigma*, raised to floor if one is given; every other
    point is settled or its LP stopped at tau (_task_margin).  With an
    unbounded probe there is no tau, and every LP is solved to its optimum.
    """
    items, sigmas = [], {}
    for i, task in enumerate(tasks):
        scale, qbs, ints = _offsets(columns, point(columns, task))
        pt = _correction_point(columns, ints, qbs, scale)
        if pt:
            sigmas[i] = Fraction(pt[0][-1], pt[1])
        items.append((i, scale, qbs, pt))
    if not items:                       # ordered_map refuses an empty sweep
        return ordered_map(_task_margin, None, items, jobs)
    probe = min(sigmas, key=sigmas.get, default=0)
    margin = _margin(columns, *items[probe][1:3])[0]
    tau, ties = None, len(items)
    if margin < HALF:
        tau = 1 / (HALF - margin)             # the probe's sigma*
        if floor is not None and tau <= floor:
            tau = floor
        else:
            ties = probe + 1
    return ordered_map(_task_margin, (columns, tau, probe, margin, ties),
                       items, jobs)


def _task_margin(context, item):
    """Membership margin of one task's item (index, scale, qbs, point);
    context = (packed columns, tau, the probe's index and margin, the
    first index from which ties stop).

    The probe's margin is looked up.  With tau, a task from `ties` on is
    settled by its point when sigma_pt >= tau, and its LP otherwise stops
    at sigma >= tau; any other task is settled when sigma_pt > tau, and
    its LP stops at sigma > tau.  A settled point is re-substituted into
    the LP's rows and bounds (simplex._recheck), and its margin is
    1/2 - 1/sigma_pt.
    """
    columns, tau, probe, probe_margin, ties = context
    i, scale, qbs, pt = item
    if i == probe:
        return probe_margin
    tie = i >= ties
    if tau is not None and pt:
        nums, den = pt
        sigma = nums[columns.d]
        if sigma >= tau * den if tie else sigma > tau * den:
            _recheck(*_program(columns, scale, qbs), nums, den, sigma)
            return HALF - Fraction(den, sigma)
    return _margin(columns, scale, qbs, tau, tie)[0]


@dataclass(frozen=True)
class DominanceReport:
    indices: tuple
    pattern_margins: tuple         # ((signs, margin), ...) in binary order
    min_margin: Fraction
    dominant: bool                 # some pattern has margin <= 0


def is_dominant(con: Construction, indices) -> DominanceReport:
    """Check one index subset of the cs-transform points for dominance.

    Indices are ints; a float raises TypeError.  Every pattern's LP is
    solved to its optimum."""
    indices = tuple(sorted(set(map(as_index, indices))))
    if not indices:
        raise ValueError("index subset must be non-empty")
    if any(not 0 <= i < con.m for i in indices):
        raise ValueError(f"indices must lie in 0..{con.m - 1}")
    patterns = tuple(product((1, -1), repeat=len(indices)))
    columns = _PackedColumns(con)
    points = (_pattern(columns, (indices, s)) for s in patterns)
    margins = tuple(_margin(columns, *_offsets(columns, w)[:2])[0]
                    for w in points)
    best = min(margins)
    return DominanceReport(
        indices=indices,
        pattern_margins=tuple(zip(patterns, margins)),
        min_margin=best,
        dominant=best <= 0,
    )


def _pattern(columns: _PackedColumns, task) -> tuple:
    """The point of task = (indices, signs): the signs at the indices."""
    return dense_parts(columns.con.m, task)


@dataclass(frozen=True)
class DominanceSweepReport:
    d: int
    k: int
    mode: str
    subsets_checked: int
    patterns_checked: int
    dominant_found: int
    min_margin: Fraction
    first_dominant: tuple | None   # (indices, signs, margin)
    seed: int | None = None


def dominant_subset_sweep(
    con: Construction,
    k: int | None = None,
    mode: str = "exhaustive",
    cap: int = 1_000_000,
    samples: int = 1_000,
    seed: int = 0,
    jobs: int = 1,
) -> DominanceSweepReport:
    """Sweep size-k index subsets for dominance (no dominant subsets of size
    k means the construction is k-neighborly).

    Each subset's sign patterns are tasks, in binary order.  The pattern
    whose closed-form point has the least sigma_pt, the probe, is solved
    first, in this process, to a dual-certified optimum; every other
    pattern is settled by its closed-form point, or its LP stopped, once
    sigma passes tau, the larger of 2 and the probe's sigma* (none when the
    probe is unbounded; module docstring).  dominant_found, min_margin and
    first_dominant are those of solving every LP to its optimum."""
    k = con.k if k is None else k
    m = con.m
    if k < 1 or k > m:
        raise ValueError(f"subset size k={k} must be in 1..{m}")
    subsets, used_seed = _plan(
        mode, (1 << k) * comb(m, k), cap, "sign patterns",
        combinations(range(m), k),
        (unrank_support(m, k, rank) for (rank,) in
         draws((seed << 20) ^ (m << 8) ^ k ^ 0x515, (comb(m, k),), samples)),
        seed)

    patterns = tuple(product((1, -1), repeat=k))
    tasks = [(indices, signs) for indices in subsets for signs in patterns]
    margins = _membership_margins(_PackedColumns(con), _pattern, tasks, 2,
                                  jobs)

    # each subset's least (margin, signs) pattern, and the dominant ones
    least = [min(zip(islice(margins, len(patterns)), patterns)) + (indices,)
             for indices in subsets]
    dominant = [(indices, signs, margin)
                for margin, signs, indices in least if margin <= 0]
    return DominanceSweepReport(
        d=con.d,
        k=k,
        mode=mode,
        subsets_checked=len(subsets),
        patterns_checked=len(tasks),
        dominant_found=len(dominant),
        min_margin=min(least)[0],
        first_dominant=dominant[0] if dominant else None,
        seed=used_seed,
    )


@dataclass(frozen=True)
class ContainmentReport:
    d: int
    k: int
    mode: str
    vertices_checked: int
    min_margin: Fraction
    min_at: tuple                  # (block l, row index)
    seed: int | None = None

    @property
    def contained(self) -> bool:
        return self.min_margin >= 0

    @property
    def strictly_contained(self) -> bool:
        return self.min_margin > 0


def projection_containment(
    con: Construction,
    k: int | None = None,
    mode: str = "exhaustive",
    cap: int = 1_000_000,
    samples: int = 1_000,
    seed: int = 0,
    jobs: int = 1,
) -> ContainmentReport:
    """Minimum membership margin over the vertices of the weight-k section.

    Containment of the projected section in the projected cube holds iff the
    minimum margin is >= 0.  Sample mode draws `samples` rows from each
    block (blocks.sample_indices); this process unranks each vertex from
    its (block, row index) and forms its closed-form point.

    The vertex whose point has the least sigma_pt, the probe, is solved
    first, in this process, to a dual-certified optimum; every other vertex
    is settled by its point, or its LP stopped, once sigma reaches tau, the
    probe's sigma* (passes it, before the probe; none when the probe is
    unbounded; module docstring).  min_margin and min_at are those of
    solving every LP to its optimum.
    """
    k = con.k if k is None else k
    d = con.d
    if k < 1 or k > con.m:
        raise ValueError(f"weight k={k} must be in 1..{con.m}")
    blocks = range(k + 1)
    tasks, used_seed = _plan(     # (block l, row index)
        mode, total_row_count(d, k), cap, "vertices",
        ((l, index) for l in blocks for index in range(block_row_count(d, k, l))),
        ((l, index) for l in blocks
         for index in sample_indices(d, k, l, samples, seed)),
        seed)
    margins = _membership_margins(_PackedColumns(con), partial(_vertex, k),
                                  tasks, None, jobs)

    # the least margin, first in task order
    best, best_at = min(zip(margins, tasks), key=itemgetter(0))
    return ContainmentReport(
        d=d,
        k=k,
        mode=mode,
        vertices_checked=len(tasks),
        min_margin=best,
        min_at=best_at,
        seed=used_seed,
    )


def _vertex(k: int, columns: _PackedColumns, task) -> tuple:
    """The vertex at task = (l, row index) of the weight-k section."""
    return dense_parts(columns.d, *block_row_parts(columns.d, k, *task))
