"""Correction blocks, the three matrix conditions, and combination certificates.

For the Hadamard construction the block of weight-split l pairs each row
(e | f) with correction rows

    left_correction  = beta * f H^T      (entries bounded by beta*(k-l)),
    right_correction = alpha * e H       (entries bounded by alpha*l),

and the three conditions verified here are

    (a) every correction entry has absolute value at most 1/2,
    (b) (e + left_correction) A = f + right_correction, exactly, per row,
    (c) every correction row splits into an explicit nonnegative combination
        of cube-vertex rows that re-sums, together with the subspace rows of
        (I | A) and a slack on the homogenizing coordinate, to the target
        row (1, e | f).

The expansion in (c) uses two cube vertices of weight beta/2 per support
index of f and two of weight alpha/2 per support index of e, so the
coefficient sum in block l is (k-l)*beta + l*alpha = 1/2 - (k-l)*(alpha-beta),
attaining 1/2 exactly when alpha = beta (d = 4k^2) or l = k.

A row check separates into checks of its left part e and its right part f.
For alpha = p/q, n_hat = e H, m_hat = f H^T and G = H^T H: (a) is
alpha*max|n_hat| <= 1/2 on e and beta*max|m_hat| <= 1/2 on f; (b) reads
alpha*n_hat + (1/d) f G = f + alpha*n_hat, where the alpha*n_hat terms
cancel, so it is f G == d*f; (c) re-sums, scaled by 2pqd, to that same
comparison and needs eps = 1 - 2*(coefficient sum) >= 0, one per block.
Each distinct part of a block is checked once, in integers, against the
actual H and the G its validation formed (HadamardMatrix.gram): L + R checks
for an exhaustive block of L*R rows.

A part is checked in packed fields.  A vector v with sign s packs into one
int whose field j holds bias + s*v[j]: byte fields with hbias = max|H| for
the rows and columns of H, and fields `width` = bits(2*k*gbias) wide with
gbias = max(max|G|, d) for the rows of G (PackedHalves).  The signed sum of
a part's w <= k vectors is then w int additions, and its field j holds
w*bias plus the j-th entry of the signed sum, a value in [0, 2*w*bias],
below 2^width: no field carries into or borrows from the next, so each
field reads off one entry.  Byte fields need 2*k*hbias <= 255 and a matrix
with larger entries is refused with ValueError.  blocks.part_sums reads
each part's sum straight from the tables, with no (support, signs) tuple:
a sampled part's support indices come from the bisections that unrank its
rank and their signs from its bits, and an exhaustive block's parts stream
support by support, 2^w sign patterns at once.  For (a), max|n_hat| is the
largest t such that a byte w*hbias + t or w*hbias - t occurs in the sum (a
byte search each, from t = w*hbias down).  For (b), the packed sum of G's
rows is compared with the packed target, whose field j holds
w*gbias + d*f[j], in the same range as gbias >= d: two such ints are equal
exactly when every field is, that is when f G == d*f.  A right table entry
holds H's column in its low 8d bits and G's row less its share of the
target above them, so one sum gives both: its low 8d bits are the column
sum, and the rest is zero exactly when (b) holds.

A half task holds up to HALVES_PER_TASK parts of one side of one block, and
checks them in one call: part_sums forms their packed sums, and the batch
kernel _left_halves or _right_halves turns each sum into its result.  Per
part that is one to_bytes and the byte search's first step, t = w*hbias,
where most parts stop (_max_abs runs the rest of the search only when it
misses); parts with the same result share one tuple, built once per call.

verify_conditions packs the tables once per run and hands them, with k, p
and q, to every half task, in this process or on each pool worker.

Blocks above a row cap are checked on a deterministic pseudorandom sample
of rows, always with their first and last row, plus the structural
identities that hold independently of the row count.  A row fails exactly
when one of its parts fails or eps < 0, so a block's first failing row in
sweep order is the first row that reads a failing part (row 0 when
eps < 0), and the rows up to it read exactly the parts first read up to it.
The fold needs each distinct part's result and the position of the first
row that reads it, and walks no row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, groupby, islice
from operator import add, itemgetter

from .blocks import (block_row_count, block_row_parts, dense_parts,
                     part_sums, sample_indices, signed_row_count)
from .construction import Construction, cs_transform_defect
from .hadamard import HadamardMatrix
from .sweep import ordered_map


# -- combination certificates -------------------------------------------------


@dataclass(frozen=True)
class CombinationCertificate:
    """Explicit nonnegative combination reproducing a target row (1, e | f).

    mu_terms pairs each weight mu_i >= 0 with a full +-1 row delta_i; nus are
    the multipliers on the rows of (I | A); eps >= 0 multiplies the row
    (1, 0, ..., 0).  verify() re-sums everything exactly.
    """

    block: int
    target: tuple          # length 1 + m, leading entry 1
    mu_terms: tuple        # ((mu, delta), ...), delta in {+-1}^m
    nus: tuple             # length d
    eps: Fraction

    @property
    def coefficient_sum(self) -> Fraction:
        return sum((mu for mu, _ in self.mu_terms), Fraction(0))

    def verify(self, a) -> None:
        """Exact re-summation over the rows of A; raises ValueError on any defect."""
        d, n = len(a), len(a[0])
        m = d + n
        if len(self.target) != 1 + m or self.target[0] != 1:
            raise ValueError("certificate target must be (1, e) of length 1+m")
        if len(self.nus) != d:
            raise ValueError(f"expected {d} subspace multipliers")
        total = self.coefficient_sum
        if total > Fraction(1, 2):
            raise ValueError(f"coefficient sum {total} exceeds 1/2")
        if self.eps < 0:
            raise ValueError(f"slack {self.eps} is negative")

        acc = [Fraction(0)] * (1 + m)
        shift = [Fraction(0)] * m
        for mu, delta in self.mu_terms:
            if mu < 0:
                raise ValueError(f"negative combination weight {mu}")
            if len(delta) != m or any(x not in (1, -1) for x in delta):
                raise ValueError("delta rows must be +-1 vectors of length m")
            acc[0] += 2 * mu
            for j, x in enumerate(delta):
                acc[1 + j] -= mu * x
                shift[j] += mu * x
        for j, nu in enumerate(self.nus):
            if nu != self.target[1 + j] + shift[j]:
                raise ValueError(
                    f"multiplier {j} is {nu}, expected target + shift "
                    f"{self.target[1 + j] + shift[j]}"
                )
            acc[1 + j] += nu
            arow = a[j]
            for c in range(n):
                acc[1 + d + c] += nu * arow[c]
        acc[0] += self.eps
        if tuple(acc) != self.target:
            raise ValueError("combination does not re-sum to its target row")


def expand_combination(con: Construction, l: int,
                       index: int) -> CombinationCertificate:
    """Expand row index of block l, (e | f), into its combination certificate.

    The parts e (weight l) and f (weight k-l) come from
    blocks.block_row_parts.  Each support index i of f contributes the two
    cube vertices (tau_i v_i | +-1) with weight beta/2; each support index j
    of e contributes (+-1 | sigma_j w_j) with weight alpha/2.  The resulting
    certificate is verified by exact re-summation before it is returned.
    Raises ValueError for l outside 0..k or an index outside the block.
    """
    d, k = con.d, con.k
    if not 0 <= l <= k:
        raise ValueError(f"block index l={l} outside 0..{k}")
    count = block_row_count(d, k, l)
    if not 0 <= index < count:
        raise ValueError(f"row index {index} out of range ({count})")
    left, right = block_row_parts(d, k, l, index)
    alpha, beta = con.params.alpha, con.params.beta
    h = con.hadamard
    ones = (1,) * d
    neg_ones = (-1,) * d

    mu_terms = []
    for i, s in zip(*right):
        col = tuple(s * x for x in h.columns[i])
        mu_terms.append((beta / 2, col + ones))
        mu_terms.append((beta / 2, col + neg_ones))
    for j, s in zip(*left):
        row = tuple(s * x for x in h.signs[j])
        mu_terms.append((alpha / 2, ones + row))
        mu_terms.append((alpha / 2, neg_ones + row))

    # the multipliers are e plus the first d entries of sum mu*delta, and
    # the slack is 1 - 2*sum mu
    target = dense_parts(d, left, right)
    shift = [sum((mu * delta[j] for mu, delta in mu_terms), Fraction(0))
             for j in range(d)]
    cert = CombinationCertificate(
        block=l, target=(Fraction(1),) + target, mu_terms=tuple(mu_terms),
        nus=tuple(map(add, target[:d], shift)),
        eps=1 - 2 * sum((mu for mu, _ in mu_terms), Fraction(0)))
    minus = -alpha                               # A = alpha*H, by its signs
    cert.verify([[alpha if s > 0 else minus for s in row] for row in h.signs])
    return cert


# -- the half kernels ------------------------------------------------------------


@dataclass(frozen=True)
class PackedHalves:
    """H's rows, and its columns with the rows of G = H^T H, packed into ints.

    lefts and rights are indexed by a sign, [1] for + and [-1] for -, and
    then by a support index; see the module docstring for the fields.
    width is the width of G's fields, in bits.
    """

    d: int
    hbias: int
    width: int
    lefts: tuple
    rights: tuple


def _packed_tables(h: HadamardMatrix, k: int) -> PackedHalves:
    """The packed tables of H and G = h.gram for parts of weight at most k.

    The widths come from the actual entries: with hbias = max|H| and
    gbias = max(max|G|, d), a sum of at most k parts keeps every field in
    [0, 2*k*bias], so H's byte fields need 2*k*hbias <= 255 and G's fields
    are (2*k*gbias).bit_length() bits wide.  Raises ValueError when H's
    entries are too large for byte fields.
    """
    d = h.order
    hbias = max(max(map(abs, row)) for row in h.signs)
    if 2 * k * hbias > 255:
        raise ValueError(
            f"H has entries up to {hbias} in absolute value: sums of {k} "
            "of its rows do not fit in byte fields")
    gram = h.gram
    gbias = max(d, max(max(map(abs, row)) for row in gram))
    width = (2 * k * gbias).bit_length()

    def pack_bytes(vector):
        return int.from_bytes(bytes([hbias + v for v in vector]), "little")

    def gram_less_target(i):
        # the packed G_i less the target's share gbias*ones + d*e_i: the
        # gbias terms cancel, leaving G_i - d*e_i in signed fields (a zero
        # field adds nothing)
        row = gram[i]
        fields = sum(row[j] << (width * j) for j in compress(range(d), row))
        return fields - (d << (width * i))

    # sign -1 turns each byte field hbias + v into hbias - v, which is
    # 2*hbias less it, and negates the G part
    twice = int.from_bytes(bytes([2 * hbias]) * d, "little")

    def by_sign(plus):
        return (None, plus, tuple(twice - x for x in plus))

    lefts = tuple(map(pack_bytes, h.signs))
    rights = tuple(pack_bytes(col) + (gram_less_target(i) << 8 * d)
                   for i, col in enumerate(h.columns))
    return PackedHalves(d, hbias, width, by_sign(lefts), by_sign(rights))


def _max_abs(fields: bytes, off: int) -> int:
    """The largest t with a byte off + t or off - t in fields: max_j of
    |field j - off|, searched from off down."""
    for t in range(off, -1, -1):
        if off + t in fields or off - t in fields:
            return t


def _left_halves(packed, p, q, weight, totals):
    """One (entry_ok, True, max|n_hat|) per left part of e of the given
    weight, from its packed sum in totals over packed.lefts, with n_hat = e H
    and alpha = p/q: e enters condition (a) only.  Parts with the same max
    share one result."""
    d, off = packed.d, packed.hbias * weight
    extreme = off + off
    known = {}                     # max -> its result
    out = []
    for total in totals:
        fields = total.to_bytes(d, "little")
        # _max_abs's first step, the largest max: most parts stop there
        top = (off if extreme in fields or 0 in fields
               else _max_abs(fields, off))
        result = known.get(top)
        if result is None:
            result = known[top] = (2 * p * top <= q, True, top)
        out.append(result)
    return out


def _right_halves(packed, p, q, weight, totals):
    """One (entry_ok, gram_ok, max|m_hat|) per right part of f of the given
    weight, from its packed sum in totals over packed.rights, with
    m_hat = f H^T: condition (a), beta*max|m_hat| <= 1/2, and (b),
    f G == d*f.  Parts with the same max and gram_ok share one result."""
    d, off = packed.d, packed.hbias * weight
    extreme, mask, bound = off + off, (1 << 8 * d) - 1, p * d
    known = ({}, {})               # by gram_ok: max -> its result
    out = []
    for total in totals:
        low = total & mask
        fields = low.to_bytes(d, "little")
        top = (off if extreme in fields or 0 in fields
               else _max_abs(fields, off))
        gram_ok = total == low
        results = known[gram_ok]
        result = results.get(top)
        if result is None:
            result = results[top] = (2 * q * top <= bound, gram_ok, top)
        out.append(result)
    return out


# -- structural identities ------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    """Row-count independent identities behind the per-row matrix equation."""

    hadamard_gram_ok: bool
    alpha_beta_product_ok: bool

    @property
    def passed(self) -> bool:
        return self.hadamard_gram_ok and self.alpha_beta_product_ok


def structural_identities(con: Construction) -> StructuralReport:
    """Verify H^T H = d*I and alpha*beta*d = 1 exactly.

    Together these give left_correction @ A = f and right_correction = e @ A
    for every block row by plain algebra, whatever the block sizes.  H^T H
    is the G the row checks use (HadamardMatrix.gram).
    """
    gram_ok = cs_transform_defect(con.hadamard.gram) is None
    product_ok = con.params.alpha * con.params.beta * con.d == 1
    return StructuralReport(
        hadamard_gram_ok=gram_ok, alpha_beta_product_ok=product_ok
    )


# -- the conditions sweep --------------------------------------------------------


@dataclass(frozen=True)
class BlockConditionReport:
    l: int
    rows_total: int
    rows_checked: int
    sampled: bool
    max_abs_left: Fraction
    max_abs_right: Fraction
    coefficient_sum: Fraction
    coefficient_sum_expected: Fraction
    entry_bound_ok: bool
    equation_ok: bool
    certificate_ok: bool
    first_failure: tuple | None  # (row_index, reason)

    @property
    def max_abs_entry(self) -> Fraction:
        return max(self.max_abs_left, self.max_abs_right)


@dataclass(frozen=True)
class ConditionsReport:
    d: int
    k: int
    alpha: Fraction
    beta: Fraction
    mode: str
    seed: int
    sample_rows: int
    blocks: tuple
    structural: StructuralReport

    @property
    def max_abs_entry(self) -> Fraction:
        return max(b.max_abs_entry for b in self.blocks)

    @property
    def condition_a(self) -> bool:
        return all(b.entry_bound_ok for b in self.blocks)

    @property
    def condition_b(self) -> bool:
        return all(b.equation_ok for b in self.blocks) and self.structural.passed

    @property
    def condition_c(self) -> bool:
        return all(
            b.certificate_ok and b.coefficient_sum == b.coefficient_sum_expected
            for b in self.blocks
        )

    @property
    def passed(self) -> bool:
        return self.condition_a and self.condition_b and self.condition_c

    @property
    def failures(self) -> tuple:
        return tuple(
            (b.l,) + b.first_failure for b in self.blocks if b.first_failure
        )


def block_sweep_tasks(d: int, k: int, l: int, sampled: bool, sample_rows: int,
                      seed: int):
    """The (l, row index) tasks a conditions sweep checks in block l.

    In sweep order: every row of the block, or, when sampled, its first and
    last row followed by the block's sample_rows drawn indices
    (blocks.sample_indices).
    """
    total = block_row_count(d, k, l)
    if sampled:
        ends = (0, total - 1) if total > 1 else (0,)
        indices = chain(ends, sample_indices(d, k, l, sample_rows, seed))
    else:
        indices = range(total)
    return ((l, index) for index in indices)


LEFT, RIGHT = 0, 1
HALVES_PER_TASK = 4096


def _check_halves(context, task):
    """(l, side, {result: position}) for task = (l, side, ranks, positions):
    each distinct (entry_ok, gram_ok, max) of the left (weight l) or right
    (weight k-l) parts of block l at ranks, a range (streamed) or a list
    (each unranked), with its least position; context = (packed, k, p, q)."""
    packed, k, p, q = context
    l, side, ranks, positions = task
    if side == LEFT:
        kernel, weight, table = _left_halves, l, packed.lefts
    else:
        kernel, weight, table = _right_halves, k - l, packed.rights
    totals = part_sums(packed.d, weight, ranks, table[1], table[-1])
    results = kernel(packed, p, q, weight, totals)
    # positions grow along ranks, so the first occurrence is the least
    return l, side, dict(zip(reversed(results), reversed(positions)))


class _BlockSweep:
    """The half tasks of block l, and the fold of their results.

    Row i*R + j is (left i | right j), for the L = n(l) left parts and the
    R = n(k-l) right parts.  A task carries, with its parts, the position of
    the first row that reads each.  An exhaustive block hands out its parts
    as ranges: left 0, rights 0..R-1 (right j at j), lefts 1..L-1 (left i
    at i*R).  A sampled block (sample: a callable giving block_sweep_tasks)
    hands out each distinct part of its rows once, lefts first.
    """

    def __init__(self, l, lefts, rights, sample, coefficient_sum):
        self.l, self.lefts, self.rights = l, lefts, rights
        self.sample, self.coefficient_sum = sample, coefficient_sum
        self.done = False          # set by fold(): tasks() hands out no more

    def tasks(self):
        lefts, rights = self.lefts, self.rights
        if self.sample is None:
            self.rows = lefts * rights
            order = [(LEFT, range(1), range(1)),
                     (RIGHT, range(rights), range(rights)),
                     (LEFT, range(1, lefts), range(rights, self.rows, rights))]
        else:
            first = ({}, {})       # per side: part rank -> its first row
            for position, (_, index) in enumerate(self.sample()):
                first[LEFT].setdefault(index // rights, position)
                first[RIGHT].setdefault(index % rights, position)
            self.rows = position + 1
            order = [(side, list(ranks), list(ranks.values()))
                     for side, ranks in enumerate(first)]
        for side, ranks, positions in order:
            for a in range(0, len(ranks), HALVES_PER_TASK):
                if self.done:
                    return
                b = a + HALVES_PER_TASK
                yield self.l, side, ranks[a:b], positions[a:b]

    def fold(self, results):
        """(rows_checked, (max|m_hat|, max|n_hat|), flags, first_failure) of
        the block from its results, by the rule of the module docstring."""
        eps_ok = self.coefficient_sum <= Fraction(1, 2)
        failing = self.rows if eps_ok else 0       # self.rows: none fails
        # per side: distinct result -> least position; a side's positions
        # grow in task order, so the first one seen is the least
        seen = ({}, {})
        for _, side, firsts in results:
            for result, position in firsts.items():
                seen[side].setdefault(result, position)
                if not (result[0] and result[1]):
                    failing = min(failing, position)
            # an exhaustive block's positions only grow in task order
            self.done = self.sample is None and max(firsts.values()) > failing
        end = min(failing, self.rows - 1)
        maxima = tuple(max(result[2] for result, at in seen[side].items()
                           if at <= end) for side in (RIGHT, LEFT))
        row = [result for side in seen for result, at in side.items()
               if at == end]
        eq_ok = all(r[1] for r in row)
        flags = all(r[0] for r in row), eq_ok, eq_ok and eps_ok
        index = (end if self.sample is None or failing > end
                 else next(islice(self.sample(), end, None))[1])
        # the row at end gives the block's flags and failure
        failure = None if all(flags) else (index, _reason(flags))
        return end + 1, maxima, flags, failure


def _reason(flags) -> str:
    """Why a row with flags (entry_ok, eq_ok, cert_ok) fails: its first
    failing condition."""
    return ("entry bound exceeded" if not flags[0]
            else "matrix equation failed" if not flags[1]
            else "combination certificate failed")


def verify_conditions(
    con: Construction,
    mode: str = "auto",
    row_cap: int = 1_000_000,
    sample_rows: int = 100_000,
    seed: int = 0,
    jobs: int = 1,
) -> ConditionsReport:
    """Check conditions (a), (b), (c) block by block.

    mode "auto" runs each block exhaustively when it has at most row_cap rows
    and on a sample of sample_rows rows otherwise; "exhaustive" and "sample"
    force one behavior for every block (exhaustive raises if a block exceeds
    the cap).  A sampled block always also checks its first and last row, and
    the sweep stops a block at its first failing row in sweep order, which is
    reported with its index and counted in rows_checked.  Rows are checked
    as their left and right halves (see the module docstring); with jobs > 1
    the halves of every block are checked on one pool of worker processes.
    The report is the same for every job count.
    """
    if mode not in ("auto", "exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    d, k = con.d, con.k
    alpha, beta = con.params.alpha, con.params.beta
    p, q = alpha.numerator, alpha.denominator

    sweeps = []
    for l in range(k + 1):
        total = block_row_count(d, k, l)
        if mode == "exhaustive" and total > row_cap:
            raise ValueError(
                f"block l={l} has {total} rows, above the cap {row_cap}; "
                "run in sampled mode"
            )
        sampled = mode == "sample" or (mode == "auto" and total > row_cap)
        # expansion weights times 4pqd: 4q^2 per right, 4p^2*d per left index
        musum = Fraction(4 * (k - l) * q * q + 4 * l * p * p * d, 4 * p * q * d)
        sample = (partial(block_sweep_tasks, d, k, l, True, sample_rows, seed)
                  if sampled else None)
        sweeps.append(_BlockSweep(l, signed_row_count(d, l),
                                  signed_row_count(d, k - l), sample, musum))

    # one map over every block's tasks; results come in task order, so they
    # group by block
    tasks = chain.from_iterable(sweep.tasks() for sweep in sweeps)
    context = (_packed_tables(con.hadamard, k), k, p, q)
    block_reports = []
    for l, group in groupby(ordered_map(_check_halves, context, tasks, jobs),
                            key=itemgetter(0)):
        sweep = sweeps[l]
        checked, (max_m, max_n), flags, first_failure = sweep.fold(group)
        block_reports.append(
            BlockConditionReport(
                l=l,
                rows_total=sweep.lefts * sweep.rights,
                rows_checked=checked,
                sampled=sweep.sample is not None,
                max_abs_left=beta * max_m,
                max_abs_right=alpha * max_n,
                coefficient_sum=sweep.coefficient_sum,
                coefficient_sum_expected=(k - l) * beta + l * alpha,
                entry_bound_ok=flags[0],
                equation_ok=flags[1],
                certificate_ok=flags[2],
                first_failure=first_failure,
            )
        )

    return ConditionsReport(
        d=d,
        k=k,
        alpha=alpha,
        beta=beta,
        mode=mode,
        seed=seed,
        sample_rows=sample_rows,
        blocks=tuple(block_reports),
        structural=structural_identities(con),
    )

