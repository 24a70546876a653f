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

Exhaustive sweeps run on every row; blocks larger than a row cap are verified
on a deterministic pseudorandom sample (always including the first and last
row of the block) plus the structural identities that hold independently of
the row count.  Per-row checks run in scaled integer arithmetic (for
alpha = p/q the matrix equation clears denominators at q*d, the certificate
re-summation at 2*p*q*d), so they are exact without any Fraction overhead.
The Gram matrix G = H^T H is computed once per construction, as a literal
integer product, and the matrix equation of a row is a signed sum of k rows
of H, H^T and G, so a row costs O(k*d) rather than a dense O(d^2) product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, mul, sub

from .blocks import SignedSupportRow, block_row_count, block_rows
from .construction import Construction
from .exact import Matrix
from .hadamard import HadamardMatrix
from .sampling import SplitMix64, block_sample_seed
from .sweep import ordered_map


# -- correction rows ----------------------------------------------------------


def _signed_column_sum(vectors, row: SignedSupportRow) -> list:
    """Sum of sign-weighted vectors[i] over the row's support, as ints."""
    out = [0] * (len(vectors[0]) if vectors else row.length)
    for i, s in zip(row.support, row.signs):
        out = list(map(add if s > 0 else sub, out, vectors[i]))
    return out


_GRAM_CACHE = [None, ()]    # [HadamardMatrix, its Gram matrix], the last asked


def hadamard_gram(h: HadamardMatrix) -> tuple:
    """G = H^T H as a tuple of integer rows, by a literal integer product.

    G is never replaced by d*I: the row check sums its actual rows, so a
    matrix that is not Hadamard fails there too.  The last matrix's G is
    kept (by identity), so a sweep, and each pool worker, computes it once
    per construction.
    """
    if _GRAM_CACHE[0] is not h:
        cols = h.columns
        gram = tuple(tuple(sum(map(mul, ci, cj)) for cj in cols) for ci in cols)
        _GRAM_CACHE[:] = [h, gram]
    return _GRAM_CACHE[1]


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

    def verify(self, a: Matrix) -> None:
        """Exact re-summation; raises ValueError on any defect."""
        d, n = a.rows, a.cols
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
            arow = a.row(j)
            for c in range(n):
                acc[1 + d + c] += nu * arow[c]
        acc[0] += self.eps
        if tuple(acc) != self.target:
            raise ValueError("combination does not re-sum to its target row")


def expand_combination(
    con: Construction, left: SignedSupportRow, right: SignedSupportRow
) -> CombinationCertificate:
    """Expand one block row into its explicit combination certificate.

    Each support index i of the right part contributes the two cube vertices
    (tau_i v_i | +-1) with weight beta/2; each support index j of the left
    part contributes (+-1 | sigma_j w_j) with weight alpha/2.  The resulting
    certificate is verified by exact re-summation before it is returned.
    """
    d, k = con.d, con.k
    if left.length != d or right.length != d:
        raise ValueError("row widths do not match the construction")
    if left.weight + right.weight != k:
        raise ValueError(
            f"row weights {left.weight}+{right.weight} do not sum to k={k}"
        )
    for row in (left, right):
        if any(s not in (1, -1) for s in row.signs):
            raise ValueError("row signs must be +-1")
    l = left.weight
    alpha, beta = con.params.alpha, con.params.beta
    h = con.hadamard
    ones = (1,) * d
    neg_ones = (-1,) * d

    mu_terms = []
    for i, s in zip(right.support, right.signs):
        col = tuple(s * x for x in h.column_signs(i))
        mu_terms.append((beta / 2, col + ones))
        mu_terms.append((beta / 2, col + neg_ones))
    for j, s in zip(left.support, left.signs):
        row = tuple(s * x for x in h.row_signs(j))
        mu_terms.append((alpha / 2, ones + row))
        mu_terms.append((alpha / 2, neg_ones + row))

    e_dense = left.dense()
    shift_left = [Fraction(0)] * d
    for mu, delta in mu_terms:
        for j in range(d):
            shift_left[j] += mu * delta[j]
    nus = tuple(e_dense[j] + shift_left[j] for j in range(d))
    total = sum((mu for mu, _ in mu_terms), Fraction(0))
    eps = 1 - 2 * total
    target = (Fraction(1),) + tuple(e_dense) + tuple(right.dense())

    cert = CombinationCertificate(
        block=l, target=target, mu_terms=tuple(mu_terms), nus=nus, eps=eps
    )
    cert.verify(con.A)
    return cert


# -- the scaled-integer row check ---------------------------------------------


def _check_row_scaled(h_rows, h_cols, gram, d, k, p, q, left, right):
    """All-integer verification of one block row, for alpha = p/q.

    h_rows and h_cols are the rows and columns of H, gram is G = H^T H
    (hadamard_gram).  With beta = 1/(alpha*d) = q/(p*d), every check below
    clears denominators: the matrix equation is scaled by q*d, the
    certificate re-summation by 2*p*q*d.  Returns (entry_ok, eq_ok, cert_ok,
    max_m_hat, max_n_hat) where m_hat = f H^T and n_hat = e H are the
    unscaled integer correction rows (left_correction = beta*m_hat,
    right_correction = alpha*n_hat).
    """
    n_hat = _signed_column_sum(h_rows, left)
    m_hat = _signed_column_sum(h_cols, right)
    max_m = max(map(abs, m_hat), default=0)
    max_n = max(map(abs, n_hat), default=0)

    # (a): beta*max_m <= 1/2 and alpha*max_n <= 1/2
    entry_ok = 2 * q * max_m <= p * d and 2 * p * max_n <= q

    # (b): (e + beta*m_hat) A == f + alpha*n_hat, scaled by q*d.  The left
    # side is e_hat H with e_hat = q*m_hat + p*d*e; as m_hat = f H^T and
    # integer products are associative, e_hat H = q*(f G) + p*d*n_hat exactly
    pd = p * d
    f_gram = _signed_column_sum(gram, right)
    eh = [q * a + pd * b for a, b in zip(f_gram, n_hat)]
    rhs = [pd * v for v in n_hat]
    qd = q * d
    for i, s in zip(right.support, right.signs):
        rhs[i] += s * qd
    eq_ok = eh == rhs

    # (c): re-sum the combination certificate, scaled by sc = 2pqd.
    # Expansion weights scale to q^2 per right-support term and p^2*d per
    # left-support term; the all-ones halves of each term pair cancel, so the
    # summed table shift is (2q^2 m_hat | 2p^2 d n_hat), and the multiplier
    # row becomes 2q * e_hat, whose product with A reuses eh.
    l = left.weight
    musum2 = 4 * (k - l) * q * q + 4 * l * p * p * d       # 2 * sum of mu-hat
    eps_hat = 2 * p * q * d - musum2
    cert_ok = eps_hat >= 0
    if cert_ok:
        sc = 2 * p * q * d
        p2, shift = 2 * p, 2 * p * p * d    # right table shift: shift * n_hat
        lhs = [p2 * a - shift * b for a, b in zip(eh, n_hat)]
        target_right = [0] * d
        for i, s in zip(right.support, right.signs):
            target_right[i] = sc * s
        cert_ok = lhs == target_right
    return entry_ok, eq_ok, cert_ok, max_m, max_n


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
    is the G the row checks use (hadamard_gram).
    """
    d = con.d
    gram_ok = all(
        v == (d if i == j else 0)
        for i, row in enumerate(hadamard_gram(con.hadamard))
        for j, v in enumerate(row)
    )
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

    @property
    def passed(self) -> bool:
        return (
            self.entry_bound_ok
            and self.equation_ok
            and self.certificate_ok
            and self.coefficient_sum == self.coefficient_sum_expected
        )


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
    last row followed by sample_rows draws from the block's SplitMix64
    stream (block_sample_seed(seed, d, k, l)).  Tasks carry indices only;
    the check unranks its row, so pooled sweeps send no rows to workers.
    """
    total = block_row_count(d, k, l)
    if sampled:
        gen = SplitMix64(block_sample_seed(seed, d, k, l))
        ends = (0, total - 1) if total > 1 else (0,)
        indices = chain(ends, (gen.below(total) for _ in range(sample_rows)))
    else:
        indices = range(total)
    return ((l, index) for index in indices)


@lru_cache(maxsize=None)
def _block_stream(d: int, k: int, l: int):
    return block_rows(d, k, l)


def _check_row(con, task):
    """Sweep check of one block row: (index, entry_ok, eq_ok, cert_ok, maxima)."""
    l, index = task
    left, right = _block_stream(con.d, con.k, l).row(index)
    h, alpha = con.hadamard, con.params.alpha
    entry_ok, eq_ok, cert_ok, max_m, max_n = _check_row_scaled(
        h.signs, h.columns, hadamard_gram(h), con.d, con.k, alpha.numerator,
        alpha.denominator, left, right,
    )
    return index, entry_ok, eq_ok, cert_ok, (max_m, max_n)


def _row_failed(result) -> bool:
    return not (result[1] and result[2] and result[3])


def _fold_block(results):
    """Fold one block's row results, in sweep order, into its summary.

    The results end at the block's first failing row, if any.  Returns
    (checked, maxima, entry_ok, eq_ok, cert_ok, first_failure) with maxima
    the entrywise maximum of the rows' maxima (None for no rows) and
    first_failure = (row index, reason) or None.
    """
    checked = 0
    maxima = None
    entry_ok = eq_ok = cert_ok = True
    first_failure = None
    for index, row_entry_ok, row_eq_ok, row_cert_ok, row_maxima in results:
        checked += 1
        maxima = row_maxima if maxima is None else tuple(
            map(max, maxima, row_maxima))
        if not (row_entry_ok and row_eq_ok and row_cert_ok):
            entry_ok, eq_ok, cert_ok = row_entry_ok, row_eq_ok, row_cert_ok
            reason = (
                "entry bound exceeded" if not entry_ok
                else "matrix equation failed" if not eq_ok
                else "combination certificate failed"
            )
            first_failure = (index, reason)
    return checked, maxima, entry_ok, eq_ok, cert_ok, first_failure


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
    reported with its index and counted in rows_checked.  With jobs > 1 each
    block's rows are checked on worker processes; the report is the same for
    every job count.
    """
    if mode not in ("auto", "exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    d, k = con.d, con.k
    alpha, beta = con.params.alpha, con.params.beta
    p, q = alpha.numerator, alpha.denominator

    block_reports = []
    for l in range(k + 1):
        total = block_row_count(d, k, l)
        if mode == "exhaustive" and total > row_cap:
            raise ValueError(
                f"block l={l} has {total} rows, above the cap {row_cap}; "
                "run in sampled mode"
            )
        sampled = mode == "sample" or (mode == "auto" and total > row_cap)
        tasks = block_sweep_tasks(d, k, l, sampled, sample_rows, seed)
        checked, (max_m, max_n), bound_ok, eq_ok, cert_ok, first_failure = (
            _fold_block(ordered_map(_check_row, con, tasks, jobs,
                                    failed=_row_failed))
        )

        musum = Fraction(4 * (k - l) * q * q + 4 * l * p * p * d, 4 * p * q * d)
        block_reports.append(
            BlockConditionReport(
                l=l,
                rows_total=total,
                rows_checked=checked,
                sampled=sampled,
                max_abs_left=beta * max_m,
                max_abs_right=alpha * max_n,
                coefficient_sum=musum,
                coefficient_sum_expected=(k - l) * beta + l * alpha,
                entry_bound_ok=bound_ok,
                equation_ok=eq_ok,
                certificate_ok=cert_ok,
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


# -- general pairs (A, correction rule) -----------------------------------------


def cube_combination(x) -> list:
    """Write x (|entries| <= some s) as sum of mu_i * delta_i, delta in {+-1}^m.

    Staircase decomposition: sorting |x| in decreasing order a_1 >= ... >= a_m
    and letting u_p flip the signs of the tail positions gives weights
    (a_p - a_{p+1})/2 and (a_1 + a_m)/2, so the weights sum to exactly
    ||x||_inf.  Returns [] for the zero vector.
    """
    m = len(x)
    x = [Fraction(v) for v in x]
    if all(v == 0 for v in x):
        return []
    order = sorted(range(m), key=lambda j: (-abs(x[j]), j))
    mags = [abs(x[j]) for j in order]
    signs = [1 if x[j] >= 0 else -1 for j in order]
    terms = []
    for p in range(m):
        lam = (mags[p] - mags[p + 1]) / 2 if p < m - 1 else (mags[0] + mags[-1]) / 2
        if lam == 0:
            continue
        vertex = [0] * m
        for q, j in enumerate(order):
            vertex[j] = signs[q] if q <= p else -signs[q]
        terms.append((lam, tuple(vertex)))
    return terms


@dataclass(frozen=True)
class GeneralBlockReport:
    l: int
    rows_total: int
    rows_checked: int
    sampled: bool
    max_abs_entry: Fraction
    entry_bound_ok: bool
    equation_ok: bool
    certificate_ok: bool
    first_failure: tuple | None


@dataclass(frozen=True)
class GeneralReport:
    d: int
    n: int
    k: int
    blocks: tuple

    @property
    def passed(self) -> bool:
        return all(
            b.entry_bound_ok and b.equation_ok and b.certificate_ok
            for b in self.blocks
        )

    @property
    def failures(self) -> tuple:
        return tuple(
            (b.l,) + b.first_failure for b in self.blocks if b.first_failure
        )


def hadamard_correction_rule(a: Matrix):
    """Correction rule for A = alpha*H: f |-> beta f H^T, e |-> e A.

    Requires a square A whose entries all share one absolute value alpha > 0
    and whose sign pattern is a Hadamard matrix.
    """
    d, n = a.rows, a.cols
    if d != n:
        raise ValueError("the Hadamard correction rule needs a square A")
    alpha = abs(a.entry(0, 0))
    if alpha == 0 or any(abs(v) != alpha for row in a.data for v in row):
        raise ValueError("entries of A must all have the same absolute value")
    try:
        h = HadamardMatrix(
            tuple(1 if v > 0 else -1 for v in row) for row in a.data)
    except ValueError:
        raise ValueError(
            "the sign pattern of A is not a Hadamard matrix") from None
    beta = Fraction(1) / (alpha * d)

    def rule(left: SignedSupportRow, right: SignedSupportRow):
        m_row = tuple(beta * v for v in _signed_column_sum(h.columns, right))
        n_row = tuple(alpha * v for v in _signed_column_sum(h.signs, left))
        return m_row, n_row

    return rule


def verify_general(
    a: Matrix,
    k: int,
    correction_rule=None,
    row_cap: int = 20_000,
    sample_rows: int = 1_000,
    seed: int = 0,
) -> GeneralReport:
    """Check conditions (a), (b), (c) for a user-supplied pair (A, rule).

    The rule maps a block row (left, right) to exact correction rows of
    widths (d, n); it defaults to the Hadamard rule derived from A when A is
    square.  Condition (c) uses the generic staircase expansion, whose
    coefficient sum is the max-norm of the correction row, so (c) holds
    exactly when (a) does; the certificate is still re-summed in full.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    d, n = a.rows, a.cols
    rule = correction_rule if correction_rule is not None else hadamard_correction_rule(a)

    reports = []
    for l in range(k + 1):
        stream = block_rows(d, k, l, n=n)
        total = stream.count
        exhaustive = total <= row_cap
        rows = (
            enumerate(stream)
            if exhaustive
            else stream.sample(sample_rows, seed)
        )
        # a block is empty when k - l exceeds n or l exceeds d
        results = (
            ordered_map(_check_general_row, (a, rule), rows, failed=_row_failed)
            if total else ()
        )
        checked, maxima, bound_ok, eq_ok, cert_ok, first_failure = _fold_block(
            results
        )
        reports.append(
            GeneralBlockReport(
                l=l,
                rows_total=total,
                rows_checked=checked,
                sampled=not exhaustive,
                max_abs_entry=maxima[0] if maxima else Fraction(0),
                entry_bound_ok=bound_ok,
                equation_ok=eq_ok,
                certificate_ok=cert_ok,
                first_failure=first_failure,
            )
        )
    return GeneralReport(d=d, n=n, k=k, blocks=tuple(reports))


def _check_general_row(pair, task):
    """Sweep check of one row against (A, rule), in plain Fractions."""
    a, rule = pair
    index, (left, right) = task
    d, n = a.rows, a.cols
    m_row, n_row = rule(left, right)
    if len(m_row) != d or len(n_row) != n:
        raise ValueError("correction rule returned wrong widths")
    worst = max(
        max((abs(v) for v in m_row), default=Fraction(0)),
        max((abs(v) for v in n_row), default=Fraction(0)),
    )
    bound_ok = worst <= Fraction(1, 2)
    e_dense = left.dense()
    lhs = [Fraction(0)] * n
    for j in range(d):
        coeff = e_dense[j] + m_row[j]
        if coeff:
            arow = a.row(j)
            for c in range(n):
                lhs[c] += coeff * arow[c]
    f_dense = right.dense()
    eq_ok = all(lhs[c] == f_dense[c] + n_row[c] for c in range(n))
    cert_ok = bound_ok
    if bound_ok:
        terms = cube_combination(tuple(m_row) + tuple(n_row))
        shift = [Fraction(0)] * d
        for mu, delta in terms:
            for j in range(d):
                shift[j] += mu * delta[j]
        nus = tuple(e_dense[j] + shift[j] for j in range(d))
        total_mu = sum((mu for mu, _ in terms), Fraction(0))
        cert = CombinationCertificate(
            block=left.weight,
            target=(Fraction(1),) + tuple(e_dense) + tuple(f_dense),
            mu_terms=tuple(terms),
            nus=nus,
            eps=1 - 2 * total_mu,
        )
        try:
            cert.verify(a)
        except ValueError:
            cert_ok = False
    return index, bound_ok, eq_ok, cert_ok, (worst,)
