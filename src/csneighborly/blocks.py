"""Signed-support rows, their doubly-lexicographic blocks, and orthogonality.

The vertex matrix of the weight-k signed cube section (all 0/+-1 vectors of a
given length with exactly k nonzero entries) is organized into k+1 blocks by
the number l of nonzeros falling in the first d coordinates.  Block l is the
Kronecker-structured pair

    left  = C_l (x) ones(n(k-l)),      right = ones(n(l)) (x) C_{k-l},

where C_l lists all weight-l signed rows of length d in doubly-lexicographic
order and n(l) = 2^l * binom(d, l).  Row i*n(k-l) + j of block l is
(left part i | right part j) (block_row_parts), each a (support, signs) pair
streamed by iter_signed_rows or unranked by unrank_part; dense_parts writes
parts side by side as one 0/+-1 row.  The certificate sweep forms no row:
part_sums reads the rows of C_l at a range or a list of positions (the
indices sample_indices draws) straight into their sums over a packed table.
No stream lists a block or a C_l.

Ordering convention (frozen; golden files depend on it): supports are ordered
lexicographically by their 0/1 indicator vector, and within one support the
sign vectors are ordered lexicographically with +1 before -1 (a binary
counter, most significant position first, as product((1, -1), repeat=l)).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, product
from math import comb
from operator import itemgetter

from .sampling import block_sample_seed, draws


@dataclass(frozen=True)
class SignedSupportRow:
    """A 0/+-1 row given by its support indices and matching signs."""

    length: int
    support: tuple
    signs: tuple

    def dense(self) -> tuple:
        return dense_parts(self.length, (self.support, self.signs))


def dense_parts(d: int, *parts) -> tuple:
    """The 0/+-1 row of the (support, signs) parts side by side, each d
    wide: dense_parts(d, e, f) is the block row (e | f)."""
    row = [0] * (d * len(parts))
    for offset, (support, signs) in zip(range(0, len(row), d), parts):
        for i, s in zip(support, signs):
            row[offset + i] = s
    return tuple(row)


# -- supports in indicator-lex order ----------------------------------------


def iter_supports(d: int, l: int):
    """Yield weight-l index tuples ordered by their 0/1 indicator vectors.

    Indicator-lex order prefers a 0 in the earliest position, so support
    {d-1} comes first and {0, ...} variants come last.
    """
    return _supports_from(d, l, 0)


def _supports_from(d: int, l: int, r: int):
    """iter_supports(d, l) from the support at position r on."""
    if not (0 <= l <= d and r < comb(d, l)):
        return
    support = list(unrank_support(d, l, r))
    while True:
        yield tuple(support)
        # the next support lowers the last entry that has room below it and
        # puts every later entry as high as it can go
        t = l - 1
        while t >= 0 and support[t] == (support[t - 1] + 1 if t else 0):
            t -= 1
        if t < 0:
            return
        support[t] -= 1
        support[t + 1:] = range(d - l + t + 1, d)


def _comb_table(d: int, l: int) -> tuple:
    """(comb(d, l), rows): rows[t] = [-comb(d-1-s, l-t) for s < d], an
    ascending list, for t < l."""
    table = _COMB_TABLES.get((d, l))
    if table is None:
        rows = tuple([-comb(d - 1 - s, j) for s in range(d)]
                     for j in range(l, 0, -1))
        table = _COMB_TABLES[d, l] = (comb(d, l), rows)
    return table


_COMB_TABLES = {}


def unrank_support(d: int, l: int, r: int) -> tuple:
    """Support at position r of iter_supports(d, l).

    Writing each element s_t as c_t = d-1-s_t, the support's rank is
    comb(c_1, l) + comb(c_2, l-1) + ... + comb(c_l, 1) with
    c_1 > c_2 > ... > c_l (the combinatorial number system), so s_1 is the
    least s with comb(d-1-s, l) <= r, and so on down, each after the one
    before: one bisection per element in a table of binomials.
    """
    total, rows = _comb_table(d, l) if 0 <= l <= d else (0, ())
    if not 0 <= r < total:
        raise ValueError(f"support rank {r} out of range for ({d},{l})")
    out = []
    s = 0
    for row in rows:
        s = bisect_left(row, -r, s)
        r += row[s]
        out.append(s)
        s += 1
    return tuple(out)


def _signs_from_bits(l: int, bits: int) -> tuple:
    return tuple(-1 if (bits >> (l - 1 - i)) & 1 else 1 for i in range(l))


def signed_row_count(d: int, l: int) -> int:
    """n(l) = 2^l * binom(d, l)."""
    return (1 << l) * comb(d, l)


def iter_signed_rows(d: int, l: int):
    """All weight-l signed rows of length d in doubly-lexicographic order."""
    return (SignedSupportRow(d, support, signs)
            for support in iter_supports(d, l)
            for signs in product((1, -1), repeat=l))


def unrank_part(d: int, l: int, r: int) -> tuple:
    """(support, signs) of the row at position r of iter_signed_rows(d, l)."""
    if not 0 <= r < signed_row_count(d, l):
        raise ValueError(f"signed row rank {r} out of range for ({d},{l})")
    return (unrank_support(d, l, r >> l),
            _signs_from_bits(l, r & ((1 << l) - 1)))


def part_sums(d: int, l: int, ranks, plus, minus) -> list:
    """The sum of each part at ranks of iter_signed_rows(d, l) over a table:
    plus[s] for each support index s with sign +1, minus[s] for each with
    sign -1.  No (support, signs) tuple is formed.

    A range of ranks (step 1) is streamed support by support, each support
    giving the sums of its 2^l sign patterns at once (_pattern_sums).  Any
    other iterable is unranked rank by rank: the bisections of
    unrank_support find each support index, and its sign is the rank's bit
    for that position, the most significant first, as in
    product((1, -1), repeat=l).
    """
    total, rows = _comb_table(d, l) if 0 <= l <= d else (0, ())
    count = total << l
    if isinstance(ranks, range) and ranks.step == 1:
        if not ranks:
            return []
        if not (0 <= ranks[0] and ranks[-1] < count):
            raise ValueError(
                f"signed row ranks {ranks} out of range for ({d},{l})")
        support_rank, bits = divmod(ranks.start, 1 << l)
        sums = chain.from_iterable(
            _pattern_sums(support, plus, minus)
            for support in _supports_from(d, l, support_rank))
        return list(islice(sums, bits, bits + len(ranks)))
    steps = tuple(zip(rows, [1 << t for t in reversed(range(l))]))
    out = []
    for r in ranks:
        if not 0 <= r < count:
            raise ValueError(f"signed row rank {r} out of range for ({d},{l})")
        c, s, acc = r >> l, 0, 0
        for row, bit in steps:
            s = bisect_left(row, -c, s)
            c += row[s]
            acc += minus[s] if r & bit else plus[s]
            s += 1
        out.append(acc)
    return out


def _pattern_sums(support, plus, minus) -> list:
    """The sums of support's 2^l sign patterns in product((1, -1)) order: each
    position splits every sum so far into its + and its - continuation."""
    sums = [0]
    for s in support:
        a, b = plus[s], minus[s]
        sums = [x + y for x in sums for y in (a, b)]
    return sums


# -- block streams -----------------------------------------------------------


def block_row_count(d: int, k: int, l: int) -> int:
    """Rows in block l: 2^k * binom(d, l) * binom(d, k-l)."""
    return signed_row_count(d, l) * signed_row_count(d, k - l)


def total_row_count(d: int, k: int) -> int:
    """Rows over all blocks; equals 2^k * binom(2d, k) by Vandermonde."""
    return sum(block_row_count(d, k, l) for l in range(k + 1))


class BlockStream:
    """Lazy, restartable stream over the rows (left | right) of one block.

    The left part runs over weight-l rows of width d, each repeated once per
    right row; the right part cycles over weight-(k-l) rows of width d,
    streamed again for each left row.  Iteration always restarts from the
    first row and yields an identical sequence each time.
    """

    def __init__(self, d: int, k: int, l: int):
        if not 0 <= l <= k:
            raise ValueError(f"block index l={l} outside 0..{k}")
        self.d = d
        self.k = k
        self.l = l
        self.count = block_row_count(d, k, l)

    def __iter__(self):
        for left in iter_signed_rows(self.d, self.l):
            for right in iter_signed_rows(self.d, self.k - self.l):
                yield left, right


def block_row_parts(d: int, k: int, l: int, index: int) -> tuple:
    """The (support, signs) parts (left, right) of row index of block l:
    left part index // n(k-l) and right part index % n(k-l)."""
    rights = signed_row_count(d, k - l)
    return (unrank_part(d, l, index // rights),
            unrank_part(d, k - l, index % rights))


def block_rows(d: int, k: int, l: int) -> BlockStream:
    """Stream over the rows of block l (both parts of width d)."""
    return BlockStream(d, k, l)


def sample_indices(d: int, k: int, l: int, count: int, seed: int):
    """count row indices of block l drawn with replacement, in draw order,
    from the block's seed word block_sample_seed(seed, d, k, l); nothing for
    a block with no rows."""
    total = block_row_count(d, k, l)
    if not total:
        return iter(())
    return map(itemgetter(0),
               draws(block_sample_seed(seed, d, k, l), (total,), count))


# -- orthogonality of the Kronecker blocks -----------------------------------


@dataclass(frozen=True)
class OrthogonalityReport:
    d: int
    k: int
    l: int
    rows: int
    expected_diagonal: int
    gram_is_expected_multiple: bool
    cross_product_zero: bool

    @property
    def passed(self) -> bool:
        return self.gram_is_expected_multiple and self.cross_product_zero


def orthogonality_check(
    d: int, k: int, l: int, cap: int = 500_000
) -> OrthogonalityReport:
    """Exactly verify the block Gram identities.

    Checks left^T left = 2^k binom(d-1, l-1) binom(d, k-l) I_d and
    left^T right = 0, accumulating integer outer products row by row from
    the rows' supports and signs.  A block with no rows is refused, and so
    are blocks larger than `cap` rows; use sampled verification for those.
    """
    stream = block_rows(d, k, l)
    if not stream.count:
        raise ValueError(f"block l={l} of weight k={k} at d={d} has no rows")
    if stream.count > cap:
        raise ValueError(
            f"block has {stream.count} rows, above the cap {cap}; "
            "use sampled verification for blocks this large"
        )
    gram = [[0] * d for _ in range(d)]
    cross = [[0] * d for _ in range(d)]
    for left, right in stream:
        for i, si in zip(left.support, left.signs):
            gi, ci = gram[i], cross[i]
            for j, sj in zip(left.support, left.signs):
                gi[j] += si * sj
            for j, sj in zip(right.support, right.signs):
                ci[j] += si * sj
    coeff = (1 << k) * (comb(d - 1, l - 1) if l >= 1 else 0) * comb(d, k - l)
    gram_ok = all(
        gram[i][j] == (coeff if i == j else 0) for i in range(d) for j in range(d)
    )
    cross_ok = all(cross[i][j] == 0 for i in range(d) for j in range(d))
    return OrthogonalityReport(
        d=d,
        k=k,
        l=l,
        rows=stream.count,
        expected_diagonal=coeff,
        gram_is_expected_multiple=gram_ok,
        cross_product_zero=cross_ok,
    )
