"""Signed-support rows, their doubly-lexicographic blocks, and orthogonality.

The vertex matrix of the weight-k signed cube section (all 0/+-1 vectors of a
given length with exactly k nonzero entries) is organized into k+1 blocks by
the number l of nonzeros falling in the first d coordinates.  Block l is the
Kronecker-structured pair

    left  = C_l (x) ones(n(k-l)),      right = ones(n(l)) (x) C_{k-l},

where C_l lists all weight-l signed rows of length d in doubly-lexicographic
order and n(l) = 2^l * binom(d, l).  Streams below never materialize a block;
random access is provided by exact unranking so sampled sweeps can verify
arbitrary rows of very large blocks.

Ordering convention (frozen; golden files depend on it): supports are ordered
lexicographically by their 0/1 indicator vector, and within one support the
sign vectors are ordered lexicographically with +1 before -1 (a binary
counter, most significant position first).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .sampling import SplitMix64, block_sample_seed


@dataclass(frozen=True)
class SignedSupportRow:
    """A 0/+-1 row given by its support indices and matching signs."""

    length: int
    support: tuple
    signs: tuple

    @property
    def weight(self) -> int:
        return len(self.support)

    def dense(self) -> tuple:
        row = [0] * self.length
        for i, s in zip(self.support, self.signs):
            row[i] = s
        return tuple(row)


# -- supports in indicator-lex order ----------------------------------------


def iter_supports(d: int, l: int):
    """Yield weight-l index tuples ordered by their 0/1 indicator vectors.

    Indicator-lex order prefers a 0 in the earliest position, so support
    {d-1} comes first and {0, ...} variants come last.
    """
    if l < 0 or l > d:
        return

    def rec(start: int, need: int):
        remaining = d - start
        if need == 0:
            yield ()
            return
        if remaining < need:
            return
        if remaining - 1 >= need:
            yield from rec(start + 1, need)
        for rest in rec(start + 1, need - 1):
            yield (start,) + rest

    yield from rec(0, l)


def unrank_support(d: int, l: int, r: int) -> tuple:
    """Support at position r of iter_supports(d, l)."""
    if not 0 <= r < comb(d, l):
        raise ValueError(f"support rank {r} out of range for ({d},{l})")
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


def _signs_from_bits(l: int, bits: int) -> tuple:
    return tuple(-1 if (bits >> (l - 1 - i)) & 1 else 1 for i in range(l))


def signed_row_count(d: int, l: int) -> int:
    """n(l) = 2^l * binom(d, l)."""
    return (1 << l) * comb(d, l)


def iter_signed_rows(d: int, l: int):
    """All weight-l signed rows of length d in doubly-lexicographic order."""
    if l == 0:
        yield SignedSupportRow(d, (), ())
        return
    for support in iter_supports(d, l):
        for bits in range(1 << l):
            yield SignedSupportRow(d, support, _signs_from_bits(l, bits))


def unrank_signed_row(d: int, l: int, r: int) -> SignedSupportRow:
    """Row at position r of iter_signed_rows(d, l)."""
    if not 0 <= r < signed_row_count(d, l):
        raise ValueError(f"signed row rank {r} out of range for ({d},{l})")
    if l == 0:
        return SignedSupportRow(d, (), ())
    support = unrank_support(d, l, r >> l)
    return SignedSupportRow(d, support, _signs_from_bits(l, r & ((1 << l) - 1)))


def signed_support_matrix(d: int, l: int) -> tuple:
    """The n(l) x d matrix of weight-l signed rows (the C_l block), as dense
    integer rows."""
    return tuple(row.dense() for row in iter_signed_rows(d, l))


# -- block streams -----------------------------------------------------------


def block_row_count(d: int, k: int, l: int, n: int | None = None) -> int:
    """Rows in block l: 2^k * binom(d, l) * binom(n, k-l)."""
    n = d if n is None else n
    return signed_row_count(d, l) * signed_row_count(n, k - l)


def total_row_count(d: int, k: int, n: int | None = None) -> int:
    """Rows over all blocks; equals 2^k * binom(d+n, k) by Vandermonde."""
    n = d if n is None else n
    return sum(block_row_count(d, k, l, n) for l in range(k + 1))


class BlockStream:
    """Lazy, restartable stream over the rows (left | right) of one block.

    The left part runs over weight-l rows of width d, each repeated once per
    right row; the right part cycles over weight-(k-l) rows of width n.
    Iteration always restarts from the first row and yields an identical
    sequence each time.
    """

    def __init__(self, d: int, k: int, l: int, n: int | None = None):
        if not 0 <= l <= k:
            raise ValueError(f"block index l={l} outside 0..{k}")
        self.d = d
        self.k = k
        self.l = l
        self.n = d if n is None else n
        self.count = block_row_count(d, k, l, self.n)

    def __iter__(self):
        right_rows = None
        right_count = signed_row_count(self.n, self.k - self.l)
        # Small right factors are cached; huge ones are re-streamed per left row.
        if right_count <= 1 << 20:
            right_rows = tuple(iter_signed_rows(self.n, self.k - self.l))
        for left in iter_signed_rows(self.d, self.l):
            if right_rows is not None:
                for right in right_rows:
                    yield (left, right)
            else:
                for right in iter_signed_rows(self.n, self.k - self.l):
                    yield (left, right)

    def row(self, index: int) -> tuple:
        """Random access by row index, consistent with iteration order."""
        if not 0 <= index < self.count:
            raise ValueError(f"row index {index} out of range ({self.count})")
        right_count = signed_row_count(self.n, self.k - self.l)
        left = unrank_signed_row(self.d, self.l, index // right_count)
        right = unrank_signed_row(self.n, self.k - self.l, index % right_count)
        return (left, right)

    def sample(self, count: int, seed: int):
        """Deterministic sample of `count` rows (with replacement).

        Indices are drawn from SplitMix64 seeded with
        block_sample_seed(seed, d, k, l); yields (index, (left, right)).
        """
        gen = SplitMix64(block_sample_seed(seed, self.d, self.k, self.l))
        for _ in range(count):
            idx = gen.below(self.count)
            yield (idx, self.row(idx))

    def __repr__(self) -> str:
        return (
            f"BlockStream(d={self.d}, k={self.k}, l={self.l}, n={self.n}, "
            f"count={self.count})"
        )


def block_rows(d: int, k: int, l: int, n: int | None = None) -> BlockStream:
    """Stream over the rows of block l (left width d, right width n)."""
    return BlockStream(d, k, l, n)


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
    """Exactly verify the block Gram identities for n = d.

    Checks left^T left = 2^k binom(d-1, l-1) binom(d, k-l) I_d and
    left^T right = 0, accumulating integer outer products row by row.  Blocks
    larger than `cap` rows are refused; use sampled verification instead.
    """
    stream = block_rows(d, k, l)
    if stream.count > cap:
        raise ValueError(
            f"block has {stream.count} rows, above the cap {cap}; "
            "use sampled verification for blocks this large"
        )
    gram = [[0] * d for _ in range(d)]
    cross = [[0] * d for _ in range(d)]
    for left, right in stream:
        e = left.dense()
        f = right.dense()
        for i, si in zip(left.support, left.signs):
            gi, ci = gram[i], cross[i]
            for j in range(d):
                if e[j]:
                    gi[j] += si * e[j]
                if f[j]:
                    ci[j] += si * f[j]
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
