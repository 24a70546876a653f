"""Hadamard matrices: Sylvester generation, validation, file import, profiles.

A Hadamard matrix of order d is a +-1 square matrix H with H^T H = d*I.  The
construction downstream works for *any* Hadamard matrix, so besides the native
Sylvester doubling (orders 2^e) arbitrary orders can be imported from a small
text format (see ``load_hadamard``).

Validation forms G = H^T H from the columns (``gram_rows``) and a
HadamardMatrix keeps it as ``gram``, which every later check reads.  For +-1
columns c_i, c_j of length n that differ in t positions, c_i . c_j = n - 2t,
and t is the popcount of m_i XOR m_j, where m_i is the bitmask of the -1
positions of c_i: so G costs one mask per column and one XOR and popcount
per entry, O(d^2) int operations on d-bit ints.  The identity is exact for
+-1 entries, which ``gram_rows`` checks; it never assumes d*I, so a matrix
that skipped validation is checked on its actual G.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, itemgetter

MAX_ORDER = 4096               # sylvester refuses larger orders
_SIGNS = frozenset((1, -1))
_MASK_BIT = {1: "0", -1: "1"}  # a column's -1 positions as binary digits


class HadamardMatrix:
    """Validated +-1 matrix with mutually orthogonal columns (and rows).

    gram is G = H^T H as a tuple of integer rows, formed once by validation.
    """

    __slots__ = ("order", "signs", "columns", "gram")

    def __init__(self, signs):
        signs = _sign_rows(signs)
        columns = tuple(zip(*signs))
        pair, gram = first_nonorthogonal_columns(columns)
        if pair is not None:
            raise ValueError(
                f"not a Hadamard matrix: columns {pair[0]} and {pair[1]} "
                "are not orthogonal"
            )
        self.signs = signs
        self.order = len(signs)
        self.columns = columns
        self.gram = gram

    def __eq__(self, other) -> bool:
        return isinstance(other, HadamardMatrix) and self.signs == other.signs

    def __hash__(self) -> int:
        return hash(self.signs)

    def __repr__(self) -> str:
        return f"HadamardMatrix(order={self.order})"


def _sign_rows(signs) -> tuple:
    """signs as a tuple of int row tuples; TypeError on an entry that is not
    an integer (a float is not truncated), ValueError when malformed."""
    signs = tuple(tuple(map(index, row)) for row in signs)
    problem = malformed_reason(signs)
    if problem is not None:
        raise ValueError(f"malformed Hadamard input: {problem}")
    return signs


def malformed_reason(signs) -> str | None:
    """Reason a candidate is not even a +-1 square matrix, or None if fine."""
    n = len(signs)
    if n == 0:
        return "empty matrix"
    for i, row in enumerate(signs):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        if not _SIGNS.issuperset(row):
            j = next(j for j, x in enumerate(row) if x not in _SIGNS)
            return f"entry ({i},{j}) is {row[j]}, expected +1 or -1"
    return None


def gram_rows(columns):
    """Yield the rows of G = H^T H for the +-1 columns of H, in order.

    Entry (i, j) for j >= i is n - 2*popcount(m_i ^ m_j), for columns of
    one length n whose -1 positions are the set bits of m_i and m_j: n less
    twice the number of positions where they differ, which is their integer
    dot product exactly.  Entries j < i are copied from row j (G is
    symmetric).  The masks are formed before the first row and raise
    ValueError on an entry other than +-1; a reader that stops after row i
    has formed no entry of a later row.
    """
    n = len(columns[0]) if columns else 0
    bit = _MASK_BIT.__getitem__
    try:
        masks = [int("".join(map(bit, column)), 2) for column in columns]
    except KeyError:
        i, j = next((i, j) for j, column in enumerate(columns)
                    for i, x in enumerate(column) if x not in _SIGNS)
        raise ValueError(
            f"entry ({i},{j}) is {columns[j][i]}, expected +1 or -1"
        ) from None
    rows = []
    for i, mask in enumerate(masks):
        rows.append(tuple(map(itemgetter(i), rows))
                    + tuple([n - 2 * (mask ^ other).bit_count()
                             for other in masks[i:]]))
        yield rows[-1]


def first_nonorthogonal_columns(columns) -> tuple:
    """(pair, G): the first column pair (i, j), i < j in row-major order,
    with nonzero inner product, and None, read from the rows of G = H^T H
    (gram_rows) up to that pair's row; (None, G) when there is no such pair.
    """
    gram = []
    for i, row in enumerate(gram_rows(columns)):
        if any(row[i + 1:]):
            j = next(j for j in range(i + 1, len(row)) if row[j])
            return (i, j), None
        gram.append(row)
    return None, tuple(gram)


def validate(signs) -> bool:
    """True iff H^T H = d*I exactly.

    Malformed input (non-square, entries outside +-1) raises ValueError and is
    thereby kept distinct from a well-formed non-Hadamard matrix, which
    returns False; an entry that is not an integer, such as a float, raises
    TypeError.
    """
    columns = tuple(zip(*_sign_rows(signs)))
    return first_nonorthogonal_columns(columns)[0] is None


def sylvester(e: int) -> HadamardMatrix:
    """Hadamard matrix of order 2^e by Sylvester doubling.

    H_1 = [1] and H_2n = [[H, H], [H, -H]].  Orders above MAX_ORDER are
    refused to bound memory.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    order = 1 << e
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_ORDER}")
    rows = [[1]]
    for _ in range(e):
        rows = [row + row for row in rows] + [
            row + [-x for x in row] for row in rows
        ]
    return HadamardMatrix(rows)


def load_hadamard(path) -> HadamardMatrix:
    """Parse and validate a Hadamard matrix from the text format.

    Format: first token is the order d, followed by d*d whitespace-separated
    entries from {1, -1}.  A '#' starts a comment running to end of line;
    layout is otherwise free-form.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    tokens: list[str] = []
    for line in raw.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens:
        raise ValueError(f"{path}: empty Hadamard file")
    try:
        order = int(tokens[0])
    except ValueError:
        raise ValueError(f"{path}: first token {tokens[0]!r} is not an order")
    if order <= 0:
        raise ValueError(f"{path}: order must be positive, got {order}")
    need = order * order
    body = tokens[1:]
    if len(body) != need:
        raise ValueError(
            f"{path}: expected {need} entries for order {order}, got {len(body)}"
        )
    try:
        flat = [int(t) for t in body]
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer entry ({exc})")
    rows = [flat[i * order : (i + 1) * order] for i in range(order)]
    return HadamardMatrix(rows)


def save_hadamard(h: HadamardMatrix, path) -> None:
    """Write a matrix in the same text format ``load_hadamard`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{h.order}\n")
        for row in h.signs:
            fh.write(" ".join(str(x) for x in row) + "\n")


@dataclass(frozen=True)
class RowProfile:
    """Per-row (+1 count, row sum) pairs plus the regularity flag."""

    order: int
    per_row: tuple
    row_sums: tuple
    column_sums: tuple
    regular: bool


def row_profile(h: HadamardMatrix) -> RowProfile:
    """Count +1 entries and sums per row; flag regular matrices.

    A Hadamard matrix is regular when all row sums agree and all column sums
    agree.  A normalized regular matrix of order d has row sum sqrt(d), i.e.
    (d + sqrt(d))/2 entries equal to +1 in every row.
    """
    per_row = []
    for row in h.signs:
        plus = sum(1 for x in row if x > 0)
        per_row.append((plus, 2 * plus - h.order))
    row_sums = tuple(s for _, s in per_row)
    col_sums = tuple(sum(col) for col in h.columns)
    regular = len(set(row_sums)) == 1 and len(set(col_sums)) == 1
    return RowProfile(
        order=h.order,
        per_row=tuple(per_row),
        row_sums=row_sums,
        column_sums=col_sums,
        regular=regular,
    )
