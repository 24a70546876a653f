"""Hadamard matrices: Sylvester generation, validation, file import, profiles.

A Hadamard matrix of order d is a +-1 square matrix H with H^T H = d*I.  The
construction downstream works for *any* Hadamard matrix, so besides the native
Sylvester doubling (orders 2^e) arbitrary orders can be imported from a small
text format (see ``load_hadamard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

DEFAULT_MAX_ORDER = 4096


class HadamardMatrix:
    """Validated +-1 matrix with mutually orthogonal columns (and rows)."""

    __slots__ = ("order", "signs", "columns")

    def __init__(self, signs):
        signs = tuple(tuple(int(x) for x in row) for row in signs)
        problem = malformed_reason(signs)
        if problem is not None:
            raise ValueError(f"malformed Hadamard input: {problem}")
        pair = first_nonorthogonal_columns(signs)
        if pair is not None:
            raise ValueError(
                f"not a Hadamard matrix: columns {pair[0]} and {pair[1]} "
                "are not orthogonal"
            )
        self.signs = signs
        self.order = len(signs)
        self.columns = tuple(zip(*signs))

    def row_signs(self, i: int) -> tuple:
        return self.signs[i]

    def column_signs(self, j: int) -> tuple:
        return self.columns[j]

    def __eq__(self, other) -> bool:
        return isinstance(other, HadamardMatrix) and self.signs == other.signs

    def __hash__(self) -> int:
        return hash(self.signs)

    def __repr__(self) -> str:
        return f"HadamardMatrix(order={self.order})"


def malformed_reason(signs) -> str | None:
    """Reason a candidate is not even a +-1 square matrix, or None if fine."""
    n = len(signs)
    if n == 0:
        return "empty matrix"
    for i, row in enumerate(signs):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for j, x in enumerate(row):
            if x not in (1, -1):
                return f"entry ({i},{j}) is {x}, expected +1 or -1"
    return None


def first_nonorthogonal_columns(signs) -> tuple | None:
    """First column pair (i, j), i < j, with nonzero inner product."""
    cols = tuple(zip(*signs))
    n = len(cols)
    for i in range(n):
        ci = cols[i]
        for j in range(i + 1, n):
            if sum(map(mul, ci, cols[j])):
                return (i, j)
    return None


def validate(signs) -> bool:
    """True iff H^T H = d*I exactly.

    Malformed input (non-square, entries outside +-1) raises ValueError and is
    thereby kept distinct from a well-formed non-Hadamard matrix, which
    returns False.
    """
    signs = tuple(tuple(int(x) for x in row) for row in signs)
    problem = malformed_reason(signs)
    if problem is not None:
        raise ValueError(f"malformed Hadamard input: {problem}")
    return first_nonorthogonal_columns(signs) is None


def sylvester(e: int, max_order: int = DEFAULT_MAX_ORDER) -> HadamardMatrix:
    """Hadamard matrix of order 2^e by Sylvester doubling.

    H_1 = [1] and H_2n = [[H, H], [H, -H]].  Orders above ``max_order`` are
    refused to bound memory.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    order = 1 << e
    if order > max_order:
        raise ValueError(
            f"order {order} exceeds the configured maximum {max_order}"
        )
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
