"""Literal linear-algebra references for the tests, on plain row sequences.

The package never multiplies, ranks or stacks Fraction matrices: its
identities hold by construction or reduce to integer products.  These slow,
obvious versions are what the tests check those shortcuts against.
"""

from fractions import Fraction as F


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
    """Triple-loop Fraction product of two row sequences."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError(f"shape mismatch for product: {len(a[0])} x {inner}")
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = F(0)
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
