"""The Hadamard construction: parameters, vertex matrix, cs-transform.

Given a Hadamard matrix of order d, set k = floor(sqrt(d)/2), alpha = 1/(2k),
beta = 1/(alpha*d) and A = alpha*H.  The polytope is conv{+-x_1, ..., +-x_m}
with m = 2d, where the vertex representatives x_i are the rows of
X = [I_d; A^T]: the standard basis vectors followed by the scaled Hadamard
columns.  The cs-transform points v_i are the rows of T = [-A; I_d]; the
columns of T span the kernel of (I_d | A).

The construction is the integer data (H, p, q) with alpha = p/q: A and X
are tuples of row tuples whose entries are picked by the signs of H from
shared Fractions, and T is built on demand.  Every identity checked here
follows from H^T H = d*I.  X^T T = -A + A = 0 holds by construction, and
``build`` verifies the full rank of [X | T] through an integer Gram identity
(``cs_transform_defect``), never with Fraction matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

from .exact import Matrix, as_scalar
from .hadamard import HadamardMatrix


@dataclass(frozen=True)
class ConstructionParams:
    """Dimension bundle (d, n, m, k) and the exact scale factors alpha, beta."""

    d: int
    n: int
    m: int
    k: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.d < 4:
            raise ValueError(f"dimension d={self.d} is below the minimum 4")
        if self.k < 1:
            raise ValueError("neighborliness target k must be at least 1")
        if self.m != self.d + self.n:
            raise ValueError("m must equal d + n")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.beta != Fraction(1) / (self.alpha * self.d):
            raise ValueError("beta must equal 1/(alpha*d)")
        if self.alpha * self.k > Fraction(1, 2):
            raise ValueError(f"alpha*k = {self.alpha * self.k} exceeds 1/2")
        if self.beta * self.k > Fraction(1, 2):
            raise ValueError(f"beta*k = {self.beta * self.k} exceeds 1/2")
        # window 2k/d <= alpha <= 1/(2k); both ends coincide when d = 4k^2
        if not Fraction(2 * self.k, self.d) <= self.alpha <= Fraction(1, 2 * self.k):
            raise ValueError(
                f"alpha = {self.alpha} outside the window "
                f"[{Fraction(2 * self.k, self.d)}, {Fraction(1, 2 * self.k)}]"
            )


def neighborliness_target(d: int) -> int:
    """k = floor(sqrt(d)/2)."""
    return isqrt(d) // 2


def parameters(d: int, alpha=None) -> ConstructionParams:
    """Parameters for dimension d in the diagonal case n = d.

    The default alpha = 1/(2k) is the canonical choice; any rational alpha
    inside the window 2k/d <= alpha <= 1/(2k) may be supplied instead for
    experimentation.
    """
    if d < 4:
        raise ValueError(f"dimension d={d} is below the minimum 4")
    k = neighborliness_target(d)
    alpha = Fraction(1, 2 * k) if alpha is None else as_scalar(alpha)
    beta = Fraction(1) / (alpha * d)
    return ConstructionParams(d=d, n=d, m=2 * d, k=k, alpha=alpha, beta=beta)


class Construction:
    """One built instance: parameters, Hadamard source, A and X.

    A (d x n) and X (m x d, rows x_1..x_m) are tuples of row tuples of
    Fractions, and the 2m signed vertices are built once alongside them.
    Everything is immutable after ``build`` and safe to share across workers.
    """

    __slots__ = ("params", "hadamard", "A", "X", "_signed")

    def __init__(self, params: ConstructionParams, h: HadamardMatrix,
                 a: Matrix, x: Matrix, minus_x: Matrix):
        self.params = params
        self.hadamard = h
        self.A = a
        self.X = x
        self._signed = (
            tuple(((i, 1), row) for i, row in enumerate(x))
            + tuple(((i, -1), row) for i, row in enumerate(minus_x))
        )

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def k(self) -> int:
        return self.params.k

    def vertex_representative(self, index: int, sign: int = 1) -> tuple:
        """Vertex sign*x_index as an exact coordinate tuple."""
        return self._signed[index if sign > 0 else self.params.m + index][1]

    def signed_vertices(self) -> tuple:
        """All 2m vertices as ((index, sign), coordinates), representatives first."""
        return self._signed

    def __repr__(self) -> str:
        return f"Construction(d={self.d}, k={self.k}, alpha={self.params.alpha})"


def _pick(signs, plus, minus) -> Matrix:
    """Rows holding the shared object plus at each +1 sign, minus at each -1."""
    return tuple(tuple(plus if s > 0 else minus for s in row) for row in signs)


def _identity(d: int, one: Fraction) -> Matrix:
    zero = Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(d)) for i in range(d)
    )


def cs_transform_defect(signs) -> str | None:
    """The first cs-transform identity that fails for the sign matrix H, or None.

    Scaled by q (alpha = p/q), qX = [qI; pH^T] and qT = [-pH; qI], so
    (qX)^T (qT) = -pqH + pqH = 0 holds by construction for any signs.  The
    Gram matrix of q[X | T] is block diagonal,
    [[q^2 I + p^2 H H^T, 0], [0, p^2 H^T H + q^2 I]], so
    [X | T]^T [X | T] = (1 + alpha^2 d) I_m, and with it rank [X | T] = m,
    holds exactly when H H^T = d*I and H^T H = d*I.  A HadamardMatrix has
    H^T H = d*I by validation, which for a square H implies H H^T = d*I;
    H H^T is still computed here as a literal integer product (its upper
    triangle: the product is symmetric), so an unvalidated H is caught too.
    """
    d = len(signs)
    for i, row in enumerate(signs):
        for j in range(i, d):
            if sum(map(mul, row, signs[j])) != (d if i == j else 0):
                return (
                    f"H H^T != d*I at entry ({i}, {j}), so [X | T]^T [X | T] "
                    "!= (1 + alpha^2 d) I"
                )
    return None


def build(h: HadamardMatrix, alpha=None, verify: bool = True) -> Construction:
    """Build the construction from a validated Hadamard matrix.

    With verify=True (the default) the cs-transform certificate is checked at
    build time: X^T T = 0 holds by construction, and rank [X | T] = m is
    checked through the integer Gram identity (see cs_transform_defect).
    """
    params = parameters(h.order, alpha=alpha)
    d = params.d
    alpha, minus = params.alpha, -params.alpha
    a = _pick(h.signs, alpha, minus)                  # d x n
    x = _identity(d, Fraction(1)) + tuple(zip(*a))    # m x d, rows x_1..x_m
    minus_a = _pick(h.signs, minus, alpha)
    minus_x = _identity(d, Fraction(-1)) + tuple(zip(*minus_a))

    if verify:
        defect = cs_transform_defect(h.signs)
        if defect is not None:
            raise ValueError(f"internal error: {defect}")
    return Construction(params, h, a, x, minus_x)


def cs_transform_points(con: Construction) -> Matrix:
    """The m cs-transform points (rows of T = [-A; I_d]), in order.

    The point set used by the dominance characterization is the centrally
    symmetric closure {+-v_1, ..., +-v_m}; this returns one representative
    per antipodal pair.
    """
    alpha = con.params.alpha
    return _pick(con.hadamard.signs, -alpha, alpha) + con.X[:con.d]
