"""The Hadamard construction: parameters, vertices, cs-transform check.

Given a Hadamard matrix of order d, set k = floor(sqrt(d)/2), alpha = 1/(2k),
beta = 1/(alpha*d) and A = alpha*H.  The polytope is conv{+-x_1, ..., +-x_m}
with m = 2d, where the vertex representatives x_i are the rows of
X = [I_d; A^T]: the standard basis vectors followed by the scaled Hadamard
columns.  The cs-transform points v_i are the rows of T = [-A; I_d]; the
columns of T span the kernel of (I_d | A).

A built construction is its integer data, the parameters (alpha = p/q) and
H: A, X and T are never stored, a vertex is formed from its column of H on
request, and the LPs read H's +-1 columns with p in their bounds.  Every
identity checked here follows from H^T H = d*I.  X^T T = -A + A = 0 holds
by construction, and ``build`` verifies the full rank of [X | T] through an
integer Gram identity on the matrix's own G (``cs_transform_defect``),
never with Fraction matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exact import as_scalar
from .hadamard import HadamardMatrix

_ZERO = Fraction(0)        # shared by every unit vertex


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
        # the window 2k/d <= alpha <= 1/(2k), as beta = 1/(alpha*d)
        if self.alpha * self.k > Fraction(1, 2):
            raise ValueError(f"alpha*k = {self.alpha * self.k} exceeds 1/2")
        if self.beta * self.k > Fraction(1, 2):
            raise ValueError(f"beta*k = {self.beta * self.k} exceeds 1/2")


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
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    beta = Fraction(1) / (alpha * d)
    return ConstructionParams(d=d, n=d, m=2 * d, k=k, alpha=alpha, beta=beta)


class Construction:
    """One built instance: its parameters and its Hadamard matrix, which are
    the whole construction (A = alpha*H).  Immutable after ``build`` and
    safe to share across workers."""

    __slots__ = ("params", "hadamard")

    def __init__(self, params: ConstructionParams, h: HadamardMatrix):
        self.params = params
        self.hadamard = h

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
        """Vertex sign*x_index as a tuple of Fractions.

        x_i = e_i for i < d; x_{d+j} = alpha*h_j has the entries +-sign*alpha,
        picked by the signs of column j of H.  Raises ValueError for an index
        outside 0..m-1 or a sign other than +-1.
        """
        d = self.d
        if not 0 <= index < self.m or sign not in (1, -1):
            raise ValueError(f"bad vertex ({index}, {sign})")
        if index < d:
            return ((_ZERO,) * index + (Fraction(sign),)
                    + (_ZERO,) * (d - 1 - index))
        plus, minus = sign * self.params.alpha, -sign * self.params.alpha
        return tuple(plus if s > 0 else minus
                     for s in self.hadamard.columns[index - d])

    def __repr__(self) -> str:
        return f"Construction(d={self.d}, k={self.k}, alpha={self.params.alpha})"


def cs_transform_defect(gram) -> str | None:
    """The first cs-transform identity that fails for G = H^T H, or None.

    Scaled by q (alpha = p/q), qX = [qI; pH^T] and qT = [-pH; qI], so
    (qX)^T (qT) = -pqH + pqH = 0 holds by construction for any signs.  The
    Gram matrix of q[X | T] is block diagonal,
    [[q^2 I + p^2 H H^T, 0], [0, p^2 H^T H + q^2 I]], so
    [X | T]^T [X | T] = (1 + alpha^2 d) I_m, and with it rank [X | T] = m,
    holds exactly when H H^T = d*I and H^T H = d*I.  For a square H the
    first implies the second and back (H^T = d H^{-1}), so this reads the
    actual G (its upper triangle: G is symmetric), never assumed to be d*I,
    and an unvalidated H is caught.
    """
    d = len(gram)
    for i, row in enumerate(gram):
        for j in range(i, d):
            if row[j] != (d if i == j else 0):
                return (
                    f"H^T H != d*I at entry ({i}, {j}), so [X | T]^T [X | T] "
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
    if verify:
        defect = cs_transform_defect(h.gram)
        if defect is not None:
            raise ValueError(f"internal error: {defect}")
    return Construction(params, h)
