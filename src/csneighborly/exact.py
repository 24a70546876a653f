"""Exact rational scalars.

Every number in this package is an arbitrary-precision integer or a
``fractions.Fraction``.  Fractions are always in lowest terms with a positive
denominator, so equality is a plain field-wise comparison and no tolerance
appears anywhere in the code base.  There is no matrix class: a matrix is
a plain tuple of row tuples.
"""

from __future__ import annotations

from fractions import Fraction

# The type of a matrix.  The alias also keeps the name exact.Matrix
# resolvable for bench/spans.py, whose tracer walks exact.Matrix to look up
# Matrix.__matmul__ (which a tuple does not have, so it is reported absent).
Matrix = tuple[tuple[Fraction, ...], ...]


def as_scalar(value) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")
