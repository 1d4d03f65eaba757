"""Exact rational scalars: fractions.Fraction, always kept in lowest terms
with a positive denominator.  The hot kernels run in Python ints.
"""

from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def q_str(x) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(Q(x))


def q_parse(s: str):
    """Parse the "p/q" / "p" serialization back into a rational."""
    return Q(s)
