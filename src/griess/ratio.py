"""Exact rational scalars.

gmpy2.mpq is used when available; its speed against fractions.Fraction has
not been measured, and the hot kernels run in Python ints.  Both are exact
and always kept in lowest terms with a positive denominator.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def q_str(x) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(Q(x))


def q_parse(s: str):
    """Parse the "p/q" / "p" serialization back into a rational."""
    return Q(s)
