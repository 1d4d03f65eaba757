"""Shared cached builders so expensive systems are constructed once."""

from functools import lru_cache

import pytest

from griess.bplus import build_bplus, build_phi
from griess.rootalgebra import build_A, build_T
from griess.rootsys import build


@lru_cache(maxsize=None)
def system(spec: str):
    return build(spec)


@lru_cache(maxsize=None)
def algebra_A(spec: str):
    return build_A(system(spec))


@lru_cache(maxsize=None)
def algebra_T(spec: str):
    return build_T(system(spec))


@lru_cache(maxsize=None)
def bplus(spec: str):
    return build_bplus(system(spec))


@lru_cache(maxsize=None)
def phi(spec: str):
    return build_phi(algebra_A(spec), bplus(spec))


def mul_vector(m, v) -> list:
    """The product of a QMatrix with a vector, by the definition."""
    assert len(v) == m.cols
    return [sum(r[j] * v[j] for j in range(m.cols)) for r in m.entries]


def radical_dimension(alg) -> int:
    """dim minus the exact rank of the Gram matrix."""
    return alg.dim - alg.gram_matrix().rank()


@pytest.fixture
def builders():
    return system, algebra_A, algebra_T, bplus, phi
