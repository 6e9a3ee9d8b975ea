"""Helpers only the tests use: bit-level access to vectors, point sets and
counts of subspaces, exhaustive oracle reconstruction, and the rate fits of
the acceptance criteria.  They live with the tests so that the package
holds only what its own code calls."""

from __future__ import annotations

import math
from typing import Sequence

from qtsl.f2lin import F2Vector, Subspace, canonicalize
from qtsl.ot1 import MembershipOracle


def from_bits(bits: Sequence[int]) -> F2Vector:
    """The vector with these coordinates, coordinate 1 first."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bad bit {b!r}")
        value = (value << 1) | b
    return F2Vector(len(bits), value)


def to_bits(v: F2Vector) -> tuple[int, ...]:
    return tuple((v.value >> (v.n - 1 - i)) & 1 for i in range(v.n))


def bit(v: F2Vector, i: int) -> int:
    """Coordinate i, 0-based from the left."""
    if not 0 <= i < v.n:
        raise IndexError(i)
    return (v.value >> (v.n - 1 - i)) & 1


def flip(v: F2Vector, i: int) -> F2Vector:
    """A copy of v with coordinate i (0-based from the left) toggled."""
    if not 0 <= i < v.n:
        raise IndexError(i)
    return F2Vector(v.n, v.value ^ (1 << (v.n - 1 - i)))


def element_set(space: Subspace) -> frozenset[F2Vector]:
    return frozenset(space.elements())


def gaussian_binomial(m: int, k: int) -> int:
    """Number of k-dimensional subspaces of F2^m (exact integer)."""
    if k < 0 or m < 0:
        raise ValueError("m and k must be nonnegative")
    if k > m:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (m - i)) - 1
        den *= (1 << (k - i)) - 1
    assert num % den == 0
    return num // den


def exhaustive_reconstruction(pk: MembershipOracle, n: int) -> tuple[Subspace, Subspace]:
    """Recover the hidden subspace and its dual with 2^{n+1} oracle queries."""
    in_a = [F2Vector(n, v) for v in range(1 << n) if pk.query(F2Vector(n, v), 0)]
    in_b = [F2Vector(n, v) for v in range(1 << n) if pk.query(F2Vector(n, v), 1)]
    return canonicalize(in_a, ambient_n=n), canonicalize(in_b, ambient_n=n)


def fit_halving_slope(rates: dict[int, float]) -> float:
    """Zero-intercept least squares of log2(rate) against n: the slope of
    the model rate = 2^(slope * n)."""
    num = sum(n * math.log2(r) for n, r in rates.items() if r > 0)
    den = sum(n * n for n in rates)
    return num / den


def fit_scale_constant(rates: dict[int, float]) -> float:
    """Geometric-mean fit of c in rate = c * 2^(-n/2)."""
    logs = [math.log2(r) + n / 2 for n, r in rates.items() if r > 0]
    return 2.0 ** (sum(logs) / len(logs))
