"""A literal state-vector model of the token states, for tests.

A ``DenseState`` holds all 2^n amplitudes (n <= 12).  The tests run the
symbolic coset model of ``qtsl.qsim`` against it: same acceptance
probabilities, same post-measurement states, same Hadamard duality.  It
lives with the tests so that the package itself needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from qtsl.f2lin import DimensionError, F2Vector, Subspace, dual
from qtsl.qsim import CosetState, UnsupportedStateError

DENSE_MAX_N = 12
_ATOL = 1e-10


@dataclass
class DenseState:
    """State vector over 2^n amplitudes; index bit i is coordinate i+1."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n > DENSE_MAX_N:
            raise DimensionError(f"dense model capped at n={DENSE_MAX_N}")
        if self.amplitudes.shape != (1 << self.n,):
            raise DimensionError("amplitude vector has wrong length")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > _ATOL:
            raise ValueError(f"state is not normalized (|psi| = {norm})")


def to_dense(state: CosetState) -> DenseState:
    n = state.ambient_n
    amps = np.zeros(1 << n, dtype=np.complex128)
    if state.kind == "subspace":
        a = 1.0 / math.sqrt(len(state.space))
        for el in state.space.elements():
            amps[el.value] = a
    elif state.kind == "basis":
        amps[state.vector.value] = 1.0
    elif state.kind == "phase":
        v = state.vector.value
        a = 2.0 ** (-n / 2)
        for y in range(1 << n):
            amps[y] = a * (-1.0 if (v & y).bit_count() & 1 else 1.0)
    else:
        raise UnsupportedStateError("unsupported states have no dense form")
    return DenseState(n, amps)


def _fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform."""
    a = vec.copy()
    h = 1
    size = len(a)
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


def dense_hadamard_all(state: DenseState) -> DenseState:
    amps = _fwht(state.amplitudes) / math.sqrt(1 << state.n)
    return DenseState(state.n, amps)


def dense_measure(state: DenseState, rng: Random) -> tuple[F2Vector, DenseState]:
    probs = np.abs(state.amplitudes) ** 2
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    idx = min(idx, len(probs) - 1)
    post = np.zeros_like(state.amplitudes)
    post[idx] = 1.0
    return F2Vector(state.n, idx), DenseState(state.n, post)


def _subspace_amplitudes(n: int, space: Subspace) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    a = 1.0 / math.sqrt(len(space))
    for el in space.elements():
        amps[el.value] = a
    return amps


def dense_project(
    state: DenseState, space: Subspace, rng: Random
) -> tuple[bool, DenseState]:
    """Rank-one projection onto the uniform superposition over ``space``."""
    target = _subspace_amplitudes(state.n, space)
    overlap = np.vdot(target, state.amplitudes)
    p = float(abs(overlap) ** 2)
    if rng.random() < p:
        return True, DenseState(state.n, target)
    residual = state.amplitudes - overlap * target
    nrm = np.linalg.norm(residual)
    if nrm < _ATOL:
        # numerically pure accept; the branch above should have fired
        return True, DenseState(state.n, target)
    return False, DenseState(state.n, residual / nrm)


def dense_project_two_step(
    state: DenseState, space: Subspace, rng: Random
) -> tuple[bool, DenseState]:
    """Same measurement realized as the two-query sequence: project onto the
    subspace pointwise, then onto its dual in the Hadamard basis.  Agrees with
    :func:`dense_project` on acceptance statistics and the accepted state."""
    n = state.n
    mask = np.zeros(1 << n)
    for el in space.elements():
        mask[el.value] = 1.0
    amps = state.amplitudes
    first = amps * mask
    p1 = float(np.vdot(first, first).real)
    if rng.random() >= p1:
        residual = amps * (1.0 - mask)
        nrm = np.linalg.norm(residual)
        if nrm < _ATOL:
            return True, DenseState(n, _subspace_amplitudes(n, space))
        return False, DenseState(n, residual / nrm)
    first = first / math.sqrt(p1)
    dmask = np.zeros(1 << n)
    for el in dual(space).elements():
        dmask[el.value] = 1.0
    rot = _fwht(first) / math.sqrt(1 << n)
    kept = rot * dmask
    p2 = float(np.vdot(kept, kept).real)
    if rng.random() >= p2:
        residual = rot * (1.0 - dmask)
        nrm = np.linalg.norm(residual)
        back = _fwht(residual / nrm) / math.sqrt(1 << n) if nrm >= _ATOL else None
        if back is None:
            return True, DenseState(n, _subspace_amplitudes(n, space))
        return False, DenseState(n, back)
    back = _fwht(kept / math.sqrt(p2)) / math.sqrt(1 << n)
    return True, DenseState(n, back)


def hadamard_matrix(n: int) -> np.ndarray:
    """The 2^n × 2^n matrix of the all-coordinates Hadamard."""
    if n > DENSE_MAX_N:
        raise DimensionError(f"dense model capped at n={DENSE_MAX_N}")
    size = 1 << n
    idx = np.arange(size)
    par = np.zeros((size, size))
    for i in range(size):
        par[i] = [(i & j).bit_count() & 1 for j in idx]
    return ((-1.0) ** par) / math.sqrt(size)


def subspace_projector(n: int, space: Subspace) -> np.ndarray:
    """Diagonal 0/1 projector onto the points of ``space``."""
    diag = np.zeros(1 << n)
    for el in space.elements():
        diag[el.value] = 1.0
    return np.diag(diag)
