"""Two interchangeable models of the token states.

The *coset model* tracks states symbolically: a uniform superposition over a
subspace, a computational basis state, a phase state (the Hadamard transform
of a basis state), or Unsupported once a state leaves that family.  All
transition probabilities are exact closed forms.

The *dense model* is a literal state vector of 2^n amplitudes, usable up to
n = 12, and exists to validate the coset model against brute-force linear
algebra.  It is the only user of numpy, which its functions import on first
use so that the symbolic model (and the CLI) load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, NamedTuple

from .f2lin import (
    DimensionError,
    F2Vector,
    Subspace,
    dual,
    intersection_dim,
    member,
    member_or_dual,
    sample_element,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CosetState",
    "DenseState",
    "subspace_state",
    "basis_state",
    "phase_state",
    "unsupported_state",
    "prepare_subspace_state",
    "hadamard_all",
    "measure_standard",
    "project_subspace",
    "projection_accept_probability",
    "to_dense",
    "dense_hadamard_all",
    "dense_measure",
    "dense_project",
    "dense_project_two_step",
    "hadamard_matrix",
    "subspace_projector",
    "UnsupportedStateError",
]

DENSE_MAX_N = 12
_ATOL = 1e-10


class UnsupportedStateError(RuntimeError):
    """An operation was applied to a state outside the tracked family."""


class CosetState(NamedTuple):
    """Symbolic state: kind is one of subspace | basis | phase | unsupported.

    An immutable tuple of its fields, so it is cheap to build; it compares
    and hashes by those fields.
    """

    ambient_n: int
    kind: str
    space: Subspace | None = None
    vector: F2Vector | None = None

    def is_unsupported(self) -> bool:
        return self.kind == "unsupported"

    def __repr__(self) -> str:
        if self.kind == "subspace":
            return f"CosetState(subspace dim={self.space.dim}, n={self.ambient_n})"
        if self.kind == "unsupported":
            return f"CosetState(unsupported, n={self.ambient_n})"
        return f"CosetState({self.kind} {self.vector}, n={self.ambient_n})"


def subspace_state(space: Subspace) -> CosetState:
    return CosetState(space.ambient_n, "subspace", space=space)


def basis_state(v: F2Vector) -> CosetState:
    return CosetState(v.n, "basis", vector=v)


def phase_state(v: F2Vector) -> CosetState:
    return CosetState(v.n, "phase", vector=v)


def unsupported_state(n: int) -> CosetState:
    return CosetState(n, "unsupported")


def prepare_subspace_state(space: Subspace) -> CosetState:
    """The uniform superposition over a half-dimension subspace."""
    if space.ambient_n % 2 or space.dim != space.ambient_n // 2:
        raise DimensionError("token states live on half-dimension subspaces")
    return subspace_state(space)


def hadamard_all(state: CosetState) -> CosetState:
    """Hadamard on every coordinate: subspace -> dual, basis <-> phase."""
    if state.kind == "subspace":
        return subspace_state(dual(state.space))
    if state.kind == "basis":
        return phase_state(state.vector)
    if state.kind == "phase":
        return basis_state(state.vector)
    raise UnsupportedStateError("hadamard_all on an unsupported state")


def measure_standard(state: CosetState, rng: Random) -> tuple[F2Vector, CosetState]:
    """Measure all coordinates; returns (outcome, post-measurement state)."""
    if state.kind == "subspace":
        outcome = sample_element(state.space, rng)
    elif state.kind == "basis":
        outcome = state.vector
    elif state.kind == "phase":
        outcome = F2Vector(state.ambient_n, rng.getrandbits(state.ambient_n))
    else:
        raise UnsupportedStateError("measure_standard on an unsupported state")
    return outcome, basis_state(outcome)


def projection_accept_probability(state: CosetState, space: Subspace) -> float:
    """Exact probability that the rank-one projection onto the uniform
    superposition over ``space`` accepts ``state``."""
    n = state.ambient_n
    if space.ambient_n != n:
        raise DimensionError("ambient mismatch")
    if state.kind == "subspace":
        if state.space == space:
            return 1.0
        d = intersection_dim(state.space, space)
        return 2.0 ** (2 * d - state.space.dim - space.dim)
    if state.kind == "basis":
        return 2.0 ** (-space.dim) if member(space, state.vector) else 0.0
    if state.kind == "phase":
        return 2.0 ** (space.dim - n) if member_or_dual(space, state.vector, 1) else 0.0
    return 0.0


def project_subspace(
    state: CosetState, space: Subspace, rng: Random
) -> tuple[bool, CosetState]:
    """Binary measurement {accept onto the subspace superposition, reject}.

    Accepting leaves the uniform superposition over ``space``; rejecting
    leaves a residual outside the tracked family, reported as Unsupported.
    A state already on ``space`` is returned as it is: the projection is the
    identity there and draws nothing from ``rng``.
    """
    if space.ambient_n % 2 or space.dim != space.ambient_n // 2:
        raise DimensionError("projection target must be half-dimension")
    if state.kind == "subspace" and state.space == space:
        return True, state
    p = projection_accept_probability(state, space)
    if p >= 1.0 or (p > 0.0 and rng.random() < p):
        return True, subspace_state(space)
    return False, unsupported_state(state.ambient_n)


# ---------------------------------------------------------------------------
# dense model
# ---------------------------------------------------------------------------


@dataclass
class DenseState:
    """State vector over 2^n amplitudes; index bit i is coordinate i+1."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        if self.n > DENSE_MAX_N:
            raise DimensionError(f"dense model capped at n={DENSE_MAX_N}")
        if self.amplitudes.shape != (1 << self.n,):
            raise DimensionError("amplitude vector has wrong length")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > _ATOL:
            raise ValueError(f"state is not normalized (|psi| = {norm})")


def to_dense(state: CosetState) -> DenseState:
    import numpy as np

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
    import numpy as np

    probs = np.abs(state.amplitudes) ** 2
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    idx = min(idx, len(probs) - 1)
    post = np.zeros_like(state.amplitudes)
    post[idx] = 1.0
    return F2Vector(state.n, idx), DenseState(state.n, post)


def _subspace_amplitudes(n: int, space: Subspace) -> np.ndarray:
    import numpy as np

    amps = np.zeros(1 << n, dtype=np.complex128)
    a = 1.0 / math.sqrt(len(space))
    for el in space.elements():
        amps[el.value] = a
    return amps


def dense_project(
    state: DenseState, space: Subspace, rng: Random
) -> tuple[bool, DenseState]:
    """Rank-one projection onto the uniform superposition over ``space``."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    diag = np.zeros(1 << n)
    for el in space.elements():
        diag[el.value] = 1.0
    return np.diag(diag)
