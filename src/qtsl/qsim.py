"""The coset model of the token states.

States are tracked symbolically: a uniform superposition over a subspace, a
computational basis state, a phase state (the Hadamard transform of a basis
state), or Unsupported once a state leaves that family.  All transition
probabilities are exact closed forms.  The tests check them against a
brute-force state-vector model (``tests/dense.py``).
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

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

__all__ = [
    "CosetState",
    "subspace_state",
    "basis_state",
    "phase_state",
    "unsupported_state",
    "prepare_subspace_state",
    "hadamard_all",
    "measure_standard",
    "project_subspace",
    "projection_accept_probability",
    "UnsupportedStateError",
]


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
    if space.ambient_n != 2 * space.dim:
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
    if space.ambient_n != 2 * space.dim:
        raise DimensionError("projection target must be half-dimension")
    if state.kind == "subspace" and state.space == space:
        return True, state
    p = projection_accept_probability(state, space)
    if p >= 1.0 or (p > 0.0 and rng.random() < p):
        return True, subspace_state(space)
    return False, unsupported_state(state.ambient_n)
