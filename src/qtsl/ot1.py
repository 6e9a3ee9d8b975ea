"""The one-bit, one-shot token scheme.

A key is a hidden half-dimension subspace A of F2^n.  The public side is a
sealed membership oracle answering "is v in A" / "is v in the dual"; the
token is the uniform superposition over A.  Signing bit 0 measures the token
directly, signing bit 1 measures it in the Hadamard basis, so one token
yields one verifiable (bit, vector) pair and the zero outcome is treated as
a signing failure.  ``ot1_sign`` is the only measurement of a token and
refuses one already spent; a revoker that takes a register back clears its
flag first (``ot1_revoke`` here, ``stack.revoke`` for every layer above).

In the private variant the verifier holds the subspace itself: an
``Ot1SecretKey`` answers the same membership queries, uncounted, so
``ot1_verify`` and ``ot1_verify_token`` take either key.
"""

from __future__ import annotations

import math
from random import Random

from .f2lin import DimensionError, F2Vector, Subspace, member_or_dual, sample_subspace
from .qsim import (
    CosetState,
    hadamard_all,
    measure_standard,
    prepare_subspace_state,
    project_subspace,
)
from .record import FrozenRecord, Record, set_field

__all__ = [
    "MembershipOracle",
    "Ot1SecretKey",
    "Ot1Token",
    "Ot1Signature",
    "TokenSpentError",
    "default_dimension",
    "ot1_keygen",
    "ot1_token_gen",
    "ot1_sign",
    "ot1_verify",
    "ot1_verify_token",
    "ot1_revoke",
]

KEY_ID_BYTES = 16


class TokenSpentError(RuntimeError):
    """Honest signing was attempted on an already-consumed token."""


def default_dimension(kappa: int) -> int:
    """Token length for a security parameter: grows faster than log(kappa)."""
    if kappa < 1:
        raise ValueError("kappa must be positive")
    return 2 * math.ceil(math.log2(kappa + 2) ** 1.5)


class MembershipOracle:
    """Sealed membership interface to a hidden subspace.

    The public surface is exactly: ``query``, ``query_count`` and ``key_id``.
    The subspace itself is module-private; nothing outside this module should
    ever read it.  Who may query is the games' business, not the oracle's.
    """

    def __init__(self, space: Subspace, key_id: bytes) -> None:
        self.__space = space
        self.__count = 0
        self.__key_id = bytes(key_id)

    @property
    def query_count(self) -> int:
        return self.__count

    @property
    def key_id(self) -> bytes:
        return self.__key_id

    def query(self, v: F2Vector, p: int) -> int:
        """Membership bit of v in the subspace (p=0) or its dual (p=1)."""
        if p not in (0, 1):
            raise ValueError(f"selector must be 0 or 1, got {p!r}")
        self.__count += 1
        return member_or_dual(self.__space, v, p)

    def _charge(self, amount: int) -> None:
        self.__count += amount

    def __repr__(self) -> str:
        return f"MembershipOracle(key_id={self.__key_id.hex()[:8]}..., queries={self.__count})"


def _hidden_space(pk: MembershipOracle) -> Subspace:
    """Module-private accessor for the sealed subspace (simulation only)."""
    return pk._MembershipOracle__space  # type: ignore[attr-defined]


class Ot1SecretKey(FrozenRecord):
    _fields = ("space", "key_id")
    space: Subspace
    key_id: bytes

    def __init__(self, space: Subspace, key_id: bytes) -> None:
        set_field(self, "space", space)
        set_field(self, "key_id", key_id)

    def query(self, v: F2Vector, p: int) -> int:
        """Membership bit of v in the subspace (p=0) or its dual (p=1): the
        holder of the subspace answers ``MembershipOracle.query`` itself,
        uncounted."""
        return member_or_dual(self.space, v, p)

    def __repr__(self) -> str:
        return f"Ot1SecretKey(n={self.space.ambient_n}, key_id={self.key_id.hex()[:8]}...)"


class Ot1Token(Record):
    """Mutable carrier for one token: the state plus lifecycle metadata."""

    _fields = ("state", "key_id", "lifecycle")

    def __init__(self, state: CosetState, key_id: bytes, lifecycle: str = "fresh") -> None:
        self.state = state
        self.key_id = key_id
        self.lifecycle = lifecycle  # "fresh" | "spent"


class Ot1Signature(FrozenRecord):
    _fields = ("alpha", "sig", "key_id")
    alpha: int
    sig: F2Vector
    key_id: bytes

    def __init__(self, alpha: int, sig: F2Vector, key_id: bytes) -> None:
        set_field(self, "alpha", alpha)
        set_field(self, "sig", sig)
        set_field(self, "key_id", key_id)


def ot1_keygen(
    kappa: int, rng: Random, n_override: int | None = None
) -> tuple[MembershipOracle, Ot1SecretKey]:
    """Sample a hidden subspace key; returns (public oracle, secret key)."""
    n = default_dimension(kappa) if n_override is None else n_override
    space = sample_subspace(n, rng)
    key_id = rng.randbytes(KEY_ID_BYTES)
    return MembershipOracle(space, key_id), Ot1SecretKey(space, key_id)


def ot1_token_gen(sk: Ot1SecretKey) -> Ot1Token:
    """A fresh token for a one-bit secret key, public or private (both
    schemes hold an ``Ot1SecretKey``): the uniform superposition over its
    subspace."""
    return Ot1Token(prepare_subspace_state(sk.space), sk.key_id)


def ot1_sign(alpha: int, token: Ot1Token, rng: Random) -> Ot1Signature | None:
    """Consume the token to sign one bit: the only measurement of a token,
    standard basis for bit 0, Hadamard for bit 1.

    A spent token is refused with ``TokenSpentError``.  Otherwise the token
    keeps its residual state and is marked spent either way; None means the
    outcome was zero (or the register held nothing) and the signing failed.
    """
    if alpha not in (0, 1):
        raise ValueError(f"document bit must be 0 or 1, got {alpha!r}")
    if token.lifecycle != "fresh":
        raise TokenSpentError("token was already consumed")
    state = token.state
    outcome = None
    if not state.is_unsupported():
        if alpha:
            state = hadamard_all(state)
        outcome, state = measure_standard(state, rng)
    token.state = state
    token.lifecycle = "spent"
    if outcome is None or outcome.is_zero():
        return None
    return Ot1Signature(alpha, outcome, token.key_id)


def ot1_verify(key: MembershipOracle | Ot1SecretKey, alpha: int, sig: F2Vector) -> bool:
    """Accept iff the key confirms membership and the vector is nonzero.

    An oracle is charged exactly one query; a secret key answers for
    free.  A vector of the wrong length is rejected, never raised on.
    """
    try:
        bit = key.query(sig, 1 if alpha else 0)
    except DimensionError:
        return False
    return bool(bit) and not sig.is_zero()


def ot1_verify_token(
    key: MembershipOracle | Ot1SecretKey, token: Ot1Token, rng: Random
) -> bool:
    """Non-destructive token test: project onto the key's subspace.

    An oracle is charged two queries (the projection is realized with one
    membership round in each basis); a secret key projects for free.  An
    accepted honest token is left unchanged and stays usable; a rejected
    token is left with an untracked residual state.
    """
    if isinstance(key, Ot1SecretKey):
        space = key.space
    else:
        key._charge(2)
        space = _hidden_space(key)
    accepted, token.state = project_subspace(token.state, space, rng)
    return accepted


def ot1_revoke(key: MembershipOracle | Ot1SecretKey, token: Ot1Token, rng: Random) -> bool:
    """Sign a random bit with the token and verify it under the key, public
    or private.  The bank measures whatever register comes back, so the
    token's flag is cleared first; returns whether verification accepted."""
    alpha = rng.getrandbits(1)
    token.lifecycle = "fresh"
    sig = ot1_sign(alpha, token, rng)
    return sig is not None and ot1_verify(key, alpha, sig.sig)
