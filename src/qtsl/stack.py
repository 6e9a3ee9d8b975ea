"""Reduction layers that grow the one-bit scheme into a full signature token.

Three layers, each a standard transformation:

* r-fold product — sign an r-bit string with r independent one-bit keys;
* hash-and-sign — sign arbitrary bytes by signing the digest under a
  sampled hash index s carried with the key;
* chain signing — certify each fresh hash-and-sign public key with a
  long-lived classical signature, so one classical public key backs an
  unbounded stream of single-use tokens.

The same code serves the oracle-based scheme and the private-key variant:
a layer's verification key holds either membership oracles or the one-bit
secret keys themselves, and both answer ``ot1``'s membership queries.

Every layer signs through ``ot1.ot1_sign``, the only measurement of a
token, which refuses a spent one.  ``revoke`` is the one place above ``ot1``
that clears the flags of a register taken back from its holder: the bank
measures whatever comes back, spent or not.
"""

from __future__ import annotations

from functools import cached_property
from random import Random
from typing import Any, Callable

from .f2lin import F2Vector
from . import ot1 as _ot1
from .encoding import canonical_json, encode_space
from .ot1 import Ot1Token, _hidden_space
from .primitives import (
    DsPublicKey,
    DsSecretKey,
    ds_keygen,
    ds_sign,
    ds_verify,
    hash_bits,
    hash_eval,
    hash_index,
)
from .record import FrozenRecord, Record, set_field

__all__ = [
    "OtrKey",
    "OtrToken",
    "otr_keygen",
    "otr_token_gen",
    "otr_sign",
    "otr_verify",
    "otr_verify_token",
    "OtKey",
    "OtToken",
    "OtSignature",
    "ot_keygen",
    "ot_token_gen",
    "ot_sign",
    "ot_verify",
    "ot_verify_token",
    "TsPublicKey",
    "TsSecretKey",
    "TsToken",
    "TsSignature",
    "ts_keygen",
    "ts_token_gen",
    "ts_sign",
    "ts_verify",
    "ts_verify_token",
    "encode_ot_public",
    "ts_revoke",
    "verify_k",
    "verify_prime_k",
    "random_document",
    "one_bit_tokens",
    "revoke",
]


# ---------------------------------------------------------------------------
# r-fold product layer
# ---------------------------------------------------------------------------


class OtrKey(FrozenRecord):
    """One one-bit key per document bit: membership oracles to verify
    publicly, or the one-bit secret keys to mint tokens or verify
    privately."""

    _fields = ("components",)
    components: tuple[Any, ...]

    def __init__(self, components: tuple[Any, ...]) -> None:
        set_field(self, "components", components)

    @property
    def r(self) -> int:
        return len(self.components)


class OtrToken(Record):
    _fields = ("tokens",)

    def __init__(self, tokens: list) -> None:
        self.tokens = tokens


class OtSignature(FrozenRecord):
    """One vector per document bit; the r-fold product and hash-and-sign
    layers share it."""

    _fields = ("sigs",)
    sigs: tuple[F2Vector, ...]

    def __init__(self, sigs: tuple[F2Vector, ...]) -> None:
        set_field(self, "sigs", sigs)


def _check_alpha(alpha: str, r: int) -> None:
    if not isinstance(alpha, str) or len(alpha) != r or any(c not in "01" for c in alpha):
        raise ValueError(f"document must be an r={r} bit string, got {alpha!r}")


def otr_keygen(
    kappa: int,
    r: int,
    rng: Random,
    n_override: int | None = None,
) -> tuple[OtrKey, OtrKey]:
    """r independent one-bit keys, one per document bit."""
    if r < 1:
        raise ValueError("r must be at least 1")
    pub, sec = [], []
    for _ in range(r):
        pk, sk = _ot1.ot1_keygen(kappa, rng, n_override)
        pub.append(pk)
        sec.append(sk)
    return OtrKey(tuple(pub)), OtrKey(tuple(sec))


def otr_token_gen(sk: OtrKey) -> OtrToken:
    return OtrToken([_ot1.ot1_token_gen(c) for c in sk.components])


def otr_sign(alpha: str, token: OtrToken, rng: Random) -> OtSignature | None:
    """Sign each bit with its component token.  All components are consumed;
    a single component failure fails the whole signature (no retry)."""
    _check_alpha(alpha, len(token.tokens))
    sigs = [_ot1.ot1_sign(int(bit), tok, rng) for bit, tok in zip(alpha, token.tokens)]
    if None in sigs:
        return None
    return OtSignature(tuple(s.sig for s in sigs))


def otr_verify(pub: OtrKey, alpha: str, sig: OtSignature) -> bool:
    if not isinstance(sig, OtSignature):
        return False
    try:
        _check_alpha(alpha, pub.r)
    except ValueError:
        return False
    if len(sig.sigs) != pub.r:
        return False
    return all(
        _ot1.ot1_verify(pk, int(bit_char), vec)
        for pk, bit_char, vec in zip(pub.components, alpha, sig.sigs)
    )


def otr_verify_token(pub: OtrKey, token: OtrToken, rng: Random) -> bool:
    """Every component token must pass its test; all are tested, even after
    one fails, so each is left in its post-test state."""
    if len(token.tokens) != pub.r:
        return False
    verdicts = [
        _ot1.ot1_verify_token(pk, tok, rng) for pk, tok in zip(pub.components, token.tokens)
    ]
    return all(verdicts)


# ---------------------------------------------------------------------------
# hash-and-sign layer
# ---------------------------------------------------------------------------


class OtKey(FrozenRecord):
    """A hash index and the r-fold key over its digest bits.  Only a key over
    membership oracles has an encoding (``encode_ot_public``) and can carry
    a chain certificate; one over secret components reaches bytes only
    encrypted (``privts.encode_priv_ot_key``)."""

    _fields = ("s", "otr")
    s: bytes
    otr: OtrKey

    def __init__(self, s: bytes, otr: OtrKey) -> None:
        set_field(self, "s", s)
        set_field(self, "otr", otr)

    @cached_property
    def _encoded(self) -> bytes:
        spaces = [encode_space(_hidden_space(c)) for c in self.otr.components]
        return canonical_json({"v": 1, "kind": "ot-pub", "s": self.s.hex(), "spaces": spaces})

    def _certified_by(self, ds_pk: DsPublicKey, chain_sig: bytes) -> bool:
        """Whether ``chain_sig`` is ``ds_pk``'s signature on this key.

        The key is immutable, so the verdict depends only on (ds_pk,
        chain_sig); the last one is kept here, and a credential re-checked
        under one long-lived key is verified once.
        """
        asked = (ds_pk, chain_sig)
        last = self.__dict__.get("_chain_verdict")
        if last is not None and last[0] == asked:
            return last[1]
        ok = ds_verify(ds_pk, encode_ot_public(self), chain_sig)
        object.__setattr__(self, "_chain_verdict", (asked, ok))
        return ok


class OtToken(Record):
    _fields = ("s", "otr")

    def __init__(self, s: bytes, otr: OtrToken) -> None:
        self.s = s
        self.otr = otr


def ot_keygen(
    kappa: int,
    rng: Random,
    hash_variant: str = "sha256-256",
    n_override: int | None = None,
) -> tuple[OtKey, OtKey]:
    """Hash-and-sign keys: a sampled hash index plus one component key per
    digest bit."""
    s = hash_index(kappa, rng, hash_variant)
    r = hash_bits(s)
    pub, sec = otr_keygen(kappa, r, rng, n_override)
    return OtKey(s, pub), OtKey(s, sec)


def ot_token_gen(sk: OtKey) -> OtToken:
    return OtToken(sk.s, otr_token_gen(sk.otr))


def ot_sign(doc: bytes, token: OtToken, rng: Random) -> OtSignature | None:
    return otr_sign(hash_eval(token.s, doc), token.otr, rng)


def ot_verify(pub: OtKey, doc: bytes, sig: OtSignature) -> bool:
    return otr_verify(pub.otr, hash_eval(pub.s, doc), sig)


def ot_verify_token(pub: OtKey, token: OtToken, rng: Random) -> bool:
    """Token check: the token's hash index must equal the key's, then every
    component token must pass projection."""
    return token.s == pub.s and otr_verify_token(pub.otr, token.otr, rng)


# ---------------------------------------------------------------------------
# chain-signed tokens under one long-lived classical key
# ---------------------------------------------------------------------------


class TsPublicKey(FrozenRecord):
    _fields = ("ds_pk", "kappa", "hash_variant", "n_override")
    ds_pk: DsPublicKey
    kappa: int
    hash_variant: str
    n_override: int | None

    def __init__(
        self, ds_pk: DsPublicKey, kappa: int, hash_variant: str, n_override: int | None = None
    ) -> None:
        set_field(self, "ds_pk", ds_pk)
        set_field(self, "kappa", kappa)
        set_field(self, "hash_variant", hash_variant)
        set_field(self, "n_override", n_override)


class TsSecretKey(Record):
    _fields = ("ds_sk", "kappa", "hash_variant", "n_override")

    def __init__(
        self, ds_sk: DsSecretKey, kappa: int, hash_variant: str, n_override: int | None = None
    ) -> None:
        self.ds_sk = ds_sk
        self.kappa = kappa
        self.hash_variant = hash_variant
        self.n_override = n_override


class TsToken(Record):
    _fields = ("ot_public", "chain_sig", "ot_token")

    def __init__(self, ot_public: OtKey, chain_sig: bytes, ot_token: OtToken) -> None:
        self.ot_public = ot_public
        self.chain_sig = chain_sig
        self.ot_token = ot_token


class TsSignature(FrozenRecord):
    _fields = ("ot_public", "chain_sig", "ot_sig")
    ot_public: OtKey
    chain_sig: bytes
    ot_sig: OtSignature

    def __init__(self, ot_public: OtKey, chain_sig: bytes, ot_sig: OtSignature) -> None:
        set_field(self, "ot_public", ot_public)
        set_field(self, "chain_sig", chain_sig)
        set_field(self, "ot_sig", ot_sig)


def encode_ot_public(pub: OtKey) -> bytes:
    """Canonical versioned bytes of a hash-and-sign public key.

    This is the exact message the chain signature covers and the preimage of
    a coin serial, so it must be stable: version tag, hash index, and each
    component's hidden subspace in canonical basis order (the simulation
    serializes the subspace itself where a deployment would ship a program).
    The key is immutable, so the bytes are computed once and kept on it.
    """
    return pub._encoded


def ts_keygen(
    kappa: int,
    rng: Random,
    hash_variant: str = "sha256-256",
    ds_algo: str | None = None,
    n_override: int | None = None,
) -> tuple[TsPublicKey, TsSecretKey]:
    """The long-lived key pair.  A token length that no token could be
    minted at is refused here, before any key exists."""
    if n_override is not None and (n_override < 2 or n_override % 2):
        raise ValueError(f"token length must be even and >= 2, got {n_override}")
    ds_pk, ds_sk = ds_keygen(kappa, rng, ds_algo)
    return (
        TsPublicKey(ds_pk, kappa, hash_variant, n_override),
        TsSecretKey(ds_sk, kappa, hash_variant, n_override),
    )


def ts_token_gen(sk: TsSecretKey, rng: Random) -> TsToken:
    """Mint one token: a fresh hash-and-sign keypair whose public part is
    certified by the long-lived classical key."""
    ot_pub, ot_sec = ot_keygen(sk.kappa, rng, sk.hash_variant, sk.n_override)
    chain = ds_sign(sk.ds_sk, encode_ot_public(ot_pub))
    return TsToken(ot_pub, chain, ot_token_gen(ot_sec))


def ts_sign(doc: bytes, token: TsToken, rng: Random) -> TsSignature | None:
    inner = ot_sign(doc, token.ot_token, rng)
    if inner is None:
        return None
    return TsSignature(token.ot_public, token.chain_sig, inner)


def ts_verify(pk: TsPublicKey, doc: bytes, sig: TsSignature) -> bool:
    """Chain certificate first, then the single-use signature itself."""
    if not isinstance(sig, TsSignature):
        return False
    if not sig.ot_public._certified_by(pk.ds_pk, sig.chain_sig):
        return False
    return ot_verify(sig.ot_public, doc, sig.ot_sig)


def ts_verify_token(pk: TsPublicKey, token: TsToken, rng: Random) -> bool:
    """Chain certificate first, then the token's own check."""
    if not token.ot_public._certified_by(pk.ds_pk, token.chain_sig):
        return False
    return ot_verify_token(token.ot_public, token.ot_token, rng)


# ---------------------------------------------------------------------------
# revocation and multi-pair verification
# ---------------------------------------------------------------------------


def random_document(kappa: int, rng: Random) -> bytes:
    """A uniformly random kappa-bit document, as bytes."""
    nbytes = (kappa + 7) // 8
    raw = bytearray(rng.randbytes(nbytes))
    if kappa % 8:
        raw[0] &= (1 << (kappa % 8)) - 1
    return bytes(raw)


def revoke(
    sign: Callable[[Any, Any, Random], Any],
    verify: Callable[[Any, Any, Any], bool],
    key: Any,
    doc: Any,
    token: Any,
    rng: Random,
) -> bool:
    """Take a returned register back, sign ``doc`` with it and verify.

    Lifecycle flags bind honest holders only: the revoker (or an
    equivocator replaying a residual) clears the flags of every one-bit
    token and signs with whatever state is physically left."""
    for tok in one_bit_tokens(token):
        tok.lifecycle = "fresh"
    sig = sign(doc, token, rng)
    return sig is not None and verify(key, doc, sig)


def ts_revoke(pk: TsPublicKey, token: TsToken, rng: Random) -> bool:
    """Consume the token by signing a random document and verifying it."""
    return revoke(ts_sign, ts_verify, pk, random_document(pk.kappa, rng), token, rng)


def verify_k(verify: Callable[[Any, Any, Any], bool], pk: Any, pairs: list) -> bool:
    """All pairs verify and the documents are pairwise distinct."""
    docs = [doc for doc, _ in pairs]
    if len(set(docs)) != len(docs):
        return False
    return all(verify(pk, doc, sig) for doc, sig in pairs)


def verify_prime_k(
    verify: Callable[[Any, Any, Any], bool],
    pk: Any,
    pairs: list,
    sig_encoding: Callable[[Any], bytes],
) -> bool:
    """All pairs verify and the (document, signature) pairs are distinct.

    Signatures compare by ``sig_encoding``.  Documents compare as bytes when
    they are bytes and by ``repr`` otherwise (the bit-string and one-bit
    layers sign str and int documents)."""
    seen = {(_doc_bytes(doc), sig_encoding(sig)) for doc, sig in pairs}
    if len(seen) != len(pairs):
        return False
    return all(verify(pk, doc, sig) for doc, sig in pairs)


def _doc_bytes(doc: Any) -> bytes:
    return doc if isinstance(doc, bytes) else repr(doc).encode()


def one_bit_tokens(token: Any) -> list[Ot1Token]:
    """The one-bit tokens a token of any layer is made of, in signing order."""
    if isinstance(token, Ot1Token):
        return [token]
    if isinstance(token, OtrToken):
        return token.tokens
    if isinstance(token, OtToken):
        return token.otr.tokens
    return one_bit_tokens(token.ot_token)  # chain-signed and private transferable tokens
