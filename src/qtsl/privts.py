"""Private-verification variants of the token schemes.

Here the verifier holds the hidden subspace itself, so verification needs
no oracle and no query accounting.  The top layer wraps the private
hash-and-sign scheme into transferable tokens: each token carries its own
single-use verification key, encrypted under a long-lived secret and
authenticated with a MAC, and verification always checks the tag before
decrypting anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .encoding import canonical_json, decode_spaces, encode_space
from .f2lin import F2Vector, Subspace, member_or_dual, sample_subspace
from .ot1 import KEY_ID_BYTES, Ot1Token, default_dimension, ot1_measure
from .primitives import (
    DataError,
    decrypt,
    enc_keygen,
    encrypt,
    mac_keygen,
    mac_tag,
    mac_verify,
)
from .qsim import project_subspace
from .stack import (
    OneBitOps,
    OtPublicKey,
    OtSecretKey,
    OtSignature,
    OtToken,
    ot_keygen,
    ot_sign,
    ot_token_gen,
    ot_verify,
    ot_verify_token,
    random_document,
    take_custody,
)

__all__ = [
    "PrivOt1Key",
    "PRIVATE_ONE_BIT",
    "priv_ot1_keygen",
    "priv_ot1_verify",
    "priv_ot1_verify_token",
    "priv_ot1_revoke",
    "priv_ot_keygen",
    "priv_ot_token_gen",
    "priv_ot_sign",
    "priv_ot_verify",
    "priv_ot_verify_token",
    "TmKey",
    "TmToken",
    "TmSignature",
    "tm_keygen",
    "tm_token_gen",
    "tm_sign",
    "tm_verify",
    "tm_verify_token",
    "tm_revoke",
    "encode_priv_ot_key",
    "decode_priv_ot_key",
]


@dataclass(frozen=True)
class PrivOt1Key:
    """One-bit key for private verification: the subspace in the clear."""

    space: Subspace
    key_id: bytes

    def __repr__(self) -> str:
        return f"PrivOt1Key(n={self.space.ambient_n}, key_id={self.key_id.hex()[:8]}...)"


def priv_ot1_keygen(
    kappa: int, rng: Random, n_override: int | None = None
) -> tuple[PrivOt1Key, PrivOt1Key]:
    """Returns (verification key, signing key) — the same value twice, since
    private verification reads the subspace directly."""
    n = default_dimension(kappa) if n_override is None else n_override
    if n < 2 or n % 2:
        raise ValueError(f"token length must be even and >= 2, got {n}")
    key = PrivOt1Key(sample_subspace(n, rng), rng.randbytes(KEY_ID_BYTES))
    return key, key


def priv_ot1_verify(key: PrivOt1Key, alpha: int, sig: F2Vector) -> bool:
    """Direct membership test against the key; zero and vectors of the wrong
    length never verify."""
    if sig.is_zero() or sig.n != key.space.ambient_n:
        return False
    return bool(member_or_dual(key.space, sig, 1 if alpha else 0))


def priv_ot1_verify_token(
    key: PrivOt1Key, token: Ot1Token, rng: Random
) -> tuple[bool, Ot1Token]:
    accepted, post = project_subspace(token.state, key.space, rng)
    token.state = post
    return accepted, token


def priv_ot1_revoke(key: PrivOt1Key, token: Ot1Token, rng: Random) -> bool:
    alpha = rng.getrandbits(1)
    outcome = ot1_measure(alpha, token, rng)
    return outcome is not None and priv_ot1_verify(key, alpha, outcome)


PRIVATE_ONE_BIT = OneBitOps(
    keygen=lambda kappa, rng, n_override: priv_ot1_keygen(kappa, rng, n_override),
    verify=priv_ot1_verify,
    verify_token=priv_ot1_verify_token,
)


# The private hash-and-sign layers are the generic stack over the private
# one-bit operations; "public" key objects here hold private material.


def priv_ot_keygen(
    kappa: int,
    rng: Random,
    hash_variant: str = "sha256-256",
    n_override: int | None = None,
) -> tuple[OtPublicKey, OtSecretKey]:
    return ot_keygen(kappa, rng, hash_variant, PRIVATE_ONE_BIT, n_override)


priv_ot_token_gen = ot_token_gen
priv_ot_sign = ot_sign
priv_ot_verify = ot_verify
priv_ot_verify_token = ot_verify_token


def encode_priv_ot_key(key: OtPublicKey) -> bytes:
    """Canonical bytes of a private hash-and-sign key (this is secret
    material; it only ever travels encrypted)."""
    spaces = [encode_space(c.space) for c in key.otr.components]
    ids = [c.key_id.hex() for c in key.otr.components]
    return canonical_json(
        {"v": 1, "kind": "priv-ot-key", "s": key.s.hex(), "spaces": spaces, "ids": ids}
    )


def decode_priv_ot_key(raw: bytes) -> OtPublicKey:
    import json

    from .stack import OtrPublicKey

    try:
        obj = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError("undecodable private key blob") from exc
    if not isinstance(obj, dict) or obj.get("v") != 1 or obj.get("kind") != "priv-ot-key":
        raise DataError("not a private key blob")
    try:
        s = bytes.fromhex(obj["s"])
        spaces = decode_spaces(obj["spaces"])
        ids = [bytes.fromhex(i) for i in obj["ids"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("bad private key fields") from exc
    if len(spaces) != len(ids) or not spaces:
        raise DataError("bad private key component count")
    comps = tuple(PrivOt1Key(sp, kid) for sp, kid in zip(spaces, ids))
    return OtPublicKey(s, OtrPublicKey(comps, PRIVATE_ONE_BIT))


# ---------------------------------------------------------------------------
# transferable tokens: per-token keys under a long-lived MAC + cipher pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TmKey:
    """Long-lived secret: independent MAC and encryption keys plus the
    parameters used to mint per-token inner keys.  The last key blob opened
    under it is kept on it (``_open_key_blob``)."""

    mac_key: bytes
    enc_key: bytes
    kappa: int
    hash_variant: str
    n_override: int | None = None


@dataclass
class TmToken:
    key_blob: bytes  # encryption of the token's own verification key
    tag: bytes  # MAC over key_blob
    ot_token: OtToken


@dataclass(frozen=True)
class TmSignature:
    key_blob: bytes
    tag: bytes
    ot_sig: OtSignature


def tm_keygen(
    kappa: int,
    rng: Random,
    hash_variant: str = "sha256-256",
    n_override: int | None = None,
) -> TmKey:
    return TmKey(mac_keygen(kappa, rng), enc_keygen(kappa, rng), kappa, hash_variant, n_override)


def tm_token_gen(key: TmKey, rng: Random) -> TmToken:
    """Mint a token with its own fresh inner key, shipped encrypted+tagged."""
    inner_key, inner_sk = priv_ot_keygen(key.kappa, rng, key.hash_variant, key.n_override)
    blob = encrypt(key.enc_key, encode_priv_ot_key(inner_key), rng)
    tag = mac_tag(key.mac_key, blob)
    return TmToken(blob, tag, priv_ot_token_gen(inner_sk))


def tm_sign(doc: bytes, token: TmToken, rng: Random) -> TmSignature | None:
    """Sign and attach the token's encrypted verification key and its tag."""
    inner = priv_ot_sign(doc, token.ot_token, rng)
    if inner is None:
        return None
    return TmSignature(token.key_blob, token.tag, inner)


def _open_key_blob(
    key: TmKey, blob: bytes, tag: bytes, trace: list | None
) -> OtPublicKey | None:
    """Tag check strictly before any decryption; None means reject.

    Opening is deterministic in (key, blob, tag), so the last blob opened is
    kept on the key: a holder re-checking one credential would otherwise
    redo the same MAC + decrypt + parse each time.  Instrumented calls skip
    it so the recorded order stays honest.
    """
    asked = (blob, tag)
    last = key.__dict__.get("_opened")
    if trace is None and last is not None and last[0] == asked:
        return last[1]
    ok = mac_verify(key.mac_key, blob, tag)
    if trace is not None:
        trace.append(("mac", ok))
    inner_key: OtPublicKey | None
    if not ok:
        inner_key = None
    else:
        try:
            inner_key = decode_priv_ot_key(decrypt(key.enc_key, blob))
        except DataError:
            inner_key = None
        if trace is not None:
            trace.append(("decrypt", inner_key is not None))
    object.__setattr__(key, "_opened", (asked, inner_key))
    return inner_key


def tm_verify(key: TmKey, doc: bytes, sig: TmSignature, trace: list | None = None) -> bool:
    inner_key = _open_key_blob(key, sig.key_blob, sig.tag, trace)
    if inner_key is None:
        return False
    ok = priv_ot_verify(inner_key, doc, sig.ot_sig)
    if trace is not None:
        trace.append(("inner", ok))
    return ok


def tm_verify_token(
    key: TmKey, token: TmToken, rng: Random, trace: list | None = None
) -> tuple[bool, TmToken]:
    inner_key = _open_key_blob(key, token.key_blob, token.tag, trace)
    if inner_key is None:
        return False, token
    ok, _ = priv_ot_verify_token(inner_key, token.ot_token, rng)
    if trace is not None:
        trace.append(("inner", ok))
    return ok, token


def tm_revoke(key: TmKey, token: TmToken, rng: Random) -> bool:
    doc = random_document(key.kappa, rng)
    sig = tm_sign(doc, take_custody(token), rng)
    if sig is None:
        return False
    return tm_verify(key, doc, sig)
