"""Private keys for the generic stack, and transferable tokens built on them.

A private verification key is a keygen's secret key, held by the verifier:
each one-bit component holds its hidden subspace and answers its own
membership queries, with no oracle and no query accounting.  This module
wraps private hash-and-sign keys into transferable tokens: each token
carries its own single-use verification key, encrypted under a long-lived
secret and authenticated with a MAC, and verification always checks the
tag before decrypting anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .encoding import canonical_json, decode_spaces, encode_space, load_json
from .ot1 import Ot1SecretKey
from .primitives import (
    DataError,
    decrypt,
    enc_keygen,
    encrypt,
    mac_keygen,
    mac_tag,
    mac_verify,
)
from .stack import (
    OtKey,
    OtrKey,
    OtSignature,
    OtToken,
    ot_keygen,
    ot_sign,
    ot_token_gen,
    ot_verify,
    ot_verify_token,
    random_document,
    revoke,
)

__all__ = [
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


def encode_priv_ot_key(key: OtKey) -> bytes:
    """Canonical bytes of a private hash-and-sign key (this is secret
    material; it only ever travels encrypted)."""
    spaces = [encode_space(c.space) for c in key.otr.components]
    ids = [c.key_id.hex() for c in key.otr.components]
    return canonical_json(
        {"v": 1, "kind": "priv-ot-key", "s": key.s.hex(), "spaces": spaces, "ids": ids}
    )


def decode_priv_ot_key(raw: bytes) -> OtKey:
    obj = load_json(raw)
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
    comps = tuple(Ot1SecretKey(sp, kid) for sp, kid in zip(spaces, ids))
    return OtKey(s, OtrKey(comps))


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
    """Mint a token with its own fresh inner key, shipped encrypted+tagged.
    The inner secret key is both the blob's verification key and the
    signing key."""
    _, inner_key = ot_keygen(key.kappa, rng, key.hash_variant, key.n_override)
    blob = encrypt(key.enc_key, encode_priv_ot_key(inner_key), rng)
    tag = mac_tag(key.mac_key, blob)
    return TmToken(blob, tag, ot_token_gen(inner_key))


def tm_sign(doc: bytes, token: TmToken, rng: Random) -> TmSignature | None:
    """Sign and attach the token's encrypted verification key and its tag."""
    inner = ot_sign(doc, token.ot_token, rng)
    if inner is None:
        return None
    return TmSignature(token.key_blob, token.tag, inner)


def _open_key_blob(key: TmKey, blob: bytes, tag: bytes) -> OtKey | None:
    """Tag check strictly before any decryption; None means reject.

    Opening is deterministic in (key, blob, tag), so the last blob opened is
    kept on the key: a holder re-checking one credential would otherwise
    redo the same MAC + decrypt + parse each time.
    """
    asked = (blob, tag)
    last = key.__dict__.get("_opened")
    if last is not None and last[0] == asked:
        return last[1]
    inner_key: OtKey | None = None
    if mac_verify(key.mac_key, blob, tag):
        try:
            inner_key = decode_priv_ot_key(decrypt(key.enc_key, blob))
        except DataError:
            pass
    object.__setattr__(key, "_opened", (asked, inner_key))
    return inner_key


def tm_verify(key: TmKey, doc: bytes, sig: TmSignature) -> bool:
    inner_key = _open_key_blob(key, sig.key_blob, sig.tag)
    return inner_key is not None and ot_verify(inner_key, doc, sig.ot_sig)


def tm_verify_token(key: TmKey, token: TmToken, rng: Random) -> bool:
    inner_key = _open_key_blob(key, token.key_blob, token.tag)
    return inner_key is not None and ot_verify_token(inner_key, token.ot_token, rng)


def tm_revoke(key: TmKey, token: TmToken, rng: Random) -> bool:
    return revoke(tm_sign, tm_verify, key, random_document(key.kappa, rng), token, rng)
