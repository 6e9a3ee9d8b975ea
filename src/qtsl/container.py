"""The ``QTSL`` container format: the envelope and the payload codecs.

Every file the CLI reads or writes is a *container*: canonical JSON with a
magic string, a format version, a kind tag, and a secrecy label.  The label
records what the payload would be in a real deployment:

* ``PUBLIC`` — safe to hand anyone (long-lived public keys, reports);
* ``SECRET`` — the holder's classical secret material;
* ``SIMULATION_SECRET`` — data the abstraction seals (hidden subspaces
  inside serialized oracles, token state vectors) that only exists in the
  clear because this package simulates the quantum side classically.

Untrusted input is expected: every decoder validates shape and raises
DataError, so a verifier returns a bool on anything a decoder accepts.
"""

from __future__ import annotations

from . import money  # lazy: only the coin and check codecs run it
from .encoding import (
    canonical_json,
    decode_spaces,
    decode_states,
    decode_vectors,
    encode_space,
    encode_state,
    encode_vector,
    load_json,
)
from .ot1 import MembershipOracle, Ot1Token, _hidden_space
from .primitives import (
    HASH_VARIANTS,
    DataError,
    DsPublicKey,
    DsSecretKey,
    hash_chain_secret_key,
    hash_chain_tree,
)
from .qsim import CosetState
from .stack import (
    OtKey,
    OtrKey,
    OtrToken,
    OtSignature,
    OtToken,
    TsPublicKey,
    TsSecretKey,
    TsSignature,
    TsToken,
    _token_length,
)

__all__ = [
    "MAGIC",
    "CONTAINER_VERSION",
    "CONTAINER_KINDS",
    "wrap_container",
    "unwrap_container",
    "encode_public_key",
    "decode_public_key",
    "encode_secret_key",
    "decode_secret_key",
    "encode_token",
    "decode_token",
    "encode_signature",
    "decode_signature",
    "encode_check",
    "decode_check",
    "encode_coin",
    "decode_coin",
]

MAGIC = "QTSL"
CONTAINER_VERSION = 1

CONTAINER_KINDS = {
    "ts-public-key": "PUBLIC",
    "ts-secret-key": "SECRET",
    "token": "SIMULATION_SECRET",
    "signature": "SIMULATION_SECRET",
    "check": "SIMULATION_SECRET",
    "coin": "SIMULATION_SECRET",
    "report": "PUBLIC",
}


def wrap_container(kind: str, payload: dict) -> bytes:
    if kind not in CONTAINER_KINDS:
        raise ValueError(f"unknown container kind {kind!r}")
    return canonical_json(
        {
            "magic": MAGIC,
            "version": CONTAINER_VERSION,
            "kind": kind,
            "secrecy": CONTAINER_KINDS[kind],
            "payload": payload,
        }
    )


def unwrap_container(data: bytes, kind: str | None = None) -> tuple[str, dict]:
    obj = load_json(data)
    if not isinstance(obj, dict):
        raise DataError("container must be a JSON object")
    if obj.get("magic") != MAGIC:
        raise DataError("bad magic")
    version = obj.get("version")
    if type(version) is not int or version != CONTAINER_VERSION:
        raise DataError(f"unsupported container version {version!r}")
    got = obj.get("kind")
    if not isinstance(got, str) or got not in CONTAINER_KINDS:
        raise DataError(f"unknown container kind {got!r}")
    if obj.get("secrecy") != CONTAINER_KINDS[got]:
        raise DataError("secrecy label does not match the container kind")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise DataError("container payload must be an object")
    if kind is not None and got != kind:
        raise DataError(f"container holds {got!r}, expected {kind!r}")
    return got, payload


# ---------------------------------------------------------------------------
# payload codecs (strict: anything off-shape raises DataError)
# ---------------------------------------------------------------------------


def _need(payload: dict, key: str, typ: type):
    if key not in payload:
        raise DataError(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise DataError(f"field {key!r} must be {typ.__name__}")
    return value


def _opt_int(payload: dict, key: str) -> int | None:
    return None if payload.get(key) is None else _need(payload, key, int)


def _hex(payload: dict, key: str) -> bytes:
    raw = _need(payload, key, str)
    try:
        return bytes.fromhex(raw)
    except ValueError as exc:
        raise DataError(f"field {key!r} is not hex") from exc


def _kappa(kappa: int) -> int:
    if not 1 <= kappa < 1 << 32:  # what keygen accepts and a hash index can carry
        raise DataError(f"kappa {kappa} out of range")
    return kappa


def _enc_ot_public(pub: OtKey) -> dict:
    return {
        "s": pub.s.hex(),
        "components": [
            {"space": encode_space(_hidden_space(c)), "key_id": c.key_id.hex()}
            for c in pub.otr.components
        ],
    }


def _dec_ot_public(payload: dict) -> OtKey:
    comps = _need(payload, "components", list)
    if not comps:
        raise DataError("public key needs at least one component")
    for c in comps:
        if not isinstance(c, dict):
            raise DataError("component must be an object")
    spaces = decode_spaces([_need(c, "space", dict) for c in comps])
    oracles = tuple(MembershipOracle(sp, _hex(c, "key_id")) for sp, c in zip(spaces, comps))
    return OtKey(_hex(payload, "s"), OtrKey(oracles))


def encode_public_key(pk: TsPublicKey) -> bytes:
    payload = {
        "algo": pk.ds_pk.algo,
        "material": pk.ds_pk.material.hex(),
        "kappa": pk.kappa,
        "hash_variant": pk.hash_variant,
        "n": pk.n_override,
    }
    return wrap_container("ts-public-key", payload)


def _key_params(payload: dict) -> tuple[str, int, str, int | None]:
    """The fields a public and a secret key share, checked: (algo, kappa,
    hash variant, n), with n a length that keygen would take."""
    algo = _need(payload, "algo", str)
    if algo not in ("ed25519", "hash-chain"):
        raise DataError(f"unknown signature algorithm {algo!r}")
    hash_variant = _need(payload, "hash_variant", str)
    if hash_variant not in HASH_VARIANTS:
        raise DataError("unknown hash variant")
    n = _token_length(_opt_int(payload, "n"))
    return algo, _kappa(_need(payload, "kappa", int)), hash_variant, n


def decode_public_key(data: bytes) -> TsPublicKey:
    _, payload = unwrap_container(data, "ts-public-key")
    algo, *params = _key_params(payload)
    return TsPublicKey(DsPublicKey(algo, _hex(payload, "material")), *params)


def encode_secret_key(sk: TsSecretKey) -> bytes:
    payload = {
        "algo": sk.ds_sk.algo,
        "material": sk.ds_sk.material.hex(),
        "next_leaf": sk.ds_sk.next_leaf,
        "capacity_log2": sk.ds_sk.capacity_log2,
        "kappa": sk.kappa,
        "hash_variant": sk.hash_variant,
        "n": sk.n_override,
    }
    if sk.ds_sk.algo == "hash-chain":
        # the leaf level saves every later mint from rehashing all leaves
        leaves, root = hash_chain_tree(sk.ds_sk)
        payload["leaves"] = leaves.hex()
        payload["root"] = root.hex()
    return wrap_container("ts-secret-key", payload)


def decode_secret_key(data: bytes) -> TsSecretKey:
    _, payload = unwrap_container(data, "ts-secret-key")
    algo, *params = _key_params(payload)
    material = _hex(payload, "material")
    next_leaf = _need(payload, "next_leaf", int)
    capacity_log2 = _need(payload, "capacity_log2", int)
    if algo == "hash-chain":
        # keys written before the leaf level was stored carry neither field
        stored = [_hex(payload, k) if k in payload else None for k in ("leaves", "root")]
        ds = hash_chain_secret_key(material, next_leaf, capacity_log2, *stored)
    elif (next_leaf, capacity_log2) != (0, 0) or len(material) != 32:
        raise DataError("an ed25519 key is 32 bytes and carries no leaf state")
    else:
        ds = DsSecretKey(algo, material)
    return TsSecretKey(ds, *params)


def _enc_ot1_token(tok: Ot1Token) -> dict:
    return {
        "state": encode_state(tok.state),
        "key_id": tok.key_id.hex(),
        "lifecycle": tok.lifecycle,
    }


def _dec_ot1_token(payload: dict, state: CosetState) -> Ot1Token:
    lifecycle = _need(payload, "lifecycle", str)
    if lifecycle not in ("fresh", "spent"):
        raise DataError(f"bad lifecycle {lifecycle!r}")
    return Ot1Token(state, _hex(payload, "key_id"), lifecycle)


def _token_payload(token: TsToken) -> dict:
    return {
        "ot_public": _enc_ot_public(token.ot_public),
        "chain_sig": token.chain_sig.hex(),
        "tokens": [_enc_ot1_token(t) for t in token.ot_token.otr.tokens],
    }


def _token_from_payload(payload: dict) -> TsToken:
    ot_public = _dec_ot_public(_need(payload, "ot_public", dict))
    comps = [_hidden_space(pk) for pk in ot_public.otr.components]
    objs = _need(payload, "tokens", list)
    if len(objs) != len(comps):
        raise DataError(f"token has {len(objs)} component tokens, its key {len(comps)}")
    for t in objs:
        if not isinstance(t, dict):
            raise DataError("token component must be an object")
    # a fresh token's state spaces are its public components' spaces
    states = decode_states([_need(t, "state", dict) for t in objs], comps)
    toks = [_dec_ot1_token(t, state) for t, state in zip(objs, states)]
    for space, tok in zip(comps, toks):
        if tok.state.ambient_n != space.ambient_n:
            raise DataError("token state length disagrees with its public component")
    inner = OtToken(ot_public.s, OtrToken(toks))
    return TsToken(ot_public, _hex(payload, "chain_sig"), inner)


def _sig_payload(sig: TsSignature) -> dict:
    return {
        "ot_public": _enc_ot_public(sig.ot_public),
        "chain_sig": sig.chain_sig.hex(),
        "sigs": [encode_vector(v) for v in sig.ot_sig.sigs],
    }


def _sig_from_payload(payload: dict) -> TsSignature:
    vecs = decode_vectors(_need(payload, "sigs", list))
    return TsSignature(
        _dec_ot_public(_need(payload, "ot_public", dict)),
        _hex(payload, "chain_sig"),
        OtSignature(tuple(vecs)),
    )


def encode_token(token: TsToken) -> bytes:
    return wrap_container("token", _token_payload(token))


def decode_token(data: bytes) -> TsToken:
    return _token_from_payload(unwrap_container(data, "token")[1])


def encode_signature(sig: TsSignature) -> bytes:
    return wrap_container("signature", _sig_payload(sig))


def decode_signature(data: bytes) -> TsSignature:
    return _sig_from_payload(unwrap_container(data, "signature")[1])


def encode_check(check: money.Check) -> bytes:
    payload = {
        "payee": check.payee,
        "branch_id": check.branch_id,
        "timestamp": check.timestamp,
        "nonce": check.nonce.hex(),
        "signature": _sig_payload(check.signature),
    }
    return wrap_container("check", payload)


def decode_check(data: bytes) -> money.Check:
    _, payload = unwrap_container(data, "check")
    fields = (
        _need(payload, "payee", str),
        _need(payload, "branch_id", int),
        _need(payload, "timestamp", int),
        _hex(payload, "nonce"),
    )
    try:  # the fields must make the document the signature covers
        money.canonical_check_document(*fields)
    except ValueError as exc:
        raise DataError(f"bad check: {exc}") from exc
    return money.Check(*fields, _sig_from_payload(_need(payload, "signature", dict)))


def encode_coin(coin: money.Coin) -> bytes:
    return wrap_container("coin", {"serial": coin.serial, "token": _token_payload(coin.token)})


def decode_coin(data: bytes) -> money.Coin:
    _, payload = unwrap_container(data, "coin")
    token = _token_from_payload(_need(payload, "token", dict))
    return money.Coin(_need(payload, "serial", str), token)
