"""Decoder fuzzing: every decoder raises only DataError on untrusted input,
every verifier answers a bool on whatever the decoders accept, and every
container kind survives encode -> decode unchanged.

The mutation properties start from valid containers at toy sizes and
replace or drop one node anywhere in the JSON tree, so they reach the
nested decoders (spaces, states, vectors) as well as the envelope.
"""

import json
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtsl.container import (
    CONTAINER_KINDS,
    decode_check,
    decode_coin,
    decode_public_key,
    decode_secret_key,
    decode_signature,
    decode_token,
    encode_check,
    encode_coin,
    encode_public_key,
    encode_secret_key,
    encode_signature,
    encode_token,
    unwrap_container,
    wrap_container,
)
from qtsl.encoding import (
    decode_space,
    decode_state,
    decode_vector,
    encode_space,
    encode_state,
    encode_vector,
)
from qtsl.games import game_testability, ts_handle
from qtsl.money import SignFailedError, check_verify, check_write, coin_mint, coin_verify
from qtsl.primitives import DataError, ds_keygen
from qtsl.privts import decode_priv_ot_key
from qtsl.stack import (
    TsPublicKey,
    TsSecretKey,
    ts_keygen,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
)

DECODERS = {
    "ts-public-key": decode_public_key,
    "ts-secret-key": decode_secret_key,
    "token": decode_token,
    "signature": decode_signature,
    "check": decode_check,
    "coin": decode_coin,
    "report": unwrap_container,
}
ENCODERS = {
    "ts-public-key": encode_public_key,
    "ts-secret-key": encode_secret_key,
    "token": encode_token,
    "signature": encode_signature,
    "check": encode_check,
    "coin": encode_coin,
    "report": lambda kind_payload: wrap_container(*kind_payload),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _decodes_or_data_error(decode, data) -> bool:
    """True if ``decode`` accepted ``data``; any exception but DataError fails."""
    try:
        decode(data)
    except DataError:
        return False
    return True


PK, SK = ts_keygen(16, Random(7), "toy-8", None, 8)


def _valid_containers() -> dict[str, list[bytes]]:
    """One or more valid containers of every kind, at toy sizes."""
    pk, sk = PK, SK
    token = ts_token_gen(sk, Random(1))
    spent = ts_token_gen(sk, Random(2))
    sig = next(s for s in (ts_sign(b"doc", ts_token_gen(sk, Random(9)), Random(i)) for i in range(60)) if s)
    ts_sign(b"doc", spent, Random(0))
    check = None
    for seed in range(60):
        try:
            check = check_write(coin_mint(sk, Random(seed)), "alice", 3, 777, Random(seed))
            break
        except SignFailedError:
            continue
    chain_sk = TsSecretKey(ds_keygen(16, Random(4), "hash-chain", capacity_log2=2)[1], 16, "toy-8", 8)
    report = game_testability(ts_handle(), 2, 3, 1)
    return {
        "ts-public-key": [encode_public_key(pk)],
        "ts-secret-key": [encode_secret_key(sk), encode_secret_key(chain_sk)],
        "token": [encode_token(token), encode_token(spent)],
        "signature": [encode_signature(sig)],
        "check": [encode_check(check)],
        "coin": [encode_coin(coin_mint(sk, Random(3)))],
        "report": [wrap_container("report", json.loads(report.to_json()))],
    }


VALID = _valid_containers()
SAMPLES = [(kind, blob) for kind, blobs in VALID.items() for blob in blobs]


def _paths(node, prefix=()):
    """Every path (tuple of keys and indices) below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("kind", sorted(CONTAINER_KINDS))
def test_valid_samples_decode(kind):
    for blob in VALID[kind]:
        assert _decodes_or_data_error(DECODERS[kind], blob)


# every decoder of untrusted bytes: the containers and the private key blob
# a transferable token carries encrypted
BYTES_DECODERS = dict(DECODERS, **{"priv-ot-key": decode_priv_ot_key})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BYTES_DECODERS)), st.binary(max_size=200) | st.text(max_size=200).map(str.encode))
@example("token", b"[" * 100_000)  # nesting deeper than the JSON parser's recursion limit
@example("token", b'{"magic": ' + b"1" * 5000 + b"}")  # past the int-string length limit
@example("report", b"\xff\xfe")
@example("priv-ot-key", b"[" * 100_000)
@example("priv-ot-key", b"1" * 5000)
def test_decoders_raise_only_data_error_on_bytes(kind, data):
    _decodes_or_data_error(BYTES_DECODERS[kind], data)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DECODERS)), _JSON)
def test_decoders_raise_only_data_error_on_any_payload(kind, payload):
    """A well-formed envelope of the right kind around arbitrary JSON."""
    blob = json.dumps(
        {"magic": "QTSL", "version": 1, "kind": kind, "secrecy": CONTAINER_KINDS[kind],
         "payload": payload}
    ).encode()
    _decodes_or_data_error(DECODERS[kind], blob)


def _verifies(kind, value):
    """The verifier's verdict on a decoded container, or None for kinds
    that have no verifier."""
    if kind == "token":
        return ts_verify_token(PK, value, Random(0))
    if kind == "signature":
        return ts_verify(PK, b"doc", value)
    if kind == "check":
        return check_verify(PK, value)
    if kind == "coin":
        return coin_verify(PK, value, Random(0))
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SAMPLES), st.data())
def test_decoders_raise_only_data_error_on_mutated_containers(sample, data):
    """One node anywhere in a valid container replaced by arbitrary JSON, or
    dropped (``...``), either raises DataError or decodes to a value that
    encodes again and that its verifier answers with a bool."""
    kind, blob = sample
    obj = json.loads(blob)
    path = data.draw(st.sampled_from(list(_paths(obj))))
    value = data.draw(_JSON | st.just(...))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        decoded = DECODERS[kind](json.dumps(obj).encode())
    except DataError:
        return
    ENCODERS[kind](decoded)  # whatever decodes can be written back
    assert isinstance(_verifies(kind, decoded), (bool, type(None)))


def test_token_state_of_another_length_is_malformed():
    """A component state whose length differs from its public component
    is rejected by the decoder; the projection could not run on it."""
    obj = json.loads(VALID["token"][0])
    state = obj["payload"]["tokens"][0]["state"]
    obj["payload"]["tokens"][0]["state"] = {"kind": "basis", "n": 4, "vector": "0101"}
    with pytest.raises(DataError):
        decode_token(json.dumps(obj).encode())
    obj["payload"]["tokens"][0]["state"] = state
    assert ts_verify_token(PK, decode_token(json.dumps(obj).encode()), Random(0))


@pytest.mark.parametrize("count", [3, 7, 9, 16])
def test_token_with_another_component_count_is_malformed(count):
    """A token must carry one component token per public component (8 at
    toy-8); the decoder does not cut the longer list short."""
    obj = json.loads(VALID["token"][0])
    tokens = obj["payload"]["tokens"]
    assert len(tokens) == 8
    obj["payload"]["tokens"] = (tokens * 2)[:count]
    with pytest.raises(DataError, match="component tokens"):
        decode_token(json.dumps(obj).encode())


FIELD_CODECS = [
    (decode_vector, encode_vector),
    (decode_space, encode_space),
    (decode_state, encode_state),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELD_CODECS), _JSON)
@example(FIELD_CODECS[1], {"n": True, "rows": ["1"]})  # a bool is no length
@example(FIELD_CODECS[2], {"kind": "unsupported", "n": True})
def test_field_decoders_raise_only_data_error(codec, obj):
    """Arbitrary JSON either raises DataError or decodes to a value of an
    int length that encodes again."""
    decode, encode = codec
    try:
        value = decode(obj)
    except DataError:
        return
    encode(value)
    assert type(value.n if decode is decode_vector else value.ambient_n) is int


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["ed25519", "hash-chain"]))
def test_every_container_kind_roundtrips(seed, ds_algo):
    """decode(encode(x)) encodes to the same bytes, for every kind; tokens
    and coins fresh, spent, and spent then rejected by a check (unsupported
    states)."""
    rng = Random(seed)
    ds_pk, ds_sk = ds_keygen(16, rng, ds_algo, capacity_log2=2)
    pk, sk = TsPublicKey(ds_pk, 16, "toy-8", 8), TsSecretKey(ds_sk, 16, "toy-8", 8)
    tokens = [ts_token_gen(sk, rng) for _ in range(2)]
    coin = coin_mint(sk, rng)
    blobs = {
        "ts-public-key": [encode_public_key(pk)],
        "ts-secret-key": [encode_secret_key(sk)],  # signing state advanced
        "coin": [encode_coin(coin)],
        "report": [wrap_container("report", {"seed": seed, "rate": repr(rng.random())})],
    }
    sig = ts_sign(b"doc", tokens[1], rng)
    blobs["signature"] = [] if sig is None else [encode_signature(sig)]
    blobs["token"] = [encode_token(tokens[1])]
    ts_verify_token(pk, tokens[1], rng)
    blobs["token"] += [encode_token(t) for t in tokens]
    try:
        blobs["check"] = [encode_check(check_write(coin, "bob", 1, seed, rng))]
    except SignFailedError:
        blobs["check"] = []
    blobs["coin"].append(encode_coin(coin))
    for kind, kind_blobs in blobs.items():
        for blob in kind_blobs:
            assert ENCODERS[kind](DECODERS[kind](blob)) == blob
