"""Unit tests for the private-verification token schemes."""

from random import Random

import pytest

from qtsl.container import encode_token
from qtsl.f2lin import F2Vector, dual, member
from qtsl.games import priv_ot1_handle
from qtsl.ot1 import (
    TokenSpentError,
    ot1_keygen,
    ot1_revoke,
    ot1_sign,
    ot1_token_gen,
    ot1_verify,
    ot1_verify_token,
)
from qtsl.primitives import DataError
from qtsl.privts import (
    decode_priv_ot_key,
    encode_priv_ot_key,
    tm_keygen,
    tm_revoke,
    tm_sign,
    tm_token_gen,
    tm_verify,
    tm_verify_token,
)
from qtsl.stack import (
    OtSignature,
    TsToken,
    encode_ot_public,
    ot_keygen,
    ot_sign,
    ot_token_gen,
    ot_verify,
    ot_verify_token,
)


# ---------------------------------------------------------------------------
# one-bit private scheme
# ---------------------------------------------------------------------------


def test_priv_keygen_returns_same_key_twice():
    vk, sk = priv_ot1_handle(16, 8).keygen(Random(0))
    assert vk is sk  # verification reads the same secret


def test_priv_sign_verify_both_bits():
    _, key = ot1_keygen(16, Random(1), n_override=8)
    rng = Random(2)
    d = dual(key.space)
    for _ in range(40):
        token = ot1_token_gen(key)
        alpha = rng.getrandbits(1)
        sig = ot1_sign(alpha, token, rng)
        if sig is None:
            continue
        vec = sig.sig
        assert member(d if alpha else key.space, vec)
        assert ot1_verify(key, alpha, vec)
        assert token.lifecycle == "spent"


def test_priv_sign_twice_raises():
    _, key = ot1_keygen(16, Random(3), n_override=8)
    token = ot1_token_gen(key)
    rng = Random(4)
    ot1_sign(0, token, rng)
    with pytest.raises(TokenSpentError):
        ot1_sign(0, token, rng)
    with pytest.raises(ValueError):
        ot1_sign(5, ot1_token_gen(key), rng)


def test_priv_verify_rejects_zero_and_outside():
    _, key = ot1_keygen(16, Random(5), n_override=8)
    assert not ot1_verify(key, 0, F2Vector(8, 0))
    outside = next(
        F2Vector(8, x) for x in range(1, 256) if not member(key.space, F2Vector(8, x))
    )
    assert not ot1_verify(key, 0, outside)


def test_priv_verify_token_and_revoke():
    _, key = ot1_keygen(16, Random(6), n_override=8)
    rng = Random(7)
    token = ot1_token_gen(key)
    for _ in range(10):
        ok = ot1_verify_token(key, token, rng)
        assert ok
    accepted = sum(
        ot1_revoke(key, ot1_token_gen(key), rng) for _ in range(200)
    )
    assert accepted > 160  # failure only on the 1/16 zero outcome


def test_priv_wrong_key_rejects_mostly():
    _, key_a = ot1_keygen(16, Random(8), n_override=8)
    _, key_b = ot1_keygen(16, Random(9), n_override=8)
    rng = Random(10)
    hits = 0
    for _ in range(200):
        sig = ot1_sign(0, ot1_token_gen(key_a), rng)
        if sig is not None and ot1_verify(key_b, 0, sig.sig):
            hits += 1
    # cross acceptance is the overlap fraction, far below half
    assert hits < 60


# ---------------------------------------------------------------------------
# private hash-and-sign and key blob codec
# ---------------------------------------------------------------------------


def test_priv_ot_roundtrip():
    rng = Random(11)
    _, key = ot_keygen(16, rng, hash_variant="toy-8", n_override=8)
    sig = None
    for _ in range(40):
        sig = ot_sign(b"den", ot_token_gen(key), rng)
        if sig is not None:
            break
    assert sig is not None
    assert ot_verify(key, b"den", sig)
    assert not ot_verify(key, b"dew", sig)
    ok = ot_verify_token(key, ot_token_gen(key), rng)
    assert ok


def test_priv_key_blob_roundtrip():
    rng = Random(12)
    _, key = ot_keygen(16, rng, hash_variant="toy-8", n_override=8)
    raw = encode_priv_ot_key(key)
    back = decode_priv_ot_key(raw)
    assert back.s == key.s
    assert len(back.otr.components) == len(key.otr.components)
    for a, b in zip(back.otr.components, key.otr.components):
        assert a.space == b.space and a.key_id == b.key_id


def test_private_key_reaches_bytes_only_encrypted(tmp_path):
    """A hash-and-sign key over secret components has no public encoding:
    the public encoder reads each component as a membership oracle, so both
    it and a token container built over such a key raise before any byte
    is written.  The key's only codec is the encrypted key blob."""
    rng = Random(31)
    _, key = ot_keygen(16, rng, hash_variant="toy-8", n_override=8)
    out = tmp_path / "token.qtsl"
    for k in (key, decode_priv_ot_key(encode_priv_ot_key(key))):
        with pytest.raises(AttributeError):
            encode_ot_public(k)
        with pytest.raises(AttributeError):
            out.write_bytes(encode_token(TsToken(k, b"", ot_token_gen(k))))
        assert not out.exists()


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"\xff\xfe",
        b"{}",
        b'{"v":1,"kind":"priv-ot-key","s":"zz","spaces":[],"ids":[]}',
        b'{"v":1,"kind":"priv-ot-key","s":"00","spaces":[],"ids":[]}',
        b'{"v":2,"kind":"priv-ot-key"}',
    ],
)
def test_priv_key_blob_rejects(raw):
    with pytest.raises(DataError):
        decode_priv_ot_key(raw)


# ---------------------------------------------------------------------------
# transferable tokens under MAC + cipher
# ---------------------------------------------------------------------------


def tm_setup(seed):
    rng = Random(seed)
    key = tm_keygen(16, rng, hash_variant="toy-8", n_override=8)
    return key, rng


def test_tm_roundtrip():
    key, rng = tm_setup(13)
    sig = None
    for _ in range(40):
        sig = tm_sign(b"move 7 units", tm_token_gen(key, rng), rng)
        if sig is not None:
            break
    assert sig is not None
    assert tm_verify(key, b"move 7 units", sig)
    assert not tm_verify(key, b"move 9 units", sig)


def _tm_signature(key, rng):
    """A signature on b"d" from the first fresh token that signs."""
    sig = None
    while sig is None:
        sig = tm_sign(b"d", tm_token_gen(key, rng), rng)
    return sig


def test_tm_trace_tag_before_decrypt(record_tm_steps):
    key, rng = tm_setup(14)
    sig = _tm_signature(key, rng)
    steps = record_tm_steps()
    assert tm_verify(key, b"d", sig)
    assert steps == [("mac", True), ("decrypt", True), ("inner", True)]


def test_tm_tampered_blob_fails_before_decrypt(record_tm_steps):
    key, rng = tm_setup(15)
    sig = _tm_signature(key, rng)
    from qtsl.privts import TmSignature

    bad = TmSignature(sig.key_blob[:-1] + bytes([sig.key_blob[-1] ^ 1]), sig.tag, sig.ot_sig)
    steps = record_tm_steps()
    assert not tm_verify(key, b"d", bad)
    assert steps == [("mac", False)]  # never reached the cipher


def test_tm_opens_each_blob_once_and_never_decrypts_a_bad_tag(record_tm_steps):
    """The last blob opened is kept on the key, so re-verifying decrypts
    nothing; the kept blob answers only for its own (blob, tag) pair, and a
    blob whose tag fails never reaches the cipher."""
    import dataclasses

    key, rng = tm_setup(21)
    sig = _tm_signature(key, rng)
    steps = record_tm_steps()
    assert tm_verify(key, b"d", sig)
    assert tm_verify(key, b"d", sig)
    assert steps == [("mac", True), ("decrypt", True), ("inner", True), ("inner", True)]
    for bad in (
        dataclasses.replace(sig, tag=bytes([sig.tag[0] ^ 1]) + sig.tag[1:]),
        dataclasses.replace(sig, key_blob=sig.key_blob[:-1] + bytes([sig.key_blob[-1] ^ 1])),
    ):
        steps.clear()
        assert not tm_verify(key, b"d", bad)
        assert not tm_verify(key, b"d", bad)
        assert steps == [("mac", False)]
    steps.clear()
    assert tm_verify(key, b"d", sig)  # the good blob is opened again, once
    assert tm_verify(key, b"d", sig)
    assert [name for name, _ in steps] == ["mac", "decrypt", "inner", "inner"]


def test_tm_wrong_longlived_key_rejects():
    key_a, rng = tm_setup(16)
    key_b = tm_keygen(16, Random(17), hash_variant="toy-8", n_override=8)
    sig = None
    for _ in range(40):
        sig = tm_sign(b"d", tm_token_gen(key_a, rng), rng)
        if sig is not None:
            break
    for _ in range(2):
        assert tm_verify(key_a, b"d", sig)
        assert not tm_verify(key_b, b"d", sig)


def test_tm_verify_token_and_revoke(record_tm_steps):
    key, rng = tm_setup(18)
    token = tm_token_gen(key, rng)
    steps = record_tm_steps()
    ok = tm_verify_token(key, token, rng)
    assert ok and steps == [("mac", True), ("decrypt", True), ("inner", True)]
    accepted = sum(tm_revoke(key, tm_token_gen(key, rng), rng) for _ in range(30))
    assert accepted >= 15  # toy-8 at n=8: success (15/16)^8 ~ 0.6


def test_tm_revoke_measures_a_spent_token():
    key, rng = tm_setup(20)
    results = []
    for _ in range(10):
        token = tm_token_gen(key, rng)
        tm_sign(b"spent", token, rng)
        results.append(tm_revoke(key, token, rng))
    assert results == [False] * 10


def test_tm_signature_is_selfcontained_for_verifier():
    """The verifier needs only its long-lived key and the signature; the
    minting-time token object is not consulted."""
    key, rng = tm_setup(19)
    sig = None
    for _ in range(40):
        sig = tm_sign(b"doc", tm_token_gen(key, rng), rng)
        if sig is not None:
            break
    import pickle

    clone = pickle.loads(pickle.dumps(sig))
    assert tm_verify(key, b"doc", clone)


def test_priv_verify_rejects_wrong_length_vector():
    _, key = ot1_keygen(16, Random(6), n_override=8)
    inside = next(v for v in key.space.elements() if not v.is_zero())
    for wrong in (F2Vector(6, inside.value >> 2), F2Vector(10, inside.value << 2)):
        assert ot1_verify(key, 0, wrong) is False
        assert ot1_verify(key, 1, wrong) is False


def test_tm_verify_rejects_wrong_length_vectors():
    import dataclasses

    key, rng = tm_setup(14)
    sig = None
    for _ in range(40):
        sig = tm_sign(b"doc", tm_token_gen(key, rng), rng)
        if sig is not None:
            break
    assert sig is not None and tm_verify(key, b"doc", sig)
    short = tuple(F2Vector(v.n - 2, v.value >> 2) for v in sig.ot_sig.sigs)
    bad = dataclasses.replace(sig, ot_sig=OtSignature(short))
    assert tm_verify(key, b"doc", bad) is False
