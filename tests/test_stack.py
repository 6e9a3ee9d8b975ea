"""Unit tests for the product / hash-and-sign / chain-signing layers."""

from random import Random

import pytest

from qtsl.f2lin import F2Vector
from qtsl.ot1 import TokenSpentError
from qtsl.primitives import hash_eval
from qtsl.stack import (
    OtSignature,
    TsSignature,
    encode_ot_public,
    ot_keygen,
    ot_sign,
    ot_token_gen,
    ot_verify,
    ot_verify_token,
    otr_keygen,
    otr_sign,
    otr_token_gen,
    otr_verify,
    otr_verify_token,
    random_document,
    ts_keygen,
    ts_revoke,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
    verify_k,
    verify_prime_k,
)


def retry_sign(sign, arg, sk_to_token, sk, rng, attempts=60):
    """Honest signing can fail on a zero outcome; retry with fresh tokens."""
    for _ in range(attempts):
        sig = sign(arg, sk_to_token(sk), rng)
        if sig is not None:
            return sig
    raise AssertionError("signing kept failing; astronomically unlikely")


# ---------------------------------------------------------------------------
# r-fold product
# ---------------------------------------------------------------------------


def test_otr_roundtrip():
    rng = Random(0)
    pub, sec = otr_keygen(16, 4, rng, n_override=8)
    assert pub.r == 4 and sec.r == 4
    sig = retry_sign(otr_sign, "0110", otr_token_gen, sec, rng)
    assert otr_verify(pub, "0110", sig)
    assert not otr_verify(pub, "0111", sig)
    assert not otr_verify(pub, "011", sig)
    assert not otr_verify(pub, "0110", "garbage")


def test_otr_alpha_validation():
    rng = Random(1)
    _, sec = otr_keygen(16, 3, rng, n_override=4)
    with pytest.raises(ValueError):
        otr_sign("01", otr_token_gen(sec), rng)
    with pytest.raises(ValueError):
        otr_sign("01x", otr_token_gen(sec), rng)
    with pytest.raises(ValueError):
        otr_keygen(16, 0, rng)


def test_otr_consumes_all_components():
    rng = Random(2)
    _, sec = otr_keygen(16, 3, rng, n_override=8)
    token = otr_token_gen(sec)
    otr_sign("010", token, rng)
    with pytest.raises(TokenSpentError):
        otr_sign("010", token, rng)


def test_otr_signature_reuse_on_other_doc_fails():
    rng = Random(3)
    pub, sec = otr_keygen(16, 4, rng, n_override=8)
    sig = retry_sign(otr_sign, "0000", otr_token_gen, sec, rng)
    forged = OtSignature(sig.sigs)
    assert not otr_verify(pub, "1111", forged)


def test_otr_verify_token_accepts_fresh():
    rng = Random(4)
    pub, sec = otr_keygen(16, 4, rng, n_override=8)
    token = otr_token_gen(sec)
    ok = otr_verify_token(pub, token, rng)
    assert ok
    # and the token still signs afterwards
    sig = otr_sign("1010", token, rng)
    assert sig is None or otr_verify(pub, "1010", sig)


def test_otr_verify_token_wrong_length():
    rng = Random(5)
    pub, _ = otr_keygen(16, 4, rng, n_override=8)
    _, other = otr_keygen(16, 3, rng, n_override=8)
    ok = otr_verify_token(pub, otr_token_gen(other), rng)
    assert not ok


# ---------------------------------------------------------------------------
# hash-and-sign
# ---------------------------------------------------------------------------


def test_ot_roundtrip_and_hash_binding():
    rng = Random(6)
    pub, sec = ot_keygen(16, rng, hash_variant="toy-16", n_override=8)
    assert pub.otr.r == 16
    doc = b"pay to carol 5"
    sig = retry_sign(ot_sign, doc, ot_token_gen, sec, rng)
    assert ot_verify(pub, doc, sig)
    assert not ot_verify(pub, b"pay to carol 6", sig)
    assert not ot_verify(pub, doc, "nope")


def test_ot_sign_uses_digest_bits():
    rng = Random(7)
    pub, sec = ot_keygen(16, rng, hash_variant="toy-8", n_override=8)
    doc = b"alpha"
    alpha = hash_eval(pub.s, doc)
    sig = retry_sign(ot_sign, doc, ot_token_gen, sec, rng)
    # the component signatures verify exactly against the digest bit pattern
    assert otr_verify(pub.otr, alpha, sig)


def test_ot_verify_token_checks_index():
    rng = Random(8)
    pub, sec = ot_keygen(16, rng, hash_variant="toy-8", n_override=8)
    _, other_sec = ot_keygen(16, rng, hash_variant="toy-8", n_override=8)
    ok = ot_verify_token(pub, ot_token_gen(sec), rng)
    assert ok
    ok = ot_verify_token(pub, ot_token_gen(other_sec), rng)
    assert not ok  # different sampled index: rejected before any projection


# ---------------------------------------------------------------------------
# chain-signed tokens
# ---------------------------------------------------------------------------


def test_ts_roundtrip():
    rng = Random(9)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    doc = b"the deal is on"
    for _ in range(40):
        token = ts_token_gen(sk, rng)
        sig = ts_sign(doc, token, rng)
        if sig is not None:
            break
    assert sig is not None
    assert ts_verify(pk, doc, sig)
    assert not ts_verify(pk, b"the deal is off", sig)


def test_ts_rejects_uncertified_token():
    """A token and a signature certified by one key fail under another key
    of the same algorithm, however the checks under the two keys alternate."""
    rng = Random(10)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    rogue_pk, rogue_sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    assert pk.ds_pk.algo == rogue_pk.ds_pk.algo
    token = ts_token_gen(rogue_sk, rng)
    sig = None
    for _ in range(40):
        sig = ts_sign(b"doc", ts_token_gen(rogue_sk, rng), rng)
        if sig is not None:
            break
    assert sig is not None
    for _ in range(2):
        assert not ts_verify_token(pk, token, rng)
        assert ts_verify_token(rogue_pk, token, rng)
        assert ts_verify(rogue_pk, b"doc", sig)
        assert not ts_verify(pk, b"doc", sig)  # chain certificate fails


def test_ts_tampered_chain_sig_rejected():
    rng = Random(11)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    token = ts_token_gen(sk, rng)
    assert ts_verify_token(pk, token, rng)  # the honest verdict is kept on the key
    token.chain_sig = bytes([token.chain_sig[0] ^ 1]) + token.chain_sig[1:]
    ok = ts_verify_token(pk, token, rng)
    assert not ok


def test_ts_verify_token_accepts_and_preserves():
    rng = Random(12)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    token = ts_token_gen(sk, rng)
    for _ in range(10):
        ok = ts_verify_token(pk, token, rng)
        assert ok


def test_ts_token_rechecks_verify_the_chain_once(monkeypatch):
    import qtsl.stack as stack

    rng = Random(16)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    token = ts_token_gen(sk, rng)
    calls = []
    real = stack.ds_verify
    monkeypatch.setattr(stack, "ds_verify", lambda *args: calls.append(args) or real(*args))
    for _ in range(100):
        assert ts_verify_token(pk, token, rng)
    assert len(calls) == 1


def test_ts_revoke_consumes():
    rng = Random(13)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    results = [ts_revoke(pk, ts_token_gen(sk, rng), rng) for _ in range(50)]
    assert sum(results) > 25  # failures only on zero outcomes


def test_ts_revoke_measures_a_spent_token():
    """A token that already signed is still taken back and measured; what
    is left of it almost never passes as an unspent token."""
    rng = Random(15)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    results = []
    for _ in range(10):
        token = ts_token_gen(sk, rng)
        ts_sign(b"spent", token, rng)
        results.append(ts_revoke(pk, token, rng))
    assert results == [False] * 10


def test_encode_ot_public_is_stable_and_versioned():
    rng = Random(14)
    pub, _ = ot_keygen(16, rng, hash_variant="toy-8", n_override=4)
    raw = encode_ot_public(pub)
    assert raw == encode_ot_public(pub)
    assert raw.startswith(b'{"kind":"ot-pub"')
    assert pub.s.hex().encode() in raw


# ---------------------------------------------------------------------------
# multi-pair verification predicates
# ---------------------------------------------------------------------------


def test_verify_k_requires_distinct_docs():
    calls = []

    def fake_verify(pk, doc, sig):
        calls.append(doc)
        return True

    assert verify_k(fake_verify, None, [(b"a", 1), (b"b", 2)])
    assert not verify_k(fake_verify, None, [(b"a", 1), (b"a", 2)])


def test_verify_prime_k_requires_distinct_pairs():
    ok = lambda pk, doc, sig: True
    enc = lambda sig: bytes([sig])
    # same doc, different sigs: acceptable for the primed predicate
    assert verify_prime_k(ok, None, [(b"a", 1), (b"a", 2)], sig_encoding=enc)
    assert not verify_prime_k(ok, None, [(b"a", 1), (b"a", 1)], sig_encoding=enc)
    # bit-string (otr) and one-bit documents compare by repr, not bytes()
    assert verify_prime_k(ok, None, [("0101", 1), ("0101", 2)], sig_encoding=enc)
    assert not verify_prime_k(ok, None, [("0101", 1), ("0101", 1)], sig_encoding=enc)
    assert verify_prime_k(ok, None, [("0101", 1), ("0110", 1)], sig_encoding=enc)
    assert verify_prime_k(ok, None, [(1, 1), (1, 2)], sig_encoding=enc)
    assert not verify_prime_k(ok, None, [(1, 1), (1, 1)], sig_encoding=enc)
    # an int document is not that many zero bytes
    assert verify_prime_k(ok, None, [(1, 1), (b"\x00", 1)], sig_encoding=enc)


def test_random_document_width():
    rng = Random(15)
    for kappa in (1, 7, 8, 9, 64):
        doc = random_document(kappa, rng)
        assert len(doc) == (kappa + 7) // 8
        assert int.from_bytes(doc, "big") < (1 << kappa)


def test_ts_verify_rejects_wrong_length_vectors():
    """The chain certificate covers the key, not the vectors, so a certified
    signature with vectors of the wrong length reaches the one-bit layer;
    it must be rejected there, not raised on."""
    rng = Random(14)
    pk, sk = ts_keygen(16, rng, hash_variant="toy-8", n_override=8)
    sig = None
    for _ in range(40):
        sig = ts_sign(b"doc", ts_token_gen(sk, rng), rng)
        if sig is not None:
            break
    assert sig is not None and ts_verify(pk, b"doc", sig)
    for delta in (-2, 2):
        vecs = tuple(F2Vector(v.n + delta, 1) for v in sig.ot_sig.sigs)
        bad = TsSignature(sig.ot_public, sig.chain_sig, OtSignature(vecs))
        assert ts_verify(pk, b"doc", bad) is False
