"""Unit tests for the one-bit one-shot token scheme."""

from random import Random

import pytest

from qtsl.f2lin import F2Vector, dual, member
from qtsl.ot1 import (
    Ot1Token,
    TokenSpentError,
    default_dimension,
    ot1_keygen,
    ot1_revoke,
    ot1_sign,
    ot1_token_gen,
    ot1_verify,
    ot1_verify_token,
)
from qtsl.qsim import basis_state, phase_state


def fresh(seed=0, n=8):
    rng = Random(seed)
    pk, sk = ot1_keygen(16, rng, n_override=n)
    return pk, sk, rng


# ---------------------------------------------------------------------------
# oracle sealing
# ---------------------------------------------------------------------------


def test_oracle_public_surface_is_minimal():
    pk, _, _ = fresh()
    public = {name for name in dir(pk) if not name.startswith("_")}
    assert public == {"query", "query_count", "key_id"}


def test_oracle_repr_does_not_leak_the_space():
    pk, sk, _ = fresh()
    text = repr(pk)
    for row in sk.space.basis:
        assert str(row) not in text
    assert "Subspace" not in text


def test_oracle_query_counts_and_answers():
    pk, sk, rng = fresh()
    inside = next(v for v in sk.space.elements() if not v.is_zero())
    outside = next(
        F2Vector(8, x) for x in range(1, 256) if not member(sk.space, F2Vector(8, x))
    )
    assert pk.query_count == 0
    assert pk.query(inside, 0) == 1
    assert pk.query(outside, 0) == 0
    d = dual(sk.space)
    inside_dual = next(v for v in d.elements() if not v.is_zero())
    assert pk.query(inside_dual, 1) == 1
    assert pk.query_count == 3
    with pytest.raises(ValueError):
        pk.query(inside, 2)


def test_oracle_query_count_is_exact_across_queries_and_charges():
    pk, sk, rng = fresh(3)
    expected = 0
    for step in range(200):
        if rng.random() < 0.5:
            pk.query(F2Vector(8, rng.getrandbits(8)), rng.getrandbits(1))
            expected += 1
        else:
            amount = rng.randrange(4)
            pk._charge(amount)
            expected += amount
        assert pk.query_count == expected
    with pytest.raises(ValueError):
        pk.query(F2Vector(8, 1), 2)  # a refused selector is not charged
    assert pk.query_count == expected


def test_default_dimension_even_and_growing():
    dims = [default_dimension(k) for k in (1, 16, 64, 256, 4096)]
    assert all(d % 2 == 0 for d in dims)
    assert dims == sorted(dims)
    with pytest.raises(ValueError):
        default_dimension(0)


# ---------------------------------------------------------------------------
# sign / verify
# ---------------------------------------------------------------------------


def test_honest_sign_bit0_lands_in_space():
    pk, sk, rng = fresh(1)
    for _ in range(40):
        token = ot1_token_gen(sk)
        sig = ot1_sign(0, token, rng)
        if sig is None:
            continue
        assert member(sk.space, sig.sig) and not sig.sig.is_zero()
        assert ot1_verify(pk, 0, sig.sig)
        assert token.lifecycle == "spent"


def test_honest_sign_bit1_lands_in_dual():
    pk, sk, rng = fresh(2)
    d = dual(sk.space)
    for _ in range(40):
        token = ot1_token_gen(sk)
        sig = ot1_sign(1, token, rng)
        if sig is None:
            continue
        assert member(d, sig.sig)
        assert ot1_verify(pk, 1, sig.sig)


def test_sign_twice_raises():
    _, sk, rng = fresh(3)
    token = ot1_token_gen(sk)
    ot1_sign(0, token, rng)
    with pytest.raises(TokenSpentError):
        ot1_sign(1, token, rng)


def test_sign_rejects_non_bit():
    _, sk, rng = fresh(4)
    token = ot1_token_gen(sk)
    with pytest.raises(ValueError):
        ot1_sign(2, token, rng)


def test_failed_sign_still_spends():
    """Forcing the zero outcome: a dim-0 residual isn't arrangeable directly,
    so instead check the documented contract on the value None."""
    _, sk, rng = fresh(5)
    seen_failure = False
    for _ in range(2000):
        token = ot1_token_gen(sk)
        sig = ot1_sign(0, token, rng)
        assert token.lifecycle == "spent"
        if sig is None:
            seen_failure = True
            break
    # 1/16 per attempt at n=8, so ~2000 attempts miss with prob (15/16)^2000
    assert seen_failure


def test_verify_rejects_zero_vector():
    pk, _, _ = fresh(6)
    assert not ot1_verify(pk, 0, F2Vector(8, 0))
    assert not ot1_verify(pk, 1, F2Vector(8, 0))


def test_verify_rejects_wrong_space():
    pk, sk, _ = fresh(7)
    outside = next(
        F2Vector(8, x) for x in range(1, 256) if not member(sk.space, F2Vector(8, x))
    )
    assert not ot1_verify(pk, 0, outside)


def test_verify_charges_one_query():
    pk, sk, _ = fresh(8)
    v = next(x for x in sk.space.elements() if not x.is_zero())
    before = pk.query_count
    ot1_verify(pk, 0, v)
    assert pk.query_count == before + 1


def test_honest_success_rate():
    """Success is 1 - 2^{-n/2} (zero outcome fails); check within 4 sigma."""
    pk, sk, rng = fresh(9, n=6)
    trials = 3000
    good = 0
    for _ in range(trials):
        sig = ot1_sign(rng.getrandbits(1), ot1_token_gen(sk), rng)
        if sig is not None and ot1_verify(pk, sig.alpha, sig.sig):
            good += 1
    p = 1 - 2.0 ** -3
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(good / trials - p) < 4 * sigma


# ---------------------------------------------------------------------------
# verify-token and revoke
# ---------------------------------------------------------------------------


def test_verify_token_accepts_fresh_and_is_repeatable():
    pk, sk, rng = fresh(10)
    token = ot1_token_gen(sk)
    for _ in range(25):
        ok = ot1_verify_token(pk, token, rng)
        assert ok
    # still spendable afterwards
    sig = ot1_sign(0, token, rng)
    assert sig is None or ot1_verify(pk, 0, sig.sig)


def test_verify_token_charges_two_queries():
    pk, sk, rng = fresh(11)
    token = ot1_token_gen(sk)
    before = pk.query_count
    ot1_verify_token(pk, token, rng)
    assert pk.query_count == before + 2


def test_verify_token_rejects_wrong_key_state():
    pk, _, rng = fresh(12)
    _, other_sk, _ = fresh(999)
    rejected = 0
    for _ in range(60):
        alien = ot1_token_gen(other_sk)
        ok = ot1_verify_token(pk, alien, rng)
        rejected += not ok
    # overlap dim d gives accept probability 2^{2d-8} <= 1/4 for distinct keys
    assert rejected >= 30


def test_secret_key_answers_like_its_oracle():
    """Every vector of F2^4 with both bits: a secret key held as the
    verification key gives its oracle's verdicts, the oracle is charged one
    query per verify and two per token test, and the secret key nothing."""
    pk, sk, _ = fresh(15, n=4)
    d = dual(sk.space)
    for x in range(16):
        v = F2Vector(4, x)
        for alpha, state in ((0, basis_state(v)), (1, phase_state(v))):
            count = pk.query_count
            verdict = ot1_verify(pk, alpha, v)
            assert verdict == (x != 0 and member(d if alpha else sk.space, v))
            assert ot1_verify(sk, alpha, v) == verdict
            assert pk.query_count == count + 1
            verdicts = [
                ot1_verify_token(key, Ot1Token(state, sk.key_id), Random(x))
                for key in (pk, sk)
            ]
            assert verdicts[0] == verdicts[1]
            assert pk.query_count == count + 3


def test_revoke_honest_token():
    pk, sk, rng = fresh(14)
    accepted = sum(ot1_revoke(pk, ot1_token_gen(sk), rng) for _ in range(300))
    # fails only on the zero outcome: expect ~ 300 * 15/16
    assert accepted > 250
    token = ot1_token_gen(sk)
    ot1_revoke(pk, token, rng)
    assert token.lifecycle == "spent"


def test_verify_rejects_wrong_length_vector():
    pk, sk, _ = fresh(n=8)
    inside = next(v for v in sk.space.elements() if not v.is_zero())
    for wrong in (F2Vector(6, inside.value >> 2), F2Vector(10, inside.value << 2)):
        before = pk.query_count
        assert ot1_verify(pk, 0, wrong) is False
        assert ot1_verify(pk, 1, wrong) is False
        assert pk.query_count == before + 2
