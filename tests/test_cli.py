"""Container format, payload codecs, and the command-line driver.

End-to-end commands run through main() with files under tmp_path.  Signing
can legitimately fail (zero measurement outcome), so golden-path tests probe
a few seeds; everything is deterministic per seed, so once a seed works it
works on every rerun.
"""

import itertools
import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsl.cli import main
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
from qtsl.games import GAME_RUNNERS
from qtsl.money import SignFailedError, check_verify, check_write, coin_mint
from qtsl.primitives import DataError, ds_keygen, ds_sign, ds_verify
from qtsl.stack import (
    TsSecretKey,
    encode_ot_public,
    one_bit_tokens,
    ts_keygen,
    ts_sign,
    ts_token_gen,
    ts_verify,
)

DOC = b"pay bob 5"


@pytest.fixture(scope="module")
def keypair():
    return ts_keygen(16, Random(7), "toy-8", None, 8)


def _probe_sign(sk, doc):
    """Mint-and-sign with increasing seeds until signing succeeds."""
    for seed in range(60):
        token = ts_token_gen(sk, Random(1000 + seed))
        sig = ts_sign(doc, token, Random(seed))
        if sig is not None:
            return sig
    raise AssertionError("no signing seed worked in 60 tries")


# -- container envelope ------------------------------------------------------


def test_wrap_unwrap_roundtrip():
    blob = wrap_container("report", {"x": 1})
    kind, payload = unwrap_container(blob)
    assert kind == "report"
    assert payload == {"x": 1}
    obj = json.loads(blob)
    assert obj["magic"] == "QTSL"
    assert obj["version"] == 1
    assert obj["secrecy"] == "PUBLIC"


def test_wrap_unknown_kind():
    with pytest.raises(ValueError):
        wrap_container("voucher", {})


def _container(**overrides) -> bytes:
    obj = {
        "magic": "QTSL",
        "version": 1,
        "kind": "report",
        "secrecy": "PUBLIC",
        "payload": {},
    }
    obj.update(overrides)
    return json.dumps(obj).encode()


@pytest.mark.parametrize(
    "data",
    [
        b"not json at all",
        b"[1, 2, 3]",
        _container(magic="QTSK"),
        _container(version=2),
        _container(version="1"),
        _container(version=True),  # a version has one spelling: the integer
        _container(version=1.0),
        _container(kind="voucher"),
        _container(secrecy="SECRET"),  # label does not match the kind
        _container(payload=[]),
    ],
)
def test_unwrap_rejects_malformed(data):
    with pytest.raises(DataError):
        unwrap_container(data)


def test_unwrap_kind_mismatch():
    blob = wrap_container("report", {})
    with pytest.raises(DataError):
        unwrap_container(blob, "token")


# -- payload codecs ----------------------------------------------------------


def _twisted(blob: bytes, drop=(), **changes) -> bytes:
    obj = json.loads(blob)
    for key in drop:
        obj["payload"].pop(key, None)
    obj["payload"].update(changes)
    return json.dumps(obj).encode()


def test_public_key_roundtrip_byte_stable(keypair):
    pk, _ = keypair
    blob = encode_public_key(pk)
    back = decode_public_key(blob)
    assert back == pk
    assert encode_public_key(back) == blob


@pytest.mark.parametrize(
    "twist",
    [
        {"algo": "rsa"},
        {"hash_variant": "toy-4"},
        {"kappa": True},  # bool is not an int here
        {"kappa": "16"},
        {"material": "zz"},
        {"n": "8"},
        {"kappa": 0},
        {"kappa": -5},  # revoke drew a negative-length document from it
        {"kappa": 1 << 32},
    ],
)
def test_public_key_rejects_bad_fields(keypair, twist):
    blob = encode_public_key(keypair[0])
    with pytest.raises(DataError):
        decode_public_key(_twisted(blob, **twist))


def test_public_key_rejects_missing_field(keypair):
    blob = encode_public_key(keypair[0])
    with pytest.raises(DataError):
        decode_public_key(_twisted(blob, drop=("kappa",)))


def test_secret_key_roundtrip_preserves_chain_state():
    pk, sk = ts_keygen(16, Random(3), "toy-8", "hash-chain", 8)
    ts_token_gen(sk, Random(1))
    assert sk.ds_sk.next_leaf == 1
    back = decode_secret_key(encode_secret_key(sk))
    assert back.ds_sk.next_leaf == 1
    assert back.ds_sk.capacity_log2 == sk.ds_sk.capacity_log2
    # the decoded key keeps minting, and its certificates still verify
    token = ts_token_gen(back, Random(2))
    assert back.ds_sk.next_leaf == 2
    assert ds_verify(pk.ds_pk, encode_ot_public(token.ot_public), token.chain_sig)


@pytest.mark.parametrize("kappa", [0, -5, 1 << 32])
def test_secret_key_rejects_kappa_out_of_range(kappa):
    _, sk = ts_keygen(16, Random(3), "toy-8", "ed25519", 8)
    with pytest.raises(DataError):
        decode_secret_key(_twisted(encode_secret_key(sk), kappa=kappa))


@pytest.mark.parametrize("n", [3, 0, -2])
@pytest.mark.parametrize("which", ["public", "secret"])
def test_key_decoders_reject_token_length_keygen_refuses(keypair, which, n):
    """A key's n must be a length keygen would take: decoding, not the
    first mint, refuses one that no token could be minted at."""
    encode, decode = {
        "public": (encode_public_key, decode_public_key),
        "secret": (encode_secret_key, decode_secret_key),
    }[which]
    blob = encode(keypair[0 if which == "public" else 1])
    with pytest.raises(DataError, match=f"token length must be even and >= 2, got {n}"):
        decode(_twisted(blob, n=n))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


_CHAIN_PK, _CHAIN_SK = ds_keygen(16, Random(4), "hash-chain", capacity_log2=3)
_SECRET_KEYS = [
    encode_secret_key(TsSecretKey(ds, 16, "toy-8", 8))
    for ds in (_CHAIN_SK, ds_keygen(16, Random(4), "ed25519")[1])
]
_SECRET_FIELDS = sorted(json.loads(_SECRET_KEYS[0])["payload"])


@settings(max_examples=300)
@given(
    st.sampled_from(_SECRET_KEYS),
    st.sampled_from(_SECRET_FIELDS),
    _JSON | st.just(...),
)
def test_secret_key_decoder_raises_only_data_error(blob, field, value):
    """Any payload field replaced by arbitrary JSON, or dropped (``...``),
    either decodes or raises DataError, with no hang on an absurd capacity;
    and a hash-chain key that decodes never releases a bad signature."""
    obj = json.loads(blob)
    if value is ...:
        obj["payload"].pop(field, None)
    else:
        obj["payload"][field] = value
    try:
        sk = decode_secret_key(json.dumps(obj).encode()).ds_sk
    except DataError:
        return
    if sk.algo == "hash-chain" and sk.next_leaf < 8:
        try:
            sig = ds_sign(sk, b"m")
        except DataError:
            return
        assert ds_verify(_CHAIN_PK, b"m", sig)

def test_token_roundtrip_and_sign(keypair):
    pk, sk = keypair
    token = ts_token_gen(sk, Random(21))
    blob = encode_token(token)
    back = decode_token(blob)
    assert encode_token(back) == blob
    assert back.chain_sig == token.chain_sig
    assert all(t.lifecycle == "fresh" for t in back.ot_token.otr.tokens)
    # a decoded copy is as good as the original: it signs and verifies
    for seed in range(60):
        copy = decode_token(blob)
        sig = ts_sign(DOC, copy, Random(seed))
        if sig is not None:
            break
    assert sig is not None
    assert all(t.lifecycle == "spent" for t in copy.ot_token.otr.tokens)
    assert ts_verify(pk, DOC, sig)
    # consumed state survives the trip to disk and back
    respun = decode_token(encode_token(copy))
    assert all(t.lifecycle == "spent" for t in respun.ot_token.otr.tokens)


def test_token_rejects_bad_lifecycle(keypair):
    blob = encode_token(ts_token_gen(keypair[1], Random(22)))
    obj = json.loads(blob)
    obj["payload"]["tokens"][0]["lifecycle"] = "minty"
    with pytest.raises(DataError):
        decode_token(json.dumps(obj).encode())


def _spaces(token):
    from qtsl.ot1 import _hidden_space

    return [_hidden_space(c) for c in token.ot_public.otr.components]


def test_decoded_token_states_share_their_public_spaces(keypair):
    """A fresh token's states are its public components' spaces, decoded
    once; a state that spells another component's space, and a spent
    token's measured states, share nothing."""
    sk = keypair[1]
    blob = encode_token(ts_token_gen(sk, Random(23)))
    back = decode_token(blob)
    states = [t.state for t in back.ot_token.otr.tokens]
    assert all(s.kind == "subspace" and s.space is c for s, c in zip(states, _spaces(back)))
    obj = json.loads(blob)
    tokens = obj["payload"]["tokens"]
    tokens[0]["state"], tokens[1]["state"] = tokens[1]["state"], tokens[0]["state"]
    swapped = decode_token(json.dumps(obj).encode())
    first, second = (t.state.space for t in swapped.ot_token.otr.tokens[:2])
    comps = _spaces(swapped)
    assert first == comps[1] and first is not comps[1] and first is not comps[0]
    assert second == comps[0] and second is not comps[0]
    token = ts_token_gen(sk, Random(24))
    ts_sign(DOC, token, Random(0))
    spent = decode_token(encode_token(token))
    assert all(t.state.kind != "subspace" for t in spent.ot_token.otr.tokens)


@pytest.mark.parametrize("n", [8, 66])
def test_decoded_public_key_encodes_like_one_built_from_its_rows(n):
    """The row text a decoded key keeps is the text its rows format to."""
    from qtsl.f2lin import Subspace
    from qtsl.ot1 import MembershipOracle
    from qtsl.stack import OtKey, OtrKey

    _, sk = ts_keygen(16, Random(8), "toy-8", None, n)
    back = decode_token(encode_token(ts_token_gen(sk, Random(25))))
    pub = back.ot_public
    oracles = [
        MembershipOracle(Subspace.from_rows(n, space.rows), c.key_id)
        for space, c in zip(_spaces(back), pub.otr.components)
    ]
    rebuilt = OtKey(pub.s, OtrKey(tuple(oracles)))
    assert encode_ot_public(pub) == encode_ot_public(rebuilt)


def test_signature_roundtrip(keypair):
    pk, sk = keypair
    sig = _probe_sign(sk, DOC)
    blob = encode_signature(sig)
    back = decode_signature(blob)
    assert encode_signature(back) == blob
    assert back.ot_sig.sigs == sig.ot_sig.sigs
    assert ts_verify(pk, DOC, back)


def test_signature_vector_length_is_not_allocated(keypair):
    """A hex vector's declared length comes from the input; rejecting one
    whose digits do not fill that length must not build a 2^n integer."""
    import tracemalloc

    pk, sk = keypair
    blob = encode_signature(_probe_sign(sk, DOC))
    sigs = json.loads(blob)["payload"]["sigs"]
    huge = _twisted(blob, sigs=["hex:134217728:0"] + sigs[1:])
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            decode_signature(huge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _written_check(sk):
    """A check to "alice" at branch 3, from the first seed that signs."""
    for seed in range(60):
        try:
            return check_write(coin_mint(sk, Random(seed)), "alice", 3, 777, Random(seed))
        except SignFailedError:
            continue
    raise AssertionError("no seed signed a check")


def test_check_roundtrip(keypair):
    pk, sk = keypair
    check = _written_check(sk)
    blob = encode_check(check)
    back = decode_check(blob)
    assert encode_check(back) == blob
    assert (back.payee, back.branch_id, back.timestamp, back.nonce) == (
        check.payee,
        check.branch_id,
        check.timestamp,
        check.nonce,
    )
    assert check_verify(pk, back)


@pytest.mark.parametrize(
    "twist",
    [
        {"branch_id": 1 << 32},
        {"branch_id": -1},
        {"timestamp": -1},
        {"timestamp": 1 << 64},
        {"nonce": "00" * 15},
        {"nonce": "zz" * 16},
        {"payee": 7},
        {"signature": []},
    ],
)
def test_check_rejects_bad_fields(keypair, twist):
    blob = encode_check(_written_check(keypair[1]))
    with pytest.raises(DataError):
        decode_check(_twisted(blob, **twist))


def test_check_payee_the_document_cannot_spell_is_malformed(tmp_path, keypair):
    """A lone surrogate has no percent-escape in the signed check document:
    decoding refuses it, so `check-verify` exits 2 before any verifier runs."""
    pk, sk = keypair
    blob = _twisted(encode_check(_written_check(sk)), payee="\ud800")
    with pytest.raises(DataError):
        decode_check(blob)
    (tmp_path / "pk").write_bytes(encode_public_key(pk))
    (tmp_path / "check").write_bytes(blob)
    assert _qtsl("check-verify", "--public-key", tmp_path / "pk", "--check", tmp_path / "check") == 2


def test_coin_roundtrip(keypair):
    coin = coin_mint(keypair[1], Random(31))
    blob = encode_coin(coin)
    back = decode_coin(blob)
    assert encode_coin(back) == blob
    assert back.serial == coin.serial


# -- command-line driver -----------------------------------------------------


def _qtsl(*argv) -> int:
    return main([str(a) for a in argv])


def _keys(tmp_path, *extra):
    pub, sec = tmp_path / "bank.pk", tmp_path / "bank.sk"
    rc = _qtsl(
        "keygen", "--kappa", 16, "--hash", "toy-8", "--n", 8,
        "--public-out", pub, "--secret-out", sec, "--seed", 5, *extra,
    )
    assert rc == 0
    return pub, sec


def test_cli_show_labels(tmp_path, capsys):
    pub, sec = _keys(tmp_path)
    token = tmp_path / "tok"
    assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", 0) == 0
    for path, kind in ((pub, "ts-public-key"), (sec, "ts-secret-key"), (token, "token")):
        capsys.readouterr()
        assert _qtsl("show", path) == 0
        out = capsys.readouterr().out
        assert f"kind: {kind}" in out
        assert f"secrecy: {CONTAINER_KINDS[kind]}" in out
    junk = tmp_path / "junk"
    junk.write_bytes(b"\x00\x01\x02")
    assert _qtsl("show", junk) == 2
    assert _qtsl("show", tmp_path / "missing") == 2


def test_cli_sign_verify_happy_path(tmp_path, capsys):
    pub, sec = _keys(tmp_path)
    token, sig = tmp_path / "tok", tmp_path / "sig"
    rc = 1
    for seed in range(40):
        assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", seed) == 0
        rc = _qtsl("sign", "--token", token, "--text", "pay bob 5", "--out", sig, "--seed", seed)
        if rc == 0:
            break
    assert rc == 0
    capsys.readouterr()
    assert _qtsl("verify", "--public-key", pub, "--text", "pay bob 5", "--signature", sig) == 0
    assert "ACCEPT" in capsys.readouterr().out
    assert _qtsl("verify", "--public-key", pub, "--text", "pay bob 6", "--signature", sig) == 1
    assert "REJECT" in capsys.readouterr().out
    # the token file holds a consumed token now: reuse is a lifecycle error
    assert _qtsl("sign", "--token", token, "--text", "again", "--out", sig, "--seed", 0) == 3


def test_cli_verify_token_then_sign(tmp_path, capsys):
    pub, sec = _keys(tmp_path)
    token, sig = tmp_path / "tok", tmp_path / "sig"
    rc = 1
    for seed in range(40):
        assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", seed) == 0
        # an honest fresh token passes the non-destructive check every time
        for check_seed in (0, 1, 2):
            capsys.readouterr()
            assert (
                _qtsl("verify-token", "--public-key", pub, "--token", token,
                      "--seed", check_seed)
                == 0
            )
            assert "ACCEPT" in capsys.readouterr().out
        rc = _qtsl("sign", "--token", token, "--text", "after checks", "--out", sig,
                   "--seed", seed)
        if rc == 0:
            break
    assert rc == 0
    assert _qtsl("verify", "--public-key", pub, "--text", "after checks",
                 "--signature", sig) == 0


def test_cli_verify_token_rewrites_only_a_changed_token(tmp_path):
    pub, sec = _keys(tmp_path)
    token = tmp_path / "tok"
    assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", 0) == 0
    before = token.stat()
    for seed in (0, 1):
        assert _qtsl("verify-token", "--public-key", pub, "--token", token, "--seed", seed) == 0
    after = token.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    # a token that signed holds measured states, and a check projects them anew
    assert _qtsl("sign", "--token", token, "--text", "x", "--out", tmp_path / "sig",
                 "--seed", 0) in (0, 1)
    spent = token.read_bytes()
    assert _qtsl("verify-token", "--public-key", pub, "--token", token, "--seed", 0) in (0, 1)
    assert token.read_bytes() != spent


@pytest.mark.parametrize("kappa", [0, -3, 1 << 32])
def test_cli_keygen_rejects_kappa_out_of_range(tmp_path, capsys, kappa):
    pub, sec = tmp_path / "pk", tmp_path / "sk"
    capsys.readouterr()
    assert _qtsl("keygen", "--kappa", kappa, "--public-out", pub, "--secret-out", sec) == 2
    assert f"kappa {kappa} out of range" in capsys.readouterr().err
    assert not pub.exists() and not sec.exists()


@pytest.mark.parametrize("n", [7, 0, 1, -2])
def test_cli_keygen_rejects_token_length_that_cannot_mint(tmp_path, capsys, n):
    pub, sec = tmp_path / "pk", tmp_path / "sk"
    capsys.readouterr()
    assert _qtsl("keygen", "--kappa", 16, "--hash", "toy-8", "--n", n,
                 "--public-out", pub, "--secret-out", sec) == 2
    assert f"token length must be even and >= 2, got {n}" in capsys.readouterr().err
    assert not pub.exists() and not sec.exists()


@pytest.mark.parametrize("n", [3, 0, -2])
def test_cli_mint_refuses_a_key_with_a_token_length_keygen_refuses(tmp_path, capsys, n):
    _, sec = _keys(tmp_path)
    sec.write_bytes(_twisted(sec.read_bytes(), n=n))
    before = sec.read_bytes()
    capsys.readouterr()
    assert _qtsl("mint", "--secret-key", sec, "--out", tmp_path / "tok") == 2
    err = capsys.readouterr().err
    assert err == f"error: token length must be even and >= 2, got {n}\n"
    assert sec.read_bytes() == before and not (tmp_path / "tok").exists()


@pytest.mark.parametrize("n", [-2, 0, 3])
@pytest.mark.parametrize("name", sorted(GAME_RUNNERS))
def test_cli_game_checks_n_once_for_every_game(capsys, name, n):
    """Every game, query-count included, refuses a token length that no
    handle could build, with one message and before any runner arithmetic."""
    assert _qtsl("game", "--name", name, "--n", n, "--trials", 2) == 2
    assert capsys.readouterr().err == f"error: token length must be even and >= 2, got {n}\n"


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("name", sorted(GAME_RUNNERS))
def test_cli_game_rejects_trials_below_one(capsys, name, trials):
    assert _qtsl("game", "--name", name, "--trials", trials) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("ell", [0, -1])
@pytest.mark.parametrize("name", ["unforgeability", "revocability", "everlasting", "super-security"])
def test_cli_game_rejects_ell_below_one(capsys, name, ell):
    assert _qtsl("game", "--name", name, "--l", ell, "--trials", 3) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("ell" in err or "--l" in err)


def test_cli_revoke(tmp_path, capsys):
    pub, sec = _keys(tmp_path)
    token = tmp_path / "tok"
    # revocation signs a random document, so it can hit a zero outcome too
    rc = 1
    for seed in range(40):
        assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", seed) == 0
        capsys.readouterr()
        rc = _qtsl("revoke", "--public-key", pub, "--token", token, "--seed", seed)
        if rc == 0:
            break
    assert rc == 0
    assert "REVOKED" in capsys.readouterr().out
    # handing the token back consumed it
    assert _qtsl("sign", "--token", token, "--text", "x", "--out", tmp_path / "s",
                 "--seed", 0) == 3


def test_cli_check_flow(tmp_path):
    pub, sec = _keys(tmp_path)
    coin, check = tmp_path / "coin", tmp_path / "check"
    rc = 1
    for seed in range(40):
        assert _qtsl("mint-coin", "--secret-key", sec, "--out", coin, "--seed", seed) == 0
        rc = _qtsl("check-write", "--coin", coin, "--payee", "alice", "--branch", 3,
                   "--time", 777, "--out", check, "--seed", seed)
        if rc == 0:
            break
    assert rc == 0
    assert _qtsl("check-verify", "--public-key", pub, "--check", check) == 0
    # the coin burned when the check was written
    assert _qtsl("check-write", "--coin", coin, "--payee", "eve", "--branch", 3,
                 "--time", 778, "--out", check, "--seed", 0) == 3


def test_cli_check_write_zero_outcome_burns_the_coin(tmp_path, capsys):
    _, sec = _keys(tmp_path)
    coin, check = tmp_path / "coin", tmp_path / "check"
    assert _qtsl("mint-coin", "--secret-key", sec, "--out", coin, "--seed", 0) == 0
    capsys.readouterr()
    # seed 0 measures a zero outcome for this coin
    assert _qtsl("check-write", "--coin", coin, "--payee", "alice", "--branch", 3,
                 "--time", 777, "--out", check, "--seed", 0) == 1
    assert "coin is burned" in capsys.readouterr().err
    assert not check.exists()
    assert all(t.lifecycle == "spent" for t in one_bit_tokens(decode_coin(coin.read_bytes()).token))
    assert _qtsl("check-write", "--coin", coin, "--payee", "alice", "--branch", 3,
                 "--time", 777, "--out", check, "--seed", 1) == 3


@pytest.mark.parametrize("kind", ["token", "coin"])
def test_cli_partly_spent_file_is_refused_untouched(tmp_path, capsys, kind):
    """Only the last one-bit component is spent: signing measures the ones
    before it, then refuses the spent one, and nothing reaches the disk."""
    _, sec = _keys(tmp_path)
    path, out = tmp_path / kind, tmp_path / "out"
    if kind == "token":
        assert _qtsl("mint", "--secret-key", sec, "--out", path, "--seed", 0) == 0
        token = decode_token(path.read_bytes())
        one_bit_tokens(token)[-1].lifecycle = "spent"
        path.write_bytes(encode_token(token))
        argv = ("sign", "--token", path, "--text", "x")
    else:
        assert _qtsl("mint-coin", "--secret-key", sec, "--out", path, "--seed", 0) == 0
        coin = decode_coin(path.read_bytes())
        one_bit_tokens(coin.token)[-1].lifecycle = "spent"
        path.write_bytes(encode_coin(coin))
        argv = ("check-write", "--coin", path, "--payee", "alice", "--branch", 3, "--time", 777)
    before = path.read_bytes()
    capsys.readouterr()
    for seed in range(3):
        assert _qtsl(*argv, "--out", out, "--seed", seed) == 3
        assert path.read_bytes() == before and not out.exists()
        assert "token was already consumed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("sign", "--token", "missing", "--text", "x", "--out", "s"),
        ("verify-token", "--public-key", "bank.pk", "--token", "missing"),
        ("revoke", "--public-key", "bank.pk", "--token", "missing"),
        ("check-write", "--coin", "missing", "--payee", "bob", "--branch", 1, "--time", 1,
         "--out", "c"),
        ("mint", "--secret-key", "missing", "--out", "t"),
    ],
)
def test_cli_missing_state_file_leaves_no_lock(tmp_path, monkeypatch, capsys, argv):
    _keys(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _qtsl(*argv) == 2
    assert "No such file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bank.pk", "bank.sk"]


def test_cli_mint_advances_stateful_key(tmp_path):
    _, sec = _keys(tmp_path, "--ds", "hash-chain")
    assert decode_secret_key(sec.read_bytes()).ds_sk.next_leaf == 0
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    assert _qtsl("mint", "--secret-key", sec, "--out", t1, "--seed", 1) == 0
    assert decode_secret_key(sec.read_bytes()).ds_sk.next_leaf == 1
    assert _qtsl("mint", "--secret-key", sec, "--out", t2, "--seed", 2) == 0
    assert decode_secret_key(sec.read_bytes()).ds_sk.next_leaf == 2
    # chain signatures carry the leaf index: no one-time leaf is reused
    assert decode_token(t1.read_bytes()).chain_sig[:4] == (0).to_bytes(4, "big")
    assert decode_token(t2.read_bytes()).chain_sig[:4] == (1).to_bytes(4, "big")


@pytest.fixture(scope="module")
def chain_key(tmp_path_factory):
    """A fresh hash-chain secret-key container (toy sizes, 1024 leaves)."""
    _, sec = _keys(tmp_path_factory.mktemp("chain"), "--ds", "hash-chain")
    return sec.read_bytes()


def test_cli_concurrent_mints_use_distinct_leaves(tmp_path, chain_key):
    """Two mint processes on one key file: the lock serialises them, so
    each signs its own leaf and the key records both."""
    import os
    import subprocess
    import sys

    import qtsl

    sec = tmp_path / "bank.sk"
    sec.write_bytes(chain_key)
    src = str(Path(qtsl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = [tmp_path / f"t{i}" for i in range(2)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "qtsl.cli", "mint", "--secret-key", str(sec),
             "--out", str(out), "--seed", str(i)],
            env=env, stdout=subprocess.DEVNULL,
        )
        for i, out in enumerate(outs)
    ]
    try:
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
    finally:
        for p in procs:
            p.kill()
    leaves = {decode_token(out.read_bytes()).chain_sig[:4] for out in outs}
    assert leaves == {(0).to_bytes(4, "big"), (1).to_bytes(4, "big")}
    assert decode_secret_key(sec.read_bytes()).ds_sk.next_leaf == 2


# Each process imports the package, reports ready, then waits for a gate
# file, so the two commands start within a millisecond of each other.  The
# races use CLI-default sizes, where a command spends tens of milliseconds
# between reading its file and writing it back; which process gets there
# first still varies, so each race runs a few rounds.
RACE_ROUNDS = 3
RACE_KEY = ("--kappa", 64, "--hash", "sha256-256", "--n", 30)
_GATED_MAIN = """
import sys, time, pathlib
import qtsl.cli
gate, ready = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
ready.touch()
while not gate.exists():
    time.sleep(0.0005)
time.sleep(float(sys.argv[3]))
sys.exit(qtsl.cli.main(sys.argv[4:]))
"""


def _race(tmp_path, first, second, lag: float = 0.0) -> list[int]:
    """Run two qtsl commands as exactly two processes released together,
    the first ``lag`` seconds after the second; returns their exit codes."""
    import os
    import subprocess
    import sys
    import time

    import qtsl

    src = str(Path(qtsl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    gate = tmp_path / "gate"
    ready = [tmp_path / f"ready{i}" for i in range(2)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _GATED_MAIN, str(gate), str(flag), str(delay),
             *map(str, argv)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for flag, delay, argv in zip(ready, (lag, 0.0), (first, second))
    ]
    try:
        deadline = time.monotonic() + 120
        while not all(f.exists() for f in ready) and time.monotonic() < deadline:
            time.sleep(0.005)
        gate.touch()
        return [p.wait(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()


def _spent(token) -> bool:
    return all(t.lifecycle == "spent" for t in one_bit_tokens(decode_token(token.read_bytes())))


def _signing_token(tmp_path, sec, text, count):
    """Mint a token file and find ``count`` sign seeds that each sign it
    (signing can fail with a zero outcome)."""
    token = tmp_path / "tok"
    assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", 0) == 0
    blob = token.read_bytes()
    seeds = (s for s in range(60) if ts_sign(text.encode(), decode_token(blob), Random(s)))
    return token, list(itertools.islice(seeds, count))


def test_cli_concurrent_signs_use_the_token_once(tmp_path):
    """Two sign processes on one token file: the lock serialises them, so
    one signs and the other finds the token consumed (exit 3)."""
    _, sec = _keys(tmp_path, *RACE_KEY)
    token, seeds = _signing_token(tmp_path, sec, "pay bob 5", 2)
    fresh = token.read_bytes()
    sigs = [tmp_path / f"sig{i}" for i in range(2)]
    for _ in range(RACE_ROUNDS):
        token.write_bytes(fresh)
        for sig in sigs:
            sig.unlink(missing_ok=True)
        codes = _race(
            tmp_path,
            *[("sign", "--token", token, "--text", "pay bob 5", "--out", sig, "--seed", seed)
              for sig, seed in zip(sigs, seeds)],
        )
        assert sorted(codes) == [0, 3]
        assert [sig.exists() for sig in sigs] == [code == 0 for code in codes]
        assert _spent(token)


def test_cli_concurrent_check_writes_burn_the_coin_once(tmp_path):
    _, sec = _keys(tmp_path, *RACE_KEY)
    coin = tmp_path / "coin"
    assert _qtsl("mint-coin", "--secret-key", sec, "--out", coin, "--seed", 0) == 0
    fresh = coin.read_bytes()
    seeds = []
    for seed in range(60):
        try:
            check_write(decode_coin(fresh), "alice", 3, 777, Random(seed))
            seeds.append(seed)
        except SignFailedError:
            pass
        if len(seeds) == 2:
            break
    checks = [tmp_path / f"check{i}" for i in range(2)]
    for _ in range(RACE_ROUNDS):
        coin.write_bytes(fresh)
        for check in checks:
            check.unlink(missing_ok=True)
        codes = _race(
            tmp_path,
            *[("check-write", "--coin", coin, "--payee", "alice", "--branch", 3, "--time", 777,
               "--out", check, "--seed", seed) for check, seed in zip(checks, seeds)],
        )
        assert sorted(codes) == [0, 3]
        assert [check.exists() for check in checks] == [code == 0 for code in codes]


def test_cli_verify_token_racing_sign_leaves_no_fresh_token(tmp_path):
    """verify-token writes back the token it checked; under the lock it can
    never write a fresh copy over a token a concurrent sign has spent.  The
    check starts a little later each round, so that without the lock it
    would read the token while the sign holds it and write after it."""
    pub, sec = _keys(tmp_path, *RACE_KEY)
    token, (seed,) = _signing_token(tmp_path, sec, "pay bob 5", 1)
    fresh = token.read_bytes()
    for round_ in range(RACE_ROUNDS):
        token.write_bytes(fresh)
        codes = _race(
            tmp_path,
            ("verify-token", "--public-key", pub, "--token", token, "--seed", 0),
            ("sign", "--token", token, "--text", "pay bob 5", "--out", tmp_path / "sig",
             "--seed", seed),
            lag=0.015 * round_,
        )
        assert codes[1] == 0 and codes[0] in (0, 1)
        assert _spent(token)


@pytest.mark.parametrize(
    "state",
    [
        {"next_leaf": -1},
        {"next_leaf": 1025},
        {"capacity_log2": -1},
        {"capacity_log2": 40},
        {"capacity_log2": 11},  # the stored leaf level is for 2**10 leaves
    ],
)
def test_cli_mint_rejects_out_of_range_leaf_state(tmp_path, capsys, chain_key, state):
    sec = tmp_path / "bank.sk"
    sec.write_bytes(_twisted(chain_key, **state))
    before = sec.read_bytes()
    capsys.readouterr()
    assert _qtsl("mint", "--secret-key", sec, "--out", tmp_path / "t", "--seed", 0) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sec.read_bytes() == before


@pytest.mark.parametrize("command", ["mint", "mint-coin"])
def test_cli_exhausted_hash_chain_key_exits_3(tmp_path, capsys, chain_key, command):
    sec = tmp_path / "bank.sk"
    sec.write_bytes(_twisted(chain_key, next_leaf=1024))
    before = sec.read_bytes()
    capsys.readouterr()
    assert _qtsl(command, "--secret-key", sec, "--out", tmp_path / "t", "--seed", 0) == 3
    err = capsys.readouterr().err
    assert "hash-chain key exhausted (1024/1024 leaves used); run keygen" in err
    assert sec.read_bytes() == before
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("ds", ["ed25519", "hash-chain"])
def test_cli_keygen_never_replaces_a_secret_key(tmp_path, capsys, ds):
    """The secret key is created private, and keygen refuses to run over an
    existing one: over a minted hash-chain key it would set next_leaf back
    and sign with a used Lamport leaf again.  It exits 2 and writes neither
    key file."""
    _, sec = _keys(tmp_path, "--ds", ds)
    assert sec.stat().st_mode & 0o077 == 0
    assert _qtsl("mint", "--secret-key", sec, "--out", tmp_path / "t", "--seed", 0) == 0
    before = sec.read_bytes()
    capsys.readouterr()
    other_pub = tmp_path / "other.pk"
    rc = _qtsl("keygen", "--kappa", 16, "--hash", "toy-8", "--n", 8, "--ds", ds,
               "--public-out", other_pub, "--secret-out", sec, "--seed", 5)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sec.read_bytes() == before
    assert decode_secret_key(before).ds_sk.next_leaf == (1 if ds == "hash-chain" else 0)
    assert not other_pub.exists()


def test_cli_mint_leaves_ed25519_key_untouched(tmp_path):
    _, sec = _keys(tmp_path, "--ds", "ed25519")
    before = sec.stat()
    for cmd in ("mint", "mint-coin"):
        assert _qtsl(cmd, "--secret-key", sec, "--out", tmp_path / cmd, "--seed", 1) == 0
    after = sec.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_cli_revoke_spent_token_measures_what_is_left(tmp_path, capsys):
    """A token file that already signed comes back as a measured register:
    revocation runs and fails instead of refusing the consumed token."""
    pub, sec = _keys(tmp_path)
    token = tmp_path / "tok"
    assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", 0) == 0
    assert _qtsl("sign", "--token", token, "--text", "pay bob 5", "--out", tmp_path / "sig",
                 "--seed", 0) in (0, 1)
    capsys.readouterr()
    assert _qtsl("revoke", "--public-key", pub, "--token", token, "--seed", 0) == 1
    assert "REVOCATION FAILED" in capsys.readouterr().out


BANK_SCENARIO = """\
# one branch, one coin, the same check presented twice
BRANCH 1 ledger
MINT alice c1
WRITE alice c1 ch1 bob 1
CASH 1 ch1
CASH 1 ch1
"""


class _Cut(BaseException):
    """The process dies here: `main` catches no `BaseException`."""


def _cut_durable_writes(monkeypatch, cut_at):
    """Count the calls to `os.fsync`, `os.replace` and `Path.write_bytes`
    as `qtsl.cli` sees them; call number ``cut_at`` raises `_Cut` instead."""
    import qtsl.cli as cli

    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            if len(calls) - 1 == cut_at:
                raise _Cut(name)
            return original(*args, **kwargs)

        return call

    for owner, name in ((cli.os, "fsync"), (cli.os, "replace"), (cli.Path, "write_bytes")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


@pytest.fixture(scope="module")
def crash_files(tmp_path_factory):
    """File name -> bytes: a hash-chain key pair (toy-8, n 8), a fresh
    token, a token that signed and a fresh coin."""
    d = tmp_path_factory.mktemp("crash")
    pub, sec = _keys(d, "--ds", "hash-chain")
    for name, command in (("tok", "mint"), ("spent", "mint"), ("coin", "mint-coin")):
        assert _qtsl(command, "--secret-key", sec, "--out", d / name, "--seed", 0) == 0
    assert _qtsl("sign", "--token", d / "spent", "--text", "x", "--out", d / "sig",
                 "--seed", 0) in (0, 1)
    return {"pk": pub.read_bytes(), "sk": sec.read_bytes(),
            **{name: (d / name).read_bytes() for name in ("tok", "spent", "coin")}}


def _crash_case(command, d, seed):
    """(argv, state file, output file or None) of one command run in ``d``."""
    pk, sk, tok, spent, coin, out = (d / n for n in ("pk", "sk", "tok", "spent", "coin", "out"))
    argv, state, output = {
        "mint": (["mint", "--secret-key", sk, "--out", out], sk, out),
        "mint-coin": (["mint-coin", "--secret-key", sk, "--out", out], sk, out),
        "sign": (["sign", "--token", tok, "--text", "x", "--out", out], tok, out),
        "check-write": (["check-write", "--coin", coin, "--payee", "alice", "--branch", 3,
                         "--time", 777, "--out", out], coin, out),
        "verify-token": (["verify-token", "--public-key", pk, "--token", spent], spent, None),
        "revoke": (["revoke", "--public-key", pk, "--token", tok], tok, None),
    }[command]
    return [*argv, "--seed", seed], state, output


def _minted_leaf(path) -> bytes:
    """The hash-chain leaf index that certified a token or coin file."""
    blob = path.read_bytes()
    token = decode_coin(blob).token if unwrap_container(blob)[0] == "coin" else decode_token(blob)
    return token.chain_sig[:4]


@pytest.mark.parametrize(
    "command", ["mint", "mint-coin", "sign", "check-write", "verify-token", "revoke"]
)
def test_cli_crash_at_any_durable_write_leaves_old_or_new_state(
    tmp_path, monkeypatch, crash_files, command
):
    """Cut the command at each call of a durable write in turn.  The state
    file then decodes and holds its old or its new bytes; an output file
    exists only beside the new (spent or advanced) state; re-running
    `mint` on the hash-chain key never signs with a leaf already used; and
    the next command on the state file leaves no temporary file behind."""
    decoders = {"sk": decode_secret_key, "tok": decode_token, "spent": decode_token,
                "coin": decode_coin}

    def scene(name):
        d = tmp_path / name
        d.mkdir()
        for file, blob in crash_files.items():
            (d / file).write_bytes(blob)
        return d

    # an uncut run gives the new state and the calls to cut, from the
    # first seed whose signing succeeds
    for seed in range(60):
        argv, state, out = _crash_case(command, scene(f"uncut{seed}"), seed)
        with monkeypatch.context() as m:
            calls = _cut_durable_writes(m, None)
            assert _qtsl(*argv) in (0, 1)
        if out is None or out.exists():
            break
    old, new = crash_files[state.name], state.read_bytes()
    assert old != new and calls
    for k in range(len(calls)):
        argv, state, out = _crash_case(command, scene(f"cut{k}"), seed)
        with monkeypatch.context() as m:
            _cut_durable_writes(m, k)
            with pytest.raises(_Cut):
                _qtsl(*argv)
        held = state.read_bytes()
        assert held in (old, new), (k, calls[k])
        decoders[state.name](held)
        if out is not None and out.exists():
            assert held == new, (k, calls[k])
        if state.name == "sk":
            again = state.parent / "again"
            assert _qtsl("mint", "--secret-key", state, "--out", again, "--seed", 1) == 0
            leaves = [_minted_leaf(p) for p in (out, again) if p.exists()]
            assert len(set(leaves)) == len(leaves), (k, calls[k])
        else:
            assert _qtsl(*argv) in (0, 1, 3)
        assert [p.name for p in state.parent.iterdir() if p.name.startswith(".")] == []


def test_cli_bank_sim(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    path.write_text(BANK_SCENARIO)
    stats, events = None, None
    for seed in range(15):
        assert _qtsl("bank-sim", "--scenario", path, "--hash", "toy-8",
                     "--seed", seed) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
        stats, events = lines[-1], lines[:-1]
        if stats["write_failures"] == 0:
            break
    assert stats["write_failures"] == 0
    assert stats["minted"] == 1
    assert [e["kind"] for e in events] == ["Cash", "RejectDuplicate"]


def test_cli_bank_sim_bad_scenario(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("FROB alice\n")
    assert _qtsl("bank-sim", "--scenario", path) == 2


@pytest.mark.parametrize("kappa", [0, 1 << 32])
@pytest.mark.parametrize("command", ["game", "bank-sim"])
def test_cli_game_and_bank_sim_reject_kappa_out_of_range(tmp_path, capsys, command, kappa):
    # 2^32 overflowed the hash index's 4-byte kappa field with a traceback
    path = tmp_path / "scenario.txt"
    path.write_text(BANK_SCENARIO)
    argv = {
        "game": ("--name", "testability", "--trials", 2),
        "bank-sim": ("--scenario", path, "--hash", "toy-8"),
    }[command]
    capsys.readouterr()
    assert _qtsl(command, *argv, "--kappa", kappa) == 2
    assert f"kappa {kappa} out of range" in capsys.readouterr().err


def test_cli_game_report(tmp_path, capsys):
    out = tmp_path / "rep"
    assert _qtsl("game", "--name", "unforgeability", "--n", 4, "--trials", 300,
                 "--seed", 2, "--out", out) == 0
    printed = json.loads(capsys.readouterr().out)
    assert 0.10 < float(printed["rate"]) < 0.30  # around (2^{n/2}-1)/2^n = 3/16
    kind, payload = unwrap_container(out.read_bytes())
    assert kind == "report"
    assert payload["rate"] == printed["rate"]
    assert _qtsl("game", "--name", "nonsense") == 2


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["keygen"]) == 2  # missing required arguments
    capsys.readouterr()


def test_cli_selftest(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out
    assert "FAIL" not in out


def test_cli_same_seed_same_bytes(tmp_path):
    pairs = [(tmp_path / "a.pk", tmp_path / "a.sk"), (tmp_path / "b.pk", tmp_path / "b.sk")]
    for pub, sec in pairs:
        assert _qtsl("keygen", "--kappa", 16, "--hash", "toy-8", "--n", 8,
                     "--public-out", pub, "--secret-out", sec, "--seed", 9) == 0
    assert pairs[0][0].read_bytes() == pairs[1][0].read_bytes()
    assert pairs[0][1].read_bytes() == pairs[1][1].read_bytes()
    ta, tb = tmp_path / "ta", tmp_path / "tb"
    assert _qtsl("mint", "--secret-key", pairs[0][1], "--out", ta, "--seed", 4) == 0
    assert _qtsl("mint", "--secret-key", pairs[1][1], "--out", tb, "--seed", 4) == 0
    assert ta.read_bytes() == tb.read_bytes()


def test_cli_verify_wrong_length_vectors_rejects(tmp_path, capsys):
    """A certified signature whose vectors have the wrong length is a
    REJECT (exit 1), not malformed input (exit 2)."""
    pub, sec = _keys(tmp_path)
    token, sig = tmp_path / "tok", tmp_path / "sig"
    rc = 1
    for seed in range(40):
        assert _qtsl("mint", "--secret-key", sec, "--out", token, "--seed", seed) == 0
        rc = _qtsl("sign", "--token", token, "--text", "pay bob 5", "--out", sig, "--seed", seed)
        if rc == 0:
            break
    assert rc == 0
    payload = json.loads(sig.read_bytes())["payload"]
    sig.write_bytes(_twisted(sig.read_bytes(), sigs=["1" * 6 for _ in payload["sigs"]]))
    capsys.readouterr()
    assert _qtsl("verify", "--public-key", pub, "--text", "pay bob 5", "--signature", sig) == 1
    assert "REJECT" in capsys.readouterr().out


def test_cli_import_does_not_load_numpy():
    """numpy serves only the dense model in the tests; neither the package
    nor the CLI loads it, and a selftest runs where it cannot be imported."""
    import subprocess
    import sys

    blocked = "import sys; sys.modules['numpy'] = None; import qtsl; "
    for code, want in (
        ("import sys, qtsl.cli; print('numpy' in sys.modules)", "False"),
        ("import sys, qtsl; print('numpy' in sys.modules)", "False"),
        (blocked + "from qtsl.cli import main; print(main(['selftest']))", "selftest: ok\n0"),
    ):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.strip().endswith(want), (code, out.stdout)


# what a process has loaded: stdlib modules the package must not pull in,
# and which of the lazily registered modules have run
_LOADED = """
import sys
heavy = [m for m in ("dataclasses", "inspect") if m in sys.modules]
ran = [m for m in ("games", "money", "privts")
       if type(sys.modules[f"qtsl.{m}"]).__name__ != "_LazyModule"]
print(heavy, ran)
"""


def test_cli_readme_commands_run_only_the_modules_they_use(tmp_path):
    """`import qtsl`, `import qtsl.cli`, `import qtsl.container` and each
    README command, each in a fresh interpreter, load neither `dataclasses`
    nor `inspect` and leave `games`, `money` and `privts` unexecuted; the
    container format loads no `argparse` either."""
    import subprocess
    import sys

    pk, sk, tok, sig = (str(tmp_path / name) for name in ("pk", "sk", "tok", "sig"))
    commands = [
        ["keygen", "--kappa", "16", "--hash", "toy-8", "--n", "8",
         "--public-out", pk, "--secret-out", sk, "--seed", "5"],
        ["mint", "--secret-key", sk, "--out", tok, "--seed", "1"],
        ["verify-token", "--public-key", pk, "--token", tok],
        ["sign", "--token", tok, "--text", "pay bob 5", "--out", sig, "--seed", "1"],
        ["verify", "--public-key", pk, "--text", "pay bob 5", "--signature", sig],
    ]
    container = "import sys, qtsl.container\nassert 'argparse' not in sys.modules"
    probes = ["import qtsl", "import qtsl.cli", container] + [
        f"from qtsl.cli import main\nassert main({argv!r}) == 0" for argv in commands
    ]
    for code in probes:
        out = subprocess.run(
            [sys.executable, "-c", code + _LOADED],
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip().splitlines()[-1] == "[] []", (code, out.stdout)
