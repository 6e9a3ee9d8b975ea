"""Unit tests for hashing, signatures, MAC and symmetric encryption."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsl.primitives import (
    HASH_VARIANTS,
    MAX_CAPACITY_LOG2,
    DataError,
    KeyExhaustedError,
    _leaf_secrets,
    _sha,
    decrypt,
    default_ds_algo,
    ds_keygen,
    ds_sign,
    ds_verify,
    enc_keygen,
    encrypt,
    hash_bits,
    hash_eval,
    hash_index,
    hash_chain_secret_key,
    hash_chain_tree,
    hash_kappa,
    mac_keygen,
    mac_tag,
    mac_verify,
)


# ---------------------------------------------------------------------------
# indexed hashing
# ---------------------------------------------------------------------------


def test_hash_index_roundtrip():
    rng = Random(0)
    for variant, r in HASH_VARIANTS.items():
        s = hash_index(33, rng, variant)
        assert hash_bits(s) == r
        assert hash_kappa(s) == 33


def test_hash_eval_shape_and_determinism():
    s = hash_index(16, Random(1), "toy-16")
    out = hash_eval(s, b"document")
    assert len(out) == 16 and set(out) <= {"0", "1"}
    assert hash_eval(s, b"document") == out
    assert hash_eval(s, b"documenu") != out  # single byte change


def test_every_hash_variant_fits_one_sha256_output():
    """``hash_eval`` takes a digest's bits from a single SHA-256 output."""
    assert max(HASH_VARIANTS.values()) <= 256
    for variant, r in HASH_VARIANTS.items():
        assert len(hash_eval(hash_index(16, Random(4), variant), b"doc")) == r


def test_different_indexes_differ():
    s1 = hash_index(16, Random(2), "sha256-256")
    s2 = hash_index(16, Random(3), "sha256-256")
    assert s1 != s2
    assert hash_eval(s1, b"x") != hash_eval(s2, b"x")


def test_hash_index_validation():
    with pytest.raises(ValueError):
        hash_index(16, Random(0), "md5")
    with pytest.raises(ValueError):
        hash_index(0, Random(0))
    with pytest.raises(DataError):
        hash_bits(b"not an index")
    with pytest.raises(DataError):
        hash_bits(b"QTSLH1\x03xyz" + b"\x00" * 4)


def test_toy8_collisions_exist_and_are_findable():
    s = hash_index(16, Random(4), "toy-8")
    seen = {}
    for i in range(300):  # 256 bins: birthday long before this
        h = hash_eval(s, b"m%d" % i)
        if h in seen:
            assert i != seen[h]
            return
        seen[h] = i
    raise AssertionError("no collision in 300 evaluations of an 8-bit hash")


@settings(max_examples=40)
@given(st.binary(max_size=64), st.sampled_from(sorted(HASH_VARIANTS)))
def test_hash_eval_prefix_free_of_index(message, variant):
    s = hash_index(16, Random(5), variant)
    out = hash_eval(s, message)
    assert len(out) == HASH_VARIANTS[variant]


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

ALGOS = ["ed25519", "hash-chain"]


@pytest.mark.parametrize("algo", ALGOS)
def test_sign_verify_roundtrip(algo):
    pk, sk = ds_keygen(32, Random(6), algo=algo, capacity_log2=2)
    sig = ds_sign(sk, b"hello world")
    assert ds_verify(pk, b"hello world", sig)
    assert not ds_verify(pk, b"hello worle", sig)
    bad = bytearray(sig)
    bad[5] ^= 0x40
    assert not ds_verify(pk, b"hello world", bytes(bad))


@pytest.mark.parametrize("algo", ALGOS)
def test_verify_is_total_on_garbage(algo):
    pk, _ = ds_keygen(32, Random(7), algo=algo, capacity_log2=1)
    for junk in (b"", b"\x00", b"a" * 7, b"\xff" * 100000, "str", None, 42):
        assert ds_verify(pk, b"msg", junk) is False


def test_ed25519_keygen_parses_its_key_once(monkeypatch):
    from qtsl import primitives
    from qtsl.primitives import DsSecretKey

    real = primitives.Ed25519PrivateKey
    parsed = []

    class Counted:
        @staticmethod
        def from_private_bytes(raw):
            parsed.append(raw)
            return real.from_private_bytes(raw)

    monkeypatch.setattr(primitives, "Ed25519PrivateKey", Counted)
    pk, sk = ds_keygen(32, Random(6), algo="ed25519")
    sigs = [ds_sign(sk, b"doc"), ds_sign(sk, b"other")]
    assert parsed == [sk.material]
    # the kept key signs exactly as one parsed from the stored bytes
    assert sigs == [ds_sign(DsSecretKey("ed25519", sk.material), m) for m in (b"doc", b"other")]
    assert ds_verify(pk, b"doc", sigs[0])


def test_verify_cache_keeps_algos_apart():
    pk1, sk1 = ds_keygen(32, Random(8), algo="ed25519")
    pk2, sk2 = ds_keygen(32, Random(8), algo="hash-chain", capacity_log2=1)
    s1 = ds_sign(sk1, b"m")
    s2 = ds_sign(sk2, b"m")
    for _ in range(3):  # repeated lookups hit the memo
        assert ds_verify(pk1, b"m", s1)
        assert ds_verify(pk2, b"m", s2)
        assert not ds_verify(pk1, b"m", s2)
        assert not ds_verify(pk2, b"m", s1)


def test_default_algo_is_known():
    assert default_ds_algo() in ALGOS


def test_hash_chain_statefulness_and_capacity():
    pk, sk = ds_keygen(16, Random(9), algo="hash-chain", capacity_log2=2)
    sigs = []
    for i in range(4):
        assert sk.next_leaf == i
        sigs.append(ds_sign(sk, b"doc-%d" % i))
    # all four leaf signatures verify, including replays of old ones
    for i, sig in enumerate(sigs):
        assert ds_verify(pk, b"doc-%d" % i, sig)
    with pytest.raises(RuntimeError):
        ds_sign(sk, b"one too many")


def test_hash_chain_leaf_reuse_detectable():
    """Two signatures from the same key use different leaves (the leaf index
    is the first four bytes)."""
    _, sk = ds_keygen(16, Random(10), algo="hash-chain", capacity_log2=2)
    a = ds_sign(sk, b"x")
    b = ds_sign(sk, b"y")
    assert a[:4] != b[:4]


def test_hash_chain_exhaustion_names_the_used_leaves():
    _, sk = ds_keygen(16, Random(9), algo="hash-chain", capacity_log2=1)
    ds_sign(sk, b"a")
    ds_sign(sk, b"b")
    with pytest.raises(KeyExhaustedError, match=r"exhausted \(2/2 leaves used\); run keygen"):
        ds_sign(sk, b"c")
    assert sk.next_leaf == 2


@pytest.mark.parametrize("leaf", [0, 5, 1023])
def test_leaf_secrets_are_the_length_prefixed_hashes(leaf):
    """The copied-prefix computation equals the definition, slot 2*pos+val."""
    seed = bytes(range(32))
    secrets = _leaf_secrets(seed, leaf)
    assert len(secrets) == 512
    for pos in (0, 1, 128, 255):
        for val in (0, 1):
            want = _sha(b"leaf", seed, leaf.to_bytes(4, "big"), pos.to_bytes(2, "big"), bytes([val]))
            assert secrets[2 * pos + val] == want


def test_hash_chain_stored_tree_signs_identically():
    pk, sk = ds_keygen(16, Random(12), algo="hash-chain", capacity_log2=3)
    leaves, root = hash_chain_tree(sk)
    assert len(leaves) == 32 * 8 and pk.material[1:] == root
    stored = hash_chain_secret_key(sk.material, 0, 3, leaves, root)
    lazy = hash_chain_secret_key(sk.material, 0, 3)
    sigs = {ds_sign(k, b"doc") for k in (sk, stored, lazy)}
    assert len(sigs) == 1 and ds_verify(pk, b"doc", sigs.pop())


@pytest.mark.parametrize(
    "args",
    [
        (b"\0" * 32, -1, 3),
        (b"\0" * 32, 9, 3),
        (b"\0" * 32, 0, -1),
        (b"\0" * 32, 0, MAX_CAPACITY_LOG2 + 1),
        (b"\0" * 31, 0, 3),
    ],
)
def test_hash_chain_secret_key_range_checks(args):
    with pytest.raises(DataError):
        hash_chain_secret_key(*args)


def test_hash_chain_rejects_leaf_level_not_matching_root_or_seed():
    _, sk = ds_keygen(16, Random(13), algo="hash-chain", capacity_log2=3)
    leaves, root = hash_chain_tree(sk)
    with pytest.raises(DataError):
        hash_chain_secret_key(sk.material, 0, 3, leaves[:-1], root)
    with pytest.raises(DataError):
        hash_chain_secret_key(sk.material, 0, 3, leaves, None)
    flipped = bytes([leaves[0] ^ 1]) + leaves[1:]
    with pytest.raises(DataError):
        hash_chain_secret_key(sk.material, 0, 3, flipped, root)
    # a consistent tree stored with another seed: caught when signing, and
    # no leaf is spent
    other = hash_chain_secret_key(b"\1" * 32, 2, 3, leaves, root)
    with pytest.raises(DataError):
        ds_sign(other, b"doc")
    assert other.next_leaf == 2


def test_hash_chain_cross_message_rejects():
    pk, sk = ds_keygen(16, Random(11), algo="hash-chain", capacity_log2=1)
    sig = ds_sign(sk, b"alpha")
    assert not ds_verify(pk, b"beta", sig)
    # truncations and paddings reject rather than raise
    assert not ds_verify(pk, b"alpha", sig[:-1])
    assert not ds_verify(pk, b"alpha", sig + b"\x00")


# ---------------------------------------------------------------------------
# MAC and encryption
# ---------------------------------------------------------------------------


def test_mac_roundtrip_and_tamper():
    key = mac_keygen(32, Random(12))
    tag = mac_tag(key, b"payload")
    assert mac_verify(key, b"payload", tag)
    assert not mac_verify(key, b"payloae", tag)
    assert not mac_verify(key, b"payload", tag[:-1] + bytes([tag[-1] ^ 1]))
    assert not mac_verify(key, b"payload", "not-bytes")
    other = mac_keygen(32, Random(13))
    assert not mac_verify(other, b"payload", tag)


@settings(max_examples=50)
@given(st.binary(max_size=200), st.integers(0, 2**32))
def test_encrypt_decrypt_roundtrip(plaintext, seed):
    rng = Random(seed)
    key = enc_keygen(32, rng)
    ct = encrypt(key, plaintext, rng)
    assert decrypt(key, ct) == plaintext
    assert len(ct) == 16 + len(plaintext)  # nonce prefix


def test_encrypt_is_randomized():
    rng = Random(14)
    key = enc_keygen(32, rng)
    assert encrypt(key, b"same", rng) != encrypt(key, b"same", rng)


def test_decrypt_rejects_short_input():
    key = enc_keygen(32, Random(15))
    with pytest.raises(DataError):
        decrypt(key, b"short")


def test_wrong_key_garbles():
    rng = Random(16)
    k1 = enc_keygen(32, rng)
    k2 = enc_keygen(32, rng)
    ct = encrypt(k1, b"secret content", rng)
    assert decrypt(k2, ct) != b"secret content"


def _module_state():
    """Size of every module-level dict, list and set in the loaded qtsl
    modules, and the names of module globals that are functools caches."""
    import sys

    sizes, caches = {}, []
    for name, mod in list(sys.modules.items()):
        if name != "qtsl" and not name.startswith("qtsl."):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                sizes[f"{name}.{attr}"] = len(value)
            if callable(getattr(value, "cache_info", None)):
                caches.append(f"{name}.{attr}")
    return sizes, caches


def test_verifying_leaves_no_module_state():
    import qtsl.cli  # noqa: F401  (loads every qtsl module)
    from qtsl.privts import tm_keygen, tm_sign, tm_token_gen, tm_verify
    from qtsl.stack import ts_keygen, ts_token_gen, ts_verify_token

    rng = Random(9)
    pk, sk = ds_keygen(32, rng, algo="ed25519")
    messages = [b"certified key encoding %d " % i + b"x" * 2000 for i in range(300)]
    signed = [(m, ds_sign(sk, m)) for m in messages]
    ts_pk, ts_sk = ts_keygen(16, rng, "toy-8", "ed25519", 8)
    tokens = [ts_token_gen(ts_sk, rng) for _ in range(3)]
    tm_key = tm_keygen(16, rng, "toy-8", 8)
    tm_sigs = [tm_sign(b"doc %d" % i, tm_token_gen(tm_key, rng), rng) for i in range(20)]
    tm_signed = [(b"doc %d" % i, sig) for i, sig in enumerate(tm_sigs) if sig is not None]
    assert tm_signed

    before, caches = _module_state()
    assert caches == []
    for m, sig in signed:
        assert ds_verify(pk, m, sig)
    for token in tokens:
        for _ in range(3):
            assert ts_verify_token(ts_pk, token, rng)
    for doc, sig in tm_signed:
        assert tm_verify(tm_key, doc, sig)
    assert _module_state() == (before, [])
