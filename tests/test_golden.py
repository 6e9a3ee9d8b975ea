"""Golden digests: seeded outputs must stay byte-for-byte identical.

Each test recomputes a seeded output and compares its SHA-256 with a digest
recorded before any performance work on the code it exercises: game report
JSON, a bank simulation's ledger and stats, and the CLI container bytes at
the default configuration (kappa 64, sha256-256, n = 30, Ed25519).  A
refactor or speed-up that changes an rng draw or a byte of output fails here.
"""

import hashlib
import json
from random import Random

import pytest

from qtsl.cli import main as cli_main
from qtsl.container import (
    decode_check,
    decode_coin,
    decode_token,
    encode_check,
    encode_coin,
    encode_signature,
    encode_token,
)
from qtsl.encoding import canonical_json
from qtsl.games import (
    GAME_RUNNERS,
    double_revoke_strategy,
    enumerate_consistent_strategy,
    game_everlasting,
    game_revocability,
    game_super_security,
    game_testability,
    game_unforgeability,
    game_unpredictability,
    measure_and_guess_strategy,
    naive_double_sign_strategy,
    ot1_handle,
    ot_handle,
    otr_handle,
    priv_ot1_handle,
    relation_statistics,
    same_pair_twice_strategy,
    spent_token_strategy,
    tm_handle,
    ts_handle,
    two_faced_demo,
)
from qtsl.money import check_write, coin_mint, simulate_bank
from qtsl.primitives import default_ds_algo
from qtsl.stack import ts_keygen, ts_sign, ts_token_gen


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GAMES = {
    "unforgeability-ot1-naive": lambda: game_unforgeability(
        ot1_handle(16, 8), naive_double_sign_strategy(), ell=1, trials=200, seed=11
    ),
    "unforgeability-priv-ot1-naive": lambda: game_unforgeability(
        priv_ot1_handle(16, 6), naive_double_sign_strategy(), ell=1, trials=200, seed=12
    ),
    "everlasting-ot1-guess": lambda: game_everlasting(
        ot1_handle(16, 4), measure_and_guess_strategy(), ell=1, trials=300, seed=17
    ),
    "revocability-ts": lambda: game_revocability(
        ts_handle(16, "toy-8", 4), spent_token_strategy(), ell=1, t=1, trials=10, seed=13
    ),
    "testability-ts": lambda: game_testability(
        ts_handle(16, "toy-8", 8), k=20, trials=5, seed=14
    ),
    "testability-tm": lambda: game_testability(
        tm_handle(16, "toy-8", 8), k=20, trials=5, seed=15
    ),
    "relation-statistics": lambda: relation_statistics(8, 200, seed=16),
    # reports whose revocation or second signature runs through the ordinary
    # signing path on a register taken back from its holder
    "two-faced": lambda: two_faced_demo(seed=18, n=6, trials=40),
    "revocability-otr-spent": lambda: game_revocability(
        otr_handle(16, r=4, n=6), spent_token_strategy(), ell=1, t=1, trials=60, seed=19
    ),
    "revocability-otr-private-spent": lambda: game_revocability(
        otr_handle(16, r=4, n=6, private=True),
        spent_token_strategy(),
        ell=1,
        t=1,
        trials=60,
        seed=20,
    ),
    "revocability-ot-private-spent": lambda: game_revocability(
        ot_handle(16, "toy-8", 6, private=True),
        spent_token_strategy(),
        ell=1,
        t=1,
        trials=30,
        seed=21,
    ),
    "revocability-tm-spent": lambda: game_revocability(
        tm_handle(16, "toy-8", 4), spent_token_strategy(), ell=1, t=1, trials=10, seed=22
    ),
    "revocability-ot1-double": lambda: game_revocability(
        ot1_handle(16, 6), double_revoke_strategy(), ell=1, t=0, trials=300, seed=23
    ),
    "revocability-priv-ot1-double": lambda: game_revocability(
        priv_ot1_handle(16, 6), double_revoke_strategy(), ell=1, t=0, trials=300, seed=24
    ),
    "revocability-ts-double": lambda: game_revocability(
        ts_handle(16, "toy-8", 4), double_revoke_strategy(), ell=1, t=0, trials=10, seed=25
    ),
    "everlasting-priv-ot1-guess": lambda: game_everlasting(
        priv_ot1_handle(16, 4), measure_and_guess_strategy(), ell=1, trials=300, seed=26
    ),
    "everlasting-ot1-enumerate": lambda: game_everlasting(
        ot1_handle(16, 4), enumerate_consistent_strategy(), ell=1, trials=200, seed=27
    ),
    "super-security-ot-same-pair": lambda: game_super_security(
        ot_handle(16, "toy-8", 6), same_pair_twice_strategy(), ell=1, trials=30, seed=28
    ),
    "unpredictability-tm": lambda: game_unpredictability(
        tm_handle(16, "toy-8", 6), trials=10, seed=29
    ),
    "super-security-priv-ot1-naive": lambda: game_super_security(
        priv_ot1_handle(16, 6), naive_double_sign_strategy(), ell=1, trials=200, seed=30
    ),
    # at n = 4 only about 1 % of equivocation attempts are usable, so the run
    # voids thousands of trials in a row without tripping the runaway guard
    "two-faced-n4": lambda: two_faced_demo(seed=5, n=4, trials=30),
}

GAME_DIGESTS = {
    "unforgeability-ot1-naive": "9afab26258b0e9b5ca2ce2a21a00e1c3880f69983741c546b8136852114f9ca2",
    "unforgeability-priv-ot1-naive": "a189737ab2b6f9f77be438b0ab083d3d45b706879bbd14aa94655f8b9307fce2",
    "everlasting-ot1-guess": "7d11657ef0776af39a183f706736ed46e219225a6d1a645a4ff462d00beb1693",
    "revocability-ts": "97472978e9495ed012de2101fc27948f2bac88e650d4c94fe8c8840e16d772b1",
    "testability-ts": "faff7c7b11fc2eea2b400597d4436f6994fe0a2b0620228e1eba41c978affd08",
    "testability-tm": "71afd09ddd3f25366e4bdb1f09e9428f81bc6df08ff009460ac614c10e994ab5",
    "relation-statistics": "ccf6a28433554e4d56021cc8d1af433ad6f01bf7d2b9c78d3571182fdf239d09",
    "two-faced": "09804539904eaf543f748802c884d939db69b53ef70ea4064f6eb4a29eba099a",
    "revocability-otr-spent": "53addfeebb3394bc4a1a3f18dae6b1b7bc8b160b8da598e58de4f325ba69e0d6",
    "revocability-otr-private-spent": "87edb1789b331580159b8db33641986e1bb1bd0aa45712b3445b42604c58b7d3",
    "revocability-ot-private-spent": "0921aabe00621967725f93b4e7f51b3658ab291d8400461c39b8f697b7e669de",
    "revocability-tm-spent": "a8bdf46d36f44ddeeef6d6d9b79e26eb958991a1dc74b68aed1498be456e26ee",
    "revocability-ot1-double": "bcb0a1df4fb2a831a28a9f0b48e1678c0b265f861d7a4a4d0118e53ee3651a95",
    "revocability-priv-ot1-double": "d1a678ff30a49573cf1f7b4c24ff64b72950d52dd80c22152dcc8ba6e7de2cdf",
    "revocability-ts-double": "9f0f83b0571dafe57a08e04aa46c9f4c02d509eeaabb3098cfc0147e9e121af5",
    "everlasting-priv-ot1-guess": "0203f3244577fb0ee8fafc35d837a264fbd2cb31369fb21cfbfd553fbfd7ac41",
    "everlasting-ot1-enumerate": "d6b3655719679687cbd60c3d32c21bd0ba095e5606d205596a12b5ca137126e1",
    "super-security-ot-same-pair": "a0b34e34bae2cc68307e87c95d698a0a10ffd1b1140f6c167b139f069b49f8ef",
    "unpredictability-tm": "cf857bb3a92db20bb37cd9c20ab6fc805d9ba5a8b182336b39f8723a9a6f4e9a",
    "super-security-priv-ot1-naive": "8b9b225b8951bf5c4543c76263bfe6c3a9e213a1a2c4a720822bb5f6a88c3609",
    "two-faced-n4": "c13abff32c79c892ece6f36e6bcd8daad0ec3300c446ece3aebce2b3b3d0aa15",
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_game_report_digest(name):
    assert sha(GAMES[name]().to_json()) == GAME_DIGESTS[name]


# every `qtsl game` runner at n 6, ell 1, 30 trials, seed 3, kappa 16, except
# relation (n 8, 300 trials) and two-faced (40 trials)
RUNNER_ARGS = {"relation": dict(n=8, trials=300), "two-faced": dict(trials=40)}

RUNNER_DIGESTS = {
    "everlasting": "f42da339dad4a3061190b96494311ae924e11a75cce55ec5a7fdd9a93c4d7aa4",
    "query-count": "1a651136e7a89891bb8c6e340ed85baea0e96c7690a7f126d9dbdccb20973113",
    "relation": "10ec31d8bf5133adb55e0ca001f508084c98ad1eb8f7560106dafe12c500687f",
    "revocability": "4a85883b2d892b3fda8303aeb9f96ab5f6c814b46c4f4556cc6579de1b0b727e",
    "super-security": "3c3c4dee405117592064fdc792d1cfdf150fac094438e4451c7772402c4fa4f1",
    "testability": "6c75bc490b547c2e72e932ea62ee50183343cb4c0f8616ad921c88a3326c6623",
    "two-faced": "7e66de6ca661559d3a0cb93c292ce3847f55c3521b89cdc5156cf3bd9d41dfff",
    "unforgeability": "e329140e2e434b1036b9f696427bc2357fd7f3e66c669baf33eb6fc0682d7120",
    "unpredictability": "7202ae9c38ef03eb2ff81ae25376993c8d4560e06e48e5a59edcd12d1baf7e0c",
}


@pytest.mark.parametrize("name", sorted(GAME_RUNNERS))
def test_game_runner_digest(name):
    args = dict(n=6, ell=1, trials=30, seed=3, kappa=16) | RUNNER_ARGS.get(name, {})
    assert sha(GAME_RUNNERS[name](**args).to_json()) == RUNNER_DIGESTS[name]


BANK_SCENARIO = """
BRANCH 1 ledger
BRANCH 2 daily
BRANCH 3 ledger verify-only
MINT alice c1
MINT alice c2
MINT bob c3
MINT carol c4
WRITE alice c1 k1 bob 1
CASH 1 k1
CASH 1 k1
WRITE alice c2 k2 dave 2
CASH 1 k2
TICK 86400
CASH 2 k2
WRITE bob c3 k3 erin 3
CASH 3 k3
TICK 600
WRITE carol c4 k4 frank 1
TICK 600
CASH 1 k4
"""

BANK_DIGEST = "2388d61980074ee016c1f764dd1df8d73d26fb8cba02798e0eb21c7ebab805ef"


def test_bank_simulation_digest():
    ledger, stats = simulate_bank(BANK_SCENARIO, Random(21), 16, "toy-8", 8)
    record = {
        "ledger": [[e.kind, e.branch_id, e.check_digest, e.time] for e in ledger],
        "stats": stats,
    }
    assert sha(json.dumps(record, sort_keys=True).encode()) == BANK_DIGEST


CONTAINER_DIGESTS = {
    "token": "687a5f8238d605f8c9b63b4087547e8e1a4be8c69b7cf08eb45e5edd452c3eeb",
    "signature": "11559c14a6e8677693bfe52dc0e04d5583bd30ebd6934f5fcbca5bba837f0815",
    "coin": "8aa6d4e157f2593610652b410524a914c14eeba2dcafe818aa43048be074d97c",
    "check": "e49cd37395413bed9a1bbfbea49d3a53b7c30e9ed08dc99728e77ca1654ae500",
}


@pytest.fixture(scope="module")
def default_containers():
    if default_ds_algo() != "ed25519":
        pytest.skip("the pinned containers carry Ed25519 certificates")
    pk, sk = ts_keygen(64, Random(31), "sha256-256", "ed25519", None)
    token = ts_token_gen(sk, Random(32))
    token_bytes = encode_token(token)
    sig = ts_sign(b"pay bob 5", token, Random(33))
    assert sig is not None
    coin = coin_mint(sk, Random(34))
    coin_bytes = encode_coin(coin)
    check = check_write(coin, "bob", 1, 1_700_000_000, Random(35))
    return {
        "token": token_bytes,
        "signature": encode_signature(sig),
        "coin": coin_bytes,
        "check": encode_check(check),
    }


@pytest.mark.parametrize("kind", sorted(CONTAINER_DIGESTS))
def test_default_container_digest(default_containers, kind):
    assert sha(default_containers[kind]) == CONTAINER_DIGESTS[kind]


CODECS = {
    "token": (encode_token, decode_token),
    "coin": (encode_coin, decode_coin),
    "check": (encode_check, decode_check),
}


@pytest.mark.parametrize("kind", list(CODECS))
def test_default_container_decode_reencodes_identically(default_containers, kind):
    encode, decode = CODECS[kind]
    raw = default_containers[kind]
    assert encode(decode(raw)) == raw


# -- hash-chain key at the CLI default ---------------------------------------
#
# The public key and the chain signatures inside minted tokens must not move
# when the secret-key container changes how it stores the signing state.

CHAIN_DIGESTS = {
    "public-key": "a9e1908883cab6aed3e9b4c894c54267e37784549f3224c7a372d1d577852f23",
    "token-0": "7e5e2c9fadd5742a9d451091e000d3e7345d8da9724374e3e2dd0d924c3489b9",
    "token-1": "266cba0c82a11282be670a89adebf3295196e4825e8736a83f1997978505b9d9",
    "token-2": "bcfc668e604797955327dcf9ae5184061e96c1abe7d4a1280d47e915a06b3a23",
}


@pytest.fixture(scope="module")
def chain_flow(tmp_path_factory):
    """keygen --ds hash-chain, then three mints from the same key file."""
    d = tmp_path_factory.mktemp("chain")
    pk, sk = d / "pk.qtsl", d / "sk.qtsl"
    argv = ["keygen", "--ds", "hash-chain", "--public-out", str(pk), "--secret-out", str(sk)]
    assert cli_main([*argv, "--seed", "5"]) == 0
    out = {"public-key": pk.read_bytes(), "secret-key": sk.read_bytes()}
    for i in range(3):
        tok = d / f"token-{i}.qtsl"
        assert cli_main(["mint", "--secret-key", str(sk), "--out", str(tok), "--seed", str(40 + i)]) == 0
        out[f"token-{i}"] = tok.read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(CHAIN_DIGESTS))
def test_hash_chain_container_digest(chain_flow, name):
    assert sha(chain_flow[name]) == CHAIN_DIGESTS[name]


# the same key's secret container in the older format, without leaves and root
LEGACY_SECRET_KEY = "8e871c412e74474ed97ba7cd92461a8992c643345ca2fa833f20a50a9dfc2b76"


def _with_payload(blob: bytes, edit) -> bytes:
    obj = json.loads(blob)
    edit(obj["payload"])
    return canonical_json(obj)


def _next_leaf(path) -> int:
    return json.loads(path.read_bytes())["payload"]["next_leaf"]


def test_key_without_leaf_level_mints_and_gains_it(chain_flow, tmp_path):
    def strip(payload):
        del payload["leaves"], payload["root"]

    old = _with_payload(chain_flow["secret-key"], strip)
    assert sha(old) == LEGACY_SECRET_KEY
    sk, tok = tmp_path / "sk.qtsl", tmp_path / "token.qtsl"
    sk.write_bytes(old)
    assert cli_main(["mint", "--secret-key", str(sk), "--out", str(tok), "--seed", "40"]) == 0
    assert sha(tok.read_bytes()) == CHAIN_DIGESTS["token-0"]
    payload = json.loads(sk.read_bytes())["payload"]
    assert payload["next_leaf"] == 1
    assert len(bytes.fromhex(payload["leaves"])) == 32 * 1024
    # the written-back key is the freshly generated one, one leaf on
    fresh = _with_payload(chain_flow["secret-key"], lambda p: p.update(next_leaf=1))
    assert sk.read_bytes() == fresh


@pytest.mark.parametrize("leaf", [0, 1, 700])
def test_flipped_leaf_level_byte_refuses_to_mint(chain_flow, tmp_path, leaf):
    """Leaf 0 is the one the next mint signs, leaf 1 its sibling; any flip is
    caught before a signature (and its one-time leaf) is released."""

    def flip(payload):
        raw = bytearray.fromhex(payload["leaves"])
        raw[32 * leaf + 7] ^= 0x10
        payload["leaves"] = raw.hex()

    sk, tok = tmp_path / "sk.qtsl", tmp_path / "token.qtsl"
    sk.write_bytes(_with_payload(chain_flow["secret-key"], flip))
    before = sk.read_bytes()
    assert cli_main(["mint", "--secret-key", str(sk), "--out", str(tok), "--seed", "40"]) == 2
    assert sk.read_bytes() == before and _next_leaf(sk) == 0
    assert not tok.exists()


def test_swapped_seed_refuses_to_mint(chain_flow, tmp_path):
    """A seed that does not match the stored leaves is caught by the signed
    leaf's seed check: no signature, no leaf spent."""
    sk, tok = tmp_path / "sk.qtsl", tmp_path / "token.qtsl"
    sk.write_bytes(_with_payload(chain_flow["secret-key"], lambda p: p.update(material="ab" * 32)))
    assert cli_main(["mint", "--secret-key", str(sk), "--out", str(tok), "--seed", "40"]) == 2
    assert _next_leaf(sk) == 0
    assert not tok.exists()
