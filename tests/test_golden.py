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

from qtsl.cli import decode_token, encode_check, encode_coin, encode_signature, encode_token
from qtsl.games import (
    game_everlasting,
    game_revocability,
    game_testability,
    game_unforgeability,
    measure_and_guess_strategy,
    naive_double_sign_strategy,
    ot1_handle,
    priv_ot1_handle,
    relation_statistics,
    spent_token_strategy,
    tm_handle,
    ts_handle,
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
}

GAME_DIGESTS = {
    "unforgeability-ot1-naive": "9afab26258b0e9b5ca2ce2a21a00e1c3880f69983741c546b8136852114f9ca2",
    "unforgeability-priv-ot1-naive": "a189737ab2b6f9f77be438b0ab083d3d45b706879bbd14aa94655f8b9307fce2",
    "everlasting-ot1-guess": "7d11657ef0776af39a183f706736ed46e219225a6d1a645a4ff462d00beb1693",
    "revocability-ts": "97472978e9495ed012de2101fc27948f2bac88e650d4c94fe8c8840e16d772b1",
    "testability-ts": "faff7c7b11fc2eea2b400597d4436f6994fe0a2b0620228e1eba41c978affd08",
    "testability-tm": "71afd09ddd3f25366e4bdb1f09e9428f81bc6df08ff009460ac614c10e994ab5",
    "relation-statistics": "ccf6a28433554e4d56021cc8d1af433ad6f01bf7d2b9c78d3571182fdf239d09",
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_game_report_digest(name):
    assert sha(GAMES[name]().to_json()) == GAME_DIGESTS[name]


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


def test_default_token_decode_reencodes_identically(default_containers):
    raw = default_containers["token"]
    assert encode_token(decode_token(raw)) == raw
