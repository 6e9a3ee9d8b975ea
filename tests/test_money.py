"""Unit tests for coins, checks, branch policies and bank scenarios."""

from random import Random

import pytest

from qtsl.money import (
    SECONDS_PER_DAY,
    SKEW_SECONDS,
    BranchState,
    ScenarioError,
    SignFailedError,
    branch_cash,
    canonical_check_document,
    check_verify,
    check_write,
    coin_mint,
    coin_serial,
    coin_verify,
    parse_scenario,
    simulate_bank,
)
from qtsl.stack import ts_keygen

T0 = 1_000_000 * SECONDS_PER_DAY


def bank(seed=0, hash_variant="toy-16"):
    rng = Random(seed)
    pk, sk = ts_keygen(64, rng, hash_variant, n_override=8)
    return pk, sk, rng


def write_ok(coin_src, payee, bid, ts, rng, attempts=40):
    """check_write with retry over fresh coins (signing can fail honestly)."""
    for _ in range(attempts):
        try:
            return check_write(coin_src(), payee, bid, ts, rng)
        except SignFailedError:
            continue
    raise AssertionError("check writing kept failing")


# ---------------------------------------------------------------------------
# coins and checks
# ---------------------------------------------------------------------------


def test_coin_mint_and_verify():
    pk, sk, rng = bank(1)
    coin = coin_mint(sk, rng)
    assert coin.serial == coin_serial(coin.token)
    assert coin_verify(pk, coin, rng)


def test_coin_serial_tamper_detected():
    pk, sk, rng = bank(2)
    coin = coin_mint(sk, rng)
    coin.serial = "0" * 64
    assert not coin_verify(pk, coin, rng)


def test_canonical_check_document_stable():
    doc = canonical_check_document("alice", 3, 1234, b"\x00" * 16)
    assert doc == b"QCHK1|payee=alice|branch=3|time=1234|nonce=" + b"00" * 16


def test_canonical_check_document_escapes_payee():
    tricky = canonical_check_document("a|b=c", 1, 5, b"\x01" * 16)
    assert b"|payee=a%7Cb%3Dc|" in tricky
    with pytest.raises(ValueError):
        canonical_check_document("x", -1, 5, b"\x01" * 16)
    with pytest.raises(ValueError):
        canonical_check_document("x", 1, 1 << 64, b"\x01" * 16)
    with pytest.raises(ValueError):
        canonical_check_document("x", 1, 5, b"\x01" * 15)


def test_check_write_and_verify():
    pk, sk, rng = bank(3)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    assert check.branch_id == 7 and check.timestamp == T0
    assert check_verify(pk, check)


def test_check_verify_rejects_field_tamper():
    import dataclasses

    pk, sk, rng = bank(4)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    for change in (
        {"payee": "mallory"},
        {"branch_id": 8},
        {"timestamp": T0 + 1},
        {"nonce": bytes(16)},
    ):
        assert not check_verify(pk, dataclasses.replace(check, **change))


# ---------------------------------------------------------------------------
# branch policies
# ---------------------------------------------------------------------------


def ledger_branch(pk, bid=7):
    return BranchState(bid, "ledger", pk, mint=None)


def test_branch_cash_happy_and_duplicate():
    pk, sk, rng = bank(5)
    br = ledger_branch(pk)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    _, ev1 = branch_cash(br, check, T0, rng)
    _, ev2 = branch_cash(br, check, T0, rng)
    assert ev1.kind == "Cash"
    assert ev2.kind == "RejectDuplicate"
    assert ev1.check_digest == check.digest()


def test_branch_cash_wrong_branch():
    pk, sk, rng = bank(6)
    br = ledger_branch(pk, bid=9)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    _, ev = branch_cash(br, check, T0, rng)
    assert ev.kind == "RejectWrongBranch"


def test_branch_cash_bad_signature():
    import dataclasses

    pk, sk, rng = bank(7)
    br = ledger_branch(pk)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    forged = dataclasses.replace(check, payee="eve")
    _, ev = branch_cash(br, forged, T0, rng)
    assert ev.kind == "RejectBadSignature"


def test_ledger_mode_skew_window():
    pk, sk, rng = bank(8)
    br = ledger_branch(pk)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    _, ev = branch_cash(br, check, T0 + SKEW_SECONDS + 1, rng)
    assert ev.kind == "RejectStale"
    _, ev = branch_cash(br, check, T0 + SKEW_SECONDS, rng)
    assert ev.kind == "Cash"


def test_daily_mode_accepts_only_previous_day():
    pk, sk, rng = bank(9)
    br = BranchState(7, "daily", pk, mint=None)
    yesterday = T0 - SECONDS_PER_DAY
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, yesterday, rng)
    # presented today: fine.  presented the day after: stale.
    _, ev = branch_cash(br, check, T0, rng)
    assert ev.kind == "Cash"
    _, ev = branch_cash(br, check, T0, rng)
    assert ev.kind == "RejectDuplicate"
    _, ev = branch_cash(br, check, T0 + SECONDS_PER_DAY, rng)
    assert ev.kind == "RejectStale"


def test_daily_mode_window_reset_forgets():
    """Rolling the day forward clears the duplicate memory; the policy relies
    on staleness, not memory, to block replays after the window."""
    pk, sk, rng = bank(10)
    br = BranchState(7, "daily", pk, mint=None)
    yesterday = T0 - SECONDS_PER_DAY
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, yesterday, rng)
    _, ev = branch_cash(br, check, T0, rng)
    assert ev.kind == "Cash"
    _, ev = branch_cash(br, check, T0 + SECONDS_PER_DAY, rng)
    assert ev.kind == "RejectStale"
    assert check.digest() not in br.cashed  # window rolled, memory gone


def test_verify_only_branch_escrows():
    pk, sk, rng = bank(11)
    br = BranchState(7, "ledger", pk, mint=None)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    coin, ev = branch_cash(br, check, T0, rng)
    assert coin is None and ev.kind == "Cash"
    assert br.escrowed == [check.digest()]


def test_branch_rejects_bad_mode():
    pk, _, _ = bank(12)
    with pytest.raises(ValueError):
        BranchState(1, "monthly", pk)


# ---------------------------------------------------------------------------
# scenario scripts
# ---------------------------------------------------------------------------


def test_parse_scenario_comments_and_verbs():
    ops = parse_scenario(
        """
        # a comment line
        BRANCH 1 ledger
        MINT alice c1   # trailing comment
        TICK 5
        """
    )
    assert [op.verb for op in ops] == ["BRANCH", "MINT", "TICK"]
    with pytest.raises(ScenarioError):
        parse_scenario("FROB 1 2")


def test_simulate_bank_happy_path():
    script = """
    BRANCH 1 ledger
    MINT alice c1
    WRITE alice c1 chk1 bob 1
    CASH 1 chk1
    CASH 1 chk1
    """
    ledger, stats = simulate_bank(script, Random(13))
    kinds = [e.kind for e in ledger]
    if stats["write_failures"] == 0:
        assert kinds == ["Cash", "RejectDuplicate"]
        assert stats["issued"] == 1
    else:  # the write burned the coin without yielding a check
        assert kinds == []
        assert stats["cash_skipped"] == 2
    assert stats["minted"] == 1 and stats["burned"] == 1


def test_simulate_bank_undeclared_names_raise():
    with pytest.raises(ScenarioError):
        simulate_bank("CASH 1 nope", Random(0))
    with pytest.raises(ScenarioError):
        simulate_bank("BRANCH 1 ledger\nCASH 1 nope", Random(0))
    with pytest.raises(ScenarioError):
        simulate_bank("WRITE alice c1 chk1 bob 1", Random(0))
    with pytest.raises(ScenarioError):
        simulate_bank("BRANCH 1 ledger\nBRANCH 1 daily", Random(0))
    with pytest.raises(ScenarioError):
        simulate_bank("TICK x", Random(0))


def test_simulate_bank_double_spend_blocked():
    script = """
    BRANCH 1 ledger
    BRANCH 2 ledger
    MINT alice c1
    WRITE alice c1 chk1 bob 1
    CASH 1 chk1
    CASH 2 chk1
    CASH 1 chk1
    """
    ledger, stats = simulate_bank(script, Random(14))
    if stats["write_failures"] == 0:
        assert [e.kind for e in ledger] == ["Cash", "RejectWrongBranch", "RejectDuplicate"]


def test_simulate_bank_deterministic():
    script = """
    BRANCH 1 ledger
    MINT alice c1
    MINT alice c2
    WRITE alice c1 chk1 bob 1
    WRITE alice c2 chk2 carol 1
    CASH 1 chk1
    CASH 1 chk2
    """
    a = simulate_bank(script, Random(15))
    b = simulate_bank(script, Random(15))
    assert a[0] == b[0] and a[1] == b[1]


def test_simulate_bank_conservation_small():
    """issued never exceeds burned, whatever the script does."""
    rng = Random(16)
    for seed in range(10):
        script = """
        BRANCH 1 ledger
        BRANCH 2 daily
        MINT a c1
        MINT a c2
        WRITE a c1 k1 b 1
        WRITE a c2 k2 b 2
        CASH 1 k1
        CASH 1 k1
        CASH 2 k2
        CASH 1 k2
        """
        _, stats = simulate_bank(script, Random(100 + seed))
        assert stats["issued"] <= stats["burned"]
        assert stats["minted"] == 2 and stats["burned"] == 2


def test_branch_cash_wrong_length_vectors_rejected():
    import dataclasses

    from qtsl.f2lin import F2Vector
    from qtsl.stack import OtSignature, TsSignature

    pk, sk, rng = bank(9)
    br = ledger_branch(pk)
    check = write_ok(lambda: coin_mint(sk, rng), "bob", 7, T0, rng)
    good = check.signature
    short = tuple(F2Vector(v.n - 2, v.value >> 2) for v in good.ot_sig.sigs)
    sig = TsSignature(good.ot_public, good.chain_sig, OtSignature(short))
    _, ev = branch_cash(br, dataclasses.replace(check, signature=sig), T0, rng)
    assert ev.kind == "RejectBadSignature"
    assert not br.cashed
