"""Coins, checks and branch cashing built on the signature tokens.

A coin is a token plus a serial derived from its certified per-token key.
Spending is classical: the holder *writes a check* — burning the coin to
sign a canonical payee/branch/time/nonce document — and the named branch
cashes it against a local double-spend policy.  Branches never talk to each
other; every policy decision uses only branch-local state.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from .encoding import digest
from .stack import (
    TsPublicKey,
    TsSecretKey,
    TsSignature,
    TsToken,
    encode_ot_public,
    ts_keygen,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
)

__all__ = [
    "Coin",
    "Check",
    "BranchState",
    "LedgerEvent",
    "SignFailedError",
    "ScenarioError",
    "SKEW_SECONDS",
    "coin_mint",
    "coin_verify",
    "coin_serial",
    "canonical_check_document",
    "check_write",
    "check_verify",
    "branch_cash",
    "simulate_bank",
    "parse_scenario",
]

SKEW_SECONDS = 120
SECONDS_PER_DAY = 86400


class SignFailedError(RuntimeError):
    """The token measurement failed while writing a check (no retry)."""


class ScenarioError(ValueError):
    """A bank scenario script referenced something undeclared or malformed."""


@dataclass
class Coin:
    serial: str
    token: TsToken


@dataclass(frozen=True)
class Check:
    payee: str
    branch_id: int
    timestamp: int  # seconds, UTC
    nonce: bytes  # 16 bytes
    signature: TsSignature

    def digest(self) -> str:
        return digest(canonical_check_document(self.payee, self.branch_id, self.timestamp, self.nonce))


@dataclass(frozen=True)
class LedgerEvent:
    kind: str  # Cash | RejectDuplicate | RejectWrongBranch | RejectStale | RejectBadSignature
    branch_id: int
    check_digest: str
    time: int


def coin_serial(token: TsToken) -> str:
    return digest(encode_ot_public(token.ot_public))


def coin_mint(sk: TsSecretKey, rng: Random) -> Coin:
    token = ts_token_gen(sk, rng)
    return Coin(coin_serial(token), token)


def coin_verify(pk: TsPublicKey, coin: Coin, rng: Random) -> bool:
    """Serial must match the token's certified key, and the token must pass
    its non-destructive check."""
    return coin.serial == coin_serial(coin.token) and ts_verify_token(pk, coin.token, rng)


def canonical_check_document(payee: str, branch_id: int, timestamp: int, nonce: bytes) -> bytes:
    """The exact bytes a check signature covers.

    The payee is percent-escaped so the field separators never collide;
    every other field has one canonical decimal or hex spelling.
    """
    if branch_id < 0 or branch_id >= 1 << 32:
        raise ValueError(f"branch id out of range: {branch_id}")
    if timestamp < 0 or timestamp >= 1 << 64:
        raise ValueError(f"timestamp out of range: {timestamp}")
    if len(nonce) != 16:
        raise ValueError("nonce must be 16 bytes")
    quoted = urllib.parse.quote(payee, safe="")
    return (
        f"QCHK1|payee={quoted}|branch={branch_id}|time={timestamp}|nonce={nonce.hex()}"
    ).encode("ascii")


def check_write(
    coin: Coin, payee: str, branch_id: int, timestamp: int, rng: Random
) -> Check:
    """Burn the coin to sign a check addressed to one branch.

    Signing consumes the token; a measurement failure surfaces as
    SignFailedError and the coin is gone either way (no retry).
    """
    nonce = rng.randbytes(16)
    doc = canonical_check_document(payee, branch_id, timestamp, nonce)
    sig = ts_sign(doc, coin.token, rng)
    if sig is None:
        raise SignFailedError("token measurement failed while signing the check")
    return Check(payee, branch_id, timestamp, nonce, sig)


def check_verify(pk: TsPublicKey, check: Check) -> bool:
    doc = canonical_check_document(check.payee, check.branch_id, check.timestamp, check.nonce)
    return ts_verify(pk, doc, check.signature)


@dataclass
class BranchState:
    """Branch-local cashing state; no cross-branch references anywhere.

    ``ledger`` mode remembers every cashed check digest forever and insists
    the check is current (within the skew window).  ``daily`` mode accepts
    only checks dated the previous UTC day and remembers just that window's
    acceptances, resetting at rollover.
    """

    branch_id: int
    mode: str  # "ledger" | "daily"
    bank_pk: TsPublicKey
    mint: Callable[[Random], Coin] | None = None  # None => verify-only branch
    cashed: set[str] = field(default_factory=set)
    window_day: int | None = None
    escrowed: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in ("ledger", "daily"):
            raise ValueError(f"bad branch mode {self.mode!r}")


def _policy_check(branch: BranchState, timestamp: int, cd: str, now: int) -> str | None:
    """Returns a rejection kind for a check dated ``timestamp`` with digest
    ``cd``, or None to accept.  Mutates window state."""
    if branch.mode == "ledger":
        if abs(timestamp - now) > SKEW_SECONDS:
            return "RejectStale"
        if cd in branch.cashed:
            return "RejectDuplicate"
        return None
    today = now // SECONDS_PER_DAY
    if branch.window_day != today:
        branch.window_day = today
        branch.cashed = set()
    if timestamp // SECONDS_PER_DAY != today - 1:
        return "RejectStale"
    if cd in branch.cashed:
        return "RejectDuplicate"
    return None


def branch_cash(
    branch: BranchState, check: Check, now: int, rng: Random
) -> tuple[Coin | None, LedgerEvent]:
    """Cash one check: signature, then branch address, then policy.

    On acceptance the digest is recorded and a fresh coin is issued (or the
    check is escrowed at a verify-only branch).  Exactly one ledger event is
    returned for every attempt.
    """
    cd = check.digest()

    def event(kind: str) -> LedgerEvent:
        return LedgerEvent(kind, branch.branch_id, cd, now)

    if not check_verify(branch.bank_pk, check):
        return None, event("RejectBadSignature")
    if check.branch_id != branch.branch_id:
        return None, event("RejectWrongBranch")
    rejection = _policy_check(branch, check.timestamp, cd, now)
    if rejection is not None:
        return None, event(rejection)
    branch.cashed.add(cd)
    if branch.mint is None:
        branch.escrowed.append(cd)
        return None, event("Cash")
    return branch.mint(rng), event("Cash")


# ---------------------------------------------------------------------------
# scenario scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Op:
    verb: str
    args: tuple[str, ...]
    line_no: int


def parse_scenario(text: str) -> list[_Op]:
    ops = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb = parts[0].upper()
        if verb not in ("BRANCH", "MINT", "WRITE", "CASH", "TICK"):
            raise ScenarioError(f"line {line_no}: unknown verb {parts[0]!r}")
        ops.append(_Op(verb, tuple(parts[1:]), line_no))
    return ops


def simulate_bank(
    text: str,
    rng: Random,
    kappa: int = 64,
    hash_variant: str = "toy-16",
    n_override: int | None = 8,
) -> tuple[list[LedgerEvent], dict[str, Any]]:
    """Run a line-oriented scenario and return (ledger, audit stats).

    Script verbs::

        BRANCH <id> <ledger|daily> [verify-only]
        MINT  <actor> <coin-name>
        WRITE <actor> <coin-name> <check-name> <payee> <branch-id>
        CASH  <branch-id> <check-name>
        TICK  <seconds>

    The bank key is created from ``rng``; minting branches share the bank's
    minting capability.  WRITE uses the scenario clock as the check's
    timestamp.  Missing names or malformed fields raise ScenarioError.
    """
    bank_pk, bank_sk = ts_keygen(kappa, rng, hash_variant, n_override=n_override)
    now = 1_000_000 * SECONDS_PER_DAY
    branches: dict[int, BranchState] = {}
    coins: dict[tuple[str, str], Coin | None] = {}
    checks: dict[str, Check | None] = {}  # None: the write failed, no check exists
    ledger: list[LedgerEvent] = []
    minted = 0
    burned = 0
    issued = 0
    write_failures = 0
    cash_skipped = 0

    def mint(r: Random) -> Coin:
        nonlocal issued
        issued += 1
        return coin_mint(bank_sk, r)

    for op in parse_scenario(text):
        try:
            if op.verb == "BRANCH":
                bid = int(op.args[0])
                mode = op.args[1]
                verify_only = len(op.args) > 2 and op.args[2] == "verify-only"
                if bid in branches:
                    raise ScenarioError(f"line {op.line_no}: branch {bid} redeclared")
                branches[bid] = BranchState(
                    bid, mode, bank_pk, mint=None if verify_only else mint
                )
            elif op.verb == "MINT":
                actor, name = op.args[0], op.args[1]
                coins[(actor, name)] = coin_mint(bank_sk, rng)
                minted += 1
            elif op.verb == "WRITE":
                actor, cname, chname, payee, bid = (
                    op.args[0],
                    op.args[1],
                    op.args[2],
                    op.args[3],
                    int(op.args[4]),
                )
                coin = coins.get((actor, cname))
                if coin is None:
                    raise ScenarioError(
                        f"line {op.line_no}: {actor} has no usable coin {cname!r}"
                    )
                coins[(actor, cname)] = None  # burned, success or not
                burned += 1
                try:
                    checks[chname] = check_write(coin, payee, bid, now, rng)
                except SignFailedError:
                    checks[chname] = None
                    write_failures += 1
            elif op.verb == "CASH":
                bid = int(op.args[0])
                chname = op.args[1]
                if bid not in branches:
                    raise ScenarioError(f"line {op.line_no}: branch {bid} undeclared")
                if chname not in checks:
                    raise ScenarioError(f"line {op.line_no}: check {chname!r} unknown")
                check = checks[chname]
                if check is None:
                    # the write burned its coin without producing a check;
                    # there is nothing to present at the counter
                    cash_skipped += 1
                else:
                    _, ev = branch_cash(branches[bid], check, now, rng)
                    ledger.append(ev)
            elif op.verb == "TICK":
                now += int(op.args[0])
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"line {op.line_no}: malformed {op.verb} line") from exc

    stats = {
        "minted": minted,
        "burned": burned,
        "issued": issued,
        "write_failures": write_failures,
        "cash_skipped": cash_skipped,
        "escrowed": sum(len(b.escrowed) for b in branches.values()),
        "cash_events": sum(1 for e in ledger if e.kind == "Cash"),
        "final_time": now,
    }
    return ledger, stats
