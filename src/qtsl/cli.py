"""The ``qtsl`` command line: the commands and their durable file updates.

A command that spends one-time state (a token, a coin, a hash-chain key)
rewrites that file durably under a lock before it writes any output.  The
file formats are ``qtsl.container``'s.  Exit codes: 0 success / accept,
1 reject or failed signing, 2 malformed input or usage, 3 consumed material
(a spent token, an exhausted hash-chain key).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from random import Random

from . import games, money  # lazy: loaded by the commands that use them
from .container import (
    CONTAINER_KINDS,
    _kappa,
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
from .encoding import canonical_json
from .ot1 import TokenSpentError
from .primitives import HASH_VARIANTS, DataError, KeyExhaustedError
from .stack import (
    TsSignature,
    TsToken,
    _token_length,
    ts_keygen,
    ts_revoke,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
)

__all__ = ["main"]


def _report_container(report: games.GameReport) -> bytes:
    return wrap_container("report", json.loads(report.to_json().decode("utf-8")))


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(path: str, data: bytes) -> None:
    """Write a new output file (state files go through ``_locked_update``)."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _partial(path: str) -> Path:
    """The temporary file ``_replace_durably`` writes beside ``path``."""
    target = Path(path)
    return target.with_name(f".{target.name}.qtsl-partial")


def _replace_durably(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file, fsync it, then rename it over
    ``path``: a crash leaves either the old file or the new one, never a
    truncated key.  Only ``_locked_update`` calls this, under the path's
    lock, so the temporary file has one fixed name and one writer."""
    target = Path(path)
    tmp = _partial(path)
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        dir_fd = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _locked_update(path: str, decode, step, encode):
    """Decode ``path``, run ``step`` on the value, durably write back
    ``encode(value)`` when its bytes differ from the file's and return what
    the step returned.

    Token, coin and hash-chain key files hold one-time state, so the whole
    read -> step -> write-back runs under an exclusive lock on a
    ``<path>.lock`` sidecar (the file itself is replaced, so its inode
    cannot carry the lock), and the new state is on disk before the caller
    writes any signature, check, token or coin.  A step that raises leaves
    the file as it was.  A temporary file found under the lock was left by
    a writer that died, so it is deleted (for a hash-chain key it is a copy
    of the secret key).
    """
    import fcntl  # POSIX only; every other command runs without it

    try:
        os.stat(path)  # a mistyped path gets an error, not a stray sidecar
        lock_fd = os.open(f"{path}.lock", os.O_RDWR | os.O_CREAT, 0o600)
    except OSError as exc:
        raise DataError(f"cannot lock {path}: {exc.strerror or exc}") from exc
    try:
        fcntl.flock(lock_fd, fcntl.LOCK_EX)
        _partial(path).unlink(missing_ok=True)
        old = _read(path)
        value = decode(old)
        result = step(value)
        new = encode(value)
        if new != old:
            _replace_durably(path, new)
        return result
    finally:
        os.close(lock_fd)


def _doc_bytes(args) -> bytes:
    if getattr(args, "doc", None) is not None:
        return _read(args.doc)
    text = getattr(args, "text", None)
    if text is None:
        raise DataError("provide a document via --doc or --text")
    return text.encode("utf-8")


def _cmd_keygen(args) -> int:
    rng = Random(args.seed)
    pk, sk = ts_keygen(_kappa(args.kappa), rng, args.hash, args.ds, args.n)
    try:  # never replace a key: that would reset a hash-chain key's next leaf
        fd = os.open(args.secret_out, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError as exc:
        raise DataError(f"cannot create {args.secret_out}: {exc.strerror or exc}") from exc
    with os.fdopen(fd, "wb") as fh:
        fh.write(encode_secret_key(sk))
    _write(args.public_out, encode_public_key(pk))
    print(f"wrote public key to {args.public_out} and secret key to {args.secret_out}")
    return 0


def _cmd_mint(args) -> int:
    token = _locked_update(
        args.secret_key,
        decode_secret_key,
        lambda sk: ts_token_gen(sk, Random(args.seed)),
        encode_secret_key,
    )
    _write(args.out, encode_token(token))
    print(f"minted token -> {args.out}")
    return 0


def _cmd_sign(args) -> int:
    doc = _doc_bytes(args)

    def sign(token: TsToken) -> TsSignature | None:
        return ts_sign(doc, token, Random(args.seed))  # consumed either way

    sig = _locked_update(args.token, decode_token, sign, encode_token)
    if sig is None:
        print("signing failed (zero outcome); token consumed", file=sys.stderr)
        return 1
    _write(args.out, encode_signature(sig))
    print(f"signed -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    pk = decode_public_key(_read(args.public_key))
    sig = decode_signature(_read(args.signature))
    ok = ts_verify(pk, _doc_bytes(args), sig)
    print("ACCEPT" if ok else "REJECT")
    return 0 if ok else 1


def _cmd_verify_token(args) -> int:
    pk = decode_public_key(_read(args.public_key))
    ok = _locked_update(
        args.token,
        decode_token,
        lambda token: ts_verify_token(pk, token, Random(args.seed)),
        encode_token,
    )
    print("ACCEPT" if ok else "REJECT")
    return 0 if ok else 1


def _cmd_revoke(args) -> int:
    pk = decode_public_key(_read(args.public_key))
    ok = _locked_update(
        args.token,
        decode_token,
        lambda token: ts_revoke(pk, token, Random(args.seed)),
        encode_token,
    )
    print("REVOKED" if ok else "REVOCATION FAILED")
    return 0 if ok else 1


def _cmd_mint_coin(args) -> int:
    coin = _locked_update(
        args.secret_key,
        decode_secret_key,
        lambda sk: money.coin_mint(sk, Random(args.seed)),
        encode_secret_key,
    )
    _write(args.out, encode_coin(coin))
    print(f"minted coin {coin.serial[:16]}... -> {args.out}")
    return 0


def _cmd_check_write(args) -> int:
    def write(coin: money.Coin) -> money.Check | None:
        try:
            return money.check_write(coin, args.payee, args.branch, args.time, Random(args.seed))
        except money.SignFailedError:
            return None  # the coin is burned either way

    check = _locked_update(args.coin, decode_coin, write, encode_coin)
    if check is None:
        print("check signing failed; coin is burned", file=sys.stderr)
        return 1
    _write(args.out, encode_check(check))
    print(f"wrote check -> {args.out}")
    return 0


def _cmd_check_verify(args) -> int:
    pk = decode_public_key(_read(args.public_key))
    check = decode_check(_read(args.check))
    ok = money.check_verify(pk, check)
    print("ACCEPT" if ok else "REJECT")
    return 0 if ok else 1


def _cmd_bank_sim(args) -> int:
    text = _read(args.scenario).decode("utf-8", errors="replace")
    ledger, stats = money.simulate_bank(
        text, Random(args.seed), _kappa(args.kappa), args.hash, args.n
    )
    for ev in ledger:
        line = canonical_json(
            {
                "kind": ev.kind,
                "branch": ev.branch_id,
                "digest": ev.check_digest,
                "time": ev.time,
            }
        )
        print(line.decode("utf-8"))
    print(canonical_json(stats).decode("utf-8"))
    return 0


def _cmd_game(args) -> int:
    runners = games.GAME_RUNNERS
    if args.name not in runners:
        raise DataError(f"unknown game {args.name!r}; choose from {sorted(runners)}")
    n = _token_length(args.n)  # one check for every runner, before any runner arithmetic
    report = runners[args.name](
        n=n, ell=args.l, trials=args.trials, seed=args.seed, kappa=_kappa(args.kappa)
    )
    print(report.to_json().decode("utf-8"))
    if args.out:
        _write(args.out, _report_container(report))
    return 0


def _cmd_show(args) -> int:
    kind, payload = unwrap_container(_read(args.path))
    print(f"kind: {kind}")
    print(f"secrecy: {CONTAINER_KINDS[kind]}")
    print(f"fields: {', '.join(sorted(payload))}")
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def step(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        rng = Random(args.seed)
        pk, sk = ts_keygen(16, rng, "toy-8", None, 8)
        step("keygen", True)
        sig = None
        attempts = 0
        while sig is None and attempts < 50:
            token = ts_token_gen(sk, rng)
            sig = ts_sign(b"selftest", token, rng)
            attempts += 1
        step("sign-within-attempts", sig is not None)
        if sig is not None:
            step("verify-accepts", ts_verify(pk, b"selftest", sig))
            step("verify-rejects-other-doc", not ts_verify(pk, b"other", sig))
        blob = encode_public_key(pk)
        step("container-roundtrip", decode_public_key(blob).ds_pk == pk.ds_pk)
        path = base / "pk.qtsl"
        path.write_bytes(blob)
        step("container-reread", decode_public_key(path.read_bytes()).kappa == pk.kappa)
    print(f"selftest: {'ok' if failures == 0 else f'{failures} failures'}")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtsl",
        description="Desk-scale tokenized signatures over hidden binary subspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="deterministic rng seed")

    p = sub.add_parser("keygen", help="create a long-lived key pair")
    p.add_argument("--kappa", type=int, default=64)
    p.add_argument("--hash", choices=sorted(HASH_VARIANTS), default="sha256-256")
    p.add_argument("--n", type=int, default=None, help="override token length")
    p.add_argument("--ds", choices=("ed25519", "hash-chain"), default=None)
    p.add_argument("--public-out", required=True)
    p.add_argument("--secret-out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("mint", help="mint one single-use token")
    p.add_argument("--secret-key", required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_mint)

    p = sub.add_parser("sign", help="consume a token to sign a document")
    p.add_argument("--token", required=True)
    p.add_argument("--doc", help="document file")
    p.add_argument("--text", help="document as a UTF-8 string")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("verify", help="verify a signature")
    p.add_argument("--public-key", required=True)
    p.add_argument("--doc")
    p.add_argument("--text")
    p.add_argument("--signature", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-token", help="non-destructively test a token")
    p.add_argument("--public-key", required=True)
    p.add_argument("--token", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_verify_token)

    p = sub.add_parser("revoke", help="consume a token to prove it back in")
    p.add_argument("--public-key", required=True)
    p.add_argument("--token", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_revoke)

    p = sub.add_parser("mint-coin", help="mint a coin (serial + token)")
    p.add_argument("--secret-key", required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_mint_coin)

    p = sub.add_parser("check-write", help="burn a coin to write a check")
    p.add_argument("--coin", required=True)
    p.add_argument("--payee", required=True)
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("--time", type=int, required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_check_write)

    p = sub.add_parser("check-verify", help="verify a check's signature")
    p.add_argument("--public-key", required=True)
    p.add_argument("--check", required=True)
    p.set_defaults(func=_cmd_check_verify)

    p = sub.add_parser("bank-sim", help="run a scripted bank scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--kappa", type=int, default=64)
    p.add_argument("--hash", choices=sorted(HASH_VARIANTS), default="toy-16")
    p.add_argument("--n", type=int, default=8)
    add_seed(p)
    p.set_defaults(func=_cmd_bank_sim)

    p = sub.add_parser("game", help="run a security game and print the report")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--kappa", type=int, default=16)
    p.add_argument("--out")
    add_seed(p)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("show", help="describe a container file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("selftest", help="quick end-to-end smoke test")
    add_seed(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (TokenSpentError, KeyExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
