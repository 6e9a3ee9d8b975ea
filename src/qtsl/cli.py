"""Command-line front end and the on-disk container format.

Every file the CLI reads or writes is a *container*: canonical JSON with a
magic string, a format version, a kind tag, and a secrecy label.  The label
records what the payload would be in a real deployment:

* ``PUBLIC`` — safe to hand anyone (long-lived public keys, reports);
* ``SECRET`` — the holder's classical secret material;
* ``SIMULATION_SECRET`` — data the abstraction seals (hidden subspaces
  inside serialized oracles, token state vectors) that only exists in the
  clear because this package simulates the quantum side classically.

Untrusted input is expected: every decoder validates shape and raises
DataError, and the driver maps failures to exit codes instead of tracebacks.

Exit codes: 0 success / accept, 1 reject or failed signing, 2 malformed
input or usage, 3 consumed material (a spent token, an exhausted hash-chain
key).
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
from .encoding import (
    canonical_json,
    decode_spaces,
    decode_states,
    decode_vectors,
    encode_space,
    encode_state,
    encode_vector,
    load_json,
)
from .ot1 import MembershipOracle, Ot1Token, TokenSpentError, _hidden_space
from .primitives import (
    HASH_VARIANTS,
    DataError,
    DsPublicKey,
    DsSecretKey,
    KeyExhaustedError,
    hash_chain_secret_key,
    hash_chain_tree,
)
from .qsim import CosetState
from .stack import (
    OtKey,
    OtrKey,
    OtrToken,
    OtSignature,
    OtToken,
    TsPublicKey,
    TsSecretKey,
    TsSignature,
    TsToken,
    one_bit_tokens,
    ts_keygen,
    ts_revoke,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
)

__all__ = [
    "MAGIC",
    "CONTAINER_VERSION",
    "CONTAINER_KINDS",
    "wrap_container",
    "unwrap_container",
    "encode_public_key",
    "decode_public_key",
    "encode_secret_key",
    "decode_secret_key",
    "encode_token",
    "decode_token",
    "encode_signature",
    "decode_signature",
    "encode_check",
    "decode_check",
    "encode_coin",
    "decode_coin",
    "main",
]

MAGIC = "QTSL"
CONTAINER_VERSION = 1

CONTAINER_KINDS = {
    "ts-public-key": "PUBLIC",
    "ts-secret-key": "SECRET",
    "token": "SIMULATION_SECRET",
    "signature": "SIMULATION_SECRET",
    "check": "SIMULATION_SECRET",
    "coin": "SIMULATION_SECRET",
    "report": "PUBLIC",
}


def wrap_container(kind: str, payload: dict) -> bytes:
    if kind not in CONTAINER_KINDS:
        raise ValueError(f"unknown container kind {kind!r}")
    return canonical_json(
        {
            "magic": MAGIC,
            "version": CONTAINER_VERSION,
            "kind": kind,
            "secrecy": CONTAINER_KINDS[kind],
            "payload": payload,
        }
    )


def unwrap_container(data: bytes, kind: str | None = None) -> tuple[str, dict]:
    obj = load_json(data)
    if not isinstance(obj, dict):
        raise DataError("container must be a JSON object")
    if obj.get("magic") != MAGIC:
        raise DataError("bad magic")
    if obj.get("version") != CONTAINER_VERSION:
        raise DataError(f"unsupported container version {obj.get('version')!r}")
    got = obj.get("kind")
    if not isinstance(got, str) or got not in CONTAINER_KINDS:
        raise DataError(f"unknown container kind {got!r}")
    if obj.get("secrecy") != CONTAINER_KINDS[got]:
        raise DataError("secrecy label does not match the container kind")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise DataError("container payload must be an object")
    if kind is not None and got != kind:
        raise DataError(f"container holds {got!r}, expected {kind!r}")
    return got, payload


# ---------------------------------------------------------------------------
# payload codecs (strict: anything off-shape raises DataError)
# ---------------------------------------------------------------------------


def _need(payload: dict, key: str, typ: type):
    if key not in payload:
        raise DataError(f"missing field {key!r}")
    value = payload[key]
    if typ is int and isinstance(value, bool):
        raise DataError(f"field {key!r} must be {typ.__name__}")
    if not isinstance(value, typ):
        raise DataError(f"field {key!r} must be {typ.__name__}")
    return value


def _opt_int(payload: dict, key: str) -> int | None:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"field {key!r} must be an integer or null")
    return value


def _hex(payload: dict, key: str) -> bytes:
    raw = _need(payload, key, str)
    try:
        return bytes.fromhex(raw)
    except ValueError as exc:
        raise DataError(f"field {key!r} is not hex") from exc


def _kappa(kappa: int) -> int:
    if not 1 <= kappa < 1 << 32:  # what keygen accepts and a hash index can carry
        raise DataError(f"kappa {kappa} out of range")
    return kappa


def _dict(payload: dict, key: str) -> dict:
    return _need(payload, key, dict)


def _list(payload: dict, key: str) -> list:
    return _need(payload, key, list)


def _enc_oracle(pk: MembershipOracle) -> dict:
    return {"space": encode_space(_hidden_space(pk)), "key_id": pk.key_id.hex()}


def _enc_ot_public(pub: OtKey) -> dict:
    return {
        "s": pub.s.hex(),
        "components": [_enc_oracle(c) for c in pub.otr.components],
    }


def _dec_ot_public(payload: dict) -> OtKey:
    comps = _list(payload, "components")
    if not comps:
        raise DataError("public key needs at least one component")
    for c in comps:
        if not isinstance(c, dict):
            raise DataError("component must be an object")
    spaces = decode_spaces([_dict(c, "space") for c in comps])
    oracles = tuple(MembershipOracle(sp, _hex(c, "key_id")) for sp, c in zip(spaces, comps))
    return OtKey(_hex(payload, "s"), OtrKey(oracles))


def encode_public_key(pk: TsPublicKey) -> bytes:
    payload = {
        "algo": pk.ds_pk.algo,
        "material": pk.ds_pk.material.hex(),
        "kappa": pk.kappa,
        "hash_variant": pk.hash_variant,
        "n": pk.n_override,
    }
    return wrap_container("ts-public-key", payload)


def _key_params(payload: dict) -> tuple[str, int, str, int | None]:
    """The fields a public and a secret key share, checked: (algo, kappa,
    hash variant, n)."""
    algo = _need(payload, "algo", str)
    if algo not in ("ed25519", "hash-chain"):
        raise DataError(f"unknown signature algorithm {algo!r}")
    hash_variant = _need(payload, "hash_variant", str)
    if hash_variant not in HASH_VARIANTS:
        raise DataError("unknown hash variant")
    return algo, _kappa(_need(payload, "kappa", int)), hash_variant, _opt_int(payload, "n")


def decode_public_key(data: bytes) -> TsPublicKey:
    _, payload = unwrap_container(data, "ts-public-key")
    algo, *params = _key_params(payload)
    return TsPublicKey(DsPublicKey(algo, _hex(payload, "material")), *params)


def encode_secret_key(sk: TsSecretKey) -> bytes:
    payload = {
        "algo": sk.ds_sk.algo,
        "material": sk.ds_sk.material.hex(),
        "next_leaf": sk.ds_sk.next_leaf,
        "capacity_log2": sk.ds_sk.capacity_log2,
        "kappa": sk.kappa,
        "hash_variant": sk.hash_variant,
        "n": sk.n_override,
    }
    if sk.ds_sk.algo == "hash-chain":
        # the leaf level saves every later mint from rehashing all leaves
        leaves, root = hash_chain_tree(sk.ds_sk)
        payload["leaves"] = leaves.hex()
        payload["root"] = root.hex()
    return wrap_container("ts-secret-key", payload)


def decode_secret_key(data: bytes) -> TsSecretKey:
    _, payload = unwrap_container(data, "ts-secret-key")
    algo, *params = _key_params(payload)
    material = _hex(payload, "material")
    next_leaf = _need(payload, "next_leaf", int)
    capacity_log2 = _need(payload, "capacity_log2", int)
    if algo == "hash-chain":
        # keys written before the leaf level was stored carry neither field
        stored = [_hex(payload, k) if k in payload else None for k in ("leaves", "root")]
        ds = hash_chain_secret_key(material, next_leaf, capacity_log2, *stored)
    elif (next_leaf, capacity_log2) != (0, 0) or len(material) != 32:
        raise DataError("an ed25519 key is 32 bytes and carries no leaf state")
    else:
        ds = DsSecretKey(algo, material)
    return TsSecretKey(ds, *params)


def _enc_ot1_token(tok: Ot1Token) -> dict:
    return {
        "state": encode_state(tok.state),
        "key_id": tok.key_id.hex(),
        "lifecycle": tok.lifecycle,
    }


def _dec_ot1_token(payload: dict, state: CosetState) -> Ot1Token:
    lifecycle = _need(payload, "lifecycle", str)
    if lifecycle not in ("fresh", "spent"):
        raise DataError(f"bad lifecycle {lifecycle!r}")
    return Ot1Token(state, _hex(payload, "key_id"), lifecycle)


def _token_payload(token: TsToken) -> dict:
    return {
        "ot_public": _enc_ot_public(token.ot_public),
        "chain_sig": token.chain_sig.hex(),
        "tokens": [_enc_ot1_token(t) for t in token.ot_token.otr.tokens],
    }


def _token_from_payload(payload: dict) -> TsToken:
    ot_public = _dec_ot_public(_dict(payload, "ot_public"))
    comps = [_hidden_space(pk) for pk in ot_public.otr.components]
    objs = _list(payload, "tokens")
    if len(objs) != len(comps):
        raise DataError(f"token has {len(objs)} component tokens, its key {len(comps)}")
    for t in objs:
        if not isinstance(t, dict):
            raise DataError("token component must be an object")
    # a fresh token's state spaces are its public components' spaces
    states = decode_states([_dict(t, "state") for t in objs], comps)
    toks = [_dec_ot1_token(t, state) for t, state in zip(objs, states)]
    for space, tok in zip(comps, toks):
        if tok.state.ambient_n != space.ambient_n:
            raise DataError("token state length disagrees with its public component")
    inner = OtToken(ot_public.s, OtrToken(toks))
    return TsToken(ot_public, _hex(payload, "chain_sig"), inner)


def _sig_payload(sig: TsSignature) -> dict:
    return {
        "ot_public": _enc_ot_public(sig.ot_public),
        "chain_sig": sig.chain_sig.hex(),
        "sigs": [encode_vector(v) for v in sig.ot_sig.sigs],
    }


def _sig_from_payload(payload: dict) -> TsSignature:
    vecs = decode_vectors(_list(payload, "sigs"))
    return TsSignature(
        _dec_ot_public(_dict(payload, "ot_public")),
        _hex(payload, "chain_sig"),
        OtSignature(tuple(vecs)),
    )


def encode_token(token: TsToken) -> bytes:
    return wrap_container("token", _token_payload(token))


def decode_token(data: bytes) -> TsToken:
    return _token_from_payload(unwrap_container(data, "token")[1])


def encode_signature(sig: TsSignature) -> bytes:
    return wrap_container("signature", _sig_payload(sig))


def decode_signature(data: bytes) -> TsSignature:
    return _sig_from_payload(unwrap_container(data, "signature")[1])


def encode_check(check: money.Check) -> bytes:
    payload = {
        "payee": check.payee,
        "branch_id": check.branch_id,
        "timestamp": check.timestamp,
        "nonce": check.nonce.hex(),
        "signature": _sig_payload(check.signature),
    }
    return wrap_container("check", payload)


def decode_check(data: bytes) -> money.Check:
    _, payload = unwrap_container(data, "check")
    branch_id = _need(payload, "branch_id", int)
    timestamp = _need(payload, "timestamp", int)
    if not 0 <= branch_id < (1 << 32):
        raise DataError("branch id out of range")
    if not 0 <= timestamp < (1 << 64):
        raise DataError("timestamp out of range")
    nonce = _hex(payload, "nonce")
    if len(nonce) != 16:
        raise DataError("nonce must be 16 bytes")
    sig = _sig_from_payload(_dict(payload, "signature"))
    return money.Check(_need(payload, "payee", str), branch_id, timestamp, nonce, sig)


def encode_coin(coin: money.Coin) -> bytes:
    return wrap_container("coin", {"serial": coin.serial, "token": _token_payload(coin.token)})


def decode_coin(data: bytes) -> money.Coin:
    _, payload = unwrap_container(data, "coin")
    token = _token_from_payload(_dict(payload, "token"))
    return money.Coin(_need(payload, "serial", str), token)


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


def _replace_durably(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file, fsync it, then rename it over
    ``path``: a crash leaves either the old file or the new one, never a
    truncated key."""
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
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
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
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
    the file as it was.
    """
    import fcntl  # POSIX only; every other command runs without it

    try:
        os.stat(path)  # a mistyped path gets an error, not a stray sidecar
        lock_fd = os.open(f"{path}.lock", os.O_RDWR | os.O_CREAT, 0o600)
    except OSError as exc:
        raise DataError(f"cannot lock {path}: {exc.strerror or exc}") from exc
    try:
        fcntl.flock(lock_fd, fcntl.LOCK_EX)
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


def _require_fresh(token: TsToken) -> None:
    if any(t.lifecycle != "fresh" for t in one_bit_tokens(token)):
        raise TokenSpentError("token file holds a consumed token")


def _cmd_sign(args) -> int:
    doc = _doc_bytes(args)

    def sign(token: TsToken) -> TsSignature | None:
        _require_fresh(token)
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
        _require_fresh(coin.token)
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
    report = runners[args.name](
        n=args.n, ell=args.l, trials=args.trials, seed=args.seed, kappa=_kappa(args.kappa)
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
