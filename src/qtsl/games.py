"""Security games, adversary strategies, and measurement experiments.

Every game is a Monte Carlo estimate with a Wilson 95% interval, driven by
per-trial rng streams derived deterministically from a master seed, so a
report is a pure function of (parameters, seed) and safe to compare
byte-for-byte across runs.

A trial may be declared *void* by a strategy (TrialVoid): the trial is
discarded and re-run under the next derived stream.  Strategies use this to
condition a measured rate on their visible honest steps succeeding (e.g. a
forger whose first, legitimate signing attempt failed openly), which is the
convention the analytic reference values in this module assume.

This module alone enforces the threat model.  A strategy whose capability
grants oracle access gets the public key itself as ``TrialContext.pk_view``.
Any other strategy gets a stand-in of which every attribute read raises
``CapabilityViolation``, whatever the handle: it holds no oracle, no secret
key and no public material, so passing it to ``handle.verify`` or
``handle.verify_token`` raises too.  Until the tokens become opaque registers,
such a strategy still reaches through its tokens what they carry: a token's
``state.space``, and a ``ts`` token's ``ot_public`` oracles.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from random import Random
from typing import Any, Callable

from . import ot1 as _ot1
from . import privts as _privts
from . import stack as _stack
from .encoding import canonical_json, digest
from .f2lin import (
    F2Vector,
    dual,
    enumerate_subspaces,
    intersection_dim,
    member,
    sample_nonzero_element,
    sample_related,
    sample_subspace,
)
from .ot1 import Ot1Signature
from .primitives import hash_eval
from .qsim import hadamard_all, measure_standard

__all__ = [
    "Capability",
    "AdversaryStrategy",
    "TrialVoid",
    "CapabilityViolation",
    "GameReport",
    "SchemeHandle",
    "wilson_interval",
    "derive_rng",
    "ot1_handle",
    "priv_ot1_handle",
    "otr_handle",
    "ot_handle",
    "ts_handle",
    "tm_handle",
    "game_unforgeability",
    "game_revocability",
    "game_testability",
    "game_everlasting",
    "game_super_security",
    "game_unpredictability",
    "honest_strategy",
    "naive_double_sign_strategy",
    "collision_forgery_strategy",
    "spent_token_strategy",
    "double_revoke_strategy",
    "measure_and_guess_strategy",
    "enumerate_consistent_strategy",
    "same_pair_twice_strategy",
    "query_count_experiment",
    "relation_statistics",
    "two_faced_demo",
    "GAME_RUNNERS",
]

_Z95 = 1.959963984540054


class TrialVoid(Exception):
    """The strategy aborted before its scored step; re-run the trial."""


class CapabilityViolation(RuntimeError):
    """A strategy used a resource its declared capability forbids."""


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def derive_rng(seed: int, label: str, index: int) -> Random:
    """Deterministic per-trial stream: hash the (seed, label, index) triple."""
    material = f"{seed}|{label}|{index}".encode()
    return Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))


@dataclass(frozen=True)
class Capability:
    """What a strategy is allowed to touch.

    Without ``oracle_access`` its ``pk_view`` raises ``CapabilityViolation``
    on every attribute read, but its tokens still carry ``state.space`` (and a
    ``ts`` token its ``ot_public`` oracles) until they become opaque registers."""

    tokens: int = 1
    oracle_access: bool = True


@dataclass(frozen=True)
class AdversaryStrategy:
    name: str
    capability: Capability
    program: Callable[["TrialContext"], Any]


@dataclass
class TrialContext:
    """Everything a strategy may see inside one trial."""

    handle: "SchemeHandle"
    pk_view: Any
    tokens: list
    rng: Random


@dataclass(frozen=True)
class GameReport:
    name: str
    params: dict
    successes: int
    trials: int
    voided: int
    rate: float
    wilson_95: tuple[float, float]
    analytic: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> bytes:
        obj = {
            "name": self.name,
            "params": self.params,
            "successes": self.successes,
            "trials": self.trials,
            "voided": self.voided,
            "rate": repr(self.rate),
            "rate_fraction": f"{self.successes}/{self.trials}",
            "wilson_95": [repr(self.wilson_95[0]), repr(self.wilson_95[1])],
            "analytic": None if self.analytic is None else repr(self.analytic),
            "extra": _jsonable(self.extra),
        }
        return canonical_json(obj)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_fields"):  # a named tuple (e.g. a CosetState) is no list
        raise TypeError(f"{type(obj).__name__} has no report form")
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def _trial_loop(
    label: str, trials: int, seed: int, trial: Callable[[Random], bool]
) -> tuple[int, int]:
    """Run attempt i on ``derive_rng(seed, label, i)`` until ``trials`` were
    scored; return (successes, voided).  ``trials`` must be at least 1.

    The runaway guard counts only the voids since the last scored trial: a
    game whose usable draws are rare (two-faced at n = 4 keeps about 1 % of
    them) still finishes, while a strategy that never scores is stopped."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    successes = voided = streak = done = attempt = 0
    while done < trials:
        rng = derive_rng(seed, label, attempt)
        attempt += 1
        try:
            if trial(rng):
                successes += 1
        except TrialVoid:
            voided += 1
            streak += 1
            if streak > 50 * trials + 1000:
                raise RuntimeError(f"{label}: voided trials dominate; check the strategy")
            continue
        streak = 0
        done += 1
    return successes, voided


def _report(
    name: str,
    params: dict,
    trials: int,
    seed: int,
    counts: tuple[int, int],
    analytic: float | None = None,
    extra: dict | None = None,
) -> GameReport:
    """The report of ``trials`` scored trials with (successes, voided) ``counts``."""
    successes, voided = counts
    return GameReport(
        name=name,
        params=dict(params, trials=trials, seed=seed),
        successes=successes,
        trials=trials,
        voided=voided,
        rate=successes / trials,
        wilson_95=wilson_interval(successes, trials),
        analytic=analytic,
        extra=extra or {},
    )


# ---------------------------------------------------------------------------
# scheme handles: one narrow interface over every layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeHandle:
    """Uniform access to one scheme layer for the games.

    ``sign`` may return None (failed signing); ``sig_bytes`` is the byte form
    that distinct-pair scoring compares."""

    name: str
    params: dict
    keygen: Callable[[Random], tuple[Any, Any]]
    token_gen: Callable[[Any, Random], Any]
    sign: Callable[[Any, Any, Random], Any]
    verify: Callable[[Any, Any, Any], bool]
    random_doc: Callable[[Random], Any]
    verify_token: Callable[[Any, Any, Random], bool]
    sig_bytes: Callable[[Any], bytes]


def _private(handle: SchemeHandle, name: str) -> SchemeHandle:
    """``handle`` over private keys: the secret key is also the verification key."""

    def keygen(rng: Random) -> tuple[Any, Any]:
        _, sec = handle.keygen(rng)
        return sec, sec

    return replace(handle, name=name, keygen=keygen)


def ot1_handle(kappa: int = 16, n: int | None = 8) -> SchemeHandle:
    return SchemeHandle(
        name="ot1",
        params={"kappa": kappa, "n": n},
        keygen=lambda rng: _ot1.ot1_keygen(kappa, rng, n),
        token_gen=lambda sk, rng: _ot1.ot1_token_gen(sk),
        sign=_ot1.ot1_sign,
        verify=lambda key, doc, sig: isinstance(sig, Ot1Signature)
        and sig.alpha == doc
        and _ot1.ot1_verify(key, doc, sig.sig),
        random_doc=lambda rng: rng.getrandbits(1),
        verify_token=_ot1.ot1_verify_token,
        sig_bytes=lambda sig: f"{sig.alpha}:{sig.sig}".encode(),
    )


def priv_ot1_handle(kappa: int = 16, n: int | None = 8) -> SchemeHandle:
    return _private(ot1_handle(kappa, n), "priv-ot1")


def otr_handle(
    kappa: int = 16, r: int = 4, n: int | None = 8, private: bool = False
) -> SchemeHandle:
    handle = SchemeHandle(
        name="otr",
        params={"kappa": kappa, "r": r, "n": n},
        keygen=lambda rng: _stack.otr_keygen(kappa, r, rng, n),
        token_gen=lambda sk, rng: _stack.otr_token_gen(sk),
        sign=_stack.otr_sign,
        verify=_stack.otr_verify,
        random_doc=lambda rng: format(rng.getrandbits(r), f"0{r}b"),
        verify_token=_stack.otr_verify_token,
        sig_bytes=lambda sig: repr(sig.sigs).encode(),
    )
    return _private(handle, "otr-private") if private else handle


def ot_handle(
    kappa: int = 16,
    hash_variant: str = "toy-8",
    n: int | None = 8,
    private: bool = False,
) -> SchemeHandle:
    handle = SchemeHandle(
        name="ot",
        params={"kappa": kappa, "hash": hash_variant, "n": n},
        keygen=lambda rng: _stack.ot_keygen(kappa, rng, hash_variant, n),
        token_gen=lambda sk, rng: _stack.ot_token_gen(sk),
        sign=_stack.ot_sign,
        verify=_stack.ot_verify,
        random_doc=lambda rng: _stack.random_document(kappa, rng),
        verify_token=_stack.ot_verify_token,
        sig_bytes=lambda sig: repr(sig.sigs).encode(),
    )
    return _private(handle, "ot-private") if private else handle


def ts_handle(
    kappa: int = 16,
    hash_variant: str = "toy-8",
    n: int | None = 8,
) -> SchemeHandle:
    return SchemeHandle(
        name="ts",
        params={"kappa": kappa, "hash": hash_variant, "n": n},
        keygen=lambda rng: _stack.ts_keygen(kappa, rng, hash_variant, n_override=n),
        token_gen=_stack.ts_token_gen,
        sign=_stack.ts_sign,
        verify=_stack.ts_verify,
        random_doc=lambda rng: _stack.random_document(kappa, rng),
        verify_token=_stack.ts_verify_token,
        sig_bytes=lambda sig: _stack.encode_ot_public(sig.ot_public)
        + sig.chain_sig
        + repr(sig.ot_sig.sigs).encode(),
    )


def tm_handle(
    kappa: int = 16, hash_variant: str = "toy-8", n: int | None = 8
) -> SchemeHandle:
    return SchemeHandle(
        name="tm",
        params={"kappa": kappa, "hash": hash_variant, "n": n},
        keygen=lambda rng: ((key := _privts.tm_keygen(kappa, rng, hash_variant, n)), key),
        token_gen=_privts.tm_token_gen,
        sign=_privts.tm_sign,
        verify=_privts.tm_verify,
        random_doc=lambda rng: _stack.random_document(kappa, rng),
        verify_token=_privts.tm_verify_token,
        sig_bytes=lambda sig: sig.key_blob + sig.tag + repr(sig.ot_sig.sigs).encode(),
    )


def _revoke_states(
    handle: SchemeHandle,
    pk: Any,
    states: list,
    rng: Random,
    distinct_docs: bool,
) -> bool:
    """Revoke each returned register: sign a fresh random document, verify.

    With ``distinct_docs`` the trial is voided when two revocation draws
    collide — the analytic references assume full-length documents, where
    collisions never happen; the one-bit desk scheme would otherwise replay.
    """
    docs = [handle.random_doc(rng) for _ in states]
    if distinct_docs and len(set(docs)) != len(docs):
        raise TrialVoid
    return all(
        state is not None and _stack.revoke(handle.sign, handle.verify, pk, doc, state, rng)
        for doc, state in zip(docs, states)
    )


class _Withheld:
    """A no-oracle strategy's ``pk_view``: reading any attribute raises, so
    neither the strategy nor a verifier it calls can use it as a key."""

    __slots__ = ()

    def __getattribute__(self, name: str) -> Any:
        raise CapabilityViolation(f"no oracle access: cannot read {name!r} of the public key")


def _strategy_game(
    game: str,
    handle: SchemeHandle,
    strategy: AdversaryStrategy,
    ell: int,
    trials: int,
    seed: int,
    analytic: float | None,
    score: Callable[[Any, Any, Random], bool],
    **params: Any,
) -> GameReport:
    """Per trial: keygen, mint ell tokens, run the strategy on its view of the
    public key, and pass a non-None result to ``score(pk, out, rng)``."""
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    if strategy.capability.tokens < ell:
        raise CapabilityViolation(
            f"{strategy.name} declares {strategy.capability.tokens} tokens, game hands {ell}"
        )

    def trial(rng: Random) -> bool:
        pk, sk = handle.keygen(rng)
        tokens = [handle.token_gen(sk, rng) for _ in range(ell)]
        view = pk if strategy.capability.oracle_access else _Withheld()
        out = strategy.program(TrialContext(handle, view, tokens, rng))
        return out is not None and score(pk, out, rng)

    name = f"{game}[{handle.name}/{strategy.name}]"
    params = dict(handle.params, l=ell, **params, strategy=strategy.name)
    return _report(name, params, trials, seed, _trial_loop(name, trials, seed, trial), analytic)


# ---------------------------------------------------------------------------
# the games
# ---------------------------------------------------------------------------


def game_unforgeability(
    handle: SchemeHandle,
    strategy: AdversaryStrategy,
    ell: int,
    trials: int,
    seed: int,
    analytic: float | None = None,
) -> GameReport:
    """Mint ell tokens, run the strategy, score verify_{ell+1}: ell+1 pairs
    with pairwise-distinct documents that all verify."""

    def score(pk: Any, pairs: Any, rng: Random) -> bool:
        return len(pairs) == ell + 1 and _stack.verify_k(handle.verify, pk, list(pairs))

    return _strategy_game("unforgeability", handle, strategy, ell, trials, seed, analytic, score)


def game_revocability(
    handle: SchemeHandle,
    strategy: AdversaryStrategy,
    ell: int,
    t: int,
    trials: int,
    seed: int,
    analytic: float | None = None,
) -> GameReport:
    """Strategy returns (pairs, states); score verify_t on the pairs and a
    successful revocation of all ell − t + 1 returned registers."""

    def score(pk: Any, out: Any, rng: Random) -> bool:
        pairs, states = out
        if len(pairs) != t or len(states) != ell - t + 1:
            return False
        if not _stack.verify_k(handle.verify, pk, list(pairs)):
            return False
        return _revoke_states(handle, pk, list(states), rng, distinct_docs=True)

    return _strategy_game(
        "revocability", handle, strategy, ell, trials, seed, analytic, score, t=t
    )


def game_testability(
    handle: SchemeHandle,
    k: int,
    trials: int,
    seed: int,
    analytic: float | None = None,
) -> GameReport:
    """k consecutive non-destructive token checks, then sign-and-verify.

    Success means: every check accepted, and the signature verified."""

    def trial(rng: Random) -> bool:
        pk, sk = handle.keygen(rng)
        token = handle.token_gen(sk, rng)
        for _ in range(k):
            if not handle.verify_token(pk, token, rng):
                return False
        doc = handle.random_doc(rng)
        sig = handle.sign(doc, token, rng)
        return sig is not None and handle.verify(pk, doc, sig)

    name = f"testability[{handle.name}]"
    counts = _trial_loop(name, trials, seed, trial)
    return _report(name, dict(handle.params, k=k), trials, seed, counts, analytic)


def game_everlasting(
    handle: SchemeHandle,
    strategy: AdversaryStrategy,
    ell: int,
    trials: int,
    seed: int,
    analytic: float | None = None,
) -> GameReport:
    """The strategy gets tokens but no oracle; it must both return states
    that pass revocation and forge one verifying pair."""
    if strategy.capability.oracle_access:
        raise CapabilityViolation("everlasting game requires oracle_access=False")

    def score(pk: Any, out: Any, rng: Random) -> bool:
        states, (doc, sig) = out
        if len(states) != ell:
            return False
        if not _revoke_states(handle, pk, list(states), rng, distinct_docs=False):
            return False
        return handle.verify(pk, doc, sig)

    return _strategy_game("everlasting", handle, strategy, ell, trials, seed, analytic, score)


def game_super_security(
    handle: SchemeHandle,
    strategy: AdversaryStrategy,
    ell: int,
    trials: int,
    seed: int,
    analytic: float | None = None,
) -> GameReport:
    """Like unforgeability but scored with pairwise-distinct (doc, sig)
    pairs instead of distinct documents."""

    def score(pk: Any, pairs: Any, rng: Random) -> bool:
        return len(pairs) == ell + 1 and _stack.verify_prime_k(
            handle.verify, pk, list(pairs), handle.sig_bytes
        )

    return _strategy_game("super-security", handle, strategy, ell, trials, seed, analytic, score)


def game_unpredictability(
    handle: SchemeHandle,
    trials: int,
    seed: int,
) -> GameReport:
    """Two fresh tokens sign the same random document; success is the two
    signatures colliding byte-for-byte."""

    def trial(rng: Random) -> bool:
        pk, sk = handle.keygen(rng)
        doc = handle.random_doc(rng)
        t1 = handle.token_gen(sk, rng)
        t2 = handle.token_gen(sk, rng)
        s1 = handle.sign(doc, t1, rng)
        s2 = handle.sign(doc, t2, rng)
        if s1 is None or s2 is None:
            raise TrialVoid
        return handle.sig_bytes(s1) == handle.sig_bytes(s2)

    name = f"unpredictability[{handle.name}]"
    return _report(name, handle.params, trials, seed, _trial_loop(name, trials, seed, trial), 0.0)


# ---------------------------------------------------------------------------
# strategy library
# ---------------------------------------------------------------------------


def _sign_or_void(ctx: TrialContext, doc: Any, token: Any) -> Any:
    """Sign a visible honest step; a failed signature voids the trial."""
    sig = ctx.handle.sign(doc, token, ctx.rng)
    if sig is None:
        raise TrialVoid
    return sig


def honest_strategy(ell: int) -> AdversaryStrategy:
    """Sign each token on a distinct random document; never forges."""

    def program(ctx: TrialContext):
        pairs = []
        docs = set()
        for token in ctx.tokens:
            while True:
                doc = ctx.handle.random_doc(ctx.rng)
                if doc not in docs:
                    docs.add(doc)
                    break
            pairs.append((doc, _sign_or_void(ctx, doc, token)))
        return pairs

    return AdversaryStrategy("honest", Capability(tokens=ell), program)


def naive_double_sign_strategy() -> AdversaryStrategy:
    """One-bit forger: sign 0 honestly, then measure the residual in the
    Hadamard basis hoping to land a valid signature for 1.

    Voids the trial when the visible honest signing step fails, so the
    reported rate is conditioned on a usable first signature."""

    def program(ctx: TrialContext):
        (token,) = ctx.tokens
        sig0 = _sign_or_void(ctx, 0, token)
        rotated = hadamard_all(token.state)
        outcome, post = measure_standard(rotated, ctx.rng)
        token.state = post
        forged = Ot1Signature(1, outcome, token.key_id)
        return [(0, sig0), (1, forged)]

    return AdversaryStrategy("naive-double-sign", Capability(tokens=1), program)


def collision_forgery_strategy() -> AdversaryStrategy:
    """Find two documents with one digest, sign one, replay for the other.

    Works against any hash-and-sign layer whose digest is short enough to
    collide within the budget of 512 hash evaluations."""

    def program(ctx: TrialContext):
        token = ctx.tokens[0]  # the hash index travels with the token
        s = token.s if isinstance(token, _stack.OtToken) else token.ot_token.s
        seen: dict[str, bytes] = {}
        collision = None
        for i in range(512):
            doc = b"doc-%06d" % i
            h = hash_eval(s, doc)
            if h in seen and seen[h] != doc:
                collision = (seen[h], doc)
                break
            seen[h] = doc
        if collision is None:
            return None
        d1, d2 = collision
        sig = _sign_or_void(ctx, d1, token)
        return [(d1, sig), (d2, sig)]

    return AdversaryStrategy("collision-forgery", Capability(tokens=1), program)


def spent_token_strategy() -> AdversaryStrategy:
    """Revocability adversary: sign one document, hand the spent token back
    as the revocation register."""

    def program(ctx: TrialContext):
        (token,) = ctx.tokens
        doc = ctx.handle.random_doc(ctx.rng)
        sig = _sign_or_void(ctx, doc, token)
        return [(doc, sig)], [token]

    return AdversaryStrategy("spent-token", Capability(tokens=1), program)


def double_revoke_strategy() -> AdversaryStrategy:
    """Return the same token for two revocations (t = 0)."""

    def program(ctx: TrialContext):
        (token,) = ctx.tokens
        return [], [token, token]

    return AdversaryStrategy("double-revoke", Capability(tokens=1), program)


def measure_and_guess_strategy() -> AdversaryStrategy:
    """No-oracle adversary: measure the token, return the residual for
    revocation, and guess a uniformly random vector as the other signature."""

    def program(ctx: TrialContext):
        (token,) = ctx.tokens
        outcome, post = measure_standard(token.state, ctx.rng)
        token.state = post
        n = post.ambient_n
        guess = F2Vector(n, ctx.rng.getrandbits(n))
        return [token], (1, Ot1Signature(1, guess, token.key_id))

    return AdversaryStrategy(
        "measure-and-guess", Capability(tokens=1, oracle_access=False), program
    )


def enumerate_consistent_strategy() -> AdversaryStrategy:
    """Unbounded-desk no-oracle adversary at small n: enumerate every
    half-dimension subspace containing the measured point, pick one, and
    answer with a random nonzero vector of its dual."""

    def program(ctx: TrialContext):
        (token,) = ctx.tokens
        outcome, post = measure_standard(token.state, ctx.rng)
        token.state = post
        n = post.ambient_n
        candidates = [
            sp
            for sp in enumerate_subspaces(n, n // 2)
            if outcome.is_zero() or member(sp, outcome)
        ]
        pick = ctx.rng.choice(candidates)
        guess = sample_nonzero_element(dual(pick), ctx.rng)
        return [token], (1, Ot1Signature(1, guess, token.key_id))

    return AdversaryStrategy(
        "enumerate-consistent",
        Capability(tokens=1, oracle_access=False),
        program,
    )


def same_pair_twice_strategy() -> AdversaryStrategy:
    """Emit one honest (doc, sig) pair twice; distinct-pair scoring kills it."""

    def program(ctx: TrialContext):
        (token,) = ctx.tokens
        doc = ctx.handle.random_doc(ctx.rng)
        sig = _sign_or_void(ctx, doc, token)
        return [(doc, sig), (doc, sig)]

    return AdversaryStrategy("same-pair-twice", Capability(tokens=1), program)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def query_count_experiment(
    ns: tuple[int, ...] = (4, 6, 8, 10),
    trials: int = 2000,
    seed: int = 1,
    kappa: int = 16,
) -> GameReport:
    """Success of forgery strategies as a function of oracle-query budget.

    Three strategies per n: zero-query measure-and-guess, budgeted random
    querying, and exhaustive reconstruction (2^{n+1} queries, success 1).
    Descriptive: the extra payload carries the full success-vs-budget curves
    and the square-root reference scale 2^{n/4} for each n.  The report's own
    counts are those of the zero-query point at ``ns[0]``.

    This is an experiment that holds the key, not a strategy: each trial
    queries the oracle ``pk`` directly, outside the capability rule."""
    curves: dict[int, dict] = {}
    head = (0, 0)
    for n in ns:
        budgets = sorted(
            {0, 1, 2, 4, 8, 16, 1 << (n // 4), 1 << (n // 2), 1 << min(n // 2 + 2, 9)}
        )
        per_budget = []
        for budget in budgets:

            def trial(rng: Random) -> bool:
                pk, sk = _ot1.ot1_keygen(kappa, rng, n)
                token = _ot1.ot1_token_gen(sk)
                outcome, post = measure_standard(token.state, rng)
                if outcome.is_zero():
                    raise TrialVoid  # conditioned on a usable measured point
                guess = None
                for _ in range(budget):
                    cand = F2Vector(n, rng.getrandbits(n))
                    if pk.query(cand, 1) and not cand.is_zero():
                        guess = cand
                        break
                if guess is None:
                    guess = F2Vector(n, rng.getrandbits(n))
                return member(dual(sk.space), guess) and not guess.is_zero()

            counts = _trial_loop(f"qce-{n}-{budget}", trials, seed, trial)
            if (n, budget) == (ns[0], 0):
                head = counts
            per_budget.append({"budget": budget, "rate": counts[0] / trials})
        exhaustive_queries = 1 << (n + 1)
        curves[n] = {
            "curve": per_budget,
            "zero_query_analytic": ((1 << (n // 2)) - 1) / (1 << n),
            "sqrt_reference_budget": 2 ** (n / 4),
            "exhaustive_queries": exhaustive_queries,
            "exhaustive_rate": 1.0,
        }
    params = {"ns": list(ns), "kappa": kappa}
    return _report("query-count", params, trials, seed, head, extra={"curves": curves})


def relation_statistics(
    n: int = 8, trials: int = 100_000, seed: int = 3
) -> GameReport:
    """Sampled statistics of the half-overlap neighbor construction.

    Checks, per sampled (A, pair, B): the overlap dimension is exactly
    n/2 − 1, and whether the forgery-relevant pair (a, b) of A survives into
    the corresponding set of B."""
    p_keep_a_analytic = 0.5 * (1 - 1 / (2 ** (n // 2) - 1))
    p_keep_b_analytic = (2 ** (n // 2 - 1) - 1) / (2 ** (n // 2) - 1)
    joint_analytic = p_keep_a_analytic * p_keep_b_analytic

    keep_a = keep_b = 0

    def trial(rng: Random) -> bool:
        nonlocal keep_a, keep_b
        a_space = sample_subspace(n, rng)
        a = sample_nonzero_element(a_space, rng)
        b = sample_nonzero_element(dual(a_space), rng)
        b_space = sample_related(a_space, rng)
        if intersection_dim(a_space, b_space) != n // 2 - 1:
            raise AssertionError("neighbor sampler broke the overlap invariant")
        ka = member(b_space, a)
        kb = member(dual(b_space), b)
        keep_a += ka
        keep_b += kb
        return ka and kb

    counts = _trial_loop(f"relation-{n}", trials, seed, trial)
    return _report(
        "relation-statistics",
        {"n": n},
        trials,
        seed,
        counts,
        joint_analytic,
        extra={
            "keep_a_rate": keep_a / trials,
            "keep_a_analytic": p_keep_a_analytic,
            "keep_b_rate": keep_b / trials,
            "keep_b_analytic": p_keep_b_analytic,
            "quarter_bound": 0.25,
        },
    )


def two_faced_demo(
    seed: int = 5,
    n: int = 8,
    trials: int = 10_000,
) -> GameReport:
    """Three-party transcript: a signer, and two verifiers who each demand a
    signature on their own document.

    Variants: honest (sign for one verifier only), equivocating (replay the
    consumed token's residual for the second verifier — rejected almost
    always), and two-token (sign both, which succeeds but exposes two
    distinct token serials).  The report measures the equivocation
    rejection rate and carries the transcript in ``extra["transcript"]``."""
    kappa, hash_variant = 32, "toy-16"
    rng = derive_rng(seed, "two-faced-setup", 0)
    pk, sk = _stack.ts_keygen(kappa, rng, hash_variant, n_override=n)
    transcript: list[dict] = []

    def serial(token) -> str:
        return digest(_stack.encode_ot_public(token.ot_public))[:16]

    # honest run
    run = derive_rng(seed, "two-faced-honest", 0)
    token = _stack.ts_token_gen(sk, run)
    doc_b, doc_c = b"pay verifier B", b"pay verifier C"
    sig = None
    while sig is None:
        sig = _stack.ts_sign(doc_b, token, run)
        if sig is None:
            token = _stack.ts_token_gen(sk, run)
    transcript.append(
        {
            "variant": "honest",
            "serial": serial(token),
            "verifier_b_accepts": _stack.ts_verify(pk, doc_b, sig),
            "verifier_c_request": "declined (token already spent)",
        }
    )

    # equivocating runs, measured
    def equivocate(run: Random) -> bool:
        token = _stack.ts_token_gen(sk, run)
        sig_b = _stack.ts_sign(doc_b, token, run)
        if sig_b is None or not _stack.ts_verify(pk, doc_b, sig_b):
            raise TrialVoid
        return not _stack.revoke(_stack.ts_sign, _stack.ts_verify, pk, doc_c, token, run)

    counts = _trial_loop("two-faced-equivocate", trials, seed, equivocate)
    rejected = counts[0]
    transcript.append(
        {
            "variant": "equivocating",
            "trials": trials,
            "second_signature_rejected": rejected,
            "rejection_rate": rejected / trials,
        }
    )

    # two-token run
    run = derive_rng(seed, "two-faced-two-token", 0)
    t1 = _stack.ts_token_gen(sk, run)
    t2 = _stack.ts_token_gen(sk, run)
    s1 = _stack.ts_sign(doc_b, t1, run)
    s2 = _stack.ts_sign(doc_c, t2, run)
    transcript.append(
        {
            "variant": "two-token",
            "serials": sorted({serial(t1), serial(t2)}),
            "verifier_b_accepts": s1 is not None and _stack.ts_verify(pk, doc_b, s1),
            "verifier_c_accepts": s2 is not None and _stack.ts_verify(pk, doc_c, s2),
            "flag": "two distinct serials visible to any auditor comparing transcripts",
        }
    )
    params = {"n": n, "kappa": kappa, "hash": hash_variant}
    return _report("two-faced", params, trials, seed, counts, extra={"transcript": transcript})


GAME_RUNNERS: dict[str, Callable[..., GameReport]] = {}


def _register_cli_games() -> None:
    def unforgeability(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        analytic = ((1 << (n // 2)) - 1) / (1 << n)
        return game_unforgeability(
            ot1_handle(kappa, n), naive_double_sign_strategy(), ell, trials, seed, analytic
        )

    def revocability(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return game_revocability(
            otr_handle(kappa, r=16, n=n), spent_token_strategy(), ell, 1, trials, seed
        )

    def testability(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        r = 8
        analytic = (1 - 2 ** -(n / 2)) ** r
        return game_testability(ot_handle(kappa, "toy-8", n), 100, trials, seed, analytic)

    def everlasting(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return game_everlasting(
            ot1_handle(kappa, n), measure_and_guess_strategy(), ell, trials, seed
        )

    def unpredictability(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return game_unpredictability(ts_handle(kappa, "toy-8", n), trials, seed)

    def super_security(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return game_super_security(
            ot_handle(kappa, "toy-8", n), same_pair_twice_strategy(), ell, trials, seed, 0.0
        )

    def query_count(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return query_count_experiment(trials=min(trials, 2000), seed=seed, kappa=kappa)

    def relation(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return relation_statistics(n, trials, seed)

    def two_faced(n: int, ell: int, trials: int, seed: int, kappa: int) -> GameReport:
        return two_faced_demo(seed, n, trials)

    GAME_RUNNERS.update(
        {
            "unforgeability": unforgeability,
            "revocability": revocability,
            "testability": testability,
            "everlasting": everlasting,
            "unpredictability": unpredictability,
            "super-security": super_security,
            "query-count": query_count,
            "relation": relation,
            "two-faced": two_faced,
        }
    )


_register_cli_games()
