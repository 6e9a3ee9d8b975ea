"""Unit tests for the security-game harness and experiment helpers."""

import json
import math
from random import Random

import pytest
from helpers import exhaustive_reconstruction, fit_halving_slope, fit_scale_constant

from qtsl.f2lin import F2Vector, dual, sample_nonzero_element
from qtsl.games import (
    GAME_RUNNERS,
    AdversaryStrategy,
    Capability,
    CapabilityViolation,
    GameReport,
    TrialVoid,
    collision_forgery_strategy,
    derive_rng,
    double_revoke_strategy,
    enumerate_consistent_strategy,
    game_everlasting,
    game_revocability,
    game_super_security,
    game_testability,
    game_unforgeability,
    game_unpredictability,
    honest_strategy,
    measure_and_guess_strategy,
    naive_double_sign_strategy,
    ot1_handle,
    ot_handle,
    otr_handle,
    priv_ot1_handle,
    query_count_experiment,
    relation_statistics,
    same_pair_twice_strategy,
    spent_token_strategy,
    tm_handle,
    ts_handle,
    wilson_interval,
)
from qtsl.ot1 import Ot1Signature, ot1_keygen


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_derive_rng_deterministic_and_labelled():
    a = derive_rng(1, "x", 0).random()
    b = derive_rng(1, "x", 0).random()
    c = derive_rng(1, "x", 1).random()
    d = derive_rng(1, "y", 0).random()
    e = derive_rng(2, "x", 0).random()
    assert a == b
    assert len({a, c, d, e}) == 4


def test_wilson_interval_endpoints():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1 and hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(5, 0) == (0.0, 1.0)  # degenerate: no information


def test_report_json_is_canonical_and_stable():
    rep = GameReport(
        name="demo",
        params={"n": 8, "seed": 1},
        successes=3,
        trials=10,
        voided=1,
        rate=0.3,
        wilson_95=(0.1, 0.6),
        analytic=0.25,
        extra={"note": b"\x01\x02"},
    )
    raw = rep.to_json()
    assert raw == rep.to_json()
    obj = json.loads(raw)
    # floats travel as repr strings so the bytes never depend on json quirks
    assert obj["rate"] == "0.3" and obj["analytic"] == "0.25"
    assert obj["rate_fraction"] == "3/10"
    assert obj["extra"]["note"] == "0102"
    assert list(obj) == sorted(obj)


def test_report_refuses_a_coset_state():
    """A CosetState is a named tuple; it must not slip into a report as a
    plain JSON list."""
    from qtsl.qsim import unsupported_state

    rep = GameReport("demo", {}, 0, 1, 0, 0.0, (0.0, 1.0), extra={"s": [unsupported_state(4)]})
    with pytest.raises(TypeError):
        rep.to_json()


# ---------------------------------------------------------------------------
# capability enforcement
# ---------------------------------------------------------------------------


def test_everlasting_requires_withheld_oracle():
    bad = AdversaryStrategy(
        name="peeking",
        capability=Capability(oracle_access=True),
        program=lambda ctx: ([], (0, None)),
    )
    with pytest.raises(CapabilityViolation):
        game_everlasting(ot1_handle(16, 4), bad, ell=1, trials=2, seed=0)


def test_oracle_query_in_withheld_context_is_violation():
    def peek(ctx):
        ctx.pk_view.query(F2Vector(4, 1), 0)
        return [], (0, None)

    sneaky = AdversaryStrategy(
        name="sneaky",
        capability=Capability(oracle_access=False),
        program=peek,
    )
    with pytest.raises(CapabilityViolation):
        game_everlasting(ot1_handle(16, 4), sneaky, ell=1, trials=2, seed=0)


def test_private_handle_withholds_the_secret_key():
    """A private handle's verification key is its secret key; a no-oracle
    strategy that reads its subspace off ``pk_view`` would forge every time."""

    def read_the_key(ctx):
        space = ctx.pk_view.space
        (token,) = ctx.tokens
        inside = sample_nonzero_element(space, ctx.rng)
        outside = sample_nonzero_element(dual(space), ctx.rng)
        return [
            (0, Ot1Signature(0, inside, token.key_id)),
            (1, Ot1Signature(1, outside, token.key_id)),
        ]

    reader = AdversaryStrategy("key-reader", Capability(oracle_access=False), read_the_key)
    with pytest.raises(CapabilityViolation):
        game_unforgeability(priv_ot1_handle(16, 8), reader, ell=1, trials=50, seed=1)


def test_public_handle_withholds_component_oracles():
    """A no-oracle strategy on the r-fold handle cannot reach a component's
    membership oracle through ``pk_view``."""

    def ask_a_component(ctx):
        ctx.pk_view.components[0].query(F2Vector(8, 1), 0)
        return None

    asker = AdversaryStrategy("component-asker", Capability(oracle_access=False), ask_a_component)
    with pytest.raises(CapabilityViolation):
        game_unforgeability(otr_handle(16, 4, 8), asker, ell=1, trials=5, seed=1)


def test_token_budget_enforced():
    greedy = AdversaryStrategy(
        name="greedy",
        capability=Capability(tokens=1),
        program=lambda ctx: [],
    )
    # ell=2 needs two tokens; the capability only grants one
    with pytest.raises(CapabilityViolation):
        game_unforgeability(ot1_handle(16, 4), greedy, ell=2, trials=2, seed=0)


# ---------------------------------------------------------------------------
# games, small versions with wide tolerances (acceptance runs the real sizes)
# ---------------------------------------------------------------------------


def test_honest_strategy_never_forges():
    rep = game_unforgeability(ot1_handle(16, 8), honest_strategy(1), 1, 300, 1)
    assert rep.successes == 0


def test_naive_double_sign_rate_near_analytic():
    analytic = (2**2 - 1) / 2**4  # 0.1875 at n=4
    rep = game_unforgeability(
        ot1_handle(16, 4), naive_double_sign_strategy(), 1, 4000, 2, analytic
    )
    lo, hi = rep.wilson_95
    assert lo - 0.02 <= analytic <= hi + 0.02
    assert rep.voided > 0  # zero-outcome first signatures void the trial


@pytest.mark.parametrize(
    "handle",
    [
        ot_handle(16, "toy-8", 8),
        ot_handle(16, "toy-8", 8, private=True),
        ts_handle(16, "toy-8", 8),
        tm_handle(16, "toy-8", 8),
    ],
    ids=lambda h: h.name,
)
def test_collision_forgery_breaks_every_toy_hash_layer(handle):
    """The strategy reads the hash index off the token it holds, so it runs
    on every hash-and-sign layer: an 8-bit digest always collides."""
    rep = game_unforgeability(handle, collision_forgery_strategy(), 1, 20, 1)
    assert rep.rate == 1.0


def test_spent_token_revocation_fails():
    rep = game_revocability(
        otr_handle(16, r=8, n=8), spent_token_strategy(), ell=1, t=1, trials=150, seed=3
    )
    assert rep.rate < 0.2


def test_double_revoke_rate():
    # one token handed over, the same object presented for both revocations
    rep = game_revocability(
        ot1_handle(16, 8), double_revoke_strategy(), ell=1, t=0, trials=2500, seed=4
    )
    analytic = (15 / 16) * (15 / 256)
    lo, hi = rep.wilson_95
    assert lo <= analytic + 0.02 and hi >= analytic - 0.02


def test_testability_small():
    rep = game_testability(ts_handle(16, "toy-8", 8), k=5, trials=400, seed=5)
    expect = (1 - 2.0**-4) ** 8
    assert abs(rep.rate - expect) < 0.12


def test_everlasting_measure_and_guess():
    rep = game_everlasting(
        ot1_handle(16, 4), measure_and_guess_strategy(), ell=1, trials=3000, seed=6
    )
    assert rep.rate <= 3 / 16 + 0.03


def test_everlasting_unbounded_enumeration():
    rep = game_everlasting(
        ot1_handle(16, 4), enumerate_consistent_strategy(), ell=1, trials=800, seed=7
    )
    # still capped well below half even with unbounded classical work
    assert rep.rate < 0.35


def test_super_security_same_pair_fails():
    rep = game_super_security(
        ot1_handle(16, 8), same_pair_twice_strategy(), ell=1, trials=200, seed=8
    )
    assert rep.successes == 0


def test_unpredictability_two_tokens_disagree():
    rep = game_unpredictability(ts_handle(16, "toy-8", 8), trials=150, seed=9)
    assert rep.successes == 0
    assert rep.analytic == 0.0


VERIFY_CONTRACT_HANDLES = {
    "ot1": lambda: ot1_handle(16, 8),
    "priv-ot1": lambda: priv_ot1_handle(16, 8),
    "otr": lambda: otr_handle(16, 4, 8),
    "ot": lambda: ot_handle(16, "toy-8", 8),
    "ot-private": lambda: ot_handle(16, "toy-8", 8, private=True),
    "ts": lambda: ts_handle(16, "toy-8", 8),
    "tm": lambda: tm_handle(16, "toy-8", 8),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CONTRACT_HANDLES))
def test_every_layer_verifier_answers_a_bool(name):
    """Each layer's ``*_verify`` and ``*_verify_token`` answer a plain bool:
    True on an honest signature and token, a bool under a foreign key."""
    handle = VERIFY_CONTRACT_HANDLES[name]()
    rng = Random(41)
    pk, sk = handle.keygen(rng)
    foreign_pk, _ = handle.keygen(rng)
    assert handle.verify_token(pk, handle.token_gen(sk, rng), rng) is True
    assert type(handle.verify_token(foreign_pk, handle.token_gen(sk, rng), rng)) is bool
    doc = handle.random_doc(rng)
    sig = next(s for s in (handle.sign(doc, handle.token_gen(sk, rng), rng) for _ in range(60)) if s)
    assert handle.verify(pk, doc, sig) is True
    assert type(handle.verify(foreign_pk, doc, sig)) is bool


@pytest.mark.parametrize("check", ["verify_token", "verify"])
@pytest.mark.parametrize("name", sorted(VERIFY_CONTRACT_HANDLES))
def test_no_oracle_view_is_no_key_to_any_verifier(name, check):
    """Whatever the handle, a no-oracle strategy that passes its ``pk_view``
    to the handle's token test, or to its verifier with a real signature,
    gets a violation instead of a verdict."""

    def program(ctx):
        (token,) = ctx.tokens
        if check == "verify_token":
            ctx.handle.verify_token(ctx.pk_view, token, ctx.rng)
        else:
            doc = ctx.handle.random_doc(ctx.rng)
            sig = ctx.handle.sign(doc, token, ctx.rng)
            if sig is None:
                raise TrialVoid
            ctx.handle.verify(ctx.pk_view, doc, sig)
        return None

    blind = AdversaryStrategy("blind", Capability(oracle_access=False), program)
    handle = VERIFY_CONTRACT_HANDLES[name]()
    with pytest.raises(CapabilityViolation):
        game_unforgeability(handle, blind, ell=1, trials=3, seed=1)


def test_private_games_mirror_public():
    rep = game_unforgeability(
        priv_ot1_handle(16, 4), naive_double_sign_strategy(), 1, 3000, 10, 0.1875
    )
    lo, hi = rep.wilson_95
    assert lo - 0.02 <= 0.1875 <= hi + 0.02


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_exhaustive_reconstruction_query_count():
    rng = Random(11)
    pk, sk = ot1_keygen(16, rng, n_override=6)
    space, space_dual = exhaustive_reconstruction(pk, 6)
    assert space == sk.space
    assert pk.query_count == 2 ** (6 + 1)


def test_query_count_experiment_shape():
    rep = query_count_experiment(ns=(4, 6), trials=300, seed=12)
    curves = rep.extra["curves"]
    assert set(curves) == {4, 6}
    for n, entry in curves.items():
        budgets = [pt["budget"] for pt in entry["curve"]]
        assert budgets == sorted(budgets) and budgets[0] == 0
        rates = [pt["rate"] for pt in entry["curve"]]
        # more queries help: the largest budget beats the zero-query guess
        assert rates[-1] > rates[0]
        assert entry["exhaustive_queries"] == 2 ** (n + 1)
        assert entry["exhaustive_rate"] == 1.0
    assert curves[4]["zero_query_analytic"] == pytest.approx(3 / 16)


def test_query_count_report_counts_agree():
    """The report's counts are the zero-query point at ns[0]: its fraction,
    rate and interval all come from the same success count."""
    rep = query_count_experiment(ns=(4,), trials=300, seed=9)
    fraction = json.loads(rep.to_json())["rate_fraction"]
    assert fraction == f"{rep.successes}/{rep.trials}" == "55/300"
    assert rep.rate == rep.successes / rep.trials == rep.extra["curves"][4]["curve"][0]["rate"]
    assert rep.wilson_95 == wilson_interval(55, 300)


def test_relation_statistics_small():
    rep = relation_statistics(n=8, trials=4000, seed=13)
    keep = 7 / 15
    assert abs(rep.extra["keep_a_rate"] - keep) < 0.04
    assert abs(rep.extra["keep_b_rate"] - keep) < 0.04
    assert abs(rep.rate - keep * keep) < 0.04


def test_fit_halving_slope_exact_on_synthetic():
    rates = {n: 2.0 ** (-n / 2) for n in (4, 6, 8, 10)}
    assert fit_halving_slope(rates) == pytest.approx(-0.5)
    scaled = {n: 0.9 * 2.0 ** (-n / 2) for n in (4, 6, 8, 10)}
    assert fit_scale_constant(scaled) == pytest.approx(0.9)


def test_game_runner_registry():
    expected = {
        "unforgeability",
        "revocability",
        "testability",
        "everlasting",
        "unpredictability",
        "super-security",
        "query-count",
        "relation",
        "two-faced",
    }
    assert expected <= set(GAME_RUNNERS)


def test_trial_void_is_not_a_success_path():
    """A strategy that always voids produces zero trials counted against it
    and eventually trips the runaway guard."""
    always_void = AdversaryStrategy(
        name="void",
        capability=Capability(),
        program=lambda ctx: (_ for _ in ()).throw(TrialVoid("nope")),
    )
    with pytest.raises(RuntimeError):
        game_unforgeability(ot1_handle(16, 4), always_void, 1, 50, 14)
