"""Acceptance suite: fifteen scheme-level checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers (visible
under ``pytest -s`` and in failure output) and then asserts.  Statistical
criteria run at fixed seeds, so every measured rate here is reproducible
bit-for-bit; tolerance bands are +-3 sigma binomial unless stated otherwise.
"""

import dataclasses
import json
import math
from random import Random

import numpy as np
from dense import dense_hadamard_all, hadamard_matrix, subspace_projector, to_dense
from helpers import fit_halving_slope, flip, gaussian_binomial
from seqharness import SEQUENCE_CLASSES, run_class

from qtsl import games
from qtsl.cli import main
from qtsl.container import unwrap_container
from qtsl.f2lin import (
    Subspace,
    dual,
    enumerate_subspaces,
    intersection_dim,
    sample_related,
    sample_subspace,
)
from qtsl.games import (
    collision_forgery_strategy,
    derive_rng,
    game_revocability,
    game_testability,
    game_unforgeability,
    naive_double_sign_strategy,
    ot1_handle,
    ot_handle,
    otr_handle,
    priv_ot1_handle,
    relation_statistics,
    spent_token_strategy,
    tm_handle,
    ts_handle,
)
from qtsl.money import simulate_bank
from qtsl.privts import TmSignature, tm_keygen, tm_sign, tm_token_gen, tm_verify
from qtsl.qsim import subspace_state
from qtsl.stack import (
    OtSignature,
    TsSignature,
    TsToken,
    ts_keygen,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num:02d} {label} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(p * (1 - p) / trials)


# ---------------------------------------------------------------------------


def test_criterion_01_hadamard_duality():
    """H on every coordinate maps the subspace state to the dual's state."""
    worst = 0.0
    cases = 0
    for space in enumerate_subspaces(4, 2):
        got = dense_hadamard_all(to_dense(subspace_state(space))).amplitudes
        want = to_dense(subspace_state(dual(space))).amplitudes
        worst = max(worst, float(np.max(np.abs(got - want))))
        cases += 1
    for n in (6, 8, 10, 12):
        for i in range(50):
            rng = derive_rng(101, f"dual-{n}", i)
            space = sample_subspace(n, rng)
            got = dense_hadamard_all(to_dense(subspace_state(space))).amplitudes
            want = to_dense(subspace_state(dual(space))).amplitudes
            worst = max(worst, float(np.max(np.abs(got - want))))
            cases += 1
    _report(1, "hadamard-duality", cases == 235 and worst <= 1e-10,
            f"{cases} subspaces, worst entry {worst:.2e}")


def test_criterion_02_projector_identity():
    """Standard projector, rotate, dual projector, rotate back: rank one."""
    worst = 0.0
    h4 = hadamard_matrix(4)
    for space in enumerate_subspaces(4, 2):
        sandwich = h4 @ subspace_projector(4, dual(space)) @ h4 @ subspace_projector(4, space)
        psi = to_dense(subspace_state(space)).amplitudes
        worst = max(worst, float(np.max(np.abs(sandwich - np.outer(psi, psi.conj())))))
    h8 = hadamard_matrix(8)
    for i in range(50):
        rng = derive_rng(102, "proj-8", i)
        space = sample_subspace(8, rng)
        sandwich = h8 @ subspace_projector(8, dual(space)) @ h8 @ subspace_projector(8, space)
        psi = to_dense(subspace_state(space)).amplitudes
        worst = max(worst, float(np.max(np.abs(sandwich - np.outer(psi, psi.conj())))))
    _report(2, "projector-identity", worst <= 1e-10, f"worst entry {worst:.2e}")


def test_criterion_03_worked_example():
    space = Subspace.from_string("0011\n1110")
    elements = {str(v) for v in space.elements()}
    dual_elements = {str(v) for v in dual(space).elements()}
    amps = to_dense(subspace_state(space)).amplitudes
    listed = {int(s, 2) for s in ("0000", "0011", "1110", "1101")}
    on_half = all(abs(amps[v] - 0.5) < 1e-12 for v in listed)
    off_zero = all(amps[v] == 0 for v in range(16) if v not in listed)
    ok = (
        elements == {"0000", "0011", "1110", "1101"}
        and dual_elements == {"0000", "0111", "1011", "1100"}
        and on_half
        and off_zero
    )
    _report(3, "worked-example", ok,
            f"elements {sorted(elements)}, dual {sorted(dual_elements)}")


def test_criterion_04_subspace_counting():
    mismatches = []
    for m in range(1, 5):
        for k in range(0, m + 1):
            counted = sum(1 for _ in enumerate_subspaces(m, k))
            if counted != gaussian_binomial(m, k):
                mismatches.append((m, k, counted, gaussian_binomial(m, k)))
    ok = not mismatches and gaussian_binomial(4, 2) == 35
    _report(4, "subspace-counting", ok,
            f"all m<=4 enumerated, G(4,2)={gaussian_binomial(4, 2)}")


def test_criterion_05_coset_dense_equivalence():
    """Every scripted operation sequence gives the same outcome distribution
    in the coset-symbolic model and the dense-vector model."""
    worst_exact = 0.0
    worst_sampled = 0.0
    worst_pair = None
    for name in SEQUENCE_CLASSES:
        for n in (4, 6, 8):
            out = run_class(name, n, trials=100_000, seed=501)
            worst_exact = max(worst_exact, out["tv_exact"])
            if out["tv_sampled"] > worst_sampled:
                worst_sampled = out["tv_sampled"]
                worst_pair = (name, n)
    ok = worst_exact <= 1e-9 and worst_sampled <= 0.02
    _report(5, "coset-dense-equivalence", ok,
            f"24 class/size runs, exact TV<={worst_exact:.1e}, "
            f"sampled TV<={worst_sampled:.4f} at {worst_pair}")


def _honest_rate(handle, label: str, trials: int) -> float:
    hits = 0
    for i in range(trials):
        rng = derive_rng(601, label, i)
        pk, sk = handle.keygen(rng)
        token = handle.token_gen(sk, rng)
        doc = handle.random_doc(rng)
        sig = handle.sign(doc, token, rng)
        hits += sig is not None and handle.verify(pk, doc, sig)
    return hits / trials


def _check_honest_grid(make_otr, ot1_maker, tag: str) -> list[str]:
    """Accept-rate grid shared by the public stack and its private mirror."""
    problems = []
    for n in (4, 8):
        rate = _honest_rate(ot1_maker(16, n), f"{tag}-ot1-{n}", 10_000)
        want = 1 - 2 ** (-n / 2)
        if abs(rate - want) > 3 * _sigma(want, 10_000):
            problems.append(f"ot1 n={n}: {rate:.4f} vs {want:.4f}")
        for r in (1, 4, 8):
            rate = _honest_rate(make_otr(16, r, n), f"{tag}-otr-{n}-{r}", 20_000)
            want = (1 - 2 ** (-n / 2)) ** r
            if abs(rate - want) > 3 * _sigma(want, 20_000):
                problems.append(f"otr n={n} r={r}: {rate:.4f} vs {want:.4f}")
    return problems


def test_criterion_06_honest_rates():
    problems = _check_honest_grid(
        lambda kappa, r, n: otr_handle(kappa, r, n),
        lambda kappa, n: ot1_handle(kappa, n),
        "pub",
    )
    # the hash layers ride on 8 digit-signing components at toy-8
    want8 = (1 - 2 ** -4) ** 8
    for handle, label, trials in (
        (ot_handle(16, "toy-8", 8), "pub-ot", 10_000),
        (ts_handle(16, "toy-8", 8), "pub-ts", 5_000),
    ):
        rate = _honest_rate(handle, label, trials)
        if abs(rate - want8) > 3 * _sigma(want8, trials):
            problems.append(f"{label}: {rate:.4f} vs {want8:.4f}")
    _report(6, "honest-rates", not problems, "; ".join(problems) or
            "ot1/otr/ot/ts all within 3 sigma of (1-2^(-n/2))^r")


def _naive_rates(make_handle, tag: str) -> tuple[dict[int, float], list[str]]:
    problems = []
    rates = {}
    for n, trials in ((4, 20_000), (6, 20_000), (8, 50_000), (10, 50_000)):
        rep = game_unforgeability(
            make_handle(16, n), naive_double_sign_strategy(), ell=1,
            trials=trials, seed=700 + n,
        )
        rates[n] = rep.rate
        want = ((1 << (n // 2)) - 1) / (1 << n)
        if abs(rep.rate - want) > 3 * _sigma(want, trials):
            problems.append(f"n={n}: {rep.rate:.5f} vs {want:.5f}")
    return rates, problems


def test_criterion_07_naive_forgery_decay():
    rates, problems = _naive_rates(lambda kappa, n: ot1_handle(kappa, n), "pub")
    slope = fit_halving_slope(rates)
    if not -0.55 <= slope <= -0.45:
        problems.append(f"slope {slope:.4f} outside -0.5 +-10%")
    _report(7, "naive-forgery-decay", not problems,
            "; ".join(problems) or
            f"rates {['%.4f' % rates[n] for n in sorted(rates)]}, slope {slope:.4f}")


def test_criterion_08_relation_statistics():
    checked = 0
    for i in range(200):
        rng = derive_rng(801, "overlap", i)
        a = sample_subspace(8, rng)
        b = sample_related(a, rng)
        # <A|B> = 2^{dim(A inter B)} / 2^{n/2} = 1/2 exactly
        assert intersection_dim(a, b) == 3
        checked += 1
    rep = relation_statistics(8, 100_000, seed=801)
    sigma = _sigma(rep.analytic, rep.trials)
    problems = []
    if rep.rate > 0.25 + 3 * _sigma(0.25, rep.trials):
        problems.append(f"joint {rep.rate:.5f} above quarter bound")
    if abs(rep.rate - rep.analytic) > 3 * sigma:
        problems.append(f"joint {rep.rate:.5f} vs derived {rep.analytic:.5f}")
    for key, want in (
        ("keep_a_rate", rep.extra["keep_a_analytic"]),
        ("keep_b_rate", rep.extra["keep_b_analytic"]),
    ):
        if abs(rep.extra[key] - want) > 3 * _sigma(want, rep.trials):
            problems.append(f"{key} {rep.extra[key]:.5f} vs {want:.5f}")
    _report(8, "relation-statistics", not problems,
            "; ".join(problems) or
            f"overlap 1/2 on {checked} pairs, joint {rep.rate:.5f} "
            f"vs {rep.analytic:.5f}")


def test_criterion_09_testability_nondestructive():
    rep = game_testability(ts_handle(16, "toy-8", 8), k=100, trials=5_000, seed=901)
    floor = (1 - 2 ** -4) ** 8 - 0.02
    _report(9, "testability-nondestructive", rep.rate >= floor,
            f"100 checks then sign: rate {rep.rate:.4f}, floor {floor:.4f}")


def test_criterion_10_revocation_game():
    problems = []
    for n in (4, 8):
        rep = game_revocability(
            ts_handle(16, "toy-8", n), spent_token_strategy(), ell=1, t=1,
            trials=3_000, seed=1000 + n,
        )
        naive = ((1 << (n // 2)) - 1) / (1 << n)
        bound = naive + 3 * _sigma(naive, 3_000)
        if rep.rate > bound:
            problems.append(f"n={n}: joint {rep.rate:.5f} > {bound:.5f}")
    _report(10, "revocation-game", not problems,
            "; ".join(problems) or "sign-then-return joint rate under the naive bound")


def test_criterion_11_chain_binding():
    rng = Random(1101)
    pk, sk = ts_keygen(64, rng, "toy-16", None, 64)
    token = ts_token_gen(sk, rng)
    sig = ts_sign(b"chain binding", token, rng)
    assert sig is not None and ts_verify(pk, b"chain binding", sig)
    n = sig.ot_sig.sigs[0].n
    accepted = 0
    for i in range(334):  # certificate bits of a fresh token
        fresh = ts_token_gen(sk, rng)
        bits = bytearray(fresh.chain_sig)
        k = rng.randrange(len(bits) * 8)
        bits[k // 8] ^= 1 << (k % 8)
        bad = TsToken(fresh.ot_public, bytes(bits), fresh.ot_token)
        ok = ts_verify_token(pk, bad, rng)
        accepted += ok
    for i in range(333):  # certificate bits of a signature
        bits = bytearray(sig.chain_sig)
        k = rng.randrange(len(bits) * 8)
        bits[k // 8] ^= 1 << (k % 8)
        bad = TsSignature(sig.ot_public, bytes(bits), sig.ot_sig)
        accepted += ts_verify(pk, b"chain binding", bad)
    for i in range(333):  # one coordinate of one signature vector
        vecs = list(sig.ot_sig.sigs)
        j = rng.randrange(len(vecs))
        vecs[j] = flip(vecs[j], rng.randrange(n))
        bad = TsSignature(sig.ot_public, sig.chain_sig, OtSignature(tuple(vecs)))
        accepted += ts_verify(pk, b"chain binding", bad)
    _report(11, "chain-binding", accepted == 0,
            f"1000 single-bit mutations, {accepted} wrongly accepted")


def test_criterion_12_weak_hash_red_test(monkeypatch):
    evals: list[int] = []  # hash evaluations of each strategy run
    real_hash_eval = games.hash_eval

    def counted_hash_eval(s, doc):
        evals[-1] += 1
        return real_hash_eval(s, doc)

    def counted(strategy):
        def program(ctx):
            evals.append(0)
            return strategy.program(ctx)

        return dataclasses.replace(strategy, program=program)

    monkeypatch.setattr(games, "hash_eval", counted_hash_eval)
    rep = game_unforgeability(ts_handle(16, "toy-8", 8),
                              counted(collision_forgery_strategy()), ell=1,
                              trials=200, seed=1201)
    toy_evals = evals.copy()
    evals.clear()
    rep_long = game_unforgeability(ts_handle(16, "sha256-256", 8),
                                   counted(collision_forgery_strategy()), ell=1,
                                   trials=50, seed=1202)
    ok = (rep.rate == 1.0 and rep_long.rate == 0.0 and len(toy_evals) >= rep.trials
          and len(evals) >= rep_long.trials and max(toy_evals + evals) <= 512)
    _report(12, "weak-hash-red-test", ok,
            f"toy-8 collision in at most {max(toy_evals, default=None)} evals, "
            f"forgery rate {rep.rate}; 256-bit hash rate {rep_long.rate} at the same budget")


HAPPY = "BRANCH 1 ledger\nMINT alice c1\nWRITE alice c1 k1 bob 1\nCASH 1 k1\n"
CROSS = (
    "BRANCH 1 ledger\nBRANCH 2 ledger\nMINT alice c1\n"
    "WRITE alice c1 k1 bob 1\nCASH 2 k1\n"
)
TWO_BRANCH = (
    "BRANCH 1 ledger\nBRANCH 2 ledger\n"
    "MINT alice c1\nMINT alice c2\n"
    "WRITE alice c1 k1 bob 1\nWRITE alice c2 k2 carol 2\n"
)


def _run_script(text: str, seed: int):
    return simulate_bank(text, Random(seed), 16, "toy-8", 8)


def _script_kinds(text: str, want_writes: int) -> list[str]:
    """Run at successive seeds until every check-write succeeded."""
    for seed in range(40):
        ledger, stats = _run_script(text, seed)
        if stats["write_failures"] == 0 and stats["burned"] == want_writes:
            return [e.kind for e in ledger]
    raise AssertionError("no seed produced clean writes in 40 tries")


def _random_scenario(gen: Random) -> str:
    lines = []
    branches = [1, 2][: gen.randrange(1, 3)]
    for b in branches:
        lines.append(f"BRANCH {b} {gen.choice(['ledger', 'daily'])}")
    coins = [f"c{i}" for i in range(gen.randrange(1, 4))]
    for c in coins:
        lines.append(f"MINT alice {c}")
    unwritten = list(coins)
    checks = []
    for j in range(gen.randrange(2, 7)):
        verb = gen.choice(["WRITE", "CASH", "TICK"])
        if verb == "WRITE" and unwritten:
            c = unwritten.pop(gen.randrange(len(unwritten)))
            lines.append(f"WRITE alice {c} k{j} bob {gen.choice(branches)}")
            checks.append(f"k{j}")
        elif verb == "CASH" and checks:
            lines.append(f"CASH {gen.choice(branches)} {gen.choice(checks)}")
        elif verb == "TICK":
            lines.append(f"TICK {gen.randrange(0, 200)}")
    return "\n".join(lines) + "\n"


def test_criterion_13_bank_simulation():
    problems = []
    kinds = _script_kinds(HAPPY, 1)
    if kinds != ["Cash"]:
        problems.append(f"happy path gave {kinds}")
    kinds = _script_kinds(HAPPY + "CASH 1 k1\n", 1)
    if kinds != ["Cash", "RejectDuplicate"]:
        problems.append(f"re-cash gave {kinds}")
    kinds = _script_kinds(CROSS, 1)
    if kinds != ["RejectWrongBranch"]:
        problems.append(f"cross-branch gave {kinds}")
    # conservation across fuzzed scripts: every issued coin traces to a burn
    gen = Random(13)
    for i in range(1000):
        ledger, stats = _run_script(_random_scenario(gen), 9000 + i)
        cash = sum(1 for e in ledger if e.kind == "Cash")
        if not (stats["issued"] <= stats["burned"] <= stats["minted"] and
                cash <= stats["burned"]):
            problems.append(f"fuzz {i}: {stats}")
            break
    # the counter order across branches must not change what was cashed
    for seed in range(40):
        ledger_a, stats_a = _run_script(TWO_BRANCH + "CASH 1 k1\nCASH 2 k2\n", seed)
        ledger_b, stats_b = _run_script(TWO_BRANCH + "CASH 2 k2\nCASH 1 k1\n", seed)
        if stats_a["write_failures"] == 0:
            key = lambda e: (e.kind, e.branch_id, e.check_digest)
            if sorted(ledger_a, key=key) != sorted(ledger_b, key=key):
                problems.append("branch-order permutation changed the ledger")
            break
    _report(13, "bank-simulation", not problems,
            "; ".join(problems) or
            "happy path, duplicate, wrong-branch, 1000 fuzzed, permutation all clean")


def test_criterion_14_private_stack_parity(record_tm_steps):
    problems = _check_honest_grid(
        lambda kappa, r, n: otr_handle(kappa, r, n, private=True),
        lambda kappa, n: priv_ot1_handle(kappa, n),
        "priv",
    )
    rates, naive_problems = _naive_rates(lambda kappa, n: priv_ot1_handle(kappa, n), "priv")
    problems += naive_problems
    slope = fit_halving_slope(rates)
    if not -0.55 <= slope <= -0.45:
        problems.append(f"priv slope {slope:.4f}")
    rep = game_testability(tm_handle(16, "toy-8", 8), k=100, trials=3_000, seed=1401)
    floor = (1 - 2 ** -4) ** 8 - 0.02
    if rep.rate < floor:
        problems.append(f"tm testability {rep.rate:.4f} < {floor:.4f}")
    # tag verification strictly precedes decryption, every time
    rng = Random(1402)
    key = tm_keygen(16, rng, "toy-8", 8)
    steps = record_tm_steps()
    ordered = 0
    for i in range(50):
        sig = None
        while sig is None:
            sig = tm_sign(b"trace me", tm_token_gen(key, rng), rng)
        steps.clear()
        assert tm_verify(key, b"trace me", sig)
        ordered += steps == [("mac", True), ("decrypt", True), ("inner", True)]
        blob = bytearray(sig.key_blob)
        blob[i % len(blob)] ^= 0x40
        bad = TmSignature(bytes(blob), sig.tag, sig.ot_sig)
        steps.clear()
        assert not tm_verify(key, b"trace me", bad)
        ordered += steps == [("mac", False)]  # rejected before any decryption
    if ordered != 100:
        problems.append(f"tag-before-decrypt order held in {ordered}/100")
    _report(14, "private-stack-parity", not problems,
            "; ".join(problems) or
            f"honest grid, naive slope {slope:.4f}, tm rate {rep.rate:.4f}, "
            "100/100 ordered traces")


def test_criterion_15_determinism(tmp_path):
    def run_chain(base, sign_seed):
        base.mkdir(exist_ok=True)
        paths = {name: base / name for name in ("pk", "sk", "tok", "sig", "rep")}
        assert main(["keygen", "--kappa", "16", "--hash", "toy-8", "--n", "8",
                     "--public-out", str(paths["pk"]), "--secret-out", str(paths["sk"]),
                     "--seed", "42"]) == 0
        assert main(["mint", "--secret-key", str(paths["sk"]),
                     "--out", str(paths["tok"]), "--seed", str(sign_seed)]) == 0
        rc = main(["sign", "--token", str(paths["tok"]), "--text", "same run twice",
                   "--out", str(paths["sig"]), "--seed", str(sign_seed)])
        assert main(["game", "--name", "unforgeability", "--n", "4", "--trials", "300",
                     "--seed", "7", "--out", str(paths["rep"])]) == 0
        blobs = {name: p.read_bytes() for name, p in paths.items() if p.exists()}
        return rc, blobs

    sign_seed = None
    for seed in range(40):
        rc, _ = run_chain(tmp_path / f"probe{seed}", seed)
        if rc == 0:
            sign_seed = seed
            break
    assert sign_seed is not None
    rc1, blobs1 = run_chain(tmp_path / "one", sign_seed)
    rc2, blobs2 = run_chain(tmp_path / "two", sign_seed)
    ok = rc1 == rc2 == 0 and blobs1 == blobs2 and set(blobs1) == {
        "pk", "sk", "tok", "sig", "rep"}
    kind, payload = unwrap_container(blobs1["rep"])
    ok = ok and kind == "report" and json.loads(blobs1["rep"])["payload"] == payload
    _report(15, "determinism", ok,
            f"{len(blobs1)} artifacts byte-identical across reruns")
