"""One benchmark worker: a fresh interpreter that sets up one workload, runs
it, and prints its raw samples as one JSON line.

Started by ``run.py``; not meant to be run by hand.  A fresh interpreter per
worker means the program's process-global memos (the ds_verify memo, the
tm key-blob memo, the Ed25519 key caches) start empty every time.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

clock = time.perf_counter


def derive(*labels) -> int:
    """A 63-bit seed from the workload seed and labels; the same labels
    always give the same seed."""
    material = "|".join(str(x) for x in labels).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1


# ---------------------------------------------------------------------------
# bank-default: mint -> coin codec -> coin_verify -> check_write -> check
# codec -> branch_cash, at the CLI default configuration
# ---------------------------------------------------------------------------

BANK_START_TIME = 1_700_000_000
BANK_BRANCH = 1


class Bank:
    def __init__(self, seed: int, part: int) -> None:
        from qtsl import cli, money, stack

        self.cli, self.money = cli, money
        self.seed, self.part = seed, part
        rng = Random(derive(seed, "bank", part, "key"))
        self.pk, self.sk = stack.ts_keygen(64, rng, "sha256-256", "ed25519", None)
        self.branch = money.BranchState(BANK_BRANCH, "ledger", self.pk, mint=None)
        self.now = BANK_START_TIME
        self._reset()
        self.unit("warm-up", replay=True, tamper=True)  # warm every path once
        self._reset()

    def _reset(self) -> None:
        self.samples = {"tx_ms": [], "mint_ms": [], "cash_ms": []}
        self.sign_zero = 0
        self.presentations = {"Cash": 0, "RejectDuplicate": 0, "RejectBadSignature": 0}

    def schedule(self, index: int) -> tuple[bool, bool]:
        """(replay, tamper) for transaction ``index``.  Every block of 8
        transactions has exactly 2 replays and 1 tamper, at seeded places, so
        the mix of work per run does not drift with the seed."""
        block = Random(derive(self.seed, "bank", self.part, "block", index // 8))
        replays = block.sample(range(8), 2)
        tamper = block.randrange(8)
        return index % 8 in replays, index % 8 == tamper

    def unit(self, index, replay: bool | None = None, tamper: bool | None = None) -> bool:
        """One transaction; returns whether every verdict was the expected one."""
        cli, money = self.cli, self.money
        if replay is None:
            replay, tamper = self.schedule(index)
        r = Random(derive(self.seed, "bank", self.part, index))
        payee = f"payee-{r.getrandbits(32):08x}"
        self.now += 1 + r.randrange(30)
        prog = Random(r.getrandbits(64))
        t0 = clock()
        coin = money.coin_mint(self.sk, prog)
        t1 = clock()
        held = cli.decode_coin(cli.encode_coin(coin))
        ok = money.coin_verify(self.pk, held, prog)
        try:
            check = money.check_write(held, payee, BANK_BRANCH, self.now, prog)
        except money.SignFailedError:
            # an honest zero measurement outcome: the coin is burned, no check
            self.sign_zero += 1
            self._record(t0, t1, clock(), [])
            return ok
        blob = cli.encode_check(check)
        schedule = [("Cash", blob)]
        if replay:
            schedule.append(("RejectDuplicate", blob))
        if tamper:
            forged = dataclasses.replace(check, payee=payee + "-x")
            schedule.append(("RejectBadSignature", cli.encode_check(forged)))
        cash_ms = []
        for expected, data in schedule:
            c0 = clock()
            _, event = money.branch_cash(self.branch, cli.decode_check(data), self.now, prog)
            cash_ms.append((clock() - c0) * 1e3)
            self.presentations[expected] += 1
            ok = ok and event.kind == expected
        self._record(t0, t1, clock(), cash_ms)
        return ok

    def _record(self, t0: float, t1: float, t2: float, cash_ms: list) -> None:
        self.samples["tx_ms"].append((t2 - t0) * 1e3)
        self.samples["mint_ms"].append((t1 - t0) * 1e3)
        self.samples["cash_ms"] += cash_ms

    def summary(self) -> dict:
        return {"samples": self.samples, "sign_zero": self.sign_zero, "presentations": self.presentations}


# ---------------------------------------------------------------------------
# games-toy: the acceptance-criteria games at reduced trial counts
# ---------------------------------------------------------------------------


def _game_table():
    from qtsl import games as g

    naive, spent = g.naive_double_sign_strategy, g.spent_token_strategy
    recheck = [
        ("testability-ts", lambda s: g.game_testability(g.ts_handle(16, "toy-8", 8), k=100, trials=10, seed=s)),
        ("testability-tm", lambda s: g.game_testability(g.tm_handle(16, "toy-8", 8), k=100, trials=10, seed=s)),
    ]
    fresh = [
        (f"unforgeability-ot1-n{n}",
         lambda s, n=n: g.game_unforgeability(g.ot1_handle(16, n), naive(), ell=1, trials=200, seed=s))
        for n in (4, 6, 8, 10)
    ]
    fresh.append(("unforgeability-priv-ot1-n8",
                  lambda s: g.game_unforgeability(g.priv_ot1_handle(16, 8), naive(), ell=1, trials=200, seed=s)))
    fresh += [
        (f"revocability-ts-n{n}",
         lambda s, n=n, t=t: g.game_revocability(g.ts_handle(16, "toy-8", n), spent(), ell=1, t=1, trials=t, seed=s))
        for n, t in ((4, 10), (8, 20))
    ]
    fresh.append(("relation-statistics-n8", lambda s: g.relation_statistics(8, 400, seed=s)))
    return {"recheck": recheck, "fresh": fresh}


GOLDEN = BENCH / "golden_games.json"


class Games:
    def __init__(self, seed: int, part: int) -> None:
        self.seed, self.part = seed, part
        self.table = _game_table()
        self.samples = {"recheck_ms_per_trial": [], "fresh_ms_per_trial": []}
        self.totals = {f: {"trials": 0, "attempts": 0, "wall_s": 0.0} for f in self.table}
        self.first_digests: dict[str, str] | None = None
        self.cycle("warm-up")

    def cycle(self, index) -> tuple[dict[str, str], dict[str, tuple[int, int, float]]]:
        """Run every game once under seeds derived from ``index``.  Returns
        name -> sha256 of the report JSON, and family -> (scored trials,
        attempts, wall seconds)."""
        digests = {}
        stats = {}
        for family, entries in self.table.items():
            trials = attempts = 0
            t0 = clock()
            for name, run in entries:
                report = run(derive(self.seed, "games", self.part, index, name) % (1 << 31))
                trials += report.trials
                attempts += report.trials + report.voided
                digests[name] = hashlib.sha256(report.to_json()).hexdigest()
            stats[family] = (trials, attempts, clock() - t0)
        return digests, stats

    def unit(self, index) -> bool:
        digests, stats = self.cycle(index)
        for family, (trials, attempts, wall) in stats.items():
            tot = self.totals[family]
            tot["trials"] += trials
            tot["attempts"] += attempts
            tot["wall_s"] += wall
            self.samples[f"{family}_ms_per_trial"].append(wall * 1e3 / trials)
        if self.first_digests is None:
            self.first_digests = digests
        return True

    def check(self) -> tuple[int, int, list[str]]:
        """Repeat the first timed cycle and compare digests, then compare
        with the digests recorded for this seed (if any).  Returns
        (reports checked, mismatches, reasons)."""
        if self.first_digests is None:
            return 0, 0, []
        problems = []
        again, _ = self.cycle(0)
        for name, d in self.first_digests.items():
            if again[name] != d:
                problems.append(f"{name}: report differs on repetition")
        recorded = json.loads(GOLDEN.read_text()).get(f"{self.seed}/{self.part}", {})
        for name, d in recorded.items():
            if self.first_digests.get(name) != d:
                problems.append(f"{name}: report differs from the recorded digest")
        return len(self.first_digests) + len(recorded), len(problems), problems

    def summary(self) -> dict:
        return {"samples": self.samples, "totals": self.totals}


# ---------------------------------------------------------------------------
# cli-flow: the README flow as separate `python -m qtsl.cli` processes
# ---------------------------------------------------------------------------

RUN_DIR = ROOT / ".bench_run"
# A hash-chain mint takes about as long as the five README commands together;
# two per flow give chain_mint_p50_ms as many samples in a run as each
# README command has, instead of half as many.
CHAIN_MINTS_PER_FLOW = 2


class CliFlow:
    def __init__(self, seed: int, part: int, traced: bool) -> None:
        self.seed, self.part = seed, part
        self.dir = RUN_DIR / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced = traced
        self.raws: list[dict] = []
        self.spans: list = []
        self.flow = -1
        self.samples = {"cmd_ms": [], "chain_mint_ms": [], "flow_s": []}
        self.by_command: dict[str, list[float]] = {c: [] for c in tracing.CLI_COMMANDS}
        self.sign_zero = 0
        self.problems: list[str] = []
        chain = derive(seed, "cli", part, "chain-key") % (1 << 31)
        code, _, _ = self._run(["keygen", "--ds", "hash-chain", "--public-out", str(self.dir / "chain.pk"),
                                 "--secret-out", str(self.dir / "chain.sk"), "--seed", str(chain)])
        if code != 0:
            self.close()
            raise RuntimeError("hash-chain keygen failed during set-up")
        self.raws.clear()  # set-up is not part of the traced work
        self.spans.clear()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _run(self, argv: list[str]) -> tuple[int, str, float]:
        if self.traced:
            raw_out = self.dir / "raw.json"
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(raw_out), *argv]
        else:
            cmd = [sys.executable, "-m", "qtsl.cli", *argv]
        t0 = clock()
        proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=120)
        wall = clock() - t0
        if self.traced:
            traced = json.loads(raw_out.read_text())
            raw_out.unlink()
            self.raws.append(traced["raw"])
            offset = len(self.spans)  # parent indices become indices into self.spans
            self.spans += [(name, start, end, parent + offset if parent >= 0 else -1, self.flow)
                           for name, start, end, parent, _ in traced["spans"]]
        return proc.returncode, proc.stdout, wall

    def unit(self, index) -> bool:
        """One flow: keygen -> mint -> verify-token -> sign -> verify, then
        CHAIN_MINTS_PER_FLOW mints against the hash-chain key.  Exit codes
        and ACCEPT lines must follow the README."""
        self.flow = index
        d = self.dir / f"flow-{index}"
        d.mkdir()
        seeds = [derive(self.seed, "cli", self.part, index, step) % (1 << 31) for step in range(5)]
        doc = f"pay {Random(seeds[4]).getrandbits(32):08x} 5"
        pk, sk, tok, sig = (str(d / name) for name in ("pk.qtsl", "sk.qtsl", "token.qtsl", "sig.qtsl"))
        steps = [
            ("keygen", ["keygen", "--public-out", pk, "--secret-out", sk, "--seed", str(seeds[0])]),
            ("mint", ["mint", "--secret-key", sk, "--out", tok, "--seed", str(seeds[1])]),
            ("verify-token", ["verify-token", "--public-key", pk, "--token", tok, "--seed", str(seeds[2])]),
            ("sign", ["sign", "--token", tok, "--text", doc, "--out", sig, "--seed", str(seeds[3])]),
            ("verify", ["verify", "--public-key", pk, "--text", doc, "--signature", sig]),
        ]
        ok = True
        flow_s = 0.0
        for name, argv in steps:
            code, out, wall = self._run(argv)
            flow_s += wall
            self.samples["cmd_ms"].append(wall * 1e3)
            self.by_command[name].append(wall * 1e3)
            if name == "sign" and code == 1:
                self.sign_zero += 1  # honest zero outcome: README says re-mint
                break
            accept = "ACCEPT" in out.split() if name in ("verify-token", "verify") else True
            if code != 0 or not accept:
                self.problems.append(f"flow {index} {name}: exit {code}")
                ok = False
                break
        self.samples["flow_s"].append(flow_s)
        for k in range(CHAIN_MINTS_PER_FLOW):
            chain_seed = derive(self.seed, "cli", self.part, index, "chain", k) % (1 << 31)
            code, _, wall = self._run(["mint", "--secret-key", str(self.dir / "chain.sk"),
                                       "--out", str(d / f"chain-token-{k}.qtsl"), "--seed", str(chain_seed)])
            self.samples["chain_mint_ms"].append(wall * 1e3)
            self.by_command["chain-mint"].append(wall * 1e3)
            if code != 0:
                self.problems.append(f"flow {index} chain mint {k}: exit {code}")
                ok = False
        shutil.rmtree(d)
        return ok

    def summary(self) -> dict:
        return {"samples": self.samples, "by_command": self.by_command, "sign_zero": self.sign_zero}


def cli_import_ms(repeats: int = 3) -> float:
    """Median wall time of a bare `import qtsl.cli` process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import qtsl.cli"], env=env, check=True, timeout=60)
        walls.append((clock() - t0) * 1e3)
    return sorted(walls)[len(walls) // 2]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_context() -> dict:
    import cryptography
    import numpy

    from qtsl import primitives

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "ds_backend": primitives.default_ds_algo(),
    }


def more_time(elapsed: float, durations: list[float], seconds: float) -> bool:
    """Timed mode: start another unit while at least half of a typical unit
    still fits in ``seconds``, so the measured time ends near ``seconds`` on
    average rather than up to one whole unit past it."""
    if not durations:
        return True
    return elapsed + statistics.median(durations) / 2 <= seconds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("bank-default", "games-toy", "cli-flow"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="timed mode: measure this long")
    ap.add_argument("--units", type=int, default=0, help="fixed mode: run exactly this many units")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    if not (SRC / "qtsl" / "__init__.py").is_file():
        print(f"worker: no program sources under {SRC}", file=sys.stderr)
        return 2
    import qtsl.cli  # noqa: F401  (every module the workloads call)

    if args.workload == "bank-default":
        work = Bank(args.seed, args.part)
    elif args.workload == "games-toy":
        work = Games(args.seed, args.part)
    else:
        work = CliFlow(args.seed, args.part, args.traced)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)  # run.py times set-up up to here

    tracer = None
    if args.traced and args.workload != "cli-flow":
        tracer = tracing.Tracer()
        tracer.install()
    attempted = failed = 0
    problems: list[str] = []
    durations: list[float] = []
    t0 = clock()
    try:
        index = 0
        while (index < args.units) if args.units else more_time(clock() - t0, durations, args.seconds):
            if tracer is not None:
                tracer.unit = index
            u0 = clock()
            try:
                ok = work.unit(index)
            except Exception as exc:  # a crash inside the program is a failed operation
                ok = False
                problems.append(f"unit {index}: {type(exc).__name__}: {exc}")
            durations.append(clock() - u0)
            attempted += 1
            failed += not ok
            index += 1
        wall_s = clock() - t0
    finally:
        if tracer is not None:
            tracer.restore()

    out = {"ready_at": ready_at, "units": index, "wall_s": wall_s, "context": run_context()}
    if isinstance(work, Games):
        checked, mismatched, reasons = work.check()
        attempted += checked
        failed += mismatched
        problems += reasons
    if isinstance(work, CliFlow):
        problems += work.problems
        work.close()
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if args.traced:
            out["raw"] = tracing.merge(work.raws)
            if args.spans_out:
                tracing.write_spans(work.spans, args.spans_out)
            out["import_ms"] = cli_import_ms()
    else:
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["raw"] = tracer.raw()
        if args.spans_out:
            tracing.write_spans(tracer.spans, args.spans_out)
    out.update(work.summary(), attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
