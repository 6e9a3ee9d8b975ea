"""qtsl benchmark: one workload per call, one JSON result on the last line.

    python3 bench/run.py --workload bank-default --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --smoke                           # tiny run, checks metric names

Each run starts fresh worker interpreters (bench/worker.py) one after
another.  With ``--trace 0`` it starts PARTS timed workers that each measure
an equal share of what is left of ``--seconds`` and reports the end-to-end
metrics; set-up (interpreter start, imports, keys, warm-up) is timed for
every worker and its median is ``setup_s``.  With ``--trace 1`` it runs a
fixed amount of work twice, once plain and once with bench/tracing.py
wrapped around the program's public functions, and reports the per-layer
metrics and the tracing overhead.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402  (imports no program code)

OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("bank-default", "games-toy", "cli-flow")
# timed workers per run; cli-flow units take ~8 s, so it splits its time in two
PARTS = {"bank-default": 3, "games-toy": 3, "cli-flow": 2}
README_COMMANDS = ("keygen", "mint", "verify-token", "sign", "verify")
RUN_BUDGET_S = 170  # a run must end within 180 s


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so worker timestamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, part: int, deadline: float, extra: list[str]) -> dict:
    """Run one worker to completion; returns its JSON plus ``setup_s``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--part", str(part), *extra]
    started = now()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker {part} ran past the run budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker {part} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "p50", statistics.median(values)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def timed(workload: str, seed: int, seconds: float, parts: int) -> tuple[dict, list, list, list]:
    """Returns (end-to-end metrics, human lines, workers, problems)."""
    deadline = now() + RUN_BUDGET_S
    workers: list[dict] = []
    for part in range(parts):
        # an equal share of what is left, so that a worker that stopped short
        # of its share (units are whole) hands the rest to the next one
        share = (seconds - sum(w["wall_s"] for w in workers)) / (parts - part)
        workers.append(spawn(workload, seed, part, deadline, ["--seconds", str(max(share, 0.0))]))
    setups = [w["setup_s"] for w in workers]
    wall = sum(w["wall_s"] for w in workers)
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(w["rss_kb"] for w in workers) / 1024, "MB"),
    }
    lines = [f"setup_s {m['setup_s'][0]:.3f} s (median of {parts} set-ups)",
             f"peak_rss_mb {m['peak_rss_mb'][0]:.1f} MB (median of {parts} workers)"]

    def samples(key: str) -> list[float]:
        return [x for w in workers for x in w["samples"][key]]

    def timing(name: str, values: list[float], unit: str, what: str) -> float:
        median = statistics.median(values)
        label, value = tail(values)
        extra = "" if label == "p50" else f", {label} {value:.2f} {unit}"
        lines.append(f"{name} {median:.2f} {unit}{extra} (n={len(values)} {what})")
        return median

    if workload == "bank-default":
        tx = sum(w["units"] for w in workers)
        m["throughput_per_s"] = (tx / wall, "1/s")
        lines.append(f"tx_per_s {tx / wall:.3f} 1/s ({tx} transactions in {wall:.1f} s)")
        timing("tx_p50_ms", samples("tx_ms"), "ms", "transactions")
        m["side_p50_ms"] = (timing("mint_p50_ms", samples("mint_ms"), "ms", "mints"), "ms")
        m["main_p50_ms"] = (timing("cash_p50_ms", samples("cash_ms"), "ms", "presentations"), "ms")
        kinds = {k: sum(w["presentations"][k] for w in workers) for k in workers[0]["presentations"]}
        lines.append(f"presentations {kinds}")
        zero = sum(w["sign_zero"] for w in workers)
        lines.append(f"check_write zero-outcome failures: {zero} of {tx} (not errors)")
    elif workload == "games-toy":
        rates = {}
        for family in ("recheck", "fresh"):
            trials = sum(w["totals"][family]["trials"] for w in workers)
            fwall = sum(w["totals"][family]["wall_s"] for w in workers)
            rates[family] = (trials, fwall)
            lines.append(f"{family}_trials_per_s {trials / fwall:.2f} 1/s ({trials} scored trials in {fwall:.1f} s)")
        trials = sum(t for t, _ in rates.values())
        m["throughput_per_s"] = (trials / sum(w for _, w in rates.values()), "1/s")
        m["main_p50_ms"] = (timing("recheck_ms_per_trial", samples("recheck_ms_per_trial"), "ms", "cycles"), "ms")
        m["side_p50_ms"] = (timing("fresh_ms_per_trial", samples("fresh_ms_per_trial"), "ms", "cycles"), "ms")
    else:
        commands = len(samples("cmd_ms")) + len(samples("chain_mint_ms"))
        m["throughput_per_s"] = (commands / wall, "1/s")
        lines.append(f"commands_per_s {commands / wall:.3f} 1/s ({commands} processes in {wall:.1f} s)")
        timing("flow_p50_s", samples("flow_s"), "s", "flows")
        timing("cmd_pooled_p50_ms", samples("cmd_ms"), "ms", "README commands")
        # The five commands take clearly different times, so the median of
        # the pooled samples jumps between them with the mix of a run; the
        # mean of each command's own median does not.
        medians = {cmd: statistics.median(v) for cmd in README_COMMANDS
                   if (v := [x for w in workers for x in w["by_command"][cmd]])}
        m["main_p50_ms"] = (statistics.fmean(medians.values()), "ms")
        lines.append(f"cmd_p50_ms {m['main_p50_ms'][0]:.2f} ms (mean over {len(medians)} README commands "
                     f"of each one's median: " + ", ".join(f"{c} {v:.0f}" for c, v in medians.items()) + ")")
        m["side_p50_ms"] = (timing("chain_mint_p50_ms", samples("chain_mint_ms"), "ms", "hash-chain mints"), "ms")
        zero = sum(w["sign_zero"] for w in workers)
        lines.append(f"sign zero-outcome exits: {zero} (not errors)")
    return m, lines, workers, [p for w in workers for p in w["problems"]]


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

# A traced run does fixed work, so that counts repeat exactly for one seed:
# one unit per this many seconds of --seconds; cli-flow always traces one flow.
SECONDS_PER_TRACED_UNIT = {"bank-default": 5, "games-toy": 8}


def fixed_units(workload: str, seconds: float) -> int:
    per_unit = SECONDS_PER_TRACED_UNIT.get(workload)
    return 1 if per_unit is None else max(1, int(seconds // per_unit))


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list, list, list]:
    deadline = now() + RUN_BUDGET_S
    units = ["--units", str(fixed_units(workload, seconds))]
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    plain = spawn(workload, seed, 0, deadline, units)
    trace = spawn(workload, seed, 0, deadline, [*units, "--traced", "--spans-out", str(spans)])
    values = tracing.metrics(trace["raw"], trace["wall_s"])
    if workload == "games-toy":
        totals = trace["totals"]
        values["games.recheck.attempts"] = totals["recheck"]["attempts"]
        values["games.fresh.attempts"] = totals["fresh"]["attempts"]
        scored = sum(t["trials"] for t in totals.values())
        values["games.useful_ratio"] = scored / sum(t["attempts"] for t in totals.values())
    else:
        values.update({"games.recheck.attempts": 0, "games.fresh.attempts": 0, "games.useful_ratio": 0.0})
    for cmd in tracing.CLI_COMMANDS:
        walls = plain.get("by_command", {}).get(cmd) or [0.0]
        values[f"cli.{cmd}.ms"] = statistics.median(walls)
    values["cli.import_ms"] = trace.get("import_ms", 0.0)
    values["trace.overhead_pct"] = (trace["wall_s"] - plain["wall_s"]) / plain["wall_s"] * 100
    m = {name: (values[name], unit_of(name)) for name in tracing.per_layer_names()}
    lines = [f"traced {trace['units']} units: {trace['wall_s']:.2f} s traced vs {plain['wall_s']:.2f} s plain "
             f"(overhead {values['trace.overhead_pct']:.1f} %); spans in {spans.relative_to(ROOT)}"]
    return m, lines, [plain, trace], plain["problems"] + trace["problems"]


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".attempts") or name == "ot1.oracle_queries":
        return "count"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_pct"):
        return "%"
    return "ratio"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: int, parts: int | None = None) -> dict:
    """One benchmark run; prints the human lines and returns the result."""
    if trace:
        metrics, lines, workers, problems = traced(workload, seed, seconds)
    else:
        metrics, lines, workers, problems = timed(workload, seed, seconds, parts or PARTS[workload])
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    context = dict(workers[0]["context"], src_lines=src_lines(), nproc=os.cpu_count(), cpu=cpu_model())
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={trace}")
    for line in lines:
        print(f"  {line}")
    print(f"  failed_ratio {failed / max(attempted, 1):.4f} ({failed} of {attempted} operations)")
    print(f"  context {json.dumps(context, sort_keys=True)}")
    for p in problems:
        print(f"  problem: {p}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace, context=context, lines=lines)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return result


def smoke() -> bool:
    """Tiny runs of every workload in both modes; every metric named in
    BENCHMARK.json must be emitted and every correctness gate must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = run(workload, 1, 1, trace, parts=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"SMOKE FAIL {workload} trace={trace}: correct={result['correct']} "
                      f"missing={sorted(set(want) - set(got))} extra={sorted(set(got) - set(want))}")
                ok = False
    print("SMOKE OK" if ok else "SMOKE FAILED")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "qtsl" / "__init__.py").is_file():
        print(f"run.py: no qtsl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload == "all":
            results = {w: run(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
