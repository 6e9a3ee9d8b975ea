"""In-memory span tracer that wraps qtsl's public functions from outside.

``Tracer.install()`` replaces each target function with a timing wrapper on
every loaded ``qtsl.*`` module that holds a reference to it (the name the
calling module looks up, e.g. ``qtsl.money.ts_verify`` and
``qtsl.stack.ds_verify``), and ``restore()`` puts the originals back.  A
span is ``(name, start, end, parent, unit)``; self time is a span's duration
minus the time its direct children cover.  No qtsl source is modified.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls, self time and layer share are
# reported, in report order
REPORTED = [
    ("f2lin", "sample_subspace"),
    ("f2lin", "canonicalize"),
    ("f2lin", "dual"),
    ("f2lin", "member"),
    ("f2lin", "intersection_dim"),
    ("f2lin", "sample_related"),
    ("qsim", "hadamard_all"),
    ("qsim", "measure_standard"),
    ("qsim", "project_subspace"),
    ("ot1", "ot1_keygen"),
    ("ot1", "ot1_sign"),
    ("ot1", "ot1_verify"),
    ("ot1", "ot1_verify_token"),
    ("primitives", "ds_keygen"),
    ("primitives", "ds_sign"),
    ("primitives", "ds_verify"),
    ("primitives", "hash_eval"),
    ("primitives", "mac_verify"),
    ("primitives", "decrypt"),
    ("encoding", "canonical_json"),
    ("encoding", "decode_space"),
    ("encoding", "decode_state"),
    ("stack", "ts_token_gen"),
    ("stack", "ts_sign"),
    ("stack", "ts_verify"),
    ("stack", "ts_verify_token"),
    ("stack", "encode_ot_public"),
    ("privts", "tm_token_gen"),
    ("privts", "tm_verify_token"),
    ("privts", "tm_verify"),
    ("money", "coin_mint"),
    ("money", "coin_verify"),
    ("money", "check_write"),
    ("money", "branch_cash"),
    ("cli", "encode_coin"),
    ("cli", "decode_coin"),
    ("cli", "encode_check"),
    ("cli", "decode_check"),
]

# wrapped only so their time lands in the right layer (and container sizes
# are seen); not reported per function
LAYER_ONLY = [
    ("games", "game_testability"),
    ("games", "game_unforgeability"),
    ("games", "game_revocability"),
    ("games", "relation_statistics"),
    ("cli", "main"),
    ("cli", "encode_token"),
    ("cli", "decode_token"),
    ("cli", "encode_signature"),
    ("cli", "decode_signature"),
]

LAYERS = ["f2lin", "qsim", "ot1", "primitives", "encoding", "stack", "privts", "money", "games", "cli"]

# encoder -> container kind whose byte size it reveals
CONTAINER_ENCODERS = {
    "cli.encode_token": "token",
    "cli.encode_signature": "signature",
    "cli.encode_coin": "coin",
    "cli.encode_check": "check",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run emits, in order."""
    names = []
    for mod, fn in REPORTED:
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_ms"]
    names += [f"{layer}.self_share" for layer in LAYERS]
    names += [
        "qsim.accept_ratio",
        "ot1.oracle_queries",
        "ot1.sign_zero_ratio",
        "primitives.ds_verify.repeat_ratio",
        "games.recheck.attempts",
        "games.fresh.attempts",
        "games.useful_ratio",
    ]
    names += [f"cli.{kind}.bytes" for kind in CONTAINER_ENCODERS.values()]
    names += ["cli.import_ms"] + [f"cli.{cmd}.ms" for cmd in CLI_COMMANDS]
    names += ["trace.overhead_pct"]
    return names


CLI_COMMANDS = ["keygen", "mint", "verify-token", "sign", "verify", "chain-mint"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.unit = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # counters gathered at the same boundaries as the spans
        self.oracle_queries = 0
        self.sign_calls = 0
        self.sign_zero = 0
        self.projections = 0
        self.accepted = 0
        self.ds_verify_calls = 0
        self.ds_verify_repeats = 0
        self._seen_triples: set = set()
        self.container_bytes: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "qtsl" or name.startswith("qtsl.")]
        for mod_name, fn_name in REPORTED + LAYER_ONLY:
            home = sys.modules[f"qtsl.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        oracle = sys.modules["qtsl.ot1"].MembershipOracle
        query, charge = oracle.query, oracle._charge

        def counted_query(oracle_self, v, p):
            self.oracle_queries += 1
            return query(oracle_self, v, p)

        def counted_charge(oracle_self, amount):
            self.oracle_queries += amount
            return charge(oracle_self, amount)

        for attr, original, counted in (("query", query, counted_query), ("_charge", charge, counted_charge)):
            self._installed.append((oracle, attr, original))
            setattr(oracle, attr, counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children see their parent
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, name: str):
        if name == "ot1.ot1_sign":
            def observe(args, result):
                self.sign_calls += 1
                self.sign_zero += result is None
            return observe
        if name == "qsim.project_subspace":
            def observe(args, result):
                self.projections += 1
                self.accepted += bool(result[0])
            return observe
        if name == "primitives.ds_verify":
            def observe(args, result):
                pk, message, signature = args[:3]
                if not isinstance(signature, (bytes, bytearray)):
                    return
                triple = (pk.algo, pk.material, hashlib.sha256(message).digest(), bytes(signature))
                self.ds_verify_calls += 1
                if triple in self._seen_triples:
                    self.ds_verify_repeats += 1
                else:
                    self._seen_triples.add(triple)
            return observe
        if name in CONTAINER_ENCODERS:
            kind = CONTAINER_ENCODERS[name]

            def observe(args, result):
                self.container_bytes.setdefault(kind, len(result))
            return observe
        return None

    # -- analysis -----------------------------------------------------------

    def raw(self) -> dict:
        """Mergeable totals: per-name [calls, self seconds] plus counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        times: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = times.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        counters = {
            "oracle_queries": self.oracle_queries,
            "sign_calls": self.sign_calls,
            "sign_zero": self.sign_zero,
            "projections": self.projections,
            "accepted": self.accepted,
            "ds_verify_calls": self.ds_verify_calls,
            "ds_verify_repeats": self.ds_verify_repeats,
        }
        return {"times": times, "counters": counters, "bytes": dict(self.container_bytes)}

def write_spans(spans: list, path: str) -> None:
    """One JSON array per line: name, start, end, parent index, unit id."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")


def merge(raws: list[dict]) -> dict:
    """Sum the totals of several traced processes."""
    times: dict[str, list] = {}
    counters: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = {}
    for raw in raws:
        for name, (calls, self_s) in raw["times"].items():
            entry = times.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in raw["counters"].items():
            counters[key] += value
        for kind, size in raw["bytes"].items():
            sizes.setdefault(kind, size)
    return {"times": times, "counters": dict(counters), "bytes": sizes}


def metrics(raw: dict, wall_s: float) -> dict[str, float]:
    """Per-function calls/self_ms, layer shares of ``wall_s``, ratios, sizes."""
    times = raw["times"]
    c = defaultdict(int, raw["counters"])
    out: dict[str, float] = {}
    for mod, fn in REPORTED:
        calls, self_s = times.get(f"{mod}.{fn}", (0, 0.0))
        out[f"{mod}.{fn}.calls"] = calls
        out[f"{mod}.{fn}.self_ms"] = self_s * 1e3
    layer_s: dict[str, float] = defaultdict(float)
    for name, (_, self_s) in times.items():
        layer_s[name.split(".", 1)[0]] += self_s
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_s[layer] / wall_s if wall_s > 0 else 0.0
    out["qsim.accept_ratio"] = _ratio(c["accepted"], c["projections"])
    out["ot1.oracle_queries"] = c["oracle_queries"]
    out["ot1.sign_zero_ratio"] = _ratio(c["sign_zero"], c["sign_calls"])
    out["primitives.ds_verify.repeat_ratio"] = _ratio(c["ds_verify_repeats"], c["ds_verify_calls"])
    for kind in CONTAINER_ENCODERS.values():
        out[f"cli.{kind}.bytes"] = raw["bytes"].get(kind, 0)
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
