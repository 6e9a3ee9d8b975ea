"""Canonical JSON and the codecs for vectors, subspaces and states.

Everything that gets chain-signed, digested or written to disk goes through
the canonical JSON form produced here: sorted keys, no whitespace, ASCII
only.  Bit vectors serialize as '0'/'1' strings (leftmost coordinate first)
up to 64 coordinates and as hex with an explicit bit length beyond that.
The key, token, signature, check and coin containers live in ``qtsl.container``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, islice, repeat
from typing import Any, Sequence

from .f2lin import F2Vector, Subspace, _from_text, _row_text
from .primitives import DataError
from .qsim import CosetState, basis_state, phase_state, subspace_state, unsupported_state

__all__ = [
    "canonical_json",
    "load_json",
    "encode_vector",
    "decode_vector",
    "decode_vectors",
    "encode_space",
    "decode_space",
    "decode_spaces",
    "encode_state",
    "decode_state",
    "decode_states",
    "digest",
]


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def load_json(raw: bytes) -> Any:
    """Parse untrusted JSON bytes; whatever cannot be read raises DataError."""
    try:
        return json.loads(raw.decode("utf-8"))
    # ValueError: bad UTF-8, bad JSON or an int past the digit limit;
    # RecursionError: arrays or objects nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DataError(f"not JSON: {exc}") from exc


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_vector(v: F2Vector) -> str:
    return _row_text(v.n, (v.value,))[0]


def _bit_values(texts: list) -> list[int]:
    """Values of non-empty '0'/'1' strings, checked together: every text a
    str, then one alphabet check over their concatenation.  Lengths are the
    caller's to check."""
    if set(map(type, texts)) - {str}:
        raise DataError("vector field must be a string")
    try:
        stray = "".join(texts).encode("ascii").translate(None, b"01")
    except UnicodeEncodeError:  # int(..., 2) would take digits such as "\u0661"
        stray = b"?"
    if stray or not all(texts):
        raise DataError("bad bit string")
    return list(map(int, texts, repeat(2)))


def _decode_hex(text: str) -> tuple[int, int]:
    """(length, value) of a ``hex:<n>:<digits>`` vector, in the one spelling
    ``_row_text`` writes: n > 64 in plain decimal, then exactly
    ``(n + 3) // 4`` digits from 0-9a-f.  ``int`` alone would also take
    signs, underscores, spaces, a ``0x`` prefix and other scripts' digits."""
    try:
        _, n_str, hex_str = text.split(":")
        n = int(n_str)
    except ValueError as exc:
        raise DataError(f"bad hex vector {text!r}") from exc
    if (
        n <= 64
        or n_str != str(n)
        or len(hex_str) != (n + 3) // 4
        or hex_str.strip("0123456789abcdef")
    ):
        raise DataError(f"bad hex vector {text!r}")
    value = int(hex_str, 16)
    if value.bit_length() > n:
        raise DataError(f"bad hex vector {text!r}")
    return n, value


def decode_vectors(texts: list) -> list[F2Vector]:
    """Encoded vectors: bit strings of at most 64 coordinates, checked in one
    pass, and ``hex:`` texts of more than 64, parsed one at a time."""
    bits = [t for t in texts if type(t) is not str or not t.startswith("hex:")]
    values = iter(_bit_values(bits))
    if any(len(t) > 64 for t in bits):
        raise DataError("a vector of more than 64 coordinates is written in hex")
    return [
        F2Vector(*_decode_hex(t)) if t.startswith("hex:") else F2Vector(len(t), next(values))
        for t in texts
    ]


def decode_vector(text: Any) -> F2Vector:
    return decode_vectors([text])[0]


def encode_space(space: Subspace) -> dict:
    """``rows`` is the space's own row text, formatted at most once (an
    immutable tuple, which canonical_json writes as a JSON array)."""
    return {"n": space.ambient_n, "rows": space._text}


def decode_spaces(objs: list) -> list[Subspace]:
    """The subspaces encoded in ``objs``, each the one whose canonical basis
    is exactly its encoded rows.

    Rows that are dependent, out of order or not fully reduced are rejected
    rather than re-canonicalised, and a space of n <= 64 takes only bit
    strings, so every subspace has one encoding.  The rows of all those
    spaces are checked together (type, length, alphabet) and each space
    keeps the text it was checked against; ``hex:`` rows (n > 64) are
    parsed one at a time.
    """
    shapes = []
    for obj in objs:
        if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
            raise DataError("subspace field must be {n, rows}")
        n = obj["n"]
        if type(n) is not int or n <= 0:  # a JSON true is no length
            raise DataError(f"bad ambient {n!r}")
        rows = obj["rows"]
        if not isinstance(rows, (list, tuple)):  # a tuple is what encode_space gives
            raise DataError("rows must be a list")
        shapes.append((n, rows))
    short = [(n, rows) for n, rows in shapes if n <= 64]
    values = iter(_bit_values(list(chain.from_iterable(rows for _, rows in short))))
    if any(set(map(len, rows)) - {n} for n, rows in short):
        raise DataError("row length disagrees with ambient")
    out = []
    for n, rows in shapes:
        if n > 64:
            vectors = decode_vectors(rows)
            if any(v.n != n for v in vectors):
                raise DataError("row length disagrees with ambient")
        try:
            if n <= 64:
                out.append(_from_text(n, islice(values, len(rows)), tuple(rows)))
            else:
                out.append(Subspace.from_rows(n, [v.value for v in vectors]))
        except ValueError as exc:
            raise DataError("basis rows are not a canonical reduced basis") from exc
    return out


def decode_space(obj: Any) -> Subspace:
    """One encoded subspace, under the rules of ``decode_spaces``."""
    return decode_spaces([obj])[0]


def encode_state(state: CosetState) -> dict:
    out: dict[str, Any] = {"kind": state.kind, "n": state.ambient_n}
    if state.kind == "subspace":
        out["space"] = encode_space(state.space)
    elif state.kind in ("basis", "phase"):
        out["vector"] = encode_vector(state.vector)
    return out


def _spells(obj: Any, space: Subspace) -> bool:
    """Whether ``obj`` is an encoding of ``space``: its n and rows equal the
    space's ambient and row text (so decoding it would give ``space``)."""
    return (
        isinstance(obj, dict)
        and type(obj.get("n")) is int
        and obj["n"] == space.ambient_n
        and isinstance(obj.get("rows"), (list, tuple))
        and tuple(obj["rows"]) == space._text
    )


def decode_states(objs: list, like: Sequence[Subspace] = ()) -> list[CosetState]:
    """The states encoded in ``objs``, their spaces and vectors decoded in
    one pass each.  A subspace state ``objs[i]`` that spells ``like[i]`` (in
    a token, its public component's space) is given that Subspace."""
    plan = []  # (kind, n, the reused space or None)
    spaces, vectors = [], []
    for i, obj in enumerate(objs):
        if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
            raise DataError("state field must be {kind, n, ...}")
        kind = obj["kind"]
        n = obj["n"]
        if type(n) is not int or n <= 0:  # a JSON true is no length
            raise DataError(f"bad ambient {n!r}")
        reused = None
        if kind == "subspace":
            if i < len(like) and _spells(obj.get("space"), like[i]):
                reused = like[i]
            else:
                spaces.append(obj.get("space"))
        elif kind in ("basis", "phase"):
            vectors.append(obj.get("vector"))
        elif kind != "unsupported":
            raise DataError(f"unknown state kind {kind!r}")
        plan.append((kind, n, reused))
    decoded_spaces = iter(decode_spaces(spaces))
    decoded_vectors = iter(decode_vectors(vectors))
    out = []
    for kind, n, reused in plan:
        if kind == "unsupported":
            out.append(unsupported_state(n))
            continue
        if kind == "subspace":
            space = next(decoded_spaces) if reused is None else reused
            state = subspace_state(space)
        else:
            v = next(decoded_vectors)
            state = basis_state(v) if kind == "basis" else phase_state(v)
        if state.ambient_n != n:
            raise DataError("state ambient mismatch")
        out.append(state)
    return out


def decode_state(obj: Any) -> CosetState:
    return decode_states([obj])[0]
