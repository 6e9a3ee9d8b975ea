"""Canonical byte encodings for keys, tokens, signatures and checks.

Everything that gets chain-signed, digested or written to disk goes through
the canonical JSON form produced here: sorted keys, no whitespace, ASCII
only.  Bit vectors serialize as '0'/'1' strings (leftmost coordinate first)
up to 64 coordinates and as hex with an explicit bit length beyond that.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from .f2lin import F2Vector, Subspace
from .primitives import DataError
from .qsim import CosetState, basis_state, phase_state, subspace_state, unsupported_state

__all__ = [
    "canonical_json",
    "encode_vector",
    "decode_vector",
    "encode_space",
    "decode_space",
    "encode_state",
    "decode_state",
    "digest",
]


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode_rows(n: int, values: Iterable[int]) -> list[str]:
    if n <= 64:
        fmt = f"0{n}b"
        return [format(v, fmt) for v in values]
    width = (n + 3) // 4
    return [f"hex:{n}:{v:0{width}x}" for v in values]


def encode_vector(v: F2Vector) -> str:
    return _encode_rows(v.n, (v.value,))[0]


def _decode_bits(text: Any) -> tuple[int, int]:
    """(length, packed value) of an encoded vector; DataError if malformed."""
    if not isinstance(text, str):
        raise DataError(f"vector field must be a string, got {type(text).__name__}")
    if text.startswith("hex:"):
        try:
            _, n_str, hex_str = text.split(":", 2)
            n = int(n_str)
            value = int(hex_str, 16) if hex_str else 0
        except ValueError as exc:
            raise DataError(f"bad hex vector {text!r}") from exc
        if n <= 0 or value < 0 or value.bit_length() > n:
            raise DataError(f"bad hex vector {text!r}")
        return n, value
    if not text or text.strip("01"):
        raise DataError(f"bad bit string {text!r}")
    return len(text), int(text, 2)


def decode_vector(text: Any) -> F2Vector:
    return F2Vector(*_decode_bits(text))


def encode_space(space: Subspace) -> dict:
    return {"n": space.ambient_n, "rows": _encode_rows(space.ambient_n, space.rows)}


def decode_space(obj: Any) -> Subspace:
    """The subspace whose canonical basis is exactly the encoded rows.

    Rows that are dependent, out of order or not fully reduced are rejected
    rather than re-canonicalised, so every subspace has one encoding.
    """
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise DataError("subspace field must be {n, rows}")
    n = obj["n"]
    if type(n) is not int or n <= 0:  # a JSON true is no length
        raise DataError(f"bad ambient {n!r}")
    rows = obj["rows"]
    if not isinstance(rows, list):
        raise DataError("rows must be a list")
    values = []
    for text in rows:
        length, value = _decode_bits(text)
        if length != n:
            raise DataError("row length disagrees with ambient")
        values.append(value)
    try:
        return Subspace.from_rows(n, values)
    except ValueError as exc:
        raise DataError("basis rows are not a canonical reduced basis") from exc


def encode_state(state: CosetState) -> dict:
    out: dict[str, Any] = {"kind": state.kind, "n": state.ambient_n}
    if state.kind == "subspace":
        out["space"] = encode_space(state.space)
    elif state.kind in ("basis", "phase"):
        out["vector"] = encode_vector(state.vector)
    return out


def decode_state(obj: Any) -> CosetState:
    if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
        raise DataError("state field must be {kind, n, ...}")
    kind = obj["kind"]
    n = obj["n"]
    if type(n) is not int or n <= 0:  # a JSON true is no length
        raise DataError(f"bad ambient {n!r}")
    if kind == "subspace":
        space = decode_space(obj.get("space"))
        if space.ambient_n != n:
            raise DataError("state ambient mismatch")
        return subspace_state(space)
    if kind in ("basis", "phase"):
        v = decode_vector(obj.get("vector"))
        if v.n != n:
            raise DataError("state ambient mismatch")
        return basis_state(v) if kind == "basis" else phase_state(v)
    if kind == "unsupported":
        return unsupported_state(n)
    raise DataError(f"unknown state kind {kind!r}")
