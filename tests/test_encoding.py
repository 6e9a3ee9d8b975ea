"""Unit tests for canonical JSON encodings of vectors, spaces and states."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsl.encoding import (
    canonical_json,
    decode_space,
    decode_state,
    decode_vector,
    digest,
    encode_space,
    encode_state,
    encode_vector,
)
from qtsl.f2lin import F2Vector, sample_subspace
from qtsl.primitives import DataError
from qtsl.qsim import basis_state, phase_state, subspace_state, unsupported_state


def test_canonical_json_is_sorted_and_minimal():
    out = canonical_json({"b": 1, "a": [2, 3], "c": {"y": 0, "x": 1}})
    assert out == b'{"a":[2,3],"b":1,"c":{"x":1,"y":0}}'


def test_digest_known_value():
    # sha256 of the empty string, hex
    assert digest(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_vector_roundtrip_short():
    v = F2Vector.from_string("0101100")
    assert encode_vector(v) == "0101100"
    assert decode_vector(encode_vector(v)) == v


def test_vector_roundtrip_long():
    v = F2Vector(80, 123456789)
    enc = encode_vector(v)
    assert enc.startswith("hex:80:")
    assert decode_vector(enc) == v


@settings(max_examples=80)
@given(st.integers(1, 100), st.data())
def test_vector_roundtrip_property(n, data):
    v = F2Vector(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert decode_vector(encode_vector(v)) == v


@pytest.mark.parametrize(
    "bad", ["", "012", "10a", "hex:", "hex:8:zz", "hex:-4:0", 7, None, ["1"]]
)
def test_vector_decode_rejects(bad):
    with pytest.raises(DataError):
        decode_vector(bad)


def test_space_roundtrip():
    rng = Random(1)
    for n in (2, 4, 6, 8, 66):
        s = sample_subspace(n, rng)
        assert decode_space(encode_space(s)) == s


def test_space_decode_rejects_non_canonical_rows():
    # 0101/0110 spans the same plane as 0101/0011 but only the reduced
    # echelon row pair decodes
    ok = {"n": 4, "rows": ["0101", "0011"]}
    with pytest.raises(DataError):
        decode_space({"n": 4, "rows": ["0101", "0110"]})
    assert decode_space(ok).dim == 2


def test_space_decode_rejects_dependent_rows():
    with pytest.raises(DataError):
        decode_space({"n": 4, "rows": ["0110", "0110"]})


@pytest.mark.parametrize(
    "bad",
    [
        None,
        {},
        {"n": 4},
        {"rows": []},
        {"n": 0, "rows": []},
        {"n": "4", "rows": []},
        {"n": 4, "rows": "0101"},
        {"n": 4, "rows": ["011"]},
    ],
)
def test_space_decode_rejects_shapes(bad):
    with pytest.raises(DataError):
        decode_space(bad)


def test_state_roundtrip_all_kinds():
    rng = Random(2)
    space = sample_subspace(6, rng)
    for state in (
        subspace_state(space),
        basis_state(F2Vector.from_string("010110")),
        phase_state(F2Vector.from_string("111000")),
        unsupported_state(6),
    ):
        back = decode_state(encode_state(state))
        assert back.kind == state.kind
        assert back.ambient_n == state.ambient_n
        assert back.space == state.space and back.vector == state.vector


def test_state_decode_rejects():
    with pytest.raises(DataError):
        decode_state({"kind": "ghost", "n": 4})
    with pytest.raises(DataError):
        decode_state({"kind": "basis", "n": 4, "vector": "01011"})  # length 5
    with pytest.raises(DataError):
        decode_state(
            {"kind": "subspace", "n": 6, "space": {"n": 4, "rows": ["0110", "0011"]}}
        )
    with pytest.raises(DataError):
        decode_state("basis")


def test_encoding_is_stable_bytes():
    """Same value, same bytes: encodings feed digests and chain signatures."""
    rng = Random(3)
    s = sample_subspace(8, rng)
    a = canonical_json(encode_state(subspace_state(s)))
    b = canonical_json(encode_state(subspace_state(s)))
    assert a == b


@pytest.mark.parametrize("bad", ["", " 101", "101 ", "1_0", "0b1", "-101", "+1", b"101", 101, 1.0])
def test_vector_decode_rejects_what_int_parsing_accepts(bad):
    with pytest.raises(DataError):
        decode_vector(bad)


@settings(max_examples=150)
@given(st.integers(1, 12), st.data())
def test_space_roundtrip_property(n, data):
    from qtsl.f2lin import canonicalize

    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    space = canonicalize([F2Vector(n, r) for r in rows], ambient_n=n)
    back = decode_space(encode_space(space))
    assert back == space
    assert encode_space(back) == encode_space(space)


@settings(max_examples=300)
@given(st.integers(1, 8), st.data())
def test_space_decode_rejects_every_non_canonical_row_list(n, data):
    from qtsl.f2lin import _rref

    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 1))
    obj = {"n": n, "rows": [format(r, f"0{n}b") for r in rows]}
    if rows == _rref(rows):
        assert list(decode_space(obj).rows) == rows
    else:
        with pytest.raises(DataError):
            decode_space(obj)


@settings(max_examples=300)
@given(st.text(alphabet="01 _b+-x\t", max_size=12))
def test_vector_decode_accepts_exactly_bit_strings(text):
    if text and all(c in "01" for c in text):
        assert decode_vector(text) == F2Vector(len(text), int(text, 2))
    else:
        with pytest.raises(DataError):
            decode_vector(text)
