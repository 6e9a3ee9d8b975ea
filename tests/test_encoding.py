"""Unit tests for canonical JSON encodings of vectors, spaces and states."""

import json
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
    # beyond 64 coordinates a vector has one spelling: hex:, n in plain
    # decimal, then exactly (n + 3) // 4 digits from 0-9a-f
    assert decode_vector("hex:70:" + "0" * 17 + "1") == F2Vector(70, 1)
    for loose in (
        "hex:70:0_1", "hex:70: 1 ", "hex:70:0x1", "hex:070:1",
        "hex:70:1", "hex:70:", "hex:70:" + "0" * 17 + "A", "hex:+70:" + "0" * 17 + "1",
        "0" * 69 + "1",
    ):
        with pytest.raises(DataError):
            decode_vector(loose)


@settings(max_examples=80)
@given(st.integers(1, 100), st.data())
def test_vector_roundtrip_property(n, data):
    v = F2Vector(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert decode_vector(encode_vector(v)) == v


@pytest.mark.parametrize(
    "bad",
    [
        "", "012", "10a", "hex:", "hex:8:zz", "hex:-4:0", 7, None, ["1"],
        # a vector of at most 64 coordinates has only its bit-string spelling
        "hex:8:1", "hex:64:0", "hex:1:1", "hex:064:1",
    ],
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


def test_space_decode_rejects_hex_rows_up_to_64():
    assert decode_space({"n": 8, "rows": ["00000001"]}).rows == (1,)
    for n, row in (
        (8, "hex:8:01"), (8, "hex:8:1"), (64, "hex:64:1"), (4, "hex:4:1"),
        (66, "hex:66:1"), (66, "0" * 65 + "1"),  # beyond 64 only padded hex
    ):
        with pytest.raises(DataError):
            decode_space({"n": n, "rows": [row]})
    assert decode_space({"n": 66, "rows": ["hex:66:" + "0" * 16 + "1"]}).rows == (1,)


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


# ---------------------------------------------------------------------------
# the list decoders against the one-space-at-a-time decoder they replaced
# ---------------------------------------------------------------------------


def _decode_bits_reference(text):
    if not isinstance(text, str):
        raise DataError("vector field must be a string")
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


def _decode_space_reference(obj):
    """decode_space as it was before the list decoder: each row parsed on
    its own, and ``hex:`` rows accepted at any length."""
    from qtsl.f2lin import Subspace

    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise DataError("subspace field must be {n, rows}")
    n = obj["n"]
    if type(n) is not int or n <= 0:
        raise DataError(f"bad ambient {n!r}")
    rows = obj["rows"]
    if not isinstance(rows, list):
        raise DataError("rows must be a list")
    values = []
    for text in rows:
        length, value = _decode_bits_reference(text)
        if length != n:
            raise DataError("row length disagrees with ambient")
        values.append(value)
    try:
        return Subspace.from_rows(n, values)
    except ValueError as exc:
        raise DataError("basis rows are not a canonical reduced basis") from exc


def _verdict(decode, arg):
    try:
        return decode(arg)
    except DataError:
        return DataError


def _bit_row(n, value):
    return format(value, f"0{n}b") if n <= 64 else f"hex:{n}:{value:0{(n + 3) // 4}x}"


@st.composite
def _row_texts(draw, n):
    """An encoded space's rows, or one of them spelled wrongly."""
    from qtsl.f2lin import canonicalize

    values = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=min(n, 5)))
    rows = [_bit_row(n, r) for r in canonicalize([F2Vector(n, v) for v in values], n).rows]
    if draw(st.booleans()):
        return rows
    bad = draw(
        st.sampled_from(
            ["int", "none", "hex", "empty", "zero", "arabic", "fullwidth", "short", "long", "space"]
        )
    )
    i = draw(st.integers(0, len(rows)))
    row = rows[i] if i < len(rows) else "0" * n
    row = {
        "int": 1,
        "none": None,
        "hex": f"hex:{n}:{int(row, 2) if n <= 64 else 1:x}",
        "empty": "",
        "zero": "0" * n,
        "arabic": row[:-1] + "١",  # int(..., 2) reads these as digits
        "fullwidth": row[:-1] + "１",
        "short": row[:-1],
        "long": row + "0",
        "space": " " + row[1:],
    }[bad]
    return rows[:i] + [row] + rows[i + 1 :]


@st.composite
def _space_objs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 64, 66, 70]))
    obj = {"n": n, "rows": draw(_row_texts(n))}
    twist = draw(st.sampled_from(["none"] * 6 + ["true", "list", "float", "str", "zero", "rows", "drop"]))
    if twist == "true":
        obj["n"] = True
    elif twist == "list":
        obj["n"] = [n]
    elif twist == "float":
        obj["n"] = float(n)
    elif twist == "str":
        obj["n"] = str(n)
    elif twist == "zero":
        obj["n"] = 0
    elif twist == "rows":
        obj["rows"] = "".join(map(str, obj["rows"][:1]))
    elif twist == "drop":
        del obj[draw(st.sampled_from(["n", "rows"]))]
    return obj


def _spelled_otherwise(obj):
    """A space with a row the reference reads as n bits but that
    ``_row_text`` spells differently: a ``hex:`` row of at most 64
    coordinates, or beyond 64 a bit string or a ``hex:`` row that is not
    padded, lowercase plain hex.  The reference accepted these, the list
    decoder does not."""
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int or n <= 0 or not isinstance(obj.get("rows"), list):
        return False
    for text in obj["rows"]:
        try:
            length, value = _decode_bits_reference(text)
        except DataError:
            continue
        if length == n and text != _bit_row(n, value):
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(st.lists(_space_objs(), max_size=6))
def test_decode_spaces_matches_the_row_at_a_time_reference(objs):
    from qtsl.encoding import decode_spaces
    from qtsl.f2lin import _row_text

    expected = [_verdict(_decode_space_reference, obj) for obj in objs]
    if DataError in expected or any(map(_spelled_otherwise, objs)):
        expected = DataError
    got = _verdict(decode_spaces, objs)
    assert got == expected
    if got is not DataError:
        # every space, n > 64 included, keeps the text it was checked
        # against, and that text is the canonical spelling
        for obj, space in zip(objs, got):
            assert space.__dict__["_spelling"] == tuple(obj["rows"])
            assert encode_space(space)["rows"] == _row_text(space.ambient_n, space.rows)
    for obj in objs:
        assert _verdict(decode_space, obj) == (
            DataError if _spelled_otherwise(obj) else _verdict(_decode_space_reference, obj)
        )


@st.composite
def _state_objs(draw, space):
    """A subspace state that spells ``space``, or nearly does."""
    obj = {"kind": "subspace", "n": space.ambient_n, "space": dict(encode_space(space))}
    obj["space"]["rows"] = list(obj["space"]["rows"])
    twist = draw(
        st.sampled_from(["none", "none", "true", "float", "rows-str", "rows-dict", "row", "outer-n", "other"])
    )
    sp = obj["space"]
    if twist == "true":
        sp["n"] = True  # a JSON true is no length
    elif twist == "float":
        sp["n"] = float(sp["n"])
    elif twist == "rows-str":
        sp["rows"] = "".join(sp["rows"])
    elif twist == "rows-dict":
        sp["rows"] = dict.fromkeys(sp["rows"])
    elif twist == "row" and sp["rows"]:
        sp["rows"][0] = sp["rows"][0][::-1]
    elif twist == "outer-n":
        obj["n"] = space.ambient_n + 1
    elif twist == "other":
        obj = {"kind": "basis", "n": space.ambient_n, "vector": "1" * space.ambient_n}
    return obj


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_states_reuses_exactly_the_spaces_it_would_decode(data):
    """Giving decode_states the public spaces changes no verdict and no
    value; a state that spells its space gets that very object."""
    from qtsl.encoding import decode_states

    from qtsl.f2lin import canonicalize

    n = data.draw(st.sampled_from([1, 2, 4, 6, 8, 70]))
    vectors = st.lists(st.integers(0, (1 << n) - 1).map(lambda v: F2Vector(n, v)), max_size=4)
    like = [canonicalize(data.draw(vectors), n) for _ in range(3)]
    objs = [data.draw(_state_objs(space)) for space in like]
    plain = _verdict(decode_states, objs)
    shared = _verdict(lambda o: decode_states(o, like), objs)
    assert shared == plain
    if shared is not DataError:
        for obj, space, state in zip(objs, like, shared):
            spelled = obj["kind"] == "subspace" and obj["space"] == dict(encode_space(space), rows=list(space._text))
            assert (state.space is space) == (spelled and type(obj["space"]["n"]) is int)


def test_encode_space_rows_cannot_be_changed_through_an_encoding():
    space = sample_subspace(6, Random(4))
    first = canonical_json(encode_space(space))
    rows = encode_space(space)["rows"]
    for change in (lambda r: r.__setitem__(0, "111111"), lambda r: r.append("000001")):
        try:
            change(rows)
        except (TypeError, AttributeError):  # an immutable sequence refuses
            pass
    assert canonical_json(encode_space(space)) == first
    # nor through the payload a space was decoded from
    obj = json.loads(first)
    back = decode_space(obj)
    obj["rows"][0] = "000000"
    obj["rows"].append("000001")
    assert canonical_json(encode_space(back)) == first
