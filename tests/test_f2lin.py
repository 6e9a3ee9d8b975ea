"""Unit tests for the packed-integer F2 linear algebra layer."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import bit, element_set, flip, from_bits, gaussian_binomial, to_bits

from qtsl.f2lin import (
    DimensionError,
    F2Vector,
    Subspace,
    canonicalize,
    dual,
    enumerate_subspaces,
    intersection_dim,
    member,
    member_or_dual,
    sample_element,
    sample_nonzero_element,
    sample_related,
    sample_subspace,
)


def bits(n: int, s: str) -> F2Vector:
    assert len(s) == n
    return F2Vector.from_string(s)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_vector_string_roundtrip():
    v = F2Vector.from_string("010011")
    assert v.n == 6
    assert str(v) == "010011"
    assert to_bits(v) == (0, 1, 0, 0, 1, 1)
    assert bit(v, 0) == 0 and bit(v, 1) == 1
    assert from_bits([0, 1, 0, 0, 1, 1]) == v


def test_vector_xor_and_flip():
    a = F2Vector.from_string("1100")
    b = F2Vector.from_string("0110")
    assert str(a ^ b) == "1010"
    assert str(flip(a, 3)) == "1101"
    assert (a ^ a).is_zero()
    with pytest.raises(IndexError):
        flip(a, 4)
    with pytest.raises(DimensionError):
        F2Vector(3, 1) ^ F2Vector(4, 1)


def test_vector_range_checks():
    with pytest.raises(DimensionError):
        F2Vector(0, 0)
    for value in (8, -1):
        with pytest.raises(ValueError):
            F2Vector(3, value)


def test_vector_zero():
    z = F2Vector(5, 0)
    assert z.is_zero() and str(z) == "00000"


@given(st.integers(1, 24), st.data())
def test_vector_xor_group_laws(n, data):
    rng_bits = lambda: data.draw(st.integers(0, (1 << n) - 1))
    a = F2Vector(n, rng_bits())
    b = F2Vector(n, rng_bits())
    c = F2Vector(n, rng_bits())
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ b == b ^ a
    assert a ^ F2Vector(n, 0) == a


# ---------------------------------------------------------------------------
# canonical bases
# ---------------------------------------------------------------------------


def test_worked_small_subspace():
    # dim-2 space inside F2^4 spanned by 0011 and 1110
    space = Subspace.from_string("0011\n1110")
    got = {str(v) for v in space.elements()}
    assert got == {"0000", "0011", "1110", "1101"}
    d = dual(space)
    assert {str(v) for v in d.elements()} == {"0000", "0111", "1011", "1100"}


def test_canonicalize_idempotent_fixed():
    rows = [bits(4, "0011"), bits(4, "1110"), bits(4, "1101")]
    space = canonicalize(rows, ambient_n=4)
    assert space.dim == 2
    again = canonicalize(list(space.basis), ambient_n=4)
    assert again == space


@settings(max_examples=200)
@given(st.integers(2, 10), st.data())
def test_canonicalize_properties(n, data):
    k = data.draw(st.integers(1, n))
    rows = [
        F2Vector(n, data.draw(st.integers(0, (1 << n) - 1))) for _ in range(k)
    ]
    space = canonicalize(rows, ambient_n=n)
    # idempotent
    assert canonicalize(list(space.basis), ambient_n=n) == space
    # every pivot column is cleared in all other rows
    for i, row in enumerate(space.basis):
        pivot = row.value.bit_length() - 1
        for j, other in enumerate(space.basis):
            if i != j:
                assert not (other.value >> pivot) & 1
    # spans the same set
    brute = {0}
    for r in rows:
        brute |= {x ^ r.value for x in brute}
    assert {v.value for v in space.elements()} == brute


def test_subspace_rejects_non_canonical():
    with pytest.raises(ValueError):
        Subspace(4, (bits(4, "0011"), bits(4, "0011")))
    with pytest.raises(ValueError):
        # 1110 has a 1 in 0111's pivot column? build a plainly unreduced pair
        Subspace(4, (bits(4, "0111"), bits(4, "0110")))


def test_member():
    space = Subspace.from_string("0011\n1110")
    for v in space.elements():
        assert member(space, v)
    assert not member(space, bits(4, "0001"))
    assert not member(space, bits(4, "1111"))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


@settings(max_examples=150)
@given(st.integers(2, 12), st.data())
def test_dual_pairing_and_involution(n, data):
    rng = Random(data.draw(st.integers(0, 2**32)))
    k = data.draw(st.integers(0, n))
    rows = [F2Vector(n, rng.getrandbits(n)) for _ in range(k)]
    space = canonicalize(rows, ambient_n=n)
    d = dual(space)
    assert space.dim + d.dim == n
    assert dual(d) == space
    for a in space.elements():
        for b in d.basis:
            assert (a.value & b.value).bit_count() % 2 == 0


def test_dual_of_full_space_is_zero():
    full = canonicalize([F2Vector(3, 1), F2Vector(3, 2), F2Vector(3, 4)], ambient_n=3)
    d = dual(full)
    assert d.dim == 0
    assert list(d.elements()) == [F2Vector(3, 0)]


# ---------------------------------------------------------------------------
# intersections and related spaces
# ---------------------------------------------------------------------------


def test_intersection_dim_basics():
    a = Subspace.from_string("0011\n1110")
    assert intersection_dim(a, a) == 2
    assert intersection_dim(a, dual(a)) in (0, 1, 2)


@settings(max_examples=100)
@given(st.integers(1, 5), st.data())
def test_intersection_dim_matches_enumeration(half, data):
    n = 2 * half
    rng = Random(data.draw(st.integers(0, 2**32)))
    a = sample_subspace(n, rng)
    b = sample_subspace(n, rng)
    common = element_set(a) & element_set(b)
    # |A ∩ B| = 2^dim of the intersection
    assert 1 << intersection_dim(a, b) == len(common)
    assert intersection_dim(a, b) == intersection_dim(b, a)


def test_sample_related_overlap():
    rng = Random(7)
    for n in (4, 6, 8, 10):
        a = sample_subspace(n, rng)
        for _ in range(20):
            b = sample_related(a, rng)
            assert b.dim == n // 2
            assert intersection_dim(a, b) == n // 2 - 1
            assert b != a


def test_sample_element_stays_inside():
    rng = Random(3)
    space = sample_subspace(8, rng)
    seen = set()
    for _ in range(200):
        v = sample_element(space, rng)
        assert member(space, v)
        seen.add(v.value)
    assert len(seen) == len(space)  # 16 points all reachable
    nz = sample_nonzero_element(space, rng)
    assert member(space, nz) and not nz.is_zero()


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(2, 1) == 3
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(5, 0) == 1
    assert gaussian_binomial(5, 5) == 1


def test_gaussian_binomial_counts_enumeration():
    for m in range(1, 5):
        for k in range(0, m + 1):
            listed = list(enumerate_subspaces(m, k))
            assert len(listed) == gaussian_binomial(m, k)
            assert len(set(listed)) == len(listed)
            for s in listed:
                assert s.dim == k and s.ambient_n == m


def test_enumerate_subspaces_35():
    spaces = list(enumerate_subspaces(4, 2))
    assert len(spaces) == 35
    # each is closed under xor
    for s in spaces:
        pts = element_set(s)
        for x in pts:
            for y in pts:
                assert (x ^ y) in pts


def test_sample_subspace_requires_even_ambient():
    with pytest.raises(DimensionError):
        sample_subspace(5, Random(0))


# ---------------------------------------------------------------------------
# canonical-form invariants and the dual memo
# ---------------------------------------------------------------------------


def _rref_reference(rows):
    """Straightforward RREF: clear each new pivot column everywhere."""
    by_pivot = {}
    for r in rows:
        for q, other in by_pivot.items():
            if (r >> q) & 1:
                r ^= other
        if not r:
            continue
        p = r.bit_length() - 1
        for q, other in by_pivot.items():
            if (other >> p) & 1:
                by_pivot[q] = other ^ r
        by_pivot[p] = r
    return [by_pivot[p] for p in sorted(by_pivot, reverse=True)]


@st.composite
def row_lists(draw, max_n=8):
    """(n, rows): canonical bases and bases broken in each way the invariant
    check must catch (zero rows, repeated pivots, unreduced pivot columns,
    wrong order), plus arbitrary int lists."""
    n = draw(st.integers(1, max_n))
    word = st.integers(0, (1 << n) - 1)
    rows = _rref_reference(draw(st.lists(word, max_size=n + 1)))
    how = draw(st.sampled_from(["as-is", "zero", "repeat", "unreduce", "swap", "arbitrary"]))
    if how == "zero":
        rows.insert(draw(st.integers(0, len(rows))), 0)
    elif how == "repeat" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(i, rows[i])
    elif how == "unreduce" and len(rows) >= 2:
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[i] ^= rows[j]
    elif how == "swap" and len(rows) >= 2:
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[i], rows[j] = rows[j], rows[i]
    elif how == "arbitrary":
        rows = draw(st.lists(word, max_size=n + 1))
    return n, rows


@settings(max_examples=400)
@given(row_lists())
def test_subspace_accepts_exactly_the_rref(case):
    n, rows = case
    canonical = rows == _rref_reference(rows)
    basis = tuple(F2Vector(n, r) for r in rows)
    if canonical:
        space = Subspace(n, basis)
        assert space.rows == tuple(rows) and space.basis == basis
        assert Subspace.from_rows(n, rows) == space
        assert canonicalize(list(basis), ambient_n=n) == space
    else:
        with pytest.raises(ValueError):
            Subspace(n, basis)
        with pytest.raises(ValueError):
            Subspace.from_rows(n, rows)


def _checked_rows_reference(n, rows):
    """The two-pass canonical check the one-pass ``_checked_rows`` replaced:
    first zero, negative, too-wide and out-of-order rows, then each row's
    bits in the pivot columns."""
    if n <= 0:
        raise DimensionError(f"ambient must be positive, got {n}")
    rows = tuple(rows)
    pivot_mask = 0
    last = n
    for r in rows:
        p = r.bit_length() - 1
        if r <= 0 or p >= last:
            raise ValueError("basis is not in canonical reduced form")
        last = p
        pivot_mask |= 1 << p
    if not all(r & pivot_mask == 1 << (r.bit_length() - 1) for r in rows):
        raise ValueError("basis is not in canonical reduced form")
    return rows


@st.composite
def rough_row_lists(draw):
    """(n, rows) from ``row_lists``, some with a row made negative or too
    wide, and some with an ambient below 1."""
    n, rows = draw(row_lists())
    how = draw(st.sampled_from(["as-is", "negate", "negative", "wide", "ambient"]))
    i = draw(st.integers(0, len(rows)))
    if how == "negate" and rows:
        rows[i % len(rows)] = -rows[i % len(rows)]
    elif how == "negative":
        rows.insert(i, draw(st.integers(-(1 << (n + 1)), -1)))
    elif how == "wide":
        rows.insert(i, draw(st.integers(1 << n, 1 << (n + 2))))
    elif how == "ambient":
        n = draw(st.integers(-2, 0))
    return n, rows


def _checked_verdict(check, n, rows):
    try:
        return check(n, rows)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=500)
@given(rough_row_lists())
def test_subspace_from_rows_accepts_what_the_two_pass_check_accepts(case):
    n, rows = case
    expected = _checked_verdict(_checked_rows_reference, n, rows)
    got = _checked_verdict(lambda n, rows: Subspace.from_rows(n, rows).rows, n, rows)
    assert got == expected


def test_subspace_from_rows_rejects_negative_rows():
    for rows in ([-1], [-4, 1], [0b1000, -1], [-0b1000]):
        with pytest.raises(ValueError, match="canonical reduced form"):
            Subspace.from_rows(4, rows)


def test_subspace_from_rows_rejects_wide_rows():
    with pytest.raises(ValueError):
        Subspace.from_rows(3, [0b1000])
    with pytest.raises(DimensionError):
        Subspace.from_rows(0, [])


def test_subspace_is_immutable():
    space = canonicalize([F2Vector(4, 0b0110)])
    with pytest.raises(AttributeError):
        space.rows = (0b0001,)
    with pytest.raises(AttributeError):
        space.ambient_n = 5


def _dual_by_enumeration(space: Subspace) -> Subspace:
    n = space.ambient_n
    orthogonal = [
        F2Vector(n, x)
        for x in range(1 << n)
        if all((x & r).bit_count() % 2 == 0 for r in space.rows)
    ]
    return canonicalize(orthogonal, ambient_n=n)


@settings(max_examples=150)
@given(row_lists(max_n=7))
def test_dual_memo_matches_fresh_computation(case):
    n, rows = case
    space = canonicalize([F2Vector(n, r) for r in rows], ambient_n=n)
    d = dual(space)
    assert dual(space) is d  # computed once per value
    assert d == _dual_by_enumeration(space)
    assert dual(d) == space
    # an equal value built separately computes the same dual afresh
    twin = Subspace(n, space.basis)
    assert twin is not space and dual(twin) == d
    # the dual membership bit is orthogonality to the primal basis
    for x in range(1 << n):
        v = F2Vector(n, x)
        assert member_or_dual(space, v, 1) == member(d, v)
        assert member_or_dual(space, v, 0) == member(space, v)


@settings(max_examples=300)
@given(st.integers(1, 40), st.data())
def test_rref_matches_reference(n, data):
    from qtsl.f2lin import _rank, _rref

    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 3))
    assert _rref(rows) == _rref_reference(rows)
    assert _rank(rows) == len(_rref_reference(rows))
