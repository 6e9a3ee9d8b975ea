"""Exact linear algebra over the binary field.

Vectors are fixed-length bit strings packed into Python ints (leftmost
coordinate = most significant bit), subspaces are kept as canonical reduced
row echelon bases so that equal point sets compare equal as plain values.
Everything in here is integer arithmetic; no floats, no randomness except
where an rng is passed in explicitly.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from random import Random
from typing import Iterable, Iterator, Sequence

from .record import FrozenRecord, set_field

__all__ = [
    "DimensionError",
    "F2Vector",
    "Subspace",
    "canonicalize",
    "dual",
    "member",
    "member_or_dual",
    "sample_subspace",
    "sample_element",
    "sample_nonzero_element",
    "intersection_dim",
    "sample_related",
    "enumerate_subspaces",
]


class DimensionError(ValueError):
    """Vector lengths or subspace ambients that do not line up."""


class F2Vector(FrozenRecord):
    """A vector in F2^n, packed into an int (coordinate 1 is the MSB).
    Vectors order like their ``(n, value)`` tuples."""

    _fields = ("n", "value")
    n: int
    value: int

    def __init__(self, n: int, value: int) -> None:
        if n <= 0:
            raise DimensionError(f"vector length must be positive, got {n}")
        if value < 0 or value.bit_length() > n:  # no 2^n int built
            raise ValueError(f"value {value} out of range for length {n}")
        set_field(self, "n", n)
        set_field(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __lt__(self, other: "F2Vector") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.value) < (other.n, other.value)

    def __le__(self, other: "F2Vector") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.value) <= (other.n, other.value)

    @classmethod
    def from_string(cls, text: str) -> "F2Vector":
        """Parse a '0'/'1' string, first character = coordinate 1."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))

    def is_zero(self) -> bool:
        return self.value == 0

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        """Coordinatewise sum over F2."""
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return F2Vector(self.n, self.value ^ other.value)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"F2Vector({str(self)!r})"


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Row echelon form of int-packed rows, keyed by pivot (leading bit);
    zero rows are dropped.  Consumes ``rows`` exactly once, in order."""
    by_pivot: dict[int, int] = {}
    for r in rows:
        while r:
            p = r.bit_length() - 1
            other = by_pivot.get(p)
            if other is None:
                by_pivot[p] = r
                break
            r ^= other
    return by_pivot


def _rref(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of a set of int-packed rows.

    Returns rows sorted so the leftmost pivot comes first (descending as
    ints); zero rows are dropped.
    """
    by_pivot = _echelon(rows)
    out = []
    below = 0  # pivot columns of the rows already reduced
    for p in sorted(by_pivot):
        r = by_pivot[p]
        hits = r & below
        while hits:
            r ^= by_pivot[hits.bit_length() - 1]
            hits = r & below
        by_pivot[p] = r
        below |= 1 << p
        out.append(r)
    out.reverse()
    return out


def _rank(rows: Iterable[int]) -> int:
    return len(_echelon(rows))


def _checked_rows(n: int, rows: Iterable[int]) -> tuple[int, ...]:
    """``rows`` as a tuple if it is exactly the canonical basis that
    ``_rref`` returns for its span; ValueError otherwise.

    Checks the invariants directly instead of recomputing the form: no zero
    row, rows fit in n bits, pivots (leading bits) strictly descending, and
    each row's only bit in a pivot column is its own pivot.
    """
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


class Subspace:
    """A linear subspace of F2^n held as a canonical RREF basis.

    ``rows`` holds the basis packed into ints: pivot-sorted (leftmost pivot
    first), each pivot column cleared in all other rows, no row zero.  Two
    Subspace values are equal exactly when they contain the same points.
    ``basis`` is the same basis as a tuple of F2Vector.

    The constructors check the invariants; code in this module that holds
    rows canonical by construction builds through ``_trusted`` instead.  The
    value is immutable, so its dual and its row text (``_text``) are
    computed at most once.
    """

    ambient_n: int
    rows: tuple[int, ...]

    def __init__(self, ambient_n: int, basis: Sequence[F2Vector]) -> None:
        basis = tuple(basis)
        if any(b.n != ambient_n for b in basis):
            raise DimensionError("basis row length != ambient")
        rows = _checked_rows(ambient_n, (b.value for b in basis))
        self.__dict__.update(ambient_n=ambient_n, rows=rows, basis=basis)

    @classmethod
    def from_rows(cls, ambient_n: int, rows: Iterable[int]) -> "Subspace":
        """Checked construction from int-packed rows that must already be in
        canonical form (ValueError otherwise)."""
        return _trusted(ambient_n, _checked_rows(ambient_n, rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Subspace is immutable (cannot set {name!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self is other or (self.ambient_n == other.ambient_n and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_n, self.rows))

    @cached_property
    def basis(self) -> tuple[F2Vector, ...]:
        return tuple(F2Vector(self.ambient_n, r) for r in self.rows)

    @cached_property
    def _dual(self) -> "Subspace":
        n = self.ambient_n
        pivots = [r.bit_length() - 1 for r in self.rows]
        pivot_set = set(pivots)
        out = []
        for f in range(n - 1, -1, -1):
            if f in pivot_set:
                continue
            w = 1 << f
            for row, pbit in zip(self.rows, pivots):
                if (row >> f) & 1:
                    w |= 1 << pbit
            out.append(w)
        return _trusted(n, _rref(out))

    @property
    def _text(self) -> tuple[str, ...]:
        """The rows as a container spells them (``_row_text``), formatted at
        most once; a decoded space holds the text it was checked against."""
        text = self.__dict__.get("_spelling")
        if text is None:  # no cached_property: on 3.11 its lock costs more than this
            text = self.__dict__["_spelling"] = _row_text(self.ambient_n, self.rows)
        return text

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return 1 << self.dim

    def elements(self) -> Iterator[F2Vector]:
        """Iterate all 2^dim points (small dimensions only)."""
        rows = self.rows
        for mask in range(1 << len(rows)):
            acc = 0
            m = mask
            i = 0
            while m:
                if m & 1:
                    acc ^= rows[i]
                m >>= 1
                i += 1
            yield F2Vector(self.ambient_n, acc)

    def __str__(self) -> str:
        return "\n".join(format(r, f"0{self.ambient_n}b") for r in self.rows)

    def __repr__(self) -> str:
        return f"Subspace(n={self.ambient_n}, dim={self.dim})"

    @classmethod
    def from_string(cls, text: str) -> "Subspace":
        """Parse the newline-separated basis-row form."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty subspace text (ambient unknown)")
        return canonicalize([F2Vector.from_string(ln.strip()) for ln in lines])


def _trusted(ambient_n: int, rows: Sequence[int]) -> Subspace:
    """A Subspace from rows that are canonical by construction (unchecked)."""
    space = object.__new__(Subspace)
    space.__dict__.update(ambient_n=ambient_n, rows=tuple(rows))
    return space


def _from_text(ambient_n: int, rows: Iterable[int], text: tuple[str, ...]) -> Subspace:
    """Checked construction (as ``from_rows``) from rows parsed out of
    ``text``, which must be their ``_row_text`` spelling; the text is kept."""
    space = Subspace.from_rows(ambient_n, rows)
    space.__dict__["_spelling"] = text
    return space


def _row_text(n: int, values: Iterable[int]) -> tuple[str, ...]:
    """n-bit rows as a container spells them: '0'/'1' strings (coordinate 1
    first) up to 64 coordinates, ``hex:<n>:<digits>`` beyond."""
    if n <= 64:
        fmt = f"0{n}b"
        return tuple([format(v, fmt) for v in values])
    width = (n + 3) // 4
    return tuple([f"hex:{n}:{v:0{width}x}" for v in values])


def canonicalize(vectors: Sequence[F2Vector], ambient_n: int | None = None) -> Subspace:
    """Span of ``vectors`` as a canonical Subspace.

    Empty input yields the zero subspace (``ambient_n`` required then).
    """
    if vectors:
        n = vectors[0].n
        if any(v.n != n for v in vectors):
            raise DimensionError("mixed vector lengths")
        if ambient_n is not None and ambient_n != n:
            raise DimensionError("ambient_n disagrees with vector length")
    else:
        if ambient_n is None:
            raise DimensionError("empty input needs an explicit ambient_n")
        n = ambient_n
    return _trusted(n, _rref(v.value for v in vectors))


def member(space: Subspace, v: F2Vector) -> bool:
    """Decide v in space by reducing against the canonical basis."""
    if v.n != space.ambient_n:
        raise DimensionError("vector length != ambient")
    x = v.value
    for r in space.rows:
        if x >> (r.bit_length() - 1) & 1:
            x ^= r
    return x == 0


def dual(space: Subspace) -> Subspace:
    """The orthogonal complement {b : a.b = 0 for all a in space}.

    Computed once per Subspace value and memoised on it.
    """
    return space._dual


def member_or_dual(space: Subspace, v: F2Vector, p: int) -> int:
    """Membership bit for the space (p=0) or its dual (p=1).

    v is in the dual exactly when it is orthogonal to every basis row, so
    the dual test needs no dual basis.
    """
    if p not in (0, 1):
        raise ValueError(f"selector must be 0 or 1, got {p!r}")
    if p == 0:
        return 1 if member(space, v) else 0
    if v.n != space.ambient_n:
        raise DimensionError("vector length != ambient")
    x = v.value
    for r in space.rows:
        if (x & r).bit_count() & 1:
            return 0
    return 1


def sample_subspace(n: int, rng: Random) -> Subspace:
    """Uniform dimension-n/2 subspace of F2^n via rejection sampling."""
    if n < 2 or n % 2:
        raise DimensionError(f"ambient must be even and >= 2, got {n}")
    k = n // 2
    while True:
        rows = _rref(rng.getrandbits(n) for _ in range(k))
        if len(rows) == k:
            return _trusted(n, rows)


def sample_element(space: Subspace, rng: Random) -> F2Vector:
    """Uniform point of the subspace (the zero vector included)."""
    acc = 0
    mask = rng.getrandbits(space.dim) if space.dim else 0
    for row in space.rows:
        if mask & 1:
            acc ^= row
        mask >>= 1
    return F2Vector(space.ambient_n, acc)


def sample_nonzero_element(space: Subspace, rng: Random) -> F2Vector:
    if space.dim == 0:
        raise ValueError("zero subspace has no nonzero points")
    while True:
        v = sample_element(space, rng)
        if not v.is_zero():
            return v


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b), computed as dim a + dim b − dim(a + b)."""
    if a.ambient_n != b.ambient_n:
        raise DimensionError("ambient mismatch")
    joint = _rank(itertools.chain(a.rows, b.rows))
    return a.dim + b.dim - joint


def sample_related(space: Subspace, rng: Random) -> Subspace:
    """Uniform half-dimension subspace meeting ``space`` in dimension n/2 − 1.

    Picks a uniformly random ordered basis of the input, drops the last
    vector, and adjoins a uniform vector from outside the input space.
    """
    n = space.ambient_n
    k = space.dim
    if k != n // 2 or n % 2:
        raise DimensionError("expected a half-dimension subspace of even ambient")
    while True:  # a uniform invertible k×k mixing matrix, by rejection
        mix = [rng.getrandbits(k) for _ in range(k)]
        if _rank(mix) == k:
            break
    rows = space.rows
    kept = []
    for row_i in mix[: k - 1]:
        acc = 0
        for j in range(k):
            if (row_i >> (k - 1 - j)) & 1:
                acc ^= rows[j]
        kept.append(acc)
    while True:
        v = F2Vector(n, rng.getrandbits(n))
        if not member(space, v):
            break
    kept.append(v.value)
    return _trusted(n, _rref(kept))


def enumerate_subspaces(n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F2^n, via canonical echelon forms.

    Exhaustive; intended for small n (the count is the Gaussian binomial).
    """
    if k == 0:
        yield canonicalize([], ambient_n=n)
        return
    if k > n:
        return
    for pivot_cols in itertools.combinations(range(n), k):
        # free cells: columns right of the row's pivot that are not pivots
        free_cells = [
            [c for c in range(pivot_cols[i] + 1, n) if c not in pivot_cols]
            for i in range(k)
        ]
        total_free = sum(len(cells) for cells in free_cells)
        for assign in range(1 << total_free):
            rows = []
            pos = 0
            for i in range(k):
                row = 1 << (n - 1 - pivot_cols[i])
                for c in free_cells[i]:
                    if (assign >> pos) & 1:
                        row |= 1 << (n - 1 - c)
                    pos += 1
                rows.append(row)
            yield _trusted(n, rows)
