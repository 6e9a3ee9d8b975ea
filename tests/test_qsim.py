"""Unit tests for the coset model, and for the dense model the tests check
it against."""

import math
from random import Random

import numpy as np
import pytest
from dense import (
    DENSE_MAX_N,
    DenseState,
    dense_hadamard_all,
    dense_measure,
    dense_project,
    dense_project_two_step,
    hadamard_matrix,
    subspace_projector,
    to_dense,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsl.f2lin import DimensionError, F2Vector, Subspace, dual, member, sample_subspace
from qtsl.qsim import (
    CosetState,
    UnsupportedStateError,
    basis_state,
    hadamard_all,
    measure_standard,
    phase_state,
    prepare_subspace_state,
    project_subspace,
    projection_accept_probability,
    subspace_state,
    unsupported_state,
)


def half_space(n, seed):
    return sample_subspace(n, Random(seed))


# ---------------------------------------------------------------------------
# coset model
# ---------------------------------------------------------------------------


def test_hadamard_swaps_space_and_dual():
    a = half_space(6, 1)
    st0 = subspace_state(a)
    st1 = hadamard_all(st0)
    assert st1.kind == "subspace" and st1.space == dual(a)
    assert hadamard_all(st1).space == a


def test_hadamard_swaps_basis_and_phase():
    v = F2Vector.from_string("1010")
    assert hadamard_all(basis_state(v)).kind == "phase"
    assert hadamard_all(phase_state(v)).kind == "basis"
    assert hadamard_all(hadamard_all(basis_state(v))) == basis_state(v)


def test_hadamard_unsupported_raises():
    with pytest.raises(UnsupportedStateError):
        hadamard_all(unsupported_state(4))


def test_measure_subspace_lands_inside():
    rng = Random(2)
    a = half_space(8, 3)
    for _ in range(100):
        v, post = measure_standard(subspace_state(a), rng)
        assert member(a, v)
        assert post.kind == "basis" and post.vector == v


def test_measure_basis_is_deterministic():
    v = F2Vector.from_string("0110")
    out, post = measure_standard(basis_state(v), Random(0))
    assert out == v and post.vector == v


def test_measure_phase_is_uniformish():
    rng = Random(4)
    v = F2Vector.from_string("01")
    seen = {measure_standard(phase_state(v), rng)[0].value for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_prepare_requires_half_dimension():
    rng = Random(5)
    a = sample_subspace(6, rng)
    assert prepare_subspace_state(a).kind == "subspace"
    lopsided = Subspace(4, (F2Vector.from_string("1000"),))
    with pytest.raises(Exception):
        prepare_subspace_state(lopsided)


def test_project_own_space_always_accepts():
    rng = Random(6)
    a = half_space(8, 7)
    ok, post = project_subspace(subspace_state(a), a, rng)
    assert ok and post.space == a


def test_project_reject_leaves_unsupported():
    rng = Random(8)
    a = half_space(4, 9)
    v = next(x for x in range(16) if not member(a, F2Vector(4, x)))
    outcomes = set()
    for _ in range(50):
        ok, post = project_subspace(basis_state(F2Vector(4, v)), a, rng)
        outcomes.add(ok)
        assert not ok and post.is_unsupported()
    assert outcomes == {False}  # not in the space: accept probability is 0


def _project_subspace_reference(state, space, rng):
    """The projection as it was before the identity fast path: the
    reference the fast path must match draw for draw."""
    if space.ambient_n % 2 or space.dim != space.ambient_n // 2:
        raise DimensionError("projection target must be half-dimension")
    p = projection_accept_probability(state, space)
    if p >= 1.0 or (p > 0.0 and rng.random() < p):
        return True, subspace_state(space)
    return False, unsupported_state(state.ambient_n)


def test_project_onto_own_space_is_the_identity():
    a = half_space(8, 11)
    state = subspace_state(a)
    rng = Random(12)
    before = rng.getstate()
    for target in (a, Subspace.from_rows(8, a.rows)):  # the same space, or an equal copy
        ok, post = project_subspace(state, target, rng)
        assert ok and post is state
    assert rng.getstate() == before


def test_project_checks_half_dimension_before_the_identity():
    lopsided = Subspace(4, (F2Vector.from_string("1000"),))
    with pytest.raises(DimensionError):
        project_subspace(subspace_state(lopsided), lopsided, Random(0))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 4, 6, 8]),
    st.sampled_from(["own", "equal", "subspace", "lopsided", "basis", "phase", "unsupported"]),
    st.integers(0, 2**32),
)
def test_project_matches_reference(n, kind, seed):
    """Verdict, post-state and the rng state after the call all match the
    reference, for every kind of state against a random half-dimension
    target."""
    rng = Random(seed)
    target = sample_subspace(n, rng)
    if kind == "own":
        state = subspace_state(target)
    elif kind == "equal":
        state = subspace_state(Subspace.from_rows(n, target.rows))
    elif kind == "subspace":
        state = subspace_state(sample_subspace(n, rng))
    elif kind == "lopsided":  # a subspace state off half dimension
        state = subspace_state(Subspace.from_rows(n, [1 << (n - 1)]))
    elif kind == "basis":
        state = basis_state(F2Vector(n, rng.getrandbits(n)))
    elif kind == "phase":
        state = phase_state(F2Vector(n, rng.getrandbits(n)))
    else:
        state = unsupported_state(n)
    fast, ref = Random(seed + 1), Random(seed + 1)
    assert project_subspace(state, target, fast) == _project_subspace_reference(state, target, ref)
    assert fast.getstate() == ref.getstate()


def test_coset_state_is_an_immutable_value():
    v = F2Vector.from_string("0110")
    state = basis_state(v)
    with pytest.raises(AttributeError):
        state.kind = "phase"
    with pytest.raises(AttributeError):
        state.vector = F2Vector.from_string("1111")
    assert state == CosetState(4, "basis", vector=F2Vector.from_string("0110"))
    assert hash(state) == hash(CosetState(4, "basis", vector=F2Vector(4, 6)))
    assert state != phase_state(v)
    assert state != basis_state(F2Vector.from_string("0111"))
    assert len({state, basis_state(F2Vector(4, 6)), phase_state(v), unsupported_state(4)}) == 3
    assert repr(state) == "CosetState(basis 0110, n=4)"
    assert repr(subspace_state(half_space(8, 3))) == "CosetState(subspace dim=4, n=8)"


# ---------------------------------------------------------------------------
# acceptance probabilities against the dense inner product
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([4, 6, 8]))
def test_accept_probability_matches_dense_overlap(seed, n):
    rng = Random(seed)
    a = sample_subspace(n, rng)
    b = sample_subspace(n, rng)
    which = rng.randrange(3)
    if which == 0:
        state = subspace_state(b)
    elif which == 1:
        state = basis_state(F2Vector(n, rng.getrandbits(n)))
    else:
        state = phase_state(F2Vector(n, rng.getrandbits(n)))
    p = projection_accept_probability(state, a)
    target = to_dense(subspace_state(a)).amplitudes
    dense_p = abs(np.vdot(target, to_dense(state).amplitudes)) ** 2
    assert abs(p - dense_p) < 1e-10


def test_accept_probability_closed_forms():
    a = half_space(8, 10)
    assert projection_accept_probability(subspace_state(a), a) == 1.0
    v_in = next(iter(a.elements()))
    assert projection_accept_probability(basis_state(v_in), a) == 2.0 ** -4
    d = dual(a)
    w = next(x for x in d.elements() if not x.is_zero())
    assert projection_accept_probability(phase_state(w), a) == 2.0 ** -4


# ---------------------------------------------------------------------------
# dense model
# ---------------------------------------------------------------------------


def test_to_dense_subspace_amplitudes():
    a = half_space(4, 11)
    amps = to_dense(subspace_state(a)).amplitudes
    inside = {v.value for v in a.elements()}
    for idx in range(16):
        want = 0.5 if idx in inside else 0.0
        assert abs(amps[idx] - want) < 1e-12


def test_dense_hadamard_matches_matrix():
    n = 4
    h = hadamard_matrix(n)
    assert np.allclose(h @ h, np.eye(1 << n), atol=1e-12)
    a = half_space(n, 12)
    s = to_dense(subspace_state(a))
    fast = dense_hadamard_all(s).amplitudes
    slow = h @ s.amplitudes
    assert np.allclose(fast, slow, atol=1e-12)


def test_dense_measure_respects_support():
    rng = Random(13)
    a = half_space(6, 14)
    s = to_dense(subspace_state(a))
    for _ in range(50):
        v, post = dense_measure(s, rng)
        assert member(a, v)
        assert abs(post.amplitudes[v.value] - 1.0) < 1e-12


def test_dense_state_norm_validation():
    with pytest.raises(ValueError):
        DenseState(2, np.array([1.0, 1.0, 0.0, 0.0], dtype=np.complex128))
    with pytest.raises(Exception):
        DenseState(DENSE_MAX_N + 2, np.zeros(1 << (DENSE_MAX_N + 2), dtype=np.complex128))


def test_unsupported_has_no_dense_form():
    with pytest.raises(UnsupportedStateError):
        to_dense(unsupported_state(4))


def test_subspace_projector_is_diagonal_idempotent():
    a = half_space(4, 15)
    p = subspace_projector(4, a)
    assert np.allclose(p @ p, p)
    assert np.trace(p) == len(a)


def test_dense_project_agrees_with_two_step_rates():
    """One-shot overlap projection and the pointwise-then-rotated two-step
    realization must accept with the same frequency and leave the same state."""
    rng1, rng2 = Random(16), Random(16)
    n = 4
    a = half_space(n, 17)
    b = half_space(n, 18)
    acc1 = acc2 = 0
    trials = 4000
    for _ in range(trials):
        s = to_dense(subspace_state(b))
        ok1, post1 = dense_project(s, a, rng1)
        ok2, post2 = dense_project_two_step(to_dense(subspace_state(b)), a, rng2)
        acc1 += ok1
        acc2 += ok2
        if ok1:
            assert np.allclose(post1.amplitudes, to_dense(subspace_state(a)).amplitudes)
        if ok2:
            assert np.allclose(np.abs(post2.amplitudes), np.abs(to_dense(subspace_state(a)).amplitudes), atol=1e-9)
    p = projection_accept_probability(subspace_state(b), a)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(acc1 / trials - p) < 4 * sigma + 1e-9
    assert abs(acc2 / trials - p) < 4 * sigma + 1e-9


# ---------------------------------------------------------------------------
# the two defining identities, small versions (the acceptance suite sweeps)
# ---------------------------------------------------------------------------


def test_hadamard_takes_token_state_to_dual_state():
    for seed in range(5):
        a = half_space(6, 100 + seed)
        lhs = dense_hadamard_all(to_dense(subspace_state(a))).amplitudes
        rhs = to_dense(subspace_state(dual(a))).amplitudes
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_two_projector_sandwich_is_rank_one():
    n = 4
    for seed in range(3):
        a = half_space(n, 200 + seed)
        h = hadamard_matrix(n)
        pa = subspace_projector(n, a)
        pd = subspace_projector(n, dual(a))
        sandwich = h @ pd @ h @ pa
        psi = to_dense(subspace_state(a)).amplitudes.real
        assert np.max(np.abs(sandwich - np.outer(psi, psi))) < 1e-10
