"""Scripted-sequence harness: coset-tracked simulator vs dense statevector.

Each scripted class is a fixed list of six operations drawn from
{H = hadamard all coordinates, M = measure all coordinates,
 PA/PB/PC = binary projection onto the superposition over a fixed space}.
The spaces are pinned per (class, ambient dimension): A is a random
half-dimension space, B shares a (n/2 - 1)-dimensional intersection with A,
and C is sampled independently of both.

A run produces a *record*: the sequence of measurement outcomes and
projection verdicts, truncated at the first projection reject (the rejected
residual leaves the coset-tracked family, so nothing after it is comparable).
At n = 4 records keep the raw outcome strings; at n >= 6 outcomes are
coarsened to a membership profile (in A / in A-perp / in B / is zero) so the
record space stays small enough for a 1e5-sample total-variation estimate.

Three distributions over records are computed per class:
  * exact, walking the coset simulator over every branch;
  * exact, walking the dense simulator over every branch;
  * empirical, sampling the coset simulator with a seeded generator.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from random import Random

import numpy as np
from dense import DenseState, _fwht, _subspace_amplitudes, to_dense

from qtsl.f2lin import F2Vector, Subspace, dual, member, sample_related, sample_subspace
from qtsl.games import derive_rng
from qtsl.qsim import (
    CosetState,
    hadamard_all,
    measure_standard,
    project_subspace,
    projection_accept_probability,
    subspace_state,
)

_PRUNE = 1e-12

SEQUENCE_CLASSES: dict[str, list[str]] = {
    "project-own-repeat": ["PA", "PA", "PA", "PA", "PA", "M"],
    "measure-roundtrip-reproject": ["PA", "M", "H", "H", "M", "PA"],
    "dual-then-reproject": ["H", "PA", "M", "H", "H", "M"],
    "related-roundtrip": ["PB", "M", "H", "H", "M", "PB"],
    "alternating-projections": ["PB", "PA", "PB", "PA", "PB", "M"],
    "phase-reprojection": ["M", "H", "PA", "PA", "H", "M"],
    "independent-roundtrip": ["PC", "M", "H", "H", "M", "PC"],
    "double-hadamard-branch": ["H", "H", "M", "PA", "H", "M"],
}


def class_spaces(name: str, n: int, seed: int) -> dict[str, Subspace]:
    """Pinned spaces for one (class, n) combination."""
    rng = derive_rng(seed, f"seq-spaces-{name}", n)
    a = sample_subspace(n, rng)
    b = sample_related(a, rng)
    c = sample_subspace(n, rng)
    return {"A": a, "B": b, "C": c}


class RecordCoder:
    """Maps raw outcomes to record cells, full at n=4 and coarse above."""

    def __init__(self, spaces: dict[str, Subspace], n: int) -> None:
        self.full = n <= 4
        self.a = spaces["A"]
        self.a_perp = dual(spaces["A"])
        self.b = spaces["B"]

    def outcome_cell(self, v: F2Vector) -> tuple:
        if self.full:
            return ("m", str(v))
        return (
            "m",
            member(self.a, v),
            member(self.a_perp, v),
            member(self.b, v),
            v.is_zero(),
        )


def _exact_coset(
    ops: list[str], spaces: dict[str, Subspace], coder: RecordCoder
) -> dict[tuple, float]:
    """Distribution over records from branch-enumerating the coset model."""
    dist: dict[tuple, float] = defaultdict(float)
    branches: list[tuple[float, CosetState, tuple]] = [
        (1.0, subspace_state(spaces["A"]), ())
    ]
    for op in ops:
        nxt: list[tuple[float, CosetState, tuple]] = []
        for prob, state, rec in branches:
            if op == "H":
                nxt.append((prob, hadamard_all(state), rec))
            elif op == "M":
                if state.kind == "subspace":
                    per = prob / len(state.space)
                    for el in state.space.elements():
                        nxt.append(
                            (per, CosetState(state.ambient_n, "basis", vector=el),
                             rec + (coder.outcome_cell(el),))
                        )
                elif state.kind == "basis":
                    nxt.append((prob, state, rec + (coder.outcome_cell(state.vector),)))
                else:  # phase: uniform over the whole ambient space
                    n = state.ambient_n
                    per = prob / (1 << n)
                    for val in range(1 << n):
                        v = F2Vector(n, val)
                        nxt.append(
                            (per, CosetState(n, "basis", vector=v),
                             rec + (coder.outcome_cell(v),))
                        )
            else:
                target = spaces[op[1]]
                p = projection_accept_probability(state, target)
                if p > _PRUNE:
                    nxt.append((prob * p, subspace_state(target), rec + ("acc",)))
                if 1.0 - p > _PRUNE:
                    dist[rec + ("rej",)] += prob * (1.0 - p)
        branches = nxt
    for prob, _, rec in branches:
        dist[rec] += prob
    return dict(dist)


def _dense_measure_branches(state: DenseState) -> list[tuple[float, DenseState]]:
    probs = np.abs(state.amplitudes) ** 2
    out = []
    for idx in np.nonzero(probs > _PRUNE)[0]:
        post = np.zeros_like(state.amplitudes)
        post[idx] = 1.0
        out.append((float(probs[idx]), int(idx), DenseState(state.n, post)))
    return out


def _exact_dense(
    ops: list[str], spaces: dict[str, Subspace], coder: RecordCoder
) -> dict[tuple, float]:
    """Same walk with full 2^n statevectors as ground truth."""
    a0 = to_dense(subspace_state(spaces["A"]))
    dist: dict[tuple, float] = defaultdict(float)
    branches: list[tuple[float, DenseState, tuple]] = [(1.0, a0, ())]
    for op in ops:
        nxt: list[tuple[float, DenseState, tuple]] = []
        for prob, state, rec in branches:
            if op == "H":
                amps = _fwht(state.amplitudes) / np.sqrt(1 << state.n)
                nxt.append((prob, DenseState(state.n, amps), rec))
            elif op == "M":
                for p, idx, post in _dense_measure_branches(state):
                    cell = coder.outcome_cell(F2Vector(state.n, idx))
                    nxt.append((prob * p, post, rec + (cell,)))
            else:
                target = _subspace_amplitudes(state.n, spaces[op[1]])
                overlap = np.vdot(target, state.amplitudes)
                p = float(abs(overlap) ** 2)
                if p > _PRUNE:
                    nxt.append(
                        (prob * p, DenseState(state.n, target), rec + ("acc",))
                    )
                if 1.0 - p > _PRUNE:
                    dist[rec + ("rej",)] += prob * (1.0 - p)
        branches = nxt
    for prob, _, rec in branches:
        dist[rec] += prob
    return dict(dist)


def _sample_coset(
    ops: list[str],
    spaces: dict[str, Subspace],
    coder: RecordCoder,
    trials: int,
    rng: Random,
) -> dict[tuple, float]:
    counts: Counter = Counter()
    a = spaces["A"]
    for _ in range(trials):
        state = subspace_state(a)
        rec: list = []
        for op in ops:
            if op == "H":
                state = hadamard_all(state)
            elif op == "M":
                v, state = measure_standard(state, rng)
                rec.append(coder.outcome_cell(v))
            else:
                ok, state = project_subspace(state, spaces[op[1]], rng)
                rec.append("acc" if ok else "rej")
                if not ok:
                    break
        counts[tuple(rec)] += 1
    return {rec: c / trials for rec, c in counts.items()}


def total_variation(p: dict[tuple, float], q: dict[tuple, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def run_class(name: str, n: int, trials: int, seed: int) -> dict:
    """Compare all three distributions for one scripted class at one n."""
    ops = SEQUENCE_CLASSES[name]
    spaces = class_spaces(name, n, seed)
    coder = RecordCoder(spaces, n)
    exact_coset = _exact_coset(ops, spaces, coder)
    exact_dense = _exact_dense(ops, spaces, coder)
    sampled = _sample_coset(ops, spaces, coder, trials, derive_rng(seed, f"seq-run-{name}", n))
    return {
        "class": name,
        "n": n,
        "trials": trials,
        "cells": len(set(exact_dense) | set(sampled)),
        "tv_exact": total_variation(exact_coset, exact_dense),
        "tv_sampled": total_variation(sampled, exact_dense),
        "mass_coset": sum(exact_coset.values()),
        "mass_dense": sum(exact_dense.values()),
    }
