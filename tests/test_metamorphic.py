"""Metamorphic oracles: the dual and the conjugates of a representation.

Neither oracle rests on Sym^m structure.  The dual rho*(g) = (g^-1)^T has
gap_k(rho*(w)) = gap_{d-k}(rho(w)) for every word, so `certify` at k on the
dual must give the verdict it gives at d - k on rho.  A conjugate P rho P^-1
moves every singular value by a factor between 1/cond(P) and cond(P), so
every log gap moves by at most 2 log cond(P).

Conjugation keeps the Schottky verdict, but not every finite-radius verdict:
at cond(P) = 10 (seed 0) tau2-schottky k = 1 and 3 at R = 6 go from Refuted
to Inconclusive, and the genus-2 surface group at R = 5 goes from Certified
to Inconclusive.  Those cases are left out here.
"""

import math

import numpy as np
import pytest

from anosov import (
    Representation,
    ScaledMatrix,
    SchottkyParams,
    certify_anosov,
    fuchsian_surface_rep,
    gap_profiles,
    realify_rep,
    schottky_rep,
)

# (construction, radius, k values)
CASES = {
    "schottky": (lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), 8, [1]),
    "tau2-schottky": (
        lambda: realify_rep(schottky_rep(
            SchottkyParams(rank=2, dilation=3.0, field="complex", twists=(0.3, 0.7))
        )),
        6,
        [1, 2, 3],
    ),
    "fuchsian-surface": (lambda: fuchsian_surface_rep(2), 5, [1]),
}


def dual(rep: Representation) -> Representation:
    return Representation.from_generators(
        rep.presentation,
        [ScaledMatrix.from_array(g.entries.T, g.log_scale) for g in rep.inverse_images],
    )


def conjugator(d: int, cond: float, seed: int) -> np.ndarray:
    """Seeded P = U diag(geomspace(1, 1/cond)) V^T with random orthogonal U, V."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, d)) @ v.T


def conjugate(rep: Representation, p: np.ndarray) -> Representation:
    p_inv = np.linalg.inv(p)
    return Representation.from_generators(
        rep.presentation,
        [ScaledMatrix.from_array(p @ g.entries @ p_inv, g.log_scale) for g in rep.images],
    )


@pytest.mark.parametrize("case", list(CASES))
def test_dual_swaps_k_and_d_minus_k(case):
    build, radius, ks = CASES[case]
    rep = build()
    profiles = gap_profiles(rep, ks, radius)
    duals = {p.k: p for p in gap_profiles(dual(rep), [rep.dim - k for k in ks], radius)}
    for p in profiles:
        q = duals[rep.dim - p.k]
        assert q.words == p.words
        # float-level agreement: at most 8.1e-9 apart on these balls
        np.testing.assert_allclose(q.log_gap, p.log_gap, rtol=0, atol=1e-7)
        assert certify_anosov(q).verdict == certify_anosov(p).verdict


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", [1e1, 1e2])
@pytest.mark.parametrize("case", list(CASES))
def test_conjugation_moves_each_gap_within_the_bound(case, cond, seed):
    build, radius, ks = CASES[case]
    rep = build()
    p = conjugator(rep.dim, cond, seed)
    bound = 2.0 * math.log(np.linalg.cond(p))
    for before, after in zip(gap_profiles(rep, ks, radius),
                             gap_profiles(conjugate(rep, p), ks, radius)):
        assert after.words == before.words
        # the largest move measured is 0.99999 of the bound (genus 2, seed 1)
        assert np.max(np.abs(after.log_gap - before.log_gap)) <= bound * (1 + 1e-9)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", [1e1, 1e2])
def test_conjugated_schottky_stays_certified(cond, seed):
    build, radius, ks = CASES["schottky"]
    rep = conjugate(build(), conjugator(2, cond, seed))
    (profile,) = gap_profiles(rep, ks, radius)
    assert certify_anosov(profile).verdict == "Certified"
