"""Metamorphic oracles: the dual and the conjugates of a representation.

Neither oracle rests on Sym^m structure.  The dual rho*(g) = (g^-1)^T has
gap_k(rho*(w)) = gap_{d-k}(rho(w)) for every word, so `certify` at k on the
dual must give the verdict it gives at d - k on rho.  A conjugate P rho P^-1
moves every singular value by a factor between 1/cond(P) and cond(P), so
every log gap moves by at most 2 log cond(P).

Word by word, the dual's gaps and log_total agree to 1e-12 relative on the
Schottky and tau2-schottky balls through R = 4 (2.2e-13 at most).  The
tau2-schottky gaps at k = 1 and 3 are 0 in exact arithmetic, so they are
held to 1e-11 absolute instead (1.45e-12 at most).  Genus 2 reaches 2.9e-12
relative there and is not held to that bound.

The limit planes of a conjugate are P times those of rho, and the
transversality and span audit of `limit-set` must not see the difference at
moderate cond(P).  At cond(P) = 1e4 the audit changes: Schottky (k = 1,
R = 5) gets 2 and 6 transversality failures at seeds 0 and 1, tau2-schottky
(k = 2, R = 5) 0 and 4.  The exactly transported planes P xi fail the same
pairs, so the cause is the audit's 1e8 condition rule, which an
ill-conditioned P moves, not the computed planes.  The genus-2 conjugate
fails its relator check there.

The positivity scan reads eigenvalues, which are conjugation invariants:
its columns must agree across the rotations, conjugates and powers of a
word, between a word at k and its inverse at d - k, and between the scan
of rho* at k and that of rho at d - k.

Conjugation keeps the Schottky verdict, but not every finite-radius verdict:
at cond(P) = 10 (seed 0) tau2-schottky k = 1 and 3 at R = 6 go from Refuted
to Inconclusive, and the genus-2 surface group at R = 5 goes from Certified
to Inconclusive.  Those cases are left out here.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from anosov import (
    Representation,
    ScaledMatrix,
    SchottkyParams,
    audit_limit_samples,
    certify_anosov,
    enumerate_ball,
    fuchsian_surface_rep,
    gap_profiles,
    limit_map_sample,
    orthonormalize,
    realify_rep,
    scan_positivities,
    schottky_rep,
    sym_power_rep,
)
from conftest import subspace_angle
from word_oracle import conjugacy_key, cyclic_reduce

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


#: case -> the k whose gaps are 0 in exact arithmetic, compared absolutely
EXACT_ZERO_GAPS = {"schottky": set(), "tau2-schottky": {1, 3}}


@pytest.mark.parametrize("case", list(EXACT_ZERO_GAPS))
def test_dual_gaps_agree_word_by_word(case):
    # every word of the ball through R = 4: gap_k(rho*(w)) = gap_{d-k}(rho(w))
    # and the same log_total, 2.2e-13 relative at most; the gaps that are 0
    # in exact arithmetic agree to 1.45e-12 absolute; genus 2 is left out
    # (see the module docstring)
    build, _, _ = CASES[case]
    rep = build()
    d = rep.dim
    profiles = {p.k: p for p in gap_profiles(rep, range(1, d), 4)}
    for q in gap_profiles(dual(rep), range(1, d), 4):
        p = profiles[d - q.k]
        assert q.words == p.words
        if q.k in EXACT_ZERO_GAPS[case]:
            np.testing.assert_allclose(q.log_gap, p.log_gap, rtol=0.0, atol=1e-11)
        else:
            np.testing.assert_allclose(q.log_gap, p.log_gap, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(q.log_total, p.log_total, rtol=1e-12, atol=0.0)


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


#: the planes of a limit sample's report
PLANES = ("attracting_plane", "repelling_plane", "inverse_attracting_plane",
          "inverse_repelling_plane")

# (construction, k, radius) of the limit-set audits
LIMIT_CASES = {
    "schottky": (CASES["schottky"][0], 1, 5),
    "tau2-schottky": (CASES["tau2-schottky"][0], 2, 5),
    "fuchsian-surface": (CASES["fuchsian-surface"][0], 1, 4),
}


@functools.cache
def limit_samples(case):
    build, k, radius = LIMIT_CASES[case]
    samples = limit_map_sample(build(), k, radius)
    return samples, audit_limit_samples(samples)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", [1e1, 1e2])
@pytest.mark.parametrize("case", list(LIMIT_CASES))
def test_conjugated_limit_set_audit_is_unchanged(case, cond, seed):
    # every count, the failure list and the span rank; at cond(P) = 1e4
    # the audit does change (see the module docstring)
    build, k, radius = LIMIT_CASES[case]
    rep = build()
    p = conjugator(rep.dim, cond, seed)
    samples, audit = limit_samples(case)
    conjugated = limit_map_sample(conjugate(rep, p), k, radius)
    assert audit_limit_samples(conjugated) == audit
    # every plane is P times rho's: 5.5e-13 in sine at most over these cases
    assert [s.word for s in conjugated] == [s.word for s in samples]
    for after, before in zip(conjugated, samples):
        for name in PLANES:
            plane, base = getattr(after.report, name), getattr(before.report, name)
            assert (plane is None) == (base is None), (after.word, name)
            if plane is not None:
                assert subspace_angle(plane, orthonormalize(p @ base)) < 1e-10, (after.word, name)


#: case -> transversality failures of the conjugated audit at cond(P) = 1e4,
#: seeds 0 and 1 (none unconjugated)
TRANSPORTED_FAILURES = {"schottky": (2, 6), "tau2-schottky": (0, 4)}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", list(TRANSPORTED_FAILURES))
def test_conjugated_audit_is_that_of_the_transported_planes(case, seed):
    # at cond(P) = 1e4 the audit of the conjugate changes, and P times rho's
    # planes, orthonormalized, fail exactly the same pairs
    build, k, radius = LIMIT_CASES[case]
    rep = build()
    p = conjugator(rep.dim, 1e4, seed)
    samples, _ = limit_samples(case)
    transported = [
        replace(s, report=replace(s.report, **{n: orthonormalize(p @ getattr(s.report, n))
                                               for n in PLANES if getattr(s.report, n) is not None}))
        for s in samples
    ]
    audit = audit_limit_samples(limit_map_sample(conjugate(rep, p), k, radius))
    assert audit == audit_limit_samples(transported)
    assert len(audit.transversality_failures) == TRANSPORTED_FAILURES[case][seed]


# (construction, radius, k values) of the positivity scans
SCAN_CASES = {
    "schottky": (CASES["schottky"][0], 5, [1]),
    "tau2-schottky": (CASES["tau2-schottky"][0], 5, [1, 2, 3]),
    "sym5-schottky": (lambda: sym_power_rep(CASES["schottky"][0](), 5), 5, [1, 2, 3, 4, 5]),
}


def word_class(letters):
    """(conjugacy key of the primitive root, power, inverted) of a word's
    cyclic reduction, from the per-word oracle; the identity is ((), 0, False)."""
    c = cyclic_reduce(letters)
    if not c:
        return (), 0, False
    period = next(s for s in range(1, len(c) + 1) if c == c[s:] + c[:s])
    root = c[:period]
    key = conjugacy_key(root)
    return key, len(c) // period, key not in {root[s:] + root[:s] for s in range(period)}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_scan_columns_are_class_invariants(case):
    # eigenvalues are conjugation invariants: every rotation and conjugate
    # v c v^-1 of a word reads the same columns, a power u^p reads p times
    # the gap of u and the p-th power of its sign, and the inverse at k
    # reads the gap at d - k
    build, radius, ks = SCAN_CASES[case]
    rep = build()
    d = rep.dim
    reports = {r.k: r for r in scan_positivities(rep, ks, radius)}
    ball = enumerate_ball(rep.presentation, radius)
    classes = [word_class(w.letters) for w in ball.words()]
    row_of = {w: i for i, w in enumerate(reports[ks[0]].words)}
    first = {}
    for i, c in enumerate(classes):
        first.setdefault(c, i)
    for report in reports.values():
        assert report.n_unresolved == 0
        for i, (key, power, inverted) in enumerate(classes):
            j = first[key, power, inverted]
            assert (report.proximal[i], report.ell1_sign[i], report.semiproximal_positive[i]) == (
                report.proximal[j], report.ell1_sign[j], report.semiproximal_positive[j])
            assert report.log_gap[i] == pytest.approx(report.log_gap[j], rel=1e-12, abs=1e-12)
            if power > 1:
                u = first[key, 1, inverted]
                assert report.log_gap[i] == pytest.approx(power * report.log_gap[u], rel=1e-12)
                assert report.proximal[i] == report.proximal[u]
                assert report.ell1_sign[i] == report.ell1_sign[u] ** power
        if d - report.k in reports:
            dual = reports[d - report.k]
            for i, w in enumerate(ball.words()):
                j = row_of[str(w.inverse())]
                assert dual.log_gap[j] == pytest.approx(report.log_gap[i], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", [1e1, 1e2])
def test_conjugated_sym5_scan_keeps_every_column(cond, seed):
    # eigenvalues are read, not singular values, so conjugation moves no flag
    # or verdict; the gaps agree to 3.9e-9 relative (cond 1e2, seed 1)
    rep = SCAN_CASES["sym5-schottky"][0]()
    before = scan_positivities(rep, [1, 2, 3], 6)
    after = scan_positivities(conjugate(rep, conjugator(6, cond, seed)), [1, 2, 3], 6)
    for p, q in zip(before, after):
        for column in ("proximal", "ell1_sign", "semiproximal_positive", "unresolved"):
            assert np.array_equal(getattr(q, column), getattr(p, column)), column
        assert (q.verdict, q.witness, q.n_proximal, q.n_negative) == (
            p.verdict, p.witness, p.n_proximal, p.n_negative)
        np.testing.assert_allclose(q.log_gap, p.log_gap, rtol=1e-8, atol=0.0)


# (construction, radius, k values on the dual) of the scan duality checks
DUAL_SCAN_CASES = {
    "schottky": (CASES["schottky"][0], 5, [1]),
    "tau2-schottky": (CASES["tau2-schottky"][0], 5, [1, 2, 3]),
    "sym5-schottky": (SCAN_CASES["sym5-schottky"][0], 6, [1, 2, 3, 4, 5]),
}


@pytest.mark.parametrize("case", list(DUAL_SCAN_CASES))
def test_dual_scan_at_k_is_the_scan_at_d_minus_k(case):
    # rho*(w) has the inverse moduli of rho(w), so its gap at k is rho's at
    # d - k, and (det > 0) its top-k sign product rho's top-(d-k) one; the
    # gaps agree to 6.6e-12 relative at most (Sym^5, R = 6)
    build, radius, ks = DUAL_SCAN_CASES[case]
    rep = build()
    d = rep.dim
    reports = {r.k: r for r in scan_positivities(rep, [d - k for k in ks], radius)}
    for q in scan_positivities(dual(rep), ks, radius):
        p = reports[d - q.k]
        assert q.words == p.words
        for column in ("proximal", "ell1_sign", "semiproximal_positive", "unresolved"):
            assert np.array_equal(getattr(q, column), getattr(p, column)), column
        for name in ("verdict", "witness", "witness_recheck", "n_proximal", "n_negative",
                     "n_unresolved", "semiproximal_failures"):
            assert getattr(q, name) == getattr(p, name), name
        np.testing.assert_allclose(q.log_gap, p.log_gap, rtol=1e-10, atol=0.0)
