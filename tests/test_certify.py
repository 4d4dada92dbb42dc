import functools
import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anosov import (
    DegreeMismatch,
    DimensionMismatch,
    GapProfile,
    InsufficientRadius,
    LimitSample,
    NoProximalElements,
    NotBiproximal,
    Presentation,
    Representation,
    ScaledBatch,
    ScaledMatrix,
    SchottkyParams,
    SingularInput,
    TransversalityFailure,
    audit_limit_samples,
    certify_anosov,
    compound_matrix,
    compound_rep,
    direct_sum,
    enumerate_ball,
    evaluate,
    fuchsian_surface_rep,
    gap_profile,
    gap_profiles,
    limit_map_sample,
    log_singular_values,
    orthonormalize,
    parse_word,
    perturb_path,
    pingpong_power,
    pingpong_subgroup,
    proximality_report,
    realify_rep,
    reduce_word,
    rotation_about_i,
    scan_positivities,
    scan_positivity,
    schottky_rep,
    singular_values,
    spectrum,
    subspace_angle,
    sym_power_rep,
    symmetric_power,
    track_ball_along_path,
    track_ell1_along_path,
    word_reports,
)
from anosov.cli import EXIT_USAGE, main
from anosov.words import ball_image_chunks
from conftest import ball_images

F2 = Presentation.free(2)


@pytest.fixture(scope="module")
def schottky():
    return schottky_rep(SchottkyParams(rank=2, dilation=3.0))


@pytest.fixture(scope="module")
def tau2rep():
    crep = schottky_rep(
        SchottkyParams(rank=2, dilation=3.0, field="complex", twists=(0.3, 0.7))
    )
    return realify_rep(crep)


class TestGapProfile:
    def test_single_generator_diagonal(self, diag_rep):
        profile = gap_profile(diag_rep, 1, 5)
        for row in profile.rows:
            assert row.log_gap == pytest.approx(row.length * math.log(9.0), abs=1e-9)
            assert row.log_total == pytest.approx(row.length * math.log(9.0), abs=1e-9)

    def test_identity_row(self, schottky):
        profile = gap_profile(schottky, 1, 2)
        assert profile.rows[0].word == "<id>"
        assert profile.rows[0].log_gap == 0.0

    def test_realification_closes_top_gap(self, tau2rep):
        profile = gap_profile(tau2rep, 1, 3)
        for row in profile.rows:
            assert row.log_gap < 1e-9

    def test_deterministic_and_thread_invariant(self, schottky):
        p1 = gap_profile(schottky, 1, 4, threads=1)
        p2 = gap_profile(schottky, 1, 4, threads=4)
        assert p1 == p2

    def test_row_count_matches_ball(self, schottky):
        profile = gap_profile(schottky, 1, 4)
        assert len(profile.rows) == len(enumerate_ball(F2, 4))

    def test_one_pass_matches_per_k_profiles(self, tau2rep):
        profiles = gap_profiles(tau2rep, [1, 2], 4)
        assert profiles == [gap_profile(tau2rep, 1, 4), gap_profile(tau2rep, 2, 4)]

    def test_one_pass_rejects_out_of_range_k(self, schottky):
        with pytest.raises(DimensionMismatch):
            gap_profiles(schottky, [1, 2], 4)

    def test_batched_svd_fails_like_per_word(self, schottky):
        # Sym^5 at R=4: 'aaa' (word 17) is the first word over COND_LIMIT and
        # later words fail with other condition numbers
        sym5 = sym_power_rep(schottky, 5)
        ball = enumerate_ball(F2, 4)
        failures = []
        for i, w in enumerate(ball.words()):
            try:
                singular_values(evaluate(sym5, w))
            except SingularInput as exc:
                failures.append((i, str(exc)))
        assert failures[0] == (17, "condition number 2.059e+14 exceeds 1e+12")
        assert len({msg for _, msg in failures}) > 1
        batch = ball_images(sym5, ball)
        for start in (0, 18):
            expected = next(msg for i, msg in failures if i >= start)
            tail = batch.take(np.arange(start, len(batch)))
            with pytest.raises(SingularInput) as exc:
                log_singular_values(tail)
            assert str(exc.value) == expected
        with pytest.raises(SingularInput) as exc:
            gap_profiles(sym5, [1], 4)
        assert str(exc.value) == failures[0][1]


#: Balls for the chunked-walk tests: (representation builder, presentation,
#: radius, gap indices).  The walk's default chunk holds 16,384 rows at d = 2.
#: Small chunks walk few words at a time, so the largest balls get no
#: one-row chunks and their 7-row chunks check only the profile columns.
WALK_BALLS = {
    "free2-r10": (lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), F2, 10, [1]),
    "genus2-r6": (lambda: fuchsian_surface_rep(2), Presentation.surface(2), 6, [1]),
    "genus3-r4": (lambda: fuchsian_surface_rep(3), Presentation.surface(3), 4, [1]),
    "free1-r30": (lambda: schottky_rep(SchottkyParams(rank=1, dilation=1.5)),
                  Presentation.free(1), 30, [1]),
    "radius0": (lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), F2, 0, [1]),
    "free2-r6": (lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), F2, 6, [1]),
    "genus2-r4": (lambda: fuchsian_surface_rep(2), Presentation.surface(2), 4, [1]),
    "tau2-r6": (lambda: realify_rep(schottky_rep(SchottkyParams(
        rank=2, dilation=3.0, field="complex", twists=(0.3, 0.7)))), F2, 6, [3, 1, 2]),
}
WALK_CASES = [(name, rows) for name in WALK_BALLS for rows in (None, 7)] + [
    (name, 1) for name in ("genus3-r4", "free1-r30", "radius0", "free2-r6", "genus2-r4", "tau2-r6")
]
CHUNK_CASES = [(name, rows) for name, rows in WALK_CASES
               if rows is None or name not in ("free2-r10", "genus2-r6")]


@pytest.fixture(scope="module")
def walk_reference():
    """Per ball: its representation, ball and whole-ball log singular values."""
    cache = {}

    def get(name):
        if name not in cache:
            build, p, radius, _ = WALK_BALLS[name]
            rep, ball = build(), enumerate_ball(p, radius)
            cache[name] = rep, ball, log_singular_values(ball_images(rep, ball))
        return cache[name]

    return get


def walk_rows(monkeypatch, rows, d):
    """Set the walk's chunk to the given number of rows (None: the default)."""
    if rows is not None:
        monkeypatch.setattr("anosov.linalg.STACK_ELEMENTS", rows * d * d)


class TestChunkedWalk:
    @pytest.mark.parametrize("name, rows", WALK_CASES,
                             ids=[f"{name}-rows{rows or 'default'}" for name, rows in WALK_CASES])
    def test_columns_match_whole_ball_reference(self, walk_reference, monkeypatch, name, rows):
        rep, ball, log_sv = walk_reference(name)
        ks = WALK_BALLS[name][3]
        walk_rows(monkeypatch, rows, rep.dim)
        profiles = gap_profiles(rep, ks, ball.radius)
        assert [p.k for p in profiles] == ks
        for k, profile in zip(ks, profiles):
            assert np.array_equal(profile.log_total, log_sv[:, 0] - log_sv[:, -1])
            gap = np.maximum(log_sv[:, k - 1] - log_sv[:, k], 0.0)
            assert np.array_equal(profile.log_gap, gap)
            assert np.array_equal(profile.lengths, ball.lengths())

    @pytest.mark.parametrize("name, rows", CHUNK_CASES,
                             ids=[f"{name}-rows{rows or 'default'}" for name, rows in CHUNK_CASES])
    def test_chunks_tile_the_ball_and_join_into_evaluate(self, walk_reference, monkeypatch,
                                                         name, rows):
        # chunks tile the ball in order and never cross a sphere's end;
        # joined, they are the images of evaluate, word by word
        rep, ball, _ = walk_reference(name)
        walk_rows(monkeypatch, rows, rep.dim)
        images = ball_images(rep, ball)
        starts = np.cumsum((0,) + ball.sphere_sizes())
        firsts, sizes = map(list, zip(*((lo, len(c)) for lo, c in ball_image_chunks(rep, ball))))
        assert firsts == np.cumsum([0] + sizes[:-1]).tolist() and sum(sizes) == len(ball)
        assert set(starts[:-1].tolist()) <= set(firsts)
        sphere_of = functools.partial(np.searchsorted, starts, side="right")
        assert all(sphere_of(lo) == sphere_of(lo + m - 1) for lo, m in zip(firsts, sizes))
        if rows is not None:
            assert max(sizes) <= rows
        edges = sorted({r for lo in firsts for r in (lo - 1, lo) if r >= 0})
        rng = np.random.default_rng(0)
        sample = rng.choice(len(ball), size=min(len(ball), 200), replace=False)
        check = sorted({*edges[:400], *edges[-400:], *sample.tolist()})
        words = list(ball.words())
        for i in check:
            plain = evaluate(rep, words[i])
            assert images.log_scale[i] == plain.log_scale
            assert np.array_equal(images.entries[i], plain.entries)

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "rows1", "rows7"])
    def test_sym5_known_failure_at_every_chunk_size(self, tmp_path, capsys, monkeypatch, rows):
        # the benchmark's stored known failure of sym5-certify-r4
        walk_rows(monkeypatch, rows, 6)
        base = {"kind": "schottky", "rank": 2, "dilation": 3.0}
        sym5 = {"kind": "sym-power", "m": 5, "base": base}
        argv = ["certify", "--construction", json.dumps(sym5), "--k", "1", "--radius", "4",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: condition number 2.059e+14 exceeds 1e+12"

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "rows1", "rows7"])
    def test_evaluation_failure_wins_over_earlier_svd_failure(self, schottky, monkeypatch, rows):
        # Sym^5 at R=4 first fails its singular-value check at row 17, in
        # sphere 3; a renormalization failure planted in the last chunk of
        # sphere 4 raises instead, as when the whole ball was evaluated first
        sym5 = sym_power_rep(schottky, 5)
        walk_rows(monkeypatch, rows, sym5.dim)
        original = ScaledBatch.from_arrays.__func__
        calls, planted = [], None

        def from_arrays(cls, a, log_scale):
            calls.append(len(a))
            if len(calls) == planted:
                raise SingularInput("planted")
            return original(cls, a, log_scale)

        monkeypatch.setattr(ScaledBatch, "from_arrays", classmethod(from_arrays))
        ball_images(sym5, enumerate_ball(F2, 4))
        planted = len(calls)  # the walk's last renormalization, in sphere 4's last chunk
        calls.clear()
        with pytest.raises(SingularInput, match="planted"):
            gap_profiles(sym5, [1], 4)
        assert len(calls) == planted
        calls.clear()
        planted = None
        with pytest.raises(SingularInput, match="condition number 2.059e"):
            gap_profiles(sym5, [1], 4)


class TestCertifyAnosov:
    def test_exact_slope_on_collinear_data(self, diag_rep):
        est = certify_anosov(gap_profile(diag_rep, 1, 6))
        assert est.verdict == "Certified"
        assert est.alpha_hat == pytest.approx(2 * math.log(3.0), abs=1e-9)

    def test_schottky_certified(self, schottky):
        est = certify_anosov(gap_profile(schottky, 1, 8))
        assert est.verdict == "Certified"
        assert est.alpha_hat >= 0.5
        assert est.min_margin > 0
        assert est.qie_passed

    def test_tau2_refuted_with_length1_witness(self, tau2rep):
        est = certify_anosov(gap_profile(tau2rep, 1, 6))
        assert est.verdict == "Refuted"
        assert est.witness == "a"

    def test_tau2_certified_at_middle_gap(self, tau2rep):
        est = certify_anosov(gap_profile(tau2rep, 2, 6))
        assert est.verdict == "Certified"
        assert est.alpha_hat > 0

    def test_refutation_witness_sound(self, tau2rep):
        est = certify_anosov(gap_profile(tau2rep, 1, 4))
        w = parse_word(est.witness)
        sv = singular_values(evaluate(tau2rep, w))
        assert sv.log_gap(1) < math.log(1 + 1e-9)

    def test_insufficient_radius(self, schottky):
        with pytest.raises(InsufficientRadius):
            certify_anosov(gap_profile(schottky, 1, 3))

    def test_direct_sum_gap_pattern(self, tau2rep):
        doubled = direct_sum([tau2rep, tau2rep])
        verdicts = {
            k: certify_anosov(gap_profile(doubled, k, 5)).verdict for k in (1, 3, 4)
        }
        assert verdicts == {1: "Refuted", 3: "Refuted", 4: "Certified"}


class TestScanPositivity:
    def test_positive_diagonal_rank1(self):
        rep = Representation.from_generators(
            Presentation.free(1),
            [ScaledMatrix.from_array(np.diag([2.0, 1.0, 0.5]))],
        )
        report = scan_positivity(rep, 1, 3)
        assert report.verdict == "PositivelyProximal"
        assert report.n_proximal > 0 and report.n_negative == 0
        assert report.semiproximal_failures == ()

    def test_negative_diagonal_witness(self):
        rep = Representation.from_generators(
            Presentation.free(1),
            [ScaledMatrix.from_array(np.diag([-2.0, -0.5]))],
        )
        s5 = sym_power_rep(rep, 5)
        report = scan_positivity(s5, 3, 2)
        assert report.verdict == "NotPositivelyProximal"
        assert report.witness == "a"
        assert report.witness_recheck
        assert "a" in report.semiproximal_failures

    def test_sym5_schottky_witness(self, schottky):
        s5 = sym_power_rep(schottky, 5)
        report = scan_positivity(s5, 3, 4)
        assert report.verdict == "NotPositivelyProximal"
        assert report.witness == "abAB"
        assert report.witness_recheck
        # independent base-dimension route: the witness has negative trace
        w = parse_word(report.witness)
        assert np.trace(evaluate(schottky, w).array()) < -2.0

    def test_rows_cover_ball(self, schottky):
        report = scan_positivity(schottky, 1, 3)
        assert len(report.words) == len(enumerate_ball(F2, 3))

    def test_no_proximal_found(self):
        rep = Representation.from_generators(
            Presentation.free(1),
            [ScaledMatrix.from_array(rotation_about_i(1.0))],
        )
        report = scan_positivity(rep, 1, 3)
        assert report.verdict == "NoProximalFound"
        assert report.witness is None

    def test_thread_invariance(self, schottky):
        s5 = sym_power_rep(schottky, 5)
        assert scan_positivity(s5, 3, 3, threads=1) == scan_positivity(
            s5, 3, 3, threads=4
        )

    def test_one_ball_matches_per_k_scans(self, schottky):
        s5 = sym_power_rep(schottky, 5)
        assert scan_positivities(s5, [1, 3], 3) == [
            scan_positivity(s5, 1, 3),
            scan_positivity(s5, 3, 3),
        ]

    def test_out_of_range_k_fails_before_enumeration(self, schottky, monkeypatch):
        import anosov.certify

        def no_enumeration(*args):
            raise AssertionError("ball enumerated before every k was checked")

        monkeypatch.setattr(anosov.certify, "enumerate_ball", no_enumeration)
        with pytest.raises(DegreeMismatch):
            scan_positivities(sym_power_rep(schottky, 5), [1, 6], 3)

    def test_columns_build_no_spectrum(self, schottky, monkeypatch):
        # scans and ball walks read spectra's columns, never per-word records
        import anosov.linalg

        def no_spectrum(*args, **kwargs):
            raise AssertionError("Spectrum record built")

        monkeypatch.setattr(anosov.linalg, "Spectrum", no_spectrum)
        s5 = sym_power_rep(schottky, 5)
        assert [r.witness for r in scan_positivities(s5, [1, 2], 3)] == [None, None]
        ball = enumerate_ball(F2, 2)
        traces = track_ball_along_path(perturb_path(s5, 0.01, seed=1, steps=4), ball, 2)
        assert len(traces) == len(ball) - 1

    def test_compound_rep_consistent_with_lifted_products(self, schottky):
        crep = compound_rep(sym_power_rep(schottky, 3), 2)
        w = (1, 2, -1)
        via_products = evaluate(crep, w)
        via_lift = compound_matrix(evaluate(sym_power_rep(schottky, 3), w), 2)
        scale = math.exp(via_lift.log_scale - via_products.log_scale)
        np.testing.assert_allclose(via_lift.entries * scale, via_products.entries, rtol=1e-9)


class TestSym5TraceOracle:
    """Lambda^k Sym^m of a hyperbolic 2x2 image with trace t has gap at 1
    equal to its translation length 2 acosh(|t|/2) and, for odd m, top sign
    sign(t)^k; t comes from the 2x2 product alone, sharing no code with the
    class iteration."""

    @pytest.fixture(scope="class")
    def scan(self, schottky):
        import anosov.certify

        calls = []
        kernel = anosov.certify.class_spectra
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anosov.certify, "class_spectra",
                       lambda *args: calls.append(args) or kernel(*args))
            reports = scan_positivities(sym_power_rep(schottky, 5), [1, 2, 3], 8)
        return reports, len(calls)

    @staticmethod
    def base_trace(schottky, word):
        mats = {}
        for i, (lower, upper) in enumerate(("aA", "bB")):
            mats[lower] = schottky.images[i].array()
            mats[upper] = schottky.inverse_images[i].array()
        product = np.eye(2)
        for ch in word:
            product = product @ mats[ch]
        return float(np.trace(product))

    @classmethod
    def check_against_traces(cls, schottky, report, radius, rtol):
        k = report.k
        assert report.words[0] == "<id>" and not report.proximal[0]
        assert report.n_unresolved == 0
        rows = np.flatnonzero((report.lengths >= 1) & (report.lengths <= radius))
        traces = np.array([cls.base_trace(schottky, report.words[i]) for i in rows])
        assert np.all(np.abs(traces) > 2.0)
        sign = np.sign(traces).astype(int) ** k
        assert report.proximal[rows].all()
        assert report.ell1_sign[rows].tolist() == sign.tolist()
        assert report.semiproximal_positive[rows].tolist() == (sign > 0).tolist()
        ell = 2.0 * np.arccosh(np.abs(traces) / 2.0)
        np.testing.assert_allclose(report.log_gap[rows], ell, rtol=rtol, atol=0.0)
        return len(rows)

    def test_one_class_spectra_call_for_every_k(self, scan):
        reports, calls = scan
        assert calls == 1 and len(reports[0].words) == 13121

    def test_signs_and_flags_through_r4(self, schottky, scan):
        for report in scan[0]:
            assert self.check_against_traces(schottky, report, 4, 1e-9) == 160

    def test_gaps_through_r2(self, schottky, scan):
        for report in scan[0]:
            assert self.check_against_traces(schottky, report, 2, 1e-9) == 16

    def test_every_word_through_r8(self, schottky, scan):
        for report in scan[0]:
            assert self.check_against_traces(schottky, report, 8, 1e-9) == 13120

    def test_sym9_k5_through_r6(self, schottky):
        report = scan_positivity(sym_power_rep(schottky, 9), 5, 6)
        self.check_against_traces(schottky, report, 6, 1e-7)
        assert report.verdict == "NotPositivelyProximal" and report.witness == "abAB"
        assert report.witness_recheck


class TestClassSpectraScan:
    def test_tau2_pairs_are_blocks(self, tau2rep):
        # tau2 images have two complex pairs, (lambda e^{+-i phi}) and their
        # inverses: at k=1 no word is proximal, at k=2 the top pair closes
        k1, k2 = scan_positivities(tau2rep, [1, 2], 4)
        assert not k1.proximal.any() and k1.n_unresolved == 0
        assert (k1.ell1_sign == 0).all() and k1.verdict == "NoProximalFound"
        crep = compound_rep(tau2rep, 2)
        for i, w in enumerate(enumerate_ball(F2, 4).words()):
            sp = spectrum(evaluate(crep, w))
            proximal = sp.is_proximal(1)
            assert (k2.proximal[i], k2.ell1_sign[i], k2.semiproximal_positive[i]) == (
                proximal, sp.top_sign or 0, sp.is_semiproximal_positive), str(w)
            assert k2.log_gap[i] == pytest.approx(sp.log_gap(1), rel=1e-9, abs=1e-12)

    def test_unresolved_words_are_no_verdict(self, schottky, monkeypatch):
        # words of an unresolved class (here b's, marked so in the class
        # spectra) are neither proximal nor semi-proximality failures, and
        # the report, whose other words are all positively proximal, is not
        # PositivelyProximal
        import anosov.certify

        kernel = anosov.certify.class_spectra

        def unresolved_b(letters, words):
            found = kernel(letters, words)
            row = np.flatnonzero(words[0][:, 0] == 2)[0]  # the class of b
            found.log_moduli[row], found.signs[row], found.unresolved[row] = np.nan, 0, True
            return found

        monkeypatch.setattr(anosov.certify, "class_spectra", unresolved_b)
        report = scan_positivity(schottky, 1, 1)
        assert report.words == ["<id>", "a", "A", "b", "B"]
        assert report.unresolved.tolist() == [False, False, False, True, True]
        assert report.proximal.tolist() == [False, True, True, False, False]
        assert report.ell1_sign.tolist() == [0, 1, 1, 0, 0]
        assert np.isnan(report.log_gap[3:]).all()
        assert report.semiproximal_failures == ()
        assert (report.n_proximal, report.n_negative, report.n_unresolved) == (2, 0, 2)
        assert report.verdict == "Inconclusive"

    def test_equal_moduli_of_a_direct_sum_are_one_group(self, tau2rep):
        # two copies of tau2 give every word two equal complex pairs: each
        # settles as a 4-column group, as the compound route reads them
        doubled = direct_sum([tau2rep, tau2rep])
        k2, k4 = scan_positivities(doubled, [2, 4], 3)
        assert k2.n_unresolved == k4.n_unresolved == 0
        assert k2.verdict == "NoProximalFound" and k4.verdict == "PositivelyProximal"
        assert k4.n_proximal == len(k4.words) - 1 and k4.semiproximal_failures == ()

    def test_scan_forms_no_compound_and_no_schur(self, schottky, monkeypatch):
        import anosov.certify
        import anosov.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("the scan formed a product, a compound or a Schur form")

        for name in ("ball_image_chunks", "compound_batch", "spectra"):
            monkeypatch.setattr(anosov.certify, name, forbidden)
        monkeypatch.setattr(anosov.linalg, "_real_schur", forbidden)
        report = scan_positivity(sym_power_rep(schottky, 5), 2, 5)
        assert report.verdict == "PositivelyProximal"


#: the planes of a limit sample's report, and every field of a report
PLANES = ("attracting_plane", "repelling_plane", "inverse_attracting_plane",
          "inverse_repelling_plane")
REPORT_FIELDS = ("k", "gap_eig", "log_gap", "is_proximal", "is_biproximal",
                 "is_positively_proximal", *PLANES)


def sample_points(s):
    """The (label, k-plane, (d-k)-plane) boundary points of one limit sample."""
    r = s.report
    return [(s.word, r.attracting_plane, r.inverse_repelling_plane),
            (s.inverse_word, r.inverse_attracting_plane, r.repelling_plane)]


class TestLimitMapSample:
    def test_out_of_range_k_fails_before_enumeration(self, schottky, monkeypatch):
        import anosov.certify

        def no_enumeration(*args):
            raise AssertionError("ball enumerated before k was checked")

        monkeypatch.setattr(anosov.certify, "enumerate_ball", no_enumeration)
        with pytest.raises(DimensionMismatch, match="k=2 out of range for dimension 2"):
            limit_map_sample(schottky, 2, 10)

    def test_schottky_samples_transverse_and_spanning(self, schottky):
        samples = limit_map_sample(schottky, 1, 4)
        audit = audit_limit_samples(samples)
        assert audit.all_transverse
        assert audit.span_rank == 2 and audit.span_dim == 2
        assert all(s.report.is_proximal for s in samples)

    def test_single_generator_one_sample(self, diag_rep):
        samples = limit_map_sample(diag_rep, 1, 3)
        assert len(samples) == 1
        s = samples[0]
        assert s.word == "a" and s.inverse_word == "A"
        # the axis pair (gamma+, gamma-) is mutually transverse
        audit = audit_limit_samples(samples)
        assert audit.n_pairs_checked == 2 and audit.all_transverse

    def test_no_proximal_elements(self):
        rep = Representation.from_generators(
            Presentation.free(1),
            [ScaledMatrix.from_array(rotation_about_i(1.0))],
        )
        with pytest.raises(NoProximalElements):
            limit_map_sample(rep, 1, 2)

    def test_conjugacy_dedup(self, schottky):
        samples = limit_map_sample(schottky, 1, 3)
        words = {s.word for s in samples}
        assert "a" in words
        assert "bab" not in words  # conjugate of a: same class as aB... dedup applies
        # no sample word is another's inverse or rotation
        keys = set()
        from word_oracle import conjugacy_key

        for s in samples:
            key = conjugacy_key(parse_word(s.word))
            assert key not in keys
            keys.add(key)

    def test_tau2_middle_index_samples(self, tau2rep):
        samples = limit_map_sample(tau2rep, 2, 4)
        audit = audit_limit_samples(samples)
        assert all(s.report.is_proximal for s in samples)
        assert audit.all_transverse

    @pytest.mark.parametrize("which, k, radius", [("schottky", 1, 5), ("tau2rep", 2, 4)])
    def test_audit_matches_per_pair_loop(self, request, which, k, radius):
        # a threshold of 100 fails a share of the pairs (conditions run from
        # 1 to about 1e4 here), so the failure order is exercised
        samples = limit_map_sample(request.getfixturevalue(which), k, radius)
        points = []
        for s in samples:
            points += sample_points(s)
        failures, checked = [], 0
        for label_x, k_plane, _ in points:
            for label_y, _, dk_plane in points:
                if k_plane is None or dk_plane is None or label_y == label_x:
                    continue
                checked += 1
                sv = np.linalg.svd(np.hstack([k_plane, dk_plane]), compute_uv=False)
                if not (sv[-1] > 0.0 and sv[0] / sv[-1] < 100.0):
                    failures.append((label_x, label_y))
        audit = audit_limit_samples(samples, cond_threshold=100.0)
        assert audit.n_pairs_checked == checked
        assert 0 < len(failures) < checked
        assert audit.transversality_failures == tuple(failures)

    @pytest.mark.parametrize("threshold", [1e8, 1e3, 30.0])
    @pytest.mark.parametrize("which, k, radius", [("schottky", 1, 5), ("tau2rep", 2, 4)])
    def test_audit_matches_per_label_svd_loop(self, request, monkeypatch, which, k, radius,
                                              threshold):
        import anosov.linalg

        samples = limit_map_sample(request.getfixturevalue(which), k, radius)
        points = []
        for s in samples:
            points += sample_points(s)
        failures, checked, coords = [], 0, []
        for label_x, k_plane, _ in points:
            if k_plane is None:
                continue
            minors = np.array([np.linalg.det(k_plane[list(rows)])
                               for rows in itertools.combinations(range(len(k_plane)), k)])
            coords.append(minors / np.linalg.norm(minors))
            for label_y, _, dk_plane in points:
                if dk_plane is None or label_y == label_x:
                    continue
                checked += 1
                sv = np.linalg.svd(np.hstack([k_plane, dk_plane]), compute_uv=False)
                if not (sv[-1] > 0.0 and sv[0] / sv[-1] < threshold):
                    failures.append((label_x, label_y))
        sv = np.linalg.svd(np.array(coords), compute_uv=False)
        sent = []
        rule = anosov.linalg._condition_rule
        monkeypatch.setattr(anosov.linalg, "_condition_rule",
                            lambda pairs, t: sent.append(len(pairs)) or rule(pairs, t))
        audit = audit_limit_samples(samples, cond_threshold=threshold)
        assert audit.n_pairs_checked == checked
        assert audit.transversality_failures == tuple(failures)
        span = (int(np.sum(sv > 1e-8 * sv[0])), len(coords[0]))
        assert (audit.span_rank, audit.span_dim) == span
        if threshold == 1e8:
            assert not failures
            if which == "schottky":
                assert sum(sent) == 0  # every pair decided by its determinant
        else:
            assert 0 < len(failures) < checked
            assert 0 < sum(sent) < checked

    @pytest.mark.parametrize("which, k, radius", [("schottky", 1, 5), ("tau2rep", 2, 4)])
    def test_samples_hold_the_word_reports(self, request, monkeypatch, which, k, radius):
        # each sample's report is the very object word_reports returned for
        # its row, and the audit equals that of per-word reports of the
        # formed products
        import anosov.certify as certify

        rep = request.getfixturevalue(which)
        returned = []
        real_reports = certify.word_reports

        def kept(*args, **kwargs):
            returned.append(real_reports(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(certify, "word_reports", kept)
        samples = limit_map_sample(rep, k, radius)
        monkeypatch.undo()
        (reports,) = returned
        assert len(samples) == len(reports)
        assert all(s.report is r for s, r in zip(samples, reports))
        per_word = [replace(s, report=proximality_report(evaluate(rep, parse_word(s.word)), k))
                    for s in samples]
        assert audit_limit_samples(samples) == audit_limit_samples(per_word)

    def test_equivariance_on_conjugates(self, schottky):
        # attracting plane of h g h^-1 equals rho(h) times that of g
        g = parse_word("ab")
        for h in (parse_word("b"), parse_word("aB")):
            base = proximality_report(evaluate(schottky, g), 1)
            conj_word = reduce_word(h + g + tuple(-l for l in reversed(h)), F2)
            conj = proximality_report(evaluate(schottky, conj_word), 1)
            transported = orthonormalize(
                evaluate(schottky, h).entries @ base.attracting_plane
            )
            assert subspace_angle(transported, conj.attracting_plane) < 1e-6


def per_word_limit_samples(rep, k, radius, eps_gap=1e-8):
    """The sampling loop word by word: the sampled words found by the word
    oracle, each reported alone by one :func:`word_reports` call on its own
    letters; the oracle for limit_map_sample, whose one batched call must
    give every word this one-row report bit for bit."""
    from anosov.words import word_str
    from word_oracle import conjugacy_key, is_primitive_cyclic

    letters = ScaledBatch.stack([rep.image(l) for l in rep.presentation.letters()])
    index = {l: i for i, l in enumerate(rep.presentation.letters())}
    ball = enumerate_ball(rep.presentation, radius)
    samples, seen = [], set()
    for w in ball.words():
        if len(w) == 0 or not is_primitive_cyclic(w.letters):
            continue
        key = conjugacy_key(w.letters)
        if key in seen:
            continue
        seen.add(key)
        codes = np.array([[index[l] for l in w.letters]])
        report = word_reports(letters, [codes], k, eps_gap=eps_gap)[0]
        samples.append(LimitSample(str(w), word_str(w.inverse().letters), report))
    return samples


def marginal_rep():
    """Two hyperbolic generators whose short words have gaps within a decade
    of eps_gap, so that their reports warn."""
    lam = math.sqrt(1 + 3e-8)
    c, s = math.cos(0.9), math.sin(0.9)
    rot = np.array([[c, -s], [s, c]])
    b = rot @ np.diag([lam**3, lam**-3]) @ rot.T
    return Representation.from_generators(
        F2, [ScaledMatrix.from_array(np.diag([lam, 1 / lam])), ScaledMatrix.from_array(b)]
    )


def warned_messages(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [(w.category, str(w.message)) for w in caught]


#: The limit-set-r7 experiment of the benchmark's spectral-mix workload.
LIMIT_SET_R7 = ["limit-set", "--construction", '{"kind": "schottky", "rank": 2, "dilation": 3.0}',
                "--k", "1", "--radius", "7"]


class TestLimitMapSampleOracle:
    def assert_matches_oracle(self, rep, k, radius):
        samples, warned = warned_messages(limit_map_sample, rep, k, radius)
        expected, expected_warned = warned_messages(per_word_limit_samples, rep, k, radius)
        assert len(samples) == len(expected)
        for s, e in zip(samples, expected):
            assert (s.word, s.inverse_word) == (e.word, e.inverse_word)
            for name in REPORT_FIELDS:
                value, oracle = getattr(s.report, name), getattr(e.report, name)
                assert (value is None) == (oracle is None), (s.word, name)
                if value is not None:
                    assert np.array_equal(value, oracle), (s.word, name)
        assert warned == expected_warned
        return samples, warned

    def test_schottky_r5(self, schottky):
        self.assert_matches_oracle(schottky, 1, 5)

    @pytest.fixture(scope="class")
    def r7_at_seed_0(self, seedless_outputs, tmp_path_factory):
        return seedless_outputs(LIMIT_SET_R7, 0, tmp_path_factory.mktemp("r7") / "run")

    @pytest.mark.parametrize("seed", range(16))
    def test_schottky_every_benchmark_seed(self, seedless_outputs, r7_at_seed_0, tmp_path, seed):
        # the benchmark's limit-set-r7 experiment draws nothing from its seed
        outputs = seedless_outputs(LIMIT_SET_R7, seed, tmp_path / "run")
        assert outputs == r7_at_seed_0
        assert outputs[0] == 0 and set(outputs[3]) == {"limit_samples.csv", "summary.json"}

    def test_r7_minors_once_per_plane_stack(self, seedless_outputs, r7_at_seed_0, tmp_path,
                                            monkeypatch):
        # the k-planes' Pluecker minors serve both the transversality check and the span rank
        import anosov.certify
        import anosov.linalg

        shapes, minors = [], anosov.linalg.maximal_minors
        counted = lambda planes: shapes.append(planes.shape) or minors(planes)
        monkeypatch.setattr(anosov.linalg, "maximal_minors", counted)
        monkeypatch.setattr(anosov.certify, "maximal_minors", counted)
        assert seedless_outputs(LIMIT_SET_R7, 0, tmp_path / "run") == r7_at_seed_0
        assert shapes == [(510, 2, 1), (510, 2, 1)]

    def test_tau2_middle_index(self, tau2rep):
        samples, _ = self.assert_matches_oracle(tau2rep, 2, 4)
        assert any(s.report.inverse_attracting_plane is not None for s in samples)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sym5_compounds_free(self, schottky, k):
        self.assert_matches_oracle(sym_power_rep(schottky, 5), k, 2)

    def test_fuchsian_genus2(self, fuchsian2):
        # surface words: the class rows read canonical forms of eight letters
        samples, _ = self.assert_matches_oracle(fuchsian2, 1, 4)
        assert len(samples) == 366

    def test_schottky_rank3(self):
        rep = schottky_rep(SchottkyParams(rank=3, dilation=3.0))
        samples, _ = self.assert_matches_oracle(rep, 1, 4)
        assert len({s.word for s in samples}) == len(samples) > 0

    def test_marginal_gaps_warn_as_per_word(self):
        samples, warned = self.assert_matches_oracle(marginal_rep(), 1, 3)
        # the four samples with gaps below log1p(1e-7) warn once each: at
        # d = 2k the inverse's gap is the same number, read from the same report
        marginal = [s for s in samples if s.report.log_gap <= math.log1p(1e-7)]
        assert len(warned) == len(marginal) == 4


# (construction, k, radius) of the inverse-free sampling checks
INVERSE_FREE_CASES = {
    "schottky-r5": (lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), 1, 5),
    "schottky-r7": (lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), 1, 7),
    "schottky-rank3-r4": (lambda: schottky_rep(SchottkyParams(rank=3, dilation=3.0)), 1, 4),
    "tau2-k2-r4": (lambda: realify_rep(schottky_rep(SchottkyParams(
        rank=2, dilation=3.0, field="complex", twists=(0.3, 0.7)))), 2, 4),
    **{f"sym5-k{k}-r2": (lambda: sym_power_rep(schottky_rep(SchottkyParams(
        rank=2, dilation=3.0)), 5), k, 2) for k in (1, 2, 3)},
    "genus2-r4": (lambda: fuchsian_surface_rep(2), 1, 4),
}


class TestLimitMapSampleInverseFree:
    @pytest.mark.parametrize("case", list(INVERSE_FREE_CASES))
    def test_inverse_planes_without_inverting(self, monkeypatch, case):
        import anosov.certify as certify
        from anosov.linalg import ScaledBatch
        from anosov.words import cyclic_classes

        build, k, radius = INVERSE_FREE_CASES[case]
        rep = build()
        calls = []
        real_reports = certify.word_reports

        def no_inverse(self):
            raise AssertionError("ScaledBatch.inverse called")

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real_reports(*args, **kwargs)

        monkeypatch.setattr(ScaledBatch, "inverse", no_inverse)
        monkeypatch.setattr(certify, "word_reports", counted)
        samples = limit_map_sample(rep, k, radius)
        monkeypatch.undo()
        assert calls == [k]
        # the planes span those of the report of the inverted matrix
        ball = enumerate_ball(rep.presentation, radius)
        sampled = ball_images(rep, ball).take(np.sort(cyclic_classes(ball).first))
        checked = 0
        for i, s in enumerate(samples):
            inv_k, inv_dk = s.report.inverse_attracting_plane, s.report.inverse_repelling_plane
            assert (inv_k is None) == (inv_dk is None)
            if inv_k is None:
                continue
            bwd = proximality_report(sampled[i].inverse(), k)
            assert subspace_angle(inv_k, bwd.attracting_plane) <= 1e-10, s.word
            assert subspace_angle(inv_dk, bwd.repelling_plane) <= 1e-10, s.word
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize(
        "build, radius",
        [(lambda: schottky_rep(SchottkyParams(rank=2, dilation=3.0)), 6),
         (lambda: fuchsian_surface_rep(2), 4)],
        ids=["free2-r6", "genus2-r4"],
    )
    def test_sample_words_spell_the_sampled_rows(self, build, radius):
        from anosov.words import cyclic_classes

        rep = build()
        samples = limit_map_sample(rep, 1, radius)
        ball = enumerate_ball(rep.presentation, radius)
        words = list(ball.words())
        sampled = [words[i] for i in np.sort(cyclic_classes(ball).first)]
        assert [s.word for s in samples] == [str(w) for w in sampled]
        assert [s.inverse_word for s in samples] == [str(w.inverse()) for w in sampled]


def sym_power_oracle_planes(base, m, k, radius):
    """The four report planes (:data:`PLANES`) of every sampled word of Sym^m
    of a 2-dimensional ``base``, from the eigenvectors of the word's base
    image alone.  With P = [u | v] those eigenvectors, the expanding one
    first, scaled to det 1, Sym^m(P) diagonalizes the word's Sym^m image
    with moduli in decreasing order, so its first j columns span the
    invariant subspace of the j largest moduli and its last j that of the
    j smallest."""
    from anosov.words import cyclic_classes

    ball = enumerate_ball(base.presentation, radius)
    images = ball_images(base, ball)
    d = m + 1
    planes = []
    for i in np.sort(cyclic_classes(ball).first):
        mu, vectors = np.linalg.eig(images.entries[i])
        p = vectors[:, np.argsort(-np.abs(mu))]
        p = p / math.sqrt(abs(np.linalg.det(p)))
        p[:, 1] *= np.sign(np.linalg.det(p))
        s = symmetric_power(p, m).array()
        planes.append(tuple(orthonormalize(c) for c in (s[:, :k], s[:, k:], s[:, d - k:],
                                                         s[:, :d - k])))
    return planes


#: (m, k, radius) -> (pairs checked, transversality failures) of the Sym^m
#: Schottky audits, where they were measured on the oracle planes
SYM_POWER_AUDITS = {(5, k, 3): (240, 18) for k in (1, 2, 3)} | {
    (5, 1, 4): (1122, 106), (5, 3, 4): (1122, 114), (3, 1, 4): (1122, 26), (3, 1, 5): (6642, 190),
}


class TestLimitMapSampleSymPowerOracle:
    """Limit planes of Sym^3, Sym^5 and Sym^9 Schottky against Sym^m of the
    base eigenvectors: every plane within 1e-10 in sine (1e-8 at Sym^9,
    whose letters raise the settling tolerance to about 4e-8; 7.5e-9 is
    measured), and the same audit."""

    @pytest.mark.parametrize(
        "m, k, radius",
        [(3, k, r) for k in (1, 2) for r in (4, 5)]
        + [(5, k, r) for k in (1, 2, 3) for r in range(3, 8)]
        + [(9, 5, r) for r in (2, 3, 4)],
    )
    def test_planes_match_sym_power_of_base_eigenvectors(self, schottky, m, k, radius):
        samples = limit_map_sample(sym_power_rep(schottky, m), k, radius)
        oracle = sym_power_oracle_planes(schottky, m, k, radius)
        assert len(samples) == len(oracle)
        for s, planes in zip(samples, oracle):
            assert s.report.is_proximal
            for name, expected in zip(PLANES, planes):
                sine = subspace_angle(getattr(s.report, name), expected)
                assert sine <= (1e-8 if m == 9 else 1e-10), (s.word, name)
        exact = [replace(s, report=replace(s.report, **dict(zip(PLANES, planes))))
                 for s, planes in zip(samples, oracle)]
        audit = audit_limit_samples(samples)
        assert audit == audit_limit_samples(exact)
        if (m, k, radius) in SYM_POWER_AUDITS:
            counts = audit.n_pairs_checked, len(audit.transversality_failures)
            assert counts == SYM_POWER_AUDITS[m, k, radius]


class TestTrackEll1:
    def test_constant_path(self, schottky):
        path = [schottky] * 5
        trace = track_ell1_along_path(path, parse_word("ab"), 1)
        assert trace.verdict == "ConstantSign"
        assert set(trace.signs) == {1}

    def test_positive_diagonal_path(self):
        p1 = Presentation.free(1)
        reps = [
            Representation.from_generators(
                p1, [ScaledMatrix.from_array(np.diag([2.0 + t, 1.0, 1 / (2.0 + t)]))]
            )
            for t in np.linspace(0.0, 1.0, 6)
        ]
        trace = track_ell1_along_path(reps, (1,), 1)
        assert trace.verdict == "ConstantSign"
        assert all(s == 1 for s in trace.signs)

    def test_small_perturbation_keeps_signs(self, schottky):
        path = perturb_path(schottky, 0.01, seed=0, steps=50)
        ball = enumerate_ball(F2, 4)
        for w in ball.words():
            if len(w) == 0:
                continue
            trace = track_ell1_along_path(path, w, 1)
            assert trace.verdict == "ConstantSign", (str(w), trace.failing_step)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ball_walk_matches_per_word_traces(self, schottky, k):
        sym5 = sym_power_rep(schottky, 5)
        path = perturb_path(sym5, 0.01, seed=1, steps=8)
        ball = enumerate_ball(F2, 2)
        traces = track_ball_along_path(path, ball, k)
        words = [w for w in ball.words() if len(w) > 0]
        assert traces == [track_ell1_along_path(path, w, k) for w in words]

    @pytest.mark.parametrize("budget", [1, 7 * 400 // 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sliced_ball_walk_matches_per_word_traces(self, schottky, monkeypatch, k, budget):
        # a tiny stack budget walks each step's ball and reads its signs in
        # many uneven slices (at budget 1, one matrix at a time, and the
        # compound minors one block at a time; sign reads take eight budgets,
        # so 7 of the 20 x 20 compounds at k=3)
        sym5 = sym_power_rep(schottky, 5)
        path = perturb_path(sym5, 0.01, seed=1, steps=8)
        ball = enumerate_ball(F2, 3)
        whole = track_ball_along_path(path, ball, k)
        monkeypatch.setattr("anosov.linalg.STACK_ELEMENTS", budget)
        assert track_ball_along_path(path, ball, k) == whole
        words = [w for w in ball.words() if len(w) > 0]
        assert whole == [track_ell1_along_path(path, w, k) for w in words]

    def test_minor_gathers_fit_one_walk_chunk(self, schottky, monkeypatch):
        # one path step on Sym^5 at k=2, R=4: the compound's 2x2 minors of
        # the 160 nonidentity words are gathered in slices of at most the
        # stack budget, the walk's chunk of 2^16 entries (one gather of
        # 144,000 elements when minors had a budget of their own, 2^19)
        import anosov.linalg as linalg

        sizes, det = [], np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: sizes.append(a.size) or det(a))
        track_ball_along_path([sym_power_rep(schottky, 5)], enumerate_ball(F2, 4), 2)
        monkeypatch.undo()
        assert len(sizes) > 1
        assert max(sizes) <= linalg.STACK_ELEMENTS == 1 << 16

    @pytest.mark.parametrize("k", [2, 3])
    def test_degree_out_of_range(self, schottky, k):
        with pytest.raises(DegreeMismatch, match="out of range for dimension 2"):
            track_ell1_along_path([schottky] * 3, parse_word("ab"), k)

    def test_one_dimensional_image_has_no_gap(self):
        line = Representation.from_generators(
            Presentation.free(1), [ScaledMatrix.from_array(np.array([[-2.0]]))]
        )
        with pytest.raises(DimensionMismatch, match="gap index 1 out of range"):
            track_ell1_along_path([line] * 3, (1,), 1)

    def test_proximality_loss_reported(self, schottky):
        # a hand-built path with a big perturbation loses proximality for
        # some word; the verdict must name the failing step, never report a
        # silent sign flip
        rng = np.random.default_rng(0)
        noise = [rng.standard_normal((2, 2)) for _ in schottky.images]
        base = [g.array() for g in schottky.images]
        path = []
        for s in range(51):
            t = s / 50
            mats = []
            for b, nz in zip(base, noise):
                m = b + t * 0.5 * nz
                m /= abs(np.linalg.det(m)) ** 0.5
                mats.append(ScaledMatrix.from_array(m))
            path.append(Representation.from_generators(F2, mats))
        ball = enumerate_ball(F2, 4)
        inconclusive = 0
        for w in ball.words():
            if len(w) == 0:
                continue
            trace = track_ell1_along_path(path, w, 1)
            if trace.verdict == "Inconclusive":
                inconclusive += 1
                assert trace.failing_step is not None
                assert not trace.proximal[trace.failing_step]
            if trace.verdict == "ConstantSign":
                nonzero = [s for s in trace.signs if s != 0]
                assert len(set(nonzero)) == 1
        assert inconclusive > 0


class TestPingpong:
    def test_standard_pair_power_one(self, schottky):
        result = pingpong_power(schottky, parse_word("a"), rotation_about_i(math.pi / 2))
        assert result is not None
        assert result.n == 1
        assert 0.0 < result.delta < 0.36

    def test_strong_element_delta(self):
        rep = schottky_rep(SchottkyParams(rank=2, dilation=9.0))
        result = pingpong_power(rep, parse_word("a"), rotation_about_i(math.pi / 2))
        assert result.n == 1
        assert result.delta < 0.2

    def test_word_conjugator(self, schottky):
        result = pingpong_power(schottky, parse_word("a"), parse_word("b"), max_n=10)
        assert result is not None
        assert result.n >= 2  # word conjugators distort the separations

    def test_nearly_parallel_axes(self, schottky):
        result = pingpong_power(
            schottky, parse_word("a"), rotation_about_i(1e-3), max_n=20
        )
        assert result is None or result.n >= 5

    def test_conjugator_dimension_checked(self, schottky):
        with pytest.raises(DimensionMismatch, match="conjugator dimension mismatch"):
            pingpong_power(schottky, parse_word("a"), np.eye(3))

    def test_not_biproximal(self, schottky):
        with pytest.raises(NotBiproximal):
            pingpong_power(schottky, (), rotation_about_i(1.0))

    def test_degenerate_conjugator(self, schottky):
        # rotation by pi maps the axis onto itself: t g t^-1 = g^-1
        with pytest.raises(TransversalityFailure):
            pingpong_power(schottky, parse_word("a"), rotation_about_i(math.pi))

    def test_subgroup_recertifies(self, schottky):
        result = pingpong_power(schottky, parse_word("a"), rotation_about_i(math.pi / 2))
        sub = pingpong_subgroup(schottky, parse_word("a"), rotation_about_i(math.pi / 2), result.n)
        est = certify_anosov(gap_profile(sub, 1, 4))
        assert est.verdict == "Certified"


def contraction_sup_oracle(entries, x, normal, delta, dirs):
    """One bisection query as it ran before the sines were computed once per
    power: mask, multiply and measure the far directions afresh."""
    mask = np.abs(dirs @ normal) >= delta
    if not np.any(mask):
        return 0.0
    images = dirs[mask] @ entries.T
    norms = np.linalg.norm(images, axis=1)
    good = norms > 0
    projections = (images[good] @ x) / norms[good]
    return float(np.sqrt(np.maximum(0.0, 1.0 - projections**2)).max())


# (construction, g, t, expected (n, delta)); the values are those of the
# per-query bisection
PINGPONG_CASES = {
    "quarter-rotation": (lambda rep: rep, "a", rotation_about_i(math.pi / 2),
                         (1, 0.3162259484789114)),
    "t-word": (lambda rep: rep, "a", parse_word("b"), (3, 0.036833722679266434)),
    "sym2-random-directions": (lambda rep: sym_power_rep(rep, 2), "a", parse_word("b"),
                               (4, 0.012217462078606498)),
}


def bisection_oracle(players, cap):
    """The least delta <= cap with worst(delta) <= delta as the power search
    found it before :func:`_fixed_point`: per-query masked maxima, bisected
    from (0, cap] for up to 60 halvings.  ``players`` holds (entries, x,
    normal, dirs) per player."""

    def worst(delta):
        return max(contraction_sup_oracle(entries, x, normal, delta, dirs)
                   for entries, x, normal, dirs in players)

    if worst(cap) > cap:
        return None
    lo, hi = 0.0, cap
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if worst(mid) <= mid:
            hi = mid
        else:
            lo = mid
    return hi


class TestPingpongOracle:
    @pytest.mark.parametrize("case", list(PINGPONG_CASES))
    def test_every_query_matches_per_query_oracle(self, schottky, monkeypatch, case):
        import anosov.certify as certify

        build, g, t, expected = PINGPONG_CASES[case]
        normals, made, found = [], {}, []
        real_normal = certify._hyperplane_normal
        real_sines = certify._contraction_sines
        real_fixed_point = certify._fixed_point

        def spy_normal(plane):
            normals.append(real_normal(plane))
            return normals[-1]

        def spy_sines(entries, x, dirs):
            sines = real_sines(entries, x, dirs)
            made[id(sines)] = (entries, x, dirs)
            return sines

        def spy_fixed_point(sines, separations, cap):
            players = []
            for s, separation in zip(sines, separations):
                entries, x, dirs = made[id(s)]
                (normal,) = [n for n in normals if np.array_equal(np.abs(dirs @ n), separation)]
                players.append((entries, x, normal, dirs))
            value = real_fixed_point(sines, separations, cap)
            assert value == bisection_oracle(players, cap)
            found.append(value)
            return value

        monkeypatch.setattr(certify, "_hyperplane_normal", spy_normal)
        monkeypatch.setattr(certify, "_contraction_sines", spy_sines)
        monkeypatch.setattr(certify, "_fixed_point", spy_fixed_point)
        result = pingpong_power(build(schottky), parse_word(g), t)
        assert (result.n, result.delta) == expected
        assert len(found) == result.n and found[-1] == result.delta
        assert all(value is None for value in found[:-1])

    def test_hyperplane_normal_is_scipy_null_space(self):
        import scipy.linalg
        from anosov.certify import _hyperplane_normal

        rng = np.random.default_rng(3)
        for d in (2, 3, 4, 6):
            for _ in range(20):
                plane = np.linalg.qr(rng.standard_normal((d, d - 1)))[0]
                null = scipy.linalg.null_space(plane.T)[:, 0]
                expect = null if null[np.argmax(np.abs(null))] > 0 else -null
                assert np.array_equal(_hyperplane_normal(plane), expect)
        with pytest.raises(TransversalityFailure, match="not a hyperplane"):
            _hyperplane_normal(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))

    def test_fixed_point_hand_cases(self):
        from anosov.certify import _fixed_point

        sines, seps = [np.array([0.5, 0.25])], [np.array([0.1, 0.2])]
        # above the largest separation no direction is left, and worst is -inf
        assert _fixed_point(sines, seps, 0.3) == np.nextafter(0.2, 1.0)
        assert _fixed_point(sines, seps, 0.2) is None
        # on the step (0.1, 0.2] worst is 0.15, which holds itself
        sines = [np.array([0.5]), np.array([0.15])]
        seps = [np.array([0.1]), np.array([0.2])]
        assert _fixed_point(sines, seps, 0.3) == 0.15
        assert _fixed_point(sines, seps, 0.15) == 0.15
        assert _fixed_point(sines, seps, np.nextafter(0.15, 0.0)) is None


class TestDeterminism:
    def test_scan_reports_identical(self, schottky):
        r1 = scan_positivity(schottky, 1, 4)
        r2 = scan_positivity(schottky, 1, 4)
        assert r1 == r2

    def test_limit_samples_identical(self, schottky):
        s1 = limit_map_sample(schottky, 1, 3)
        s2 = limit_map_sample(schottky, 1, 3)
        for a, b in zip(s1, s2):
            assert a.word == b.word
            np.testing.assert_array_equal(a.report.attracting_plane, b.report.attracting_plane)


# Per-row loops over GapRow / PositivityRow records, as the scans ran before
# their results were held as columns; the oracles for the column scans.


def row_loop_minima(rows, column):
    out = {}
    for row in rows:
        val = getattr(row, column)
        if row.length not in out or val < out[row.length]:
            out[row.length] = val
    return out


def row_loop_verdict(rows, radius, alpha_min=0.05, ell_min=2):
    """(verdict, witness) of certify_anosov, from per-row loops and polyfit."""
    refuted = any(row.length >= 2 and row.log_gap < 1e-9 for row in rows)
    witness = None
    for row in rows:
        if row.length >= 1 and row.log_gap < 1e-9:
            witness = row.word
            break
    minima = row_loop_minima(rows, "log_gap")
    xs = [l for l in sorted(minima) if l >= ell_min]
    slope = np.polyfit(xs, [minima[l] for l in xs], 1)[0]
    top = [minima[l] for l in sorted(minima) if l >= max(2, math.ceil(radius / 2))]
    if refuted:
        return "Refuted", witness
    if slope >= alpha_min and all(b >= a - 1e-12 for a, b in zip(top, top[1:])):
        return "Certified", None
    return "Inconclusive", witness


def synthetic_profile(lengths, log_gap, radius=4):
    return GapProfile(
        k=1, radius=radius, dim=2, presentation="synthetic",
        words=[f"w{i}" for i in range(len(lengths))], lengths=np.array(lengths),
        log_gap=np.array(log_gap, dtype=float), log_total=2.0 * np.array(log_gap, dtype=float),
    )


LENGTHS = [0, 1, 1, 2, 2, 3, 3, 4, 4]


def random_profile(seed):
    # values on a coarse grid, so that ties and vanishing gaps are common
    rng = np.random.default_rng(seed)
    lengths = np.repeat(np.arange(5), rng.integers(1, 5, size=5))
    gaps = lengths * rng.choice([0.0, 0.01, 0.5], size=len(lengths), p=[0.1, 0.3, 0.6])
    return synthetic_profile(lengths, gaps)


class TestColumnarScansMatchRowLoops:
    @pytest.mark.parametrize(
        "log_gap, verdict, witness",
        [
            # vanishing gap only at length 1: a witness, but not Refuted
            ([0.0, 0.0, 1.0, 0.02, 0.5, 0.03, 0.4, 0.04, 0.9], "Inconclusive", "w1"),
            # vanishing gap only at the identity: no witness
            ([0.0, 0.5, 0.6, 0.51, 0.7, 0.52, 0.8, 0.53, 0.9], "Inconclusive", None),
            ([0.0, 1.0, 1.2, 2.0, 2.1, 3.0, 3.3, 4.0, 4.5], "Certified", None),
            # tied minima, two vanishing gaps at length 2
            ([0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0, 4.0, 4.0], "Refuted", "w3"),
        ],
        ids=["length1-only", "identity-only", "certified", "ties"],
    )
    def test_synthetic_profiles(self, log_gap, verdict, witness):
        profile = synthetic_profile(LENGTHS, log_gap)
        for column in ("log_gap", "log_total"):
            assert profile.per_length_minima(column) == row_loop_minima(profile.rows, column)
        est = certify_anosov(profile)
        assert (est.verdict, est.witness) == (verdict, witness)
        assert row_loop_verdict(profile.rows, 4) == (verdict, witness)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_synthetic_profiles(self, seed):
        profile = random_profile(seed)
        assert profile.per_length_minima() == row_loop_minima(profile.rows, "log_gap")
        est = certify_anosov(profile)
        assert (est.verdict, est.witness) == row_loop_verdict(profile.rows, 4)

    def test_ball_profiles(self, schottky, tau2rep):
        for rep, k, radius in ((schottky, 1, 6), (tau2rep, 1, 5), (tau2rep, 2, 5)):
            profile = gap_profile(rep, k, radius)
            rows = profile.rows
            assert [r.word for r in rows] == [str(w) for w in enumerate_ball(F2, radius).words()]
            for column in ("log_gap", "log_total"):
                assert profile.per_length_minima(column) == row_loop_minima(rows, column)
            est = certify_anosov(profile)
            assert (est.verdict, est.witness) == row_loop_verdict(rows, radius)

    def test_equality_sees_one_column_entry(self, schottky):
        profile = gap_profile(schottky, 1, 3)
        log_gap = profile.log_gap.copy()
        log_gap[-1] += 1.0
        changed = GapProfile(
            k=1, radius=3, dim=2, presentation=profile.presentation, words=profile.words,
            lengths=profile.lengths, log_gap=log_gap, log_total=profile.log_total,
        )
        assert profile == gap_profile(schottky, 1, 3)
        assert profile != changed

    @pytest.mark.parametrize("case", ["schottky-k1-r3", "sym5-k3-r4", "negative-diagonal", "dim1"])
    def test_positivity_reports(self, schottky, case):
        rep, k, radius = {
            "schottky-k1-r3": (schottky, 1, 3),
            "sym5-k3-r4": (sym_power_rep(schottky, 5), 3, 4),
            "negative-diagonal": (sym_power_rep(Representation.from_generators(
                Presentation.free(1), [ScaledMatrix.from_array(np.diag([-2.0, -0.5]))]), 5), 3, 2),
            "dim1": (Representation.from_generators(
                Presentation.free(1), [ScaledMatrix.from_array(np.array([[-2.0]]))]), 1, 2),
        }[case]
        crep = compound_rep(rep, k)
        rows = []  # (word, length, proximal, ell1_sign, semiproximal_positive, log_gap)
        for w in enumerate_ball(rep.presentation, radius).words():
            sp = spectrum(evaluate(crep, w))
            proximal = sp.is_proximal(1) if crep.dim > 1 else False
            rows.append((str(w), len(w), proximal, sp.top_sign or 0,
                         sp.is_semiproximal_positive, sp.log_gap(1) if crep.dim > 1 else 0.0))
        n_proximal = sum(1 for r in rows if r[2])
        n_negative = sum(1 for r in rows if r[2] and r[3] < 0)
        witness = next((r[0] for r in rows if r[2] and r[3] < 0), None)
        if n_proximal == 0:
            verdict = "NoProximalFound"
        elif witness is not None:
            verdict = "NotPositivelyProximal"
        else:
            verdict = "PositivelyProximal"
        report = scan_positivity(rep, k, radius)
        # the scan iterates per class and never forms the compound product, so
        # its gaps agree with the per-word Schur form to rounding, not bit for bit
        columns = (report.words, report.lengths.tolist(), report.proximal.tolist(),
                   report.ell1_sign.tolist(), report.semiproximal_positive.tolist())
        assert list(zip(*columns)) == [r[:5] for r in rows]
        gaps = [r[5] for r in rows]
        if case == "sym5-k3-r4":
            # the 20 x 20 compound's second eigenvalue is off by up to 32% here
            # (bbAB: 2.2795 against 3.3614), so gaps are checked against the
            # exact value, the base translation length 2 acosh(|tr|/2)
            gaps = [0.0] + [2.0 * math.acosh(abs(TestSym5TraceOracle.base_trace(schottky, w)) / 2.0)
                            for w in report.words[1:]]
        np.testing.assert_allclose(report.log_gap, gaps, rtol=1e-9, atol=0.0)
        assert report.n_unresolved == 0 and not report.unresolved.any()
        assert (report.n_proximal, report.n_negative, report.witness, report.verdict) == (
            n_proximal, n_negative, witness, verdict
        )
        assert report.semiproximal_failures == tuple(r[0] for r in rows if not r[4])
