import itertools
import math
import warnings

import numpy as np
import pytest

from anosov import (
    DegreeMismatch,
    DimensionMismatch,
    GapProfile,
    InsufficientRadius,
    NoProximalElements,
    NotBiproximal,
    Presentation,
    Representation,
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
    evaluate_ball,
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
    track_ball_along_path,
    track_ell1_along_path,
)

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
        batch = evaluate_ball(sym5, ball)
        for start in (0, 18):
            expected = next(msg for i, msg in failures if i >= start)
            tail = batch.take(np.arange(start, len(batch)))
            with pytest.raises(SingularInput) as exc:
                log_singular_values(tail)
            assert str(exc.value) == expected
        with pytest.raises(SingularInput) as exc:
            gap_profiles(sym5, [1], 4)
        assert str(exc.value) == failures[0][1]


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
        traces = track_ball_along_path(perturb_path(s5, 0.01, seed=1, steps=4), 2, 2)
        assert len(traces) == len(enumerate_ball(F2, 2)) - 1

    def test_compound_rep_consistent_with_lifted_products(self, schottky):
        crep = compound_rep(sym_power_rep(schottky, 3), 2)
        w = (1, 2, -1)
        via_products = evaluate(crep, w)
        via_lift = compound_matrix(evaluate(sym_power_rep(schottky, 3), w), 2)
        scale = math.exp(via_lift.log_scale - via_products.log_scale)
        np.testing.assert_allclose(via_lift.entries * scale, via_products.entries, rtol=1e-9)


class TestSym5TraceOracle:
    """Lambda^k Sym^5 of a hyperbolic 2x2 image with trace t has gap at 1
    equal to its translation length 2 acosh(|t|/2) and top sign sign(t)^k;
    t comes from the 2x2 product alone, sharing no code with the Schur path."""

    @pytest.fixture(scope="class")
    def reports(self, schottky):
        return scan_positivities(sym_power_rep(schottky, 5), [1, 2, 3], 4)

    @staticmethod
    def base_trace(schottky, word):
        mats = [g.array() for g in schottky.images]
        product = np.eye(2)
        for ch in word:
            m = mats[ord(ch.lower()) - ord("a")]
            product = product @ (np.linalg.inv(m) if ch.isupper() else m)
        return float(np.trace(product))

    def test_signs_and_flags_through_r4(self, schottky, reports):
        for report in reports:
            k = report.k
            assert report.words[0] == "<id>" and not report.proximal[0]
            traces = np.array([self.base_trace(schottky, w) for w in report.words[1:]])
            assert np.all(np.abs(traces) > 2.0)
            sign = np.sign(traces).astype(int) ** k
            assert report.proximal[1:].all()
            assert report.ell1_sign[1:].tolist() == sign.tolist()
            assert report.semiproximal_positive[1:].tolist() == (sign > 0).tolist()

    def test_gaps_through_r2(self, schottky, reports):
        for report in reports:
            rows = [i for i in range(1, len(report.words)) if report.lengths[i] <= 2]
            assert len(rows) == 16
            for i in rows:
                ell = 2.0 * math.acosh(abs(self.base_trace(schottky, report.words[i])) / 2.0)
                assert report.log_gap[i] == pytest.approx(ell, rel=1e-8), (report.k, i)


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
        assert all(s.dynamics_preserving for s in samples)

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
        assert all(s.dynamics_preserving for s in samples)
        assert audit.all_transverse

    @pytest.mark.parametrize("which, k, radius", [("schottky", 1, 5), ("tau2rep", 2, 4)])
    def test_audit_matches_per_pair_loop(self, request, which, k, radius):
        # a threshold of 100 fails a share of the pairs (conditions run from
        # 1 to about 1e4 here), so the failure order is exercised
        samples = limit_map_sample(request.getfixturevalue(which), k, radius)
        points = []
        for s in samples:
            points += [(s.word, s.plus_k, s.plus_dk), (s.inverse_word, s.minus_k, s.minus_dk)]
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
            points += [(s.word, s.plus_k, s.plus_dk), (s.inverse_word, s.minus_k, s.minus_dk)]
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


def per_word_limit_samples(rep, k, radius, eps_gap=1e-8, seed=0):
    """The sampling loop as it ran before the batched reports: one forward
    report per sampled word, then one for its inverse; the oracle for
    limit_map_sample."""
    from anosov.words import word_str
    from word_oracle import conjugacy_key, is_primitive_cyclic

    ball = enumerate_ball(rep.presentation, radius)
    images = evaluate_ball(rep, ball)
    samples, seen, index = [], set(), 0
    for i, w in enumerate(ball.words()):
        if len(w) == 0 or not is_primitive_cyclic(w.letters):
            continue
        key = conjugacy_key(w.letters)
        if key in seen:
            continue
        seen.add(key)
        m = images[i]
        rng = np.random.default_rng([seed, index])
        index += 1
        fwd = proximality_report(m, k, eps_gap=eps_gap, rng=rng)
        minus_k = plus_dk = None
        if fwd.is_biproximal:
            bwd = proximality_report(m.inverse(), k, eps_gap=eps_gap, rng=rng, verify=False)
            minus_k, plus_dk = bwd.attracting_plane, bwd.repelling_plane
        samples.append((str(w), word_str(w.inverse().letters), fwd.is_proximal, fwd.log_gap,
                        fwd.attracting_plane, fwd.repelling_plane, minus_k, plus_dk))
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


class TestLimitMapSampleOracle:
    def assert_matches_oracle(self, rep, k, radius, seed=0):
        samples, warned = warned_messages(limit_map_sample, rep, k, radius, seed=seed)
        expected, expected_warned = warned_messages(per_word_limit_samples, rep, k, radius,
                                                    seed=seed)
        assert len(samples) == len(expected)
        for s, e in zip(samples, expected):
            assert (s.word, s.inverse_word, s.dynamics_preserving) == e[:3]
            assert np.array_equal(s.log_gap, e[3])
            for plane, oracle in zip((s.plus_k, s.minus_dk, s.minus_k, s.plus_dk), e[4:]):
                assert (plane is None) == (oracle is None), s.word
                if plane is not None:
                    assert np.array_equal(plane, oracle), s.word
        assert warned == expected_warned
        return samples, warned

    @pytest.mark.parametrize("seed", range(16))
    def test_schottky_every_benchmark_seed(self, schottky, seed):
        self.assert_matches_oracle(schottky, 1, 5, seed=seed)

    def test_tau2_middle_index(self, tau2rep):
        samples, _ = self.assert_matches_oracle(tau2rep, 2, 4)
        assert any(s.minus_k is not None for s in samples)

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
        # the four samples with gaps below log1p(1e-7) warn forward and
        # for their inverse
        marginal = [s for s in samples if s.log_gap <= math.log1p(1e-7)]
        assert len(warned) == 2 * len(marginal) == 8

    def test_forward_failure_later_loses_to_backward_failure_earlier(
        self, schottky, monkeypatch
    ):
        import anosov.linalg
        from anosov import EigensolveFailure

        # "a" is sampled before "ab"; the batch meets the forward failure of
        # "ab" before it inverts anything, the per-word order meets A first
        planted = {
            evaluate(schottky, parse_word("a")).inverse().entries.tobytes(): "backward of a",
            evaluate(schottky, parse_word("ab")).entries.tobytes(): "forward of ab",
        }
        real = anosov.linalg._invariant_plane

        def failing(entries, *args, **kwargs):
            message = planted.get(np.ascontiguousarray(entries).tobytes())
            if message is not None:
                raise EigensolveFailure(message)
            return real(entries, *args, **kwargs)

        monkeypatch.setattr(anosov.linalg, "_invariant_plane", failing)
        with pytest.raises(EigensolveFailure, match="^backward of a$"):
            limit_map_sample(schottky, 1, 3)
        del planted[evaluate(schottky, parse_word("a")).inverse().entries.tobytes()]
        with pytest.raises(EigensolveFailure, match="^forward of ab$"):
            limit_map_sample(schottky, 1, 3)


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
        traces = track_ball_along_path(path, 2, k)
        words = [w for w in enumerate_ball(F2, 2).words() if len(w) > 0]
        assert traces == [track_ell1_along_path(path, w, k) for w in words]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sliced_ball_walk_matches_per_word_traces(self, schottky, monkeypatch, k):
        # a tiny stack budget reads each step's ball in many uneven slices
        # (and the compound minors one matrix at a time)
        sym5 = sym_power_rep(schottky, 5)
        path = perturb_path(sym5, 0.01, seed=1, steps=8)
        whole = track_ball_along_path(path, 3, k)
        monkeypatch.setattr("anosov.certify.STACK_ELEMENTS", 7 * 400)
        monkeypatch.setattr("anosov.exterior.STACK_ELEMENTS", 1)
        assert track_ball_along_path(path, 3, k) == whole
        words = [w for w in enumerate_ball(F2, 3).words() if len(w) > 0]
        assert whole == [track_ell1_along_path(path, w, k) for w in words]

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
# per-query search
PINGPONG_CASES = {
    "quarter-rotation": (lambda rep: rep, "a", rotation_about_i(math.pi / 2),
                         (1, 0.3162259484789114)),
    "t-word": (lambda rep: rep, "a", parse_word("b"), (3, 0.036833722679266434)),
    "sym2-random-directions": (lambda rep: sym_power_rep(rep, 2), "a", parse_word("b"),
                               (4, 0.012217462078606498)),
}


class TestPingpongOracle:
    @pytest.mark.parametrize("case", list(PINGPONG_CASES))
    def test_every_query_matches_per_query_oracle(self, schottky, monkeypatch, case):
        import anosov.certify as certify

        build, g, t, expected = PINGPONG_CASES[case]
        normals, made, queries = [], {}, []
        real_normal = certify._hyperplane_normal
        real_sines = certify._contraction_sines
        real_sup = certify._contraction_sup

        def spy_normal(plane):
            normals.append(real_normal(plane))
            return normals[-1]

        def spy_sines(entries, x, dirs):
            sines = real_sines(entries, x, dirs)
            made[id(sines)] = (sines, entries, x, dirs)
            return sines

        def spy_sup(sines, separation, delta):
            _, entries, x, dirs = made[id(sines)]
            (normal,) = [n for n in normals if np.array_equal(np.abs(dirs @ n), separation)]
            value = real_sup(sines, separation, delta)
            assert value == contraction_sup_oracle(entries, x, normal, delta, dirs)
            queries.append(delta)
            return value

        monkeypatch.setattr(certify, "_hyperplane_normal", spy_normal)
        monkeypatch.setattr(certify, "_contraction_sines", spy_sines)
        monkeypatch.setattr(certify, "_contraction_sup", spy_sup)
        result = pingpong_power(build(schottky), parse_word(g), t)
        assert (result.n, result.delta) == expected
        assert len(queries) > 100 and len(queries) % 4 == 0

    def test_empty_mask_reads_zero(self):
        from anosov.certify import _contraction_sup

        assert _contraction_sup(np.array([0.5, 0.25]), np.array([0.1, 0.2]), 0.3) == 0.0
        assert _contraction_sup(np.array([0.5, 0.25]), np.array([0.1, 0.2]), 0.15) == 0.25


class TestDeterminism:
    def test_scan_reports_identical(self, schottky):
        r1 = scan_positivity(schottky, 1, 4)
        r2 = scan_positivity(schottky, 1, 4)
        assert r1 == r2

    def test_limit_samples_identical(self, schottky):
        s1 = limit_map_sample(schottky, 1, 3, seed=5)
        s2 = limit_map_sample(schottky, 1, 3, seed=5)
        for a, b in zip(s1, s2):
            assert a.word == b.word
            np.testing.assert_array_equal(a.plus_k, b.plus_k)


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
        columns = (report.words, report.lengths.tolist(), report.proximal.tolist(),
                   report.ell1_sign.tolist(), report.semiproximal_positive.tolist(),
                   report.log_gap.tolist())
        assert list(zip(*columns)) == rows
        assert (report.n_proximal, report.n_negative, report.witness, report.verdict) == (
            n_proximal, n_negative, witness, verdict
        )
        assert report.semiproximal_failures == tuple(r[0] for r in rows if not r[4])
