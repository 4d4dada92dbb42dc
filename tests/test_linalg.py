import math
import warnings

import numpy as np
import pytest

import scipy.linalg

import anosov.linalg as linalg
from anosov import (
    EPS_GAP,
    DimensionMismatch,
    EigensolveFailure,
    MarginalGapWarning,
    ScaledBatch,
    ScaledMatrix,
    SingularInput,
    compound_rep,
    enumerate_ball,
    is_transverse,
    log_singular_values,
    normalize_to_sl,
    orthonormalize,
    proximality_report,
    singular_values,
    spectra,
    spectrum,
    subspace_angle,
    sym_power_rep,
    transverse_mask,
    word_reports,
)
from conftest import ball_images

GOLDEN = (1 + math.sqrt(5)) / 2


def sm(a, log_scale=0.0):
    return ScaledMatrix.from_array(np.asarray(a, dtype=float), log_scale)


class TestScaledMatrix:
    def test_normalization_invariant(self, rng):
        for _ in range(20):
            a = sm(rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-6, 6))
            assert 0.5 <= np.max(np.abs(a.entries)) <= 2.0

    def test_matmul_matches_plain_product(self, rng):
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3))
        prod = sm(x) @ sm(y)
        np.testing.assert_allclose(prod.array(), x @ y, rtol=1e-12)

    def test_long_product_no_overflow(self):
        g = sm(np.diag([1e3, 1e-3]))
        acc = ScaledMatrix.identity(2)
        for _ in range(64):
            acc = acc @ g
        assert np.all(np.isfinite(acc.entries))
        assert acc.log_scale == pytest.approx(64 * math.log(1e3), rel=1e-12)

    def test_inverse_and_power(self, rng):
        a = sm(rng.standard_normal((3, 3)) + 4 * np.eye(3))
        ident = a @ a.inverse()
        assert ident.distance_to_identity() < 1e-12
        np.testing.assert_allclose(a.power(3).array(), a.array() @ a.array() @ a.array(), rtol=1e-10)
        np.testing.assert_allclose(a.power(-2).array(), np.linalg.inv(a.array() @ a.array()), rtol=1e-9)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_batch_matmul_row_by_row(self, rng, d):
        # a batch times a batch of the same length is row i times row i, and
        # a one-row batch on either side is broadcast, bit for bit as
        # ScaledMatrix @; log scales near +-700 add without rounding trouble
        def batch(n):
            scales = rng.choice([-1.0, 1.0], n) * rng.uniform(699.0, 700.0, n)
            return ScaledBatch.stack([sm(rng.standard_normal((d, d)), s) for s in scales])

        a, b, one = batch(50), batch(50), batch(1)
        for product, pairs in ((a @ b, zip(a, b)), (a @ one, ((x, one[0]) for x in a)),
                               (one @ b, ((one[0], y) for y in b))):
            assert len(product) == 50
            for row, (x, y) in zip(product, pairs):
                expected = x @ y
                assert np.array_equal(row.entries, expected.entries)
                assert row.log_scale == expected.log_scale

    def test_singular_row_fails_the_batch_inverse(self):
        batch = ScaledBatch.stack([sm(np.eye(2)), sm([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(SingularInput, match="^matrix is singular$"):
            batch.inverse()
        with pytest.raises(SingularInput, match="^matrix is singular$"):
            batch[1].inverse()

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularInput):
            sm(np.zeros((2, 2)))


def reference_from_arrays(a, log_scale):
    """The normalization written as whole-stack reductions: the row max of
    |entries| over both matrix axes, the finite check before the zero check."""
    m = np.abs(a).max(axis=(1, 2))
    if not np.all(np.isfinite(m)):
        raise SingularInput("matrix has non-finite entries")
    if not np.all(m):
        raise SingularInput("zero matrix cannot be log-scaled")
    return a / m[:, None, None], log_scale + np.log(m)


class TestFromArrays:
    """``ScaledBatch.from_arrays``: one argmax gather for the row max and one
    ``np.log`` for the scales, exact against whole-stack reductions."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_scales_are_numpy_logs_bit_for_bit(self, rng, d):
        n = 300
        a = rng.standard_normal((n, d, d)) * 10.0 ** rng.integers(-300, 300, (n, 1, 1))
        a[::7] = -np.abs(a[::7])  # rows of negative entries only
        a[1::11, 0, : d - 1] = 0.0  # zeros beside a nonzero entry
        log_scale = rng.uniform(-700.0, 700.0, n)
        entries, scales = reference_from_arrays(a, log_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = ScaledBatch.from_arrays(a.copy(), log_scale)
        assert batch.entries.tobytes() == entries.tobytes()
        assert batch.log_scale.tobytes() == scales.tobytes()

    BAD_ROWS = {
        "nan": [[1.0, np.nan], [np.nan, 2.0]],
        "+inf": [[np.inf, 1.0], [0.0, 1.0]],
        "-inf": [[-1.0, -np.inf], [-2.0, -3.0]],
        "inf and nan": [[np.inf, np.nan], [1.0, 1.0]],
        "zero": [[0.0, -0.0], [0.0, 0.0]],
    }

    @pytest.mark.parametrize("bad", [list(BAD_ROWS), ["zero", "nan"], ["zero", "-inf"],
                                     ["+inf", "zero"], ["zero"]])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_failures_as_the_reductions_give_them(self, rng, bad, at):
        # bad rows among negative-only and mixed ones: the same error, the
        # finite check first whatever the row order, and no RuntimeWarning
        rows = [-np.abs(rng.standard_normal((2, 2))), rng.standard_normal((2, 2))] * 2
        rows[at:at] = [np.array(self.BAD_ROWS[name]) for name in bad]
        a, log_scale = np.stack(rows), np.zeros(len(rows))
        with pytest.raises(SingularInput) as expected:
            reference_from_arrays(a.copy(), log_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInput) as got:
                ScaledBatch.from_arrays(a.copy(), log_scale)
        assert str(got.value) == str(expected.value)

    def test_empty_stack(self):
        batch = ScaledBatch.from_arrays(np.empty((0, 3, 3)), np.empty(0))
        assert batch.entries.shape == (0, 3, 3) and batch.log_scale.shape == (0,)

    def test_no_python_log_per_row(self, monkeypatch, schottky2, fuchsian2):
        # scales, the ball walk and the Schur moduli take no math.log call
        balls = [(rep, enumerate_ball(rep.presentation, 4)) for rep in (schottky2, fuchsian2)]

        def no_math_log(*args):
            raise AssertionError("math.log called")

        monkeypatch.setattr(math, "log", no_math_log)
        a = np.arange(1.0, 9.0).reshape(2, 2, 2)
        assert ScaledBatch.from_arrays(a, np.zeros(2)).log_scale.tolist() == [
            float(np.log(4.0)), float(np.log(8.0))]
        for rep, ball in balls:
            images = ball_images(rep, ball)
            assert len(images) == len(ball)
            log_moduli, _, _ = spectra(images.take(slice(1, 40)))
            assert np.all(np.isfinite(log_moduli))


class TestSingularValues:
    def test_identity(self):
        sv = singular_values(ScaledMatrix.identity(5))
        np.testing.assert_allclose(sv.values, np.ones(5), rtol=1e-12)

    def test_diagonal(self):
        sv = singular_values(sm(np.diag([3.0, 1 / 3.0])))
        np.testing.assert_allclose(sv.values, [3.0, 1 / 3.0], rtol=1e-12)

    def test_shear_closed_form(self):
        # g g^T = [[2, 1], [1, 1]] has eigenvalues (3 +- sqrt 5)/2
        sv = singular_values(sm([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sv.values, [GOLDEN, 1 / GOLDEN], rtol=1e-12)

    def test_against_gram_eigenvalues(self, rng):
        # sigma_i(g) = sqrt(lambda_i(g g^T)), independent eigensolve route
        for trial in range(50):
            d = 2 + trial % 9
            a = rng.standard_normal((d, d))
            if abs(np.linalg.det(a)) < 1e-8:
                continue
            lam = np.sort(np.linalg.eigvalsh(a @ a.T))[::-1]
            np.testing.assert_allclose(
                singular_values(sm(a)).log_values, 0.5 * np.log(lam), atol=1e-9
            )

    def test_condition_guard(self):
        with pytest.raises(SingularInput):
            singular_values(sm(np.diag([1e13, 1.0])))

    @pytest.mark.parametrize(
        "order, message",
        [
            ((0, 1, 2), "condition number 1.000e+13 exceeds 1e+12"),
            ((0, 2, 1), "singular matrix"),
        ],
        ids=["ill-conditioned-first", "singular-first"],
    )
    def test_batch_raises_for_first_failing_matrix(self, order, message):
        blocks = [np.eye(2), np.diag([1.0, 1e-13]), np.diag([1.0, 0.0])]
        batch = ScaledBatch(np.stack([blocks[i] for i in order]), np.zeros(3))
        with pytest.raises(SingularInput) as exc:
            log_singular_values(batch)
        assert str(exc.value) == message

    def test_batch_matches_per_matrix(self, rng):
        blocks = [sm(rng.standard_normal((4, 4)), rng.standard_normal()) for _ in range(30)]
        batch = ScaledBatch(
            np.stack([b.entries for b in blocks]), np.array([b.log_scale for b in blocks])
        )
        g = sm(rng.standard_normal((4, 4)), 0.3)
        product = batch @ g
        log_sv = log_singular_values(product)
        for i, b in enumerate(blocks):
            single = b @ g
            assert np.array_equal(product[i].entries, single.entries)
            assert product[i].log_scale == single.log_scale
            assert np.array_equal(log_sv[i], singular_values(single).log_values)

    @pytest.mark.parametrize(
        "block, message",
        [(np.full((2, 2), np.nan), "non-finite"), (np.zeros((2, 2)), "zero matrix")],
    )
    def test_batch_product_normalization_checks(self, block, message):
        batch = ScaledBatch(np.stack([np.eye(2), block]), np.zeros(2))
        with pytest.raises(SingularInput, match=message):
            batch @ ScaledMatrix.identity(2)

    def test_log_gap_index_range(self):
        sv = singular_values(ScaledMatrix.identity(3))
        with pytest.raises(DimensionMismatch):
            sv.log_gap(3)


class TestSpectrum:
    def test_positive_diagonal(self):
        sp = spectrum(sm(np.diag([2.0, 1.0, 0.5])))
        np.testing.assert_allclose(sp.moduli, [2.0, 1.0, 0.5], rtol=1e-12)
        assert sp.top_signed == pytest.approx(2.0)
        assert sp.is_semiproximal_positive

    def test_negative_diagonal(self):
        sp = spectrum(sm(np.diag([-2.0, 1.0, -0.5])))
        np.testing.assert_allclose(sp.moduli, [2.0, 1.0, 0.5], rtol=1e-12)
        assert sp.top_signed == pytest.approx(-2.0)
        assert not sp.is_semiproximal_positive

    def test_rotation_pair(self):
        sp = spectrum(sm([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sp.moduli, [1.0, 1.0], rtol=1e-12)
        assert sp.top_sign is None
        assert not sp.is_semiproximal_positive

    def test_top_signed_matches_modulus(self, rng):
        for _ in range(30):
            g = sm(rng.standard_normal((5, 5)))
            sp = spectrum(g)
            if sp.top_signed is not None:
                assert abs(abs(sp.top_signed) - sp.moduli[0]) <= 1e-9 * sp.moduli[0]

    def test_log_scale_shifts_moduli(self, rng):
        a = rng.standard_normal((4, 4))
        base = spectrum(sm(a))
        shifted = spectrum(sm(a, log_scale=5.0))
        np.testing.assert_allclose(shifted.log_moduli, base.log_moduli + 5.0, atol=1e-12)


class TestProximalityReport:
    def test_diagonal_k1(self):
        rep = proximality_report(sm(np.diag([2.0, 1.0, 0.5])), 1)
        assert rep.is_proximal and rep.is_biproximal and rep.is_positively_proximal
        assert rep.gap_eig == pytest.approx(2.0)
        np.testing.assert_allclose(np.abs(rep.attracting_plane.ravel()), [1, 0, 0], atol=1e-12)
        assert rep.repelling_plane.shape == (3, 2)

    def test_negative_top_not_positively_proximal(self):
        rep = proximality_report(sm(np.diag([-2.0, 1.0, -0.5])), 1)
        assert rep.is_proximal
        assert rep.is_positively_proximal is False

    def test_diagonal_k2(self):
        rep = proximality_report(sm(np.diag([3.0, 2.0, 1.0])), 2)
        assert rep.is_proximal
        assert rep.gap_eig == pytest.approx(2.0)
        span = rep.attracting_plane
        np.testing.assert_allclose(span.T @ np.array([[0.0], [0.0], [1.0]]), 0, atol=1e-12)
        assert rep.is_positively_proximal is None

    def test_not_proximal_is_flag_not_error(self):
        rep = proximality_report(sm([[0.0, -1.0], [1.0, 0.0]]), 1)
        assert not rep.is_proximal
        assert rep.attracting_plane is None and rep.repelling_plane is None

    def test_marginal_gap_warns(self):
        with pytest.warns(MarginalGapWarning):
            rep = proximality_report(sm(np.diag([1.0 + 5e-8, 1.0])), 1)
        assert rep.is_proximal

    def test_planes_invariant_and_transverse(self, rng):
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + np.diag([6.0, 3.0, 0, 0, 0])
            g = sm(a)
            sp = spectrum(g)
            for k in (1, 2):
                if not sp.is_proximal(k):
                    continue
                rep = proximality_report(g, k)
                img = orthonormalize(a @ rep.attracting_plane)
                assert subspace_angle(img, rep.attracting_plane) < 1e-8
                img = orthonormalize(a @ rep.repelling_plane)
                assert subspace_angle(img, rep.repelling_plane) < 1e-8
                assert is_transverse(rep.attracting_plane, rep.repelling_plane)

    def test_power_iteration_convergence(self, rng):
        # 20 random transverse starts all converge to the attracting plane
        g = sm(np.diag([4.0, 3.5, 1.0, 0.4]) + 0.1 * rng.standard_normal((4, 4)))
        rep = proximality_report(g, 2)
        for _ in range(20):
            v = orthonormalize(rng.standard_normal((4, 2)))
            if not is_transverse(v, rep.repelling_plane):
                continue
            for _ in range(200):
                v = orthonormalize(g.entries @ v)
                if subspace_angle(v, rep.attracting_plane) < 1e-6:
                    break
            assert subspace_angle(v, rep.attracting_plane) < 1e-6

    def test_audit_refuses_an_invariant_plane_that_does_not_attract(self, monkeypatch):
        # at k = 1 on diag(3, 2, 1) the line e2 is invariant, so it passes
        # the invariance check; a frame that leads with it, its modulus read
        # from column 0 and the top one from column 1, is refused
        real = linalg.class_spectra

        def second_axis_first(letters, words):
            found = real(letters, words)
            swap = [1, 0, 2]
            return found._replace(frames=found.frames[:, :, swap],
                                  columns=np.array(swap)[found.columns])

        monkeypatch.setattr(linalg, "class_spectra", second_axis_first)
        g = sm(np.diag([3.0, 2.0, 1.0]))
        message = "^largest moduli not read from the leading frame columns$"
        with pytest.raises(EigensolveFailure, match=message):
            proximality_report(g, 1)
        monkeypatch.undo()
        np.testing.assert_allclose(np.abs(proximality_report(g, 1).attracting_plane),
                                   np.eye(3)[:, :1], atol=1e-12)

    def test_unsettled_word_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_PERIODS", 1)
        with pytest.raises(EigensolveFailure, match="^eigenvalues did not settle within 1 periods$"):
            proximality_report(sm(np.diag([3.0, 2.0, 1.0])), 1)

    def test_plane_that_is_not_invariant_raises(self, monkeypatch):
        # a frame turned off its invariant flag by a small rotation, with the
        # columns it claims: only the invariance check can refuse it
        real = linalg.class_spectra
        turn = np.linalg.qr(np.eye(3) + 1e-3 * np.arange(9.0).reshape(3, 3))[0]

        def turned(letters, words):
            found = real(letters, words)
            return found._replace(frames=found.frames @ turn)

        monkeypatch.setattr(linalg, "class_spectra", turned)
        with pytest.raises(EigensolveFailure, match="^computed plane is not invariant$"):
            proximality_report(sm(np.diag([3.0, 2.0, 1.0])), 1)

    def test_matches_spectrum_gap(self, rng):
        # proximality_report verdict agrees with the spectrum gap on randoms
        for _ in range(40):
            d = int(rng.integers(2, 7))
            g = sm(rng.standard_normal((d, d)))
            sp = spectrum(g)
            for k in range(1, d):
                report = proximality_report(g, k)
                assert report.is_proximal == sp.is_proximal(k)
                assert report.is_biproximal == (sp.is_proximal(k) and sp.is_proximal(d - k))


def report_fields(report):
    return (report.k, report.gap_eig, report.log_gap, report.is_proximal,
            report.is_biproximal, report.is_positively_proximal)


def one_letter_words(batch):
    """Every matrix of a batch as a one-letter word of :func:`word_reports`."""
    return [np.arange(len(batch))[:, None]]


def assert_same_report(report, expected):
    assert report_fields(report) == report_fields(expected)
    for name in ("attracting_plane", "repelling_plane", "inverse_attracting_plane",
                 "inverse_repelling_plane"):
        plane, oracle = getattr(report, name), getattr(expected, name)
        assert (plane is None) == (oracle is None)
        if plane is not None:
            assert np.array_equal(plane, oracle)


class TestProximalityReports:
    @pytest.mark.parametrize("m, k", [(1, 1), (3, 1), (3, 2), (5, 3)])
    def test_rows_are_one_row_reports(self, schottky2, m, k):
        rep = sym_power_rep(schottky2, m) if m > 1 else schottky2
        batch = ball_images(rep, enumerate_ball(rep.presentation, 2))
        batch = batch.take(slice(1, None))  # the identity has no planes to compare
        reports = word_reports(batch, one_letter_words(batch), k)
        assert len(reports) == len(batch)
        assert any(r.is_proximal for r in reports)
        for i, report in enumerate(reports):
            assert_same_report(report, proximality_report(batch[i], k))

    def test_random_rows_and_inverses(self, rng):
        batch = ScaledBatch.stack([sm(rng.standard_normal((5, 5))) for _ in range(60)])
        inverses = batch.inverse()
        for i in range(len(batch)):
            # the one-row inverse as it was computed before ScaledBatch.inverse
            inverse = ScaledMatrix.from_array(np.linalg.inv(batch[i].entries), -batch[i].log_scale)
            assert np.array_equal(inverses.entries[i], inverse.entries)
            assert inverses.log_scale[i] == inverse.log_scale
        for k in (1, 2, 4):
            for stack in (batch, inverses):
                reports = word_reports(stack, one_letter_words(stack), k)
                for i, report in enumerate(reports):
                    assert_same_report(report, proximality_report(stack[i], k))

    def test_empty_batch(self):
        empty = ScaledBatch.stack([sm(np.eye(3))]).take(slice(0))
        assert word_reports(empty, one_letter_words(empty), 1) == []

    def test_one_warning_per_marginal_row(self):
        batch = ScaledBatch.stack([sm(np.diag([1.0 + 5e-8, 1.0])), sm(np.diag([2.0, 1.0])),
                                   sm(np.diag([1.0 + 3e-8, 1.0]))])
        with pytest.warns(MarginalGapWarning) as caught:
            word_reports(batch, one_letter_words(batch), 1)
        assert len(caught) == 2
        with pytest.warns(MarginalGapWarning) as caught_one:
            proximality_report(batch[0], 1)
        # both name the line that called them
        assert all(w.filename == __file__ for w in [*caught, *caught_one])

    def test_failing_batch_raises_without_warning(self, monkeypatch):
        batch = ScaledBatch.stack([sm(np.diag([1.0 + 5e-8, 1.0])), sm(np.diag([3.0, 1.0]))])

        real, calls = linalg.class_spectra, []

        def failing(letters, words):
            calls.append(words)
            if len(calls) == 2:  # the transpose word's frames
                raise EigensolveFailure("planted")
            return real(letters, words)

        monkeypatch.setattr(linalg, "class_spectra", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolveFailure, match="planted"):
                word_reports(batch, one_letter_words(batch), 1)

    def test_stacked_qr_and_angles_match_per_matrix(self, rng):
        a = rng.standard_normal((40, 6, 3))
        q = orthonormalize(a)
        b = orthonormalize(rng.standard_normal((40, 6, 3)))
        sines = subspace_angle(q, b)
        assert sines.shape == (40,)
        for i in range(40):
            assert np.array_equal(q[i], orthonormalize(a[i]))
            assert sines[i] == subspace_angle(q[i], b[i])


class TestTransversality:
    def test_coordinate_planes(self):
        e = np.eye(3)
        assert is_transverse(e[:, :1], e[:, 1:])

    def test_containment_fails(self):
        e = np.eye(3)
        # <e1> vs <e1, e2>: dimensions sum to 3 but the spans overlap
        assert not is_transverse(e[:, :1], e[:, :2])

    def test_near_containment_fails_at_default_threshold(self):
        v = np.array([[1.0], [1e-12], [0.0]])
        v /= np.linalg.norm(v)
        w = np.eye(3)[:, [0, 2]]
        assert not is_transverse(v, w)

    def test_dimension_sum_enforced(self):
        e = np.eye(4)
        with pytest.raises(DimensionMismatch):
            is_transverse(e[:, :1], e[:, 1:3])


class TestStackedTransversality:
    """``transverse_mask`` against a per-pair loop of ``np.linalg.svd``."""

    THRESHOLD = 50.0

    @staticmethod
    def per_pair(v, planes, threshold):
        out = []
        for w in planes:
            sv = np.linalg.svd(np.hstack([v, w]), compute_uv=False)
            out.append(bool(sv[-1] > 0.0 and sv[0] / sv[-1] < threshold))
        return out

    def adversarial_planes(self, rng):
        # d = 4, k = 2: v = <e0, e1>; planes <cos t e0 + sin t e2, e3> have
        # cond[v|w] = sqrt((1 + cos t) / (1 - cos t)), so t is solved for
        # condition numbers just below and just above the threshold
        e = np.eye(4)
        v = e[:, :2]
        planes = [e[:, 2:], e[:, [0, 2]], e[:, [1, 3]]]  # transverse, then exactly dependent
        for factor in (1 - 1e-3, 1 + 1e-3, 1 - 1e-4, 1 + 1e-4):
            c2 = (self.THRESHOLD * factor) ** 2
            cos_t = (c2 - 1) / (c2 + 1)
            sin_t = np.sqrt(1 - cos_t**2)
            planes.append(np.stack([cos_t * e[0] + sin_t * e[2], e[3]], axis=1))
        planes += [orthonormalize(rng.standard_normal((4, 2))) for _ in range(20)]
        q = orthonormalize(rng.standard_normal((4, 4)))
        return v, np.stack(planes), q

    def test_matches_per_pair_svd(self, rng):
        v, planes, q = self.adversarial_planes(rng)
        assert np.linalg.svd(np.hstack([v, planes[1]]), compute_uv=False)[-1] == 0.0
        expected = self.per_pair(v, planes, self.THRESHOLD)
        assert expected[:7] == [True, False, False, True, False, True, False]
        mask = transverse_mask(v, planes, self.THRESHOLD)
        assert mask.tolist() == expected
        assert [is_transverse(v, w, self.THRESHOLD) for w in planes] == expected
        # the same configuration in general position
        rotated = q @ planes
        assert transverse_mask(q @ v, rotated, self.THRESHOLD).tolist() == self.per_pair(
            q @ v, rotated, self.THRESHOLD
        )

    def test_nan_plane_raises_like_per_pair(self, rng):
        v, planes, _ = self.adversarial_planes(rng)
        planes[5, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as per_pair:
            self.per_pair(v, planes, self.THRESHOLD)
        with pytest.raises(np.linalg.LinAlgError) as stacked:
            transverse_mask(v, planes, self.THRESHOLD)
        assert str(stacked.value) == str(per_pair.value)

    def test_dimension_checks(self):
        e = np.eye(4)
        with pytest.raises(DimensionMismatch, match="do not sum"):
            transverse_mask(e[:, :1], np.stack([e[:, 1:3]]))
        with pytest.raises(DimensionMismatch, match="same space"):
            transverse_mask(e[:, :2], e[:, 2:])
        with pytest.raises(DimensionMismatch, match="same space"):
            is_transverse(e[:, :2], np.stack([e[:, 2:]]))


class TestAllPairsTransversality:
    """The all-pairs kernel against the per-pair SVD oracle of
    :class:`TestStackedTransversality`, on planes placed at the condition
    threshold and at the determinant screen's bound."""

    per_pair = staticmethod(TestStackedTransversality.per_pair)

    @staticmethod
    def screen_bound(threshold):
        return max(4.0 / threshold, 1e-10)

    def planes(self, rng, d, k, threshold):
        # v0 = <e0, ..., e_{k-1}>; w(t) = <cos t e0 + sin t e_k, e_{k+1}, ...>
        # meets v0 at one principal angle t, the rest right angles, so
        # cond[v0 | w(t)] = cot(t / 2) and |det[v0 | w(t)]| = sin t
        e = np.eye(d)

        def w(t):
            return np.column_stack([np.cos(t) * e[0] + np.sin(t) * e[k], *e[k + 1 :]])

        angles = [0.0, math.pi / 2]  # exactly dependent, orthogonal
        for factor in (1 - 1e-4, 1 + 1e-4):
            angles.append(2 * math.atan(1 / (threshold * factor)))
            if self.screen_bound(threshold) * factor < 1:
                angles.append(math.asin(self.screen_bound(threshold) * factor))
        planes = [w(t) for t in angles]
        planes += [orthonormalize(rng.standard_normal((d, d - k))) for _ in range(6)]
        q = orthonormalize(rng.standard_normal((d, d)))
        v0 = e[:, :k]
        k_planes = np.stack([v0, q @ v0, orthonormalize(rng.standard_normal((d, k)))])
        return k_planes, np.concatenate([planes, q @ np.stack(planes)])

    @pytest.mark.parametrize("threshold", [1.5, 50.0, 1e8, 1e300])
    @pytest.mark.parametrize("d, k", [(2, 1), (4, 2), (6, 3)])
    def test_matches_per_pair_svd(self, rng, monkeypatch, d, k, threshold):
        k_planes, dk_planes = self.planes(rng, d, k, threshold)
        sent = []

        def recording(pairs, cond_threshold):
            sent.append(pairs.copy())
            return rule(pairs, cond_threshold)

        rule = linalg._condition_rule
        monkeypatch.setattr(linalg, "_condition_rule", recording)
        mask = transverse_mask(k_planes, dk_planes, threshold)
        expected = [self.per_pair(v, dk_planes, threshold) for v in k_planes]
        assert mask.shape == (len(k_planes), len(dk_planes))
        assert mask.tolist() == expected
        assert expected[0][:2] == [False, threshold > 1]  # dependent, orthogonal
        for i, v in enumerate(k_planes):
            assert transverse_mask(v, dk_planes, threshold).tolist() == expected[i]
            assert [is_transverse(v, w, threshold) for w in dk_planes] == expected[i]
        # only pairs the determinant cannot decide reach the SVD
        dets = np.abs(np.linalg.det(np.concatenate(sent)))
        assert np.all(dets <= self.screen_bound(threshold) * (1 + 1e-9))
        if threshold > 4:
            assert 0 < len(dets) < 3 * mask.size  # the 1 x n and 1 x 1 reruns included

    @pytest.mark.parametrize("d, k", [(2, 1), (4, 2), (6, 3)])
    def test_nan_plane_raises_like_per_pair(self, rng, d, k):
        k_planes, dk_planes = self.planes(rng, d, k, 50.0)
        dk_planes[3, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as per_pair:
            self.per_pair(k_planes[0], dk_planes, 50.0)
        with pytest.raises(np.linalg.LinAlgError) as all_pairs:
            transverse_mask(k_planes, dk_planes, 50.0)
        assert str(all_pairs.value) == str(per_pair.value) == "SVD did not converge"

    @pytest.mark.parametrize("d, k", [(2, 1), (4, 2), (6, 3)])
    def test_infinite_plane_reads_like_per_pair(self, rng, d, k):
        # LAPACK returns NaN singular values here rather than raising
        k_planes, dk_planes = self.planes(rng, d, k, 50.0)
        dk_planes[3, 0, 0] = np.inf
        expected = [self.per_pair(v, dk_planes, 50.0) for v in k_planes]
        assert not any(row[3] for row in expected)
        assert transverse_mask(k_planes, dk_planes, 50.0).tolist() == expected

    @pytest.mark.parametrize("d, k", [(4, 2), (6, 3)])
    def test_rounding_level_determinants_go_to_the_svd(self, rng, d, k):
        # exactly dependent pairs in general position: |det| is rounding,
        # up to about 1e-16, and cond up to about 1e18, so near T = 1e17
        # only the 1e-10 floor keeps the screen from deciding them
        e = np.eye(d)
        q = orthonormalize(rng.standard_normal((100, d, d)))
        k_planes = q @ e[:, :k]
        dk_planes = q @ np.column_stack([e[0], *e[k + 1 :]])
        mask = transverse_mask(k_planes, dk_planes, 1e17)
        assert np.diagonal(mask).tolist() == [
            self.per_pair(v, w[None], 1e17)[0] for v, w in zip(k_planes, dk_planes)
        ]

    @pytest.mark.parametrize("budget", [1, 24 * 36 * 5])  # 1 and 5 of the 43 rows per block
    def test_row_blocks_give_the_same_mask(self, rng, monkeypatch, budget):
        k_planes, dk_planes = self.planes(rng, 6, 3, 1e3)
        k_planes = np.concatenate([k_planes, orthonormalize(rng.standard_normal((40, 6, 3)))])
        whole = transverse_mask(k_planes, dk_planes, 1e3)
        where = rng.random(whole.shape) < 0.7
        masked = transverse_mask(k_planes, dk_planes, 1e3, where)
        monkeypatch.setattr(linalg, "STACK_ELEMENTS", budget)
        assert np.array_equal(transverse_mask(k_planes, dk_planes, 1e3), whole)
        assert np.array_equal(transverse_mask(k_planes, dk_planes, 1e3, where), masked)
        assert np.array_equal(masked, whole & where)


def read_schur_form(t, eps_gap):
    """Log moduli, top sign (0 if undefined) and semi-proximal positivity of
    one real Schur form, read by walking down its diagonal: the per-matrix
    reader ``spectra`` used before it classified a batch's bands at once."""
    eigs = []  # (log-modulus, is_real, signed value or 0)
    d, i = t.shape[0], 0
    while i < d:
        if i + 1 < d and t[i + 1, i] != 0.0:
            det = t[i, i] * t[i + 1, i + 1] - t[i, i + 1] * t[i + 1, i]
            if det <= 0.0:
                raise EigensolveFailure("non-standard 2x2 Schur block")
            eigs += [(0.5 * float(np.log(det)), False, 0.0)] * 2
            i += 2
        else:
            val = float(t[i, i])
            if val == 0.0:
                raise SingularInput("zero eigenvalue")
            eigs.append((float(np.log(abs(val))), True, val))
            i += 1
    eigs.sort(key=lambda e: -e[0])
    tol = math.log1p(eps_gap)
    attained = [e for e in eigs if eigs[0][0] - e[0] <= tol]
    top_sign = 0
    if len(attained) == 1 and attained[0][1]:
        top_sign = 1 if attained[0][2] > 0 else -1
    return [e[0] for e in eigs], top_sign, any(e[1] and e[2] > 0 for e in attained)


def spectra_oracle(batch, eps_gap=EPS_GAP, forms=None):
    """The columns of ``spectra`` from one ``scipy.linalg.schur`` per matrix
    (or the planted ``forms[i]``), read row by row."""
    rows = []
    for i, a in enumerate(batch.entries):
        t = (forms or {}).get(i)
        rows.append(read_schur_form(scipy.linalg.schur(a, output="real")[0] if t is None else t, eps_gap))
    d = batch.entries.shape[-1]
    log_moduli = np.array([r[0] for r in rows]).reshape(len(rows), d) + batch.log_scale[:, None]
    return (
        log_moduli,
        np.array([r[1] for r in rows], dtype=int),
        np.array([r[2] for r in rows], dtype=bool),
    )


def rotation(r, theta):
    return r * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


class TestSpectraFailureOrder:
    """``spectra`` raises what a per-matrix ``spectrum`` loop raises first."""

    @pytest.mark.parametrize("singular_row, schur_row", [(1, 3), (3, 1)])
    def test_first_failure_in_batch_order(self, rng, monkeypatch, singular_row, schur_row):
        blocks = [sm(rng.standard_normal((3, 3)) + 3 * np.eye(3)).entries for _ in range(5)]
        blocks[singular_row] = np.diag([1.0, 0.5, 0.0])
        batch = ScaledBatch(np.stack(blocks), rng.standard_normal(5))
        real_schur = linalg._real_schur

        def schur(a, *args, **kwargs):
            if np.array_equal(a, blocks[schur_row]):
                raise EigensolveFailure(f"planted failure at row {schur_row}")
            return real_schur(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_real_schur", schur)
        with pytest.raises((SingularInput, EigensolveFailure)) as per_matrix:
            for i in range(len(batch)):
                spectrum(batch[i])
        with pytest.raises((SingularInput, EigensolveFailure)) as stacked:
            spectra(batch)
        expected = (
            (SingularInput, "singular matrix")
            if singular_row < schur_row
            else (EigensolveFailure, f"planted failure at row {schur_row}")
        )
        assert (type(per_matrix.value), str(per_matrix.value)) == expected
        assert (type(stacked.value), str(stacked.value)) == expected

    def test_matches_per_matrix(self, rng):
        batch = ScaledBatch(
            np.stack([sm(rng.standard_normal((4, 4))).entries for _ in range(20)]),
            rng.standard_normal(20),
        )
        log_moduli, top_sign, semi_positive = spectra(batch, eps_gap=1e-6)
        for i in range(len(batch)):
            single = spectrum(batch[i], eps_gap=1e-6)
            assert np.array_equal(log_moduli[i], single.log_moduli)
            assert (top_sign[i] or None, semi_positive[i]) == (
                single.top_sign,
                single.is_semiproximal_positive,
            )

    def test_empty_batch_gives_empty_columns(self):
        batch = ScaledBatch(np.empty((0, 3, 3)), np.empty(0))
        log_moduli, top_sign, semi_positive = TestSpectraOracle.assert_columns_equal(batch)
        assert (log_moduli.shape, top_sign.shape, semi_positive.shape) == ((0, 3), (0,), (0,))


class TestSpectraOracle:
    """``spectra``'s batched band classification equals the per-matrix reader
    over ``scipy.linalg.schur``, bit for bit."""

    @staticmethod
    def batch(rng, matrices):
        entries = np.stack([sm(a).entries for a in matrices])
        return ScaledBatch(entries, rng.standard_normal(len(matrices)))

    @staticmethod
    def conjugated(rng, *blocks):
        a = scipy.linalg.block_diag(*blocks)
        q = orthonormalize(rng.standard_normal(a.shape))
        return q @ a @ q.T

    @staticmethod
    def assert_columns_equal(batch, eps_gap=EPS_GAP):
        columns = spectra(batch, eps_gap)
        expected = spectra_oracle(batch, eps_gap)
        for got, want in zip(columns, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        return columns

    @pytest.mark.parametrize(
        "case, top_signs",
        [
            ("complex-pair-top", [0, 0, 0]),
            ("negative-real-top", [-1, -1, -1]),
            ("moduli-within-eps-gap", [0, 0, 0]),
            ("equal-moduli", [0, 0, 0]),
        ],
    )
    def test_constructed_spectra(self, rng, case, top_signs):
        make = {
            "complex-pair-top": lambda: self.conjugated(
                rng, rotation(3.0, rng.uniform(0.2, 3.0)), np.diag([1.0, -0.5])
            ),
            "negative-real-top": lambda: self.conjugated(
                rng, np.diag([-3.0, 1.5]), rotation(0.7, rng.uniform(0.2, 3.0))
            ),
            "moduli-within-eps-gap": lambda: self.conjugated(
                rng, np.diag([2.0, 2.0 * (1 + 1e-10), -0.5, 0.3])
            ),
            "equal-moduli": lambda: np.diag(rng.permutation([-2.0, 2.0, 0.5, -0.5])),
        }[case]
        columns = self.assert_columns_equal(self.batch(rng, [make() for _ in range(3)]))
        assert columns[1].tolist() == top_signs

    def test_exactly_equal_moduli(self):
        # a complex pair and two reals of modulus 2 tie at the top
        a = scipy.linalg.block_diag(np.diag([0.5, -2.0]), rotation(2.0, math.pi / 2), [[2.0]])
        batch = ScaledBatch(np.stack([a / 2]), np.array([math.log(2)]))
        log_moduli, top_sign, semi_positive = self.assert_columns_equal(batch)
        assert (top_sign[0], semi_positive[0]) == (0, True)

    @pytest.mark.parametrize("d", [1, 2])
    def test_small_dimensions(self, rng, d):
        matrices = [rng.standard_normal((d, d)) for _ in range(20)]
        if d == 2:
            matrices += [rotation(2.0, 1.0), np.diag([-3.0, 0.5]), np.array([[1.0, 2.0], [0.0, 1.0]])]
        self.assert_columns_equal(self.batch(rng, matrices))

    def test_random_batch(self, rng):
        # 2,000 moduli: enough that np.log would differ from math.log somewhere
        self.assert_columns_equal(self.batch(rng, rng.standard_normal((400, 5, 5))), eps_gap=1e-3)

    def test_sym5_third_compound_ball(self, schottky2):
        sym5 = sym_power_rep(schottky2, 5)
        batch = ball_images(compound_rep(sym5, 3), enumerate_ball(sym5.presentation, 4))
        assert batch.entries.shape[1:] == (20, 20)
        self.assert_columns_equal(batch)

    def test_sym5_third_compound_r6_zero_eigenvalue(self, schottky2):
        sym5 = sym_power_rep(schottky2, 5)
        batch = ball_images(compound_rep(sym5, 3), enumerate_ball(sym5.presentation, 6))
        with pytest.raises(SingularInput) as stacked:
            spectra(batch)
        with pytest.raises(SingularInput) as per_matrix:
            spectra_oracle(batch)
        assert str(stacked.value) == str(per_matrix.value) == "zero eigenvalue"

    BAD_BLOCK = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # det 0, then 0
    ZERO_FIRST = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 3.0, 1.0]])  # 0, then det -5
    # two nonzero subdiagonal entries in a row: the second belongs to the block
    # the first opens, so the form reads as a pair of modulus sqrt(3), then 3
    ADJACENT = np.array([[1.0, -2.0, 0.0], [1.0, 1.0, 0.0], [0.0, 7.0, 3.0]])

    def planted_batch(self, rng, monkeypatch, plants):
        """A batch of five matrices whose Schur forms at rows ``plants`` are replaced."""
        batch = self.batch(rng, [rng.standard_normal((3, 3)) + 3 * np.eye(3) for _ in range(5)])
        forms = {row: getattr(self, name) for row, name in plants.items()}
        real_schur = linalg._real_schur

        def schur(a, *args, **kwargs):
            for row, t in forms.items():
                if np.array_equal(a, batch.entries[row]):
                    return t
            return real_schur(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_real_schur", schur)
        return batch, forms

    @pytest.mark.parametrize(
        "plants, expected",
        [
            ({1: "BAD_BLOCK", 3: "ZERO_FIRST"}, (EigensolveFailure, "non-standard 2x2 Schur block")),
            ({1: "ZERO_FIRST", 3: "BAD_BLOCK"}, (SingularInput, "zero eigenvalue")),
        ],
    )
    def test_planted_schur_forms_fail_in_order(self, rng, monkeypatch, plants, expected):
        batch, forms = self.planted_batch(rng, monkeypatch, plants)
        with pytest.raises((SingularInput, EigensolveFailure)) as stacked:
            spectra(batch)
        with pytest.raises((SingularInput, EigensolveFailure)) as per_matrix:
            spectra_oracle(batch, forms=forms)
        assert (type(stacked.value), str(stacked.value)) == expected
        assert (type(per_matrix.value), str(per_matrix.value)) == expected

    def test_adjacent_subdiagonal_entries_read_as_one_block(self, rng, monkeypatch):
        batch, forms = self.planted_batch(rng, monkeypatch, {2: "ADJACENT"})
        for got, want in zip(spectra(batch), spectra_oracle(batch, forms=forms)):
            assert np.array_equal(got, want)


class TestClassSpectra:
    """``class_spectra`` against ``np.linalg.eigvals`` of short, well-conditioned
    formed products, and on the structures that settle only as 2-planes."""

    @staticmethod
    def letters(rng, d, count):
        mats = []
        for _ in range(count):
            a = rng.standard_normal((d, d))
            mats.append(a / abs(np.linalg.det(a)) ** (1 / d))
        return ScaledBatch.stack([sm(a) for a in mats]), mats

    def test_random_products_match_eigvals(self, rng):
        d = 5
        batch, mats = self.letters(rng, d, 3)
        words = [rng.integers(0, 3, size=(40, r)) for r in (1, 2, 3, 4)]
        found = linalg.class_spectra(batch, words)
        rows = [w for group in words for w in group]
        assert found.log_moduli.shape == (len(rows), d) and not found.unresolved.any()
        for i, w in enumerate(rows):
            product = np.linalg.multi_dot([mats[l] for l in w] + [np.eye(d)])
            eig = np.linalg.eigvals(product)
            eig = eig[np.argsort(-np.abs(eig), kind="stable")]
            np.testing.assert_allclose(found.log_moduli[i], np.log(np.abs(eig)),
                                       rtol=1e-9, atol=1e-9)
            real = np.abs(eig.imag) <= 1e-9 * np.abs(eig)
            signs = found.signs[i]
            assert ((signs == 0) == ~real).all(), (w, eig, signs)
            assert (signs[real] == np.sign(eig.real[real])).all(), (w, eig, signs)

    def test_scales_add_per_letter(self):
        batch = ScaledBatch.stack([sm(np.diag([2.0, 0.5]), 1.5), sm(np.diag([1.0, 1.0]), -0.25)])
        found = linalg.class_spectra(batch, [np.array([[0, 1, 0]])])
        np.testing.assert_allclose(found.log_moduli[0], [2 * math.log(2) + 2.75, -2 * math.log(2) + 2.75],
                                   rtol=1e-13)

    def test_complex_pair_and_opposite_real_pair_settle_as_planes(self, rng):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        pair = q @ np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.25]]) @ q.T
        opposite = q @ np.diag([2.0, -2.0, 0.25]) @ q.T
        found = linalg.class_spectra(ScaledBatch.stack([sm(pair), sm(opposite)]),
                                     [np.array([[0], [1]])])
        assert not found.unresolved.any()
        np.testing.assert_allclose(found.log_moduli, [[math.log(2)] * 2 + [math.log(0.25)]] * 2,
                                   rtol=1e-12)
        assert found.signs[0].tolist() == [0, 0, 1]
        assert sorted(found.signs[1, :2].tolist()) == [-1, 1] and found.signs[1, 2] == 1

    def test_equal_moduli_settle_as_one_group(self):
        # a rotation of R^3 has three eigenvalues of modulus 1: no split inside
        # them ever settles, and the group is read from its 3 x 3 block
        axis = np.ones(3) / math.sqrt(3.0)
        cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                          [-axis[1], axis[0], 0.0]])
        turn = np.eye(3) + math.sin(1.0) * cross + (1 - math.cos(1.0)) * cross @ cross
        found = linalg.class_spectra(ScaledBatch.stack([sm(turn)]), [np.array([[0]])])
        assert found.unresolved.tolist() == [False]
        np.testing.assert_allclose(found.log_moduli, 0.0, atol=1e-12)
        assert sorted(found.signs[0].tolist()) == [0, 0, 1]

    def test_parabolic_class_settles_at_modulus_one(self):
        # a parabolic element with a long shear: its one split closes like 1/p,
        # but its 2-column group has a settled determinant and narrows
        q = np.linalg.qr(np.array([[1.0, 2.0], [-0.5, 1.0]]))[0]
        shear = q @ np.array([[1.0, 1e3], [0.0, 1.0]]) @ q.T
        found = linalg.class_spectra(ScaledBatch.stack([sm(shear)]), [np.array([[0]])])
        assert found.unresolved.tolist() == [False]
        np.testing.assert_allclose(found.log_moduli, 0.0, atol=1e-9)
        assert found.signs.tolist() == [[1, 1]]

    def test_unsettled_class_is_unresolved(self, monkeypatch):
        # a word is read only when two periods agree
        monkeypatch.setattr(linalg, "MAX_PERIODS", 1)
        found = linalg.class_spectra(ScaledBatch.stack([sm(np.diag([2.0, 0.5]))]),
                                     [np.array([[0], [0]])])
        assert found.unresolved.tolist() == [True, True]
        assert np.isnan(found.log_moduli).all() and (found.signs == 0).all()

    def test_no_words(self):
        found = linalg.class_spectra(ScaledBatch.stack([sm(np.eye(2))]), [])
        assert found.log_moduli.shape == (0, 2) and len(found.unresolved) == 0

    def test_frames_span_the_leading_invariant_subspaces(self, rng):
        d = 5
        batch, mats = self.letters(rng, d, 3)
        words = [rng.integers(0, 3, size=(40, r)) for r in (1, 2, 3)]
        found = linalg.class_spectra(batch, words)
        rows = [w for group in words for w in group]
        assert found.frames.shape == (len(rows), d, d)
        for i, w in enumerate(rows):
            q = found.frames[i]
            np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-12)
            product = np.linalg.multi_dot([mats[l] for l in w] + [np.eye(d)])
            gaps = found.log_moduli[i, :-1] - found.log_moduli[i, 1:]
            for j in np.flatnonzero(gaps > 1e-3) + 1:
                assert (found.columns[i, :j] < j).all()
                image = product @ q[:, :j]
                assert np.linalg.norm(image - q[:, :j] @ (q[:, :j].T @ image), 2) <= (
                    1e-10 * np.linalg.norm(image, 2))

    def test_a_group_is_turned_to_its_eigenvectors(self):
        # moduli 1 + 5e-8 and 1 settle as one group: its columns are turned
        # so that the first spans the eigenvector of the larger, which a
        # separation of 5e-8 fixes only to about u / 5e-8 (6.3e-9 here)
        q = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [-0.5, 1.0, 1.0], [0.3, 0.2, 1.0]]))[0]
        a = q @ np.diag([1.0 + 5e-8, 1.0, 0.25]) @ q.T
        found = linalg.class_spectra(ScaledBatch.stack([sm(a)]), [np.array([[0]])])
        np.testing.assert_allclose(found.log_moduli[0, :2], [math.log1p(5e-8), 0.0], atol=1e-13)
        assert found.columns.tolist() == [[0, 1, 2]]
        assert subspace_angle(found.frames[0][:, :1], q[:, :1]) <= 1e-7

    @pytest.mark.parametrize("letter", [np.diag([1.0, 0.0]), np.array([[1.0, np.inf], [0.0, 1.0]]),
                                        np.array([[1.0, np.nan], [0.0, 1.0]])],
                             ids=["singular", "infinite", "nan"])
    def test_singular_letter_raises(self, letter):
        letters = ScaledBatch(np.stack([np.eye(2), letter]), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInput, match="^singular matrix$"):
                linalg.class_spectra(letters, [np.array([[0, 1]])])
            with pytest.raises(SingularInput, match="^singular matrix$"):
                word_reports(letters, one_letter_words(letters), 1)


class TestOrderedSchur:
    """The reports' planes against the ordered Schur vectors of
    ``scipy.linalg.schur``, and the LAPACK failures of ``_real_schur``."""

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 2)])
    def test_planes_match_scipy(self, schottky2, m, k):
        rep = sym_power_rep(schottky2, m) if m > 1 else schottky2
        d = rep.dim
        images = ball_images(rep, enumerate_ball(rep.presentation, 3))
        for i in range(1, len(images)):
            g = images[i]
            report = proximality_report(g, k)
            lm = spectrum(g).log_moduli - g.log_scale
            # (plane, split, whether scipy selects the moduli above it)
            for plane, j, top in ((report.attracting_plane, k, True),
                                  (report.repelling_plane, k, False),
                                  (report.inverse_attracting_plane, d - k, False),
                                  (report.inverse_repelling_plane, d - k, True)):
                thr = math.exp(0.5 * (lm[j - 1] + lm[j]))
                _, z, sdim = scipy.linalg.schur(
                    g.entries, output="real",
                    sort=lambda x, y, thr=thr, top=top: (math.hypot(x, y) > thr) == top,
                )
                assert plane.shape == (d, sdim)
                assert subspace_angle(plane, z[:, :sdim]) <= 1e-10

    @pytest.mark.parametrize(
        "info, message",
        [
            (2, "Schur form not found. Possibly ill-conditioned."),
            (-3, "illegal value in 3-th argument of internal gees"),
        ],
    )
    def test_lapack_failures(self, monkeypatch, info, message):
        a = np.diag([2.0, 1.0, 0.5])
        monkeypatch.setattr(linalg, "_GEES", lambda *args, **kwargs: (a, 0, a[0], a[0], a, a[0], info))
        with pytest.raises(EigensolveFailure) as exc:
            linalg._real_schur(a)
        assert str(exc.value) == message


class TestNormalizeToSl:
    def test_scalar_matrix(self):
        out = normalize_to_sl(sm(np.diag([2.0, 2.0])))
        np.testing.assert_allclose(out.array(), np.eye(2), rtol=1e-12)

    def test_det_four(self):
        out = normalize_to_sl(sm(np.diag([4.0, 1.0])))
        np.testing.assert_allclose(out.array(), np.diag([2.0, 0.5]), rtol=1e-12)

    def test_unit_determinant(self, rng):
        for _ in range(10):
            g = sm(rng.standard_normal((4, 4)) + 3 * np.eye(4))
            _, logdet = normalize_to_sl(g).slogdet()
            assert abs(logdet) < 1e-9

    def test_preserves_gaps_and_verdicts(self, rng):
        g = sm(rng.standard_normal((4, 4)) + np.diag([5.0, 2.0, 0, 0]))
        h = normalize_to_sl(g)
        sg, sh = spectrum(g), spectrum(h)
        for k in (1, 2, 3):
            assert sg.log_gap(k) == pytest.approx(sh.log_gap(k), abs=1e-12)
            assert sg.is_proximal(k) == sh.is_proximal(k)
