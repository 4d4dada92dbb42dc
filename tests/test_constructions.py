import math

import numpy as np
import pytest
import scipy.linalg

from anosov import (
    ComplexRepresentation,
    DeterminantNotOne,
    InvalidMagnitude,
    InvalidParams,
    Presentation,
    PresentationMismatch,
    Representation,
    ScaledMatrix,
    SchottkyParams,
    SingularInput,
    compound_matrix,
    direct_sum,
    enumerate_ball,
    evaluate,
    fuchsian_surface_rep,
    perturb_path,
    realify_rep,
    rotation_about_i,
    schottky_rep,
    singular_values,
    spectrum,
    sym_power_rep,
    symmetric_power,
    tau2_realify,
)


class TestSchottky:
    def test_standard_generators(self):
        rep = schottky_rep(SchottkyParams(rank=2, dilation=3.0, angles=(0.0, math.pi / 2)))
        np.testing.assert_allclose(rep.images[0].array(), np.diag([3.0, 1 / 3.0]), atol=1e-12)
        b = rep.images[1].array()
        # conjugate of diag(1/3, 3): same eigenvalues, distinct axis
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(b)), [1 / 3.0, 3.0], rtol=1e-12)
        assert not np.allclose(b, np.diag([1 / 3.0, 3.0]))
        assert np.trace(b) == pytest.approx(3 + 1 / 3)

    def test_trace_sign_flip(self):
        rep = schottky_rep(SchottkyParams(rank=2, dilation=3.0, trace_signs=(-1, 1)))
        assert np.trace(rep.images[0].array()) == pytest.approx(-(3 + 1 / 3))
        sign, logdet = rep.images[0].slogdet()
        assert sign == 1.0 and abs(logdet) < 1e-12

    def test_mixed_word_hyperbolic(self):
        rep = schottky_rep(SchottkyParams(rank=2, dilation=3.0, angles=(0.0, math.pi / 2)))
        sp = spectrum(evaluate(rep, (1, 2)))
        assert sp.log_gap(1) > 0.1

    def test_angle_separation_enforced(self):
        with pytest.raises(InvalidParams):
            SchottkyParams(rank=2, dilation=3.0, angles=(0.0, 0.1))

    def test_default_angles_equally_spaced(self):
        params = SchottkyParams(rank=4, dilation=2.0)
        assert params.axis_angles() == tuple(i * math.pi / 4 for i in range(4))

    def test_complex_field(self):
        crep = schottky_rep(
            SchottkyParams(rank=2, dilation=3.0, field="complex", twists=(0.3, 0.7))
        )
        assert isinstance(crep, ComplexRepresentation)
        for m in crep.images:
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(crep.images[0].imag).max() > 0.01

    def test_dilation_must_exceed_one(self):
        with pytest.raises(InvalidParams):
            SchottkyParams(rank=2, dilation=1.0)


class TestTau2:
    def test_identity(self):
        out = tau2_realify(np.eye(2, dtype=complex))
        np.testing.assert_allclose(out.array(), np.eye(4), atol=1e-12)

    def test_diag_i_minus_i(self):
        out = tau2_realify(np.diag([1j, -1j])).array()
        expect = np.array(
            [
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_multiplicative(self, rng):
        for _ in range(100):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g /= np.sqrt(np.linalg.det(g))
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h /= np.sqrt(np.linalg.det(h))
            lhs = tau2_realify(g @ h).array()
            rhs = (tau2_realify(g) @ tau2_realify(h)).array()
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_singular_values_doubled(self, rng):
        for _ in range(25):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g /= np.sqrt(np.linalg.det(g))
            sv2 = np.linalg.svd(g, compute_uv=False)
            sv4 = singular_values(tau2_realify(g)).values
            np.testing.assert_allclose(sv4, np.repeat(sv2, 2), rtol=1e-9)

    def test_determinant_checked(self):
        with pytest.raises(DeterminantNotOne):
            tau2_realify(np.diag([2.0 + 0j, 1.0]))


class TestDirectSum:
    def test_block_diagonal(self, diag_rep):
        other = Representation.from_generators(
            Presentation.free(1), [ScaledMatrix.from_array(np.diag([2.0, 0.5]))]
        )
        summed = direct_sum([diag_rep, other])
        np.testing.assert_allclose(
            summed.images[0].array(), np.diag([3.0, 1 / 3.0, 2.0, 0.5]), rtol=1e-12
        )

    def test_singular_value_multiset_union(self, rng):
        p = Presentation.free(2)
        reps = []
        for _ in range(2):
            mats = [rng.standard_normal((3, 3)) + 2 * np.eye(3) for _ in range(2)]
            reps.append(
                Representation.from_generators(p, [ScaledMatrix.from_array(m) for m in mats])
            )
        summed = direct_sum(reps)
        w = (1, 2)
        got = np.sort(singular_values(evaluate(summed, w)).log_values)
        expect = np.sort(
            np.concatenate(
                [singular_values(evaluate(r, w)).log_values for r in reps]
            )
        )
        np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_doubled_rep_closes_odd_gaps(self, schottky2):
        doubled = direct_sum([schottky2, schottky2])
        sv = singular_values(evaluate(doubled, (1, 2, 1)))
        assert sv.log_gap(1) == pytest.approx(0.0, abs=1e-10)
        assert sv.log_gap(3) == pytest.approx(0.0, abs=1e-10)
        assert sv.log_gap(2) > 1.0

    def test_presentation_mismatch(self, schottky2, diag_rep):
        with pytest.raises(PresentationMismatch):
            direct_sum([schottky2, diag_rep])

    def test_blocks_match_scipy_block_diag(self, schottky2):
        # 2 + 4 + 6: the Schottky group, its realified twist and its Sym^5
        twisted = realify_rep(schottky_rep(SchottkyParams(rank=2, field="complex", twists=[0.3, 0.7])))
        reps = [schottky2, twisted, sym_power_rep(schottky2, 5)]
        summed = direct_sum(reps)
        assert summed.dim == 12
        for gen, got in enumerate(summed.images):
            want = ScaledMatrix.from_array(scipy.linalg.block_diag(*(r.images[gen].array() for r in reps)))
            assert got.entries.tobytes() == want.entries.tobytes()
            assert got.log_scale == want.log_scale

    def test_commutes_with_evaluate(self, schottky2):
        doubled = direct_sum([schottky2, schottky2])
        w = (1, -2, 1, 1)
        block = evaluate(schottky2, w).array()
        full = evaluate(doubled, w).array()
        np.testing.assert_allclose(full[:2, :2], block, rtol=1e-9)
        np.testing.assert_allclose(full[2:, 2:], block, rtol=1e-9)
        np.testing.assert_allclose(full[:2, 2:], 0.0, atol=1e-9)


class TestSymmetricPower:
    def test_diagonal_action(self):
        lam = 2.5
        out = symmetric_power(np.diag([lam, 1 / lam]), 5).array()
        np.testing.assert_allclose(
            out, np.diag([lam**5, lam**3, lam, 1 / lam, lam**-3, lam**-5]), rtol=1e-12
        )

    def test_negative_diagonal_compound_top(self):
        # top eigenvalue of the third compound of Sym^5 diag(-2, -1/2)
        # is the product of the three largest-modulus eigenvalues
        s = symmetric_power(np.diag([-2.0, -0.5]), 5)
        sp = spectrum(compound_matrix(s, 3))
        assert sp.top_signed == pytest.approx(-512.0, rel=1e-9)

    def test_rotations_stay_orthogonal(self):
        s = symmetric_power(rotation_about_i(1.2), 7).array()
        np.testing.assert_allclose(s @ s.T, np.eye(8), atol=1e-12)

    def test_multiplicative(self, rng):
        for _ in range(100):
            g = rng.standard_normal((2, 2))
            g /= math.sqrt(abs(np.linalg.det(g)))
            if np.linalg.det(g) < 0:
                g[:, 0] *= -1
            h = rng.standard_normal((2, 2))
            h /= math.sqrt(abs(np.linalg.det(h)))
            if np.linalg.det(h) < 0:
                h[:, 0] *= -1
            lhs = symmetric_power(g @ h, 4).array()
            rhs = (symmetric_power(g, 4) @ symmetric_power(h, 4)).array()
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_eigenvalue_transport(self, rng):
        lam = 1.7
        q = rotation_about_i(0.9)
        g = q @ np.diag([lam, 1 / lam]) @ q.T
        mods = spectrum(symmetric_power(g, 5)).moduli
        expect = sorted((lam ** (5 - 2 * j) for j in range(6)), key=abs, reverse=True)
        np.testing.assert_allclose(mods, np.abs(expect), rtol=1e-9)

    def test_det_one_required(self):
        with pytest.raises(DeterminantNotOne):
            symmetric_power(np.diag([2.0, 1.0]), 3)

    @pytest.mark.parametrize("m", [68, 100])
    def test_binomials_past_int64(self, m):
        # C(68, 34) > 2**63: the weights are taken as doubles
        lam = 1.1
        out = symmetric_power(np.diag([lam, 1 / lam]), m).array()
        np.testing.assert_allclose(np.diag(out), lam ** np.arange(m, -m - 1, -2.0), rtol=1e-12)
        np.testing.assert_array_equal(out - np.diag(np.diag(out)), 0.0)

    def test_binomials_past_double_are_refused(self):
        with pytest.raises(InvalidParams, match="degree 1030 has binomials beyond double range"):
            symmetric_power(np.eye(2), 1030)

    @staticmethod
    def term_by_term(g: ScaledMatrix, m: int) -> ScaledMatrix:
        """The expansion summed one term at a time: the oracle of the array build."""
        weights = np.sqrt([float(math.comb(m, i)) for i in range(m + 1)])
        (a, b), (c, d) = g.entries
        raw = np.zeros((m + 1, m + 1))
        for j in range(m + 1):
            for r in range(m - j + 1):
                for s in range(j + 1):
                    raw[m - r - s, j] += (math.comb(m - j, r) * math.comb(j, s)
                                          * a**r * c ** (m - j - r) * b**s * d ** (j - s))
        return ScaledMatrix.from_array(raw * (weights[None, :] / weights[:, None]), m * g.log_scale)

    # binomial products pass 2**53 from m = 57 and 2**63 from m = 68
    @pytest.mark.parametrize("m", [*range(1, 13), 33, 57, 67, 68, 80])
    def test_matches_term_by_term_expansion(self, schottky2, fuchsian2, m):
        for g in (*schottky2.images, *schottky2.inverse_images, *fuchsian2.images):
            expect = self.term_by_term(g, m)
            out = symmetric_power(g, m)
            assert np.array_equal(out.entries, expect.entries)
            assert out.log_scale == expect.log_scale

    def test_underflow_names_the_degree(self):
        # the images span 1e3**(2 m) = 1e360 in magnitude, past float64
        base = schottky_rep(SchottkyParams(rank=2, dilation=1e3))
        with pytest.raises(SingularInput, match="symmetric power of degree 60: matrix is singular"):
            sym_power_rep(base, 60)

    def test_rep_level(self, schottky2):
        s5 = sym_power_rep(schottky2, 5)
        assert s5.dim == 6
        w = (1, 2)
        lhs = symmetric_power(evaluate(schottky2, w), 5)
        rhs = evaluate(s5, w)
        np.testing.assert_allclose(
            lhs.entries * math.exp(lhs.log_scale - rhs.log_scale), rhs.entries, rtol=1e-9
        )


class TestFuchsian:
    def test_relator_defect(self, fuchsian2):
        assert fuchsian2.relator_defect < 1e-6

    def test_genus3_builds(self):
        rep = fuchsian_surface_rep(3)
        assert rep.relator_defect < 1e-6
        assert rep.presentation.n_generators == 6

    def test_generators_hyperbolic(self, fuchsian2):
        for g in fuchsian2.images:
            assert abs(np.trace(g.array())) > 2.0

    def test_sphere2_all_hyperbolic(self, fuchsian2):
        ball = enumerate_ball(fuchsian2.presentation, 2)
        for w in ball.spheres[2]:
            sp = spectrum(evaluate(fuchsian2, w))
            assert sp.log_gap(1) > math.log1p(1e-8)

    def test_translation_length_vs_trace(self, fuchsian2):
        # trace = 2 cosh(length / 2) for hyperbolic isometries
        for g in fuchsian2.images:
            tr = abs(np.trace(g.array()))
            lam = spectrum(g).moduli[0]
            assert tr == pytest.approx(2 * math.cosh(math.log(lam)), rel=1e-9)
            assert tr > 2.0


class TestPerturbPath:
    def test_zero_magnitude_constant(self, schottky2):
        path = perturb_path(schottky2, 0.0, seed=7, steps=5)
        for rep in path:
            for a, b in zip(rep.images, schottky2.images):
                np.testing.assert_allclose(a.array(), b.array(), rtol=1e-12)

    def test_step_count_and_endpoints(self, schottky2):
        path = perturb_path(schottky2, 0.05, seed=7, steps=10)
        assert len(path) == 11
        assert path[0] is schottky2
        for rep in path:
            for g in rep.images:
                _, logdet = g.slogdet()
                assert abs(logdet) < 1e-9

    def test_seeded_determinism(self, schottky2):
        p1 = perturb_path(schottky2, 0.03, seed=11, steps=4)
        p2 = perturb_path(schottky2, 0.03, seed=11, steps=4)
        for r1, r2 in zip(p1, p2):
            for a, b in zip(r1.images, r2.images):
                assert a.log_scale == b.log_scale
                assert np.array_equal(a.entries, b.entries)

    def test_magnitude_guard(self, schottky2):
        with pytest.raises(InvalidMagnitude):
            perturb_path(schottky2, 0.5, seed=0, steps=3)

    def test_free_presentation_required(self, fuchsian2):
        with pytest.raises(PresentationMismatch):
            perturb_path(fuchsian2, 0.01, seed=0, steps=3)
