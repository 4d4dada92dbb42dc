import math
from itertools import combinations

import numpy as np
import pytest

from anosov import (
    DegreeMismatch,
    ExteriorVector,
    RankDeficient,
    ResourceLimit,
    ScaledMatrix,
    Presentation,
    SchottkyParams,
    apply_compound,
    compound_batch,
    compound_matrix,
    enumerate_ball,
    is_transverse,
    multi_index_basis,
    plucker_hyperplane,
    plucker_point,
    schottky_rep,
    spectrum,
    sym_power_rep,
    symplectic_form,
    symplectic_pairing_matrix,
    wedge,
)
from anosov.exterior import top_coefficient
from anosov.linalg import merge_sign
from conftest import ball_images


def sm(a, log_scale=0.0):
    return ScaledMatrix.from_array(np.asarray(a, dtype=float), log_scale)


def wedge_columns(columns: np.ndarray) -> ExteriorVector:
    """Brute-force oracle: wedge the columns one by one."""
    d = columns.shape[0]
    out = ExteriorVector.from_coeffs(d, 0, np.array([1.0]))
    for j in range(columns.shape[1]):
        col = ExteriorVector.from_coeffs(d, 1, columns[:, j])
        out = wedge(out, col)
    return out


class TestBasisAndSigns:
    def test_lex_order_and_count(self):
        basis = multi_index_basis(5, 3)
        assert basis.size == math.comb(5, 3)
        assert list(basis.subsets) == sorted(basis.subsets)
        assert all(s == tuple(sorted(s)) for s in basis.subsets)

    def test_merge_sign_parity(self):
        assert merge_sign((0,), (1,)) == 1
        assert merge_sign((1,), (0,)) == -1
        assert merge_sign((0, 2), (1, 3)) == -1  # one inversion: 2 > 1

    def test_wedge_anticommutes(self, rng):
        d = 5
        u = ExteriorVector.from_coeffs(d, 1, rng.standard_normal(d))
        v = ExteriorVector.from_coeffs(d, 1, rng.standard_normal(d))
        uv, vu = wedge(u, v), wedge(v, u)
        np.testing.assert_allclose(uv.coeffs, -vu.coeffs, atol=1e-12)


class TestCompoundMatrix:
    def test_diagonal_minors(self):
        c = compound_matrix(sm(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(c.array(), np.diag([6.0, 3.0, 2.0]), rtol=1e-12)

    def test_identity(self):
        for d, k in ((4, 2), (5, 3)):
            c = compound_matrix(ScaledMatrix.identity(d), k)
            np.testing.assert_allclose(c.array(), np.eye(math.comb(d, k)), atol=1e-12)

    def test_against_wedge_oracle(self, rng):
        # entry (I, J) equals the coefficient of e_I in wedge of the J-columns
        g = rng.standard_normal((4, 4))
        c = compound_matrix(sm(g), 2).array()
        for b, cols in enumerate(combinations(range(4), 2)):
            oracle = wedge_columns(g[:, cols])
            np.testing.assert_allclose(c[:, b], oracle.coeffs, rtol=1e-10, atol=1e-12)

    def test_functorial_on_square(self, rng):
        g = sm(rng.standard_normal((4, 4)))
        lhs = compound_matrix(g @ g, 2)
        rhs = compound_matrix(g, 2) @ compound_matrix(g, 2)
        np.testing.assert_allclose(
            lhs.entries * math.exp(lhs.log_scale - rhs.log_scale),
            rhs.entries,
            rtol=1e-9,
        )

    def test_functoriality_random_pairs(self, rng):
        for d in range(2, 11):
            for k in range(1, min(d, 6)):
                g, h = sm(rng.standard_normal((d, d))), sm(rng.standard_normal((d, d)))
                lhs = compound_matrix(g @ h, k)
                rhs = compound_matrix(g, k) @ compound_matrix(h, k)
                scale = math.exp(lhs.log_scale - rhs.log_scale)
                np.testing.assert_allclose(lhs.entries * scale, rhs.entries, atol=1e-9)

    def test_eigenvalue_transfer_exhaustive(self, rng):
        # moduli of the compound are all k-fold products of the base moduli
        for d in (3, 4, 5, 6):
            vals = np.sort(np.abs(rng.standard_normal(d)) + 0.2)[::-1]
            vals *= (1 + 0.05 * np.arange(d))[::-1]  # force distinct moduli
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            g = sm(q @ np.diag(vals) @ q.T)
            for k in range(1, d):
                mods = spectrum(compound_matrix(g, k)).moduli
                expect = sorted(
                    (np.prod([vals[i] for i in s]) for s in combinations(range(d), k)),
                    reverse=True,
                )
                np.testing.assert_allclose(mods, expect, rtol=1e-8)

    def test_proximality_transfer(self, rng):
        # P_k-proximality of g  <=>  P_1-proximality of compound(g, k)
        disagreements = 0
        for _ in range(40):
            d = int(rng.integers(3, 8))
            g = sm(rng.standard_normal((d, d)))
            base = spectrum(g)
            for k in range(1, d):
                lifted = spectrum(compound_matrix(g, k))
                if base.is_proximal(k) != lifted.is_proximal(1):
                    disagreements += 1
        assert disagreements == 0

    def test_log_scale_composes(self):
        g = sm(np.diag([3.0, 2.0, 1.0]), log_scale=2.0)
        c = compound_matrix(g, 2)
        top = spectrum(c).log_moduli[0]
        assert top == pytest.approx(math.log(6.0) + 4.0, rel=1e-12)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimit):
            compound_matrix(ScaledMatrix.identity(30), 15)

    @pytest.mark.parametrize("k", [2, 3])
    def test_batch_matches_brute_force_minors(self, k):
        # every k x k minor from its own det call, then from_array's
        # normalization, on the Sym^5 radius-3 ball
        sym5 = sym_power_rep(schottky_rep(SchottkyParams(rank=2, dilation=3.0)), 5)
        batch = ball_images(sym5, enumerate_ball(Presentation.free(2), 3))
        compound = compound_batch(batch, k)
        subsets = list(combinations(range(6), k))
        for i in range(len(batch)):
            g = batch.entries[i]
            minors = np.array(
                [[np.linalg.det(g[np.ix_(rows, cols)]) for cols in subsets] for rows in subsets]
            )
            m = np.max(np.abs(minors))
            assert np.array_equal(compound.entries[i], minors / m)
            assert compound.log_scale[i] == k * float(batch.log_scale[i]) + np.log(m)
            single = compound_matrix(batch[i], k)
            assert np.array_equal(single.entries, compound.entries[i])
            assert single.log_scale == compound.log_scale[i]

    @pytest.mark.parametrize("m, k, radius", [(5, 2, 3), (5, 3, 3), (9, 5, 1)])
    def test_one_minor_call_matches_one_call_per_column_block(self, monkeypatch, m, k, radius):
        # the compound reads every column block in one maximal_minors call;
        # determinants are per minor, so it equals one call per block bit for bit
        import anosov.exterior
        from anosov.linalg import maximal_minors

        rep = sym_power_rep(schottky_rep(SchottkyParams(rank=2, dilation=3.0)), m)
        batch = ball_images(rep, enumerate_ball(Presentation.free(2), radius))
        calls = []
        monkeypatch.setattr(anosov.exterior, "maximal_minors",
                            lambda planes: calls.append(len(planes)) or maximal_minors(planes))
        compound = compound_batch(batch, k)
        d, size = m + 1, math.comb(m + 1, k)
        assert calls == [len(batch) * size]
        minors = np.empty((len(batch), size, size))
        for b, cols in enumerate(combinations(range(d), k)):
            minors[:, :, b] = maximal_minors(batch.entries[:, :, cols])
        scale = np.abs(minors).max(axis=(1, 2))
        assert compound.entries.tobytes() == (minors / scale[:, None, None]).tobytes()
        assert compound.log_scale.tobytes() == (k * batch.log_scale + np.log(scale)).tobytes()

    @pytest.mark.parametrize("k, budget", [(2, 900), (2, 5 * 900 + 1), (3, 6 * 3600)])
    def test_batch_in_row_slices_matches_compound_matrix(self, monkeypatch, k, budget):
        # a small stack budget splits the Sym^5 radius-4 ball into many
        # minor stacks, the last one short; every block must keep its bits
        sym5 = sym_power_rep(schottky_rep(SchottkyParams(rank=2, dilation=3.0)), 5)
        batch = ball_images(sym5, enumerate_ball(Presentation.free(2), 4))
        monkeypatch.setattr("anosov.linalg.STACK_ELEMENTS", budget)
        compound = compound_batch(batch, k)
        for i in range(len(batch)):
            single = compound_matrix(batch[i], k)
            assert np.array_equal(single.entries, compound.entries[i])
            assert single.log_scale == compound.log_scale[i]

    def test_batch_degree_checked(self):
        batch = ball_images(
            schottky_rep(SchottkyParams(rank=2, dilation=3.0)),
            enumerate_ball(Presentation.free(2), 1),
        )
        with pytest.raises(DegreeMismatch, match="out of range for dimension 2"):
            compound_batch(batch, 2)


class TestPlucker:
    def test_coordinate_plane(self):
        p = plucker_point(np.eye(4)[:, :2])
        expect = np.zeros(6)
        expect[0] = 1.0
        np.testing.assert_allclose(p.coeffs, expect, atol=1e-12)

    def test_wedge_expansion_example(self):
        # <e1 + e2, e3> in R^3 has coordinates (0, 1, 1)
        v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(plucker_point(v).coeffs, [0.0, 1.0, 1.0], atol=1e-12)

    def test_basis_change_rescales_by_det(self, rng):
        v = rng.standard_normal((5, 2))
        a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        p1, p2 = plucker_point(v), plucker_point(v @ a)
        np.testing.assert_allclose(p2.coeffs, np.linalg.det(a) * p1.coeffs, rtol=1e-9)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            plucker_point(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))

    def test_equivariance(self, rng):
        # plucker(g V) is projectively compound(g) plucker(V)
        for _ in range(20):
            d, k = 5, 2
            g = sm(rng.standard_normal((d, d)))
            v = rng.standard_normal((d, k))
            lhs = plucker_point(g.entries @ v).unit()
            rhs = apply_compound(compound_matrix(g, k), plucker_point(v)).unit()
            angle = min(
                np.linalg.norm(lhs.coeffs - rhs.coeffs),
                np.linalg.norm(lhs.coeffs + rhs.coeffs),
            )
            assert angle < 1e-8

    @pytest.mark.parametrize("d, k", [(3, 2), (4, 3)])
    def test_apply_compound_when_compound_size_equals_dimension(self, rng, d, k):
        # C(d, d-1) = d: the compound has the size of the base matrix and
        # must still be applied as given, not compounded again
        g = compound_matrix(sm(rng.standard_normal((d, d))), k)
        v = ExteriorVector.from_coeffs(d, k, rng.standard_normal(d))
        expect = math.exp(g.log_scale) * (g.entries @ v.coeffs)
        np.testing.assert_array_equal(apply_compound(g, v).coeffs, expect)


class TestPluckerHyperplane:
    def test_k1_matches_span(self):
        # for k = 1 the hyperplane of <e2, e3> in R^3 is that same plane
        h = plucker_hyperplane(np.eye(3)[:, 1:], k=1)
        assert h.contains(ExteriorVector.basis_vector(3, (1,)))
        assert h.contains(ExteriorVector.basis_vector(3, (2,)))
        assert not h.contains(ExteriorVector.basis_vector(3, (0,)))

    def test_coordinate_complement(self):
        d, k = 5, 2
        h = plucker_hyperplane(np.eye(d)[:, k:], k=k)
        for subset in multi_index_basis(d, k).subsets:
            vec = ExteriorVector.basis_vector(d, subset)
            if subset == (0, 1):
                assert not h.contains(vec)
            else:
                assert h.contains(vec)

    def test_transversality_transfer(self, rng):
        # pairing(plucker(V), hyperplane(W)) vanishes iff V and W overlap;
        # its value is (up to sign) the determinant of the stacked bases
        d, k = 5, 2
        hits = 0
        for _ in range(100):
            v = rng.standard_normal((d, k))
            w = rng.standard_normal((d, d - k))
            det = np.linalg.det(np.hstack([v, w]))
            h = plucker_hyperplane(w, k=k)
            val = h.pairing(plucker_point(v))
            np.testing.assert_allclose(abs(val), abs(det), rtol=1e-9)
            vq, wq = np.linalg.qr(v)[0], np.linalg.qr(w)[0]
            if is_transverse(vq, wq):
                hits += 1
                assert not h.contains(plucker_point(v))
        assert hits == 100  # random pairs are transverse almost surely

    def test_equivariant_under_compound(self, rng):
        d, k = 4, 2
        g = sm(rng.standard_normal((d, d)))
        v = rng.standard_normal((d, k))
        w = rng.standard_normal((d, d - k))
        before = plucker_hyperplane(w, k=k).pairing(plucker_point(v))
        after = plucker_hyperplane(g.entries @ w, k=k).pairing(
            plucker_point(g.entries @ v)
        )
        # both vanish together; values scale by det(g)
        np.testing.assert_allclose(
            after, np.linalg.det(g.entries) * before, rtol=1e-9
        )


class TestSymplecticForm:
    def test_volume_pair(self):
        a = ExteriorVector.basis_vector(6, (0, 1, 2))
        b = ExteriorVector.basis_vector(6, (3, 4, 5))
        assert symplectic_form(a, b, 1) == pytest.approx(1.0)

    def test_repeated_index_vanishes(self):
        a = ExteriorVector.basis_vector(6, (0, 1, 2))
        b = ExteriorVector.basis_vector(6, (0, 3, 4))
        assert symplectic_form(a, b, 1) == 0.0

    def test_isotropic_diagonal(self, rng):
        a = ExteriorVector.from_coeffs(6, 3, rng.standard_normal(20))
        assert symplectic_form(a, a, 1) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetric_exactly_on_basis(self):
        omega = symplectic_pairing_matrix(1)
        assert np.array_equal(omega, -omega.T)
        assert np.linalg.cond(omega) == pytest.approx(1.0)

    def test_invariance_under_sl(self, rng):
        q = 1
        d = 4 * q + 2
        for _ in range(10):
            a = rng.standard_normal((d, d))
            a /= abs(np.linalg.det(a)) ** (1 / d)
            if np.linalg.det(a) < 0:
                a[:, 0] *= -1
            g = compound_matrix(sm(a), 2 * q + 1)
            x = ExteriorVector.from_coeffs(d, 2 * q + 1, rng.standard_normal(20))
            y = ExteriorVector.from_coeffs(d, 2 * q + 1, rng.standard_normal(20))
            before = symplectic_form(x, y, q)
            after = symplectic_form(apply_compound(g, x), apply_compound(g, y), q)
            assert abs(after - before) <= 1e-8 * max(1.0, abs(before))

    def test_degree_mismatch(self):
        a = ExteriorVector.basis_vector(6, (0, 1))
        b = ExteriorVector.basis_vector(6, (2, 3, 4))
        with pytest.raises(DegreeMismatch):
            symplectic_form(a, b, 1)

    def test_matches_wedge_oracle(self, rng):
        a = ExteriorVector.from_coeffs(6, 3, rng.standard_normal(20))
        b = ExteriorVector.from_coeffs(6, 3, rng.standard_normal(20))
        full = wedge(a, b)
        assert full.coeffs.shape == (1,)
        assert symplectic_form(a, b, 1) == pytest.approx(float(full.coeffs[0]), rel=1e-12)
        assert top_coefficient(a, b) == pytest.approx(float(full.coeffs[0]), rel=1e-12)
