"""Exterior powers, Pluecker embeddings and the middle-degree symplectic form.

The k-th exterior power of R^d is coordinatized by the lexicographically
ordered k-subsets of {0, ..., d-1}.  Signs follow permutation parity when
merging sorted index tuples, which makes every operation checkable against a
brute-force wedge expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeMismatch, DimensionMismatch, RankDeficient, ResourceLimit
from .linalg import COMPOUND_GUARD, ScaledBatch, ScaledMatrix, maximal_minors
from .linalg import _complement_table, _subset_positions, merge_sign, multi_index_basis


@dataclass(frozen=True)
class ExteriorVector:
    """Element of the k-th exterior power, as coefficients on the subset basis."""

    d: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        expected = math.comb(self.d, self.degree)
        if self.coeffs.shape != (expected,):
            raise DegreeMismatch(
                f"coefficient length {self.coeffs.shape} != C({self.d},{self.degree})"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite exterior coefficients")

    @classmethod
    def from_coeffs(cls, d: int, degree: int, coeffs) -> "ExteriorVector":
        arr = np.array(coeffs, dtype=float)
        arr.setflags(write=False)
        return cls(d=d, degree=degree, coeffs=arr)

    @classmethod
    def basis_vector(cls, d: int, subset: tuple[int, ...]) -> "ExteriorVector":
        k = len(subset)
        coeffs = np.zeros(math.comb(d, k))
        coeffs[_subset_positions(d, k)[tuple(sorted(subset))]] = 1.0
        return cls.from_coeffs(d, k, coeffs)

    def unit(self) -> "ExteriorVector":
        """Projective representative of unit norm with a canonical sign."""
        n = float(np.linalg.norm(self.coeffs))
        if n == 0.0:
            raise RankDeficient("zero vector has no projective class")
        c = self.coeffs / n
        lead = c[int(np.argmax(np.abs(c)))]
        if lead < 0:
            c = -c
        return ExteriorVector.from_coeffs(self.d, self.degree, c)


def wedge(a: ExteriorVector, b: ExteriorVector) -> ExteriorVector:
    """Wedge product, by direct expansion over basis subsets."""
    if a.d != b.d:
        raise DimensionMismatch(f"ambient dimensions {a.d} != {b.d}")
    k, l = a.degree, b.degree
    if k + l > a.d:
        raise DegreeMismatch(f"degree {k}+{l} exceeds dimension {a.d}")
    out = np.zeros(math.comb(a.d, k + l))
    pos = _subset_positions(a.d, k + l)
    bas_a = multi_index_basis(a.d, k).subsets
    bas_b = multi_index_basis(a.d, l).subsets
    for i, ia in enumerate(bas_a):
        ca = a.coeffs[i]
        if ca == 0.0:
            continue
        set_a = set(ia)
        for j, jb in enumerate(bas_b):
            cb = b.coeffs[j]
            if cb == 0.0 or set_a & set(jb):
                continue
            merged = tuple(sorted(ia + jb))
            out[pos[merged]] += merge_sign(ia, jb) * ca * cb
    return ExteriorVector.from_coeffs(a.d, k + l, out)


def compound_batch(batch: ScaledBatch, k: int) -> ScaledBatch:
    """Induced action of every matrix of a batch on the k-th exterior power.

    Entry (I, J) of block i is the k x k minor of matrix i on rows I and
    columns J: column J of every block is :func:`linalg.maximal_minors` of
    the batch's columns J, and one call reads the d x k column blocks of
    every matrix, stacked.  The blocks are then normalized by
    :meth:`ScaledBatch.from_arrays`, with k times the input scale.
    """
    d = batch.entries.shape[-1]
    if not 1 <= k <= d - 1:
        raise DegreeMismatch(f"compound degree {k} out of range for dimension {d}")
    size = math.comb(d, k)
    if size > COMPOUND_GUARD:
        raise ResourceLimit(f"C({d},{k}) = {size} exceeds guard {COMPOUND_GUARD}")
    columns = np.array(multi_index_basis(d, k).subsets, dtype=np.intp)
    blocks = batch.entries[:, :, columns].transpose(0, 2, 1, 3).reshape(-1, d, k)
    minors = maximal_minors(blocks).reshape(len(batch), size, size).transpose(0, 2, 1)
    return ScaledBatch.from_arrays(np.ascontiguousarray(minors), k * batch.log_scale)


def compound_matrix(g: ScaledMatrix, k: int) -> ScaledMatrix:
    """Induced action of ``g`` on the k-th exterior power; one row of
    :func:`compound_batch`.

    Entry (I, J) is the k x k minor of the true matrix on rows I and columns
    J; the log scale composes as k times the input scale.  Functorial:
    compound(g @ h) == compound(g) @ compound(h).
    """
    return compound_batch(ScaledBatch.stack([g]), k)[0]


def apply_compound(g: ScaledMatrix, v: ExteriorVector) -> ExteriorVector:
    """Image of an exterior vector under a compound matrix, at true scale.

    ``g`` must already be the compound ``compound_matrix(base, v.degree)``,
    of dimension C(d, degree).
    """
    if g.dim != v.coeffs.shape[0]:
        raise DimensionMismatch("compound dimension does not match vector length")
    return ExteriorVector.from_coeffs(
        v.d, v.degree, math.exp(g.log_scale) * (g.entries @ v.coeffs)
    )


_RANK_TOL = 1e-12


def plucker_point(v: np.ndarray) -> ExteriorVector:
    """Pluecker coordinates of the span of the columns of ``v``.

    The projective class does not depend on the basis choice; replacing the
    basis by v @ A rescales the output by det(A).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] > v.shape[0]:
        raise DimensionMismatch(f"expected a tall d x k basis matrix, got {v.shape}")
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] <= sv[0] * _RANK_TOL:
        raise RankDeficient("basis columns are linearly dependent")
    return ExteriorVector.from_coeffs(*v.shape, maximal_minors(v[None])[0])


def top_coefficient(a: ExteriorVector, b: ExteriorVector) -> float:
    """Coefficient of e_0 wedge ... wedge e_{d-1} in a wedge b.

    Requires complementary degrees.  Computed from the complement/sign table
    rather than a full wedge expansion.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"ambient dimensions {a.d} != {b.d}")
    if a.degree + b.degree != a.d:
        raise DegreeMismatch(
            f"degrees {a.degree} + {b.degree} must sum to {a.d}"
        )
    comp, signs = _complement_table(a.d, a.degree)
    return float(np.sum(signs * a.coeffs * b.coeffs[comp]))


@dataclass(frozen=True)
class PluckerHyperplane:
    """Hyperplane in the k-th exterior power, as the kernel of a pairing.

    The hyperplane attached to a (d-k)-plane W consists of the k-vectors
    alpha with alpha wedge [W] = 0 in the top degree.  This realization is
    equivariant under the compound action of all invertible matrices; at the
    coordinate plane W = <e_{k+1}, ..., e_d> it coincides with the span of
    every basis k-vector other than e_1 wedge ... wedge e_k.
    """

    normal: ExteriorVector

    @property
    def d(self) -> int:
        return self.normal.d

    @property
    def degree(self) -> int:
        return self.normal.degree

    def pairing(self, a: ExteriorVector) -> float:
        if a.d != self.d or a.degree != self.degree:
            raise DegreeMismatch("vector does not live in this exterior power")
        return float(np.dot(self.normal.coeffs, a.coeffs))

    def contains(self, a: ExteriorVector) -> bool:
        scale = float(
            np.linalg.norm(self.normal.coeffs) * np.linalg.norm(a.coeffs)
        )
        return abs(self.pairing(a)) <= 1e-10 * max(scale, 1.0)


def plucker_hyperplane(w: np.ndarray, k: int | None = None) -> PluckerHyperplane:
    """Hyperplane in the k-th exterior power attached to a (d-k)-plane."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise DimensionMismatch("expected a d x (d-k) basis matrix")
    d = w.shape[0]
    k = d - w.shape[1] if k is None else k
    if w.shape[1] != d - k:
        raise DimensionMismatch(
            f"plane of dimension {w.shape[1]} does not determine degree {k}"
        )
    p = plucker_point(w)  # degree d-k, raises RankDeficient if needed
    comp, signs = _complement_table(d, k)
    normal = signs * p.coeffs[comp]
    return PluckerHyperplane(normal=ExteriorVector.from_coeffs(d, k, normal))


def symplectic_form(a: ExteriorVector, b: ExteriorVector, q: int) -> float:
    """Middle-degree wedge pairing on the (2q+1)-st exterior power of R^{4q+2}.

    Antisymmetric because the degree is odd, nondegenerate, and invariant
    under the compound action of determinant-one matrices.
    """
    d, deg = 4 * q + 2, 2 * q + 1
    if a.d != d or b.d != d or a.degree != deg or b.degree != deg:
        raise DegreeMismatch(
            f"expected degree {deg} vectors in dimension {d}, "
            f"got degrees {a.degree},{b.degree} in dimensions {a.d},{b.d}"
        )
    return top_coefficient(a, b)


def symplectic_pairing_matrix(q: int) -> np.ndarray:
    """Gram matrix of the symplectic form on basis vectors (a signed permutation)."""
    d, deg = 4 * q + 2, 2 * q + 1
    comp, signs = _complement_table(d, deg)
    size = math.comb(d, deg)
    omega = np.zeros((size, size))
    omega[np.arange(size), comp] = signs
    return omega
