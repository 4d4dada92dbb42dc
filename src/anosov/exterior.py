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
from .linalg import _complement_table, _subset_positions, multi_index_basis


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
    rather than a full wedge expansion: the sum of sign(I) * a_I * b_{I^c}.
    With ``b = plucker_point(w)`` (whose rank check is the one check on W)
    this is the pairing of a k-vector with a (d-k)-plane W; for
    ``a = plucker_point(v)`` it is det[V | W], which vanishes exactly when V
    and W meet.  Transversality itself is decided by
    :func:`linalg.transverse_mask`.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"ambient dimensions {a.d} != {b.d}")
    if a.degree + b.degree != a.d:
        raise DegreeMismatch(
            f"degrees {a.degree} + {b.degree} must sum to {a.d}"
        )
    comp, signs = _complement_table(a.d, a.degree)
    return float(np.sum(signs * a.coeffs * b.coeffs[comp]))


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
