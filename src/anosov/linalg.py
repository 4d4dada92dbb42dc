"""Spectral primitives on log-scaled real matrices.

Matrices are carried as a unit-normalized entry block plus a separate
logarithmic scale factor, so that products along long words never overflow
doubles.  Eigenvalue moduli, singular values, proximality classification,
invariant planes and transversality checks all operate on this
representation and report magnitudes on the log scale.

Conventions:

* eigenvalue moduli are written lambda_1 >= ... >= lambda_d,
* singular values sigma_1 >= ... >= sigma_d, with sigma_i = sqrt(lambda_i(g g^T)),
* a matrix is proximal at index k when lambda_k / lambda_{k+1} > 1 + eps_gap,
* subspaces are always carried as matrices with orthonormal columns.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    EigensolveFailure,
    MarginalGapWarning,
    ResourceLimit,
    SingularInput,
)

#: Relative threshold separating "proximal" from "marginal / no gap".  The
#: theory has an exact inequality; in double precision simple gaps resolve to
#: ~1e-12 but clustered spectra need headroom, so verdicts within eps_gap of
#: equality are never reported as proximal.
EPS_GAP = 1e-8

#: Condition-number ceiling above which inputs are treated as singular.
COND_LIMIT = 1e12

#: Condition-number default for declaring two complementary planes transverse.
TRANSVERSALITY_COND = 1e8

#: Largest allowed compound dimension C(d, k).
COMPOUND_GUARD = 10_000

#: Most elements (512 KiB of float64) that one batch of a walk, class pass,
#: class iteration, scan, compound, minor or pair stacks at once (a sign
#: read stacks eight times as many); larger batches go in consecutive row
#: slices.  Read at call time, so one setting drives every one of them
#: (``words``, :func:`class_spectra`, ``certify`` and the plane tests).
STACK_ELEMENTS = 1 << 16


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScaledMatrix:
    """A square real matrix ``exp(log_scale) * entries``.

    ``entries`` is kept with max-norm in [1/2, 2] (renormalized after every
    operation), which keeps products of dozens of factors representable.
    """

    entries: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {e.shape}")
        m = float(np.max(np.abs(e)))
        if not (0.5 <= m <= 2.0):
            raise ValueError(
                "entries must be pre-normalized; use ScaledMatrix.from_array"
            )

    @classmethod
    def from_array(cls, a: np.ndarray, log_scale: float = 0.0) -> "ScaledMatrix":
        """Normalize one matrix: the one-row case of :meth:`ScaledBatch.from_arrays`."""
        a = np.array(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        return ScaledBatch.from_arrays(a[None], np.array([log_scale], dtype=float))[0]

    @classmethod
    def identity(cls, dim: int) -> "ScaledMatrix":
        return cls(_as_readonly(np.eye(dim)), 0.0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def array(self) -> np.ndarray:
        """The true matrix as a plain array.  Overflows for extreme scales."""
        return math.exp(self.log_scale) * self.entries

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        return (ScaledBatch.stack([self]) @ other)[0]

    def inverse(self) -> "ScaledMatrix":
        return ScaledBatch.stack([self]).inverse()[0]

    def power(self, n: int) -> "ScaledMatrix":
        if n < 0:
            return self.inverse().power(-n)
        result = ScaledMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def slogdet(self) -> tuple[float, float]:
        """(sign, log|det|) of the true matrix."""
        sign, logabs = np.linalg.slogdet(self.entries)
        return float(sign), float(logabs) + self.dim * self.log_scale

    def distance_to_identity(self) -> float:
        """Spectral-norm distance of the true matrix from the identity."""
        return float(np.linalg.norm(self.array() - np.eye(self.dim), 2))


@dataclass(frozen=True)
class ScaledBatch:
    """A stack of matrices ``exp(log_scale[i]) * entries[i]``.

    :meth:`from_arrays` is the one place where a scale is computed:
    :meth:`ScaledMatrix.from_array`, ``ScaledMatrix @`` and
    :meth:`ScaledMatrix.inverse` are its one-row case, so ``(batch @ g)[i]``
    is bit-identical to ``batch[i] @ g`` and ``batch.inverse()[i]`` to
    ``batch[i].inverse()``.
    """

    entries: np.ndarray  # (n, d, d)
    log_scale: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.log_scale)

    def __getitem__(self, i: int) -> ScaledMatrix:
        return ScaledMatrix(_as_readonly(self.entries[i]), float(self.log_scale[i]))

    @classmethod
    def stack(cls, matrices: Sequence[ScaledMatrix]) -> "ScaledBatch":
        return cls(
            np.stack([m.entries for m in matrices]), np.array([m.log_scale for m in matrices])
        )

    def take(self, index: np.ndarray | slice) -> "ScaledBatch":
        return ScaledBatch(self.entries[index], self.log_scale[index])

    @classmethod
    def from_arrays(cls, a: np.ndarray, log_scale: np.ndarray) -> "ScaledBatch":
        """Normalize each block of an (n, d, d) stack in place to max |entry|
        1, moving the factor into ``log_scale``.

        The scales are numpy logs, so the last bits of a report follow
        numpy's SIMD dispatch of ``np.log``, as :func:`log_singular_values`
        does; one machine and one numpy build give identical bits.
        """
        n = len(a)
        flat = np.abs(a.reshape(n, a.shape[1] * a.shape[2]))
        m = flat[np.arange(n), flat.argmax(axis=1)]  # exact; a NaN is found first
        if not np.all(np.isfinite(m)):
            raise SingularInput("matrix has non-finite entries")
        if not np.all(m):
            raise SingularInput("zero matrix cannot be log-scaled")
        a /= m[:, None, None]
        return cls(a, log_scale + np.log(m))

    def __matmul__(self, other: "ScaledMatrix | ScaledBatch") -> "ScaledBatch":
        """Every matrix of the stack times ``other``, renormalized in place:
        one matrix is broadcast over the stack, a batch of the same length
        is multiplied row by row (and a one-row batch on either side is
        broadcast, as numpy's ``matmul`` broadcasts)."""
        return ScaledBatch.from_arrays(
            self.entries @ other.entries, self.log_scale + other.log_scale
        )

    def inverse(self) -> "ScaledBatch":
        """Every matrix of the stack inverted by one stacked ``inv``; raises
        when any determinant vanishes."""
        sign, _ = np.linalg.slogdet(self.entries)
        if not np.all(sign):
            raise SingularInput("matrix is singular")
        return ScaledBatch.from_arrays(np.linalg.inv(self.entries), -self.log_scale)


@dataclass(frozen=True)
class SingularValues:
    """Nonincreasing singular values, stored as natural logs."""

    log_values: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    def log_gap(self, k: int) -> float:
        """log(sigma_k / sigma_{k+1}) for 1 <= k <= d-1."""
        if not 1 <= k < len(self.log_values):
            raise DimensionMismatch(f"gap index {k} out of range")
        return float(self.log_values[k - 1] - self.log_values[k])

    @property
    def log_total_ratio(self) -> float:
        return float(self.log_values[0] - self.log_values[-1])


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue moduli (log scale) plus reality data for the top modulus.

    ``top_sign`` is +-1 when exactly one eigenvalue attains the maximum
    modulus and that eigenvalue is real, else None.
    ``is_semiproximal_positive`` records whether some real positive
    eigenvalue attains the maximum modulus.
    """

    log_moduli: np.ndarray
    top_sign: int | None
    is_semiproximal_positive: bool
    eps_gap: float = field(default=EPS_GAP, compare=False)

    @property
    def moduli(self) -> np.ndarray:
        return np.exp(self.log_moduli)

    @property
    def top_signed(self) -> float | None:
        """Signed top eigenvalue, when defined.  May overflow for huge scales."""
        if self.top_sign is None:
            return None
        return self.top_sign * math.exp(float(self.log_moduli[0]))

    def log_gap(self, k: int) -> float:
        if not 1 <= k < len(self.log_moduli):
            raise DimensionMismatch(f"gap index {k} out of range")
        return float(self.log_moduli[k - 1] - self.log_moduli[k])

    def is_proximal(self, k: int) -> bool:
        return self.log_gap(k) > math.log1p(self.eps_gap)


@dataclass(frozen=True)
class ProximalityReport:
    """Classification of one matrix at one gap index.

    ``attracting_plane`` (d x k) and ``repelling_plane`` (d x (d-k)) carry
    orthonormal bases of the dominant and complementary invariant subspaces;
    both are None when the matrix is not proximal at k (a flag, not an
    error).  ``inverse_attracting_plane`` (d x k) and
    ``inverse_repelling_plane`` (d x (d-k)) are those of the inverse, None
    unless the matrix is biproximal.  ``is_positively_proximal`` is only
    defined for k = 1.
    """

    k: int
    gap_eig: float
    log_gap: float
    is_proximal: bool
    is_biproximal: bool
    is_positively_proximal: bool | None
    attracting_plane: np.ndarray | None
    repelling_plane: np.ndarray | None
    inverse_attracting_plane: np.ndarray | None
    inverse_repelling_plane: np.ndarray | None


def _singular_value_check(
    entries: np.ndarray, cond_limit: float = math.inf
) -> tuple[np.ndarray, int, SingularInput | None]:
    """Singular values of each matrix in an (n, d, d) stack, rows nonincreasing.

    Also returns the index of the first matrix that is singular or whose
    condition number exceeds ``cond_limit``, with its error; n and None
    when every matrix passes.
    """
    sv = np.linalg.svd(entries, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    singular = (sv[:, -1] <= 0.0) | ~np.isfinite(sv[:, -1])
    bad = singular | (cond > cond_limit)
    if not bad.any():
        return sv, len(sv), None
    i = int(np.argmax(bad))
    if singular[i]:
        return sv, i, SingularInput("singular matrix")
    # three decimals, or the fewest more that print a number above the limit
    # (.16e round-trips, so one is found)
    text = next(t for t in (f"{cond[i]:.{n}e}" for n in range(3, 17)) if float(t) > cond_limit)
    return sv, i, SingularInput(f"condition number {text} exceeds {cond_limit:.0e}")


def log_singular_values(batch: ScaledBatch) -> np.ndarray:
    """Log singular values of every matrix of a batch, one nonincreasing row each.

    One stacked SVD; the checks of :func:`singular_values` apply to every
    matrix and the first failing one in batch order raises.
    """
    sv, _, error = _singular_value_check(batch.entries, cond_limit=COND_LIMIT)
    if error is not None:
        raise error
    np.log(sv, out=sv)  # in place: one (n, d) array per batch
    sv += batch.log_scale[:, None]
    return sv


def singular_values(g: ScaledMatrix) -> SingularValues:
    """Full nonincreasing singular-value list of the true matrix, log-scaled.

    All values are reported to full relative accuracy, which requires the
    condition number to stay below COND_LIMIT.
    """
    return SingularValues(log_values=_as_readonly(log_singular_values(ScaledBatch.stack([g]))[0]))


#: LAPACK's double-precision real Schur routine, taken on the first Schur
#: form from SciPy's LAPACK extension module alone (:func:`_flapack`), so
#: that no command imports ``scipy.linalg``.
_GEES = None


def _flapack():
    """``scipy.linalg._flapack``, the extension module ``get_lapack_funcs``
    takes ``dgees`` from, loaded without the ``scipy.linalg`` package init.

    The module is registered in ``sys.modules`` (or the entry already there
    is reused), so a later ``import scipy.linalg`` shares it and its
    ``dgees`` is the very handle ``get_lapack_funcs`` returns.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.__path__])
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _real_schur(a: np.ndarray) -> np.ndarray:
    """Real Schur form ``t`` of a finite float64 square matrix ``a``, from
    one LAPACK ``gees`` call without Schur vectors; ``a`` is not overwritten.

    The workspace is the minimal ``3d``, so there is no workspace query;
    failures raise :class:`EigensolveFailure` with the messages of SciPy's
    ``schur`` wrapper, which also validates its input and queries first.
    The ``gees`` handle is taken from :func:`_flapack` on the first call.
    """
    global _GEES
    if _GEES is None:
        _GEES = _flapack().dgees
    d = a.shape[0]
    t, _, _, _, _, _, info = _GEES(lambda re, im: None, a, compute_v=0, lwork=max(1, 3 * d))
    if info < 0:
        raise EigensolveFailure(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise EigensolveFailure("Schur form not found. Possibly ill-conditioned.")
    return t


def _classify_forms(forms: np.ndarray, eps_gap: float) -> tuple[np.ndarray, ...]:
    """The three columns of :func:`spectra` from an (n, d, d) stack of real
    Schur forms, of which only the diagonal, subdiagonal and superdiagonal
    are read.

    Each form is read as a walk down the diagonal reads it: a nonzero
    subdiagonal entry opens a standardized 2x2 block (a complex pair, modulus
    sqrt(det)) unless it closes the previous one; every other diagonal entry
    is a real eigenvalue.  The first bad block (det <= 0) or zero real
    eigenvalue, in row-major order, raises.
    """
    n, d = forms.shape[:2]
    diag, sub, sup = (np.diagonal(forms, offset, 1, 2) for offset in (0, -1, 1))
    opens = np.zeros((n, d), dtype=bool)
    opens[:, :-1] = sub != 0.0
    for j in range(1, d):
        opens[:, j] &= ~opens[:, j - 1]
    real = ~opens
    real[:, 1:] &= ~opens[:, :-1]
    det = np.zeros((n, d))
    det[:, :-1] = diag[:, :-1] * diag[:, 1:] - sup * sub
    bad = (opens & (det <= 0.0)) | (real & (diag == 0.0))
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), d)
        if real[i, j]:
            raise SingularInput("zero eigenvalue")
        raise EigensolveFailure("non-standard 2x2 Schur block")
    pair = np.where(opens, det, 0.0)
    pair[:, 1:] += pair[:, :-1]  # each block's det at both of its columns
    x = np.where(real, np.abs(diag), pair)
    logs = np.log(x)
    logs[~real] *= 0.5
    rows, order = np.arange(n)[:, None], np.argsort(-logs, axis=1, kind="stable")
    log_moduli, real, diag = logs[rows, order], real[rows, order], diag[rows, order]
    positive = real & (diag > 0.0)
    attained = log_moduli[:, :1] - log_moduli <= math.log1p(eps_gap)
    single = (attained.sum(axis=1) == 1) & real[:, 0]
    top_sign = np.where(single, np.where(positive[:, 0], 1, -1), 0)
    return log_moduli, top_sign, (attained & positive).any(axis=1)


def spectra(batch: ScaledBatch, eps_gap: float = EPS_GAP) -> tuple[np.ndarray, ...]:
    """Eigenvalue data of every matrix of a batch, as three per-word columns.

    Returns the log moduli ``(n, d)``, nonincreasing per row; the top sign
    ``(n,)``, +-1, or 0 where :attr:`Spectrum.top_sign` is None; and
    semi-proximal positivity ``(n,)``.  The gap at 1 is ``log_moduli[:, 0] -
    log_moduli[:, 1]``, proximal when above ``math.log1p(eps_gap)``, exactly
    as :meth:`Spectrum.log_gap` and :meth:`Spectrum.is_proximal` compute it.

    One stacked singularity check; then one direct LAPACK ``gees`` call per
    matrix, without Schur vectors, whose Schur forms are stacked and
    classified for the whole batch at once.  The first matrix that fails any
    stage raises, with the error :func:`spectrum` raises for it alone.
    """
    _, n_ok, error = _singular_value_check(batch.entries)
    forms = np.empty((n_ok, *batch.entries.shape[1:]))
    for i in range(n_ok):
        try:
            forms[i] = _real_schur(batch.entries[i])
        except EigensolveFailure as exc:
            forms, error = forms[:i], exc
            break
    log_moduli, top_sign, semi_positive = _classify_forms(forms, eps_gap)
    if error is not None:
        raise error
    return log_moduli + batch.log_scale[:, None], top_sign, semi_positive


def spectrum(g: ScaledMatrix, eps_gap: float = EPS_GAP) -> Spectrum:
    """Eigenvalue moduli via a real Schur form; row 0 of :func:`spectra`.

    One direct LAPACK ``gees`` call without Schur vectors; complex pairs are
    read off the standardized 2x2 blocks of its Schur form, so no complex
    arithmetic is involved.  The signed top eigenvalue is reported only when
    the maximum modulus is attained exactly once (within relative eps_gap)
    and by a real eigenvalue.

    Unlike :func:`singular_values`, no condition-number ceiling applies, but
    wide spectra (long words in exterior powers) are not safe: eigenvalues far
    below the top carry absolute rather than relative accuracy, and a Schur
    diagonal entry that underflows to 0 raises ``SingularInput("zero
    eigenvalue")``.
    """
    log_moduli, sign, semi = spectra(ScaledBatch.stack([g]), eps_gap)
    return Spectrum(_as_readonly(log_moduli[0]), int(sign[0]) or None, bool(semi[0]), eps_gap)


#: Periods after which a class whose columns have not settled is unresolved.
MAX_PERIODS = 128

#: Relative change of a period's log moduli below which they have settled,
#: and (times 16, at most 1e-2) the largest entry of Q_start^T Q_end below a
#: split for which the leading subspace counts as invariant.  Both are raised,
#: word by word, to the rounding of one QR step, unit roundoff times the
#: largest condition number of the word's letters: the floor at which the
#: iteration stops improving.
_SETTLE_TOL = 1e-12


class ClassSpectra(NamedTuple):
    """Eigenvalue data of products along cyclic words, one row per word.

    ``log_moduli`` (n, d) is nonincreasing per row; ``signs`` (n, d) is +-1
    for a real eigenvalue and 0 for each member of a complex-conjugate pair,
    whose two columns are adjacent with equal moduli; an ``unresolved`` row
    did not settle within :data:`MAX_PERIODS` periods and holds NaN moduli
    and frames.  ``frames`` (n, d, d) holds each row's settled orthogonal
    frame and ``columns`` (n, d) the frame column that each modulus was read
    from: where modulus j-1 exceeds modulus j and ``columns[:, :j]`` holds
    0..j-1, the first j columns of the frame span the invariant subspace of
    the product for its j largest moduli.
    """

    log_moduli: np.ndarray
    signs: np.ndarray
    unresolved: np.ndarray
    frames: np.ndarray
    columns: np.ndarray


def _group_spectra(
    m: np.ndarray, steps: Sequence[np.ndarray], log_diag: np.ndarray, split: np.ndarray,
    real_tol: np.ndarray, frames: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Log moduli and signs of every group of columns between invariant splits.

    ``m`` is Q_start^T Q_end over one period, ``steps`` the period's R
    factors in the order taken and ``log_diag`` their summed log diagonals.
    On the span of a group the period acts as ``m``'s diagonal block times
    the product of the R blocks (diagonal blocks of triangular factors
    multiply blockwise), so a group's eigenvalues are those of that small
    product, each R block scaled by the geometric mean of its diagonal.  A
    one-column group is a real eigenvalue whose sign is its entry of ``m``;
    an eigenvalue with imaginary part within ``real_tol`` (one per row) of
    its modulus is read as real.  A wider group comes out in the order of
    its moduli, and its columns of ``frames`` (Q_start) are turned, in
    place, to an orthonormal basis whose leading columns span the small
    product's eigenvectors in that order, a complex pair as the real and
    imaginary parts of one vector.
    """
    n, d = log_diag.shape
    log_moduli, signs = np.empty((n, d)), np.empty((n, d), dtype=int)
    rows, starts = np.nonzero(split[:, :d])
    ends = np.append(starts[1:], d)
    ends[np.append(rows[1:] != rows[:-1], True)] = d
    for g in np.unique(ends - starts).tolist():
        at = ends - starts == g
        r, cols = rows[at, None], starts[at, None] + np.arange(g)
        if g == 1:
            mu, log_moduli[r, cols] = m[r, cols, cols], log_diag[r, cols]
        else:
            block = r[:, :, None], cols[:, :, None], cols[:, None, :]
            product = np.broadcast_to(np.eye(g), (len(r), g, g))
            for step in steps:
                scale = np.log(np.diagonal(step[block], axis1=1, axis2=2)).mean(axis=1)
                product = step[block] @ product / np.exp(scale)[:, None, None]
            mu, vectors = np.linalg.eig(m[block] @ product)
            mean = log_diag[r, cols].mean(axis=1, keepdims=True)
            lm = mean + np.log(np.abs(mu))
            order = np.argsort(-lm, axis=1, kind="stable")
            mu, log_moduli[r, cols] = (np.take_along_axis(x, order, 1) for x in (mu, lm))
            vectors = np.take_along_axis(vectors, order[:, None, :], 2)
            basis = np.where(np.imag(mu)[:, None, :] < 0.0, np.imag(vectors), np.real(vectors))
            turn = np.linalg.qr(basis)[0]
            frames[r, :, cols] = np.swapaxes(turn, 1, 2) @ frames[r, :, cols]
        # a real eigenvalue of several at one modulus may come out with a
        # rounding-size imaginary part: only a resolved one makes a pair
        real = np.abs(np.imag(mu)) <= real_tol[r] * np.abs(mu)
        signs[r, cols] = np.where(real, np.sign(np.real(mu)), 0)
    return log_moduli, signs


@functools.cache
def _generic_frame(d: int) -> np.ndarray:
    """A fixed orthogonal d x d start for the class iteration: seeded, so that
    no start column lies in an invariant subspace of structured images (the
    coordinate planes of a realified diagonal matrix, say)."""
    frame = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0]
    frame.setflags(write=False)
    return frame


def class_spectra(letters: ScaledBatch, words: Sequence[np.ndarray]) -> ClassSpectra:
    """Eigenvalues and invariant frames of the products along cyclic words,
    without forming them.

    ``letters`` holds the image of each letter; ``words`` is a sequence of
    (n_r, r) arrays of letter indices, one row per word, and the result has
    their rows in that order.  All words of one array are iterated together:
    Q <- qr(image(l) Q) letter by letter, last letter first, from a fixed
    generic orthogonal frame (:func:`_generic_frame`), with each R diagonal
    made positive.  Q_start^T Q_end over a period is block triangular
    between the splits whose leading subspaces have become invariant, and
    each group of columns between two such splits spans an invariant
    subspace: its eigenvalues come from one small product (see
    :func:`_group_spectra`), the R diagonals multiplying to their moduli.
    A complex pair, or any cluster of equal moduli, settles only as a group.
    A word is read, and leaves the stack, when two periods agree on the
    splits and, to :data:`_SETTLE_TOL` relative (or the rounding floor of
    its own letters, if higher), on the log-diagonal sum of every group, and
    no group spans more than that floor lets a formed product resolve; after
    :data:`MAX_PERIODS` it is unresolved.  Its frame is the Q_start of the
    period read, each wider group turned to its eigenvectors.  Eigenvalues
    are conjugacy invariants, so a word stands for its class; its frame
    belongs to the word itself.  A word's result does not depend on the
    other words, so it goes in row slices of one stack budget of R factors.
    Raises SingularInput for a singular or non-finite letter image.
    """
    d = letters.entries.shape[-1]
    if not np.isfinite(letters.entries).all():
        raise SingularInput("singular matrix")
    sv, _, error = _singular_value_check(letters.entries)
    if error is not None:
        raise error
    unit = np.finfo(float).eps / 2
    cond = sv[:, 0] / sv[:, -1]
    parts = [(np.empty((0, d)), np.empty((0, d), dtype=int), np.empty(0, dtype=bool),
              np.empty((0, d, d)), np.empty((0, d), dtype=int))]
    steps = [max(1, STACK_ELEMENTS // max(1, group.shape[1] * d * d)) for group in words]
    for codes in (g[lo : lo + s] for g, s in zip(words, steps) for lo in range(0, len(g), s)):
        n, r = codes.shape
        tol = np.maximum(_SETTLE_TOL, cond[codes].max(axis=1, initial=0.0) * unit)
        log_moduli, signs = np.full((n, d), np.nan), np.zeros((n, d), dtype=int)
        frames, columns = np.full((n, d, d), np.nan), np.tile(np.arange(d), (n, 1))
        unresolved = np.ones(n, dtype=bool)
        active = np.arange(n)
        q = np.broadcast_to(_generic_frame(d), (n, d, d))
        last = None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(MAX_PERIODS):
                start, steps, t = q, [], tol[active]
                for i in range(r - 1, -1, -1):
                    q, rr = np.linalg.qr(letters.entries[codes[active, i]] @ q)
                    flip = np.where(np.diagonal(rr, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
                    q, rr = q * flip[:, None, :], rr * flip[:, :, None]
                    steps.append(rr)
                log_diag = sum(np.log(np.diagonal(rr, axis1=1, axis2=2)) for rr in steps)
                m = np.swapaxes(start, 1, 2) @ q
                split = np.ones((len(active), d + 1), dtype=bool)
                split_tol = np.minimum(16 * t, 1e-2)
                for s in range(1, d):
                    split[:, s] = np.abs(m[:, s:, :s]).max(axis=(1, 2)) <= split_tol
                # per group of columns: its log-diagonal sum and spread, at each column
                at = np.flatnonzero(split[:, :d].ravel())
                sizes = np.diff(np.append(at, log_diag.size))
                flat = log_diag.ravel()
                sums = np.repeat(np.add.reduceat(flat, at), sizes).reshape(-1, d)
                spread = np.maximum.reduceat(flat, at) - np.minimum.reduceat(flat, at)
                narrow = np.repeat(spread <= np.log(t / unit)[at // d], sizes)
                ready = last is not None and narrow.reshape(-1, d).all(axis=1) & (
                    split == last[0]).all(axis=1) & (
                    np.abs(sums - last[1]) <= t[:, None] * np.maximum(np.abs(sums), 1.0)
                ).all(axis=1)
                if np.any(ready):
                    done = active[ready]
                    frame = start[ready]
                    lm, sg = _group_spectra(m[ready], [rr[ready] for rr in steps],
                                            log_diag[ready], split[ready], np.sqrt(t[ready]),
                                            frame)
                    order = np.argsort(-lm, axis=1, kind="stable")
                    rows = np.arange(len(done))[:, None]
                    scale = letters.log_scale[codes[done]].sum(axis=1)
                    log_moduli[done] = lm[rows, order] + scale[:, None]
                    signs[done], frames[done], columns[done] = sg[rows, order], frame, order
                    unresolved[done] = False
                    keep = ~ready
                    active, q, split, sums = active[keep], q[keep], split[keep], sums[keep]
                    if not len(active):
                        break
                last = split, sums
        parts.append((log_moduli, signs, unresolved, frames, columns))
    return ClassSpectra(*map(np.concatenate, zip(*parts)))


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, deterministic up to column signs.

    A stack of matrices gives the stack of their bases, from one stacked QR.
    """
    q, r = np.linalg.qr(np.asarray(a, dtype=float))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return q * signs[..., None, :]


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Sine of the largest principal angle between two equal-dimension planes.

    Both arguments must already carry orthonormal columns.  Two stacks of
    planes give one sine per pair, from one stacked matrix norm.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"plane shapes {a.shape} != {b.shape}")
    resid = a - b @ (np.swapaxes(b, -1, -2) @ a)
    sines = np.linalg.norm(resid, 2, axis=(-2, -1))
    return float(sines) if sines.ndim == 0 else sines


#: Largest |(I - P P^T) W P| / |W P| (spectral norms) for which a plane P
#: counts as invariant under W: P is then exactly invariant under W + E with
#: |E| at most that times |W P|.  At k = 1 it is the sine between W p and p.
_INVARIANCE_TOL = 1e-6


def require_gap_index(k: int, d: int) -> None:
    """Raise DimensionMismatch unless 1 <= k <= d - 1."""
    if not 1 <= k <= d - 1:
        raise DimensionMismatch(f"k={k} out of range for dimension {d}")


def _word_reports(
    letters: ScaledBatch, words: Sequence[np.ndarray], k: int, eps_gap: float
) -> list[ProximalityReport]:
    """The body of :func:`word_reports`; its warnings name the line that
    called the public function."""
    d = letters.entries.shape[-1]
    require_gap_index(k, d)
    fwd = class_spectra(letters, words)
    transposed = ScaledBatch(np.swapaxes(letters.entries, 1, 2), letters.log_scale)
    bwd = class_spectra(transposed, [codes[:, ::-1] for codes in words])
    if fwd.unresolved.any() or bwd.unresolved.any():
        raise EigensolveFailure(f"eigenvalues did not settle within {MAX_PERIODS} periods")
    log_moduli = fwd.log_moduli
    tol = math.log1p(eps_gap)
    log_gap = log_moduli[:, k - 1] - log_moduli[:, k]
    proximal = log_gap > tol
    biproximal = proximal & (log_moduli[:, d - k - 1] - log_moduli[:, d - k] > tol)
    # the product W of each word, whose planes are checked under W (Q's) and
    # W^T (Q_T's), the matrix that expands them
    products = [np.empty((0, d, d))]
    for codes in words:
        w = letters.take(codes[:, 0])
        for i in range(1, codes.shape[1]):
            w = w @ letters.take(codes[:, i])
        products.append(w.entries)
    product = np.concatenate(products)
    for found, image in ((fwd, product), (bwd, np.swapaxes(product, 1, 2))):
        for j, rows in ((k, proximal), (d - k, biproximal)):
            if np.any(found.columns[rows, :j] >= j):
                raise EigensolveFailure("largest moduli not read from the leading frame columns")
            plane = found.frames[rows, :, :j]
            moved = image[rows] @ plane
            resid = moved - plane @ (np.swapaxes(plane, 1, 2) @ moved)
            norms = np.linalg.norm(np.stack([resid, moved]), 2, axis=(-2, -1))
            if np.any(norms[0] > _INVARIANCE_TOL * norms[1]):
                raise EigensolveFailure("computed plane is not invariant")
    reports, decade = [], math.log1p(10 * eps_gap)
    for i, gap in enumerate(log_gap.tolist()):
        if tol < gap <= decade:
            warnings.warn(
                f"gap at k={k} is within a decade of eps_gap; verdict is marginal",
                MarginalGapWarning,
                stacklevel=3,
            )
        q, q_t = fwd.frames[i], bwd.frames[i]
        reports.append(ProximalityReport(
            k=k,
            gap_eig=math.exp(gap) if gap < 700 else math.inf,
            log_gap=gap,
            is_proximal=bool(proximal[i]),
            is_biproximal=bool(biproximal[i]),
            is_positively_proximal=bool(proximal[i] and fwd.signs[i, 0] == 1) if k == 1 else None,
            attracting_plane=q[:, :k] if proximal[i] else None,
            repelling_plane=q_t[:, k:] if proximal[i] else None,
            inverse_attracting_plane=q_t[:, d - k:] if biproximal[i] else None,
            inverse_repelling_plane=q[:, :d - k] if biproximal[i] else None,
        ))
    return reports


def word_reports(
    letters: ScaledBatch,
    words: Sequence[np.ndarray],
    k: int,
    eps_gap: float = EPS_GAP,
) -> list[ProximalityReport]:
    """Classify the products along words at gap index ``k``, without forming
    them for the planes.

    ``letters`` and ``words`` are as for :func:`class_spectra`: one report
    per word row, in order.  One pass gives the gaps, the top sign and the
    planes, as column slices of two settled frames: Q of the word and Q_T
    of its transpose word (the transposed letter images in reverse order),
    whose product is W^T.  The attracting k- and (d-k)-planes of W are
    Q[:, :k] and Q[:, :d-k]; its repelling (d-k)-plane is Q_T[:, k:], the
    orthogonal complement of W^T's attracting k-plane; the inverse's
    attracting k-plane is Q_T[:, d-k:].  No matrix is inverted.  The
    repelling plane is set when the word is proximal at k, the inverse's
    planes (``inverse_repelling_plane`` being W's attracting (d-k)-plane)
    when it is biproximal.

    The stages run over all words in turn, and the first that fails raises:
    a singular letter image (SingularInput); a word that does not settle; a
    needed plane whose moduli did not come out of the leading frame columns;
    a leading slice of Q or Q_T that is not invariant under the formed W or
    W^T, the matrix that expands it.  A MarginalGapWarning is emitted per
    row whose open gap is within a decade of ``eps_gap``, once every row has
    passed.
    """
    return _word_reports(letters, words, k, eps_gap)


def proximality_report(
    g: ScaledMatrix,
    k: int,
    eps_gap: float = EPS_GAP,
) -> ProximalityReport:
    """Classify proximality of ``g`` at gap index ``k`` and extract planes:
    the one-row, one-letter case of :func:`word_reports`."""
    return _word_reports(ScaledBatch.stack([g]), [np.zeros((1, 1), dtype=np.intp)], k, eps_gap)[0]


@dataclass(frozen=True)
class MultiIndexBasis:
    """All sorted k-subsets of {0..d-1} in lexicographic order."""

    d: int
    k: int
    subsets: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.subsets)


@functools.lru_cache(maxsize=None)
def multi_index_basis(d: int, k: int) -> MultiIndexBasis:
    if not 0 <= k <= d:
        raise DegreeMismatch(f"degree {k} out of range for dimension {d}")
    return MultiIndexBasis(d=d, k=k, subsets=tuple(combinations(range(d), k)))


@functools.lru_cache(maxsize=None)
def _subset_positions(d: int, k: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(multi_index_basis(d, k).subsets)}


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Parity sign of sorting the concatenation of two sorted disjoint tuples."""
    return -1 if sum(j < i for i in left for j in right) % 2 else 1


@functools.lru_cache(maxsize=None)
def _complement_table(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each k-subset I: position of its complement in the (d-k)-basis,
    and the sign of e_I wedge e_{I^c} against e_0 wedge ... wedge e_{d-1}."""
    subsets, pos = multi_index_basis(d, k).subsets, _subset_positions(d, d - k)
    rests = [tuple(sorted(set(range(d)) - set(subset))) for subset in subsets]
    comp = np.array([pos[rest] for rest in rests], dtype=np.intp)
    signs = np.array([merge_sign(*pair) for pair in zip(subsets, rests)], dtype=np.int8)
    comp.setflags(write=False)
    signs.setflags(write=False)
    return comp, signs


def maximal_minors(planes: np.ndarray) -> np.ndarray:
    """All maximal minors of each matrix of an (n, d, k) stack, ordered by row
    subset: unnormalized Pluecker coordinates, one row per matrix.  Stacks of
    at most :data:`STACK_ELEMENTS` minor entries; determinants are per minor,
    so the slicing does not change a bit."""
    n, d, k = planes.shape
    size = math.comb(d, k)
    if size > COMPOUND_GUARD:
        raise ResourceLimit(f"C({d},{k}) exceeds guard {COMPOUND_GUARD}")
    rows = np.array(multi_index_basis(d, k).subsets, dtype=np.intp)
    step = max(1, STACK_ELEMENTS // (size * k * k))
    minors = np.empty((n, size))
    for lo in range(0, n, step):
        minors[lo : lo + step] = np.linalg.det(planes[lo : lo + step, rows, :])
    return minors


def _condition_rule(pairs: np.ndarray, cond_threshold: float) -> np.ndarray:
    """The exact rule on an (n, d, d) stack of [V | W]: positive smallest
    singular value and condition number below the threshold (one stacked
    SVD, which raises LinAlgError on NaN input)."""
    sv = np.linalg.svd(pairs, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sv[:, -1] > 0.0) & (sv[:, 0] / sv[:, -1] < cond_threshold)


def transverse_mask(
    k_planes: np.ndarray,
    dk_planes: np.ndarray,
    cond_threshold: float = TRANSVERSALITY_COND,
    where: np.ndarray | None = None,
    k_minors: np.ndarray | None = None,
) -> np.ndarray:
    """Whether each k-plane spans the whole space stably with each (d-k)-plane.

    ``k_planes`` (m, d, k) and ``dk_planes`` (n, d, d-k) are stacks of
    orthonormal bases; entry (x, y) of the (m, n) result is True when
    [k_planes[x] | dk_planes[y]] has a positive smallest singular value and
    condition number below ``cond_threshold``.  A single d x k plane gives
    its (n,) row.  Pairs where ``where`` is False are skipped and read False.
    ``k_minors``, when given, is :func:`maximal_minors` of the k-plane stack.

    For orthonormal V, W with principal angles t_i, [V | W] has singular
    values sqrt(1 +- cos t_i) and ones, so cond = (1 + cos t_min) / sin t_min
    <= 2 / sin t_min, while |det| = prod sin t_i <= sin t_min: |det| > 2/T
    implies cond < T.  Every det comes from one product per row block,
    Pk (signs * Pdk[:, comp])^T, by Cauchy-Binet on the stacked Pluecker
    minors, and |det| > max(4/T, 1e-10) is transverse outright: the factor 2
    covers the SVD's relative error, about d eps cond <= 3e-5 at cond <= 2e10,
    and the floor keeps |det| far above its rounding, about C(d, k) eps.  All
    other pairs, non-finite ones included, go to the SVD in the same block of
    at most :data:`STACK_ELEMENTS` pair-matrix elements, so every verdict is
    the SVD's: a NaN entry raises its LinAlgError, an infinite one reads False.
    """
    v, w = np.asarray(k_planes, dtype=float), np.asarray(dk_planes, dtype=float)
    single = v.ndim == 2
    v = v[None] if single else v
    if v.ndim != 3 or w.ndim != 3 or v.shape[1] != w.shape[1]:
        raise DimensionMismatch("planes must be column bases in the same space")
    (m, d, k), n = v.shape, len(w)
    if k + w.shape[2] != d:
        raise DimensionMismatch(f"dimensions {k} + {w.shape[2]} do not sum to {d}")
    where = np.broadcast_to(True if where is None else where, (m, n))
    comp, signs = _complement_table(d, k)
    margin = max(4.0 / cond_threshold, 1e-10) if cond_threshold > 0 else math.inf
    mask = np.empty((m, n), dtype=bool)
    step = max(1, STACK_ELEMENTS // max(1, n * d * d))
    with np.errstate(invalid="ignore"):  # non-finite pairs are left to the SVD
        pk = maximal_minors(v) if k_minors is None else k_minors
        pdk = maximal_minors(w)[:, comp] * signs
        for lo in range(0, m, step):
            det = np.abs(pk[lo : lo + step] @ pdk.T)
            ok = (det > margin) & (det < math.inf)
            x, y = np.nonzero(where[lo : lo + step] & ~ok)
            if len(x):
                pairs = np.concatenate([v[lo + x], w[y]], axis=2)
                ok[x, y] = _condition_rule(pairs, cond_threshold)
            mask[lo : lo + step] = ok & where[lo : lo + step]
    return mask[0] if single else mask


def is_transverse(
    v: np.ndarray, w: np.ndarray, cond_threshold: float = TRANSVERSALITY_COND
) -> bool:
    """Whether a k-plane and a (d-k)-plane, given by orthonormal bases, span
    the whole space stably: the 1 x 1 case of :func:`transverse_mask`."""
    v, w = np.asarray(v, dtype=float)[None], np.asarray(w, dtype=float)[None]
    return bool(transverse_mask(v, w, cond_threshold)[0, 0])


def normalize_to_sl(g: ScaledMatrix) -> ScaledMatrix:
    """Rescale so |det| = 1.  Entry block is untouched, only the scale moves,
    hence all eigenvalue/singular-value ratios and verdicts are preserved.
    """
    sign, logabs = np.linalg.slogdet(g.entries)
    if sign == 0.0:
        raise SingularInput("determinant underflow")
    return ScaledMatrix(g.entries, -float(logabs) / g.dim)
