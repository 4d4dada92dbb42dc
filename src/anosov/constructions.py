"""Builders for explicit representation families.

Schottky free groups in SL(2,R) or SL(2,C), the realification of complex
2x2 matrices into SL(4,R), block-diagonal direct sums, symmetric powers of
SL(2,R), Fuchsian surface groups from the regular 4g-gon, and seeded
perturbation paths of free-group representations.

Complex matrices appear only as numpy complex arrays at the realification
boundary; everything downstream of the builders is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DeterminantNotOne,
    DimensionMismatch,
    InvalidMagnitude,
    InvalidParams,
    PresentationMismatch,
    SingularInput,
)
from .linalg import ScaledMatrix, normalize_to_sl
from .words import Presentation, Representation

_DET_TOL = 1e-9


def rotation_about_i(theta: float) -> np.ndarray:
    """SL(2,R) elliptic element rotating the hyperbolic plane by theta about i.

    The matrix angle is theta/2: a quarter rotation of the plane is the matrix
    [[cos(pi/4), sin(pi/4)], [-sin(pi/4), cos(pi/4)]].
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def _circular_separation(a: float, b: float) -> float:
    delta = abs(a - b) % math.pi
    return min(delta, math.pi - delta)


@dataclass(frozen=True)
class SchottkyParams:
    """Parameters of a Schottky family of rank ``rank``.

    Each generator translates along an axis through i at angle ``angles[i]``
    (defaults are equally spaced, i * pi / rank) with eigenvalue ratio
    dilation^2.  ``trace_signs`` flips the sign of the chosen matrix lift.
    For the complex field, ``twists`` adds a unit-modulus rotation to the
    eigenvalues, giving loxodromic elements of SL(2,C).
    """

    rank: int
    dilation: float | Sequence[float] = 3.0
    angles: Sequence[float] | None = None
    field: str = "real"
    trace_signs: Sequence[int] | None = None
    twists: Sequence[float] | None = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise InvalidParams("rank must be at least 1")
        if self.field not in ("real", "complex"):
            raise InvalidParams(f"unknown field {self.field!r}")
        for lam in self.dilations():
            if not lam > 1.0:
                raise InvalidParams(f"dilation {lam} must exceed 1")
        angles = self.axis_angles()
        if any(not 0.0 <= a < math.pi for a in angles):
            raise InvalidParams("axis angles must lie in [0, pi)")
        min_sep = math.pi / (2 * self.rank)
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if _circular_separation(angles[i], angles[j]) < min_sep - 1e-12:
                    raise InvalidParams(
                        f"axis angles {i},{j} separated by less than pi/(2*rank)"
                    )
        for s in self.signs():
            if s not in (1, -1):
                raise InvalidParams("trace signs must be +1 or -1")
        if self.twists is not None and len(tuple(self.twists)) != self.rank:
            raise InvalidParams("need one twist per generator")

    def dilations(self) -> tuple[float, ...]:
        if isinstance(self.dilation, (int, float)):
            return (float(self.dilation),) * self.rank
        lams = tuple(float(l) for l in self.dilation)
        if len(lams) != self.rank:
            raise InvalidParams("need one dilation per generator")
        return lams

    def axis_angles(self) -> tuple[float, ...]:
        if self.angles is None:
            return tuple(i * math.pi / self.rank for i in range(self.rank))
        angs = tuple(float(a) for a in self.angles)
        if len(angs) != self.rank:
            raise InvalidParams("need one axis angle per generator")
        return angs

    def signs(self) -> tuple[int, ...]:
        if self.trace_signs is None:
            return (1,) * self.rank
        return tuple(int(s) for s in self.trace_signs)

    def twist_angles(self) -> tuple[float, ...]:
        if self.twists is None:
            return (0.0,) * self.rank
        return tuple(float(t) for t in self.twists)


@dataclass(frozen=True)
class ComplexRepresentation:
    """Free-group representation into SL(2,C), generators as complex arrays."""

    presentation: Presentation
    images: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        for m in self.images:
            if m.shape != (2, 2):
                raise DimensionMismatch("complex generators must be 2x2")
            if abs(np.linalg.det(m) - 1.0) > _DET_TOL:
                raise DeterminantNotOne(f"det = {np.linalg.det(m)}")


def schottky_rep(params: SchottkyParams) -> Representation | ComplexRepresentation:
    """Schottky generators: sign * R(theta) diag(lam e^{i phi}, e^{-i phi}/lam) R(theta)^-1."""
    pres = Presentation.free(params.rank)
    mats = []
    for lam, theta, sign, phi in zip(
        params.dilations(), params.axis_angles(), params.signs(), params.twist_angles()
    ):
        r = rotation_about_i(theta)
        if params.field == "real":
            mats.append(sign * (r @ np.diag([lam, 1.0 / lam]) @ r.T))
        else:
            diag = np.diag(
                [lam * np.exp(1j * phi), np.exp(-1j * phi) / lam]
            )
            mats.append(sign * (r.astype(complex) @ diag @ r.T.astype(complex)))
    if params.field == "real":
        return Representation.from_generators(pres, [ScaledMatrix.from_array(m) for m in mats])
    return ComplexRepresentation(presentation=pres, images=tuple(mats))


def tau2_realify(g: np.ndarray) -> ScaledMatrix:
    """Real 4x4 block form [[Re g, -Im g], [Im g, Re g]] of a 2x2 complex matrix.

    Multiplicative, determinant |det g|^2 = 1, and every singular value of g
    appears twice, so the top gap of the output closes to 1 while the middle
    gap equals the full gap of g.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise DimensionMismatch(f"expected 2x2, got {g.shape}")
    if abs(np.linalg.det(g) - 1.0) > _DET_TOL:
        raise DeterminantNotOne(f"det = {np.linalg.det(g)}")
    re, im = g.real, g.imag
    return ScaledMatrix.from_array(np.block([[re, -im], [im, re]]))


def realify_rep(crep: ComplexRepresentation) -> Representation:
    """Apply the realification generator-wise, yielding a 4-dimensional representation."""
    return Representation.from_generators(
        crep.presentation, [tau2_realify(m) for m in crep.images]
    )


def direct_sum(reps: Sequence[Representation]) -> Representation:
    """Block-diagonal sum; singular values of the sum are the multiset union."""
    if not reps:
        raise InvalidParams("need at least one summand")
    pres = reps[0].presentation
    for r in reps[1:]:
        if r.presentation != pres:
            raise PresentationMismatch(
                f"{r.presentation.describe()} != {pres.describe()}"
            )
    ends = np.cumsum([0] + [r.dim for r in reps])
    mats = []
    for gen in range(pres.n_generators):
        out = np.zeros((ends[-1], ends[-1]))
        for r, lo, hi in zip(reps, ends[:-1], ends[1:]):
            out[lo:hi, lo:hi] = r.images[gen].array()
        mats.append(ScaledMatrix.from_array(out))
    return Representation.from_generators(pres, mats)


def symmetric_power(g: ScaledMatrix | np.ndarray, m: int) -> ScaledMatrix:
    """Degree-m symmetric power of a 2x2 determinant-one matrix.

    Acts on the binomial-weighted monomial basis of degree-m forms, which is
    the weighting under which rotations stay orthogonal; diag(lam, 1/lam)
    maps to diag(lam^m, lam^{m-2}, ..., lam^{-m}).  Multiplicative.
    """
    if m < 1:
        raise InvalidParams("symmetric power degree must be at least 1")
    try:  # as doubles: past m = 67 the binomials overflow int64
        weights = np.sqrt([float(math.comb(m, i)) for i in range(m + 1)])
    except OverflowError:
        raise InvalidParams(f"symmetric power degree {m} has binomials beyond double range")
    if isinstance(g, ScaledMatrix):
        if g.dim != 2:
            raise DimensionMismatch("symmetric powers are for 2x2 matrices")
        sign, logabs = g.slogdet()
        if sign <= 0 or abs(logabs) > _DET_TOL:
            raise DeterminantNotOne("need det = 1")
        entries, log_scale = g.entries, g.log_scale
    else:
        g = np.asarray(g, dtype=float)
        if g.shape != (2, 2):
            raise DimensionMismatch(f"expected 2x2, got {g.shape}")
        if abs(np.linalg.det(g) - 1.0) > _DET_TOL:
            raise DeterminantNotOne(f"det = {np.linalg.det(g)}")
        entries, log_scale = g, 0.0
    a, b = entries[0, 0], entries[0, 1]
    c, d = entries[1, 0], entries[1, 1]
    # each power as the scalar x**e, so every term has the bits of the term-by-term sum
    pa, pb, pc, pd = (np.array([x**e for e in range(m + 1)]) for x in (a, b, c, d))
    raw = np.zeros((m + 1, m + 1))
    for j in range(m + 1):
        # column j: expand (a x + c y)^(m-j) (b x + d y)^j over x^(m-i) y^i;
        # term (r, s) lands in row i = m - r - s, added in (r, s) order
        r, s = np.arange(m - j + 1)[:, None], np.arange(j + 1)[None, :]
        # binomial products as exact integers, each rounded once to a double
        binomials = np.multiply.outer(
            np.array([math.comb(m - j, e) for e in range(m - j + 1)], dtype=object),
            np.array([math.comb(j, e) for e in range(j + 1)], dtype=object),
        ).astype(float)
        terms = binomials * pa[r] * pc[m - j - r] * pb[s] * pd[j - s]
        np.add.at(raw[:, j], (m - r - s).ravel(), terms.ravel())
    weighted = raw * (weights[None, :] / weights[:, None])
    return ScaledMatrix.from_array(weighted, m * log_scale)


def sym_power_rep(rep: Representation, m: int) -> Representation:
    """Generator-wise symmetric power of an SL(2,R)-valued representation."""
    if rep.dim != 2:
        raise DimensionMismatch("base representation must be 2-dimensional")
    try:
        return Representation.from_generators(
            rep.presentation, [symmetric_power(g, m) for g in rep.images]
        )
    except SingularInput as exc:  # the images' range outgrows float64
        raise SingularInput(f"symmetric power of degree {m}: {exc}") from None


def fuchsian_surface_rep(genus: int) -> Representation:
    """Fuchsian surface-group representation from the regular 4g-gon.

    The polygon is centered at i with all interior angles pi/(2*genus) (for
    genus 2, the regular octagon with angle pi/4), so its 4g corners glue to
    a single vertex of total angle 2 pi.  Side k is paired with side k+2
    within each block of four, and the resulting side-pairing translations
    satisfy the commutator relator exactly; the builder verifies the relator
    numerically on construction.
    """
    pres = Presentation.surface(genus)
    n = 4 * genus
    half_angle = math.pi / n
    # right triangle (center, side midpoint, vertex) with angles pi/n, pi/2, pi/n
    center_to_vertex = math.acosh(1.0 / math.tan(half_angle) ** 2)
    apothem = math.atanh(math.tanh(center_to_vertex) * math.cos(half_angle))
    # rotation by pi about the side midpoint at distance `apothem` up the axis
    flip = (
        np.diag([math.exp(apothem / 2.0), math.exp(-apothem / 2.0)])
        @ rotation_about_i(math.pi)
        @ np.diag([math.exp(-apothem / 2.0), math.exp(apothem / 2.0)])
    )

    def pairing(i: int, j: int) -> np.ndarray:
        phi_i = (2 * i + 1) * math.pi / n
        phi_j = (2 * j + 1) * math.pi / n
        return (
            rotation_about_i(phi_i - math.pi / 2)
            @ flip
            @ rotation_about_i(math.pi / 2 - phi_j)
        )

    mats = []
    for p in range(genus):
        a = pairing(4 * p, 4 * p + 2)
        b = np.linalg.inv(pairing(4 * p + 1, 4 * p + 3))
        mats.append(ScaledMatrix.from_array(a))
        mats.append(ScaledMatrix.from_array(b))
    # from_generators raises ConstructionFailure if the relator defect is large
    return Representation.from_generators(pres, mats)


MAX_PERTURBATION = 0.1


def perturb_path(
    rep0: Representation, magnitude: float, seed: int, steps: int
) -> list[Representation]:
    """Linear path from ``rep0`` to a seeded random perturbation of it.

    Generator images move along straight lines in matrix space and are
    renormalized to |det| = 1 at every step; step 0 is ``rep0`` itself.
    Restricted to free presentations (no relator to maintain) and to
    magnitudes at most 0.1.
    """
    if rep0.presentation.family != "free":
        raise PresentationMismatch("perturbation paths require a free presentation")
    if not 0.0 <= magnitude <= MAX_PERTURBATION:
        raise InvalidMagnitude(f"magnitude {magnitude} outside [0, {MAX_PERTURBATION}]")
    if steps < 1:
        raise InvalidParams("need at least one step")
    rng = np.random.default_rng(seed)
    noise = [rng.standard_normal((rep0.dim, rep0.dim)) for _ in rep0.images]
    base = [g.array() for g in rep0.images]
    path = [rep0]
    for s in range(1, steps + 1):
        t = s / steps
        mats = [
            normalize_to_sl(ScaledMatrix.from_array(b + t * magnitude * nz))
            for b, nz in zip(base, noise)
        ]
        path.append(Representation.from_generators(rep0.presentation, mats))
    return path
