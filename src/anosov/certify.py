"""Empirical certification machinery.

Gap profiles over word-metric balls, lower-envelope Anosov certificates,
positivity and semi-proximality scans in exterior powers, limit-map sampling
with transversality and span audits, signed-eigenvalue tracking along
deformation paths, and a projective ping-pong power search.

Verdicts produced here are empirical statements about a finite ball radius,
never proofs.  Identical inputs (including seeds) give byte-identical
reports.  Scans run single-threaded; the ``threads`` arguments are accepted
for compatibility and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    InsufficientRadius,
    NoProximalElements,
    NotBiproximal,
    ToolkitError,
    TransversalityFailure,
)
from .exterior import STACK_ELEMENTS, compound_batch, compound_matrix
from .linalg import (
    EPS_GAP,
    TRANSVERSALITY_COND,
    ScaledBatch,
    ScaledMatrix,
    log_singular_values,
    maximal_minors,
    orthonormalize,
    proximality_report,
    proximality_reports,
    require_gap_index,
    spectra,
    spectrum,
    transverse_mask,
)
from .words import (
    Presentation,
    Representation,
    Word,
    cyclic_class_rows,
    enumerate_ball,
    evaluate,
    evaluate_ball,
    parse_word,
    word_str,
)

REFUTATION_TOL = 1e-9
DEFAULT_ALPHA_MIN = 0.05
DEFAULT_ELL_MIN = 2


def compound_rep(rep: Representation, k: int) -> Representation:
    """Generator-wise induced representation on the k-th exterior power."""
    if k == 1:
        return rep
    return Representation.from_generators(
        rep.presentation, [compound_matrix(g, k) for g in rep.images]
    )


# ---------------------------------------------------------------------------
# gap profiles and certificates


class GapRow(NamedTuple):
    word: str
    length: int
    log_gap: float
    log_total: float


class _ColumnRecord:
    """Value equality for dataclasses with numpy columns, compared element-wise."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


@dataclass(frozen=True, eq=False)
class GapProfile(_ColumnRecord):
    """Per-word log singular-value gaps over a ball, at one index k.

    Columns are in ball order: ``words`` (shared by every k of one scan),
    ``lengths``, ``log_gap`` = log(sigma_k / sigma_{k+1}) clipped at 0 and
    ``log_total`` = log(sigma_1 / sigma_d).
    """

    k: int
    radius: int
    dim: int
    presentation: str
    words: list[str]
    lengths: np.ndarray
    log_gap: np.ndarray
    log_total: np.ndarray

    @property
    def rows(self) -> tuple[GapRow, ...]:
        """One record per word, built on demand."""
        return tuple(
            map(GapRow, self.words, self.lengths.tolist(), self.log_gap.tolist(),
                self.log_total.tolist())
        )

    def per_length_minima(self, column: str = "log_gap") -> dict[int, float]:
        starts = np.flatnonzero(np.diff(self.lengths, prepend=-1))  # sphere starts
        minima = np.minimum.reduceat(getattr(self, column), starts)
        return dict(zip(self.lengths[starts].tolist(), minima.tolist()))


def gap_profiles(
    rep: Representation, ks: Sequence[int], radius: int
) -> list[GapProfile]:
    """One gap profile per k in ``ks``, read from one stacked SVD of the ball.

    Every k is checked against the dimension before the ball is enumerated.
    """
    d = rep.dim
    for k in ks:
        require_gap_index(k, d)
    ball = enumerate_ball(rep.presentation, radius)
    log_sv = log_singular_values(evaluate_ball(rep, ball))
    words, lengths = ball.word_strings(), ball.lengths()
    log_total = log_sv[:, 0] - log_sv[:, -1]
    return [
        GapProfile(
            k=k, radius=radius, dim=d, presentation=rep.presentation.describe(), words=words,
            lengths=lengths, log_gap=np.maximum(log_sv[:, k - 1] - log_sv[:, k], 0.0),
            log_total=log_total,
        )
        for k in ks
    ]


def gap_profile(
    rep: Representation, k: int, radius: int, threads: int = 1
) -> GapProfile:
    """The gap profile at one k; ``threads`` is accepted and ignored."""
    return gap_profiles(rep, [k], radius)[0]


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares line through the per-length minima of a profile column."""

    slope: float
    intercept: float
    min_margin: float
    minima: tuple[tuple[int, float], ...]


def _envelope_fit(profile: GapProfile, column: str, ell_min: int) -> EnvelopeFit:
    minima = profile.per_length_minima(column)
    xs = np.array([l for l in sorted(minima) if l >= ell_min], dtype=float)
    ys = np.array([minima[int(l)] for l in xs])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return EnvelopeFit(
        slope=float(slope),
        intercept=float(intercept),
        min_margin=minima[profile.radius],
        minima=tuple((int(l), minima[int(l)]) for l in sorted(minima)),
    )


def _minima_nondecreasing_top_half(fit: EnvelopeFit, radius: int) -> bool:
    start = max(2, math.ceil(radius / 2))
    vals = [v for l, v in fit.minima if l >= start]
    return all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@dataclass(frozen=True)
class CertificateEstimate:
    """Fitted lower envelope of a gap profile with an empirical verdict.

    Certified: slope alpha_hat >= alpha_min and per-length minima
    nondecreasing over the top half of the radii.  Refuted: some word of
    length >= 2 has a vanishing gap; the reported witness is the first word
    of any positive length whose gap vanishes.  Everything else is
    Inconclusive.  The quasi-isometry fit applies the same machinery to the
    total ratio log(sigma_1 / sigma_d).
    """

    k: int
    radius: int
    alpha_hat: float
    logC_hat: float
    min_margin: float
    verdict: str
    witness: str | None
    qie: EnvelopeFit
    qie_passed: bool
    alpha_min: float
    ell_min: int


def certify_anosov(
    profile: GapProfile,
    alpha_min: float = DEFAULT_ALPHA_MIN,
    ell_min: int = DEFAULT_ELL_MIN,
) -> CertificateEstimate:
    if profile.radius < ell_min + 2:
        raise InsufficientRadius(
            f"radius {profile.radius} < ell_min + 2 = {ell_min + 2}"
        )
    fit = _envelope_fit(profile, "log_gap", ell_min)
    vanishing = profile.log_gap < REFUTATION_TOL
    refuted = bool(np.any(vanishing & (profile.lengths >= 2)))
    hits = np.flatnonzero(vanishing & (profile.lengths >= 1))
    witness = profile.words[hits[0]] if len(hits) else None
    qie = _envelope_fit(profile, "log_total", ell_min)
    qie_passed = qie.slope >= alpha_min and _minima_nondecreasing_top_half(
        qie, profile.radius
    )
    if refuted:
        verdict = "Refuted"
    elif fit.slope >= alpha_min and _minima_nondecreasing_top_half(fit, profile.radius):
        verdict = "Certified"
        witness = None
    else:
        verdict = "Inconclusive"
    return CertificateEstimate(
        k=profile.k,
        radius=profile.radius,
        alpha_hat=fit.slope,
        logC_hat=fit.intercept,
        min_margin=fit.min_margin,
        verdict=verdict,
        witness=witness,
        qie=qie,
        qie_passed=qie_passed,
        alpha_min=alpha_min,
        ell_min=ell_min,
    )


# ---------------------------------------------------------------------------
# positivity scans


@dataclass(frozen=True, eq=False)
class PositivityReport(_ColumnRecord):
    """Positive-proximality verdict for a ball acting on an exterior power.

    The verdict restricts the subgroup-level notion to the scanned ball:
    PositivelyProximal when proximal elements exist and all have positive
    top eigenvalue, NotPositivelyProximal with the first counterexample as
    witness, NoProximalFound otherwise.  Words failing positive
    semi-proximality obstruct any invariant properly convex cone, so they
    are collected separately.  Per-word columns are in ball order;
    ``ell1_sign`` is +-1 when the signed top eigenvalue is defined, else 0.
    """

    k: int
    radius: int
    dim_scanned: int
    words: list[str]
    lengths: np.ndarray
    proximal: np.ndarray
    ell1_sign: np.ndarray
    semiproximal_positive: np.ndarray
    log_gap: np.ndarray
    n_proximal: int
    n_negative: int
    verdict: str
    witness: str | None
    witness_recheck: bool
    semiproximal_failures: tuple[str, ...]


def scan_positivities(
    rep: Representation,
    ks: Sequence[int],
    radius: int,
    eps_gap: float = EPS_GAP,
) -> list[PositivityReport]:
    """Scan signed top eigenvalues of the induced exterior-power actions.

    Every compound representation is built before the ball is enumerated,
    so an out-of-range k fails first; the ball is then enumerated once and
    walked once per k with that k's compound generator images.  A negative
    witness is re-verified through the independent route (compound of the
    base-dimension product, fresh eigensolve): the verdict is
    NotPositivelyProximal when the recheck confirms it, Inconclusive when not.
    """
    creps = [compound_rep(rep, k) for k in ks]
    ball = enumerate_ball(rep.presentation, radius)
    words, lengths = ball.word_strings(), ball.lengths()
    reports = []
    for k, crep in zip(ks, creps):
        log_moduli, ell1_sign, semiproximal = spectra(evaluate_ball(crep, ball), eps_gap=eps_gap)
        gapped = crep.dim > 1
        log_gap = log_moduli[:, 0] - log_moduli[:, 1] if gapped else np.zeros(len(words))
        proximal = gapped & (log_gap > math.log1p(eps_gap))
        negative = np.flatnonzero(proximal & (ell1_sign < 0))
        witness = words[negative[0]] if len(negative) else None
        n_proximal = int(np.count_nonzero(proximal))
        recheck = False
        if witness is not None:
            base = evaluate(rep, parse_word(witness))
            lifted = compound_matrix(base, k) if k > 1 else base
            sp = spectrum(lifted, eps_gap=eps_gap)
            recheck = sp.is_proximal(1) and sp.top_sign == -1
        if n_proximal == 0:
            verdict = "NoProximalFound"
        elif witness is not None:
            verdict = "NotPositivelyProximal" if recheck else "Inconclusive"
        else:
            verdict = "PositivelyProximal"
        reports.append(
            PositivityReport(
                k=k, radius=radius, dim_scanned=crep.dim, words=words, lengths=lengths,
                proximal=proximal, ell1_sign=ell1_sign, semiproximal_positive=semiproximal,
                log_gap=log_gap,
                n_proximal=n_proximal, n_negative=len(negative), verdict=verdict,
                witness=witness, witness_recheck=recheck,
                semiproximal_failures=tuple(words[i] for i in np.flatnonzero(~semiproximal)),
            )
        )
    return reports


def scan_positivity(
    rep: Representation,
    k: int,
    radius: int,
    eps_gap: float = EPS_GAP,
    threads: int = 1,
) -> PositivityReport:
    """The positivity scan at one k; ``threads`` is accepted and ignored."""
    return scan_positivities(rep, [k], radius, eps_gap)[0]


# ---------------------------------------------------------------------------
# limit-map sampling


@dataclass(frozen=True)
class LimitSample:
    """Attracting data of one primitive conjugacy class and its inverse.

    ``plus_k`` is the attracting k-plane of the element, ``minus_dk`` the
    attracting (d-k)-plane of its inverse (the repelling complement).  The
    secondary planes ``minus_k`` / ``plus_dk`` exist when the inverse gap is
    also open (biproximality) and feed the span and transversality audits.
    """

    word: str
    inverse_word: str
    dynamics_preserving: bool
    log_gap: float
    plus_k: np.ndarray | None
    minus_dk: np.ndarray | None
    minus_k: np.ndarray | None
    plus_dk: np.ndarray | None


def limit_map_sample(
    rep: Representation,
    k: int,
    radius: int,
    eps_gap: float = EPS_GAP,
    seed: int = 0,
) -> list[LimitSample]:
    """One sample per primitive letter-level cyclic class of the ball.

    The sampled words are the first of each class in ball order, found from
    integer word codes by :func:`cyclic_class_rows`, and only they are
    spelled out.  They are classified by one :func:`proximality_reports`
    call, the i-th with power-iteration audit generator
    ``default_rng([seed, i])``; the biproximal ones are inverted as one
    stack (:meth:`ScaledBatch.inverse`) and read by one more call, without
    the audit.  When either stage fails, the per-word loop is rerun so that
    the error raised is that of the first failing word, its forward report
    before its inverse's.  Raises NoProximalElements when no sampled word is
    proximal at k.
    """
    if radius < 2:
        raise InsufficientRadius("limit sampling needs radius >= 2")
    require_gap_index(k, rep.dim)
    ball = enumerate_ball(rep.presentation, radius)
    rows = cyclic_class_rows(ball)
    sampled = evaluate_ball(rep, ball).take(rows)
    rngs = [np.random.default_rng([seed, index]) for index in range(len(rows))]
    try:
        fwd = proximality_reports(sampled, k, eps_gap=eps_gap, rngs=rngs)
        biproximal = [j for j, report in enumerate(fwd) if report.is_biproximal]
        inverses = sampled.take(biproximal).inverse()
        bwd = proximality_reports(inverses, k, eps_gap=eps_gap, verify=False)
    except ToolkitError:
        for index in range(len(rows)):
            m = sampled[index]
            rng = np.random.default_rng([seed, index])
            if proximality_report(m, k, eps_gap=eps_gap, rng=rng).is_biproximal:
                proximality_report(m.inverse(), k, eps_gap=eps_gap, rng=rng, verify=False)
        raise
    if not any(report.is_proximal for report in fwd):
        raise NoProximalElements(f"no P_{k}-proximal element in the radius-{radius} ball")
    inverse_planes = {j: (r.attracting_plane, r.repelling_plane) for j, r in zip(biproximal, bwd)}
    samples = []
    for j, (w, report) in enumerate(zip(ball.words_at(rows), fwd)):
        minus_k, plus_dk = inverse_planes.get(j, (None, None))
        samples.append(LimitSample(
            word=str(w), inverse_word=word_str(w.inverse().letters),
            dynamics_preserving=report.is_proximal, log_gap=report.log_gap,
            plus_k=report.attracting_plane, minus_dk=report.repelling_plane,
            minus_k=minus_k, plus_dk=plus_dk,
        ))
    return samples


@dataclass(frozen=True)
class LimitAudit:
    """Transversality and Pluecker-span audit over sampled boundary points."""

    n_samples: int
    n_boundary_points: int
    n_pairs_checked: int
    transversality_failures: tuple[tuple[str, str], ...]
    span_rank: int
    span_dim: int

    @property
    def all_transverse(self) -> bool:
        return not self.transversality_failures

    @property
    def spanning(self) -> bool:
        return self.span_rank == self.span_dim


def audit_limit_samples(
    samples: Sequence[LimitSample],
    cond_threshold: float = TRANSVERSALITY_COND,
) -> LimitAudit:
    """Check pairwise transversality of (k, d-k)-plane pairs and span rank.

    Every boundary point's k-plane is tested against the (d-k)-plane of every
    other label in one :func:`transverse_mask` call, whose verdicts are those
    of per-pair :func:`is_transverse` calls; failures are listed in (x, y)
    row-major order.  The span rank is read from the same stacked Pluecker
    minors, each row scaled to unit norm with a positive largest entry, as
    :meth:`ExteriorVector.unit` scales it.
    """
    points = []
    for s in samples:
        points += [(s.word, s.plus_k, s.plus_dk), (s.inverse_word, s.minus_k, s.minus_dk)]
    k_labels = np.array([label for label, p, _ in points if p is not None])
    k_planes = [p for _, p, _ in points if p is not None]
    dk_labels = np.array([label for label, _, p in points if p is not None])
    dk_planes = [p for _, _, p in points if p is not None]
    failures, checked = [], 0
    if k_planes and dk_planes:
        others = k_labels[:, None] != dk_labels[None, :]
        ok = transverse_mask(np.stack(k_planes), np.stack(dk_planes), cond_threshold, others)
        checked = int(np.count_nonzero(others))
        x, y = np.nonzero(others & ~ok)
        failures = list(zip(k_labels[x].tolist(), dk_labels[y].tolist()))
    span_rank, span_dim = 0, 0
    if k_planes:
        coords = maximal_minors(np.stack(k_planes))
        coords /= np.linalg.norm(coords, axis=1)[:, None]
        lead = np.take_along_axis(coords, np.abs(coords).argmax(axis=1)[:, None], axis=1)
        coords *= np.where(lead < 0, -1.0, 1.0)
        span_dim = coords.shape[1]
        sv = np.linalg.svd(coords, compute_uv=False)
        span_rank = int(np.sum(sv > 1e-8 * sv[0]))
    return LimitAudit(
        n_samples=len(samples),
        n_boundary_points=len(k_planes),
        n_pairs_checked=checked,
        transversality_failures=tuple(failures),
        span_rank=span_rank,
        span_dim=span_dim,
    )


# ---------------------------------------------------------------------------
# signed-eigenvalue tracking along paths


@dataclass(frozen=True)
class SignTrace:
    """Signs of the top eigenvalue of one word along a representation path.

    ConstantSign: proximal at every step with constant sign.  Inconclusive:
    proximality failed at ``failing_step`` (no sign claim is made).
    SignChange: proximal at every sampled step yet the sign flips at
    ``failing_step``, which certifies a proximality loss between samples,
    since along a continuous path of proximal matrices the signed top
    eigenvalue cannot change sign.
    """

    word: str
    k: int
    signs: tuple[int, ...]
    proximal: tuple[bool, ...]
    verdict: str
    failing_step: int | None


def _top_signs(batch: ScaledBatch, k: int, eps_gap: float) -> tuple[list[bool], list[int]]:
    """Proximality at 1 and top sign (or 0) of every matrix of a batch, acting
    on the k-th exterior power, as two columns.

    Read in row slices whose compounds hold at most :data:`STACK_ELEMENTS`
    entries, so a large ball in a wide exterior power is never stacked whole.
    """
    d = batch.entries.shape[-1]
    size = math.comb(d, k) if k > 1 else d  # 0 when k > d; compound_batch raises
    step = max(1, STACK_ELEMENTS // max(1, size * size))
    proximal, signs = [], []
    for lo in range(0, len(batch), step):
        part = batch.take(slice(lo, lo + step))
        scanned = compound_batch(part, k) if k > 1 else part
        log_moduli, top_sign, _ = spectra(scanned, eps_gap=eps_gap)
        if size < 2:
            raise DimensionMismatch("gap index 1 out of range")
        proximal += (log_moduli[:, 0] - log_moduli[:, 1] > math.log1p(eps_gap)).tolist()
        signs += top_sign.tolist()
    return proximal, signs


def _sign_trace(word: str, k: int, proximal: list[bool], signs: list[int]) -> SignTrace:
    failing: int | None = None
    if not all(proximal):
        verdict = "Inconclusive"
        failing = proximal.index(False)
    else:
        changes = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        if changes:
            verdict = "SignChange"
            failing = changes[0]
        else:
            verdict = "ConstantSign"
    return SignTrace(
        word=word,
        k=k,
        signs=tuple(signs),
        proximal=tuple(proximal),
        verdict=verdict,
        failing_step=failing,
    )


def track_ell1_along_path(
    path: Sequence[Representation],
    word: Word | Sequence[int],
    k: int,
    eps_gap: float = EPS_GAP,
) -> SignTrace:
    """Sign trace of one word: its images at every path step, stacked into one
    batch, compounded to degree k and read by one :func:`spectra` call."""
    images = ScaledBatch.stack([evaluate(rep, word) for rep in path])
    letters = word.letters if isinstance(word, Word) else tuple(word)
    return _sign_trace(word_str(letters), k, *_top_signs(images, k, eps_gap))


def track_ball_along_path(
    path: Sequence[Representation],
    radius: int,
    k: int,
    eps_gap: float = EPS_GAP,
) -> list[SignTrace]:
    """Sign traces of every nonidentity word of the radius ball, in ball order.

    Each path step evaluates the whole ball once (:func:`evaluate_ball`) and
    reads every word's top sign from one compound and one :func:`spectra`
    call; the traces equal :func:`track_ell1_along_path` word by word.  When
    the walk fails, the per-word loop is rerun so that the error raised is
    that of the first failing word, at its first failing step.
    """
    ball = enumerate_ball(path[0].presentation, radius)
    try:
        per_step = []
        for rep in path:
            images = evaluate_ball(rep, ball)
            words = ScaledBatch(images.entries[1:], images.log_scale[1:])  # no identity
            per_step.append(_top_signs(words, k, eps_gap))
    except ToolkitError:
        for w in ball.words():
            if len(w) > 0:
                track_ell1_along_path(path, w, k, eps_gap)
        raise
    return [
        _sign_trace(word, k, [p[i] for p, _ in per_step], [s[i] for _, s in per_step])
        for i, word in enumerate(ball.word_strings()[1:])
    ]


# ---------------------------------------------------------------------------
# projective ping-pong


@dataclass(frozen=True)
class PingpongResult:
    n: int
    delta: float


def _hyperplane_normal(plane: np.ndarray) -> np.ndarray:
    null = scipy.linalg.null_space(plane.T)
    if null.shape[1] != 1:
        raise TransversalityFailure("repelling plane is not a hyperplane")
    vec = null[:, 0]
    lead = vec[int(np.argmax(np.abs(vec)))]
    return vec if lead > 0 else -vec


def _sin_distance_points(u: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(max(0.0, 1.0 - float(u @ v) ** 2))


def _direction_samples(d: int, count: int = 8192) -> np.ndarray:
    """Deterministic unit sample directions (dense half-circle grid for d=2)."""
    if d == 2:
        phis = np.linspace(0.0, math.pi, count, endpoint=False)
        return np.stack([np.cos(phis), np.sin(phis)], axis=1)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def _contraction_sines(entries: np.ndarray, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """dist(m u, x) for every sample direction u, m the matrix of ``entries``.

    Computed once per power of a map, for all directions at once; a
    direction whose image vanishes gets -inf, so that no maximum picks it.
    """
    images = dirs @ entries.T
    norms = np.linalg.norm(images, axis=1)
    good = norms > 0
    projections = (images[good] @ x) / norms[good]
    sines = np.full(len(dirs), -np.inf)
    sines[good] = np.sqrt(np.maximum(0.0, 1.0 - projections**2))
    return sines


def _contraction_sup(sines: np.ndarray, separation: np.ndarray, delta: float) -> float:
    """Numeric sup of dist(m u, x) over directions with dist(u, hyperplane) >= delta.

    ``sines`` comes from :func:`_contraction_sines` and ``separation`` holds
    |u . normal| for the same directions, so each query of the bisection is
    one masked maximum; 0.0 when no direction is that far from the
    hyperplane.  Sampled, hence an empirical bound; in dimension 2 the dense
    grid makes it effectively exact.
    """
    mask = separation >= delta
    if not np.any(mask):
        return 0.0
    return float(sines[mask].max())


def _conjugator(
    rep: Representation, t: Word | Sequence[int] | np.ndarray | ScaledMatrix
) -> ScaledMatrix:
    """The image of a group word, or an explicit conjugating matrix as given."""
    if isinstance(t, (Word, tuple, list)):
        return evaluate(rep, t)
    if isinstance(t, ScaledMatrix):
        return t
    return ScaledMatrix.from_array(np.asarray(t, dtype=float))


def pingpong_power(
    rep: Representation,
    g: Word | Sequence[int],
    t: Word | Sequence[int] | np.ndarray | ScaledMatrix,
    max_n: int = 20,
    eps_gap: float = EPS_GAP,
    cond_threshold: float = TRANSVERSALITY_COND,
) -> PingpongResult | None:
    """Smallest N for which g^{+-N} and (t g t^-1)^{+-N} play projective ping-pong.

    Each of the four maps must send the complement of the delta-neighborhood
    of its repelling hyperplane into the delta-neighborhood of its attracting
    point, for a delta (found by bisection) small enough that the attracting
    neighborhoods stay clear of every other map's repelling neighborhood.
    Distances are sines of angles in projective space.

    ``t`` may be a word of the group or an explicit conjugating matrix (for
    example a rotation moving the axis of g onto a transverse axis).
    Returns None when no N <= max_n satisfies the criterion; raises
    NotBiproximal when g is not biproximal at k = 1 or the report of its
    inverse finds no gap.  The sines of all sample directions are computed
    once per player and power, so each bisection query is one masked maximum.
    """
    mg = evaluate(rep, g)
    fwd = proximality_report(mg, 1, eps_gap=eps_gap, verify=False)
    if not fwd.is_biproximal:
        raise NotBiproximal("base element is not biproximal at k = 1")
    conj = _conjugator(rep, t)
    if conj.dim != mg.dim:
        raise DimensionMismatch("conjugator dimension mismatch")

    mg_inv = mg.inverse()
    bwd = proximality_report(mg_inv, 1, eps_gap=eps_gap, verify=False)
    if not bwd.is_proximal:
        raise NotBiproximal("inverse of the base element is not proximal at k = 1")
    b_mat = conj @ mg @ conj.inverse()

    def transported(point: np.ndarray, plane: np.ndarray):
        p = conj.entries @ point
        return p / np.linalg.norm(p), orthonormalize(conj.entries @ plane)

    players = []  # (name, base matrix, attracting point, repelling plane, its normal)
    for name, base, report in (("g", mg, fwd), ("g^-1", mg_inv, bwd)):
        x = report.attracting_plane[:, 0]
        plane = report.repelling_plane
        players.append((name, base, x, plane, _hyperplane_normal(plane)))
    for name, base, report in (
        ("tgt^-1", b_mat, fwd),
        ("tg^-1t^-1", b_mat.inverse(), bwd),
    ):
        x, plane = transported(report.attracting_plane[:, 0], report.repelling_plane)
        players.append((name, base, x, plane, _hyperplane_normal(plane)))

    where = np.arange(4) != np.array([1, 0, 3, 2])[:, None]  # no player against its inverse
    points, planes, normals = (np.stack([p[c] for p in players]) for c in (2, 3, 4))
    separations = [abs(float(points[i] @ normals[j])) for i, j in zip(*np.nonzero(where))]
    transverse = transverse_mask(points[:, :, None], planes, cond_threshold, where)
    if 0.0 in separations or not transverse[where].all():
        raise TransversalityFailure("attracting/repelling data is not pairwise transverse")
    for i in range(len(players)):
        for j in range(i + 1, len(players)):
            separations.append(_sin_distance_points(players[i][2], players[j][2]))
    delta_cap = 0.999 * min(separations) / 2.0
    if delta_cap <= 0.0:
        raise TransversalityFailure("degenerate fixed-point configuration")

    dirs = _direction_samples(mg.dim)
    # |u . normal| of every sample direction u, per player: fixed across powers
    dir_separations = [np.abs(dirs @ n) for _, _, _, _, n in players]

    def worst(delta: float, sines: list[np.ndarray]) -> float:
        return max(_contraction_sup(s, sep, delta) for s, sep in zip(sines, dir_separations))

    for n_power in range(1, max_n + 1):
        sines = [
            _contraction_sines(base.power(n_power).entries, x, dirs)
            for _, base, x, _, _ in players
        ]
        if worst(delta_cap, sines) > delta_cap:
            continue
        lo, hi = 0.0, delta_cap
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break
            if worst(mid, sines) <= mid:
                hi = mid
            else:
                lo = mid
        return PingpongResult(n=n_power, delta=hi)
    return None


def pingpong_subgroup(
    rep: Representation,
    g: Word | Sequence[int],
    t: Word | Sequence[int] | np.ndarray | ScaledMatrix,
    n: int,
) -> Representation:
    """Free rank-2 representation generated by g^n and (t g t^-1)^n."""
    mg = evaluate(rep, g)
    conj = _conjugator(rep, t)
    b_mat = conj @ mg @ conj.inverse()
    return Representation.from_generators(
        Presentation.free(2), [mg.power(n), b_mat.power(n)]
    )
