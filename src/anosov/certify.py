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

import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    InsufficientRadius,
    NoProximalElements,
    NotBiproximal,
    SingularInput,
    TransversalityFailure,
)
from . import linalg
from .exterior import compound_batch, compound_matrix
from .linalg import (
    EPS_GAP,
    TRANSVERSALITY_COND,
    ProximalityReport,
    ScaledBatch,
    ScaledMatrix,
    class_spectra,
    log_singular_values,
    maximal_minors,
    orthonormalize,
    proximality_report,
    require_gap_index,
    spectra,
    transverse_mask,
    word_reports,
)
from .words import (
    Ball,
    CyclicClasses,
    Presentation,
    Representation,
    Word,
    ball_image_chunks,
    cyclic_classes,
    enumerate_ball,
    evaluate,
    letter_key,
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

    Columns are in ball order: ``words`` (the ball's
    :class:`~anosov.words.WordStrings` view, spelled on demand and shared
    by every k of one scan), ``lengths``, ``log_gap`` = log(sigma_k /
    sigma_{k+1}) clipped at 0 and ``log_total`` = log(sigma_1 / sigma_d).
    """

    k: int
    radius: int
    dim: int
    presentation: str
    words: Sequence[str]
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
        # sphere starts; a prepend of the lengths' own type keeps the diff narrow
        starts = np.flatnonzero(np.diff(self.lengths, prepend=self.lengths[:1] - 1))
        minima = np.minimum.reduceat(getattr(self, column), starts)
        return dict(zip(self.lengths[starts].tolist(), minima.tolist()))


def gap_profiles(
    rep: Representation, ks: Sequence[int], radius: int
) -> list[GapProfile]:
    """One gap profile per k in ``ks``, read from one stacked SVD per chunk
    of the ball's images (:func:`~anosov.words.ball_image_chunks`).

    Every k is checked against the dimension before the ball is enumerated.
    Only the ``log_total`` and per-k ``log_gap`` columns are kept: no
    whole-ball image stack or singular-value table is formed.  An
    evaluation failure anywhere raises before any singular-value failure;
    otherwise the first failing word in ball order raises.
    """
    d = rep.dim
    for k in ks:
        require_gap_index(k, d)
    ball = enumerate_ball(rep.presentation, radius)
    log_total, log_gaps = np.empty(len(ball)), [np.empty(len(ball)) for _ in ks]
    error = None
    for lo, chunk in ball_image_chunks(rep, ball):
        rows, log_sv = slice(lo, lo + len(chunk)), None
        if error is None:  # after one, walk on: an evaluation failure comes first
            try:
                log_sv = log_singular_values(chunk)
            except SingularInput as exc:
                error = exc
        del chunk  # dropped before the walk makes the next one
        if log_sv is not None:
            np.subtract(log_sv[:, 0], log_sv[:, -1], out=log_total[rows])
            for k, log_gap in zip(ks, log_gaps):
                np.maximum(log_sv[:, k - 1] - log_sv[:, k], 0.0, out=log_gap[rows])
    if error is not None:
        raise error
    words, lengths = ball.word_strings(), ball.lengths()
    return [
        GapProfile(
            k=k, radius=radius, dim=d, presentation=rep.presentation.describe(), words=words,
            lengths=lengths, log_gap=log_gap, log_total=log_total,
        )
        for k, log_gap in zip(ks, log_gaps)
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
    witness, NoProximalFound otherwise; Inconclusive when the witness's
    recheck fails or, without a witness, when some word is unresolved.
    Words failing positive semi-proximality obstruct any invariant properly
    convex cone; :attr:`semiproximal_failures` spells them on demand.  Per-word
    columns are in ball order, ``words`` being the ball's
    :class:`~anosov.words.WordStrings` view; ``ell1_sign`` (int8) is +-1 when
    the signed top eigenvalue is defined, else 0.  An ``unresolved`` word's
    class did not settle (see :func:`linalg.class_spectra`): it is neither
    proximal nor a semi-proximality failure, and its ``log_gap`` is NaN.
    """

    k: int
    radius: int
    dim_scanned: int
    words: Sequence[str]
    lengths: np.ndarray
    proximal: np.ndarray
    ell1_sign: np.ndarray
    semiproximal_positive: np.ndarray
    log_gap: np.ndarray
    unresolved: np.ndarray
    n_proximal: int
    n_negative: int
    n_unresolved: int
    verdict: str
    witness: str | None
    witness_recheck: bool

    @property
    def semiproximal_failures(self) -> tuple[str, ...]:
        return tuple(self.words.take(np.flatnonzero(~self.semiproximal_positive)))


def _ball_spectra(classes: CyclicClasses, found: linalg.ClassSpectra, rows: slice) -> tuple:
    """Log moduli, signs and unresolved flags of one row slice of the ball,
    from the :func:`class_spectra` of the representatives of ``classes``.

    A word c^p takes p times its class's log moduli and the p-th powers of
    its signs, and an inverted word the negated moduli and the signs in
    reverse order.  The identity has all moduli 0.
    """
    index, power, flip = classes.index[rows], classes.power[rows, None], classes.inverted[rows]
    # index -1, the identity, reads an appended row: moduli 0, signs +1, resolved
    log_moduli = np.pad(found.log_moduli, ((0, 1), (0, 0)))[index] * power
    signs = np.pad(found.signs, ((0, 1), (0, 0)), constant_values=1)[index]
    signs = np.where(power % 2 == 1, signs, np.abs(signs))
    log_moduli[flip], signs[flip] = -log_moduli[flip, ::-1], signs[flip, ::-1]
    return log_moduli, signs, np.append(found.unresolved, False)[index]


def _semiproximal_positive(log_moduli: np.ndarray, signs: np.ndarray, k: int,
                           tol: float) -> np.ndarray:
    """Whether some real positive eigenvalue of the k-th exterior power
    attains its top modulus within ``tol`` (log scale), per row.

    Those eigenvalues are the products of k base eigenvalues that take every
    modulus above the k-th and the rest from the group tied with it.  A real
    base eigenvalue may be taken alone, a complex pair (signs 0) only whole,
    contributing a positive factor.
    """
    above = log_moduli - log_moduli[:, k - 1 : k] > tol
    tied = ~above & (log_moduli - log_moduli[:, k - 1 : k] >= -tol)
    rest = k - above.sum(axis=1)
    sign = np.where(above & (signs != 0), signs, 1).prod(axis=1)
    pos, neg = (tied & (signs > 0)).sum(axis=1), (tied & (signs < 0)).sum(axis=1)
    pairs = (tied & (signs == 0)).sum(axis=1) // 2
    found = np.zeros(len(log_moduli), dtype=bool)
    for taken in range(k + 1):  # negative eigenvalues taken
        left = rest - taken
        lo, hi = np.maximum(0, left - 2 * pairs), np.minimum(pos, left)
        found |= (taken <= neg) & (left >= 0) & (sign * (-1) ** taken > 0) & (
            lo + (left - lo) % 2 <= hi
        )
    return found


def scan_positivities(
    rep: Representation,
    ks: Sequence[int],
    radius: int,
    eps_gap: float = EPS_GAP,
) -> list[PositivityReport]:
    """Scan signed top eigenvalues of the induced exterior-power actions.

    Every k is checked before the ball is enumerated.  All k values read one
    :func:`class_spectra` call over the ball's cyclic classes: no compound
    and no product is formed; its tables are read in row slices into the report
    columns alone.  The top eigenvalue of the k-th exterior power is the product
    of the k largest, simple exactly when the gap at k is open (when k = d = 1,
    always), its sign the product of theirs with each complex pair counting +1.
    A negative witness is re-verified through the independent route (compound of
    the base-dimension product, fresh eigensolve): the verdict is
    NotPositivelyProximal when the recheck confirms it, Inconclusive when not.
    """
    d = rep.dim
    for k in ks:
        if k != 1 and not 1 <= k <= d - 1:
            raise DegreeMismatch(f"compound degree {k} out of range for dimension {d}")
    ball = enumerate_ball(rep.presentation, radius)
    words, lengths, classes = ball.word_strings(), ball.lengths(), cyclic_classes(ball)
    found = class_spectra(rep.letter_images(),
                          [classes.letters[q] for q in sorted(classes.letters)])
    n, tol, unresolved = len(ball), math.log1p(eps_gap), np.empty(len(ball), dtype=bool)
    columns = [tuple(np.empty(n, dtype=t) for t in (float, bool, np.int8, bool)) for _ in ks]
    step = max(1, linalg.STACK_ELEMENTS // (8 * d))  # a slice's (rows, d) temporaries
    for rows in (slice(lo, lo + step) for lo in range(0, n, step)):
        log_moduli, signs, unresolved[rows] = _ball_spectra(classes, found, rows)
        for k, (log_gap, proximal, ell1_sign, semi) in zip(ks, columns):
            log_gap[rows] = log_moduli[:, k - 1] - log_moduli[:, k] if k < d else 0.0
            proximal[rows] = (k < d) & (log_gap[rows] > tol)
            top = np.where(signs[:, :k] != 0, signs[:, :k], 1).prod(axis=1)
            ell1_sign[rows] = np.where(~unresolved[rows] & ((k == d) | proximal[rows]), top, 0)
            semi[rows] = _semiproximal_positive(log_moduli, signs, k, tol) | unresolved[rows]
    n_unresolved = int(np.count_nonzero(unresolved))
    reports = []
    for k, (log_gap, proximal, ell1_sign, semi) in zip(ks, columns):
        negative = np.flatnonzero(proximal & (ell1_sign < 0))
        witness = words[negative[0]] if len(negative) else None
        n_proximal = int(np.count_nonzero(proximal))
        recheck = False
        if witness is not None:
            base = evaluate(rep, parse_word(witness))
            (gap_open,), (sign,) = _top_signs([ScaledBatch.stack([base])], k, eps_gap)
            recheck = gap_open and sign == -1
            verdict = "NotPositivelyProximal" if recheck else "Inconclusive"
        elif n_unresolved:
            verdict = "Inconclusive"
        elif n_proximal == 0:
            verdict = "NoProximalFound"
        else:
            verdict = "PositivelyProximal"
        reports.append(
            PositivityReport(
                k=k, radius=radius, dim_scanned=math.comb(d, k), words=words, lengths=lengths,
                proximal=proximal, ell1_sign=ell1_sign, semiproximal_positive=semi,
                log_gap=log_gap, unresolved=unresolved,
                n_proximal=n_proximal, n_negative=len(negative), n_unresolved=n_unresolved,
                verdict=verdict, witness=witness, witness_recheck=recheck,
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
    """One primitive conjugacy class: its sampled word, that word's inverse,
    and the word's :class:`~anosov.linalg.ProximalityReport`, whose planes
    are the limit points of both.

    The word's (k-plane, (d-k)-plane) pair is the report's
    (``attracting_plane``, ``inverse_repelling_plane``) and the inverse's is
    (``inverse_attracting_plane``, ``repelling_plane``): the first plane of
    the word's pair and the second of the inverse's are set when the word is
    proximal at k, the other two when it is biproximal.
    """

    word: str
    inverse_word: str
    report: ProximalityReport


def limit_map_sample(
    rep: Representation,
    k: int,
    radius: int,
    eps_gap: float = EPS_GAP,
) -> list[LimitSample]:
    """One sample per primitive letter-level cyclic class of the ball.

    The sampled words are the first of each class in ball order, read from
    :func:`cyclic_classes` (``first``), and only those rows are
    spelled, by the ball's :meth:`Ball.word_strings` view; an inverse is
    spelled reversed with its cases swapped.  One :func:`word_reports` call
    on the letter images and the sampled words' letter keys gives every
    sample its report, with no product formed for the planes and no matrix
    inverted: a word's planes are column slices of the settled frames of the
    word and of its transpose word, its inverse's planes among them.
    Nothing is random.  The first failure met raises.  Raises
    NoProximalElements when no sampled word is proximal at k.
    """
    if radius < 2:
        raise InsufficientRadius("limit sampling needs radius >= 2")
    require_gap_index(k, rep.dim)
    ball = enumerate_ball(rep.presentation, radius)
    rows = np.sort(cyclic_classes(ball).first)
    words = [letter_key(w) for w in ball.letter_rows(rows)]
    reports = word_reports(rep.letter_images(), words, k, eps_gap=eps_gap)
    if not any(report.is_proximal for report in reports):
        raise NoProximalElements(f"no P_{k}-proximal element in the radius-{radius} ball")
    return [
        LimitSample(word=word, inverse_word=word[::-1].swapcase(), report=report)
        for word, report in zip(ball.word_strings().take(rows), reports)
    ]


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

    Each sample gives two boundary points, labelled by its two words: the
    word's (``attracting_plane``, ``inverse_repelling_plane``) and the
    inverse's (``inverse_attracting_plane``, ``repelling_plane``) of its
    report.  Every boundary point's k-plane is tested against the
    (d-k)-plane of every other label in one :func:`transverse_mask` call,
    whose verdicts are those of per-pair :func:`is_transverse` calls;
    failures are listed in (x, y) row-major order.  The span rank is read
    from the same stacked Pluecker minors, each row scaled to unit norm with
    a positive largest entry: :meth:`ExteriorVector.unit`'s scaling up to the
    last bits, as the stacked row norm need not round as a vector's does.
    """
    points = []
    for s in samples:
        r = s.report
        points += [(s.word, r.attracting_plane, r.inverse_repelling_plane),
                   (s.inverse_word, r.inverse_attracting_plane, r.repelling_plane)]
    k_labels = np.array([label for label, p, _ in points if p is not None])
    k_planes = [p for _, p, _ in points if p is not None]
    dk_labels = np.array([label for label, _, p in points if p is not None])
    dk_planes = [p for _, _, p in points if p is not None]
    failures, checked, span_rank, span_dim = [], 0, 0, 0
    if k_planes:
        k_stack = np.stack(k_planes)
        coords = maximal_minors(k_stack)
        if dk_planes:
            others = k_labels[:, None] != dk_labels[None, :]
            ok = transverse_mask(k_stack, np.stack(dk_planes), cond_threshold, others, coords)
            checked = int(np.count_nonzero(others))
            x, y = np.nonzero(others & ~ok)
            failures = list(zip(k_labels[x].tolist(), dk_labels[y].tolist()))
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


def _top_signs(batches: Iterable[ScaledBatch], k: int, eps_gap: float) -> tuple[list, list]:
    """Proximality at 1 and top sign (or 0) of every matrix of a sequence of
    batches, acting on the k-th exterior power, as two columns.

    Batches are joined, then read in row slices whose compounds hold at most 8 x
    the stack budget (:data:`linalg.STACK_ELEMENTS`, read at each call): never a
    large ball whole, yet several compounds per :func:`spectra` call, whose
    per-matrix LAPACK calls a threaded BLAS runs twice as fast back to back.
    """
    proximal, signs, held = [], [], []
    for batch in itertools.chain(batches, [None]):  # None: the end, read what is held
        if batch is not None:
            held.append(batch)
            d = batch.entries.shape[-1]
            size = math.comb(d, k) if k > 1 else d  # 0 when k > d; compound_batch raises
            step = max(1, 8 * linalg.STACK_ELEMENTS // max(1, size * size))
        if not held or (batch is not None and sum(map(len, held)) < step):
            continue
        joined = ScaledBatch(*map(np.concatenate, zip(*((b.entries, b.log_scale) for b in held))))
        held = []
        for part in (joined.take(slice(lo, lo + step)) for lo in range(0, len(joined), step)):
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
    return _sign_trace(word_str(letters), k, *_top_signs([images], k, eps_gap))


def track_ball_along_path(
    path: Sequence[Representation],
    ball: Ball,
    k: int,
    eps_gap: float = EPS_GAP,
) -> list[SignTrace]:
    """Sign traces of every nonidentity word of ``ball``, in ball order.

    Each path step walks the ball's images once (:func:`ball_image_chunks`)
    and reads the top signs of the chunks as :func:`_top_signs` joins them;
    the traces equal :func:`track_ell1_along_path` word by word.  The first
    failure met raises: path step by path step, and within a step in ball
    order, the walk running ahead of the sign reads by one joined block.
    """
    per_step = []
    for rep in path:
        chunks = (chunk for lo, chunk in ball_image_chunks(rep, ball) if lo)  # no identity
        per_step.append(_top_signs(chunks, k, eps_gap))
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
    # the null space of plane^T, by scipy.linalg.null_space's rank rule
    _, sv, vh = np.linalg.svd(plane.T)
    rank = int(np.sum(sv > sv.max(initial=0.0) * max(plane.shape) * np.finfo(float).eps))
    null = vh[rank:].T
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


def _fixed_point(sines: Sequence[np.ndarray], separations: Sequence[np.ndarray],
                 cap: float) -> float | None:
    """The least float delta <= ``cap`` with worst(delta) <= delta, or None.

    worst(delta) is the largest of the players' ``sines`` (from
    :func:`_contraction_sines`) over the directions whose ``separations``
    |u . normal| are at least delta, -inf over none: a step function, on
    each step a running maximum over the sorted separations.  Sampled, hence
    an empirical bound; in dimension 2 the dense grid makes it effectively
    exact.
    """
    seps, sines = np.concatenate(separations), np.concatenate(sines)
    order = np.argsort(seps)
    seps = np.append(seps[order], np.inf)
    worst = np.append(np.maximum.accumulate(sines[order][::-1])[::-1], -np.inf)
    # step j holds the floats in (seps[j-1], seps[j]], where seps[-1] is 0
    least = np.maximum(worst, np.nextafter(np.append(0.0, seps[:-1]), np.inf))
    delta = float(least[least <= seps].min())
    return delta if delta <= cap else None


def _conjugator(rep: Representation, t: Word | Sequence[int] | np.ndarray) -> ScaledMatrix:
    """The image of a group word, or an explicit conjugating matrix as given."""
    if isinstance(t, (Word, tuple, list)):
        return evaluate(rep, t)
    return ScaledMatrix.from_array(np.asarray(t, dtype=float))


def pingpong_power(
    rep: Representation,
    g: Word | Sequence[int],
    t: Word | Sequence[int] | np.ndarray,
    max_n: int = 20,
    eps_gap: float = EPS_GAP,
    cond_threshold: float = TRANSVERSALITY_COND,
) -> PingpongResult | None:
    """Smallest N for which g^{+-N} and (t g t^-1)^{+-N} play projective ping-pong.

    Each of the four maps must send the complement of the delta-neighborhood
    of its repelling hyperplane into the delta-neighborhood of its attracting
    point, for a delta small enough that the attracting neighborhoods stay
    clear of every other map's repelling neighborhood: the least float delta
    under that cap which the sampled directions allow (:func:`_fixed_point`).
    Distances are sines of angles in projective space.

    ``t`` may be a word of the group or an explicit conjugating matrix (for
    example a rotation moving the axis of g onto a transverse axis).
    Returns None when no N <= max_n satisfies the criterion; raises
    NotBiproximal when g is not biproximal at k = 1.  Both of g's fixed
    points and hyperplanes come from one :func:`proximality_report` at
    k = 1: g^-1 attracts to g's repelling line and repels from g's
    attracting hyperplane.  The sines of all sample directions are computed
    once per player and power, and delta is read from them by one sort.
    """
    mg = evaluate(rep, g)
    d = mg.dim
    fwd = proximality_report(mg, 1, eps_gap=eps_gap)
    if not fwd.is_biproximal:
        raise NotBiproximal("base element is not biproximal at k = 1")
    conj = _conjugator(rep, t)
    if conj.dim != d:
        raise DimensionMismatch("conjugator dimension mismatch")
    b_mat = conj @ mg @ conj.inverse()
    # (base matrix, attracting point, repelling plane) of g, g^-1, t g t^-1, t g^-1 t^-1
    sides = [(mg, fwd.attracting_plane[:, 0], fwd.repelling_plane),
             (mg.inverse(), fwd.inverse_attracting_plane[:, 0], fwd.inverse_repelling_plane)]
    for (_, x, plane), base in zip(sides[:2], (b_mat, b_mat.inverse())):
        p = conj.entries @ x
        sides.append((base, p / np.linalg.norm(p), orthonormalize(conj.entries @ plane)))
    # (base matrix, attracting point, repelling plane, its normal)
    players = [(base, x, plane, _hyperplane_normal(plane)) for base, x, plane in sides]

    where = np.arange(4) != np.array([1, 0, 3, 2])[:, None]  # no player against its inverse
    points, planes, normals = (np.stack([p[c] for p in players]) for c in (1, 2, 3))
    separations = [abs(float(points[i] @ normals[j])) for i, j in zip(*np.nonzero(where))]
    transverse = transverse_mask(points[:, :, None], planes, cond_threshold, where)
    if 0.0 in separations or not transverse[where].all():
        raise TransversalityFailure("attracting/repelling data is not pairwise transverse")
    for i in range(len(players)):
        for j in range(i + 1, len(players)):
            separations.append(_sin_distance_points(players[i][1], players[j][1]))
    delta_cap = 0.999 * min(separations) / 2.0
    if delta_cap <= 0.0:
        raise TransversalityFailure("degenerate fixed-point configuration")

    dirs = _direction_samples(d)
    # |u . normal| of every sample direction u, per player: fixed across powers
    dir_separations = [np.abs(dirs @ n) for _, _, _, n in players]
    for n_power in range(1, max_n + 1):
        sines = [
            _contraction_sines(base.power(n_power).entries, x, dirs)
            for base, x, _, _ in players
        ]
        delta = _fixed_point(sines, dir_separations, delta_cap)
        if delta is not None:
            return PingpongResult(n=n_power, delta=delta)
    return None


def pingpong_subgroup(
    rep: Representation,
    g: Word | Sequence[int],
    t: Word | Sequence[int] | np.ndarray,
    n: int,
) -> Representation:
    """Free rank-2 representation generated by g^n and (t g t^-1)^n."""
    mg = evaluate(rep, g)
    conj = _conjugator(rep, t)
    b_mat = conj @ mg @ conj.inverse()
    return Representation.from_generators(
        Presentation.free(2), [mg.power(n), b_mat.power(n)]
    )
