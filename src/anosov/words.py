"""Presentations, reduced words, ball enumeration and word evaluation.

Letters are nonzero signed integers: generator i is ``i``, its inverse
``-i``.  The ASCII form maps generator i to the i-th lowercase letter and
its inverse to the uppercase letter, so the word a b a^-1 b^-1 prints as
"abAB".  Shortlex order is induced by a < A < b < B < ...

Free groups use free reduction as the normal form.  Surface groups (genus g,
single relator [a1,b1]...[ag,bg]) use one move: replace a subword that is
half of a cyclic rotation of the relator (or its inverse) by the inverse of
the other half, then free-reduce.  The closure of a word under this move is
searched until some replacement shortens it, and the search restarts from
the shorter word.  When no word of the closure can be shortened, its
shortlex-least word is the canonical form.  The move also performs every
Dehn step: in a subword rho[:m] with h < m <= 2h of a rotation rho of
length 2h, swapping rho[:h] for (rho[h:])^-1 cancels rho[h:m].  At the desk
radii used here this yields unique canonical forms (checked in the tests
against a pairwise word-problem oracle and Cannon's growth series).

A ball is held as per-sphere arrays: each word of sphere n is a word of
sphere n-1 (its ``parent`` index) followed by one ``letter``.  Both
families walk the same way: every word of sphere n-1 is extended by every
letter but the inverse of its last one, and a surface-group child is kept
only when it is its own canonical form.  A surface child reaches the closure
search only when it holds a half-relator window; this is exact, since a child
is freely reduced and without such a window admits no move.  A ball's images
are evaluated the same way, sphere by sphere, with one stacked multiply per
letter (:func:`evaluate_ball`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ConstructionFailure,
    DimensionMismatch,
    InvalidParams,
    ResourceLimit,
    UnknownLetter,
)
from .linalg import ScaledBatch, ScaledMatrix

BALL_GUARD = 1_000_000

_SURFACE_RELATOR_TOL = 1e-6


def letter_str(letter: int) -> str:
    idx = abs(letter) - 1
    if not 0 <= idx < 26:
        raise UnknownLetter(f"letter {letter} outside a-z range")
    ch = chr(ord("a") + idx)
    return ch if letter > 0 else ch.upper()


def word_str(letters: Sequence[int]) -> str:
    return "".join(letter_str(l) for l in letters) or "<id>"


def parse_word(text: str) -> tuple[int, ...]:
    """Inverse of :func:`word_str`; accepts "<id>" or "" for the identity."""
    if text in ("", "<id>"):
        return ()
    out = []
    for ch in text:
        if not ch.isalpha():
            raise UnknownLetter(f"bad character {ch!r} in word {text!r}")
        idx = ord(ch.lower()) - ord("a") + 1
        out.append(idx if ch.islower() else -idx)
    return tuple(out)


def _letter_key(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def shortlex_key(letters: Sequence[int]) -> tuple:
    return (len(letters), tuple(_letter_key(l) for l in letters))


@dataclass(frozen=True)
class Presentation:
    """Free group of given rank, or closed-surface group of given genus."""

    family: str  # "free" | "surface"
    n: int

    def __post_init__(self) -> None:
        if self.family not in ("free", "surface"):
            raise InvalidParams(f"unknown presentation family {self.family!r}")
        if self.family == "free" and self.n < 1:
            raise InvalidParams("free rank must be at least 1")
        if self.family == "surface" and self.n < 2:
            raise InvalidParams("surface genus must be at least 2")
        if self.n_generators > 26:
            raise InvalidParams("alphabet limited to 26 generators")

    @classmethod
    def free(cls, rank: int) -> "Presentation":
        return cls("free", rank)

    @classmethod
    def surface(cls, genus: int) -> "Presentation":
        return cls("surface", genus)

    @property
    def n_generators(self) -> int:
        return self.n if self.family == "free" else 2 * self.n

    @property
    def relator(self) -> tuple[int, ...]:
        if self.family == "free":
            return ()
        out: list[int] = []
        for p in range(self.n):
            a, b = 2 * p + 1, 2 * p + 2
            out += [a, b, -a, -b]
        return tuple(out)

    def letters(self) -> tuple[int, ...]:
        gens = range(1, self.n_generators + 1)
        return tuple(l for g in gens for l in (g, -g))

    def check_letters(self, letters: Iterable[int]) -> tuple[int, ...]:
        seq = tuple(letters)
        for l in seq:
            if not isinstance(l, (int, np.integer)) or l == 0 or abs(l) > self.n_generators:
                raise UnknownLetter(f"letter {l} not in alphabet of {self}")
        return tuple(int(l) for l in seq)

    def describe(self) -> str:
        kind = "free rank" if self.family == "free" else "surface genus"
        return f"{kind} {self.n}"


@dataclass(frozen=True)
class Word:
    """A word, held as a tuple of signed letters."""

    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_str(self.letters)

    def inverse(self) -> "Word":
        return Word(_inverse(self.letters))


def _free_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def _inverse(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


@lru_cache(maxsize=None)
def _half_table(genus: int):
    """(half the relator length, exactly-half replacements) for the surface relator.

    Keys are the first halves of rotations of the relator and its inverse;
    each maps to its freely-equal complement of the same length.  The relator
    holds every letter once, so no half starts two rotations.
    """
    r = Presentation.surface(genus).relator
    half = len(r) // 2
    halves: dict[tuple[int, ...], tuple[int, ...]] = {}
    for base in (r, _inverse(r)):
        for s in range(len(r)):
            rho = base[s:] + base[:s]
            halves[rho[:half]] = _inverse(rho[half:])
    return half, halves


def _surface_canonical(letters: tuple[int, ...], genus: int) -> tuple[int, ...]:
    half, halves = _half_table(genus)
    w = _free_reduce(letters)
    while True:
        # close under half-relator replacements; restart from a shorter word
        seen = {w}
        frontier = [w]
        shorter = None
        while frontier and shorter is None:
            cur = frontier.pop()
            for i in range(len(cur) - half + 1):
                repl = halves.get(cur[i : i + half])
                if repl is None:
                    continue
                cand = _free_reduce(cur[:i] + repl + cur[i + half :])
                if len(cand) < len(cur):
                    shorter = cand
                    break
                if cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
        if shorter is None:
            return min(seen, key=shortlex_key)
        w = shorter


def reduce_word(letters: Iterable[int] | Word, p: Presentation) -> Word:
    """Canonical form: free reduction, plus the half-relator move for surface groups.

    Idempotent and length-nonincreasing; the result is the shortlex-least
    geodesic spelling of the group element.
    """
    if isinstance(letters, Word):
        letters = letters.letters
    seq = p.check_letters(letters)
    if p.family == "free":
        return Word(_free_reduce(seq))
    return Word(_surface_canonical(seq, p.n))


@dataclass(frozen=True, eq=False)
class Ball:
    """All canonical words up to a radius, held as per-sphere arrays.

    Word i of sphere n (n >= 1) is word ``parent[n][i]`` of sphere n-1
    followed by the letter ``letter[n][i]``; sphere 0 is the identity, with
    parent -1 and letter 0.  Within a sphere words are in shortlex order.
    """

    presentation: Presentation
    radius: int
    parent: tuple[np.ndarray, ...]
    letter: tuple[np.ndarray, ...]

    def _build(self, root, extend) -> Iterator[list]:
        """Per sphere, its words built as ``extend(parent's word, letter)``."""
        sphere = [root]
        yield sphere
        for parent, letter in zip(self.parent[1:], self.letter[1:]):
            sphere = [extend(sphere[i], l) for i, l in zip(parent.tolist(), letter.tolist())]
            yield sphere

    @property
    def spheres(self) -> tuple[tuple[Word, ...], ...]:
        return tuple(
            tuple(map(Word, sphere)) for sphere in self._build((), lambda w, l: w + (l,))
        )

    def words(self) -> Iterator[Word]:
        for sphere in self.spheres:
            yield from sphere

    def word_strings(self) -> list[str]:
        """``str(w)`` of every word, in ``words()`` order."""
        chars = {l: letter_str(l) for l in self.presentation.letters()}
        out: list[str] = []
        for sphere in self._build("", lambda s, l: s + chars[l]):
            out += sphere
        out[0] = word_str(())
        return out

    def words_at(self, rows: np.ndarray) -> list[Word]:
        """The words at increasing rows of ``words()`` order; row 0, the identity, is dropped."""
        starts = np.cumsum((0,) + self.sphere_sizes())
        out: list[Word] = []
        for n in range(1, len(starts) - 1):
            at = rows[(starts[n] <= rows) & (rows < starts[n + 1])] - starts[n]
            out += map(Word, _rebuild(self.parent[: n + 1], self.letter[: n + 1], at))
        return out

    def lengths(self) -> np.ndarray:
        """``len(w)`` of every word, in ``words()`` order."""
        return np.repeat(np.arange(len(self.letter)), self.sphere_sizes())

    def sphere_sizes(self) -> tuple[int, ...]:
        return tuple(len(l) for l in self.letter)

    def __len__(self) -> int:
        return sum(self.sphere_sizes())


def _check_guard(total: int) -> None:
    if total > BALL_GUARD:
        raise ResourceLimit(f"ball size exceeds guard {BALL_GUARD}")


def _rebuild(parents: list, letters: list, rows: np.ndarray) -> list[tuple[int, ...]]:
    """Letter tuples of the given rows of the last sphere of a ball's (parent, letter) arrays."""
    columns = []
    for parent, letter in zip(parents[:0:-1], letters[:0:-1]):  # spheres n..1
        columns.append(letter[rows].tolist())
        rows = parent[rows]
    return list(zip(*reversed(columns)))


def enumerate_ball(p: Presentation, radius: int) -> Ball:
    """Breadth-first enumeration of canonical words of length <= radius.

    Each word is extended by every letter but the inverse of its last one.
    For surface groups only the extensions that are their own canonical
    form are kept, so the ball is complete and duplicate-free as a set of
    group elements.  Only an extension holding a half-relator window goes
    to the closure search: any other one is freely reduced and admits no
    move, so it is its own canonical form.  Raises ResourceLimit when the
    ball would exceed ``BALL_GUARD`` words, checked once per sphere: before
    the sphere's candidates are stacked while every candidate is kept (free
    groups, and surface spheres shorter than 2g, where no window fits), and
    after the keep test otherwise.
    """
    if radius < 0:
        raise InvalidParams("radius must be nonnegative")
    # children are every letter but the inverse of the last one, ordered by
    # (parent, letter key), which is shortlex order; a surface child is kept
    # when it is its own canonical form (a prefix of a canonical word is
    # canonical, so every canonical word is a kept child of its prefix).
    # The closure search runs only on children holding a half-relator window:
    # the others are freely reduced and admit no move.  A child's 2g-letter
    # windows are its parent's and its last 2g letters, so per word ``tail``
    # codes the last 2g-1 letter keys in base B = 4g and ``held`` flags a
    # half-relator window.  Codes are below B^(2g), and are held in the
    # smallest type that holds B^(2g) (Python ints past genus 6).
    alphabet = np.array(p.letters())
    surface = p.family == "surface"
    if surface:
        half, halves = _half_table(p.n)
        base = len(alphabet)
        codes = [sum(_letter_key(l) * base**i for i, l in enumerate(reversed(h))) for h in halves]
        code_type = np.min_scalar_type(base**half)
        keys = np.arange(base, dtype=code_type)  # the alphabet is in letter-key order
        tail, held = np.zeros(1, dtype=code_type), np.zeros(1, dtype=bool)
    parents, letters = [np.array([-1])], [np.array([0])]
    total = 1
    for n in range(1, radius + 1):
        last = letters[-1]
        screened = surface and n >= half  # may a child be rejected?
        if not screened:  # every child is kept: check before stacking them
            _check_guard(total + len(last) * len(alphabet) - np.count_nonzero(last))
        parent = np.repeat(np.arange(len(last)), len(alphabet))
        letter = np.tile(alphabet, len(last))
        keep = letter != -last[parent]
        if surface:
            window = (tail[:, None] * base + keys).ravel()
            flag = np.repeat(held, base)
            if screened:
                flag |= np.isin(window, codes)
            search = np.flatnonzero(flag & keep)
            words = _rebuild(parents + [parent], letters + [letter], search)
            keep[search] = [_surface_canonical(w, p.n) == w for w in words]
            tail = window[keep]
            tail %= base ** min(n, half - 1)
            held = flag[keep]
        parents.append(parent[keep])
        letters.append(letter[keep])
        total += len(letters[-1])
        if screened:
            _check_guard(total)
    return Ball(presentation=p, radius=radius, parent=tuple(parents), letter=tuple(letters))


@dataclass(frozen=True)
class Representation:
    """Generator images (with precomputed inverses) over a presentation."""

    presentation: Presentation
    images: tuple[ScaledMatrix, ...]
    inverse_images: tuple[ScaledMatrix, ...]
    relator_defect: float

    @classmethod
    def from_generators(
        cls, presentation: Presentation, matrices: Sequence[ScaledMatrix | np.ndarray]
    ) -> "Representation":
        if len(matrices) != presentation.n_generators:
            raise DimensionMismatch(
                f"{presentation.describe()} needs {presentation.n_generators} images, "
                f"got {len(matrices)}"
            )
        images = tuple(
            m if isinstance(m, ScaledMatrix) else ScaledMatrix.from_array(m)
            for m in matrices
        )
        dims = {m.dim for m in images}
        if len(dims) != 1:
            raise DimensionMismatch(f"generator images of mixed dimensions {dims}")
        rep = cls(
            presentation=presentation,
            images=images,
            inverse_images=tuple(m.inverse() for m in images),
            relator_defect=0.0,
        )
        if presentation.family == "surface":
            defect = evaluate(rep, presentation.relator).distance_to_identity()
            if defect >= _SURFACE_RELATOR_TOL:
                raise ConstructionFailure(
                    f"relator defect {defect:.3e} exceeds {_SURFACE_RELATOR_TOL:.0e}"
                )
            rep = replace(rep, relator_defect=defect)
        return rep

    @property
    def dim(self) -> int:
        return self.images[0].dim

    def image(self, letter: int) -> ScaledMatrix:
        if letter > 0 and letter <= len(self.images):
            return self.images[letter - 1]
        if letter < 0 and -letter <= len(self.images):
            return self.inverse_images[-letter - 1]
        raise UnknownLetter(f"letter {letter} not in alphabet")

    def to_json_dict(self) -> dict:
        return {
            "presentation": {"family": self.presentation.family, "n": self.presentation.n},
            "dimension": self.dim,
            "generators": [
                {"entries": m.entries.tolist(), "log_scale": m.log_scale}
                for m in self.images
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Representation":
        pres = Presentation(data["presentation"]["family"], int(data["presentation"]["n"]))
        mats = []
        for gen in data["generators"]:
            entries = np.array(gen["entries"], dtype=float)
            if entries.shape != (data["dimension"], data["dimension"]):
                raise DimensionMismatch("generator block has wrong shape")
            log_scale = float(gen["log_scale"])
            if not abs(log_scale) <= np.log(np.finfo(float).max):
                raise ValueError(f"log_scale {log_scale} is not within +-709.78 = log(float64 max)")
            mats.append(ScaledMatrix.from_array(entries, log_scale))
        return cls.from_generators(pres, mats)

    @classmethod
    def load(cls, path) -> "Representation":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def evaluate(rep: Representation, word: Word | Sequence[int]) -> ScaledMatrix:
    """Product of generator images along a word."""
    letters = word.letters if isinstance(word, Word) else rep.presentation.check_letters(word)
    m = ScaledMatrix.identity(rep.dim)
    for l in letters:
        m = m @ rep.image(l)
    return m


def evaluate_ball(rep: Representation, ball: Ball) -> ScaledBatch:
    """Images of the ball's words, in ``ball.words()`` order.

    Sphere n is computed from sphere n-1 with one batched multiply per
    letter: the images of the parents of the words ending in that letter,
    times the letter's image, then renormalized.  Each image is
    bit-identical to :func:`evaluate` of its word.
    """
    sizes = ball.sphere_sizes()
    entries = np.empty((sum(sizes), rep.dim, rep.dim))
    log_scale = np.empty(sum(sizes))
    entries[0], log_scale[0] = np.eye(rep.dim), 0.0
    start = 0
    for parent, letter, prev_size in zip(ball.parent[1:], ball.letter[1:], sizes):
        prev = ScaledBatch(entries[start : start + prev_size], log_scale[start : start + prev_size])
        start += prev_size
        for l in rep.presentation.letters():
            sel = np.flatnonzero(letter == l)
            if len(sel):
                image = prev.take(parent[sel]) @ rep.image(l)
                entries[start + sel], log_scale[start + sel] = image.entries, image.log_scale
    return ScaledBatch(entries, log_scale)


def cyclic_class_rows(ball: Ball) -> np.ndarray:
    """Rows of the first primitive word of each letter-level cyclic class, in ball order.

    A class holds the words whose cyclic reductions (outer pairs of inverse
    letters stripped) are rotations of one reduction or its inverse; a word
    is primitive when no proper rotation of its reduction equals it.  Word
    w·l has code code(w)·B + key(l), its inverse key(l⁻¹)·B^|w| + icode(w),
    and class key B^r + the least code of a rotation of the length-r reduction
    or its inverse (0: none).  Rotations roll one vector per sphere and length,
    in the smallest type holding 2·B^R (Python ints past R = 62 at rank 1).
    """
    base = len(ball.presentation.letters())
    code_type = np.min_scalar_type(2 * base**ball.radius)
    code = icode = np.zeros(1, dtype=code_type)
    keys = [code]
    for n, (parent, letter) in enumerate(zip(ball.parent[1:], ball.letter[1:]), start=1):
        key = (2 * (np.abs(letter) - 1) + (letter < 0)).astype(code_type)
        code, icode = code[parent] * base + key, (key ^ 1) * base ** (n - 1) + icode[parent]
        # t outer pairs cancel cyclically where code and icode share t leading digits
        strip = np.zeros(len(code), dtype=int)
        for i in range(1, (n - 1) // 2 + 1):
            strip += code // base ** (n - i) == icode // base ** (n - i)
        keys.append(np.empty(len(code), dtype=code_type))
        for t in np.unique(strip).tolist():
            rows, r, top = np.flatnonzero(strip == t), n - 2 * t, base ** (n - 2 * t - 1)
            w, iw = code[rows] // base**t % base**r, icode[rows] // base**t % base**r
            least, power, turned = np.minimum(w, iw), np.zeros(len(rows), dtype=bool), (w, iw)
            for _ in range(1, r):  # rotate one letter left
                turned = tuple(x % top * base + x // top for x in turned)
                power |= turned[0] == w
                least = np.minimum(least, np.minimum(*turned))
            keys[-1][rows] = np.where(power, 0, least + base**r)
    keys = np.concatenate(keys)
    _, first = np.unique(keys, return_index=True)
    return np.sort(first[keys[first] > 0])


def words_equal(u: Sequence[int], v: Sequence[int], p: Presentation) -> bool:
    """Word-problem oracle: u == v iff u v^-1 reduces to the empty word."""
    seq = tuple(u) + _inverse(tuple(v))
    return len(reduce_word(seq, p).letters) == 0
