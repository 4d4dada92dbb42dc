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
only when it is its own canonical form.  A ball's images are evaluated the
same way, sphere by sphere, with one stacked multiply per letter
(:func:`evaluate_ball`).
"""

from __future__ import annotations

import itertools
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


def _spheres(p: Presentation, radius: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # children are every letter but the inverse of the last one, ordered by
    # (parent, letter key), which is shortlex order; a surface child is kept
    # when it is its own canonical form (a prefix of a canonical word is
    # canonical, so every canonical word is a kept child of its prefix)
    alphabet = np.array(p.letters())
    last = np.zeros(1, dtype=alphabet.dtype)
    words: list[tuple[int, ...]] = [()]
    total = 1
    for _ in range(radius):
        if p.family == "free":  # every child is kept: check before allocating
            _check_guard(total + len(last) * len(alphabet) - np.count_nonzero(last))
        parent = np.repeat(np.arange(len(last)), len(alphabet))
        letter = np.tile(alphabet, len(last))
        keep = letter != -last[parent]
        if p.family == "surface":
            kept = zip(parent[keep].tolist(), letter[keep].tolist())
            children = [words[i] + (l,) for i, l in kept]
            canonical = [_surface_canonical(w, p.n) == w for w in children]
            keep[keep] = canonical
            words = list(itertools.compress(children, canonical))
        last = letter[keep]
        total += len(last)
        _check_guard(total)
        yield parent[keep], last


def enumerate_ball(p: Presentation, radius: int) -> Ball:
    """Breadth-first enumeration of canonical words of length <= radius.

    Each word is extended by every letter but the inverse of its last one.
    For surface groups only the extensions that are their own canonical
    form are kept, so the ball is complete and duplicate-free as a set of
    group elements.  Raises ResourceLimit when the ball would exceed
    ``BALL_GUARD`` words.
    """
    if radius < 0:
        raise InvalidParams("radius must be nonnegative")
    parents, letters = [np.array([-1])], [np.array([0])]
    for parent, letter in _spheres(p, radius):
        parents.append(parent)
        letters.append(letter)
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
            mats.append(ScaledMatrix.from_array(entries, float(gen["log_scale"])))
        return cls.from_generators(pres, mats)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

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


def cyclic_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    w = _free_reduce(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def conjugacy_key(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Shortlex-least rotation of the cyclic reduction of the word or its inverse.

    This identifies words equal up to cyclic rotation and inversion (axis
    identity), which is deduplication at the level of cyclic words only.
    """
    w = cyclic_reduce(letters)
    if not w:
        return ()
    # rotations share a length, so shortlex order between them is the order
    # of their letter-key tuples
    candidates = []
    for base in (w, _inverse(w)):
        keys = tuple(map(_letter_key, base))
        candidates += [(keys[s:] + keys[:s], base[s:] + base[:s]) for s in range(len(w))]
    return min(candidates)[1]


def is_primitive_cyclic(letters: tuple[int, ...]) -> bool:
    """Whether the cyclic reduction is not a proper power, at the letter level."""
    w = cyclic_reduce(letters)
    n = len(w)
    if n == 0:
        return False
    for period in range(1, n):
        if n % period == 0 and w == w[period:] + w[:period]:
            return False
    return True


def words_equal(u: Sequence[int], v: Sequence[int], p: Presentation) -> bool:
    """Word-problem oracle: u == v iff u v^-1 reduces to the empty word."""
    seq = tuple(u) + _inverse(tuple(v))
    return len(reduce_word(seq, p).letters) == 0
