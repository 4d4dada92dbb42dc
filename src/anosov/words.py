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
sphere n-1 (its ``parent`` index, int32, since a ball holds at most
``BALL_GUARD`` words) followed by one ``letter`` (int8, since letters lie in
+-26); nothing else of a word is stored.  Both
families walk the same way: every word of sphere n-1 is extended by every
letter but the inverse of its last one, and a surface-group child is kept
only when it is its own canonical form.  A surface child reaches the closure
search only when it holds a half-relator window; this is exact, since a child
is freely reduced and without such a window admits no move.  A ball's images
are evaluated the same way, sphere by sphere, with one multiply per block of
rows, and are read in chunks of at most :data:`linalg.STACK_ELEMENTS`
entries, the one stack budget; of earlier spheres only the previous one's
images are kept, as the parents of the current one (:func:`ball_image_chunks`,
the one image walk; :func:`cyclic_classes` is the one class pass).
"""

from __future__ import annotations

import json
import operator
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
from . import linalg
from .linalg import ScaledBatch, ScaledMatrix

BALL_GUARD = 1_000_000

#: Words spelled at a time when a :class:`WordStrings` view is iterated,
#: and so report rows written at a time.
SPELL_ROWS = 4096

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


def letter_key(letters: int | np.ndarray) -> int | np.ndarray:
    """The position 2(|l| - 1) + (l < 0) of a letter in shortlex order, which
    is its index in :meth:`Presentation.letters`; elementwise on an array."""
    return 2 * (abs(letters) - 1) + (letters < 0)


def shortlex_key(letters: Sequence[int]) -> tuple:
    return (len(letters), tuple(letter_key(l) for l in letters))


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
    ``parent`` arrays are int32 and ``letter`` arrays int8, 5 bytes a word.
    These arrays are the only copy of the words: :meth:`word_strings` is a
    view that spells the rows it is asked for.
    """

    presentation: Presentation
    radius: int
    parent: tuple[np.ndarray, ...]
    letter: tuple[np.ndarray, ...]

    @property
    def spheres(self) -> tuple[tuple[Word, ...], ...]:
        # every sphere of a ball holds a word, so letter_rows gives one array each
        return tuple(tuple(Word(tuple(w)) for w in letters.tolist())
                     for letters in self.letter_rows(np.arange(len(self))))

    def words(self) -> Iterator[Word]:
        for sphere in self.spheres:
            yield from sphere

    def word_strings(self) -> "WordStrings":
        """``str(w)`` of every word, in ``words()`` order, as a view spelled on demand."""
        return WordStrings(self)

    def lengths(self) -> np.ndarray:
        """``len(w)`` of every word, in ``words()`` order, in the smallest
        signed integer type that holds the radius."""
        kind = np.min_scalar_type(-self.radius - 1)  # a signed type holding -r-1 holds r
        return np.repeat(np.arange(len(self.letter), dtype=kind), self.sphere_sizes())

    def sphere_sizes(self) -> tuple[int, ...]:
        return tuple(len(l) for l in self.letter)

    def letter_rows(self, rows: Sequence[int] | np.ndarray) -> list[np.ndarray]:
        """The letters of the given ascending rows, one (m, n) array for the m
        rows of each sphere n that holds any; raises IndexError for a row
        outside the ball."""
        rows = np.asarray(rows, dtype=np.intp)
        if np.any(rows[1:] < rows[:-1]):
            raise ValueError("word rows must ascend")
        starts = np.cumsum((0,) + self.sphere_sizes())  # sphere n: starts[n]:starts[n+1]
        if len(rows) and not (0 <= rows[0] and rows[-1] < starts[-1]):
            raise IndexError(f"word rows outside 0..{starts[-1] - 1}")
        cuts = np.searchsorted(rows, starts).tolist()  # sphere n: rows[cuts[n]:cuts[n+1]]
        return [_walk(self.parent[: n + 1], self.letter[: n + 1], rows[lo:hi] - starts[n])
                for n, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi]

    def __len__(self) -> int:
        return sum(self.sphere_sizes())


class WordStrings(Sequence[str]):
    """Read-only view of ``str(w)`` for every word of a ball, in ``words()`` order.

    It holds no strings, only the ball, and spells just the rows asked for,
    sphere by sphere: the code points of the (m, n) letters of m rows of
    sphere n (:meth:`Ball.letter_rows`) are read as m strings of length n.
    Iteration spells :data:`SPELL_ROWS` rows at a time.  The view compares
    equal to any sequence of the same strings.
    """

    def __init__(self, ball: Ball) -> None:
        # code points indexed by letter: a negative letter wraps to the end
        self._points = np.zeros(2 * ball.presentation.n_generators + 1, dtype=np.uint32)
        for l in ball.presentation.letters():
            self._points[l] = ord(letter_str(l))
        self._ball, self._size = ball, len(ball)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            rows = np.arange(start, stop, step)
            return self.take(rows) if step > 0 else self.take(rows[::-1])[::-1]
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"word index {i} out of range for {len(self)} words")
        return self.take([i % len(self)])[0]

    def __iter__(self) -> Iterator[str]:
        for lo in range(0, len(self), SPELL_ROWS):
            yield from self[lo : lo + SPELL_ROWS]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def take(self, rows: Sequence[int] | np.ndarray) -> list[str]:
        """The words of the given ascending rows; raises IndexError for a row
        outside ``0 <= row < len(self)``."""
        out: list[str] = []
        for letters in self._ball.letter_rows(rows):
            n = letters.shape[1]
            if n == 0:
                out += [word_str(())] * len(letters)
            else:
                out += self._points[letters].view(f"U{n}").ravel().tolist()
        return out


def _check_guard(total: int) -> None:
    if total > BALL_GUARD:
        raise ResourceLimit(f"ball size exceeds guard {BALL_GUARD}")


def _walk(parents: Sequence[np.ndarray], letters: Sequence[np.ndarray],
          rows: np.ndarray) -> np.ndarray:
    """The letters of the given rows of the last sphere of a ball's (parent,
    letter) arrays, one row each, gathered by walking up their parents."""
    out = np.empty((len(rows), len(letters) - 1), dtype=np.int8)  # letters lie in +-26
    for level in range(len(letters) - 1, 0, -1):
        out[:, level - 1] = letters[level][rows]
        rows = parents[level][rows]
    return out


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
    alphabet = np.array(p.letters(), dtype=np.int8)
    surface = p.family == "surface"
    if surface:
        half, halves = _half_table(p.n)
        base = len(alphabet)
        codes = [sum(letter_key(l) * base**i for i, l in enumerate(reversed(h))) for h in halves]
        code_type = np.min_scalar_type(base**half)
        keys = np.arange(base, dtype=code_type)  # the alphabet is in letter-key order
        tail, held = np.zeros(1, dtype=code_type), np.zeros(1, dtype=bool)
    parents, letters = [np.array([-1], dtype=np.int32)], [np.array([0], dtype=np.int8)]
    total = 1
    for n in range(1, radius + 1):
        last = letters[-1]
        screened = surface and n >= half  # may a child be rejected?
        if not screened:  # every child is kept: check before stacking them
            _check_guard(total + len(last) * len(alphabet) - np.count_nonzero(last))
        parent = np.repeat(np.arange(len(last), dtype=np.int32), len(alphabet))
        letter = np.tile(alphabet, len(last))
        keep = letter != -last[parent]
        if surface:
            window = (tail[:, None] * base + keys).ravel()
            flag = np.repeat(held, base)
            if screened:
                flag |= np.isin(window, codes)
            search = np.flatnonzero(flag & keep)
            words = map(tuple, _walk(parents + [parent], letters + [letter], search).tolist())
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

    def letter_images(self) -> ScaledBatch:
        """The image of every letter, in letter-key order (:func:`letter_key`)."""
        return ScaledBatch.stack([self.image(l) for l in self.presentation.letters()])

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


def _extend(images: ScaledBatch, prev: ScaledBatch, parent: np.ndarray, letter: np.ndarray,
            out: ScaledBatch | None = None) -> ScaledBatch:
    """Images of the words ``prev[parent[i]]`` followed by ``letter[i]``, into
    ``out`` or a new batch, given the letter ``images`` in letter-key order:
    per block of :data:`linalg.STACK_ELEMENTS` / |alphabet| entries, one
    gather of parent and letter images and one row-by-row multiply, renormalized."""
    if out is None:
        out = ScaledBatch(np.empty((len(letter), *images.entries.shape[1:])), np.empty(len(letter)))
    block = max(1, linalg.STACK_ELEMENTS // images.entries.size)
    for lo in range(0, len(letter), block):
        rows = slice(lo, lo + block)
        image = prev.take(parent[rows]) @ images.take(letter_key(letter[rows]))
        out.entries[rows], out.log_scale[rows] = image.entries, image.log_scale
    return out


def ball_image_chunks(rep: Representation, ball: Ball) -> Iterator[tuple[int, ScaledBatch]]:
    """Images of the ball's words as ``(first row, batch)`` chunks of
    consecutive rows, in ``ball.words()`` order.

    Sphere n is computed from sphere n-1 in chunks of at most
    :data:`linalg.STACK_ELEMENTS` entries (read at each call) that never
    cross a sphere's end, each by :func:`_extend` in blocks of 1/|alphabet|
    of a chunk: the images of the blocks' parents times those of their last
    letters, row by row, then renormalized.  Each image is bit-identical to
    :func:`evaluate` of its word.  Only the previous sphere's images are
    kept, and no chunk of the last sphere (each is yielded straight from
    :func:`_extend`), so a walk holds about one sphere's images besides the
    chunk its reader holds, not the ball's.  The first chunk that fails to renormalize raises.
    """
    d, images = rep.dim, rep.letter_images()
    step = max(1, linalg.STACK_ELEMENTS // (d * d))
    prev = ScaledBatch(np.eye(d)[None], np.zeros(1))
    yield 0, prev
    start = 1
    for n in range(1, len(ball.letter)):
        parent, letter = ball.parent[n], ball.letter[n]
        sphere = None  # a sphere with children is kept whole, as their parents
        if n < ball.radius:
            sphere = ScaledBatch(np.empty((len(letter), d, d)), np.empty(len(letter)))
        for lo in range(0, len(letter), step):
            rows = slice(lo, lo + step)
            out = None if sphere is None else sphere.take(rows)
            yield start + lo, _extend(images, prev, parent[rows], letter[rows], out)
        prev, start = sphere, start + len(letter)


@dataclass(frozen=True)
class CyclicClasses:
    """Each ball row as a power of a primitive letter-level cyclic class.

    Row i is conjugate (by letters) to ``c^power[i]``, or to ``c^-power[i]``
    where ``inverted[i]``, with c the representative of class ``index[i]``
    (int32; -1 and power 0 for the identity; powers in the type of
    :meth:`Ball.lengths`).  ``letters[q]`` holds the representatives of
    length q, one row of letter keys each, and class indices run through
    them by increasing q.  ``first[c]`` is class c's first row in ball
    order, primitive: the class's root is a subword of each row, so a row.
    """

    index: np.ndarray
    power: np.ndarray
    inverted: np.ndarray
    letters: dict[int, np.ndarray]
    first: np.ndarray


def _class_keys(ball: Ball, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class key (B^q + the code of the length-q representative; 0: the
    identity), power and orientation of every row, for :func:`cyclic_classes`."""
    code_type = np.min_scalar_type(2 * base**ball.radius)
    count_type, starts = np.min_scalar_type(-ball.radius - 1), np.cumsum(ball.sphere_sizes())
    keys, powers = np.zeros(len(ball), dtype=code_type), np.zeros(len(ball), dtype=count_type)
    inverted = np.zeros(len(ball), dtype=bool)
    code = icode = np.zeros(1, dtype=code_type)
    for n, (parent, letter) in enumerate(zip(ball.parent[1:], ball.letter[1:]), start=1):
        key = letter_key(letter).astype(code_type)
        code, icode = code[parent] * base + key, (key ^ 1) * base ** (n - 1) + icode[parent]
        sphere = slice(starts[n - 1], starts[n])
        # t outer pairs cancel cyclically where code and icode share t leading digits
        strip = np.zeros(len(code), dtype=count_type)
        for i in range(1, (n - 1) // 2 + 1):
            strip += code // base ** (n - i) == icode // base ** (n - i)
        for t in np.unique(strip).tolist():
            at, r, top = np.flatnonzero(strip == t), n - 2 * t, base ** (n - 2 * t - 1)
            step = max(1, linalg.STACK_ELEMENTS // (2 * r))  # 2r rotations a row
            for rows in np.split(at, range(step, len(at), step)):
                w, iw = code[rows] // base**t % base**r, icode[rows] // base**t % base**r
                period = np.full(len(rows), r, dtype=code_type)
                least, turned = (w, iw), (w, iw)
                for s in range(1, r):  # rotate one letter left
                    turned = tuple(x % top * base + x // top for x in turned)
                    period[(period == r) & (turned[0] == w)] = s
                    least = tuple(map(np.minimum, least, turned))
                root = np.minimum(*least) // base ** (r - period)
                keys[sphere][rows] = root + base**period
                powers[sphere][rows] = r // period
                inverted[sphere][rows] = least[1] < least[0]
    return keys, powers, inverted


def cyclic_classes(ball: Ball) -> CyclicClasses:
    """The primitive cyclic class, power and orientation of every ball row.

    A row's cyclic reduction (outer pairs of inverse letters stripped) is a
    power p of a primitive root; its class is the root's rotations and their
    inverses, represented by the one of least code.  Word w·l has code
    code(w)·B + key(l), its inverse key(l⁻¹)·B^|w| + icode(w).  Rotations
    roll one vector per sphere, length and row slice (2r rotations a row in
    one stack budget), in the smallest type holding 2·B^R (Python ints past
    R = 62 at rank 1); the least rotation of root^p is the p-th power of the
    root's least rotation, so its leading digits.  One sort of the rows'
    class keys gives the classes, indices and first rows.
    """
    base = len(ball.presentation.letters())
    keys, power, inverted = _class_keys(ball, base)
    order = np.argsort(keys)
    keys = keys[order]
    new = np.append(True, keys[1:] != keys[:-1])  # class starts, in key order
    index = np.empty(len(keys), dtype=np.int32)
    index[order] = np.cumsum(new, dtype=np.int32) - 2  # the identity's key 0 is first: -1
    classes, first = keys[new], np.minimum.reduceat(order, np.flatnonzero(new))
    letters = {}
    for q in range(1, ball.radius + 1):
        codes = classes[(base**q <= classes) & (classes < base ** (q + 1))] - base**q
        if len(codes):
            digits = [codes // base ** (q - 1 - i) % base for i in range(q)]
            letters[q] = np.stack(digits, axis=1).astype(np.intp)
    return CyclicClasses(index=index, power=power, inverted=inverted, letters=letters,
                         first=first[1:])


def words_equal(u: Sequence[int], v: Sequence[int], p: Presentation) -> bool:
    """Word-problem oracle: u == v iff u v^-1 reduces to the empty word."""
    seq = tuple(u) + _inverse(tuple(v))
    return len(reduce_word(seq, p).letters) == 0
