"""Per-word cyclic-class helpers, kept as the oracle for the first rows of
``words.cyclic_classes``.

These are the tuple loops that picked the limit-map sample words before the
class rows were read from integer word codes.
"""

from anosov.words import _free_reduce, _inverse, letter_key


def cyclic_reduce(letters):
    w = _free_reduce(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def conjugacy_key(letters):
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
        keys = tuple(map(letter_key, base))
        candidates += [(keys[s:] + keys[:s], base[s:] + base[:s]) for s in range(len(w))]
    return min(candidates)[1]


def is_primitive_cyclic(letters):
    """Whether the cyclic reduction is not a proper power, at the letter level."""
    w = cyclic_reduce(letters)
    n = len(w)
    if n == 0:
        return False
    for period in range(1, n):
        if n % period == 0 and w == w[period:] + w[:period]:
            return False
    return True


def per_word_class_rows(ball):
    """Rows of the first primitive word of each conjugacy key, by the per-word loop."""
    rows, seen = [], set()
    for i, w in enumerate(ball.words()):
        if len(w) == 0 or not is_primitive_cyclic(w.letters):
            continue
        key = conjugacy_key(w.letters)
        if key not in seen:
            seen.add(key)
            rows.append(i)
    return rows
