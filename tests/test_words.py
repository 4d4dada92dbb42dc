import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import anosov.words
from anosov import (
    Ball,
    DimensionMismatch,
    InvalidParams,
    Presentation,
    Representation,
    ResourceLimit,
    ScaledBatch,
    ScaledMatrix,
    SchottkyParams,
    UnknownLetter,
    compound_rep,
    enumerate_ball,
    evaluate,
    evaluate_ball,
    parse_word,
    realify_rep,
    reduce_word,
    schottky_rep,
    sym_power_rep,
    word_str,
    words_equal,
)
from anosov.cli import ExperimentConfig, cmd_construct, write_run
from anosov.words import cyclic_class_rows, shortlex_key
from word_oracle import conjugacy_key, cyclic_reduce, is_primitive_cyclic, per_word_class_rows

F2 = Presentation.free(2)
S2 = Presentation.surface(2)


def set_and_sort_spheres(p, radius):
    """The set-and-sort surface walk that the one sphere walk replaced, as an oracle.

    Every extension is reduced, deduplicated in a set, sorted by shortlex key
    and given the index of its prefix in the previous sphere.
    """
    sphere = [()]
    for target in range(1, radius + 1):
        new = set()
        for w in sphere:
            for l in p.letters():
                if w and w[-1] == -l:
                    continue
                cand = reduce_word(w + (l,), p).letters
                if len(cand) == target:
                    new.add(cand)
        index = {w: i for i, w in enumerate(sphere)}
        sphere = sorted(new, key=shortlex_key)
        yield np.array([index[w[:-1]] for w in sphere]), np.array([w[-1] for w in sphere])


def shortlex_rotation_key(letters):
    """``conjugacy_key`` as first written: the shortlex-least of all rotations, as an oracle."""
    w = cyclic_reduce(letters)
    if not w:
        return ()
    candidates = []
    for base in (w, tuple(-l for l in reversed(w))):
        for s in range(len(base)):
            candidates.append(base[s:] + base[:s])
    return min(candidates, key=shortlex_key)


def surface_relator(genus):
    """[a1,b1]...[ag,bg] over letters 1..2g (a negative letter is an inverse)."""
    return tuple(l for i in range(genus) for l in (2 * i + 1, 2 * i + 2, -2 * i - 1, -2 * i - 2))


def inverse_letters(w):
    return tuple(-l for l in reversed(w))


@functools.lru_cache(maxsize=None)
def dehn_pieces(genus):
    """rho[:m] -> (rho[m:])^-1 for rotations rho of the relator and its inverse, m > half."""
    r = surface_relator(genus)
    pieces = {}
    for base in (r, inverse_letters(r)):
        for s in range(len(r)):
            rho = base[s:] + base[:s]
            for m in range(len(r) // 2 + 1, len(r) + 1):
                pieces[rho[:m]] = inverse_letters(rho[m:])
    return pieces


def dehn_trivial(letters, genus):
    """Dehn's algorithm: whether a word is the identity of the genus-g surface group.

    Free- and cyclically reduce the word, then replace any cyclic subword
    ``rho[:m]`` with ``m > len(rho) / 2``, ``rho`` a cyclic conjugate of the
    relator or its inverse, by ``rho[m:]`` inverted, until none is left.  The
    presentation is C'(1/6) for g >= 2, so by Greendlinger's lemma the word is
    trivial iff this ends empty.  Shares no code with ``reduce_word``.
    """
    pieces = dehn_pieces(genus)
    n = 4 * genus
    w = list(letters)
    while True:
        stack = []
        for l in w:  # free reduction
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
        while len(stack) > 1 and stack[0] == -stack[-1]:  # cyclic reduction
            stack = stack[1:-1]
        w = tuple(stack)
        doubled = w + w
        found = next(
            ((i, m) for m in range(n // 2 + 1, min(n, len(w)) + 1) for i in range(len(w))
             if doubled[i : i + m] in pieces),
            None,
        )
        if found is None:
            return not w
        i, m = found
        rotated = w[i:] + w[:i]
        w = pieces[rotated[:m]] + rotated[m:]


def random_surface_word(rng, genus):
    """Letters and cyclic subwords of the relator or its inverse, concatenated."""
    r = surface_relator(genus)
    out = ()
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.5:
            out += (int(rng.choice([l for g in range(1, 2 * genus + 1) for l in (g, -g)])),)
        else:
            base = r if rng.random() < 0.5 else inverse_letters(r)
            s, m = int(rng.integers(len(r))), int(rng.integers(1, len(r) + 1))
            out += (base[s:] + base[:s])[:m]
    return out


def random_letters(rng, p, max_len=12):
    letters = list(p.letters())
    n = int(rng.integers(0, max_len + 1))
    return tuple(int(letters[i]) for i in rng.integers(0, len(letters), n))


class TestSerialization:
    def test_word_str_round_trip(self):
        assert word_str((1, 2, -1, -2)) == "abAB"
        assert parse_word("abAB") == (1, 2, -1, -2)
        assert word_str(()) == "<id>"
        assert parse_word("<id>") == ()

    def test_unknown_character(self):
        with pytest.raises(UnknownLetter):
            parse_word("a-b")

    def test_shortlex_alphabet_order(self):
        # a < A < b < B, and shorter always first
        words = [(2,), (1,), (-1,), (-2,), (1, 1)]
        ordered = sorted(words, key=shortlex_key)
        assert [word_str(w) for w in ordered] == ["a", "A", "b", "B", "aa"]


class TestPresentation:
    def test_relator_genus2(self):
        assert word_str(S2.relator) == "abABcdCD"

    def test_validation(self):
        with pytest.raises(InvalidParams):
            Presentation.surface(1)
        with pytest.raises(InvalidParams):
            Presentation.free(0)
        with pytest.raises(InvalidParams):
            Presentation("ring", 2)

    def test_alphabet_guard(self):
        with pytest.raises(UnknownLetter):
            F2.check_letters((1, 3))


class TestReduceWord:
    def test_free_cancellation(self):
        assert reduce_word((1, -1, 2), F2).letters == (2,)

    def test_relator_dies(self):
        assert reduce_word(S2.relator, S2).letters == ()

    def test_dehn_step_on_long_prefix(self):
        # five relator letters collapse to the inverse of the other three
        out = reduce_word(S2.relator[:5], S2)
        assert str(out) == "dcD"
        assert words_equal(S2.relator[:5], out.letters, S2)

    def test_idempotent_free(self, rng):
        for _ in range(300):
            w = random_letters(rng, F2)
            once = reduce_word(w, F2)
            assert reduce_word(once.letters, F2).letters == once.letters

    def test_idempotent_surface(self, rng):
        for _ in range(300):
            w = random_letters(rng, S2)
            once = reduce_word(w, S2)
            twice = reduce_word(once.letters, S2)
            assert twice.letters == once.letters
            assert len(once.letters) <= len(w)

    def test_inserted_relator_vanishes(self, rng):
        # a rotation of the relator or its inverse spliced into a canonical
        # word is the identity, so the canonical word must come back
        r = S2.relator
        rotations = [b[s:] + b[:s] for b in (r, tuple(-l for l in reversed(r)))
                     for s in range(len(r))]
        words = [w.letters for w in enumerate_ball(S2, 3).words()]
        for _ in range(300):
            u = words[int(rng.integers(len(words)))]
            rho = rotations[int(rng.integers(len(rotations)))]
            i = int(rng.integers(len(u) + 1))
            assert reduce_word(u[:i] + rho + u[i:], S2).letters == u

    def test_half_relator_words_identified(self):
        # abAB equals dcDC in the genus-2 group; both canonicalize identically
        u, v = parse_word("abAB"), parse_word("dcDC")
        assert words_equal(u, v, S2)
        assert reduce_word(u, S2).letters == reduce_word(v, S2).letters

    def test_reduction_keeps_the_group_element(self, fuchsian2, rng):
        # matrices, not the word problem, decide equality: words_equal itself
        # calls reduce_word and cannot see a canonicalizer that moves elements
        for _ in range(1000):
            w = random_letters(rng, S2)
            a = evaluate(fuchsian2, w).array()
            b = evaluate(fuchsian2, reduce_word(w, S2)).array()
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)


class TestDehnOracle:
    """``reduce_word`` and the ball against Dehn's algorithm (see ``dehn_trivial``)."""

    @pytest.mark.parametrize("genus", [2, 3])
    def test_relator_is_trivial(self, genus):
        r = surface_relator(genus)
        assert dehn_trivial(r, genus)
        assert dehn_trivial(inverse_letters(r), genus)
        assert not dehn_trivial(r[:5], genus)

    def test_ball_words_are_distinct_elements(self):
        words = [w.letters for w in enumerate_ball(S2, 3).words()]
        assert len(words) == 457
        inverses = [inverse_letters(w) for w in words]
        for i, u in enumerate(words):
            for v in inverses[i + 1 :]:
                assert not dehn_trivial(u + v, 2)

    @pytest.mark.parametrize("genus", [2, 3])
    def test_reduction_keeps_the_element(self, rng, genus):
        p = Presentation.surface(genus)
        for _ in range(2000):
            w = random_surface_word(rng, genus)
            assert dehn_trivial(w + inverse_letters(reduce_word(w, p).letters), genus)


class TestEnumerateBall:
    def test_radius_zero(self):
        ball = enumerate_ball(F2, 0)
        assert len(ball) == 1 and ball.sphere_sizes() == (1,)

    def test_free_rank2_counts(self):
        ball = enumerate_ball(F2, 8)
        sizes = ball.sphere_sizes()
        assert sizes[0] == 1
        for l in range(1, 9):
            assert sizes[l] == 4 * 3 ** (l - 1)

    def test_free_rank3_counts(self):
        # sphere growth 2n (2n-1)^(l-1); rank 3 kept to radius 6 for speed,
        # the radius-8 count is exercised by the rank-2 case above
        ball = enumerate_ball(Presentation.free(3), 6)
        for l in range(1, 7):
            assert ball.sphere_sizes()[l] == 6 * 5 ** (l - 1)

    @pytest.mark.parametrize("rank, radius", [(2, 8), (3, 5)])
    def test_free_ball_matches_reduced_words_oracle(self, rank, radius):
        # every freely reduced word from itertools.product, sorted by shortlex key
        alphabet = Presentation.free(rank).letters()
        oracle = [
            w
            for n in range(radius + 1)
            for w in itertools.product(alphabet, repeat=n)
            if all(a != -b for a, b in zip(w, w[1:]))
        ]
        oracle.sort(key=shortlex_key)
        ball = enumerate_ball(Presentation.free(rank), radius)
        assert [w.letters for w in ball.words()] == oracle
        assert ball.word_strings() == [word_str(w) for w in oracle]
        assert ball.lengths().tolist() == [len(w) for w in oracle]

    def test_surface_genus2_radius2(self):
        ball = enumerate_ball(S2, 2)
        assert ball.sphere_sizes() == (1, 8, 56)
        assert len(ball) == 65

    @pytest.mark.parametrize(
        "genus, radius",
        [(2, 5), (2, 6), (3, 3), (3, 5), (4, 4), (13, 2)],
        ids=["genus2-r5", "genus2-r6", "genus3-r3", "genus3-r5", "genus4-r4", "genus13-r2"],
    )
    def test_surface_spheres_follow_cannon_series(self, genus, radius):
        # Cannon's growth series of the genus-g surface group:
        # (1 + 2z + ... + 2z^(2g-1) + z^(2g)) / (1 - (4g-2)(z + ... + z^(2g-1)) + z^(2g))
        num = [1] + [2] * (2 * genus - 1) + [1]
        den = [1] + [-(4 * genus - 2)] * (2 * genus - 1) + [1]
        series: list[int] = []
        for n in range(radius + 1):
            acc = num[n] if n < len(num) else 0
            acc -= sum(den[j] * series[n - j] for j in range(1, min(n, len(den) - 1) + 1))
            series.append(acc)
        if genus == 2:
            assert series == [1, 8, 56, 392, 2736, 19096, 133288][: radius + 1]
        ball = enumerate_ball(Presentation.surface(genus), radius)
        assert list(ball.sphere_sizes()) == series

    def test_surface_sphere_pairwise_distinct(self):
        # Dehn's algorithm, which shares no code with reduce_word, finds no
        # duplicates on sphere 4, the first length where one element has two
        # reduced spellings
        sphere4 = [w.letters for w in enumerate_ball(S2, 4).spheres[4]]
        assert len(sphere4) == 2736
        for i in range(0, len(sphere4), 37):  # spot-check a spread of pairs
            for j in range(i + 1, len(sphere4), 41):
                assert not dehn_trivial(sphere4[i] + inverse_letters(sphere4[j]), 2)

    @pytest.mark.parametrize("radius, searched", [(3, 0), (4, 16), (5, 168), (6, 1512)])
    def test_surface_walk_searches_only_half_relator_windows(self, monkeypatch, radius, searched):
        # the closure search runs only on children holding a half-relator
        # window: 16 such words of length 4 at genus 2, none shorter
        calls = []
        canonical = anosov.words._surface_canonical
        monkeypatch.setattr(
            "anosov.words._surface_canonical",
            lambda letters, genus: calls.append(letters) or canonical(letters, genus),
        )
        ball = enumerate_ball(S2, radius)
        assert len(calls) == searched
        r = surface_relator(2)
        halves = {(base[s:] + base[:s])[:4] for base in (r, inverse_letters(r)) for s in range(8)}
        children = [
            w.letters + (l,)
            for sphere in ball.spheres[:-1]
            for w in sphere
            for l in S2.letters()
            if not w.letters or w.letters[-1] != -l
        ]
        assert calls == [w for w in children if any(w[i : i + 4] in halves for i in range(len(w)))]

    @pytest.mark.parametrize(
        "genus, radius", [(2, 5), (2, 6), (3, 3)], ids=["genus2-r5", "genus2-r6", "genus3-r3"]
    )
    def test_surface_walk_matches_set_and_sort_oracle(self, genus, radius):
        p = Presentation.surface(genus)
        ball = enumerate_ball(p, radius)
        spheres = list(set_and_sort_spheres(p, radius))
        assert len(ball.parent) == len(spheres) + 1
        for n, (parent, letter) in enumerate(spheres, start=1):
            assert np.array_equal(ball.parent[n], parent)
            assert np.array_equal(ball.letter[n], letter)

    def test_sorted_within_spheres(self):
        for ball in (enumerate_ball(F2, 3), enumerate_ball(S2, 4)):
            for sphere in ball.spheres:
                keys = [shortlex_key(w.letters) for w in sphere]
                assert keys == sorted(keys)

    def test_guard(self, monkeypatch):
        monkeypatch.setattr("anosov.words.BALL_GUARD", 100)
        with pytest.raises(ResourceLimit):
            enumerate_ball(F2, 8)

    @pytest.mark.parametrize(
        "p, radius, size", [(F2, 3, 53), (S2, 3, 457), (S2, 4, 3193)],
        ids=["free2-r3", "genus2-r3", "genus2-r4"],
    )
    def test_guard_boundary(self, monkeypatch, p, radius, size):
        # a ball of exactly BALL_GUARD words builds, one word more raises; at
        # genus 2 R=4, 8 of the 2,744 candidate children are not canonical
        monkeypatch.setattr("anosov.words.BALL_GUARD", size)
        assert len(enumerate_ball(p, radius)) == size
        monkeypatch.setattr("anosov.words.BALL_GUARD", size - 1)
        with pytest.raises(ResourceLimit):
            enumerate_ball(p, radius)

    def test_one_guard_check_per_sphere(self, monkeypatch):
        checks = []
        check = anosov.words._check_guard
        monkeypatch.setattr(
            "anosov.words._check_guard", lambda total: checks.append(total) or check(total)
        )
        for p, radius in [(F2, 6), (S2, 6), (Presentation.surface(3), 3)]:
            checks.clear()
            ball = enumerate_ball(p, radius)
            assert checks == np.cumsum(ball.sphere_sizes()).tolist()[1:]

    def test_refusal_before_stacking_the_sphere(self):
        # genus 5 has 20 letters and no half-relator window below length 10,
        # so sphere 5 (about 2.6M children) is refused before it is stacked
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit):
                enumerate_ball(Presentation.surface(5), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEvaluate:
    def test_empty_word_identity(self, diag_rep):
        assert evaluate(diag_rep, ()).distance_to_identity() < 1e-14

    def test_diagonal_power(self, diag_rep):
        m = evaluate(diag_rep, (1, 1))
        np.testing.assert_allclose(m.array(), np.diag([9.0, 1 / 9.0]), rtol=1e-12)

    def test_inverse_letters(self, diag_rep):
        m = evaluate(diag_rep, (-1,))
        np.testing.assert_allclose(m.array(), np.diag([1 / 3.0, 3.0]), rtol=1e-12)

    def test_concatenation_multiplicative(self, schottky2, rng):
        for _ in range(100):
            w1 = reduce_word(random_letters(rng, F2, 6), F2)
            w2 = reduce_word(random_letters(rng, F2, 6), F2)
            joined = w1.letters + w2.letters
            if reduce_word(joined, F2).letters != joined:
                continue  # only reduced concatenations
            lhs = evaluate(schottky2, joined)
            rhs = evaluate(schottky2, w1) @ evaluate(schottky2, w2)
            assert lhs.log_scale == pytest.approx(rhs.log_scale, abs=1e-10)
            np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-10)

    def test_ball_walk_matches_evaluate(self, schottky2, fuchsian2):
        sym5 = sym_power_rep(schottky2, 5)
        cases = (
            (schottky2, F2, 6),
            (fuchsian2, S2, 3),
            (realify_rep(schottky_rep(SchottkyParams(rank=2, field="complex"))), F2, 5),
            (compound_rep(sym5, 3), F2, 3),
        )
        for rep, p, radius in cases:
            ball = enumerate_ball(p, radius)
            images = evaluate_ball(rep, ball)
            assert len(images) == len(ball)
            assert images.entries.shape == (len(ball), rep.dim, rep.dim)
            for i, w in enumerate(ball.words()):
                plain = evaluate(rep, w)
                assert images.log_scale[i] == plain.log_scale
                assert np.array_equal(images.entries[i], plain.entries)
                assert images[i].log_scale == plain.log_scale
                assert np.array_equal(images[i].entries, plain.entries)

    def test_ball_walk_one_multiply_per_word(self, schottky2, fuchsian2, monkeypatch):
        # one batched multiply per sphere and letter, covering each word once
        per_word = []
        single = ScaledMatrix.__matmul__
        monkeypatch.setattr(
            ScaledMatrix, "__matmul__", lambda a, b: per_word.append(1) or single(a, b)
        )
        batched = []
        matmul = ScaledBatch.__matmul__
        monkeypatch.setattr(
            ScaledBatch, "__matmul__", lambda a, b: batched.append(len(a)) or matmul(a, b)
        )
        for rep, p, radius in ((schottky2, F2, 5), (fuchsian2, S2, 3)):
            ball = enumerate_ball(p, radius)
            batched.clear()
            evaluate_ball(rep, ball)
            expected = sum(len(set(letter.tolist())) for letter in ball.letter[1:])
            assert expected == radius * 2 * p.n_generators
            assert len(batched) == expected
            assert sum(batched) == len(ball) - 1
        assert per_word == []


class TestRepresentation:
    def test_surface_relator_enforced(self):
        from anosov import ConstructionFailure

        bad = [
            np.diag([2.0, 0.5]),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [1.0, 1.0]]),
            np.diag([3.0, 1 / 3.0]),
        ]
        with pytest.raises(ConstructionFailure):
            Representation.from_generators(S2, [ScaledMatrix.from_array(m) for m in bad])

    def test_wrong_generator_count(self):
        with pytest.raises(DimensionMismatch):
            Representation.from_generators(F2, [ScaledMatrix.identity(2)])

    def test_json_round_trip(self, schottky2, tmp_path):
        # written the way the program writes it: construct's report, through write_run
        path = tmp_path / "rep.json"
        cfg = ExperimentConfig(construction={"kind": "schottky"}, emit=str(path))
        run = cmd_construct(cfg, schottky2)
        write_run(tmp_path / "out", run.summary, run.reports)
        back = Representation.load(path)
        assert back.presentation == schottky2.presentation
        for a, b in zip(schottky2.images, back.images):
            np.testing.assert_allclose(a.array(), b.array(), rtol=1e-15)
        data = json.loads(path.read_text())
        assert data["dimension"] == 2
        assert len(data["generators"]) == 2


class TestConjugacyHelpers:
    def test_conjugacy_key_identifies_rotations_and_inverse(self):
        w = parse_word("abA")
        assert conjugacy_key(w) == conjugacy_key(parse_word("b"))
        assert conjugacy_key(parse_word("ab")) == conjugacy_key(parse_word("BA"))

    @pytest.mark.parametrize("p", [F2, Presentation.free(3), S2, Presentation.surface(3)],
                             ids=["free2", "free3", "genus2", "genus3"])
    def test_conjugacy_key_matches_shortlex_rotation_oracle(self, rng, p):
        # powers and commutators have tied rotations
        tied = [parse_word(t) for t in ("aaaa", "abab", "abAB", "aBaBaB", "AbAbAb")]
        for w in tied + [random_letters(rng, p, max_len=16) for _ in range(500)]:
            assert conjugacy_key(w) == shortlex_rotation_key(w)

    def test_primitive_detection(self):
        assert is_primitive_cyclic(parse_word("ab"))
        assert not is_primitive_cyclic(parse_word("abab"))
        assert not is_primitive_cyclic(())
        assert is_primitive_cyclic(parse_word("aabb"))


class TestCyclicClassRows:
    @pytest.mark.parametrize(
        "p, radius",
        [(F2, 9), (Presentation.free(3), 6), (S2, 5), (Presentation.surface(3), 4),
         (Presentation.free(1), 70)],
        ids=["free2-R9", "free3-R6", "genus2-R5", "genus3-R4", "free1-R70"],
    )
    def test_rows_match_per_word_loop(self, p, radius):
        # free rank 1 at R=70 holds its codes (up to 2^71) as Python ints
        ball = enumerate_ball(p, radius)
        rows = cyclic_class_rows(ball)
        assert rows.tolist() == per_word_class_rows(ball)
        words = list(ball.words())
        assert ball.words_at(rows) == [words[i] for i in rows]

    def test_no_rotation_stack(self):
        # an (m, L, L) stack of rotations at F2 R=10 would need about 126 MB
        ball = enumerate_ball(F2, 10)
        tracemalloc.start()
        try:
            cyclic_class_rows(ball)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
