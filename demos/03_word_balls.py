"""Word machinery: reduction, canonical forms, ball enumeration.

Free groups reduce by cancellation alone; surface groups also swap half of
the cyclic commutator relator for the inverse of the other half, a move that
includes every Dehn step.  Balls are enumerated in shortlex order, one
sphere at a time: each word is extended by every letter but the inverse of
its last one, and a surface-group extension is kept only when it is its own
canonical form.
"""

import numpy as np

from anosov import (
    Presentation,
    enumerate_ball,
    evaluate,
    fuchsian_surface_rep,
    reduce_word,
    spectrum,
    word_str,
    words_equal,
)

free2 = Presentation.free(2)
surface2 = Presentation.surface(2)

print("= reduction =")
print("a a^-1 b        ->", reduce_word((1, -1, 2), free2))
print("genus-2 relator:", word_str(surface2.relator))
print("full relator    ->", reduce_word(surface2.relator, surface2))
print("first 5 letters ->", reduce_word(surface2.relator[:5], surface2),
      " (Dehn move to the shorter complement)")
print("abAB == dcDC in the surface group:",
      words_equal((1, 2, -1, -2), (4, 3, -4, -3), surface2))

print()
print("= ball sizes =")
for p, radius in ((free2, 5), (surface2, 3)):
    ball = enumerate_ball(p, radius)
    print(f"{p.describe():16s} spheres {ball.sphere_sizes()}  total {len(ball)}")

print()
print("= the octagon side-pairing representation =")
rep = fuchsian_surface_rep(2)
print(f"relator defect: {rep.relator_defect:.2e}")
print("generator traces:", [round(float(np.trace(g.array())), 4) for g in rep.images])
ball = enumerate_ball(surface2, 2)
hyperbolic = sum(
    1 for w in ball.words() if len(w) > 0
    and spectrum(evaluate(rep, w)).log_gap(1) > 1e-8
)
print(f"nontrivial ball elements, all hyperbolic: {hyperbolic}/{len(ball) - 1}")
