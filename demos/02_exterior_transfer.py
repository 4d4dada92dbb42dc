"""Exterior powers move gap questions at index k to top-gap questions.

The compound matrix acts on k-vectors by minors; its top eigenvalue gap is
exactly the k-th gap of the base matrix, and Pluecker coordinates carry
k-planes into the projectivized exterior power equivariantly.
"""

import numpy as np

from anosov import (
    ExteriorVector,
    ScaledMatrix,
    compound_matrix,
    plucker_point,
    spectrum,
    symplectic_form,
)
from anosov.exterior import top_coefficient

rng = np.random.default_rng(42)

print("= proximality transfer through the compound =")
a = rng.standard_normal((5, 5))
g = ScaledMatrix.from_array(a)
base = spectrum(g)
for k in range(1, 5):
    lifted = spectrum(compound_matrix(g, k))
    print(f"k={k}: base gap {base.log_gap(k):+.4f}  "
          f"compound top gap {lifted.log_gap(1):+.4f}  "
          f"agree={base.is_proximal(k) == lifted.is_proximal(1)}")

print()
print("= Pluecker coordinates of a 2-plane in R^4 =")
v = rng.standard_normal((4, 2))
p = plucker_point(v)
print("coordinates:", np.round(p.unit().coeffs, 4))
w = plucker_point(rng.standard_normal((4, 2)))
print(f"pairing against a random complementary plane: {top_coefficient(p, w):+.4f} "
      "(vanishes only when the planes overlap)")

print()
print("= the middle-degree wedge pairing in dimension 6 =")
e123 = ExteriorVector.basis_vector(6, (0, 1, 2))
e456 = ExteriorVector.basis_vector(6, (3, 4, 5))
print("omega(e123, e456) =", symplectic_form(e123, e456, 1))
print("omega(e456, e123) =", symplectic_form(e456, e123, 1))
x = ExteriorVector.from_coeffs(6, 3, rng.standard_normal(20))
print(f"omega(x, x) = {symplectic_form(x, x, 1):.2e}  (odd degree: isotropic)")
