"""Empirical gap certificates over word-metric balls.

A representation earns "Certified" at index k when the worst log gap per
length grows linearly (slope alpha_hat at least alpha_min) with nondecreasing
minima over the top radii; a vanishing gap at length >= 2 refutes instead.
The same envelope machinery checks the quasi-isometry lower bound on
log(sigma_1 / sigma_d).
"""

from anosov import SchottkyParams, certify_anosov, gap_profile, schottky_rep

rep = schottky_rep(SchottkyParams(rank=2, dilation=3.0))
profile = gap_profile(rep, 1, 8)
print(f"profile: {len(profile.words)} words up to length {profile.radius}")
print("per-length minima of log(sigma_1/sigma_2):")
for length, minimum in sorted(profile.per_length_minima().items()):
    bar = "#" * int(4 * minimum)
    print(f"  {length:2d}  {minimum:7.3f}  {bar}")

est = certify_anosov(profile)
print()
print(f"verdict     : {est.verdict}")
print(f"alpha_hat   : {est.alpha_hat:.4f}   (fit over lengths >= {est.ell_min})")
print(f"log C_hat   : {est.logC_hat:.4f}")
print(f"min margin  : {est.min_margin:.4f}  (worst log gap at the top radius)")
print(f"QIE check   : slope {est.qie.slope:.4f}, passed = {est.qie_passed}")
