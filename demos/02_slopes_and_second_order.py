"""Bracketing the weak slope and sampling the second-order quotient.

The weak slope is squeezed between the gradient norm (exact for smooth
functionals) and a sampled strong-slope maximum; the quadratic form Q_u(w)
is estimated as a max of second differences over a logged delta schedule.
"""

import numpy as np

from symvar import Functional, make_grid, norm_X, q_form, strong_slope
from symvar.funcspace import gram_matrix

g = make_grid(1, 4, 1.0, 2, 4)
gram = gram_matrix(g)

f = Functional(eval=lambda u: 0.5 * float(u.values @ gram @ u.values),
               gradient=lambda W: np.matmul(gram, W[..., None])[..., 0],
               lower_bound=0.0, name="half-square")

rng = np.random.default_rng(1)
u = g.function(rng.standard_normal(4))

print("== strong slope bracket at a generic point ==")
est = strong_slope(f, u, radii=(1e-3, 1e-4, 1e-5), n_samples=64, seed=0)
print("gradient lower bound:", round(est.lower, 8))
print("sampled upper bound :", round(est.upper, 8))
print("bracket valid       :", est.bracket_ok())

print("\n== slope vanishes at a minimum ==")
z = g.zeros()
print("upper at the minimizer:", strong_slope(f, z, radii=(1e-3,),
                                              n_samples=64, seed=0).upper)

print("\n== second-order quotient ==")
w = g.function(rng.standard_normal(4))
est_q = q_form(f, u, w, delta=1e-4, n_samples=16, seed=0)
print("schedule (delta, sampled max):")
for d, val in est_q.schedule:
    print(f"  {d:9.2e}  {val:.8f}")
print("reported value:", round(est_q.value, 8),
      " analytic <f''w, w> = ||w||^2 =", round(norm_X(w) ** 2, 8))

lin = Functional(eval=lambda u: float(u.values @ gram @ np.ones(4)),
                 name="linear")
print("\nsecond differences kill affine parts:",
      q_form(lin, u, w, delta=1e-2, n_samples=8, seed=0).value)
