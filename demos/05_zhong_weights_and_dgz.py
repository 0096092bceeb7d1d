"""Weighted principles and smooth-perturbation checking.

zhong_radius inverts the weight integral: r(rho) solves
int_0^r ds/(1+h(s)) = rho, recovering the classical radius for h = 0 and
e^rho - 1 for the linear weight.  dgz_check is report-only: it measures
sup|g|, sup||g'|| and the global minimality of f+g, and ships a scaled C^1
bump as a ready-made admissible perturbation.
"""

import numpy as np

from symvar import (bump_perturbation, dgz_check, make_grid, norm_X, schwarz,
                    symmetric_zhong, theta, zhong_radius)
from symvar.funcspace import Functional, GridFunction, gram_matrix

print("== weight radii ==")
for name, h in (("zero", lambda s: 0.0), ("linear", lambda s: s),
                ("quadratic", lambda s: s * s)):
    vals = [zhong_radius(h, rho) for rho in (0.1, 0.5, 1.0)]
    print(f"h = {name:9s}: r(0.1), r(0.5), r(1.0) =",
          [round(v, 8) for v in vals])
print("checks: r = rho for h = 0, r = e^rho - 1 for h(s) = s,")
print("        r = tan(rho) for h(s) = s^2  (tan(0.5) =",
      round(np.tan(0.5), 8), ")")

g = make_grid(1, 4, 1.0, 2, 4)
gram = gram_matrix(g)
w = schwarz(g.function([2.0, 0.8, 1.3, 0.4]))
a = GridFunction(g, np.linalg.solve(gram, w.values))
f = Functional(eval=lambda u: float((u - a).values @ gram @ (u - a).values),
               gradient=lambda W: np.matmul(
                   gram, (2.0 * (W - a.values))[..., None])[..., 0],
               symmetry_class="polarization-nonincreasing",
               lower_bound=0.0, name="quadratic")

print("\n== weighted symmetric principle (linear weight) ==")
rng = np.random.default_rng(6)
d = g.function(rng.standard_normal(4))
u0 = theta(a + (0.02 / norm_X(d)) * d)
cert = symmetric_zhong(f, g, u0, sigma=0.1, rho=0.2, h=lambda s: s, seed=1,
                       n_samples=2000)
print("status:", cert.status, " r(rho) =", round(cert.extras["r_of_rho"], 8),
      " weight at v =", round(cert.extras["weight_at_v"], 8))

print("\n== smooth-perturbation certificate checking ==")
eps = 0.2
gbump = bump_perturbation(g, a, eps, delta=1.0)
rep = dgz_check(f, gbump, a, eps, seed=2, n_samples=3000)
print("status:", rep.status)
print("sup|g|  =", rep.measured["sup|g|"][0], "<=", eps)
print("sup|g'| =", rep.measured["sup‖g'‖"][0], "<=", eps)

bad = dgz_check(f, gbump, a + g.function([0.4, 0, 0, 0]), eps, seed=3,
                n_samples=3000)
print("corrupted point -> status:", bad.status,
      " witness found:", bad.violation.argmax_w is not None)
