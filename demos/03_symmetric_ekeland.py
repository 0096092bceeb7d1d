"""The symmetric Ekeland principle and its certificate.

The engine symmetrizes the start by iterated polarization, runs a greedy
penalized-descent chain, and seals a certificate: every conclusion is a
(measured value, theoretical bound) pair plus a sampled check of the
variational inequality.  Variant V needs no energy precondition and records
an exact comparison instead of a location bound.
"""

import json

import numpy as np

from symvar import (GridFunction, make_grid, norm_X, schwarz,
                    symmetric_ekeland, theta, verify_certificate)
from symvar.funcspace import Functional, gram_matrix

g = make_grid(1, 8, 1.0, 2, 4)
gram = gram_matrix(g)

# an admissible quadratic: center a = Gx^{-1}(w) with w symmetric-decreasing
# makes u -> ||u-a||_X^2 nonincreasing under polarization
w = schwarz(g.function((np.abs(np.random.default_rng(3).standard_normal(8))
                        + 0.3) ** 2))
a = GridFunction(g, np.linalg.solve(gram, w.values))
f = Functional(eval=lambda u: float((u - a).values @ gram @ (u - a).values),
               gradient=lambda W: np.matmul(
                   gram, (2.0 * (W - a.values))[..., None])[..., 0],
               symmetry_class="polarization-nonincreasing",
               lower_bound=0.0, name="quadratic")

rng = np.random.default_rng(4)
d = g.function(rng.standard_normal(8))
u0 = theta(a + (0.02 / norm_X(d)) * d)

print("== variant II (dominating point, whole space) ==")
cert = symmetric_ekeland(f, g, u0, sigma=0.1, rho=0.1, variant="II",
                         seed=7, n_samples=4000)
print("status:", cert.status)
for name, (val, bound) in cert.measured.items():
    print(f"  {name:30s} {val:12.3e} <= {bound:12.3e}")
print("  sampled max violation:", cert.violation.max_violation,
      " (slack", cert.slack, ")")

print("\n== variant V (no energy precondition, exact comparison) ==")
u_far = g.function(np.abs(rng.standard_normal(8)) * 3.0)
cert5 = symmetric_ekeland(f, g, u_far, 0.2, 0.2, variant="V", seed=8,
                          n_samples=4000)
print("status:", cert5.status)
print("exact recorded comparison f(v)+sigma*||v-Tu|| - f(u0) =",
      cert5.measured["f(v)+σ‖v-T_ρu0‖-f(u0)"][0])

print("\n== independent re-verification with a fresh seed ==")
rep = verify_certificate(f, cert, n_samples=8000, seed=999)
print("fresh max violation:", rep.max_violation)

print("\n== certificates serialize deterministically ==")
blob = cert.to_json_bytes()
print("bytes:", len(blob), " keys:", list(json.loads(blob))[:7], "...")
