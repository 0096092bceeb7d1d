"""Smooth perturbations and Palais-Smale sequences with extra structure.

The smooth principle replaces the norm penalty with a squared one around a
moving center eta; on a Hilbert grid the parallelogram law then forces the
second-difference quotients of f at the output above -2*eps*||zeta||^2.
Chaining it over a decreasing eps schedule yields minimizing points whose
symmetry defect, slope bound and quadratic-form defect vanish together.
"""

import numpy as np

from symvar import make_grid, sqps_sequence, symmetric_borwein_preiss
from symvar.funcspace import Functional

g = make_grid(1, 8, 1.0, 2, 4)
m = g.cell_measure


# rearrangement-invariant double well: (m*sum(u^2) - 1)^2
def ev(u):
    return (m * float(u.values @ u.values) - 1.0) ** 2


def grad(W):
    sq = np.matmul(W[..., None, :], W[..., :, None])[..., 0, 0]
    return (4.0 * (m * sq - 1.0) * m)[..., None] * W


f = Functional(eval=ev, gradient=grad,
               symmetry_class="polarization-invariant", lower_bound=0.0,
               name="L2-double-well")

rng = np.random.default_rng(5)
sph = np.abs(rng.standard_normal(8)) + 0.1
sph /= np.sqrt(m * float(sph @ sph))
u0 = g.function(sph)

print("== one smooth-principle run ==")
cert = symmetric_borwein_preiss(f, g, u0, sigma=0.1, rho=0.1, p_exp=2,
                                seed=2, n_samples=4000)
print("status:", cert.status)
print("center eta and output v satisfy the squared-penalty inequality;")
print("sampled max violation:", cert.violation.max_violation)
for name in ("‖v-v*‖_V", "‖v-u‖", "‖η-u‖", "f(v)-inf_est"):
    val, bound = cert.measured[name]
    print(f"  {name:14s} {val:11.3e} <= {bound:11.3e}")

print("\n== SQPS sequence over a decreasing schedule ==")
out = sqps_sequence(f, g, [0.1, 0.05, 0.01], seed=3, n_samples=1500,
                    q_probes=32)
print("eps_h    sym defect    slope upper   Q-margin min")
for (c, q) in out:
    print(f"{c.sigma:5.2f}  {c.measured['‖v-v*‖_V'][0]:12.3e}"
          f"  {c.measured['slope_upper'][0]:12.3e}  {q.min_margin:12.3e}")
print("every Q-margin is the sampled min of quotient + 2*eps*||zeta||^2,")
print("which the exact penalized minimizer keeps nonnegative.")
