"""Numerical bracketing of the weak slope and the second-order quotient.

The weak slope |df|(u) is never computed from its deformation definition
(non-constructive); it is bracketed by the dual norm of the declared
gradient from below and a sampled strong-slope maximum from above:

    ‖df(u)‖_{X′}  =  |df|(u)  ≤  |∇f|(u)   (C¹ case),

both sides being one-sided estimates.  The lower end is exact for C¹
functionals on p = 2 grids, where the X-norm of the gradient's Riesz solve
is that dual norm; else it is 0.  The quadratic form Q_u(w) is the limsup of
second differences (f(z+tζ)+f(z−tζ)−2f(z))/t² over (z, ζ, t) near (u, w, 0);
the estimator reports the sampled maximum at the finest level of a logged,
decreasing δ-schedule.

Probe directions come from a seeded scrambled Sobol sequence, so estimates
are reproducible and max-reductions are order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, OutsideDomain
from .funcspace import (Functional, GridFunction, norm_X, _norm_X_raw,
                        _riesz_gradient)

__all__ = ["SlopeEstimate", "QEstimate", "strong_slope", "q_form",
           "unit_directions"]


@dataclass(frozen=True)
class SlopeEstimate:
    """Bracket [lower, upper] for |df|(u).

    ``lower`` is the X-norm of the Riesz solve of f's gradient at u on
    p = 2 grids (0 otherwise); ``upper`` the sampled strong-slope maximum.
    ``tol`` absorbs the O(radius · curvature) gap of the finite-radius
    quotients.
    """

    lower: float
    upper: float
    radii: tuple
    samples_per_radius: int
    tol: float

    def bracket_ok(self) -> bool:
        return 0.0 <= self.lower <= self.upper + self.tol


@dataclass(frozen=True)
class QEstimate:
    """Sampled second-difference quotient maximum at the finest δ."""

    value: float
    probe_count: int
    t_min: float
    schedule: tuple = field(default=())   # ((delta, value), ...) logged


def unit_directions(space, n, seed):
    """The rows of n quasi-random directions of unit X-norm, deterministic
    given seed: an (n', N) block, n' ≤ n (a zero direction is dropped)."""
    # imported here, its only use: scipy.stats is most of the import time
    # of symvar, and runs that never sample slopes do not need it
    from scipy.stats import norm as _gauss, qmc

    eng = qmc.Sobol(d=space.n_cells, scramble=True, seed=seed)
    raw = eng.random_base2(max(1, math.ceil(math.log2(max(2, n)))))[:n]
    # map to gaussian directions; clip away the cube corners
    z = _gauss.ppf(np.clip(raw, 1e-12, 1 - 1e-12))
    nz = _norm_X_raw(z, space.dimension, space.n, space.spacing,
                     space.cell_measure, space.p)
    keep = nz > 0
    return z[keep] * (1.0 / nz[keep])[:, None]


def strong_slope(f: Functional, u: GridFunction, radii=(1e-3, 1e-4, 1e-5),
                 n_samples=64, seed=0) -> SlopeEstimate:
    """Sample max(0, (f(u)−f(ξ))/‖u−ξ‖_X) at the given probe radii.

    Zero at (sampled) local minima.  When f declares its gradient and the
    grid has p = 2, the ±directions of its Riesz solve are added to the
    probe set (the estimate stays a one-sided underestimate of the strong
    slope) and the solve's X-norm is the lower bracket end.  Each radius
    scores its probes as one block.
    """
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii) or any(a <= b for a, b in zip(radii, radii[1:])):
        raise InvalidArgument("radii must be positive and strictly decreasing")
    fu = f(u)
    if math.isinf(fu):
        raise OutsideDomain("f(u) is not finite")

    dirs = unit_directions(u.space, n_samples, seed)
    lower = 0.0
    if f.gradient is not None and u.space.p == 2.0:
        g = _riesz_gradient(f, u.space, u.values)
        lower = norm_X(GridFunction(u.space, g))
        if lower > 0:
            gdir = g * (1.0 / lower)
            dirs = np.vstack([dirs, gdir, -gdir])

    upper = 0.0
    for r in radii:
        fx = f._eval_rows(u.space, u.values + dirs * r)
        q = np.append((fu - fx[~np.isinf(fx)]) / r, 0.0)
        # the first maximum, as a running max over the probes keeps it
        upper = max(upper, float(q[np.argmax(q)]))
    tol = 1e-5 * (1.0 + lower)
    return SlopeEstimate(lower=lower, upper=upper, radii=radii,
                         samples_per_radius=len(dirs), tol=tol)


def q_form(f: Functional, u: GridFunction, w: GridFunction, delta=1e-4,
           n_samples=32, seed=0) -> QEstimate:
    """Estimate Q_u(w) = limsup (f(z+tζ)+f(z−tζ)−2f(z))/t² near (u, w, 0).

    Probes couple ‖z−u‖_X ≤ δ, ‖ζ−w‖_X ≤ δ and 0 < t ≤ δ through one δ per
    schedule level; the schedule (100δ, 10δ, δ) is logged and the finest
    level's sampled maximum is the reported value.  Probes where f is
    infinite are skipped; if every probe is infinite the point is outside
    the domain.  Each level scores its probes as one block.
    """
    if delta <= 0:
        raise InvalidArgument("delta must be positive")
    space = u.space
    dirs = unit_directions(space, n_samples, seed)
    # the (z, ζ) direction pairs: (0, 0), then each direction with the next
    zero = np.zeros((1, space.n_cells))
    dz = np.vstack([zero, dirs])[:, None]
    dzeta = np.vstack([zero, np.roll(dirs, -1, axis=0)])[:, None]

    probe_count = 0
    t_min = math.inf
    log = []
    for dl in (100.0 * delta, 10.0 * delta, delta):
        combos = ((0.0, 0.0, dl), (0.0, 0.0, dl / 2), (dl, dl, dl),
                  (dl, 0.0, dl), (0.0, dl, dl), (dl / 2, dl / 2, dl / 2))
        rz, rzeta, t = (np.array(c)[:, None] for c in zip(*combos))
        z = u.values + dz * rz
        zeta = w.values + dzeta * rzeta
        fz, fp, fm = (f._eval_rows(space, x.reshape(-1, space.n_cells))
                      for x in (z, z + zeta * t, z - zeta * t))
        probe_count += len(fz)
        ok = ~(np.isinf(fz) | np.isinf(fp) | np.isinf(fm))
        # t ** 2 as the scalar power of each t
        ts = np.tile(t[:, 0], len(dz))[ok]
        t2 = np.tile([c[2] ** 2 for c in combos], len(dz))[ok]
        q = np.append((fp[ok] + fm[ok] - 2.0 * fz[ok]) / t2, -math.inf)
        t_min = float(ts.min(initial=t_min))
        log.append((dl, float(q[np.argmax(q)])))
    if not math.isfinite(log[-1][1]):
        raise OutsideDomain("all second-difference probes hit +inf")
    return QEstimate(value=log[-1][1], probe_count=probe_count,
                     t_min=t_min, schedule=tuple(log))
