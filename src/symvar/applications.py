"""Application experiments: quasi-linear and semi-linear energies with
almost-symmetric almost-critical outputs, symmetric fixed points, and the
drop / flower-petal geometry.

The PDE discretizations share the funcspace edge convention: gradients are
forward differences with zero extension, augmented by ghost quadrature
nodes on the low side of each grid line so that the Dirichlet part of the
energy equals the gradient part of the X-norm exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._descent import _FD_STEP, _BandHessian
from .errors import (AssumptionViolated, IntegrandError, InvalidArgument,
                     InvalidEpsilon, NotBoundedBelow, NotSymmetricInput,
                     SeparationViolated)
from .funcspace import (Functional, GridFunction, GridSpace, gram_matrix,
                        laplacian_matrix, norm_V, riesz_from_euclidean,
                        theta)
from .principles import (CallableMetric, Certificate, SetOracle, VMetric,
                         XMetric, _check_n_samples, _polarized_draws,
                         estimate_inf, sqps_sequence, symmetric_ekeland,
                         whole_space)
from .rearrange import is_family_fixed, polarize, schwarz

__all__ = [
    "QuasilinearIntegrand", "dirichlet_integrand", "forced_dirichlet_integrand",
    "quasilinear_energy", "quasilinear_residual", "quasilinear_residual_vector",
    "quasilinear_functional", "dual_norm", "quasilinear_experiment",
    "SemilinearNonlinearity", "semilinear_functional", "semilinear_experiment",
    "lower_derivative",
    "caristi_fixed_point", "clarke_fixed_point",
    "Ball", "Drop", "Petal", "drop_membership", "petal_membership",
    "petal_inclusions", "symmetric_drop_point", "symmetric_petal_point",
]


# ``validate`` of integrands and nonlinearities: _VALIDATE_N uniform samples
# of s in _VALIDATE_S (and t in _VALIDATE_T), checked to _VALIDATE_TOL
_VALIDATE_S = (-3.0, 3.0)
_VALIDATE_T = (0.0, 5.0)
_VALIDATE_N = 400
_VALIDATE_TOL = 1e-9


# ---------------------------------------------------------------------------
# quasi-linear integrands f(u) = ∫ L(u, |Du|)

@dataclass
class QuasilinearIntegrand:
    """C¹ integrand L(s, t), t = |ξ| ≥ 0, with partial-derivative oracles.

    ``L``, ``L_s``, ``L_xi`` and the growth envelopes are elementwise on
    numpy arrays and are called on whole grids and sample arrays; a constant
    result such as ``lambda s, t: -c`` is broadcast to the arguments' shape.

    ``growth`` optionally carries (a, b, alpha, beta, gamma) for the
    envelope checks |L| ≤ α(|s|)t^p + b t^p + a, |L_s| ≤ β(|s|)t^p,
    |L_t| ≤ γ(|s|)t^{p-1} + b t^{p-1} + a.  ``nonneg`` declares pointwise
    L ≥ 0; instances that trade it for a finite lower bound (e.g. linear
    forcing) set it False and declare ``lower_bound``.
    """

    L: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L_s: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L_xi: Callable[[np.ndarray, np.ndarray], np.ndarray]     # ∂L/∂t
    growth: Optional[dict] = None
    nonneg: bool = True
    lower_bound: Optional[float] = None
    odd_dominated: bool = True                # L(-s, t) ≤ L(s, t) for s ≤ 0
    name: str = ""

    def validate(self, seed=0):
        tol = _VALIDATE_TOL
        rng = np.random.default_rng(seed)
        s = rng.uniform(*_VALIDATE_S, _VALIDATE_N)
        t = rng.uniform(*_VALIDATE_T, _VALIDATE_N)
        val = _each(self.L, s, t)
        checks = [(~np.isfinite(val), lambda i: IntegrandError(
            f"L({s[i]}, {t[i]}) is not finite"))]
        if self.nonneg:
            checks.append((val < -tol, lambda i: AssumptionViolated(
                f"L({s[i]:.3g}, {t[i]:.3g}) = {val[i]:.3e} < 0")))
        if self.odd_dominated:
            checks.append((
                (s <= 0) & (_each(self.L, -s, t) > val + tol * (1 + abs(val))),
                lambda i: AssumptionViolated(
                    f"L(-s,t) ≤ L(s,t) fails at s={s[i]:.3g}, t={t[i]:.3g}")))
        if self.growth is not None:
            g, p = self.growth, self.growth.get("p", 2.0)
            env = _each(g["alpha"], abs(s)) * t ** p + g["b"] * t ** p + g["a"]
            env1 = (_each(g["gamma"], abs(s)) * t ** (p - 1)
                    + g["b"] * t ** (p - 1) + g["a"])
            checks += [
                (abs(val) > env + tol * (1 + env),
                 lambda i: AssumptionViolated("growth bound on L fails")),
                (abs(_each(self.L_s, s, t))
                 > _each(g["beta"], abs(s)) * t ** p + tol,
                 lambda i: AssumptionViolated("growth bound on L_s fails")),
                (abs(_each(self.L_xi, s, t)) > env1 + tol * (1 + env1),
                 lambda i: AssumptionViolated("growth bound on L_xi fails"))]
        _raise_first(checks)
        return True


def _each(fn, *args):
    """``fn(*args)``, a constant result broadcast to the arguments' shape."""
    out = np.asarray(fn(*args), float)
    return out if out.ndim else np.full(np.broadcast(*args).shape, out)


def _raise_first(checks):
    """Raise ``error(i)`` for the first failing sample i of (mask, error)."""
    hits = [(np.flatnonzero(bad)[0], k) for k, (bad, _) in enumerate(checks)
            if bad.any()]
    if hits:
        i, k = min(hits)
        raise checks[k][1](i)


def dirichlet_integrand() -> QuasilinearIntegrand:
    """L(s, t) = t²/2, the Dirichlet energy."""
    return QuasilinearIntegrand(
        L=lambda s, t: 0.5 * t * t,
        L_s=lambda s, t: 0.0,
        L_xi=lambda s, t: t,
        growth={"a": 0.0, "b": 1.0, "p": 2.0, "alpha": lambda s: 0.0,
                "beta": lambda s: 0.0, "gamma": lambda s: 0.0},
        nonneg=True, lower_bound=0.0, name="dirichlet")


def forced_dirichlet_integrand(c: float) -> QuasilinearIntegrand:
    """L(s, t) = t²/2 − c·s: Dirichlet energy with linear forcing.

    Not pointwise nonnegative; the energy remains bounded below on the grid
    and L(−s, t) ≤ L(s, t) for s ≤ 0 (c > 0), which is what the symmetric
    principle needs."""
    if c <= 0:
        raise InvalidArgument("forcing constant must be positive")
    return QuasilinearIntegrand(
        L=lambda s, t: 0.5 * t * t - c * s,
        L_s=lambda s, t: -c,
        L_xi=lambda s, t: t,
        nonneg=False, lower_bound=None, name=f"forced_dirichlet(c={c})")


def _gradient_fields(space: GridSpace, values):
    """Forward-difference gradient components at cells plus the ghost-node
    magnitudes (zero-extended low-boundary edges), per axis: an array
    (d, N) of the d components and the (d·n^(d−1),) ghosts.  A block
    (k, N) of rows gives them with the row axis last: (d, N, k) and
    (d·n^(d−1), k).  All axes are differenced in one pass over a
    grid-shaped view of the values, in their own layout."""
    h, d = space.spacing, space.dimension
    rows = values.shape[:-1]
    v = values.reshape(rows + (space.n,) * d)
    # each cell's forward neighbour along each axis, zero past the edge
    nxt, low = np.empty((d,) + v.shape), []
    for axis in range(d):
        tail = (slice(None),) * (d - 1 - axis)
        nxt[(axis, ..., slice(None, -1)) + tail] = v[(..., slice(1, None))
                                                     + tail]
        nxt[(axis, ..., slice(-1, None)) + tail] = 0.0
        low.append(v[(..., 0) + tail].reshape(rows + (-1,)))
    nxt -= v
    nxt /= h
    return (nxt.reshape((d,) + rows + (-1,)).swapaxes(1, -1),
            (np.concatenate(low, axis=-1) / h).T)


def _hessian_keys(space: GridSpace):
    """Where :func:`_quasilinear_hessian` adds its terms, as flat indices
    into the grid's band storage (2w+1, N) of ``GridSpace._bands`` plus one
    last slot that takes the terms of the zero past the high edges: for
    each cell c, the (d+1)² pairs of its stencil (c, nb_1(c), …, nb_d(c)),
    nb_k(c) the cell that _gradient_fields differences c against along
    axis k (N past the edge); then the diagonal entry of the cell of each
    ghost node, in the ghosts' order."""
    N = space.n_cells
    w = (len(space._bands[0]) - 1) // 2
    cell = np.arange(N).reshape((space.n,) * space.dimension)
    cols, owners = [np.arange(N)], []
    for axis in range(space.dimension):
        lo = (slice(None),) * axis
        nb = np.full_like(cell, N)
        nb[lo + (slice(None, -1),)] = cell[lo + (slice(1, None),)]
        cols.append(nb.reshape(-1))
        owners.append(cell[lo + (0,)].reshape(-1))
    cols = np.stack(cols, axis=1)
    i, j = cols[:, :, None], cols[:, None, :]
    pairs = np.where((i < N) & (j < N), (w + i - j) * N + j, (2 * w + 1) * N)
    return np.concatenate((pairs.ravel(), w * N + np.concatenate(owners)))


def quasilinear_energy(I: QuasilinearIntegrand, u: GridFunction) -> float:
    """Midpoint quadrature of L over cells (values + forward-difference
    gradient magnitudes) plus the ghost-node terms L(0, |u_boundary|/h)."""
    return float(_quasilinear_energy_rows(I, u.space, u.values))


def _quasilinear_energy_rows(I: QuasilinearIntegrand, space: GridSpace,
                             values):
    """The energy of one vector (N,) or of each row of a block (k, N).  The
    fields carry the row axis last and the running sum runs down the cell
    axis, so each row is bit-equal to its call; a non-finite L raises
    IntegrandError for the first such row, at its first such cell."""
    s = values.T
    comps, ghost = _gradient_fields(space, values)
    t = np.sqrt(sum(c * c for c in comps))
    val = _each(I.L, s, t)
    bad = ~np.isfinite(val)
    if bad.any():
        cols = bad.reshape(len(bad), -1)
        r = np.flatnonzero(cols.any(axis=0))[0]
        c = np.flatnonzero(cols[:, r])[0]
        raise IntegrandError(f"L({s.reshape(cols.shape)[c, r]}, "
                             f"{t.reshape(cols.shape)[c, r]}) not finite")
    # a running sum from 0.0, cells then ghosts (np.sum would add pairwise)
    terms = np.concatenate((np.zeros((1,) + val.shape[1:]), val,
                            _each(I.L, 0.0, abs(ghost))))
    return np.cumsum(terms, axis=0)[-1] * space.cell_measure


def quasilinear_residual_vector(I: QuasilinearIntegrand, u: GridFunction):
    """Euclidean representation r of the first variation: dE(u)[v] = r·v."""
    return _quasilinear_residual_rows(I, u.space, u.values)


def _quasilinear_residual_rows(I: QuasilinearIntegrand, space: GridSpace,
                               values):
    """The residual vector of one vector (N,) or of each row of a block
    (k, N); elementwise throughout, so each row is bit-equal to its call."""
    h, m, d = space.spacing, space.cell_measure, space.dimension
    s = values.T
    comps, ghost = _gradient_fields(space, values)
    t = np.sqrt(sum(c * c for c in comps))
    # W = L_t(s, t)/t, the radial weight; L_t(s, 0) must vanish
    lt, moving = _each(I.L_xi, s, t), t > 0
    if (~moving & (abs(lt) > 1e-13)).any():
        raise IntegrandError("L_xi(s, 0) must vanish for the radial "
                             "quadrature (gradient kink at 0)")
    W = np.divide(lt, t, out=np.zeros_like(t), where=moving)
    r = _each(I.L_s, s, t) * m
    # flux on each cell-owned forward edge, all axes at once; the
    # divergence is −F at the cell plus F of its backward neighbour
    shape = (space.n,) * d + values.shape[:-1]
    F = (W * comps / h).reshape((d,) + shape)
    out = -F
    for axis in range(d):
        lo = (axis,) + (slice(None),) * axis
        out[lo + (slice(1, None),)] += F[lo + (slice(None, -1),)]
    for div in out.reshape(comps.shape):
        r += m * div
    flux = _each(I.L_xi, 0.0, abs(ghost)) * np.sign(ghost)
    if d == 1:
        r[0] += m * flux[0] / h
    else:
        radd = np.zeros(shape)
        radd[0, :] += flux[:space.n] / h    # x ghosts: cells (0, k)
        radd[:, 0] += flux[space.n:] / h    # y ghosts: cells (k, 0)
        r += m * radd.reshape(r.shape)
    return r.T


def _quasilinear_hessian(I: QuasilinearIntegrand, space: GridSpace, values,
                         keys):
    """The Euclidean Hessian of the energy at one vector (N,) as a band
    (``_descent._BandHessian``): the terms of
    :func:`_quasilinear_hessian_terms` added up at the ``keys`` of
    :func:`_hessian_keys`, in their order."""
    rows, N = len(space._bands[0]), len(values)
    H = np.bincount(keys, _quasilinear_hessian_terms(I, space, values),
                    minlength=rows * N + 1)
    return _BandHessian(H[:-1].reshape(rows, N))


def _quasilinear_hessian_terms(I: QuasilinearIntegrand, space: GridSpace,
                               values):
    """The terms of the Euclidean Hessian of the energy at one vector (N,),
    one for each key of :func:`_hessian_keys`.  Per cell, the Hessian Φ of
    φ(s, ξ) = L(s, |ξ|) in (s, ξ_1, …, ξ_d),

        Φ_ss = L_ss,  Φ_sξ = L_st·ξ/t,
        Φ_ξξ = (L_t/t)·I + (L_tt − L_t/t)·ξξᵀ/t²   (L_tt·I at t = 0),

    is mapped onto the cell and its forward neighbours, and each ghost node
    adds L_tt(0, |γ|)/h² on its cell.  The second derivatives are central
    differences of the L_s and L_xi oracles with step _FD_STEP·(1 + the
    largest |argument|); L_xi extends oddly in t, so the oracles are only
    called at t ≥ 0."""
    h, m, d = space.spacing, space.cell_measure, space.dimension
    N = len(values)
    comps, ghost = _gradient_fields(space, values)
    t = np.sqrt(sum(c * c for c in comps))
    hs = _FD_STEP * (1.0 + float(np.max(np.abs(values))))
    ht = _FD_STEP * (1.0 + float(max(np.max(t), np.max(np.abs(ghost)))))

    def L_tt(s, t):
        def odd(tau):
            return np.sign(tau) * _each(I.L_xi, s, abs(tau))
        return (odd(t + ht) - odd(t - ht)) / (2.0 * ht)

    s = values
    Ltt = L_tt(s, t)
    moving = t > 0
    W = np.divide(_each(I.L_xi, s, t), t, out=Ltt.copy(), where=moving)
    U = np.divide(comps, t, out=np.zeros_like(comps), where=moving).T
    Lss = (_each(I.L_s, s + hs, t) - _each(I.L_s, s - hs, t)) / (2.0 * hs)
    Lst = (_each(I.L_xi, s + hs, t) - _each(I.L_xi, s - hs, t)) / (2.0 * hs)
    Phi = np.empty((N, d + 1, d + 1))
    Phi[:, 0, 0] = Lss
    Phi[:, 0, 1:] = Phi[:, 1:, 0] = Lst[:, None] * U
    Phi[:, 1:, 1:] = (W[:, None, None] * np.eye(d) + (Ltt - W)[:, None, None]
                      * U[:, :, None] * U[:, None, :])
    # (s, ξ_k) = (u_c, (u_nb_k − u_c)/h): Φ pulled back to the stencil
    T = np.eye(d + 1) / h
    T[0, 0], T[1:, 0] = 1.0, -1.0 / h
    local = T.T @ Phi @ T
    return m * np.concatenate((local.ravel(),
                               L_tt(0.0, abs(ghost)) / (h * h)))


def quasilinear_residual(I: QuasilinearIntegrand, u: GridFunction,
                         v: GridFunction) -> float:
    """Directional derivative pairing ∫L_ξ·Dv + ∫L_s·v at u in direction v.

    On a finite grid every test direction is admissible (the bounded-test
    restriction of the continuum collapses: grid functions are bounded)."""
    r = quasilinear_residual_vector(I, u)
    return float(r @ v.values)


def quasilinear_functional(I: QuasilinearIntegrand,
                           space: GridSpace) -> Functional:
    """Wrap the discretized energy as a Functional with its Euclidean
    gradient (the residual vector, on rows) and its Euclidean Hessian."""
    @functools.cache
    def keys():
        # built on the first Hessian, not with the functional
        return _hessian_keys(space)

    def grad(W):
        return _quasilinear_residual_rows(I, space, W)

    def hess(u):
        return _quasilinear_hessian(I, space, u, keys())

    return Functional(eval=lambda u: quasilinear_energy(I, u),
                      eval_batch=lambda W: _quasilinear_energy_rows(I, space, W),
                      gradient=grad, hessian=hess,
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=I.lower_bound, name=I.name or "quasilinear")


def dual_norm(space: GridSpace, r_euclid, *, method="solve", seed=0):
    """Discrete dual norm sup {r·v : ‖v‖_X ≤ 1}.

    ``solve`` (p = 2): Riesz solve against the X-Gram matrix.
    ``ascent``: projected gradient ascent on q(v) = r·v/‖v‖_X from r and
    three random starts; independent of the solve route."""
    r = np.asarray(r_euclid, float)
    if method == "solve":
        if space.p != 2.0:
            raise AssumptionViolated("the solve route needs p = 2")
        rep = riesz_from_euclidean(space, r)
        return float(math.sqrt(max(0.0, r @ rep)))
    if method != "ascent":
        raise InvalidArgument(f"unknown dual-norm method {method!r}")

    nx = XMetric(space).norm

    def q(v):
        nv = nx(v)
        return (r @ v) / nv if nv > 0 else 0.0

    def grad_q(v):
        nv = nx(v)
        if space.p == 2.0:
            gnorm = gram_matrix(space) @ v / nv
        else:
            # central differences along each coordinate, as one block
            hstep = 1e-7 * (1.0 + float(np.max(np.abs(v))))
            E = hstep * np.eye(len(v))
            gnorm = (nx(v + E) - nx(v - E)) / (2 * hstep)
        return r / nv - (r @ v) / nv ** 2 * gnorm

    rng = np.random.default_rng(seed)
    best = 0.0
    starts = [r] + [rng.standard_normal(len(r)) for _ in range(3)]
    for v in starts:
        v = np.array(v, float)
        if nx(v) == 0:
            continue
        v /= nx(v)
        step = 1.0
        qv = q(v)
        for _ in range(4000):
            g = grad_q(v)
            gn = float(np.linalg.norm(g))
            if gn < 1e-14 * (1.0 + abs(qv)):
                break
            while step > 1e-16:
                vn = v + step * g
                qn = q(vn)
                if qn > qv + 1e-16:
                    v, qv = vn / nx(vn), q(vn)
                    step *= 1.3
                    break
                step *= 0.5
            else:
                break
        best = max(best, qv)
    return best


def quasilinear_experiment(I: QuasilinearIntegrand, space: GridSpace, eps, *,
                           seed=0, n_samples=2000,
                           u0: GridFunction = None) -> Certificate:
    """Almost-symmetric almost-critical point of the quasi-linear energy.

    Runs the symmetric principle (dominating-point form) with σ = ρ = ε and
    augments the certificate with the Euler-Lagrange residual's dual norm,
    computed twice (Riesz solve and independent ascent)."""
    _check_n_samples(n_samples)
    I.validate(seed=seed)
    f = quasilinear_functional(I, space)
    if u0 is None:
        _, _, argmin = estimate_inf(f, space, whole_space(space),
                                    np.random.default_rng(seed + 1))
        u0 = theta(GridFunction(space, argmin))
    cert = symmetric_ekeland(f, space, u0, eps, eps, variant="II",
                             seed=seed, n_samples=n_samples)
    u_eps = cert.v
    r = quasilinear_residual_vector(I, u_eps)
    if space.p == 2.0:
        dn_solve = dual_norm(space, r, method="solve")
        dn_ascent = dual_norm(space, r, method="ascent", seed=seed + 2)
        cert.extras["dual_norm_solve"] = dn_solve
        cert.extras["dual_norm_ascent"] = dn_ascent
        dn = dn_solve
    else:
        dn = dual_norm(space, r, method="ascent", seed=seed + 2)
        cert.extras["dual_norm_ascent"] = dn
    cert.add_measured("‖w_ε‖_dual", dn, eps)
    cert.add_measured("‖u_ε-u_ε*‖_V", norm_V(u_eps - schwarz(u_eps)), eps)
    return cert.seal()


# ---------------------------------------------------------------------------
# lower derivative estimator

def lower_derivative(g: Callable[[np.ndarray], np.ndarray], s, delta: float,
                     n: int = 256, *, return_log=False):
    """Estimate the lower derivative: liminf over rational (t, τ) → 0 of
    (g(s+t) − g(s+τ))/(t − τ).

    Samples the first n dyadic-rational pairs t = ±δ/2^i, τ = ±δ/2^j
    (t ≠ τ, i, j < 11) on the fixed schedule δ, δ/10, δ/100; the finest
    level's minimum is returned and the schedule is logged.  ``g`` is
    elementwise on numpy arrays (a constant result is broadcast); an array
    ``s`` gives one estimate per point, a scalar ``s`` a float."""
    if delta <= 0:
        raise InvalidArgument("delta must be positive")
    pairs = [(si / 2 ** i, sj / 2 ** j) for i in range(11) for j in range(11)
             for si in (1.0, -1.0) for sj in (1.0, -1.0)
             if (i, si) != (j, sj)][:max(n, 0)]
    unit_t, unit_tau = np.reshape(pairs, (-1, 2)).T
    s = np.asarray(s, float)[..., None]
    log = []
    for lev in (1.0, 0.1, 0.01):
        d = delta * lev
        t, tau = d * unit_t, d * unit_tau       # exact: ±2^-i scales
        q = (_each(g, s + t) - _each(g, s + tau)) / (t - tau)
        best = np.fmin.reduce(q, axis=-1, initial=math.inf)    # NaN skipped
        log.append((d, best if best.ndim else float(best)))
    return (log[-1][1], log) if return_log else log[-1][1]


# ---------------------------------------------------------------------------
# semi-linear experiment

@dataclass
class SemilinearNonlinearity:
    """Continuous odd nonlinearity g with antiderivative G and growth data
    |g(s)| ≤ a1 + b|s|^{p−1}, 2 < p ≤ 6, plus the one-sided monotonicity
    (g(s)−g(t))(s−t) ≥ −(a2 + b|s|^{p−2} + b|t|^{p−2})(s−t)².  ``g`` and
    ``G`` are elementwise on numpy arrays and are called on whole grids and
    sample arrays; a constant result (``lambda s: 0.0``) is broadcast."""

    g: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    a1: float
    a2: float
    b: float
    p: float
    name: str = ""

    def validate(self, seed=0):
        tol, n = _VALIDATE_TOL, _VALIDATE_N
        if not (2.0 < self.p <= 6.0):
            raise AssumptionViolated(f"growth exponent p = {self.p} outside (2, 6]")
        ss = np.random.default_rng(seed).uniform(*_VALIDATE_S, n)
        gs = _each(self.g, ss)
        _raise_first([
            (abs(_each(self.g, -ss) + gs) > tol * (1 + abs(gs)),
             lambda i: AssumptionViolated(f"g is not odd at s = {ss[i]:.3g}")),
            (abs(gs) > self.a1 + self.b * abs(ss) ** (self.p - 1) + tol,
             lambda i: AssumptionViolated(
                 f"growth bound fails at s = {ss[i]:.3g}"))])
        k = n // 2                      # pairs (ss[i], ss[k + i]), i < k
        s, t, gst = ss[:k], ss[k:2 * k], gs[:k] - gs[k:2 * k]
        rhs = -(self.a2 + self.b * abs(s) ** (self.p - 2)
                + self.b * abs(t) ** (self.p - 2)) * (s - t) ** 2
        if np.any(gst * (s - t) < rhs - tol * (1 + abs(rhs))):
            raise AssumptionViolated("one-sided monotonicity fails")
        return True


def semilinear_functional(N: SemilinearNonlinearity, space: GridSpace,
                          box: SetOracle = None) -> Functional:
    """f(u) = ½∫|Du|² − ∫G(u) on the grid (+∞ outside the box, if given)."""
    A, m = laplacian_matrix(space), space.cell_measure

    def ev(u):
        return float(ev_rows(u.values[None])[0])

    def ev_rows(W):
        if box is None:
            return energy_rows(W)
        inside = box.contains_rows(W)
        vals = np.full(len(W), math.inf)
        vals[inside] = energy_rows(W[inside])
        return vals

    def energy_rows(W):
        # per row the gemv and ddot of one vector's u @ A @ u (a stacked
        # (1, N) @ (N, N) is a gemv and a stacked (1, N) @ (N, 1) a ddot),
        # and for ∫G(u) a running sum from 0 along the row (a pairwise sum
        # would move the last bit), so each row is bit-equal to its call
        quad = 0.5 * np.matmul(np.matmul(W[:, None, :], A),
                               W[:, :, None])[:, 0, 0]
        terms = np.concatenate((np.zeros((len(W), 1)), _each(N.G, W)), axis=1)
        return quad - m * np.cumsum(terms, axis=1)[:, -1]

    def grad(W):
        return _euler_lagrange_rows(N, space, W)

    def hess(u):
        # A − m·diag(g′(u)), g′ by the central difference that _fd_hessian
        # takes of grad, with its step
        h = _FD_STEP * (1.0 + float(np.max(np.abs(u))))
        dg = (_each(N.g, u + h) - _each(N.g, u - h)) / (2.0 * h)
        return _BandHessian(space._bands[0]) + _BandHessian(-(m * dg)[None])

    return Functional(eval=ev, eval_batch=ev_rows,
                      gradient=grad, hessian=hess,
                      symmetry_class="polarization-nonincreasing",
                      name=N.name or "semilinear")


def euler_lagrange_residual(N: SemilinearNonlinearity, u: GridFunction):
    """ψ = −Δu − g(u) as a Euclidean functional: ⟨ψ, φ⟩ = ψ_vec·φ."""
    return _euler_lagrange_rows(N, u.space, u.values)


def _euler_lagrange_rows(N: SemilinearNonlinearity, space: GridSpace, values):
    """ψ of one vector (N,) or of each row of a block (k, N); a stacked
    mat-vec keeps each row bit-equal to its call."""
    Au = np.matmul(laplacian_matrix(space), values[..., None])[..., 0]
    return Au - space.cell_measure * _each(N.g, values)


def h_minus1_norm(space: GridSpace, psi_euclid) -> float:
    """Dual norm of the gradient (H¹₀) seminorm, via the Dirichlet
    Laplacian solve."""
    A = laplacian_matrix(space)
    sol = np.linalg.solve(A, np.asarray(psi_euclid, float))
    return float(math.sqrt(max(0.0, psi_euclid @ sol)))


def semilinear_experiment(N: SemilinearNonlinearity, space: GridSpace,
                          eps_schedule, *, box=None, seed=0, n_samples=2000,
                          minimizing_sequence=None, q_probes=48,
                          second_order_samples=64):
    """Full experiment: minimizing sequence with vanishing H⁻¹ residual,
    vanishing symmetry defect, and the sampled second-order form
    ∫|Dw|² − ∫D̲g(u_h)w² bounded below.

    Returns the per-ε certificates with the residual reports in extras.
    Needs f bounded below (probe-checked); pass a box oracle for
    superquadratic nonlinearities and the box is recorded."""
    _check_n_samples(n_samples)
    N.validate(seed=seed)
    dom = box if box is not None else whole_space(space)
    f = semilinear_functional(N, space, box=box)

    # boundedness probes: local descent plus escape rays t·w (superquadratic
    # nonlinearities sink along rays; a box oracle turns those to +inf)
    probe_inf, _, _ = estimate_inf(f, space, dom, np.random.default_rng(seed))
    rng0 = np.random.default_rng(seed + 5)
    rays = [np.ones(space.n_cells), np.abs(rng0.standard_normal(space.n_cells))]
    floor = -1e6 * (1.0 + abs(f(space.zeros())))
    vals = f._eval_rows(space, np.array([t * w for w in rays for t in (
        1.0, 4.0, 16.0, 64.0, 256.0)]))
    probe_inf = min([probe_inf, *vals[np.isfinite(vals)].tolist()])
    if not math.isfinite(probe_inf) or probe_inf < floor:
        raise NotBoundedBelow("energy probe diverged along rays; supply a "
                              "box oracle")

    out = sqps_sequence(f, space, eps_schedule, domain=dom,
                        minimizing_sequence=minimizing_sequence, seed=seed,
                        n_samples=n_samples, q_probes=q_probes)
    rng = np.random.default_rng(seed + 17)
    A = laplacian_matrix(space)
    m = space.cell_measure
    metric = XMetric(space)
    certs = []
    for (cert, qrep), eps_h in zip(out, eps_schedule):
        u_h = cert.v
        psi = euler_lagrange_residual(N, u_h)
        cert.extras["psi_Hminus1"] = h_minus1_norm(space, psi)
        dg = lower_derivative(N.g, u_h.values, 1e-4)
        # w·Aw − m·D̲g(u_h)·w² at X-unit w: per row the gemv and ddot of
        # one vector's w @ A @ w and its ddot dg @ w², first minimum
        W = rng.standard_normal((second_order_samples, space.n_cells))
        nw = metric.norm(W)
        W = W[nw != 0] / nw[nw != 0, None]
        vals = (np.matmul(np.matmul(W[:, None], A), W[:, :, None])
                - m * np.matmul(dg[None, None], (W * W)[:, :, None]))[:, 0, 0]
        vals = np.append(np.where(np.isnan(vals), math.inf, vals), math.inf)
        cert.extras["second_order_min"] = float(vals[np.argmin(vals)])
        cert.extras["second_order_bound"] = -2.0 * eps_h - 1e-6
        cert.extras["box"] = None if box is None else box.description
        certs.append(cert)
    return certs


# ---------------------------------------------------------------------------
# fixed points

def caristi_fixed_point(F, f: Functional, eps, space: GridSpace, *, seed=0,
                        n_samples=2000, return_certificate=False):
    """Almost-fixed point of a map satisfying the descent condition
    ‖F(u)−u‖ ≤ f(u) − f(F(u)).

    Runs the symmetric principle with σ = ρ = ε; the returned residual
    ‖F(ξ)−ξ‖_X obeys residual ≤ slack/(1−ε) where slack is the verified
    inequality deficit at w = F(ξ)."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must lie in (0, 1), got {eps}")
    _check_n_samples(n_samples)
    rng = np.random.default_rng(seed)
    metric = XMetric(space)

    def caristi_gap(u):
        Fu = F(u)
        return metric.dist(Fu.values, u.values) - (f(u) - f(Fu))

    for _ in range(16):
        u = GridFunction(space, rng.standard_normal(space.n_cells))
        if caristi_gap(u) > 1e-9 * (1.0 + abs(f(u))):
            raise AssumptionViolated("Caristi condition fails on a probe",
                                     witness=u)

    _, _, argmin = estimate_inf(f, space, whole_space(space),
                                np.random.default_rng(seed + 1))
    u0 = theta(GridFunction(space, argmin))
    cert = symmetric_ekeland(f, space, u0, eps, eps, variant="II", seed=seed,
                             n_samples=n_samples)
    xi = cert.v
    Fxi = F(xi)
    gap = caristi_gap(xi)
    if gap > 1e-9 * (1.0 + abs(f(xi))):
        raise AssumptionViolated("Caristi condition fails at the output",
                                 witness=xi)
    step = metric.dist(Fxi.values, xi.values)
    slack = max(0.0, f(xi) - eps * step - f(Fxi))
    residual = step
    bound = slack / (1.0 - eps)
    cert.extras["caristi"] = {"residual": residual, "slack": slack,
                              "bound": bound, "eps": eps}
    cert.add_measured("‖F(ξ)-ξ‖", residual, bound + 1e-12)
    cert.seal()
    if return_certificate:
        return xi, residual, cert
    return xi, residual


# segment parameters t of u + t(F(u) − u) tried for directional contraction
_CLARKE_T = (1.0, 0.5, 0.25, 0.125, 0.0625)


def clarke_fixed_point(F, sigma_contraction, eps, space: GridSpace, *,
                       seed=0, n_samples=2000, return_certificate=False):
    """Almost-fixed point of a directionally contractive map, minimizing
    f(u) = ‖u − F(u)‖_V through the symmetric principle in the V metric.

    Residual bound: ‖ξ−F(ξ)‖_V ≤ slack/(1−σ−ε) with slack the t-normalized
    inequality deficit at the witness segment point."""
    sig = float(sigma_contraction)
    if not 0.0 < eps < 1.0 - sig:
        raise InvalidEpsilon(f"eps must lie in (0, 1-sigma) = (0, {1 - sig})")
    _check_n_samples(n_samples)
    metric = VMetric(space)
    U, Hs = _polarized_draws(space, seed, 12)
    for row, H in zip(U, Hs):
        u = GridFunction(space, row)
        Fu = F(u)
        if np.any(Fu.values < -1e-12):
            raise AssumptionViolated("F(S) ⊄ S on a probe", witness=u)
        if np.max(np.abs(F(polarize(u, H)).values
                         - polarize(Fu, H).values)) > 1e-9:
            raise AssumptionViolated("equivariance F(u^H) = F(u)^H fails",
                                     witness=u)
        base = metric.dist(Fu.values, u.values)
        ok = any(metric.dist(F(GridFunction(space, t * Fu.values + (1 - t) * u.values)).values,
                             Fu.values) <= sig * t * base + 1e-9 * (1 + base)
                 for t in _CLARKE_T)
        if not ok:
            raise AssumptionViolated("directional contraction fails on a "
                                     "probe", witness=u)

    f = Functional(eval=lambda u: metric.dist(u.values, F(u).values),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="clarke-displacement")
    _, _, argmin = estimate_inf(f, space, whole_space(space),
                                np.random.default_rng(seed + 1))
    u0 = theta(GridFunction(space, argmin))
    cert = symmetric_ekeland(f, space, u0, eps, eps, variant="II", seed=seed,
                             n_samples=n_samples, metric=metric)
    xi = cert.v
    Fxi = F(xi)
    residual = f(xi)
    # witness t for the directional contraction at xi
    best = None
    for t in _CLARKE_T:
        wt = GridFunction(space, t * Fxi.values + (1 - t) * xi.values)
        if metric.dist(F(wt).values, Fxi.values) <= sig * t * residual + 1e-9 * (1 + residual):
            deficit = max(0.0, f(xi) - eps * metric.dist(wt.values, xi.values)
                          - f(wt))
            best = (t, deficit / t)
            break
    if best is None:
        raise AssumptionViolated("directional contraction fails at the "
                                 "output", witness=xi)
    t_star, slack = best
    bound = slack / (1.0 - sig - eps)
    cert.extras["clarke"] = {"residual": residual, "slack": slack,
                             "witness_t": t_star, "bound": bound,
                             "sigma": sig, "eps": eps}
    cert.add_measured("‖ξ-F(ξ)‖_V", residual, bound + 1e-12)
    cert.seal()
    if return_certificate:
        return xi, residual, cert
    return xi, residual


# ---------------------------------------------------------------------------
# drops and petals

def _row_norms(norm, W):
    """``norm`` of each row of the block W: the built-in V norm (the
    default of balls and petals) takes the whole block, a caller's norm is
    called once per row."""
    if isinstance(getattr(norm, "__self__", None), VMetric):
        return norm(W)
    return CallableMetric(norm).norm(W)


@dataclass
class Ball:
    """Norm ball, optionally intersected with the fully symmetric class
    (functions fixed by every registered polarizer)."""

    center: GridFunction
    radius: float
    norm: Optional[Callable] = None
    symmetric: bool = False

    def __post_init__(self):
        if self.norm is None:
            self.norm = VMetric(self.center.space).norm
        # the center must also be fixed by the reflections that project and
        # contains average over: a function fixed by every registered
        # polarizer need not be reflection-symmetric
        c = self.center.values
        if self.symmetric and not (
                is_family_fixed(self.center)
                and all(np.array_equal(c, g) for g in self._images(c))):
            raise NotSymmetricInput("a symmetric ball needs a fully "
                                    "symmetric center")

    def _images(self, vals):
        """vals under each element of the reflection group generated by the
        β = 0 polarizers, the identity first."""
        space = self.center.space
        if space.dimension == 1:
            return [vals, vals[::-1]]
        v = vals.reshape(space.n, space.n)
        imgs = []
        for a in (v, v[::-1, :], v[:, ::-1], v[::-1, ::-1]):
            imgs.extend((a.ravel(), a.T.ravel()))
        return imgs

    def _sym_project(self, vals):
        """Average over the reflection group generated by the β = 0
        polarizers: the L² projector onto the fixed subspace."""
        if self.center.space.dimension == 1:
            return 0.5 * (vals + vals[::-1])
        return sum(self._images(vals)) / 8.0

    def contains(self, vals) -> bool:
        # relative to the point: the reflection average in project rounds
        # about 1 ulp of max|vals| away from the fixed subspace
        tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        # a symmetric ball lies in the fixed subspace of the reflections
        if self.symmetric and any(float(np.max(np.abs(vals - g))) > tol
                                  for g in self._images(vals)):
            return False
        return self.norm(vals - self.center.values) <= self.radius + tol

    def project(self, vals):
        w = np.array(vals, float)
        if self.symmetric:
            w = self._sym_project(w)
        d = self.norm(w - self.center.values)
        if d > self.radius:
            w = self.center.values + (self.radius / d) * (w - self.center.values)
        return w

    def dist(self, vals) -> float:
        return self.norm(vals - self.project(vals))

    def diameter(self) -> float:
        return 2.0 * self.radius

    def boundary_sample(self, rng):
        z = rng.standard_normal(len(self.center.values))
        if self.symmetric:
            z = self._sym_project(z)
        nz = self.norm(z)
        if nz == 0:
            return np.array(self.center.values)
        return self.center.values + (self.radius / nz) * z


@dataclass
class Drop:
    """Drop(x, B) = ∪_{b∈B, t∈[0,1]} x + t(b − x)."""

    vertex: GridFunction
    ball: Ball


@dataclass
class Petal:
    """Petal_ε(x0, x1) = {y : ε‖y−x0‖ + ‖y−x1‖ ≤ ‖x0−x1‖}."""

    eps: float
    x0: GridFunction
    x1: GridFunction
    norm: Optional[Callable] = None

    def __post_init__(self):
        if self.norm is None:
            self.norm = VMetric(self.x0.space).norm


def _near_zero_interval(a0, a1, tol):
    """The closed interval of s with ‖a0 + s·a1‖_∞ ≤ tol, or None if empty.

    Each coordinate with a1ᵢ ≠ 0 allows the s between its two crossings of
    ±tol; a coordinate with a1ᵢ = 0 allows every s or none."""
    still = a1 == 0.0
    if np.any(np.abs(a0[still]) > tol):
        return None
    moving = ~still
    ends = (np.array([-tol, tol])[:, None] - a0[moving]) / a1[moving]
    lo = float(np.max(np.min(ends, axis=0), initial=-math.inf))
    hi = float(np.min(np.max(ends, axis=0), initial=math.inf))
    return (lo, hi) if lo <= hi else None


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _convex_reaches(h, a, fa, b, level) -> bool:
    """Whether the convex h comes down to `level` on [a, b], given fa = h(a).

    Golden-section steps shrink a bracket [a, b] around the minimizer with
    one interior point m.  True at the first point with h ≤ level.  False
    once the chord lower bound exceeds level: h lies above the chord
    through m and b on [a, m] and above the chord through a and m on
    [m, b].  If the bracket stops shrinking in floating point first, every
    evaluated point stayed above level, and the answer is False."""
    if fa <= level:
        return True
    m = b - _GOLDEN * (b - a)
    if not a < m < b:
        return False
    fb = h(b)
    if fb <= level:
        return True
    fm = h(m)
    while fm > level:
        if min(fm - (fb - fm) / (b - m) * (m - a),
               fm + (fm - fa) / (m - a) * (b - m)) > level:
            return False
        # the new point goes into the longer of [a, m] and [m, b]
        s = m + (1.0 - _GOLDEN) * (b - m if b - m > m - a else a - m)
        if not a < s < b or s == m:
            return False
        fs = h(s)
        if fs <= level:
            return True
        # convexity keeps the minimizer on the side of the lower value
        (p, fp), (q, fq) = sorted(((m, fm), (s, fs)))
        if fp < fq:
            b, fb, m, fm = q, fq, p, fp
        else:
            a, fa, m, fm = p, fp, q, fq
    return True


# drop_membership's tolerance, also where the drop engine asks it
_DROP_TOL = 1e-10


def drop_membership(y: GridFunction, D: Drop) -> bool:
    """y ∈ Drop(x, B) iff y = x + t(b−x) for some t ∈ [0,1], b ∈ B; the
    answer is exact up to tol = 1e-10.

    With d = y − x, c the center and r the radius, y is a member iff
    N(d) ≤ tol or the ray x + s·d (s = 1/t ≥ 1) meets B.  For a plain ball
    the ray meets B iff min over s ≥ 1 of h(s) = N(x − c + s·d) is at most
    r + tol; h is a norm of an affine map of s, hence convex.

    For a symmetric ball, S is the linear projector onto the fixed subspace
    and A = I − S.  The ray counts as on the fixed subspace where
    ‖Ax + s·Ad‖_∞ ≤ tol: one closed interval of s, found coordinatewise in
    closed form.  That interval is cut to s ≥ 1 (empty: not a member), and
    on it the same convex test runs on h(s) = N(Sx − c + s·Sd).  So the
    tolerance is tol in the sup norm of the part off the fixed subspace
    and tol on the radius in the ball's norm."""
    return _in_drop(y.values, D)


def _in_drop(y, D: Drop) -> bool:
    """``drop_membership`` of the cell values y."""
    tol = _DROP_TOL
    B = D.ball
    x = D.vertex.values
    d = y - x
    speed = B.norm(d)
    if speed <= tol:
        return True
    lo, hi = 1.0, math.inf
    if B.symmetric:
        sx, sd = B._sym_project(x), B._sym_project(d)
        span = _near_zero_interval(x - sx, d - sd, tol)
        if span is None or span[1] < lo:
            return False
        lo, hi = max(lo, span[0]), span[1]
        x, d = sx, sd
    z = x - B.center.values
    level = B.radius + tol

    def h(s):
        return B.norm(z + s * d)

    fa = h(lo)
    if fa <= level:
        return True
    if B.symmetric:
        speed = B.norm(d)
    # h(s) ≥ (s − lo)·N(d) − h(lo), so no s past this cap reaches level
    if speed == 0.0:
        return False
    return _convex_reaches(h, lo, fa, min(hi, lo + (level + fa) / speed),
                           level)


def petal_membership(y: GridFunction, P: Petal) -> bool:
    return bool(_in_petal(P, y.values[None])[0])


def _in_petal(P: Petal, W):
    """``petal_membership`` of each row of the block W."""
    lhs = (P.eps * _row_norms(P.norm, W - P.x0.values)
           + _row_norms(P.norm, W - P.x1.values))
    return lhs <= P.norm(P.x0.values - P.x1.values) + 1e-12


_PETAL_TOL = 1e-9


def petal_inclusions(P: Petal, *, n_samples=1000, seed=0) -> dict:
    """Verify both displayed inclusions by boundary sampling: the ball
    B_{(1−ε)/(1+ε)‖x0−x1‖}(x1) lies inside the petal, and so does the drop
    of that ball from x0.  A sample violates when it misses the petal by
    more than 1e-9 (``_PETAL_TOL``)."""
    rng = np.random.default_rng(seed)
    d01 = P.norm(P.x0.values - P.x1.values)
    r = (1.0 - P.eps) / (1.0 + P.eps) * d01
    ball = Ball(P.x1, r, norm=P.norm)
    # the normal and uniform draws interleave, so they stay one at a time;
    # each ball point b and its drop point y are scored in one block
    Y = []
    for _ in range(n_samples):
        b = ball.boundary_sample(rng)
        Y += [b, P.x0.values + rng.uniform(0.0, 1.0) * (b - P.x0.values)]
    Y = np.reshape(Y, (-1, P.x0.space.n_cells))
    lhs = (P.eps * _row_norms(P.norm, Y - P.x0.values)
           + _row_norms(P.norm, Y - P.x1.values))
    viol = lhs > d01 + _PETAL_TOL
    return {"n_samples": n_samples, "radius": r,
            "ball_violations": int(viol[0::2].sum()),
            "drop_violations": int(viol[1::2].sum()),
            "worst_margin": max([-math.inf, *(lhs - d01).tolist()]),
            "tol": _PETAL_TOL}


def _drop_project(D: Drop, vals):
    """Feasibility projection onto the drop.  When the ball is symmetric and
    the vertex reflection-symmetric, the drop lies in the fixed subspace,
    and a point whose symmetrization is a member goes there, exactly.  Other
    points scan the segment parameter at 32 points t ∈ (0, 1], pulling the
    implied ball point back into B (a documented approximation; membership
    itself stays exact)."""
    x = D.vertex.values
    if D.ball.symmetric and np.array_equal(D.ball._sym_project(x), x):
        w = D.ball._sym_project(vals)
        if _in_drop(w, D):
            return w
    best, best_d = np.array(x), D.ball.norm(vals - x)
    for t in np.linspace(0.0, 1.0, 33)[1:]:
        b = D.ball.project(x + (vals - x) / t)
        y = x + t * (b - x)
        dy = D.ball.norm(vals - y)
        if dy < best_d:
            best, best_d = y, dy
    return best


def symmetric_drop_point(x: GridFunction, B: Ball, C: SetOracle, eps, *,
                         seed=0, n_samples=2000,
                         minimality_samples=10000) -> Certificate:
    """Drop point: ξ_ε ∈ Drop(x, B) ∩ C with Drop(ξ_ε, B) ∩ C = {ξ_ε}
    (sampled) and ‖ξ_ε − ξ_ε*‖_V < ε.

    Preconditions: B inside the fully symmetric class, d(B, C) > 0 with
    the smallness threshold ε·diam(B) < (1−ε)·d(B,C), and a polarization/
    symmetrization-stable C (a hypothesis on the caller's C, not checked)."""
    _check_n_samples(n_samples)
    space = x.space
    if not B.symmetric:
        raise NotSymmetricInput("B must lie in the fully symmetric class")
    if not C.contains(x.values):
        raise AssumptionViolated("the vertex x must belong to C")
    rng = np.random.default_rng(seed)

    # separation estimate from projection probes
    W = C.project_rows(rng.standard_normal((64, space.n_cells))
                       * (1.0 + B.norm(B.center.values)))
    d_est = min([math.inf, *(B.dist(w) for w in W[C.contains_rows(W)]),
                 B.dist(C.project(x.values))])
    if not math.isfinite(d_est) or d_est <= 0.0:
        raise SeparationViolated(f"estimated d(B, C) = {d_est:.3e} ≤ 0")
    if eps * B.diameter() >= (1.0 - eps) * d_est:
        raise SeparationViolated(
            f"eps·diam(B) = {eps * B.diameter():.3e} must stay below "
            f"(1-eps)·d(B,C) = {(1 - eps) * d_est:.3e}")

    D0 = Drop(x, B)

    def contains(vals):
        return C.contains(vals) and _in_drop(vals, D0)

    def project(vals):
        w = np.array(vals, float)
        for _ in range(8):
            w = C.project(w)
            if contains(w):
                return w
            w = _drop_project(D0, w)
            if contains(w):
                return w
        return np.array(x.values)

    Sprime = SetOracle(contains=contains, project=project, kind="custom",
                       description="Drop(x,B) ∩ C")
    f = Functional(eval=lambda u: B.dist(u.values),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="dist-to-B")
    metric = VMetric(space)
    # the theorem carries no start-energy hypothesis: launch the chain from
    # a near-infimum point of S' found by the documented probe
    _, _, argmin = estimate_inf(f, space, Sprime,
                                np.random.default_rng(seed + 7),
                                extra_starts=[x.values])
    u0 = GridFunction(space, Sprime.project(np.abs(argmin)))
    if not Sprime.contains(u0.values):
        u0 = theta(x)
    cert = symmetric_ekeland(f, space, u0, eps, eps, variant="I",
                             domain=Sprime, seed=seed, n_samples=n_samples,
                             metric=metric)
    xi = cert.v
    # sampled minimality of Drop(xi, B) ∩ C: the draws interleave, so they
    # stay one at a time; the sample points are scored as one block
    rng2 = np.random.default_rng(seed + 13)
    Y = []
    for _ in range(minimality_samples):
        b = B.boundary_sample(rng2) if rng2.uniform() < 0.5 else B.project(
            B.center.values + B.radius * rng2.uniform(-1, 1)
            * rng2.standard_normal(space.n_cells))
        Y.append(xi.values + rng2.uniform(0.0, 1.0) * (b - xi.values))
    Y = np.reshape(Y, (-1, space.n_cells))
    _record_second_points(cert, "drop", Y[C.contains_rows(Y) & (
        metric.norm(Y - xi.values) > 1e-9)], minimality_samples, d_est)
    return cert.seal()


def symmetric_petal_point(x: GridFunction, y: GridFunction, C: SetOracle,
                          eps, *, norm=None, seed=0, n_samples=2000,
                          minimality_samples=10000) -> Certificate:
    """Petal point: ξ_ε ∈ Petal_ε(x, y) ∩ C with the sampled uniqueness
    Petal_ε(ξ_ε, y) ∩ C = {ξ_ε}.

    Preconditions: x ∈ C, y ∉ C, both fixed by every registered polarizer
    (exact check), and the slope condition ‖x−y‖ ≤ d(y, C) + ε² against a
    projection-probe estimate of d(y, C)."""
    _check_n_samples(n_samples)
    space = x.space
    if norm is None:
        norm = VMetric(space).norm
    if not (is_family_fixed(theta(x)) and is_family_fixed(theta(y))
            and np.all(x.values >= 0) and np.all(y.values >= 0)):
        raise NotSymmetricInput("x and y must be fixed by every polarizer")
    if not C.contains(x.values):
        raise AssumptionViolated("x must belong to C")
    if C.contains(y.values):
        raise AssumptionViolated("y must lie outside C")

    rng = np.random.default_rng(seed)
    W = C.project_rows(y.values + rng.standard_normal((64, space.n_cells))
                       * (1.0 + norm(y.values)))
    dxy = norm(x.values - y.values)
    d_est = min([dxy, *_row_norms(norm, W[C.contains_rows(W)]
                                  - y.values).tolist()])
    if dxy > d_est + eps * eps + 1e-12:
        raise AssumptionViolated(
            f"petal slope condition fails: ‖x−y‖ = {dxy:.6g} > "
            f"d(y,C) + eps² = {d_est + eps * eps:.6g}")

    metric = CallableMetric(norm, name="petal-norm")
    f = Functional(eval=lambda u: norm(u.values - y.values),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="dist-to-y")
    cert = symmetric_ekeland(f, space, theta(x), eps, eps, variant="V",
                             domain=C, seed=seed, n_samples=n_samples,
                             metric=metric)
    xi = cert.v
    P = Petal(eps, x, y, norm=norm)
    margin = (eps * norm(xi.values - x.values)
              + norm(xi.values - y.values) - dxy)
    cert.add_measured("ε‖ξ-x‖+‖ξ-y‖-‖x-y‖", margin, 0.0)
    cert.extras["petal_member"] = bool(petal_membership(xi, P))

    # sample i lies at radius (4ε, ε, ε/4, 1)[i % 4] around ξ_ε
    r = np.resize([4 * eps, eps, eps / 4, 1.0], (minimality_samples, 1))
    W = C.project_rows(xi.values + r * np.random.default_rng(
        seed + 13).standard_normal((minimality_samples, space.n_cells)))
    W = W[C.contains_rows(W)]
    _record_second_points(cert, "petal", W[
        (_row_norms(norm, W - xi.values) > 1e-9)
        & _in_petal(Petal(eps, xi, y, norm=norm), W)],
        minimality_samples, d_est)
    return cert.seal()


def _record_second_points(cert: Certificate, kind, hits, samples, d_est):
    """Record the sampled second points of a drop or petal (the last one
    as the witness) in the certificate's minimality extras and bound."""
    cert.extras[f"{kind}_minimality"] = {
        "samples": samples, "second_points": len(hits),
        "witness": [float(v) for v in hits[-1]] if len(hits) else None,
        "d_est": d_est}
    cert.add_measured(f"{kind}_second_points", float(len(hits)), 0.0)
