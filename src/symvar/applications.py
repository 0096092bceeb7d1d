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
from scipy.linalg.lapack import dpbtrs

from ._descent import _FD_STEP, _BandHessian
from .errors import (AssumptionViolated, IntegrandError, InvalidArgument,
                     InvalidEpsilon, NotBoundedBelow, NotSymmetricInput,
                     SeparationViolated)
from .funcspace import (Functional, GridFunction, GridSpace, _band_cholesky,
                        _dirichlet_rows, _laplacian_rows, _sum_rows,
                        gram_matrix, norm_V, riesz_from_euclidean, theta)
from .principles import (CallableMetric, Certificate, SetOracle, VMetric,
                         XMetric, _FromProbe, _check_n_samples,
                         _polarized_draws, _start_record, estimate_inf,
                         sqps_sequence, symmetric_ekeland, whole_space)
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
    ``ascent``: gradient ascent on q(v) = r·v/‖v‖_X from r and three
    random normal starts (one block), the four in lock-step
    (``_dual_ascent``); independent of the solve route."""
    r = np.asarray(r_euclid, float)
    if method == "solve":
        if space.p != 2.0:
            raise AssumptionViolated("the solve route needs p = 2")
        rep = riesz_from_euclidean(space, r)
        return float(math.sqrt(max(0.0, r @ rep)))
    if method != "ascent":
        raise InvalidArgument(f"unknown dual-norm method {method!r}")

    rng = np.random.default_rng(seed)
    best = 0.0
    for end in _dual_ascent(space, r, np.array(
            [r, *rng.standard_normal((3, len(r)))])):
        if end is not None:
            best = max(best, end[1])
    return best


def _dual_ascent(space: GridSpace, r, V):
    """Gradient ascent on q(v) = r·v/‖v‖_X from each row of V, all rows in
    lock-step, after each row is scaled to X norm 1; returns each row's end
    (v, q(v)), None for a row of X norm 0.  A round is one block X norm of
    the live rows for their gradients (off p = 2 one more of their
    central-difference rows) and one block X norm per trial round of the
    rows still in their line search; the dot products and the Gram product
    are stacked mat-vecs, so each row's ddot and gemv, and its step, line
    search and stop rules, are its own run's, bit for bit."""
    nx = XMetric(space).norm
    k, n = V.shape

    def dots(W, u):
        # u·w for each row w of W, bit-equal to its one-vector product
        return np.matmul(W[:, None, :], u[..., None])[:, 0, 0]

    def q(W):
        nw = nx(W)
        rw = dots(W, r)
        return np.divide(rw, nw, out=np.zeros(len(W)), where=nw > 0), nw

    def grad_q(W, nw):
        if space.p == 2.0:
            gnorm = (np.matmul(gram_matrix(space), W[..., None])[..., 0]
                     / nw[:, None])
        else:
            # central differences along each coordinate, as one block
            hstep = 1e-7 * (1.0 + np.max(np.abs(W), axis=1))
            E = hstep[:, None, None] * np.eye(n)
            B = nx(np.concatenate((W[:, None] + E, W[:, None] - E))
                   .reshape(-1, n)).reshape(2, len(W), n)
            gnorm = (B[0] - B[1]) / (2 * hstep[:, None])
        # the scalar power of each row's norm, as the one-vector call takes
        nw2 = np.array([a ** 2 for a in nw])
        return r / nw[:, None] - (dots(W, r) / nw2)[:, None] * gnorm

    norms = nx(V)
    live = [i for i in range(k) if norms[i] != 0]
    V = V / np.where(norms != 0, norms, 1.0)[:, None]
    qv, nv, step = np.zeros(k), np.ones(k), np.ones(k)
    if live:
        qv[live], nv[live] = q(V[live])
    for _ in range(4000):
        if not live:
            break
        G = np.zeros((k, n))
        G[live] = grad_q(V[live], nv[live])
        gn = np.sqrt(dots(G[live], G[live]))
        trying = [i for i, g in zip(live, gn)
                  if not g < 1e-14 * (1.0 + abs(qv[i])) and step[i] > 1e-16]
        moved = []
        while trying:
            VN = V[trying] + step[trying, None] * G[trying]
            qn, nvn = q(VN)
            back = []
            for j, i in enumerate(trying):
                if qn[j] > qv[i] + 1e-16:
                    V[i], qv[i] = VN[j] / nvn[j], qn[j]
                    step[i] *= 1.3
                    moved.append(i)
                else:
                    step[i] *= 0.5
                    if step[i] > 1e-16:
                        back.append(i)
            trying = back
        live = sorted(moved)
        if live:
            nv[live] = nx(V[live])
    return [(V[i], qv[i]) if norms[i] != 0 else None for i in range(k)]


def quasilinear_experiment(I: QuasilinearIntegrand, space: GridSpace, eps, *,
                           seed=0, n_samples=2000,
                           u0: GridFunction = None) -> Certificate:
    """Almost-symmetric almost-critical point of the quasi-linear energy.

    Runs the symmetric principle (dominating-point form) with σ = ρ = ε from
    ``u0`` or Θ(argmin) of its one inf probe (``extras["start"]`` records
    the route), and augments the certificate with the Euler-Lagrange
    residual's dual norm, twice (Riesz solve and independent ascent)."""
    _check_n_samples(n_samples)
    I.validate(seed=seed)
    f = quasilinear_functional(I, space)
    cert = symmetric_ekeland(f, space, _FromProbe() if u0 is None else u0,
                             eps, eps, variant="II", seed=seed,
                             n_samples=n_samples)
    if u0 is not None:
        cert.extras["start"] = _start_record(f, f(theta(u0)), eps * eps,
                                             "given")
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
    """f(u) = ½∫|Du|² − ∫G(u) on the grid (+∞ outside the box, if given).

    ½∫|Du|² is ½·uᵀAu on the edge stencil (``_dirichlet_rows``), ∫G(u) a
    pairwise sum per row, and the declared gradient A·u − m·g(u) takes A·u
    on the stencil too, so f and its gradient never build the dense
    Laplacian; the Hessian is A's band minus m·diag(g′(u)).  A block's rows
    are each bit-equal to their one-vector call."""
    m = space.cell_measure

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
        return 0.5 * _dirichlet_rows(space, W) - m * _sum_rows(_each(N.G, W))

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
    """ψ = A·u − m·g(u) of one vector (N,) or of each row of a block
    (k, N), A·u on the edge stencil (``_laplacian_rows``), without the
    dense Laplacian; each row is bit-equal to its one-vector call."""
    return (_laplacian_rows(space, values)
            - space.cell_measure * _each(N.g, values))


def h_minus1_norm(space: GridSpace, psi_euclid) -> float:
    """Dual norm of the gradient (H¹₀) seminorm, √(ψᵀA⁻¹ψ), by ``dpbtrs``
    on the ``dpbtrf`` factor of the Dirichlet Laplacian's band."""
    psi = np.asarray(psi_euclid, float)
    sol = dpbtrs(_band_cholesky(space._bands[0]), psi)[0]
    return float(math.sqrt(max(0.0, psi @ sol)))


def semilinear_experiment(N: SemilinearNonlinearity, space: GridSpace,
                          eps_schedule, *, box=None, seed=0, n_samples=2000,
                          minimizing_sequence=None, q_probes=48,
                          second_order_samples=64):
    """Full experiment: minimizing sequence with vanishing H⁻¹ residual,
    vanishing symmetry defect, and the sampled second-order form
    ∫|Dw|² − ∫D̲g(u_h)w² bounded below.

    Returns the per-ε certificates with the residual reports in extras.
    Needs f bounded below, checked by the call's one inf probe, from whose
    argmin every SQPS step starts unless a ``minimizing_sequence`` is given;
    pass a box oracle for superquadratic nonlinearities (it is recorded)."""
    _check_n_samples(n_samples)
    _check_n_samples(q_probes, "q_probes")
    _check_n_samples(second_order_samples, "second_order_samples")
    N.validate(seed=seed)
    dom = box if box is not None else whole_space(space)
    f = semilinear_functional(N, space, box=box)

    # boundedness probes: the inf probe plus escape rays t·w (superquadratic
    # nonlinearities sink along rays; a box oracle turns those to +inf)
    probe = estimate_inf(f, space, dom, np.random.default_rng(seed))
    rng0 = np.random.default_rng(seed + 5)
    rays = [np.ones(space.n_cells), np.abs(rng0.standard_normal(space.n_cells))]
    floor = -1e6 * (1.0 + abs(f(space.zeros())))
    vals = f._eval_rows(space, np.array([t * w for w in rays for t in (
        1.0, 4.0, 16.0, 64.0, 256.0)]))
    probe_inf = min([probe[0], *vals[np.isfinite(vals)].tolist()])
    if not math.isfinite(probe_inf) or probe_inf < floor:
        raise NotBoundedBelow("energy probe diverged along rays; supply a "
                              "box oracle")

    out = sqps_sequence(f, space, eps_schedule, domain=dom,
                        minimizing_sequence=minimizing_sequence
                        or _FromProbe(probe=probe), seed=seed,
                        n_samples=n_samples, q_probes=q_probes)
    rng = np.random.default_rng(seed + 17)
    m = space.cell_measure
    metric = XMetric(space)
    certs = []
    for (cert, qrep), eps_h in zip(out, eps_schedule):
        u_h = cert.v
        psi = euler_lagrange_residual(N, u_h)
        cert.extras["psi_Hminus1"] = h_minus1_norm(space, psi)
        dg = lower_derivative(N.g, u_h.values, 1e-4)
        # w·Aw − m·Σ D̲g(u_h)·w² at X-unit w, w·Aw on the edge stencil and
        # both sums pairwise per row; first minimum
        W = rng.standard_normal((second_order_samples, space.n_cells))
        nw = metric.norm(W)
        W = W[nw != 0] / nw[nw != 0, None]
        vals = _dirichlet_rows(space, W) - m * _sum_rows(dg * (W * W))
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

    Runs the symmetric principle with σ = ρ = ε from Θ(argmin) of its inf
    probe; the returned residual ‖F(ξ)−ξ‖_X obeys residual ≤ slack/(1−ε)
    where slack is the verified inequality deficit at w = F(ξ)."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must lie in (0, 1), got {eps}")
    _check_n_samples(n_samples)
    rng = np.random.default_rng(seed)
    metric = XMetric(space)

    def caristi_gap(u):
        Fu = F(u)
        return metric.dist(Fu.values, u.values) - (f(u) - f(Fu))

    for z in rng.standard_normal((16, space.n_cells)):
        u = GridFunction(space, z)
        if caristi_gap(u) > 1e-9 * (1.0 + abs(f(u))):
            raise AssumptionViolated("Caristi condition fails on a probe",
                                     witness=u)

    cert = symmetric_ekeland(f, space, _FromProbe(), eps, eps, variant="II",
                             seed=seed, n_samples=n_samples)
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
    f(u) = ‖u − F(u)‖_V through the symmetric principle in the V metric
    from Θ(argmin) of its inf probe.

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
    cert = symmetric_ekeland(f, space, _FromProbe(), eps, eps, variant="II",
                             seed=seed, n_samples=n_samples, metric=metric)
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
        """vals (one vector or a block (k, N) of rows) under each element of
        the reflection group generated by the β = 0 polarizers, the identity
        first."""
        space = self.center.space
        if space.dimension == 1:
            return [vals, vals[..., ::-1]]
        v = vals.reshape(vals.shape[:-1] + (space.n, space.n))
        imgs = []
        for a in (v, v[..., ::-1, :], v[..., ::-1], v[..., ::-1, ::-1]):
            imgs.extend((a.reshape(vals.shape),
                         a.swapaxes(-1, -2).reshape(vals.shape)))
        return imgs

    def _sym_project(self, vals):
        """Average over the reflection group generated by the β = 0
        polarizers: the L² projector onto the fixed subspace, of one vector
        or of each row of a block, the images summed in one order."""
        if self.center.space.dimension == 1:
            return 0.5 * (vals + vals[..., ::-1])
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
        """The radial projection into the ball (after the reflection
        average on a symmetric ball) of one vector or of each row of a
        block (k, N), each row bit-equal to its one-vector call."""
        w = np.array(vals, float)
        if self.symmetric:
            w = self._sym_project(w)
        c = self.center.values
        if w.ndim == 1:
            # the engines' one-point calls skip the block bookkeeping
            d = self.norm(w - c)
            return c + (self.radius / d) * (w - c) if d > self.radius else w
        d = _row_norms(self.norm, w - c)
        out = d > self.radius
        w[out] = c + (self.radius / d[out])[:, None] * (w[out] - c)
        return w

    def dist(self, vals):
        """‖vals − project(vals)‖: a float for one vector, the (k,) row
        values for a block."""
        return _row_norms(self.norm, vals - self.project(vals))

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sphere_points(self, Z):
        """The sphere points c + (r/‖z‖)·z of the rows z of the draws Z
        (k, N), each reflection-averaged first on a symmetric ball; a row of
        norm 0 gives the center."""
        if self.symmetric:
            Z = self._sym_project(Z)
        nz = _row_norms(self.norm, Z)
        zero = nz == 0.0
        S = self.center.values + (
            self.radius / np.where(zero, 1.0, nz))[:, None] * Z
        S[zero] = self.center.values
        return S


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


# ∓ a0 in the numerators of _near_zero_interval's two rows
_SIGNS = np.array([[-1.0], [1.0]])


def _near_zero_interval(a0, a1, tol):
    """The closed interval of s with ‖a0 + s·a1‖_∞ ≤ tol, or None if empty.

    With t = tol·sign(a1ᵢ), coordinate i allows the s between its two
    crossings of ±tol, (−t − a0ᵢ)/a1ᵢ ≤ (t − a0ᵢ)/a1ᵢ.  The interval runs
    from the largest lower crossing to the smallest upper one: one maximum
    per row of the block of quotients (∓a0ᵢ − t)/a1ᵢ, whose first row is
    the lower crossings and whose second row the upper ones negated, bit
    for bit, with no coordinate selected.  A coordinate with a1ᵢ = 0
    allows every s or none: its quotients give (−inf, inf) when
    |a0ᵢ| < tol, one NaN, which the maximum skips, at |a0ᵢ| = tol, and an
    empty pair of equal infinities when |a0ᵢ| > tol.  Only such a pair or
    an overflowing quotient can end the interval on one infinity at both
    ends, so only that interval is checked for such a coordinate."""
    t = np.copysign(tol, a1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, neg_hi = np.fmax.reduce((_SIGNS * a0 - t) / a1, axis=1,
                                    initial=-math.inf).tolist()
    hi = -neg_hi
    if lo == hi and math.isinf(lo) and np.any((a1 == 0.0)
                                              & (np.abs(a0) > tol)):
        return None
    return (lo, hi) if lo <= hi else None


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _convex_reaches(h, a, fa, b, level) -> bool:
    """Whether the convex h comes down to `level` on [a, b], given
    fa = h(a) > level.

    Golden-section steps shrink a bracket [a, b] around the minimizer with
    one interior point m.  True at the first point with h ≤ level.  False
    once the chord lower bound exceeds level: h lies above the chord
    through m and b on [a, m] and above the chord through a and m on
    [m, b].  If the bracket stops shrinking in floating point first, every
    evaluated point stayed above level, and the answer is False."""
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
    W = y.values[None]
    return bool(_in_petal(P, W, _row_norms(P.norm, W - P.x0.values))[0])


def _in_petal(P: Petal, W, d0):
    """``petal_membership`` of each row of the block W, given each row's
    distance d0 = ‖w − x0‖."""
    lhs = P.eps * d0 + _row_norms(P.norm, W - P.x1.values)
    return lhs <= P.norm(P.x0.values - P.x1.values) + 1e-12


_PETAL_TOL = 1e-9


def petal_inclusions(P: Petal, *, n_samples=1000, seed=0) -> dict:
    """Verify both displayed inclusions by boundary sampling: the ball
    B_{(1−ε)/(1+ε)‖x0−x1‖}(x1) lies inside the petal, and so does the drop
    of that ball from x0.  A sample violates when it misses the petal by
    more than 1e-9 (``_PETAL_TOL``).  ``n_samples`` must be an integer ≥ 1
    (else InvalidArgument): no sample would report no violation."""
    _check_n_samples(n_samples)
    d01 = P.norm(P.x0.values - P.x1.values)
    r = (1.0 - P.eps) / (1.0 + P.eps) * d01
    # ball and drop points are built, normed and scored as blocks,
    # interleaved as [b₀, y₀, b₁, y₁, …]
    Y = _inclusion_points(P, Ball(P.x1, r, norm=P.norm),
                          np.random.default_rng(seed), n_samples)
    lhs = (P.eps * _row_norms(P.norm, Y - P.x0.values)
           + _row_norms(P.norm, Y - P.x1.values))
    viol = lhs > d01 + _PETAL_TOL
    return {"n_samples": n_samples, "radius": r,
            "ball_violations": int(viol[0::2].sum()),
            "drop_violations": int(viol[1::2].sum()),
            "worst_margin": max([-math.inf, *(lhs - d01).tolist()]),
            "tol": _PETAL_TOL}


def _inclusion_points(P: Petal, ball: Ball, rng, n_samples):
    """The rows [b₀, y₀, b₁, y₁, …] that ``petal_inclusions`` scores: b the
    sphere point of the ball from z ~ N(0, I) and y = x0 + t·(b − x0) its
    drop point, t ~ U[0, 1).  The n_samples z's are drawn as one block,
    then the t's as another, and the points are built as blocks."""
    Z = rng.standard_normal((n_samples, P.x0.space.n_cells))
    T = rng.uniform(0.0, 1.0, (n_samples, 1))
    Y = np.empty((2 * n_samples, Z.shape[1]))
    Y[0::2] = b = ball.sphere_points(Z)
    Y[1::2] = P.x0.values + T * (b - P.x0.values)
    return Y


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
    _check_n_samples(minimality_samples, "minimality_samples")
    space = x.space
    if not B.symmetric:
        raise NotSymmetricInput("B must lie in the fully symmetric class")
    if not C.contains(x.values):
        raise AssumptionViolated("the vertex x must belong to C")
    rng = np.random.default_rng(seed)

    # separation estimate from projection probes
    W = C.project_rows(rng.standard_normal((64, space.n_cells))
                       * (1.0 + B.norm(B.center.values)))
    d_est = min([math.inf, *B.dist(W[C.contains_rows(W)]).tolist(),
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
    # the theorem carries no start-energy hypothesis: the chain starts from
    # the projection of |argmin| of the engine's probe (x an extra start);
    # project lands in S': it returns a member or the vertex x, which is one
    cert = symmetric_ekeland(f, space, _FromProbe(starts=(x.values,)), eps,
                             eps, variant="I", domain=Sprime, seed=seed,
                             n_samples=n_samples, metric=metric)
    xi = cert.v
    # sampled minimality of Drop(xi, B) ∩ C, scored as one block
    Y = _drop_points(xi.values, B, np.random.default_rng(seed + 13),
                     minimality_samples)
    _record_second_points(cert, "drop", Y[C.contains_rows(Y) & (
        metric.norm(Y - xi.values) > 1e-9)], minimality_samples, d_est)
    return cert.seal()


def _drop_points(x, B: Ball, rng, n_samples):
    """Sample points x + t·(b − x) of Drop(x, B).  Each sample has a coin
    u ~ U[0, 1); b is the sphere point of B from z ~ N(0, I) when u < 0.5,
    else the projection into B of c + r·a·z, a ~ U[-1, 1); t ~ U[0, 1).
    The u's, a's, z's and t's are drawn in that order, one block each
    (an a is drawn for every sample and read by the projected ones), and
    the sphere, projected and drop points are built as blocks."""
    sphere = rng.uniform(size=n_samples) < 0.5
    A = rng.uniform(-1, 1, (n_samples, 1))
    Z = rng.standard_normal((n_samples, len(x)))
    T = rng.uniform(0.0, 1.0, (n_samples, 1))
    b = np.empty_like(Z)
    b[sphere] = B.sphere_points(Z[sphere])
    inner = ~sphere
    b[inner] = B.project(B.center.values + B.radius * A[inner] * Z[inner])
    return x + T * (b - x)


def symmetric_petal_point(x: GridFunction, y: GridFunction, C: SetOracle,
                          eps, *, norm=None, seed=0, n_samples=2000,
                          minimality_samples=10000) -> Certificate:
    """Petal point: ξ_ε ∈ Petal_ε(x, y) ∩ C with the sampled uniqueness
    Petal_ε(ξ_ε, y) ∩ C = {ξ_ε}.

    Preconditions: x ∈ C, y ∉ C, both fixed by every registered polarizer
    (exact check), and the slope condition ‖x−y‖ ≤ d(y, C) + ε² against a
    projection-probe estimate of d(y, C)."""
    _check_n_samples(n_samples)
    _check_n_samples(minimality_samples, "minimality_samples")
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
    _record_second_points(cert, "petal", _petal_second_points(
        Petal(eps, xi, y, norm=norm), W[C.contains_rows(W)]),
        minimality_samples, d_est)
    return cert.seal()


def _petal_second_points(P: Petal, W):
    """The rows of W other than x0 = ξ in Petal_ε(ξ, y), in order.  A row
    equal to ξ is dropped unnormed; ‖w − ξ‖ is taken once per other row,
    for both the 1e-9 test and the petal's ε‖w − ξ‖ term, and ‖w − y‖ only
    on the rows past that test."""
    W = W[(W != P.x0.values).any(axis=1)]
    d0 = _row_norms(P.norm, W - P.x0.values)
    far = d0 > 1e-9
    W = W[far]
    return W[_in_petal(P, W, d0[far])]


def _record_second_points(cert: Certificate, kind, hits, samples, d_est):
    """Record the sampled second points of a drop or petal (the last one
    as the witness) in the certificate's minimality extras and bound."""
    cert.extras[f"{kind}_minimality"] = {
        "samples": samples, "second_points": len(hits),
        "witness": [float(v) for v in hits[-1]] if len(hits) else None,
        "d_est": d_est}
    cert.add_measured(f"{kind}_second_points", float(len(hits)), 0.0)
