"""Deterministic local minimizers shared by the principle engines.

Everything here works on flat numpy arrays and plain callables; the engines
adapt GridFunction-valued functionals.  A ``grad`` takes one vector (N,) or
a block (k, N) of rows and returns the Euclidean gradient of each row,
bit-equal to its single-vector call; the finite-difference Hessians use
the block.  The multi-start descent runs its starts in lock-step as the
rows of one block: ``fun``, ``grad`` and ``project`` also take a block,
each row bit-equal to its single-vector call, and the Armijo test, the BB
step and the stop rules run row by row on the single-vector expressions,
so row i follows the descent from start i alone bit for bit.
Unconstrained and on a box (the nonnegative cone included) each start's
descent stops after _BB_STEPS_POLISHED = 20 BB steps and a Newton polish
finishes it; under a custom projection there is no polish and the descent
runs up to _BB_STEPS = 400 steps.

The polish holds every Hessian in one form, :class:`_BandHessian`: a band
in LAPACK storage plus an optional low-rank term U·diag(c)·Uᵀ.  The
objective's declared Hessian ``hess`` (one vector (N,) to that form, or to
a dense (N, N) array, which enters the form once with its measured
bandwidth) is sliced to the free coordinates; without one the polish
builds a finite-difference Hessian from one block ``grad`` call, banded
with exact zeros for local functionals.  Each built Hessian is factored
once by LAPACK's banded LU (``dgbtrf``), the low-rank term handled by the
Sherman-Morrison-Woodbury identity, and the factor is kept while the free
set holds (chord Newton).  All routines are pure and seedless: randomized
multi-start decisions are made by the callers, which thread one seeded
generator through the whole run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack


# Newton refinement: at most this many steps, with the declared Hessian
# or, as the fallback, central differences of the gradient with step
# _FD_STEP·(1 + ‖x‖_∞); the declarers difference their oracles (g, L_s,
# L_xi) with the same _FD_STEP
_NEWTON_ITERS = 6
_FD_STEP = 1e-5

# f(x) is known to its last place at best: a predicted decrease below
# _F_ROUNDING·|f(x)| (one unit in the last place of f(x) or less) cannot
# show in a comparison of computed values of f
_F_ROUNDING = 2.0 ** -52

# BB steps per start in minimize_multistart: a short run when a Newton
# polish follows (Newton is affine-invariant, so it finishes what the
# ill-conditioned Euclidean descent leaves), the long one when none does
_BB_STEPS_POLISHED = 20
_BB_STEPS = 400


def _fd_hessian(grad, x, idx):
    """Symmetrized central-difference Hessian of the coordinates ``idx``
    from one block gradient call on the rows x + h·e_j, then x − h·e_j
    (j in idx), h = _FD_STEP·(1 + ‖x‖_∞).  ``grad`` returns each row
    bit-equal to its single-vector call, so this equals the Hessian built
    one column pair of calls at a time."""
    h = _FD_STEP * (1.0 + float(np.max(np.abs(x))))
    E = h * np.eye(len(x))[idx]
    G = grad(np.concatenate((x + E, x - E)))
    k = len(idx)
    S = ((G[:k] - G[k:]) / (2.0 * h))[:, idx]
    return 0.5 * (S + S.T)


def _band_rows(w, n):
    """For band storage of half-width w over n columns: the row index
    a = j + r − w (clipped into range) that entry (r, j) stands for, and
    where it lies inside the matrix."""
    a = np.arange(n) + np.arange(-w, w + 1)[:, None]
    inside = (a >= 0) & (a < n)
    return np.clip(a, 0, max(n - 1, 0)), inside


class _BandHessian:
    """The square matrix H = B + U·diag(c)·Uᵀ.  B is a band of half-width
    w in LAPACK general band storage, ``ab[w + i − j, j] = B[i, j]``, an
    array (2w + 1, N) whose entries outside the matrix are zero; U (N, k)
    and c (k,) are the low-rank term, k = 0 when there is none (the
    declarers use k ≤ 2).  Sums and scalar multiples stay in the form.

    :meth:`take` slices it to the coordinates ``idx`` (ascending): natural
    order keeps the band, so the band is gathered at ``idx`` and U sliced
    to U[idx].  :meth:`factor` factors B once by ``dgbtrf`` and returns
    the solve, ``dgbtrs`` plus the Woodbury correction."""

    __slots__ = ("ab", "U", "c")

    def __init__(self, ab, U=None, c=None):
        self.ab = ab
        self.U = np.empty((ab.shape[1], 0)) if U is None else U
        self.c = np.empty(0) if c is None else c

    @property
    def w(self):
        return (len(self.ab) - 1) // 2

    @classmethod
    def from_dense(cls, M):
        """A dense (N, N) array in the form: a band as wide as its
        outermost nonzero diagonal, and no low-rank term."""
        M = np.asarray(M, float)
        i, j = np.nonzero(M)
        w = int(np.max(np.abs(i - j))) if len(i) else 0
        a, inside = _band_rows(w, len(M))
        return cls(np.where(inside, M[a, np.arange(len(M))], 0.0))

    def dense(self):
        """The (N, N) array: the band, plus c_k·U_kU_kᵀ for each k."""
        n = self.ab.shape[1]
        a, inside = _band_rows(self.w, n)
        M = np.zeros((n, n))
        M[a[inside], np.broadcast_to(np.arange(n), a.shape)[inside]] = (
            self.ab[inside])
        for u, ck in zip(self.U.T, self.c):
            M += ck * np.outer(u, u)
        return M

    def __add__(self, other):
        v, o = self.w, other.w
        w = max(v, o)
        ab = np.zeros((2 * w + 1, self.ab.shape[1]))
        ab[w - v:w + v + 1] = self.ab
        ab[w - o:w + o + 1] += other.ab
        return _BandHessian(ab, np.concatenate((self.U, other.U), axis=1),
                            np.concatenate((self.c, other.c)))

    def __rmul__(self, s):
        return _BandHessian(s * self.ab, self.U, s * self.c)

    def take(self, idx):
        """H[idx][:, idx] in the form, for ascending ``idx``."""
        n, w = len(idx), self.w
        if n == self.ab.shape[1]:
            return self
        a, inside = _band_rows(w, n)
        diff = idx[a] - idx
        keep = inside & (np.abs(diff) <= w)
        ab = np.where(keep, self.ab[np.clip(w + diff, 0, 2 * w), idx], 0.0)
        return _BandHessian(ab, self.U[idx], self.c)

    def factor(self):
        """The LU factors of B by one ``dgbtrf``, and of the k×k capacitance
        matrix S = I + diag(c)·UᵀB⁻¹U by one ``dgesv`` when k > 0.  Returns
        solve(b) = H⁻¹b = y − B⁻¹U·S⁻¹·diag(c)·Uᵀy with y = B⁻¹b (Sherman-
        Morrison-Woodbury), or None for every b when B or S is exactly
        singular."""
        w, n = self.w, self.ab.shape[1]
        lu = np.zeros((3 * w + 1, n), order="F")
        lu[w:] = self.ab
        lu, piv, info = lapack.dgbtrf(lu, w, w, overwrite_ab=1)
        P = None
        if info == 0 and len(self.c):
            Z = lapack.dgbtrs(lu, w, w, self.U, piv)[0]
            S = np.eye(len(self.c)) + self.c[:, None] * (self.U.T @ Z)
            *_, T, info = lapack.dgesv(S, np.diag(self.c))
            P = Z @ T
        if info != 0:
            return lambda b: None
        U = self.U

        def solve(b):
            y = lapack.dgbtrs(lu, w, w, b, piv)[0]
            if P is not None:
                y -= P @ (U.T @ y)
            return y
        return solve


def _band_form(H):
    """A declared Hessian in the form: itself, or a dense array converted
    once with its measured bandwidth."""
    return H if isinstance(H, _BandHessian) else _BandHessian.from_dense(H)


def _call(fn, X, starts, errors):
    """fn on each row of the block X, whose rows belong to ``starts``: one
    block call, or one call per row when the block call raises.  A row
    that raises gets None, and its error is kept in ``errors`` under its
    start."""
    if not len(X):
        return []
    try:
        return list(fn(X))
    except Exception:
        out = []
        for x, i in zip(X, starts):
            try:
                out.append(fn(x))
            except Exception as exc:
                errors[i] = exc
                out.append(None)
        return out


def armijo_bb_rows(fun, grad, X0, max_steps, *, project=None):
    """Projected gradient descent with Barzilai-Borwein steps and Armijo
    backtracking from each row of X0, at most ``max_steps`` steps per row,
    all rows in lock-step: the trials of the rows still in their line
    search are scored by one ``fun`` call, and the rows that accept get
    their gradients from one ``grad`` call.  Everything else is done row by
    row as for one start, so each row stops where its own descent would
    stop.
    Returns (x, f, errors): the end point and value of each row, and the
    error of each row whose call raised (that row stops there).
    ``project`` must be idempotent."""
    X = np.array(X0, float)
    if project is not None:
        X = project(X)
    errors = {}
    x, fx = list(X), _call(fun, X, range(len(X)), errors)
    live = [i for i, f in enumerate(fx) if f is not None and math.isfinite(f)]
    g = dict(zip(live, _call(grad, X[live], live, errors)))
    live = [i for i in live if g[i] is not None]
    step = {i: 1.0 / max(1.0, float(np.linalg.norm(g[i]))) for i in live}
    t, n_steps = {}, dict.fromkeys(live, 0)

    def search(rows):
        # the rows not (projected) stationary, x - P(x - g) small, start a
        # line search from their BB step
        out = []
        for i in rows:
            d = g[i] if project is None else x[i] - project(x[i] - g[i])
            if not float(np.linalg.norm(d)) < 1e-12 and step[i] > 1e-18:
                t[i] = step[i]
                out.append(i)
        return out

    live = search(live)
    while live:
        XN = np.array([x[i] - t[i] * g[i] for i in live])
        if project is not None:
            XN = project(XN)
        fn = _call(fun, XN, live, errors)
        acc, back = [], []
        for j, i in enumerate(live):
            if fn[j] is None:
                continue
            if (math.isfinite(fn[j])
                    and fn[j] <= fx[i] - 1e-4 * (g[i] @ (x[i] - XN[j]))
                    and fn[j] < fx[i]):
                acc.append(j)
            else:
                t[i] *= 0.5
                if t[i] > 1e-18:
                    back.append(i)
        rows = [live[j] for j in acc]
        moved = []
        for j, i, gn in zip(acc, rows, _call(grad, XN[acc], rows, errors)):
            if gn is None:
                continue
            s = XN[j] - x[i]
            y = gn - g[i]
            sy = float(s @ y)
            step[i] = (float(s @ s) / sy if sy > 1e-18
                       else min(step[i] * 2.0, 1e6))
            x[i], fx[i], g[i] = XN[j], fn[j], gn
            n_steps[i] += 1
            if n_steps[i] < max_steps:
                moved.append(i)
        live = sorted(back + search(moved))
    return x, fx, errors


def _newton_step(fun, x, fx, idx, solve, gf, lo, hi):
    """The first of the points x + t·d (t = 1, 1/2, 1/4, clipped to the
    box), d = −H⁻¹gf on the coordinates ``idx`` by the factored Hessian's
    ``solve``, where f does not increase, as (x, f(x)); None when none
    does or H is singular.  When the decrease the quadratic model predicts,
    ½|gfᵀd|, is below the rounding of f, _F_ROUNDING·|f(x)|, no trial is
    evaluated and (x, fx) itself comes back: the polish is done."""
    d = solve(-gf)
    if d is None:
        return None
    if 0.5 * abs(float(gf @ d)) < _F_ROUNDING * abs(fx):
        return x, fx
    for t in (1.0, 0.5, 0.25):
        xn = x.copy()
        xn[idx] += t * d
        xn = np.clip(xn, lo, hi)
        fn = fun(xn)
        if math.isfinite(fn) and fn <= fx:
            return xn, fn
    return None


def newton_polish(fun, grad, x, fx, lo=-math.inf, hi=math.inf, *,
                  hess=None):
    """Chord Newton refinement on the free coordinates of a point of the
    box [lo, hi] (unbounded by default): a coordinate is held when it sits
    on a bound its gradient pushes against.  The Hessian is ``hess(x)``
    sliced to the free set when declared, else _fd_hessian; it is built
    and factored once when there is none yet or the free set has changed,
    and its factor is reused otherwise.  When every step size is rejected
    with a reused factor the Hessian is rebuilt once at the current point;
    when a fresh one is rejected the polish stops.  It also stops, before
    any rebuild or trial, once the predicted decrease ½|gfᵀd| of the
    Newton step d is below the rounding of f, 2⁻⁵²·|f(x)|: no comparison of
    computed values of f could confirm such a step.

    Exact (to rounding) in one step for quadratics; steps are only accepted
    when they do not increase f, so nonconvex objectives stay safe."""
    def build(x, idx):
        if hess is None:
            H = _BandHessian.from_dense(_fd_hessian(grad, x, idx))
        else:
            H = _band_form(hess(x)).take(idx)
        return H.factor()

    solve = held = None
    for _ in range(_NEWTON_ITERS):
        g = grad(x)
        at_lo = (x <= lo + 1e-12) & (g > 0)
        at_hi = (x >= hi - 1e-12) & (g < 0)
        free = ~(at_lo | at_hi)
        if not np.any(free):
            break
        gf = g[free]
        if float(np.linalg.norm(gf)) < 1e-14 * (1.0 + abs(fx)):
            break
        idx = np.flatnonzero(free)
        reused = held is not None and np.array_equal(idx, held)
        if not reused:
            solve, held = build(x, idx), idx
        step = _newton_step(fun, x, fx, idx, solve, gf, lo, hi)
        if step is None and reused:
            solve = build(x, idx)
            step = _newton_step(fun, x, fx, idx, solve, gf, lo, hi)
        if step is None or step[0] is x:
            break
        x, fx = step
    return x, fx


def compass_minimize(fun, x0, *, scale, project=None, f_atol=0.0):
    """Coordinate pattern search; derivative-free, deterministic.

    Full ±e_i sweep per iteration, move to the best improving point, halve
    the step when none improves.  ``f_atol`` ends the search once a sweep's
    best improvement drops below it (callers pass their acceptance
    threshold so the search does not chase sub-threshold gains)."""
    x = np.array(x0, float)
    if project is not None:
        x = project(x)
    fx = fun(x)
    if not math.isfinite(fx):
        return x, fx
    step = float(scale)
    n = len(x)
    for _ in range(400):
        best_f, best_x = fx, None
        for j in range(n):
            for s in (step, -step):
                xn = x.copy()
                xn[j] += s
                if project is not None:
                    xn = project(xn)
                fn = fun(xn)
                if math.isfinite(fn) and fn < best_f:
                    best_f, best_x = fn, xn
        if best_x is None:
            step *= 0.5
            if step < 1e-12:
                break
        else:
            if fx - best_f < f_atol and step < float(scale) / 8.0:
                x, fx = best_x, best_f
                break
            x, fx = best_x, best_f
    return x, fx


def minimize_multistart(fun, grad, starts, *, project=None, box=None,
                        hess=None, compass_scale=0.25, f_atol=0.0):
    """Best local minimum over the given starts.

    Smooth path (grad given): BB descent of all starts in lock-step.  When
    unconstrained (no ``project``) or on a box (``box`` = (lo, hi), the
    cone being the box [0, ∞)), at most _BB_STEPS_POLISHED steps, then a
    Newton polish per start (with ``hess``, the declared Hessian, when
    given); under any other projection at most _BB_STEPS steps, and the
    descent's end is kept.  Derivative free path: compass search.
    Returns (x, f(x), values), ``values`` the final f of each start.  When
    a start raises, the error of the first such start in start order is
    raised, as a run of one start after the other would."""
    X0 = np.array(starts, float)
    polish = box is not None or project is None
    if grad is not None:
        X, F, errors = armijo_bb_rows(
            fun, grad, X0, _BB_STEPS_POLISHED if polish else _BB_STEPS,
            project=project)
    best_x, best_f, values = None, math.inf, []
    for i, x0 in enumerate(X0):
        if grad is not None:
            if i in errors:
                raise errors[i]
            x, fx = X[i], float(F[i])
            if polish:
                x, fx = newton_polish(fun, grad, x, fx, *(box or ()),
                                      hess=hess)
        else:
            x, fx = compass_minimize(fun, x0, scale=compass_scale,
                                     project=project, f_atol=f_atol)
        values.append(fx)
        if math.isfinite(fx) and fx < best_f:
            best_x, best_f = x, fx
    if best_x is None:
        x = X0[0] if project is None else project(X0[0])
        return x, fun(x), values
    return best_x, best_f, values
