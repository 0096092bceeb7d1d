"""Deterministic local minimizers shared by the principle engines.

Everything here works on flat numpy arrays and plain callables; the engines
adapt GridFunction-valued functionals.  A ``grad`` takes one vector (N,) or
a block (k, N) of rows and returns the Euclidean gradient of each row,
bit-equal to its single-vector call; the Newton Hessians use the block.
All routines are pure and seedless: randomized multi-start decisions are
made by the callers, which thread one seeded generator through the whole
run.
"""

from __future__ import annotations

import math

import numpy as np


# Newton refinement: at most this many steps, Hessian by central
# differences of the gradient with step _FD_STEP·(1 + ‖x‖_∞)
_NEWTON_ITERS = 6
_FD_STEP = 1e-5


def _finite(x):
    return math.isfinite(x)


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


def armijo_bb_minimize(fun, grad, x0, *, project=None):
    """Projected gradient descent with Barzilai-Borwein steps and Armijo
    backtracking, at most 400 steps.  Returns (x, f(x)).  ``project`` must
    be idempotent."""
    x = np.array(x0, float)
    if project is not None:
        x = project(x)
    fx = fun(x)
    if not _finite(fx):
        return x, fx
    g = grad(x)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    for _ in range(400):
        gnorm = float(np.linalg.norm(g))
        if project is not None:
            # projected stationarity: x - P(x - g) small
            crit = float(np.linalg.norm(x - project(x - g)))
        else:
            crit = gnorm
        if crit < 1e-12:
            break
        t = step
        accepted = False
        while t > 1e-18:
            xn = x - t * g
            if project is not None:
                xn = project(xn)
            fn = fun(xn)
            if _finite(fn) and fn <= fx - 1e-4 * (g @ (x - xn)) and fn < fx:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        gn = grad(xn)
        s = xn - x
        y = gn - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-18 else min(step * 2.0, 1e6)
        x, fx, g = xn, fn, gn
    return x, fx


def newton_polish(fun, grad, x, fx):
    """Unconstrained Newton refinement with a finite-difference Hessian.

    Exact (to rounding) in one step for quadratics; steps are only accepted
    when they do not increase f, so nonconvex objectives stay safe."""
    n = len(x)
    for _ in range(_NEWTON_ITERS):
        g = grad(x)
        gn = float(np.linalg.norm(g))
        if gn < 1e-14 * (1.0 + abs(fx)):
            break
        H = _fd_hessian(grad, x, np.arange(n))
        try:
            d = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(H + 1e-10 * np.eye(n), -g, rcond=None)[0]
        improved = False
        for t in (1.0, 0.5, 0.25):
            xn = x + t * d
            fn = fun(xn)
            if _finite(fn) and fn <= fx:
                x, fx = xn, fn
                improved = True
                break
        if not improved:
            break
    return x, fx


def active_set_newton(fun, grad, x, fx, lo, hi):
    """Newton refinement on the free coordinates of a box-constrained point."""
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
        H = _fd_hessian(grad, x, idx)
        try:
            d = np.linalg.solve(H, -gf)
        except np.linalg.LinAlgError:
            break
        improved = False
        for t in (1.0, 0.5, 0.25):
            xn = x.copy()
            xn[idx] += t * d
            xn = np.clip(xn, lo, hi)
            fn = fun(xn)
            if _finite(fn) and fn <= fx:
                x, fx = xn, fn
                improved = True
                break
        if not improved:
            break
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
    if not _finite(fx):
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
                if _finite(fn) and fn < best_f:
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
                        compass_scale=0.25, f_atol=0.0):
    """Best local minimum over the given starts.

    Smooth path (grad given): BB descent, then Newton polish (active-set
    Newton for box domains, plain Newton when unconstrained).  Derivative
    free path: compass search.  Returns (x, f(x))."""
    best_x, best_f = None, math.inf
    for x0 in starts:
        x0 = np.asarray(x0, float)
        if grad is not None:
            x, fx = armijo_bb_minimize(fun, grad, x0, project=project)
            if box is not None:
                x, fx = active_set_newton(fun, grad, x, fx, box[0], box[1])
            elif project is None:
                x, fx = newton_polish(fun, grad, x, fx)
        else:
            x, fx = compass_minimize(fun, x0, scale=compass_scale,
                                     project=project, f_atol=f_atol)
        if _finite(fx) and fx < best_f:
            best_x, best_f = x, fx
    if best_x is None:
        x0 = np.asarray(starts[0], float)
        return (project(x0) if project is not None else x0), fun(x0)
    return best_x, best_f
