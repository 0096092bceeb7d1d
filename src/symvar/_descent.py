"""Deterministic local minimizers shared by the principle engines.

Everything here works on flat numpy arrays and plain callables; the engines
adapt GridFunction-valued functionals.  A ``grad`` takes one vector (N,) or
a block (k, N) of rows and returns the Euclidean gradient of each row,
bit-equal to its single-vector call; the Newton Hessians use the block.
The multi-start descent runs its starts in lock-step as the rows of one
block: ``fun``, ``grad`` and ``project`` also take a block, each row
bit-equal to its single-vector call, and the Armijo test, the BB step
and the stop rules run row by row on the single-vector expressions, so
row i follows the descent from start i alone bit for bit.  Unconstrained
and on a box (the nonnegative cone included) each start's descent stops
after _BB_STEPS_POLISHED = 20 BB steps and a Newton polish finishes it;
under a custom projection there is no polish and the descent runs up to
_BB_STEPS = 400 steps.  All routines are pure and seedless: randomized
multi-start decisions are made by the callers, which thread one seeded
generator through the whole run.
"""

from __future__ import annotations

import math

import numpy as np


# Newton refinement: at most this many steps, Hessian by central
# differences of the gradient with step _FD_STEP·(1 + ‖x‖_∞)
_NEWTON_ITERS = 6
_FD_STEP = 1e-5

# BB steps per start in minimize_multistart: a short run when a Newton
# polish follows (Newton is affine-invariant, so it finishes what the
# ill-conditioned Euclidean descent leaves), the long one when none does
_BB_STEPS_POLISHED = 20
_BB_STEPS = 400


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
    live = [i for i, f in enumerate(fx) if f is not None and _finite(f)]
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
            if (_finite(fn[j])
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


def newton_polish(fun, grad, x, fx, lo=-math.inf, hi=math.inf):
    """Newton refinement with a finite-difference Hessian on the free
    coordinates of a point of the box [lo, hi] (unbounded by default): a
    coordinate is held when it sits on a bound its gradient pushes against.

    Exact (to rounding) in one step for quadratics; steps are only accepted
    when they do not increase f, so nonconvex objectives stay safe."""
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
        for t in (1.0, 0.5, 0.25):
            xn = x.copy()
            xn[idx] += t * d
            xn = np.clip(xn, lo, hi)
            fn = fun(xn)
            if _finite(fn) and fn <= fx:
                x, fx = xn, fn
                break
        else:
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

    Smooth path (grad given): BB descent of all starts in lock-step.  When
    unconstrained (no ``project``) or on a box (``box`` = (lo, hi), the
    cone being the box [0, ∞)), at most _BB_STEPS_POLISHED steps, then a
    Newton polish per start; under any other projection at most _BB_STEPS
    steps, and the descent's end is kept.  Derivative free path: compass
    search.
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
                x, fx = newton_polish(fun, grad, x, fx, *(box or ()))
        else:
            x, fx = compass_minimize(fun, x0, scale=compass_scale,
                                     project=project, f_atol=f_atol)
        values.append(fx)
        if _finite(fx) and fx < best_f:
            best_x, best_f = x, fx
    if best_x is None:
        x = X0[0] if project is None else project(X0[0])
        return x, fun(x), values
    return best_x, best_f, values
