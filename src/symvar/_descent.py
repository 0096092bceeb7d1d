"""Deterministic local minimizers shared by the principle engines.

Everything here works on flat numpy arrays and plain callables; the engines
adapt GridFunction-valued functionals.  A ``grad`` takes one vector (N,) or
a block (k, N) of rows and returns the Euclidean gradient of each row,
bit-equal to its single-vector call; the finite-difference Hessians use
the block.  The multi-start descent runs its starts in lock-step as the
rows of one block: ``fun``, ``grad`` and ``project`` also take a block,
each row bit-equal to its single-vector call, and the Armijo test, the BB
step and the stop rules run row by row on the single-vector expressions,
so row i follows the descent from start i alone bit for bit.  Without a
gradient the starts run the compass search in lock-step the same way
(``compass_rows``): one sweep of every active start is one ``project``
and one ``fun`` call on the block of their neighbours.
Unconstrained and on a box (the nonnegative cone included) each start's
descent stops after _BB_STEPS_POLISHED = 5 BB steps and a Newton polish
finishes it, again all starts in lock-step (``newton_rows``): each Newton
round is one ``grad`` call on the block of every row still polishing, each
trial round one ``fun`` call on the rows still in their line search, and
the free set, the factor and the step rules stay row by row; under a
custom projection there is no polish and the descent runs up to
_BB_STEPS = 400 steps.  On every path a start's descent also ends at f's
rounding floor: once the decrease its next trial predicts is below
_F_ROUNDING·|f(x)|, the same rule that ends the polish.

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
_BB_STEPS_POLISHED = 5
_BB_STEPS = 400

# the compass search: at most this many sweeps per start, and at most this
# many values per block of neighbours it scores (bounds the memory)
_COMPASS_SWEEPS = 400
_COMPASS_VALUES = 2 ** 17


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
    stop.  A row also stops at f's rounding floor, like the Newton polish:
    once the decrease its next trial predicts, t·‖d‖² with d = g, or
    d = x − P(x − g) under a projection (at most t·gᵀd there), is below
    _F_ROUNDING·|f(x)|, no comparison of computed values of f could
    confirm the trial.
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
    t, dd, n_steps = {}, {}, dict.fromkeys(live, 0)

    def above_floor(i):
        # the next trial of row i may still show a decrease in f
        return t[i] > 1e-18 and t[i] * dd[i] >= _F_ROUNDING * abs(fx[i])

    def search(rows):
        # the rows not (projected) stationary, x - P(x - g) small, start a
        # line search from their BB step
        out = []
        for i in rows:
            d = g[i] if project is None else x[i] - project(x[i] - g[i])
            nd = float(np.linalg.norm(d))
            t[i], dd[i] = step[i], nd * nd
            if not nd < 1e-12 and above_floor(i):
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
                if above_floor(i):
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


def _newton_step(x, fx, idx, solve, gf, lo, hi):
    """The first of the points x + t·d (t = 1, 1/2, 1/4, clipped to the
    box), d = −H⁻¹gf on the coordinates ``idx`` by the factored Hessian's
    ``solve``, where f does not increase, as (x, f(x)); None when none
    does or H is singular.  When the decrease the quadratic model predicts,
    ½|gfᵀd|, is below the rounding of f, _F_ROUNDING·|f(x)|, no trial is
    evaluated and (x, fx) itself comes back: the polish is done.  A
    generator, as ``_polish`` is: it yields ("fun", trial) and is sent the
    trial's value."""
    d = solve(-gf)
    if d is None:
        return None
    if 0.5 * abs(float(gf @ d)) < _F_ROUNDING * abs(fx):
        return x, fx
    for t in (1.0, 0.5, 0.25):
        xn = x.copy()
        xn[idx] += t * d
        xn = np.clip(xn, lo, hi)
        fn = yield "fun", xn
        if math.isfinite(fn) and fn <= fx:
            return xn, fn
    return None


def _polish(grad, x, fx, lo, hi, hess):
    """The polish of one start (see newton_rows) as a generator: it yields
    ("grad", x) at each Newton step and ("fun", trial) at each trial,
    is sent the value at that point, and returns the end (x, f(x))."""
    def build(x, idx):
        if hess is None:
            H = _BandHessian.from_dense(_fd_hessian(grad, x, idx))
        else:
            H = _band_form(hess(x)).take(idx)
        return H.factor()

    solve = held = None
    for _ in range(_NEWTON_ITERS):
        g = yield "grad", x
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
        step = yield from _newton_step(x, fx, idx, solve, gf, lo, hi)
        if step is None and reused:
            solve = build(x, idx)
            step = yield from _newton_step(x, fx, idx, solve, gf, lo, hi)
        if step is None or step[0] is x:
            break
        x, fx = step
    return x, fx


def newton_rows(fun, grad, X, F, lo=-math.inf, hi=math.inf, *, hess=None):
    """Chord Newton refinement of each row of X (f values F) on its free
    coordinates in the box [lo, hi] (unbounded by default), all rows in
    lock-step: a coordinate is held when it sits on a bound its gradient
    pushes against.  Each Newton round is one ``grad`` call on every row
    still polishing, and each trial round one ``fun`` call on every row
    still in its line search (t = 1, 1/2, 1/4); the rest runs row by row,
    so each row ends on the bytes of its own polish.  A row's Hessian is
    ``hess(x)`` sliced to the free set when declared, else _fd_hessian; it
    is built and factored once when there is none yet or the free set has
    changed, and its factor is reused otherwise.  When every step size is
    rejected with a reused factor the Hessian is rebuilt once at the
    current point; when a fresh one is rejected the row stops.  It also
    stops, before any rebuild or trial, once the predicted decrease
    ½|gfᵀd| of the Newton step d is below the rounding of f,
    2⁻⁵²·|f(x)|: no comparison of computed values of f could confirm such
    a step.
    Exact (to rounding) in one step for quadratics; steps are only accepted
    when they do not increase f, so nonconvex objectives stay safe.
    Returns (x, f, errors) as armijo_bb_rows does."""
    x, fx, errors = list(X), list(F), {}
    rows = [_polish(grad, xi, fi, lo, hi, hess) for xi, fi in zip(x, fx)]
    calls, wait = {"fun": fun, "grad": grad}, {}

    def resume(i, value):
        try:
            wait[i] = rows[i].send(value)
        except StopIteration as stop:
            x[i], fx[i] = stop.value
        except Exception as exc:
            errors[i] = exc

    for i in range(len(rows)):
        resume(i, None)
    while wait:
        # the trials of every row in a line search, then the gradients of
        # the rows at their next Newton step
        kind = ("fun" if any(k == "fun" for k, _ in wait.values())
                else "grad")
        ids = [i for i in sorted(wait) if wait[i][0] == kind]
        P = np.array([wait.pop(i)[1] for i in ids])
        for i, value in zip(ids, _call(calls[kind], P, ids, errors)):
            if value is not None:
                resume(i, value)
    return x, fx, errors


def compass_rows(fun, X0, scale, *, project=None, f_atol=0.0):
    """Coordinate pattern search from each row of X0, derivative free and
    deterministic, all rows in lock-step.  A sweep of one start scores its
    2N neighbours x ± step·e_j (j in order, +step before −step), each
    projected when ``project`` is given, moves to the first strictly
    lowest finite value below f(x), and halves the step when none is lower
    (the search ends once the step is below 1e-12).  It also ends after a
    move that gains less than ``f_atol`` while the step is below scale/8
    (callers pass their acceptance threshold, so the search does not chase
    sub-threshold gains), and after _COMPASS_SWEEPS sweeps; a start whose
    projected value is not finite does not move.  One sweep of all active
    starts is one ``project`` and one ``fun`` call on the block of their
    neighbours, cut into blocks of at most _COMPASS_VALUES values; the
    choice of the move and the step rules run row by row, so each row ends
    where the search from its start alone would end.
    Returns (x, f, errors) as armijo_bb_rows does; a start's error is the
    first its own search would meet (rows in sweep order, each projected
    before it is scored), and that start stops there."""
    X = np.array(X0, float)
    k, n = X.shape
    errors = {}
    x = list(X) if project is None else _call(project, X, range(k), errors)
    live = [i for i in range(k) if i not in errors]
    fx = [None] * k
    for i, f in zip(live, _call(fun, np.array([x[i] for i in live]),
                                live, errors)):
        fx[i] = f
    live = [i for i in live if fx[i] is not None and math.isfinite(fx[i])]
    step = dict.fromkeys(live, float(scale))
    # neighbour q of a start moves coordinate q // 2 by +step (q even) or
    # −step (q odd)
    coord = np.repeat(np.arange(n), 2)
    sign = np.tile([1.0, -1.0], n)
    per = max(1, _COMPASS_VALUES // n)
    for _ in range(_COMPASS_SWEEPS):
        if not live:
            break
        owner = np.repeat(np.arange(len(live)), 2 * n)
        cols = np.tile(coord, len(live))
        moves = np.repeat([step[i] for i in live], 2 * n) * np.tile(
            sign, len(live))
        XL = np.array([x[i] for i in live])
        best_f = [fx[i] for i in live]
        best_x = [None] * len(live)
        for a in range(0, len(owner), per):
            b = min(a + per, len(owner))
            B = XL[owner[a:b]]
            B[np.arange(b - a), cols[a:b]] += moves[a:b]
            failed = {}
            P = B if project is None else _call(project, B, range(a, b),
                                                failed)
            if failed:
                # a row whose projection raised is not scored
                ok = [r for r in range(a, b) if r not in failed]
                vals = _call(fun, np.array([P[r - a] for r in ok]), ok,
                             failed)
            else:
                ok = range(a, b)
                vals = _call(fun, np.asarray(P), ok, failed)
            # +inf for a row whose call raised or whose value is not finite
            V = np.full(b - a, math.inf)
            V[np.asarray(ok, int) - a] = [math.inf if f is None else f
                                          for f in vals]
            V[~np.isfinite(V)] = math.inf
            for r in sorted(failed):
                errors.setdefault(live[owner[r]], failed[r])
            # each start's first strict minimum over its rows in this block,
            # against the best of its earlier blocks
            lo = a
            while lo < b:
                s = owner[lo]
                hi = min((s + 1) * 2 * n, b)
                m = lo - a + int(np.argmin(V[lo - a:hi - a]))
                if V[m] < best_f[s]:
                    best_f[s], best_x[s] = float(V[m]), np.array(P[m])
                lo = hi
        nxt = []
        for s, i in enumerate(live):
            if i in errors:
                continue
            if best_x[s] is None:
                step[i] *= 0.5
                if step[i] < 1e-12:
                    continue
            else:
                done = (fx[i] - best_f[s] < f_atol
                        and step[i] < float(scale) / 8.0)
                x[i], fx[i] = best_x[s], best_f[s]
                if done:
                    continue
            nxt.append(i)
        live = nxt
    return x, fx, errors


def minimize_multistart(fun, grad, starts, *, project=None, box=None,
                        hess=None, compass_scale=0.25, f_atol=0.0):
    """Best local minimum over the given starts.

    Smooth path (grad given): BB descent of all starts in lock-step.  When
    unconstrained (no ``project``) or on a box (``box`` = (lo, hi), the
    cone being the box [0, ∞)), at most _BB_STEPS_POLISHED steps, then the
    Newton polish of all starts in lock-step (``newton_rows``, with
    ``hess``, the declared Hessian, when given); under any other
    projection at most _BB_STEPS steps, and the descent's end is kept.
    Derivative free path: the compass search of all starts in lock-step
    (``compass_rows``, steps from ``compass_scale``, stopped below
    ``f_atol`` gains); ``fun`` and ``project`` then take the block of
    every active start's neighbours.
    Returns (x, f(x), values), ``values`` the final f of each start.  When
    a start raises, the error of the first such start in start order is
    raised, as a run of one start after the other would."""
    X0 = np.array(starts, float)
    polish = grad is not None and (box is not None or project is None)
    if grad is None:
        X, F, errors = compass_rows(fun, X0, compass_scale, project=project,
                                    f_atol=f_atol)
    else:
        X, F, errors = armijo_bb_rows(
            fun, grad, X0, _BB_STEPS_POLISHED if polish else _BB_STEPS,
            project=project)
    if polish:
        ok = [i for i in range(len(X0)) if i not in errors]
        XP, FP, failed = newton_rows(fun, grad, [X[i] for i in ok],
                                     [float(F[i]) for i in ok],
                                     *(box or ()), hess=hess)
        for j, i in enumerate(ok):
            X[i], F[i] = XP[j], FP[j]
        errors.update((ok[j], exc) for j, exc in failed.items())
    best_x, best_f, values = None, math.inf, []
    for i in range(len(X0)):
        if i in errors:
            raise errors[i]
        x, fx = X[i], float(F[i])
        values.append(fx)
        if math.isfinite(fx) and fx < best_f:
            best_x, best_f = x, fx
    if best_x is None:
        x = X0[0] if project is None else project(X0[0])
        return x, fun(x), values
    return best_x, best_f, values
