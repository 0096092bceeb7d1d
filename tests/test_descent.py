"""The lock-step multi-start descent against one start at a time.

``solo_armijo_bb`` and ``solo_multistart`` are the descent loop that
``_descent.armijo_bb_rows`` replaced, kept here as the reference: every
start of the lock-step descent must end on the same bytes and the same
value as its own run under its path's step cap (5 BB steps where a
Newton polish follows, 400 under a custom projection) and f's rounding
floor, and errors must surface in start order.  ``solo_newton_polish`` is
the one-start chord Newton polish that ``_descent.newton_rows`` replaced,
and ``solo_compass`` the same for the derivative-free path: the
single-start pattern search that ``_descent.compass_rows`` replaced.
"""

import inspect
import json
import math

import numpy as np
import pytest
from scipy.optimize import nnls

import cli_cases
from conftest import quad_X, sym_center
from test_applications import _criterion9_drop, _diag_ray_C, _halfplane_C
from symvar import (IntegrandError, InvalidArgument, SymvarError, _descent,
                    make_grid, symmetric_ekeland, symmetric_zhong)
from symvar import applications as ap
from symvar.cli import (FUNCTIONALS, SETS, _check, _fn_object, _to_grid,
                        run_config)
from symvar.funcspace import (Functional, _pow_rows, gram_matrix,
                              laplacian_matrix, theta)
from symvar.principles import (VMetric, XMetric, _f_arr, _on_domain,
                               box_set, estimate_inf, nonneg_cone,
                               whole_space)


# ---------------------------------------------------------------------------
# the reference: one start at a time

def path_cap(project, box):
    """The BB step cap of a path: 5 where a Newton polish follows (no
    projection, or a box), 400 under any other projection."""
    return 5 if box is not None or project is None else 400


def solo_armijo_bb(fun, grad, x0, max_steps, project=None):
    """The single-start BB/Armijo loop, at most ``max_steps`` steps, each
    line search ended at f's rounding floor (its trial's predicted
    decrease t·‖d‖² below 2⁻⁵²·|f(x)|); returns (x, f(x), steps, why)."""
    x = np.array(x0, float)
    if project is not None:
        x = project(x)
    fx = fun(x)
    if not math.isfinite(fx):
        return x, fx, 0, "nonfinite"
    g = grad(x)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    why = "cap"
    for k in range(max_steps):
        if project is not None:
            crit = float(np.linalg.norm(x - project(x - g)))
        else:
            crit = float(np.linalg.norm(g))
        if crit < 1e-12:
            why = "stationary"
            break
        t = step
        accepted = False
        while t > 1e-18:
            if t * (crit * crit) < 2.0 ** -52 * abs(fx):
                why = "floor"
                break
            xn = x - t * g
            if project is not None:
                xn = project(xn)
            fn = fun(xn)
            if (math.isfinite(fn) and fn <= fx - 1e-4 * (g @ (x - xn))
                    and fn < fx):
                accepted = True
                break
            t *= 0.5
        if why == "floor":
            break
        if not accepted:
            why = "linesearch"
            break
        gn = grad(xn)
        s = xn - x
        y = gn - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-18 else min(step * 2.0, 1e6)
        x, fx, g = xn, fn, gn
    else:
        k = max_steps
    return x, fx, k, why


def solo_multistart(fun, grad, starts, project=None, box=None, hess=None):
    """The multi-start loop: descent under the path's cap, then Newton
    polish, start by start.  Returns (x, f(x), values)."""
    cap = path_cap(project, box)
    return polish_and_pick(fun, grad, (solo_armijo_bb(fun, grad, x0, cap,
                                                      project)
                                       for x0 in starts), project, box, hess)


def solo_newton_step(fun, x, fx, idx, solve, gf, lo, hi):
    """The trials of one Newton step: the first of x + t·d (t = 1, 1/2,
    1/4, clipped to the box), d = −H⁻¹gf, where f does not increase, as
    (x, f(x)); (x, fx) itself, with no trial, when ½|gfᵀd| is below
    2⁻⁵²·|f(x)|; None when no trial passes or H is singular."""
    d = solve(-gf)
    if d is None:
        return None
    if 0.5 * abs(float(gf @ d)) < 2.0 ** -52 * abs(fx):
        return x, fx
    for t in (1.0, 0.5, 0.25):
        xn = x.copy()
        xn[idx] += t * d
        xn = np.clip(xn, lo, hi)
        fn = fun(xn)
        if math.isfinite(fn) and fn <= fx:
            return xn, fn
    return None


def solo_newton_polish(fun, grad, x, fx, lo=-math.inf, hi=math.inf, *,
                       hess=None, trace=None):
    """The one-start chord Newton polish on the box [lo, hi]: at most 6
    steps on the free coordinates (those not on a bound their gradient
    pushes against), the Hessian (declared, else _fd_hessian) built and
    factored when the free set changes, its factor reused otherwise and
    rebuilt once when every step size with a reused one is rejected; the
    polish stops when a fresh factor is rejected and at f's rounding
    floor.  Returns (x, f(x)); ``trace``, a list, gets how each step
    ended: "built", "reused" or "rebuilt" when it moved (fresh, kept, or
    rebuilt after the kept one's trials were all rejected), else "held",
    "stationary", "floor" or "rejected", or "iters" after 6 steps."""
    trace = [] if trace is None else trace

    def build(x, idx):
        if hess is None:
            H = _descent._BandHessian.from_dense(
                _descent._fd_hessian(grad, x, idx))
        else:
            H = _descent._band_form(hess(x)).take(idx)
        return H.factor()

    solve = held = None
    for _ in range(6):
        g = grad(x)
        free = ~(((x <= lo + 1e-12) & (g > 0)) | ((x >= hi - 1e-12) & (g < 0)))
        if not np.any(free):
            trace.append("held")
            break
        gf = g[free]
        if float(np.linalg.norm(gf)) < 1e-14 * (1.0 + abs(fx)):
            trace.append("stationary")
            break
        idx = np.flatnonzero(free)
        how = "reused" if held is not None and np.array_equal(idx,
                                                              held) else "built"
        if how == "built":
            solve, held = build(x, idx), idx
        step = solo_newton_step(fun, x, fx, idx, solve, gf, lo, hi)
        if step is None and how == "reused":
            solve, how = build(x, idx), "rebuilt"
            step = solo_newton_step(fun, x, fx, idx, solve, gf, lo, hi)
        if step is None or step[0] is x:
            trace.append("rejected" if step is None else "floor")
            break
        trace.append(how)
        x, fx = step
    else:
        trace.append("iters")
    return x, fx


def polish_and_pick(fun, grad, ends, project, box, hess=None):
    """Newton polish of each descent end (x, f(x), ...) in turn and the
    first strict best."""
    best_x, best_f, values = None, math.inf, []
    for x, fx, *_ in ends:
        if box is not None or project is None:
            x, fx = solo_newton_polish(fun, grad, x, float(fx),
                                       *(box or ()), hess=hess)
        values.append(float(fx))
        if math.isfinite(fx) and fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f, values


def same(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


# ---------------------------------------------------------------------------
# the cases

def _cli(space, name, **given):
    fn = FUNCTIONALS[name]
    params = _check({"name": name, **given}, _fn_object(name), "functional")
    _to_grid(space, params, fn.params, "functional")
    return fn.build(space, params)


def _functionals(space, rng):
    """(label, Functional, domain, stationary start) for each case."""
    damping, cubic = _cli(space, "linear_damping"), _cli(space, "cubic")
    box = box_set(space, -0.5, 0.5)
    center = np.abs(rng.standard_normal(space.n_cells))
    zero = np.zeros(space.n_cells)
    return [
        ("quadratic", _cli(space, "quadratic", center=list(center)),
         whole_space(space), center),
        ("double_well", _cli(space, "double_well", radius=0.7),
         whole_space(space), zero),
        ("forced", ap.quasilinear_functional(
            ap.forced_dirichlet_integrand(1.0), space), whole_space(space), zero),
        ("forced/cone", ap.quasilinear_functional(
            ap.forced_dirichlet_integrand(1.0), space), nonneg_cone(space), zero),
        ("damping", ap.semilinear_functional(damping, space),
         whole_space(space), zero),
        ("cubic/box", ap.semilinear_functional(cubic, space, box), box, zero),
        # the box functional off its box: +inf there, no projection
        ("cubic/box-space", ap.semilinear_functional(cubic, space, box),
         whole_space(space), zero),
        # a custom projection: no polish, the long descent
        ("forced/halfplane", ap.quasilinear_functional(
            ap.forced_dirichlet_integrand(1.0), space),
         SETS["halfplane_sum"]({"level": 0.25}), zero),
    ]


def _phis(f, space, domain, rng):
    """The Ekeland chain's penalized φ and the Borwein-Preiss φ with
    p = 2, built as the engines build them."""
    fun, grad_f, project, box = _on_domain(f, space, domain)
    metric, gram, sigma = XMetric(space), gram_matrix(space), 0.1
    vk = domain.project(rng.standard_normal(space.n_cells))

    def chain_phi(w):
        return fun(w) + sigma * 1.0 * metric.dist(w, vk)

    def chain_grad(w):
        return grad_f(w) + sigma * metric.penalty_grad(w, vk)

    def chain_hess(w):
        return (_descent._band_form(f.hessian(w))
                + sigma * metric.penalty_hessian(w, vk))

    raw = _f_arr(f, space)

    def bp_phi(w):
        return raw(w) + sigma * _pow_rows(metric.dist(w, vk), 2)

    def bp_grad(w):
        pen = np.matmul(gram, (w - vk)[..., None])[..., 0]
        return grad_f(w) + 2.0 * sigma * pen

    def bp_hess(w):
        return _descent._band_form(f.hessian(w)) + (
            2.0 * sigma) * _descent._BandHessian(space._bands[1])

    return [("chain", chain_phi, chain_grad, project, box, vk, chain_hess),
            ("bp", bp_phi, bp_grad, project, box, vk, bp_hess)]


def _starts(space, rng, stationary):
    k = space.n_cells
    return np.array([stationary,
                     2.0 * rng.standard_normal(k),
                     np.full(k, 0.3),
                     rng.uniform(0.6, 1.5, k)])


def _check_rows(label, fun, grad, starts, project, box, seen):
    cap = path_cap(project, box)
    X, F, errors = _descent.armijo_bb_rows(fun, grad, starts, cap,
                                           project=project)
    assert errors == {}, label
    ends = [solo_armijo_bb(fun, grad, x0, cap, project) for x0 in starts]
    for i, (x, fx, steps, why) in enumerate(ends):
        seen.add((cap, why))
        assert same(X[i], x) and same(F[i], fx), (label, i, steps, why)
    lock = _descent.minimize_multistart(fun, grad, starts, project=project,
                                        box=box)
    solo = polish_and_pick(fun, grad, ends, project, box)
    assert same(lock[0], solo[0]) and same(lock[1], solo[1]), label
    assert same(lock[2], solo[2]), label


@pytest.mark.parametrize("n", [2, 16, 128])
def test_lockstep_descent_equals_solo_runs(n):
    space = make_grid(1, n, 1.0, 2, 4)
    rng = np.random.default_rng(n)
    seen = set()
    for label, f, domain, stationary in _functionals(space, rng):
        fun, grad, project, box = _on_domain(f, space, domain)
        starts = _starts(space, rng, stationary)
        if label == "cubic/box-space":
            starts[1] = np.full(n, 0.9)           # outside the box: f = +inf
        _check_rows(label, fun, grad, starts, project, box, seen)
        if label in ("forced/cone", "cubic/box"):
            for name, phi, gphi, proj, bx, vk, _ in _phis(f, space, domain,
                                                          rng):
                phi_starts = _starts(space, rng, vk)
                _check_rows(f"{label}/{name}", phi, gphi, phi_starts, proj,
                            bx, seen)
    # starts stop at different steps, seen as (cap, why): on the polished
    # paths stationary at once, non-finite at once and at the 5-step cap;
    # under the custom projection stationary at n = 2, at f's rounding
    # floor past n = 2 and at the 400-step cap at n = 128.  No line search
    # halves its step down to 1e-18: the floor ends it first
    assert {(5, "stationary"), (5, "nonfinite"), (5, "cap")} <= seen
    assert ((400, "stationary") in seen) == (n == 2)
    assert ((400, "floor") in seen) == (n > 2)
    assert ((400, "cap") in seen) == (n == 128)
    assert not any(why == "linesearch" for _, why in seen)


# ---------------------------------------------------------------------------
# the Newton polish: the lock-step rows against one start at a time

def _steep_well():
    """Σ|v_j|^1.2 on rows, with its gradient and its diagonal Hessian.
    The curvature grows toward the minimum, so every trial with a kept
    factor overshoots and is rejected while the rebuilt factor's step of
    1/4 passes: the polish's rebuild path."""
    def fun(W):
        return np.add.reduce(np.abs(W) ** 1.2, axis=-1)

    def grad(W):
        return 1.2 * np.sign(W) * np.abs(W) ** 0.2

    def hess(x):
        return _descent._BandHessian(0.24 * np.abs(x)[None] ** -0.8)

    return fun, grad, hess


def _check_polish(label, fun, grad, hess, X, box, seen):
    """Each row of one newton_rows call from the points X against the solo
    polish from that row; adds how the solo steps ended to ``seen``."""
    F = [float(v) for v in fun(np.array(X))]
    XP, FP, errors = _descent.newton_rows(fun, grad, X, F, *(box or ()),
                                          hess=hess)
    assert errors == {}, label
    for i, (x, fx) in enumerate(zip(X, F)):
        trace = []
        xs, fs = solo_newton_polish(fun, grad, x, fx, *(box or ()),
                                    hess=hess, trace=trace)
        seen.update(trace)
        assert same(XP[i], xs) and same(FP[i], fs), (label, i, trace)


@pytest.mark.parametrize("n", [2, 16, 128])
def test_lockstep_polish_equals_solo_polish(n):
    # the descent test's functionals on the space, the cone and the box,
    # the chain's φ and Borwein-Preiss's φ, each with its declared Hessian
    # and with the finite-difference one, polished from the BB ends and
    # from the starts themselves, and the steep well: every row of the
    # lock-step polish ends on the bytes and value of its own polish
    space = make_grid(1, n, 1.0, 2, 4)
    rng = np.random.default_rng(n + 1)
    seen = set()
    for label, f, domain, stationary in _functionals(space, rng):
        fun, grad, project, box = _on_domain(f, space, domain)
        if project is not None and box is None:
            continue                    # no polish under a custom projection
        cases = [(label, fun, grad, f.hessian, box, stationary)]
        if label in ("forced/cone", "cubic/box"):
            cases += [(f"{label}/{name}", phi, gphi, hphi, bx, vk)
                      for name, phi, gphi, _, bx, vk, hphi
                      in _phis(f, space, domain, rng)]
        for name, phi, gphi, hphi, bx, center in cases:
            starts = _starts(space, rng, center)
            if project is not None:
                starts = project(starts)
            X, _, _ = _descent.armijo_bb_rows(phi, gphi, starts, 5,
                                              project=project)
            for hess in (hphi, None):
                _check_polish(name, phi, gphi, hess, X, bx, seen)
                _check_polish(name, phi, gphi, hess, list(starts), bx, seen)
    fun, grad, hess = _steep_well()
    starts = rng.uniform(0.5, 2.0, (4, n)) * rng.choice([-1.0, 1.0], (4, n))
    for h in (hess, None):
        _check_polish("steep", fun, grad, h, list(starts), None, seen)
    # the rows stop by every rule: at f's rounding floor, stationary, after
    # a rejected fresh factor and after 6 steps, having moved with a fresh,
    # a kept and a rebuilt factor
    assert {"floor", "stationary", "rejected", "iters", "built", "reused",
            "rebuilt"} <= seen, seen


def _steep_tagged():
    """v₀² + 30·v₁² + 900·v₂² with the last cell a tag that the descent
    never moves: the BB descent stays above 1e-8 and the polish's first
    step goes below.  Tag 1 raises IntegrandError in f below 1e-8 (a
    polish trial), tag 2 in the gradient there (the next Newton round),
    tag 3 in the Hessian (the first build)."""
    w = np.array([1.0, 30.0, 900.0])

    def fun(W):
        q = np.add.reduce(w * W[..., :3] * W[..., :3], axis=-1)
        if np.any((W[..., 3] == 1.0) & (q < 1e-8)):
            raise IntegrandError("tag 1")
        return q

    def grad(W):
        if np.any((W[..., 3] == 2.0) & (fun(W) < 1e-8)):
            raise IntegrandError("tag 2")
        G = np.zeros_like(W)
        G[..., :3] = 2.0 * w * W[..., :3]
        return G

    def hess(x):
        if x[3] == 3.0:
            raise IntegrandError("tag 3")
        # the tag's entry is any positive number: its gradient is 0
        return _descent._BandHessian(np.append(2.0 * w, 1.0)[None])

    return fun, grad, hess


@pytest.mark.parametrize("tags,match", [
    ((0, 1, 0, 3, 2), "tag 1"),
    ((0, 3, 2, 1), "tag 3"),
    ((0, 2, 3, 1), "tag 2"),
])
def test_lockstep_polish_raises_the_error_of_the_first_start(tags, match):
    fun, grad, hess = _steep_tagged()
    starts = np.array([[0.9, -1.1, 0.8, t] for t in tags])
    cap = path_cap(None, None)
    ends = [solo_armijo_bb(fun, grad, x0, cap) for x0 in starts]
    assert all(fx > 1e-8 for _, fx, *_ in ends)
    with pytest.raises(IntegrandError, match=match) as solo:
        solo_multistart(fun, grad, starts, hess=hess)
    with pytest.raises(IntegrandError, match=match) as lock:
        _descent.minimize_multistart(fun, grad, starts, hess=hess)
    assert str(lock.value) == str(solo.value)
    # each tagged row leaves the block with its own error, the others go
    # on to their own end points
    X, F, errors = _descent.newton_rows(fun, grad, [x for x, *_ in ends],
                                        [fx for _, fx, *_ in ends],
                                        hess=hess)
    assert {i: str(e) for i, e in errors.items()} == {
        i: f"tag {t}" for i, t in enumerate(tags) if t}
    for i in (i for i, t in enumerate(tags) if not t):
        x, fx = solo_newton_polish(fun, grad, *ends[i][:2], hess=hess)
        assert same(X[i], x) and same(F[i], fx) and fx < 1e-8


def test_polish_grad_calls_do_not_grow_with_starts(monkeypatch):
    # the polish phase of minimize_multistart (every gradient call made
    # outside the BB descent) takes one block gradient call per Newton
    # round: 3 and 12 starts of the forced Dirichlet energy on 1D n = 128
    # make the same number, at most _NEWTON_ITERS (the declared Hessian's
    # rebuilds call no gradient)
    space = make_grid(1, 128, 1.0, 2, 4)
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.0), space)
    fun, grad, _, _ = _on_domain(f, space, whole_space(space))
    real, in_descent = _descent.armijo_bb_rows, [False]

    def descent(*args, **kwargs):
        in_descent[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            in_descent[0] = False

    monkeypatch.setattr(_descent, "armijo_bb_rows", descent)
    calls = []

    def counted(W):
        if not in_descent[0]:
            calls.append(len(np.atleast_2d(W)))
        return grad(W)

    rng = np.random.default_rng(5)
    counts = []
    for k in (3, 12):
        calls.clear()
        _descent.minimize_multistart(fun, counted,
                                     rng.standard_normal((k, 128)),
                                     hess=f.hessian)
        counts.append(len(calls))
        assert calls[0] == k
    assert counts[0] == counts[1], counts
    assert 1 <= counts[0] <= _descent._NEWTON_ITERS


def test_estimate_inf_reaches_the_torsion_function():
    # forced Dirichlet on 1D n = 128, whose Euclidean gradient is badly
    # conditioned: after at most 5 BB steps the Newton polish lands on the
    # discrete torsion function A⁻¹(c·m·1), the oracle of criterion 7
    space, c = make_grid(1, 128, 1.0, 2, 4), 1.0
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(c), space)
    _, _, argmin = estimate_inf(f, space, whole_space(space), seed=11)
    ustar = np.linalg.solve(laplacian_matrix(space),
                            c * space.cell_measure * np.ones(128))
    assert np.max(np.abs(argmin - ustar)) <= 1e-9


def test_short_descent_reaches_the_double_well_minimum():
    # the cap of 5 BB steps before the polish: on 1D n = 128 the double
    # well's estimate is 0 to 1e-12 for every seed; with a cap of 2 or less
    # the polish starts too far out and some seeds end up to 3e-5 above it
    space = make_grid(1, 128, 1.0, 2, 4)
    f = _cli(space, "double_well", radius=1.0)
    assert path_cap(None, None) == _descent._BB_STEPS_POLISHED == 5
    for seed in range(12):
        inf, _, _ = estimate_inf(f, space, whole_space(space), seed=seed)
        assert abs(inf) <= 1e-12, seed


def test_start_at_a_minimizer_ends_at_the_rounding_floor():
    # the forced Dirichlet energy on 1D n = 128 from estimate_inf's own
    # argmin: its gradient is not below the stationarity tolerance, but no
    # trial could show a decrease of f, so the row leaves the descent at
    # once, before its first trial: one block f call, the start's own
    space = make_grid(1, 128, 1.0, 2, 4)
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.0), space)
    fun, grad, project, box = _on_domain(f, space, whole_space(space))
    _, _, u = estimate_inf(f, space, whole_space(space), seed=11)
    assert float(np.linalg.norm(grad(u))) >= 1e-12
    calls = []

    def counted(X):
        calls.append(len(X))
        return fun(X)

    cap = path_cap(project, box)
    X, F, errors = _descent.armijo_bb_rows(counted, grad, u[None], cap)
    assert errors == {} and calls == [1]
    x, fx, steps, why = solo_armijo_bb(fun, grad, u, cap)
    assert (steps, why) == (0, "floor")
    assert same(X[0], u) and same(x, u) and same(F[0], fx)


def test_cone_polish_ends_at_the_active_set_minimizer(g1d8):
    # ‖v − a‖²_X on the cone with a center that has negative cells: the
    # polish on the box [0, ∞) ends at the KKT point, v ≥ 0 with a zero
    # gradient on the free cells (to 1e-9 of its scale at the origin) and a
    # nonnegative one on the active cells
    a = np.array([0.9, -0.4, 0.6, -1.2, -0.3, 0.8, 0.2, -0.7])
    f = _cli(g1d8, "quadratic", center=list(a))
    fun, grad, project, box = _on_domain(f, g1d8, nonneg_cone(g1d8))
    assert box is not None
    rng = np.random.default_rng(4)
    starts = np.vstack([np.zeros(8), rng.standard_normal((3, 8))])
    v, fv, _ = _descent.minimize_multistart(fun, grad, starts,
                                            project=project, box=box)
    g = grad(v)
    active = v == 0.0
    assert np.all(v >= 0.0) and active.any() and not active.all()
    assert np.max(np.abs(g[~active])) <= 1e-9 * np.max(np.abs(grad(0.0 * a)))
    assert np.all(g[active] >= 0.0)
    # the independent oracle: nonnegative least squares on Gx = LLᵀ
    L = np.linalg.cholesky(gram_matrix(g1d8))
    vstar, _ = nnls(L.T, L.T @ a)
    assert np.max(np.abs(v - vstar)) <= 1e-9
    assert fv == fun(v)


def test_bp_power_of_a_block_equals_scalar_power(g1d8):
    # the B-P penalty ‖w−η‖^p on a block is the scalar power of each
    # distance: one multiply at p = 2, libm pow otherwise
    metric = XMetric(g1d8)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((400, 8)) * rng.uniform(1e-3, 1e3, (400, 1))
    eta = rng.standard_normal(8)
    for p in (2, 2.0, 1.0, 1.5):
        rows = _pow_rows(metric.dist(W, eta), p)
        ds = [metric.dist(w, eta) for w in W]
        assert same(rows, [d * d if p == 2 else d ** p for d in ds])


# ---------------------------------------------------------------------------
# errors surface in start order

def _tagged(space):
    """f(v) = v₀² + v₁² + v₂² with the last cell a tag that the descent
    never moves (its gradient is 0).  Tag 1 raises IntegrandError once
    f < 0.5 (mid-descent), tag 2 at once; tag 3 gets an infinite gradient
    once f < 0.5, so its next trial point is not finite and GridFunction
    rejects it."""
    def energy(W):
        return np.matmul(W[..., None, :3], W[..., :3, None])[..., 0, 0]

    def ev(u):
        q, tag = float(energy(u.values)), u.values[3]
        if tag == 2.0 or (tag == 1.0 and q < 0.5):
            raise IntegrandError(f"tag {tag:g}")
        return q

    def grad(W):
        G = 2.0 * W
        G[..., 3] = 0.0
        G[..., :3][(W[..., 3] == 3.0) & (energy(W) < 0.5)] = math.inf
        return G

    return _f_arr(Functional(eval=ev, name="tagged"), space), grad


# the infinite gradient of tag 3 makes s·y NaN, in both loops
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("tags,expected,match", [
    ((0, 1, 0, 3, 2), IntegrandError, "tag 1"),
    ((0, 3, 2, 1), InvalidArgument, "finite"),
    ((0, 2, 3, 1), IntegrandError, "tag 2"),
])
def test_descent_raises_the_error_of_the_first_start(g1d4, tags, expected,
                                                     match):
    fun, grad = _tagged(g1d4)
    starts = np.array([[0.9, -1.1, 0.8, t] for t in tags])
    with pytest.raises(expected, match=match) as solo:
        solo_multistart(fun, grad, starts)
    with pytest.raises(expected, match=match) as lock:
        _descent.minimize_multistart(fun, grad, starts)
    assert str(lock.value) == str(solo.value)
    # the other rows go on to their own end points
    cap = path_cap(None, None)
    X, F, errors = _descent.armijo_bb_rows(fun, grad, starts, cap)
    assert sorted(errors) == [i for i, t in enumerate(tags) if t]
    for i in (i for i, t in enumerate(tags) if not t):
        x, fx, _, _ = solo_armijo_bb(fun, grad, starts[i], cap)
        assert same(X[i], x) and same(F[i], fx)


def test_row_whose_accepted_trial_gradient_raises_stops_there():
    # row 0's first trial is accepted at |x| < 1, where the gradient raises:
    # that row keeps its start and its error, row 1 takes its one step
    def fun(W):
        return np.sum(W * W, axis=-1)

    def grad(W):
        if np.any(np.abs(W) < 1.0):
            raise IntegrandError("gradient undefined near 0")
        return 2.0 * W

    starts = np.array([[1.2, 1.2], [10.0, 10.0]])
    X, F, errors = _descent.armijo_bb_rows(fun, grad, starts, 1)
    assert list(errors) == [0]
    assert isinstance(errors[0], IntegrandError)
    assert same(X[0], starts[0]) and F[0] == fun(starts[0])
    assert F[1] < fun(starts[1])


def test_compass_search_from_a_non_finite_start_does_not_move():
    calls = []

    def fun(X):
        calls.append(len(X))
        return np.full(len(X), math.inf)

    X, F, errors = _descent.compass_rows(fun, np.ones((1, 3)), 1.0)
    assert errors == {} and same(X[0], np.ones(3)) and F[0] == math.inf
    assert calls == [1]


# ---------------------------------------------------------------------------
# the derivative-free path: the lock-step compass search against one start
# at a time

def solo_compass(fun, x0, scale, project=None, f_atol=0.0):
    """The single-start coordinate pattern search that
    ``_descent.compass_rows`` replaced: a full ±step·e_j sweep (+ before −)
    moves to its first strict best finite value, else the step halves.
    Returns (x, f(x), sweeps, why), why the stop: "nonfinite" start,
    "step" below 1e-12, "f_atol" or the 400-sweep "cap"."""
    x = np.array(x0, float)
    if project is not None:
        x = project(x)
    fx = fun(x)
    if not math.isfinite(fx):
        return x, fx, 0, "nonfinite"
    step = float(scale)
    for k in range(400):
        best_f, best_x = fx, None
        for j in range(len(x)):
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
                return x, fx, k + 1, "step"
        else:
            if fx - best_f < f_atol and step < float(scale) / 8.0:
                return best_x, best_f, k + 1, "f_atol"
            x, fx = best_x, best_f
    return x, fx, 400, "cap"


def solo_compass_pick(fun, starts, ends, project):
    """The derivative-free multi-start loop's pick over the solo ends
    (x, f(x), ...) in start order: (x, f(x), values), the all-non-finite
    fallback included."""
    best_x, best_f, values = None, math.inf, []
    for x, fx, *_ in ends:
        values.append(fx)
        if math.isfinite(fx) and fx < best_f:
            best_x, best_f = x, fx
    if best_x is None:
        x = np.array(starts[0], float)
        x = x if project is None else project(x)
        return x, fun(x), values
    return best_x, best_f, values


def _check_compass(fun, starts, scale, project, f_atol,
                   multistart=_descent.minimize_multistart):
    """Each lock-step row against its solo search, and the multi-start
    pick against the solo loop's; returns the solo stop reasons."""
    X, F, errors = _descent.compass_rows(fun, starts, scale,
                                         project=project, f_atol=f_atol)
    assert errors == {}
    ends = [solo_compass(fun, x0, scale, project, f_atol) for x0 in starts]
    for i, (x, fx, sweeps, why) in enumerate(ends):
        assert same(X[i], x) and same(F[i], fx), (i, sweeps, why)
    lock = multistart(fun, None, starts, project=project,
                      compass_scale=scale, f_atol=f_atol)
    solo = solo_compass_pick(fun, starts, ends, project)
    assert all(same(a, b) for a, b in zip(lock, solo))
    return [why for *_, why in ends]


@pytest.fixture
def compass_checked(monkeypatch):
    """Check the first derivative-free ``minimize_multistart`` calls an
    engine makes, at the call, against the solo loop; returns the stop
    reasons seen, one list per checked call."""
    real, seen = _descent.minimize_multistart, []
    signature = inspect.signature(real)

    def checked(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        if a["grad"] is None and len(seen) < 2:
            seen.append(_check_compass(a["fun"], np.array(a["starts"], float),
                                       a["compass_scale"], a["project"],
                                       a["f_atol"], real))
        return real(*args, **kwargs)

    monkeypatch.setattr(_descent, "minimize_multistart", checked)
    return seen


def _drop_engine(tmp_path):
    # criterion 9's drop: the S' oracle (C ∩ drop) and the V distance
    D = _criterion9_drop(make_grid(1, 2, 1.0, 2, 4))
    ap.symmetric_drop_point(D.vertex, D.ball, _halfplane_C(), 0.05, seed=91,
                            n_samples=50, minimality_samples=50)


def _petal_engine(tmp_path):
    # criterion 9's petal in the l1 norm (a caller's metric) on a ray
    g = make_grid(1, 2, 1.0, 2, 4)
    ap.symmetric_petal_point(g.function([1.0, 1.0]), g.function([0.0, 0.0]),
                             _diag_ray_C(), 0.3,
                             norm=lambda v: float(np.sum(np.abs(v))),
                             seed=92, n_samples=50, minimality_samples=50)


def _caristi_engine(tmp_path):
    # the CLI's Caristi potential, 2·‖u‖_X, which has no gradient
    path = tmp_path / "caristi.json"
    path.write_text(json.dumps(cli_cases.config(
        "caristi_fixed_point", 4, {"eps": 0.25}, seed=12)))
    assert run_config(path, out_dir=str(tmp_path), n_samples=50) == 0


def _norm_dist_engine(tmp_path):
    # the CLI's norm_dist functional, ‖u − a‖_V, under the V metric
    g = make_grid(1, 4, 1.0, 2, 4)
    f = _cli(g, "norm_dist", center=[0.1, 0.4, 0.4, 0.1])
    symmetric_ekeland(f, g, g.function([0.15, 0.4, 0.4, 0.1]), 0.3, 0.3,
                      variant="I", seed=3, n_samples=50, metric=VMetric(g))


def _torsion_engine(tmp_path):
    # p ≠ 2: the descent has no gradient, the probe and the chain run the
    # compass search
    g = make_grid(1, 4, 1.0, 3, 4)
    ap.quasilinear_experiment(ap.forced_dirichlet_integrand(1.0), g, 0.01,
                              seed=7, n_samples=50)


def _zhong_engine(tmp_path):
    # the Zhong-weighted chain: the weight 1/(1 + h(‖w − anchor‖)) per row
    g = make_grid(1, 4, 1.0, 2, 4)
    a = sym_center(g, 24)
    u0 = theta(a + g.function(0.03 * np.random.default_rng(25)
                              .standard_normal(4)))
    symmetric_zhong(quad_X(a), g, u0, 0.1, 0.2, lambda s: s, seed=1,
                    n_samples=50)


@pytest.mark.parametrize("engine", [_drop_engine, _petal_engine,
                                    _caristi_engine, _norm_dist_engine,
                                    _torsion_engine, _zhong_engine],
                         ids=["drop", "petal-l1", "caristi", "norm_dist",
                              "torsion-p3", "zhong"])
def test_lockstep_compass_rows_equal_solo_runs_in_engines(engine, tmp_path,
                                                          compass_checked):
    engine(tmp_path)
    assert compass_checked, "no derivative-free descent ran"


def test_lockstep_compass_stops_each_row_by_its_own_rule():
    # ‖x − c‖₁ from four starts with an f_atol: two starts stop on it, one
    # halves its step below 1e-12 at the minimum, and the start outside
    # the domain (+inf there) does not move; −Σx keeps moving to the cap
    c = np.array([0.3, -0.7, 1.1])

    def l1(X):
        inside = X[..., 0] <= 5.0
        return np.where(inside, np.sum(np.abs(X - c), axis=-1), math.inf)

    starts = np.array([c, [0.1, 0.2, 0.3], [-1.0, 2.0, 0.5], [6.0, 0, 0]])
    assert _check_compass(l1, starts, 0.25, None, 1e-3) == [
        "step", "f_atol", "f_atol", "nonfinite"]
    assert _check_compass(l1, starts[:1] + 0.01, 0.25, None, 0.0) == [
        "step"]

    def down(X):
        return -np.sum(X, axis=-1)

    assert _check_compass(down, np.zeros((2, 4)), 0.5, None, 0.0) == [
        "cap", "cap"]


def test_lockstep_compass_blocks_split_a_sweep(monkeypatch):
    # blocks of at most 5 values on 3 cells: one row per block, so each
    # sweep of each start spans six blocks, and its first strict minimum
    # is found across them; the ball projection bounds the search
    monkeypatch.setattr(_descent, "_COMPASS_VALUES", 5)
    sizes = []

    def f(X):
        sizes.append(len(X))
        return np.sum((X - 0.4) ** 4, axis=-1) + X[..., 0] * X[..., 2]

    def project(X):
        nrm = np.linalg.norm(X, axis=-1, keepdims=True)
        return X / np.maximum(nrm, 1.0)

    starts = np.random.default_rng(2).standard_normal((4, 3))
    _check_compass(f, starts, 0.25, project, 1e-9)
    assert max(sizes) == 4                     # the starts' first scores
    assert 1 in sizes


@pytest.mark.parametrize("values", [_descent._COMPASS_VALUES, 2])
def test_lockstep_compass_raises_the_error_of_the_first_start(monkeypatch,
                                                              values):
    # project raises past 5 in coordinate 1, fun past 5 in coordinate 0.
    # In the first case start 1's first sweep meets fun's error on its row
    # 0 (x + step·e_0) and project's on its row 2 (x + step·e_1), and start
    # 2 only project's; in the second, start 1 only project's and start 2
    # only fun's.  The block calls raise, so the rows are scored alone, and
    # each start keeps the first error in sweep order, although the block
    # projects all its rows before it scores any.  With blocks of one row
    # (2 values on 2 cells) a block can hold no row left to score
    monkeypatch.setattr(_descent, "_COMPASS_VALUES", values)
    def project(X):
        if np.any(X[..., 1] > 5.0):
            raise IntegrandError("project")
        return X

    def fun(X):
        if np.any(X[..., 0] > 5.0):
            raise InvalidArgument("fun")
        return np.sum(X * X, axis=-1)

    cases = [np.array([[0.2, 0.1], [4.9, 4.9], [0.1, 4.9]]),
             np.array([[0.2, 0.1], [4.0, 4.9], [4.9, 4.0]])]
    for starts, first in zip(cases, ("fun", "project")):
        for i in (1, 2):
            with pytest.raises(SymvarError) as solo:
                solo_compass(fun, starts[i], 0.25, project)
            assert str(solo.value) == ("fun" if (i == 1) == (first == "fun")
                                       else "project")
        X, F, errors = _descent.compass_rows(fun, starts, 0.25,
                                             project=project)
        assert sorted(errors) == [1, 2]
        assert str(errors[1]) == first
        x, fx, _, _ = solo_compass(fun, starts[0], 0.25, project)
        assert same(X[0], x) and same(F[0], fx)
        with pytest.raises(SymvarError, match=first):
            _descent.minimize_multistart(fun, None, starts, project=project)


def test_lockstep_compass_from_a_non_finite_start(g1d4):
    # a NaN start: a Functional rejects it (InvalidArgument, as the solo
    # search does), a plain fun scores it NaN and the start stays put
    f = _f_arr(_cli(g1d4, "norm_dist"), g1d4)
    starts = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, np.nan, 0.0, 0.0]])
    with pytest.raises(InvalidArgument, match="finite"):
        solo_compass(f, starts[1], 0.25)
    X, F, errors = _descent.compass_rows(f, starts, 0.25)
    assert list(errors) == [1] and isinstance(errors[1], InvalidArgument)
    with pytest.raises(InvalidArgument, match="finite"):
        _descent.minimize_multistart(f, None, starts)

    def plain(X):
        return np.sum(X * X, axis=-1)

    X, F, errors = _descent.compass_rows(plain, starts, 0.25)
    assert errors == {} and same(X[1], starts[1]) and math.isnan(F[1])
    assert _check_compass(plain, starts, 0.25, None, 0.0)[1] == "nonfinite"


# ---------------------------------------------------------------------------
# the all-non-finite fallback

def test_fallback_value_is_f_at_the_returned_point():
    # finite off the cone, +inf on it: every start projects onto the cone,
    # so every descent ends non-finite and the fallback returns P(x0)
    def fun(W):
        inf = np.all(W >= 0.0, axis=-1)
        return np.where(inf, math.inf, 1.0) if np.ndim(W) == 2 else \
            (math.inf if inf else 1.0)

    def project(W):
        return np.maximum(W, 0.0)

    starts = [-np.ones(4), -2.0 * np.ones(4)]
    x, fx, values = _descent.minimize_multistart(
        fun, lambda W: np.zeros_like(W), starts, project=project)
    assert same(x, project(starts[0]))
    assert fx == fun(x) == math.inf
    assert values == [math.inf, math.inf]
    assert fun(starts[0]) == 1.0               # f at the unprojected start


# ---------------------------------------------------------------------------
# the Newton polish's band form, its factor and its stop rules

def _random_band(rng, n, w, k):
    """A random nonsingular band of half-width w (diagonally dominant)
    plus a rank-k term, in the form and as a dense matrix."""
    M = np.zeros((n, n))
    for off in range(-w, w + 1):
        M += np.diag(rng.standard_normal(n - abs(off)), off)
    M += (2.0 * w + 2.0) * np.eye(n)
    U, c = rng.standard_normal((n, k)), rng.uniform(-0.5, 0.5, k)
    H = _descent._BandHessian.from_dense(M)
    if k:
        H = H + _descent._BandHessian(np.zeros((1, n)), U, c)
    return H, M + (U * c) @ U.T


@pytest.mark.parametrize("n,w", [(8, 0), (8, 1), (16, 1), (128, 1),
                                 (64, 8)])
def test_band_form_slices_and_solves_like_the_dense_matrix(n, w):
    rng = np.random.default_rng(n + w)
    H, M = _random_band(rng, n, w, 0)
    # the measured bandwidth is the outermost nonzero diagonal
    assert H.w == w and np.array_equal(H.dense(), M)
    for k in (0, 1, 2):
        H, M = _random_band(rng, n, w, k)
        assert len(H.c) == k
        # a free set without interior coordinates keeps the band
        idx = np.delete(np.arange(n), [1, n // 2, n - 2])
        T = H.take(idx)
        assert T.w == w
        assert np.allclose(T.dense(), M[np.ix_(idx, idx)], rtol=0,
                           atol=1e-13)
        for A, B in ((H, M), (T, M[np.ix_(idx, idx)])):
            b = rng.standard_normal(len(B))
            x = A.factor()(b)
            ref = np.linalg.solve(B, b)
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_singular_band_makes_the_newton_step_return_none():
    # as LinAlgError did for the dense solve: a band with an exactly zero
    # pivot, and a regular band whose rank-1 term makes H exactly singular
    # (its capacitance 1 + c·uᵀB⁻¹u is 0)
    B = _descent._BandHessian(np.array([[0.0, 1.0, 0.0, 1.0],
                                        [1.0, 1.0, 2.0, 2.0],
                                        [1.0, 0.0, 1.0, 0.0]]))
    assert np.array_equal(B.dense()[:2, :2], np.ones((2, 2)))
    e0 = np.eye(4)[:, :1]
    R = _descent._BandHessian(np.ones((1, 4)), e0, np.array([-1.0]))
    evals = []

    def fun(x):
        evals.append(x)
        return float(x @ x)

    x = np.arange(1.0, 5.0)
    fx = fun(x)
    evals.clear()
    for H in (B, R):
        solve = H.factor()
        assert solve(np.ones(4)) is None
        # the step returns None before it yields a trial
        step = _descent._newton_step(x, fx, np.arange(4), solve, 2.0 * x,
                                     -np.inf, np.inf)
        with pytest.raises(StopIteration) as stop:
            next(step)
        assert stop.value.value is None
        # the polish keeps its point, without evaluating f
        X, F, errors = _descent.newton_rows(fun, lambda v: 2.0 * v, [x], [fx],
                                            hess=lambda v, H=H: H)
        assert X[0] is x and F[0] == fx and errors == {}
    assert not evals


def test_polish_stops_at_the_rounding_floor(g1d8):
    # f = ½(x − a)ᵀA(x − a) + 1 on the Gram matrix: one Newton step from
    # a point where the predicted decrease ½|gᵀd| is far above the
    # rounding of f, none (and no f evaluation) where it is below
    # 2⁻⁵²·|f|; there the polish returns its point as it is
    A = gram_matrix(g1d8)
    a = np.linspace(-1.0, 1.0, g1d8.n_cells)
    evals = [0]

    def fun(X):
        # f of each row
        evals[0] += len(X)
        return np.array([0.5 * float((x - a) @ A @ (x - a)) + 1.0
                         for x in X])

    def grad(X):
        return (X - a) @ A

    def hess(x):
        return A

    for shift, stops in ((1e-3, False), (1e-10, True)):
        x = a + shift * np.cos(np.arange(g1d8.n_cells))
        fx = float(fun(x[None])[0])
        evals[0] = 0
        (xp,), (fp,), _ = _descent.newton_rows(fun, grad, [x], [fx],
                                               hess=hess)
        if stops:
            assert xp is x and fp == fx and evals[0] == 0
        else:
            assert fp < fx and evals[0] >= 1
            assert np.max(np.abs(xp - a)) < 1e-12
