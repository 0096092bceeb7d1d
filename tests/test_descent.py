"""The lock-step multi-start descent against one start at a time.

``solo_armijo_bb`` and ``solo_multistart`` are the descent loop that
``_descent.armijo_bb_rows`` replaced, kept here as the reference: every
start of the lock-step descent must end on the same bytes and the same
value as its own run under its path's step cap (20 BB steps where a
Newton polish follows, 400 under a custom projection), and errors must
surface in start order.
"""

import math

import numpy as np
import pytest
from scipy.optimize import nnls

from symvar import IntegrandError, InvalidArgument, _descent, make_grid
from symvar import applications as ap
from symvar.cli import FUNCTIONALS, SETS, _check, _fn_object, _to_grid
from symvar.funcspace import (Functional, _pow_rows, gram_matrix,
                              laplacian_matrix)
from symvar.principles import (XMetric, _f_arr, _on_domain, box_set,
                               estimate_inf, nonneg_cone, whole_space)


# ---------------------------------------------------------------------------
# the reference: one start at a time

def path_cap(project, box):
    """The BB step cap of a path: 20 where a Newton polish follows (no
    projection, or a box), 400 under any other projection."""
    return 20 if box is not None or project is None else 400


def solo_armijo_bb(fun, grad, x0, max_steps, project=None):
    """The single-start BB/Armijo loop, at most ``max_steps`` steps;
    returns (x, f(x), steps, why)."""
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
            xn = x - t * g
            if project is not None:
                xn = project(xn)
            fn = fun(xn)
            if (math.isfinite(fn) and fn <= fx - 1e-4 * (g @ (x - xn))
                    and fn < fx):
                accepted = True
                break
            t *= 0.5
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


def solo_multistart(fun, grad, starts, project=None, box=None):
    """The multi-start loop: descent under the path's cap, then Newton
    polish, start by start.  Returns (x, f(x), values)."""
    cap = path_cap(project, box)
    return polish_and_pick(fun, grad, (solo_armijo_bb(fun, grad, x0, cap,
                                                      project)
                                       for x0 in starts), project, box)


def polish_and_pick(fun, grad, ends, project, box):
    """Newton polish of each descent end (x, f(x), ...) in turn and the
    first strict best."""
    best_x, best_f, values = None, math.inf, []
    for x, fx, *_ in ends:
        if box is not None:
            x, fx = _descent.newton_polish(fun, grad, x, fx, box[0], box[1])
        elif project is None:
            x, fx = _descent.newton_polish(fun, grad, x, fx)
        values.append(fx)
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

    raw = _f_arr(f, space)

    def bp_phi(w):
        return raw(w) + sigma * _pow_rows(metric.dist(w, vk), 2)

    def bp_grad(w):
        pen = np.matmul(gram, (w - vk)[..., None])[..., 0]
        return grad_f(w) + 2.0 * sigma * pen

    return [("chain", chain_phi, chain_grad, project, box, vk),
            ("bp", bp_phi, bp_grad, project, box, vk)]


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
            for name, phi, gphi, proj, bx, vk in _phis(f, space, domain, rng):
                phi_starts = _starts(space, rng, vk)
                _check_rows(f"{label}/{name}", phi, gphi, phi_starts, proj,
                            bx, seen)
    # starts stop at different steps, seen as (cap, why): on the polished
    # paths stationary at once and non-finite at once, at the 20-step cap
    # past n = 2 and where the line search fails at n = 2; under the custom
    # projection at the 400-step cap at n = 128 and where the line search
    # fails past n = 2
    assert {(20, "stationary"), (20, "nonfinite")} <= seen
    assert ((20, "cap") in seen) == (n > 2)
    assert ((20, "linesearch") in seen) == (n == 2)
    assert ((400, "cap") in seen) == (n == 128)
    assert ((400, "linesearch") in seen) == (n > 2)


def test_estimate_inf_reaches_the_torsion_function():
    # forced Dirichlet on 1D n = 128, whose Euclidean gradient is badly
    # conditioned: after at most 20 BB steps the Newton polish lands on the
    # discrete torsion function A⁻¹(c·m·1), the oracle of criterion 7
    space, c = make_grid(1, 128, 1.0, 2, 4), 1.0
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(c), space)
    _, _, argmin = estimate_inf(f, space, whole_space(space), seed=11)
    ustar = np.linalg.solve(laplacian_matrix(space),
                            c * space.cell_measure * np.ones(128))
    assert np.max(np.abs(argmin - ustar)) <= 1e-9


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
        assert _descent._newton_step(fun, x, fx, np.arange(4), solve,
                                     2.0 * x, -np.inf, np.inf) is None
        # the polish keeps its point, without evaluating f
        xp, fp = _descent.newton_polish(fun, lambda v: 2.0 * v, x, fx,
                                        hess=lambda v, H=H: H)
        assert xp is x and fp == fx
    assert not evals


def test_polish_stops_at_the_rounding_floor(g1d8):
    # f = ½(x − a)ᵀA(x − a) + 1 on the Gram matrix: one Newton step from
    # a point where the predicted decrease ½|gᵀd| is far above the
    # rounding of f, none (and no f evaluation) where it is below
    # 2⁻⁵²·|f|; there the polish returns its point as it is
    A = gram_matrix(g1d8)
    a = np.linspace(-1.0, 1.0, g1d8.n_cells)
    evals = [0]

    def fun(x):
        evals[0] += 1
        D = x - a
        return 0.5 * float(D @ A @ D) + 1.0

    def grad(x):
        return A @ (x - a)

    def hess(x):
        return A

    for shift, stops in ((1e-3, False), (1e-10, True)):
        x = a + shift * np.cos(np.arange(g1d8.n_cells))
        fx = fun(x)
        evals[0] = 0
        xp, fp = _descent.newton_polish(fun, grad, x, fx, hess=hess)
        if stops:
            assert xp is x and fp == fx and evals[0] == 0
        else:
            assert fp < fx and evals[0] >= 1
            assert np.max(np.abs(xp - a)) < 1e-12
