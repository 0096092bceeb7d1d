"""The lock-step multi-start descent against one start at a time.

``solo_armijo_bb`` and ``solo_multistart`` are the descent loop that
``_descent.armijo_bb_rows`` replaced, kept here as the reference: every
start of the lock-step descent must end on the same bytes and the same
value as its own run, and errors must surface in start order.
"""

import math

import numpy as np
import pytest

from symvar import IntegrandError, InvalidArgument, _descent, make_grid
from symvar import applications as ap
from symvar.cli import FUNCTIONALS, _check, _fn_object, _to_grid
from symvar.funcspace import Functional, _pow_rows, gram_matrix
from symvar.principles import (XMetric, _f_arr, _on_domain, box_set,
                               nonneg_cone, whole_space)


# ---------------------------------------------------------------------------
# the reference: one start at a time

def solo_armijo_bb(fun, grad, x0, project=None):
    """The single-start BB/Armijo loop; returns (x, f(x), steps, why)."""
    x = np.array(x0, float)
    if project is not None:
        x = project(x)
    fx = fun(x)
    if not math.isfinite(fx):
        return x, fx, 0, "nonfinite"
    g = grad(x)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    why = "cap"
    for k in range(400):
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
        k = 400
    return x, fx, k, why


def solo_multistart(fun, grad, starts, project=None, box=None):
    """The multi-start loop: descent, then Newton polish, start by start.
    Returns (x, f(x), values)."""
    return polish_and_pick(fun, grad, (solo_armijo_bb(fun, grad, x0, project)
                                       for x0 in starts), project, box)


def polish_and_pick(fun, grad, ends, project, box):
    """Newton polish of each descent end (x, f(x), ...) in turn and the
    first strict best."""
    best_x, best_f, values = None, math.inf, []
    for x, fx, *_ in ends:
        if box is not None:
            x, fx = _descent.active_set_newton(fun, grad, x, fx, box[0], box[1])
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
    X, F, errors = _descent.armijo_bb_rows(fun, grad, starts, project=project)
    assert errors == {}, label
    ends = [solo_armijo_bb(fun, grad, x0, project) for x0 in starts]
    for i, (x, fx, steps, why) in enumerate(ends):
        seen.add(why)
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
    # starts stop at different steps: stationary at once, non-finite at
    # once, at the 400-step cap, and (on the smaller grids) where the line
    # search fails
    assert {"stationary", "nonfinite"} <= seen
    assert ("cap" in seen) == (n > 2)
    assert ("linesearch" in seen) == (n < 128)


def test_bp_power_of_a_block_equals_scalar_power(g1d8):
    # the B-P penalty ‖w−η‖^p on a block is libm pow per row, as the scalar
    # power of one distance is
    metric = XMetric(g1d8)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((400, 8)) * rng.uniform(1e-3, 1e3, (400, 1))
    eta = rng.standard_normal(8)
    for p in (2, 2.0, 1.0, 1.5):
        rows = _pow_rows(metric.dist(W, eta), p)
        assert same(rows, [metric.dist(w, eta) ** p for w in W])


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
    X, F, errors = _descent.armijo_bb_rows(fun, grad, starts)
    assert sorted(errors) == [i for i, t in enumerate(tags) if t]
    for i in (i for i, t in enumerate(tags) if not t):
        x, fx, _, _ = solo_armijo_bb(fun, grad, starts[i])
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
