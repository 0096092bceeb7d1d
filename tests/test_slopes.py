import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symvar
from symvar import (GridFunction, InvalidArgument, OutsideDomain, make_grid,
                    norm_X, q_form, strong_slope)
from symvar.funcspace import Functional, gram_matrix

from conftest import linear_fn, quad_X


def test_strong_slope_zero_at_minimum(g1d4):
    a = g1d4.function([0.4, 0.8, 0.6, 0.2])
    f = quad_X(a)
    est = strong_slope(f, a, radii=(1e-3, 1e-4), n_samples=200, seed=0)
    assert est.upper <= 1e-3       # quotient at radius r is exactly -r < 0
    assert est.bracket_ok()


def test_strong_slope_linear_unit_functional(g1d4):
    rng = np.random.default_rng(1)
    c = g1d4.function(rng.standard_normal(4))
    c = (1.0 / norm_X(c)) * c
    f = linear_fn(c)
    u = g1d4.function(rng.standard_normal(4))
    est = strong_slope(f, u, radii=(1e-3,), n_samples=500, seed=2)
    assert 1.0 - 0.05 <= est.upper <= 1.0 + 1e-12
    assert est.lower == pytest.approx(1.0, abs=1e-12)


def test_strong_slope_matches_gradient_on_random_quadratics(g1d4):
    rng = np.random.default_rng(3)
    for k in range(5):
        a = g1d4.function(rng.standard_normal(4))
        f = quad_X(a)
        u = g1d4.function(rng.standard_normal(4))
        grad_norm = norm_X(2.0 * (u - a))   # the Riesz representative
        est = strong_slope(f, u, radii=(1e-3, 1e-4, 1e-5), n_samples=128,
                           seed=k)
        assert abs(est.upper - grad_norm) <= 0.1 * grad_norm + 1e-6
        assert est.lower <= est.upper + est.tol


def test_strong_slope_outside_domain(g1d4):
    f = Functional(eval=lambda u: math.inf, name="nowhere")
    with pytest.raises(OutsideDomain):
        strong_slope(f, g1d4.zeros(), radii=(1e-3,), n_samples=8)


def _half_sq(space):
    gram = gram_matrix(space)
    return Functional(eval=lambda u: 0.5 * float(u.values @ gram @ u.values),
                      gradient=lambda W: np.matmul(gram, W[..., None])[..., 0],
                      lower_bound=0.0, name="halfsq")


def test_q_form_quadratic_exact_quotient(g1d4):
    # quotient of ½‖·‖² is ‖ζ‖² for every t; with small magnitudes the
    # sampled max stays within 1e-6 of ‖w‖²
    f = _half_sq(g1d4)
    u = g1d4.function([2e-3, 1e-3, -1e-3, 0.0])
    w = g1d4.function([1e-3, 2e-3, 0.0, 1e-3])
    est = q_form(f, u, w, delta=1e-4, n_samples=16, seed=0)
    assert est.value == pytest.approx(norm_X(w) ** 2, abs=1e-6)
    assert len(est.schedule) == 3
    assert est.t_min <= 1e-4


def test_q_form_refuses_delta_not_positive(g1d4):
    u = g1d4.function([0.2, 0.0, 0.9, 0.5])
    f = Functional(eval=norm_X, name="norm")
    with pytest.raises(InvalidArgument, match="delta must be positive"):
        q_form(f, u, u, delta=0.0)


def test_q_form_linear_vanishes(g1d4):
    rng = np.random.default_rng(4)
    c = g1d4.function(rng.standard_normal(4))
    f = linear_fn(c)
    u = g1d4.function(rng.standard_normal(4))
    w = g1d4.function(rng.standard_normal(4))
    est = q_form(f, u, w, delta=1e-2, n_samples=16, seed=1)
    assert abs(est.value) <= 1e-9


def test_q_form_kills_affine_parts(g1d4):
    rng = np.random.default_rng(5)
    f = _half_sq(g1d4)
    c = g1d4.function(rng.standard_normal(4))
    lin = linear_fn(c)
    fpl = Functional(eval=lambda u: f.eval(u) + lin.eval(u), name="f+lin")
    u = g1d4.function(rng.standard_normal(4) * 0.1)
    w = g1d4.function(rng.standard_normal(4) * 0.1)
    e1 = q_form(f, u, w, delta=1e-2, n_samples=16, seed=7)
    e2 = q_form(fpl, u, w, delta=1e-2, n_samples=16, seed=7)
    assert e1.value == pytest.approx(e2.value, abs=1e-8)


def _smooth_quartic(space):
    gram = gram_matrix(space)

    def ev(u):
        r2 = float(u.values @ gram @ u.values)
        return 0.5 * r2 - 0.25 * r2 * r2

    return Functional(eval=ev, name="quartic")


def _quartic_hessian_quadratic(space, u, w):
    # ⟨f''(u)w, w⟩ for f = ½‖u‖² − ¼‖u‖⁴:
    # f'' = (1 − ‖u‖²)I − 2 u⊗u (in the X inner product)
    gram = gram_matrix(space)
    r2 = float(u.values @ gram @ u.values)
    uw = float(u.values @ gram @ w.values)
    w2 = float(w.values @ gram @ w.values)
    return (1.0 - r2) * w2 - 2.0 * uw * uw


def test_q_form_matches_smooth_hessian(g1d4):
    rng = np.random.default_rng(6)
    f = _smooth_quartic(g1d4)
    u = g1d4.function(0.3 * rng.standard_normal(4))
    w = g1d4.function(0.5 * rng.standard_normal(4))
    target = _quartic_hessian_quadratic(g1d4, u, w)
    est = q_form(f, u, w, delta=1e-3, n_samples=32, seed=2)
    assert est.value == pytest.approx(target, rel=0.05, abs=1e-8)


def test_q_form_delta_convergence_rate(g1d4):
    # error decays at least linearly in δ across the logged schedule
    rng = np.random.default_rng(8)
    f = _smooth_quartic(g1d4)
    u = g1d4.function(0.3 * rng.standard_normal(4))
    w = g1d4.function(0.5 * rng.standard_normal(4))
    target = _quartic_hessian_quadratic(g1d4, u, w)
    est = q_form(f, u, w, delta=1e-3, n_samples=32, seed=3)
    deltas = [d for d, _ in est.schedule]
    errs = [max(abs(v - target), 1e-14) for _, v in est.schedule]
    slope = (math.log(errs[0]) - math.log(errs[-1])) / \
        (math.log(deltas[0]) - math.log(deltas[-1]))
    assert slope >= 0.9


def test_q_form_outside_domain(g1d4):
    f = Functional(eval=lambda u: math.inf, name="nowhere")
    with pytest.raises(OutsideDomain):
        q_form(f, g1d4.zeros(), g1d4.zeros(), delta=1e-3, n_samples=4)


def test_slope_and_qform_deterministic_given_seed(g1d4):
    rng = np.random.default_rng(9)
    a = g1d4.function(rng.standard_normal(4))
    f = quad_X(a)
    u = g1d4.function(rng.standard_normal(4))
    w = g1d4.function(rng.standard_normal(4))
    e1 = strong_slope(f, u, radii=(1e-3, 1e-4), n_samples=32, seed=5)
    e2 = strong_slope(f, u, radii=(1e-3, 1e-4), n_samples=32, seed=5)
    assert (e1.lower, e1.upper) == (e2.lower, e2.upper)
    q1 = q_form(f, u, w, delta=1e-3, n_samples=8, seed=5)
    q2 = q_form(f, u, w, delta=1e-3, n_samples=8, seed=5)
    assert q1.value == q2.value and q1.schedule == q2.schedule


def test_functional_rejects_minus_infinity(g1d4):
    f = Functional(eval=lambda u: -math.inf, name="bottomless")
    with pytest.raises(ValueError):
        f(g1d4.zeros())


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported where slopes sample directions, not by symvar
    env = dict(os.environ, PYTHONPATH=str(Path(symvar.__file__).parents[1]))
    code = "import sys, symvar; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("name", ["quadratic", "double_well", "semilinear"])
def test_strong_slope_bracket_holds_off_p2(name):
    # off p = 2 the X-norm of the gradient's Riesz solve is not the dual
    # norm of df (it overshot the exact weak slope by up to 34% on these
    # points), so the lower end is 0 and the bracket holds
    from symvar import semilinear_functional
    from symvar.cli import FUNCTIONALS

    space = make_grid(1, 8, 1.0, 1.5, 4)
    if name == "semilinear":
        f = semilinear_functional(
            FUNCTIONALS["linear_damping"].build(space, {}), space)
    else:
        fn = FUNCTIONALS[name]
        f = fn.build(space, {k: v.get("default")
                             for k, v in fn.params.items()})
    rng = np.random.default_rng(1)
    for _ in range(6):
        est = strong_slope(f, space.function(rng.standard_normal(8)))
        assert est.lower == 0.0
        assert est.bracket_ok()


@pytest.mark.parametrize("n_samples", [0, -3, 2.0, True])
def test_strong_slope_refuses_a_count_below_one(g1d4, n_samples):
    # no probe direction would be drawn, and the upper end would read 0.0,
    # the slope of a critical point
    f = quad_X(g1d4.function([0.4, 0.8, 0.6, 0.2]))
    with pytest.raises(InvalidArgument, match="n_samples"):
        strong_slope(f, g1d4.zeros(), n_samples=n_samples)


@pytest.mark.parametrize("n_samples", [0, -3, 2.0, True])
def test_q_form_refuses_a_count_below_one(g1d4, n_samples):
    # only the (0, 0) direction pair would be scored
    f = quad_X(g1d4.function([0.4, 0.8, 0.6, 0.2]))
    u = g1d4.function([0.1, 0.2, 0.2, 0.1])
    with pytest.raises(InvalidArgument, match="n_samples"):
        q_form(f, u, u, n_samples=n_samples)
