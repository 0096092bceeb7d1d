"""Declared Euclidean Hessians and the chord Newton polish.

Every declared Hessian is checked against the finite-difference Hessian
that the polish builds without one (``_descent._fd_hessian``), to 1e-6
relative, at generic points; the polish keeps one Hessian while its free
set holds and rebuilds it only when the free set changes or a step with
the kept one is rejected.
"""

import dataclasses

import numpy as np
import pytest

from symvar import _descent, make_grid, theta
from symvar import applications as ap
from symvar import principles as pr
from symvar.funcspace import laplacian_matrix
from symvar.principles import XMetric, box_set, whole_space

from test_applications import _quartic_integrand
from test_descent import _cli


def _close(H, ref):
    """H equals ref to 1e-6 relative (to ref's largest entry)."""
    err = float(np.max(np.abs(H - ref)))
    assert err <= 1e-6 * float(np.max(np.abs(ref))), err


def _fd(grad, x, idx=None):
    return _descent._fd_hessian(
        grad, x, np.arange(len(x)) if idx is None else idx)


def _declarers(space, rng):
    """(label, Functional) for every Functional that declares a Hessian."""
    center = np.abs(rng.standard_normal(space.n_cells))
    return [
        ("dirichlet", ap.quasilinear_functional(ap.dirichlet_integrand(),
                                                space)),
        ("forced", ap.quasilinear_functional(
            ap.forced_dirichlet_integrand(1.5), space)),
        ("quartic", ap.quasilinear_functional(_quartic_integrand(), space)),
        ("damping", ap.semilinear_functional(_cli(space, "linear_damping"),
                                             space)),
        ("cubic", ap.semilinear_functional(_cli(space, "cubic"), space)),
        ("quadratic", _cli(space, "quadratic", center=list(center))),
        ("double_well", _cli(space, "double_well", radius=0.7)),
    ]


@pytest.mark.parametrize("dimension,n", [(1, 8), (1, 128), (2, 4)])
def test_declared_hessians_match_finite_differences(dimension, n):
    space = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(n + dimension)
    for label, f in _declarers(space, rng):
        for scale in (0.3, 1.5):
            x = scale * rng.standard_normal(space.n_cells)
            H = f.hessian(x)
            assert H.shape == (space.n_cells,) * 2, label
            _close(H, _fd(f.gradient, x))


@pytest.mark.parametrize("dimension,n", [(1, 8), (2, 4)])
def test_quasilinear_hessian_at_a_flat_point(dimension, n):
    # where a cell's difference vanishes (t = 0) the radial block is its
    # limit L_tt·I; the Dirichlet energies give the Laplacian there and
    # everywhere else
    space = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(5)
    A = laplacian_matrix(space)
    for I in (ap.dirichlet_integrand(), ap.forced_dirichlet_integrand(1.5)):
        f = ap.quasilinear_functional(I, space)
        for x in (np.zeros(space.n_cells), np.full(space.n_cells, 0.4),
                  rng.standard_normal(space.n_cells)):
            assert np.max(np.abs(f.hessian(x) - A)) <= 1e-9 * np.max(A)
    f = ap.quasilinear_functional(_quartic_integrand(), space)
    x = np.full(space.n_cells, 0.4)
    _close(f.hessian(x), _fd(f.gradient, x))


def test_penalty_hessian_matches_finite_differences(g1d8, g2d4):
    rng = np.random.default_rng(3)
    for space in (g1d8, g2d4):
        metric = XMetric(space)
        c = rng.standard_normal(space.n_cells)
        x = c + 0.2 * rng.standard_normal(space.n_cells)
        _close(metric.penalty_hessian(x, c),
               _fd(lambda W: metric.penalty_grad(W, c), x))
        # zero at the center, as the gradient is
        assert not np.any(metric.penalty_hessian(c, c))


def _recorded_calls(monkeypatch):
    """Every minimize_multistart call as (fun, grad, starts, hess)."""
    calls, real = [], _descent.minimize_multistart

    def record(fun, grad, starts, **kw):
        calls.append((fun, grad, np.array(starts, float), kw.get("hess")))
        return real(fun, grad, starts, **kw)

    monkeypatch.setattr(_descent, "minimize_multistart", record)
    return calls


@pytest.mark.parametrize("engine", ["chain", "bp"])
def test_engine_phi_hessians_match_finite_differences(g1d8, monkeypatch,
                                                      engine):
    # the chain's φ = f + σ‖w − v_k‖_X and Borwein-Preiss's p = 2 φ
    # declare H_f plus their penalty's Hessian; a φ over an f without a
    # Hessian leaves the polish to finite differences
    space = g1d8
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.0), space)
    _, _, argmin = pr.estimate_inf(f, space, whole_space(space), 2)
    u0 = theta(space.function(argmin))
    rng = np.random.default_rng(4)
    for fn, declared in ((f, True), (dataclasses.replace(f, hessian=None),
                                     False)):
        calls = _recorded_calls(monkeypatch)
        if engine == "chain":
            pr.symmetric_ekeland(fn, space, u0, 0.05, 0.05, variant="II",
                                 seed=1, n_samples=50)
        else:
            pr.symmetric_borwein_preiss(fn, space, u0, 0.05, 0.05, seed=1,
                                        n_samples=50)
        monkeypatch.undo()
        # the first call is estimate_inf's, on f itself
        assert len(calls) > 1
        for fun, grad, starts, hess in calls[1:]:
            assert (hess is not None) == declared
            if declared:
                for x in starts[:2] + 0.1 * rng.standard_normal(
                        (2, space.n_cells)):
                    _close(hess(x), _fd(grad, x))


def _polish_log(monkeypatch):
    """Each _newton_step of a polish as (free set, Hessian id, accepted)."""
    log, real = [], _descent._newton_step

    def step(fun, x, fx, idx, H, gf, lo, hi):
        out = real(fun, x, fx, idx, H, gf, lo, hi)
        log.append((idx.tobytes(), id(H), out is not None))
        return out

    monkeypatch.setattr(_descent, "_newton_step", step)
    return log


def _counted(f, monkeypatch):
    """f's Hessian and _fd_hessian, each counting its builds."""
    built = {"declared": 0, "fd": 0}
    real_fd = _descent._fd_hessian

    def fd(grad, x, idx):
        built["fd"] += 1
        return real_fd(grad, x, idx)

    def hess(x):
        built["declared"] += 1
        return f.hessian(x)

    monkeypatch.setattr(_descent, "_fd_hessian", fd)
    return dataclasses.replace(f, hessian=hess), built


def _follows_the_chord_rule(log):
    """A polish's log builds a new Hessian only where the free set changed
    or every step with the kept Hessian was rejected."""
    for (idx0, h0, ok0), (idx1, h1, _) in zip(log, log[1:]):
        if h1 != h0 and idx1 == idx0:
            assert not ok0
    return len({h for _, h, _ in log})


@pytest.mark.parametrize("declared", [True, False])
def test_polish_builds_one_hessian_while_the_free_set_holds(g1d8,
                                                            monkeypatch,
                                                            declared):
    space = g1d8
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.5), space)
    fc, built = _counted(f, monkeypatch)
    log = _polish_log(monkeypatch)
    fun, grad = pr._f_arr(f, space), f.gradient
    hess = fc.hessian if declared else None
    rng = np.random.default_rng(6)
    box = (np.zeros(space.n_cells), np.full(space.n_cells, np.inf))
    for bounds in ((), box):
        for _ in range(4):
            x = rng.standard_normal(space.n_cells)
            if bounds:
                x = np.maximum(x, 0.0)
            log.clear()
            built.update(declared=0, fd=0)
            _, fn = _descent.newton_polish(fun, grad, x, fun(x), *bounds,
                                           hess=hess)
            assert fn < fun(x)
            assert built["declared" if declared else "fd"] == sum(
                built.values()) == _follows_the_chord_rule(log)
            if declared and not bounds:
                # the declared Hessian of a quadratic is exact: one build
                # and one step to the minimizer
                assert sum(built.values()) == 1


def test_polish_without_a_hessian_differences_the_gradient(g1d8,
                                                           monkeypatch):
    # the descent uses the declared Hessian when there is one, and
    # _fd_hessian otherwise
    space = g1d8
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.5), space)
    fc, built = _counted(f, monkeypatch)
    pr.estimate_inf(fc, space, whole_space(space), 0)
    assert built["declared"] > 0 and built["fd"] == 0
    built.update(declared=0, fd=0)
    pr.estimate_inf(dataclasses.replace(fc, hessian=None), space,
                    whole_space(space), 0)
    assert built["declared"] == 0 and built["fd"] > 0


def test_free_set_slice_equals_finite_differences_on_the_same_set(g1d8,
                                                                  g2d4):
    # on a box the polish slices the declared Hessian to the free set;
    # that slice is _fd_hessian on the same coordinates.  The forcing of
    # both energies pushes up, so a cell at the top of the box whose
    # neighbours are there too is held.
    rng = np.random.default_rng(8)
    for space in (g1d8, g2d4):
        box = box_set(space, -0.5, 0.5)
        for f in (ap.semilinear_functional(_cli(space, "cubic"), space, box),
                  ap.quasilinear_functional(_quartic_integrand(), space)):
            x = np.full(space.n_cells, 0.5)
            x[::4] = rng.uniform(-0.4, 0.4, len(x[::4]))
            g = f.gradient(x)
            free = ~(((x <= box.lo + 1e-12) & (g > 0))
                     | ((x >= box.hi - 1e-12) & (g < 0)))
            idx = np.flatnonzero(free)
            assert 0 < len(idx) < space.n_cells
            _close(f.hessian(x)[np.ix_(idx, idx)], _fd(f.gradient, x, idx))

