"""Declared Euclidean Hessians and the chord Newton polish.

Every declared Hessian is checked against the finite-difference Hessian
that the polish builds without one (``_descent._fd_hessian``), to 1e-6
relative, at generic points, through the dense view of its band form;
each band form equals the dense matrix of its closed form entry for
entry; the polish keeps one factored Hessian while its free set holds and
rebuilds it only when the free set changes or a step with the kept one is
rejected, and it never calls ``np.linalg.solve``.
"""

import dataclasses

import numpy as np
import pytest

from symvar import _descent, make_grid, theta
from symvar import applications as ap
from symvar import principles as pr
from symvar.funcspace import gram_matrix, laplacian_matrix
from symvar.principles import XMetric, box_set, whole_space

from test_applications import _quartic_integrand
from test_descent import _cli


def _close(H, ref):
    """H (dense, or the dense view of a band form) equals ref to 1e-6
    relative (to ref's largest entry)."""
    err = float(np.max(np.abs(_dense(H) - ref)))
    assert err <= 1e-6 * float(np.max(np.abs(ref))), err


def _dense(H):
    return H.dense() if isinstance(H, _descent._BandHessian) else H


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
            H = f.hessian(x).dense()
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
            assert (np.max(np.abs(f.hessian(x).dense() - A))
                    <= 1e-9 * np.max(A))
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
        assert not np.any(metric.penalty_hessian(c, c).dense())


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
                    # the band form against the dense sum the engine
                    # adds up: H_f plus σ times the penalty's Hessian
                    # (the chain's to rounding, Borwein-Preiss's exactly)
                    if engine == "chain":
                        ref = f.hessian(x).dense() + 0.05 * _dense_penalty(
                            space, x, starts[0])
                        _same_to_rounding(hess(x).dense(), ref)
                    else:
                        assert np.array_equal(
                            hess(x).dense(), f.hessian(x).dense()
                            + 2.0 * 0.05 * gram_matrix(space))


def _polish_log(monkeypatch):
    """Each _newton_step of a polish as (free set, id of the factored
    Hessian's solve, accepted)."""
    log, real = [], _descent._newton_step

    def step(x, fx, idx, solve, gf, lo, hi):
        out = yield from real(x, fx, idx, solve, gf, lo, hi)
        log.append((idx.tobytes(), id(solve), out is not None))
        return out

    monkeypatch.setattr(_descent, "_newton_step", step)
    return log


def _factorizations(monkeypatch):
    """A count of the LAPACK banded factorizations (``dgbtrf``), with
    ``np.linalg.solve`` made to raise."""
    count, real = [0], _descent.lapack.dgbtrf

    def dgbtrf(*args, **kw):
        count[0] += 1
        return real(*args, **kw)

    def no_solve(*args, **kw):
        raise AssertionError("np.linalg.solve on the Newton path")

    monkeypatch.setattr(_descent.lapack, "dgbtrf", dgbtrf)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    return count


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
    factored = _factorizations(monkeypatch)
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
            factored[0] = 0
            _, (fn,), _ = _descent.newton_rows(fun, grad, [x], [fun(x)],
                                               *bounds, hess=hess)
            assert fn < fun(x)
            assert built["declared" if declared else "fd"] == sum(
                built.values()) == _follows_the_chord_rule(log)
            # one banded factorization per build, none for a reused one
            assert factored[0] == sum(built.values())
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
            H = f.hessian(x)
            sliced = H.dense()[np.ix_(idx, idx)]
            assert np.array_equal(H.take(idx).dense(), sliced)
            _close(sliced, _fd(f.gradient, x, idx))



# ---------------------------------------------------------------------------
# the band forms against the dense matrices they replace

def _dense_keys(space):
    """The flat indices into an (N+1, N+1) matrix at which the dense
    assembly added the terms of ``_quasilinear_hessian_terms``: index N
    stands for the zero past the high edges; each cell's (d+1)² stencil
    pairs, then the diagonal entry of each ghost node's cell."""
    N = space.n_cells
    cell = np.arange(N).reshape((space.n,) * space.dimension)
    cols, owners = [np.arange(N)], []
    for axis in range(space.dimension):
        lo = (slice(None),) * axis
        nb = np.full_like(cell, N)
        nb[lo + (slice(None, -1),)] = cell[lo + (slice(1, None),)]
        cols.append(nb.reshape(-1))
        owners.append(cell[lo + (0,)].reshape(-1))
    cols = np.stack(cols, axis=1)
    return np.concatenate(((cols[:, :, None] * (N + 1)
                            + cols[:, None, :]).ravel(),
                           np.concatenate(owners) * (N + 2)))


def _dense_penalty(space, x, center):
    """Gx/d − (Gx·D)(Gx·D)ᵀ/d³, D = x − center, d = ‖D‖_X, as a dense
    matrix (zero where d is below 1e-14)."""
    gram, D = gram_matrix(space), x - center
    d = float(XMetric(space).norm(D))
    if d < 1e-14:
        return np.zeros_like(gram)
    G = gram @ D
    return gram / d - np.outer(G, G) / d ** 3


def _same_to_rounding(H, ref):
    """Entry for entry to a few units in the last place of ref's largest
    entry (a rank-1 term scaled by −1/d³ instead of divided by d³)."""
    assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dimension,n", [(1, 8), (1, 128), (2, 4), (2, 8)])
def test_band_forms_equal_the_dense_hessians(dimension, n):
    space = make_grid(dimension, n, 1.0, 2, 4)
    N, m = space.n_cells, space.cell_measure
    rng = np.random.default_rng(10 * n + dimension)
    gram, A, keys = gram_matrix(space), laplacian_matrix(space), \
        _dense_keys(space)
    for scale in (0.3, 1.5):
        x = scale * rng.standard_normal(N)
        for I in (ap.dirichlet_integrand(), ap.forced_dirichlet_integrand(1.5),
                  _quartic_integrand()):
            H = ap.quasilinear_functional(I, space).hessian(x)
            assert H.w == (1 if dimension == 1 else n) and not len(H.c)
            ref = np.bincount(keys, ap._quasilinear_hessian_terms(I, space, x),
                              minlength=(N + 1) ** 2)
            assert np.array_equal(H.dense(),
                                  ref.reshape(N + 1, N + 1)[:N, :N])
        for name in ("linear_damping", "cubic"):
            nl = _cli(space, name)
            h = _descent._FD_STEP * (1.0 + float(np.max(np.abs(x))))
            dg = (ap._each(nl.g, x + h) - ap._each(nl.g, x - h)) / (2.0 * h)
            H = ap.semilinear_functional(nl, space).hessian(x)
            assert np.array_equal(H.dense(), A - np.diag(m * dg))
        center = rng.standard_normal(N)
        H = _cli(space, "quadratic", center=list(center)).hessian(x)
        assert np.array_equal(H.dense(), 2.0 * gram)
        H = _cli(space, "double_well", radius=0.7).hessian(x)
        assert H.w == 0 and len(H.c) == 1
        assert np.array_equal(H.dense(), 4.0 * m * (m * float(x @ x) - 0.7 ** 2)
                              * np.eye(N) + 8.0 * m * m * np.outer(x, x))
        H = XMetric(space).penalty_hessian(x, center)
        _same_to_rounding(H.dense(), _dense_penalty(space, x, center))


@pytest.mark.parametrize("name", ["forced", "double_well"])
def test_factor_solves_chain_hessians_on_free_set_slices(g1d8, g2d4,
                                                          monkeypatch, name):
    # the chain's φ Hessian is H_f + σ·(Gx/d − ccᵀ/d³): band + rank 1 over
    # the quasi-linear energy, band + rank 2 over the double well; at its
    # own center (d = 0) the penalty term is zero, and the quasi-linear φ
    # is a band alone (the double well's is singular there: its diagonal
    # part vanishes at its minimizer).  Sliced to a free set without two
    # interior coordinates, the factor solves it as the dense solve does.
    # (T_ρ is stuck on 2D 4×4 from the double well's minimizer, so that
    # chain runs on 1D 16.)
    rng = np.random.default_rng(12)
    grids = (g1d8, g2d4 if name == "forced" else make_grid(1, 16, 1.0, 2, 4))
    for space in grids:
        N = space.n_cells
        if name == "forced":
            f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.0),
                                          space)
        else:
            f = _cli(space, "double_well", radius=0.7)
        _, _, argmin = pr.estimate_inf(f, space, whole_space(space), 2)
        u0 = theta(space.function(argmin))
        calls = _recorded_calls(monkeypatch)
        pr.symmetric_ekeland(f, space, u0, 0.05, 0.05, variant="II", seed=1,
                             n_samples=50)
        monkeypatch.undo()
        _, _, starts, hess = calls[1]
        center, moved = starts[0], starts[0] + 0.1 * rng.standard_normal(
            (2, N))
        cases = ([(center, 0), (moved[0], 1)] if name == "forced"
                 else [(moved[0], 2), (moved[1], 2)])
        idx = np.delete(np.arange(N), [2, N // 2 + 1])
        for x, rank in cases:
            H = hess(x)
            assert len(H.c) == rank
            b = rng.standard_normal(len(idx))
            d = H.take(idx).factor()(b)
            ref = np.linalg.solve(H.dense()[np.ix_(idx, idx)], b)
            assert np.max(np.abs(d - ref)) <= 1e-10 * np.max(np.abs(ref))
