"""Every sampler scores its samples as blocks: the GridFunctions that a
sampler builds (the counter perfbench traces as
``funcspace.gridfunction_new``) do not grow with its sample count."""

import numpy as np
import pytest

from conftest import double_well_L2, quad_X, sym_center
from symvar import applications as ap
from symvar import make_grid
from symvar import principles as pr
from symvar import slopes as sl
from symvar.funcspace import Functional, GridFunction, gram_matrix


def _radial_double_well(space):
    """r²(r−1)² in r = ‖u‖_X: a mountain pass between 0 and the unit
    sphere."""
    gram = gram_matrix(space)

    def ev(u):
        r = np.sqrt(float(u.values @ gram @ u.values))
        return r * r * (r - 1.0) ** 2

    def dv(u):
        r = np.sqrt(float(u.values @ gram @ u.values))
        if r == 0:
            return space.zeros()
        return GridFunction(space, (2.0 * (r - 1.0) ** 2 + 2.0 * r * (r - 1.0))
                            * u.values)

    return Functional(eval=ev, derivative=dv,
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name="radial_double_well")


def _path_minimax(n):
    g = make_grid(1, 2, 1.0, 2, 4)
    ones = np.ones(2)
    psi = g.function(ones / np.sqrt(ones @ gram_matrix(g) @ ones))
    pr.path_minimax(_radial_double_well(g), psi, 6, 0.05, seed=8,
                    n_samples=n)


def _strong_slope(n):
    g = make_grid(1, 8, 1.0, 2, 4)
    sl.strong_slope(double_well_L2(g), g.function(np.linspace(0.1, 0.8, 8)),
                    n_samples=n, seed=1)


def _q_form(n):
    g = make_grid(1, 8, 1.0, 2, 4)
    sl.q_form(double_well_L2(g), g.function(np.linspace(0.1, 0.8, 8)),
              g.function(np.ones(8)), n_samples=n, seed=1)


def _sqps(n):
    g = make_grid(1, 4, 1.0, 2, 4)
    pr.sqps_sequence(quad_X(sym_center(g, 1)), g, [0.1], seed=9,
                     n_samples=50, q_probes=n)


def _semilinear(n):
    g = make_grid(1, 8, 1.0, 2, 4)
    damping = ap.SemilinearNonlinearity(g=lambda s: -s,
                                        G=lambda s: -0.5 * s * s, a1=1.0,
                                        a2=2.0, b=1.0, p=3.0)
    ap.semilinear_experiment(damping, g, [0.1], seed=11, n_samples=50,
                             q_probes=2, second_order_samples=n)


def _dgz(n):
    g = make_grid(1, 4, 1.0, 2, 4)
    a = sym_center(g, 3)
    bump = pr.bump_perturbation(g, a, 0.1, 1.0)
    # derivative-free: sup‖g'‖ comes from finite differences of g
    pr.dgz_check(quad_X(a), Functional(eval=bump.eval, name="bump"), a, 0.1,
                 seed=6, n_samples=n)


def _drop(n):
    g = make_grid(1, 2, 1.0, 2, 4)
    c = 0.5 + 3.0 / np.sqrt(2.0) + 1.0 / np.sqrt(2.0)
    x = g.function([0.4, 0.4])
    singleton = pr.SetOracle(
        contains=lambda v: bool(np.max(np.abs(v - x.values)) <= 1e-9),
        project=lambda v: np.array(x.values))
    ap.symmetric_drop_point(x, ap.Ball(g.function([c, c]), 1.0,
                                       symmetric=True),
                            singleton, 0.05, seed=0, n_samples=100,
                            minimality_samples=n)


def _diag_ray():
    def project(v):
        a = max(1.0, 0.5 * (v[0] + v[1]))
        return np.array([a, a])

    return pr.SetOracle(
        contains=lambda v: bool(abs(v[0] - v[1]) <= 1e-9 and v[0] >= 1.0),
        project=project)


def _petal(n):
    g = make_grid(1, 2, 1.0, 2, 4)
    ap.symmetric_petal_point(g.function([1.0, 1.0]), g.zeros(), _diag_ray(),
                             0.3, seed=14, n_samples=100,
                             minimality_samples=n)


def _petal_inclusions(n):
    g = make_grid(1, 2, 1.0, 2, 4)
    ap.petal_inclusions(ap.Petal(0.5, g.function([2.0, 1.0]),
                                 g.function([0.2, 0.1])), n_samples=n, seed=0)


SAMPLERS = {
    "path_minimax": (_path_minimax, 20),
    "strong_slope": (_strong_slope, 16),
    "q_form": (_q_form, 8),
    "sqps_sequence": (_sqps, 8),
    "semilinear_experiment": (_semilinear, 16),
    "dgz_check": (_dgz, 4000),
    "symmetric_drop_point": (_drop, 200),
    "symmetric_petal_point": (_petal, 200),
    "petal_inclusions": (_petal_inclusions, 200),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_gridfunctions_do_not_grow_with_samples(name, monkeypatch):
    run, n = SAMPLERS[name]
    init = GridFunction.__init__
    built = [0]

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GridFunction, "__init__", counted)
    counts = []
    for k in (n, 2 * n):
        built[0] = 0
        run(k)
        counts.append(built[0])
    assert counts[0] == counts[1], counts
