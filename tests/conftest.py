import numpy as np
import pytest

from symvar import Functional, GridFunction, make_grid
from symvar.funcspace import gram_matrix


@pytest.fixture(scope="session")
def g1d2():
    return make_grid(1, 2, 1.0, 2, 4)


@pytest.fixture(scope="session")
def g1d4():
    return make_grid(1, 4, 1.0, 2, 4)


@pytest.fixture(scope="session")
def g1d8():
    return make_grid(1, 8, 1.0, 2, 4)


@pytest.fixture(scope="session")
def g2d4():
    return make_grid(2, 4, 1.0, 2, 4)


def quad_X(a: GridFunction, name="quadX") -> Functional:
    """f(u) = ‖u−a‖²_X with its gradient Gx·2(u−a), a gemv per row.

    Polarization-nonincreasing only when Gx·a is canonically ordered (the
    cross term is then a Hardy-Littlewood pairing); use ``sym_center`` to
    build such centers for the symmetric engines."""
    gram = gram_matrix(a.space)

    def ev(u):
        d = u.values - a.values
        return float(d @ gram @ d)

    def grad(W):
        return np.matmul(gram, (2.0 * (W - a.values))[..., None])[..., 0]

    return Functional(eval=ev, gradient=grad,
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name=name)


def sym_center(space, seed=0, scale=1.0) -> GridFunction:
    """Center a = Gx⁻¹(w), w canonical ≥ 0: then u ↦ ‖u−a‖²_X does not
    increase under polarization (‖u^H‖_X ≤ ‖u‖_X plus the two-point pairing
    u^H·w ≥ u·w), and a itself is nonnegative (Gx is an M-matrix).

    Retries seeds until a is also a schwarz fixed point, so trivial-case
    tests can assert v = a = a*."""
    from symvar.rearrange import is_family_fixed, schwarz

    gram = gram_matrix(space)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        w = schwarz(space.function(
            scale * (np.abs(rng.standard_normal(space.n_cells)) + 0.2) ** 2))
        a = GridFunction(space, np.linalg.solve(gram, w.values))
        if is_family_fixed(a) and np.all(a.values >= 0):
            return a
    raise AssertionError("no canonical center found; widen the search")


def quad_V(a: GridFunction, name="quadV") -> Functional:
    from symvar import norm_V

    def ev(u):
        return norm_V(u - a) ** 2

    return Functional(eval=ev, symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name=name)


def double_well(space, name="double_well") -> Functional:
    gram = gram_matrix(space)

    def ev(u):
        return (float(u.values @ gram @ u.values) - 1.0) ** 2

    def grad(W):
        # Gx·(4(uᵀGx·u − 1)·u), a gemv per row
        sq = np.matmul(np.matmul(W[..., None, :], gram), W[..., :, None])
        c = 4.0 * (sq[..., 0] - 1.0)
        return np.matmul(gram, (c * W)[..., None])[..., 0]

    return Functional(eval=ev, gradient=grad,
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name=name)


def double_well_L2(space, radius=1.0, name="double_well_L2") -> Functional:
    """(m·Σu² − r²)²: rearrangement-invariant double well, admissible for
    the symmetric principles (the X-norm analogue is not)."""
    m = space.cell_measure
    r2 = radius ** 2

    def ev(u):
        return (m * float(u.values @ u.values) - r2) ** 2

    def grad(W):
        sq = np.matmul(W[..., None, :], W[..., :, None])[..., 0, 0]
        return (4.0 * (m * sq - r2) * m)[..., None] * W

    return Functional(eval=ev, gradient=grad,
                      symmetry_class="polarization-invariant",
                      lower_bound=0.0, name=name)


def linear_fn(c: GridFunction, name="linear") -> Functional:
    gram = gram_matrix(c.space)

    def ev(u):
        return float(c.values @ gram @ u.values)

    def grad(W):
        return np.broadcast_to(gram @ c.values, np.shape(W)).copy()

    return Functional(eval=ev, gradient=grad, symmetry_class="unverified",
                      name=name)


def on_rows(grad):
    """A gradient of one vector (N,) as a ``Functional.gradient``: a block
    (k, N) is taken row by row."""
    return lambda W: (np.array([grad(w) for w in W]) if np.ndim(W) == 2
                      else grad(W))


def random_S(space, rng, scale=1.0) -> GridFunction:
    return GridFunction(space, scale * np.abs(rng.standard_normal(space.n_cells)))


def probe_spy(monkeypatch):
    """Record every ``estimate_inf`` call as (its extra starts, its result),
    wherever the library has bound the name."""
    from symvar import applications, principles

    real, calls = principles.estimate_inf, []

    def spy(f, space, domain, seed, extra_starts=()):
        out = real(f, space, domain, seed, extra_starts=extra_starts)
        calls.append(([np.array(s) for s in extra_starts], out))
        return out

    monkeypatch.setattr(principles, "estimate_inf", spy)
    monkeypatch.setattr(applications, "estimate_inf", spy)
    return calls
