import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from symvar import (Functional, GridFunction, InvalidArgument,
                    InvalidExponent, InvalidGrid, SpaceMismatch,
                    function_from_json, function_to_json, make_grid, norm_Lr,
                    norm_V, norm_W, norm_X, theta)
from symvar import funcspace, rearrange
from symvar.funcspace import (GridSpace, _dirichlet_rows, _laplacian_rows,
                              _lr_norm_raw, _norm_V_raw, _norm_X_raw,
                              _pow_rows, gram_matrix, laplacian_matrix,
                              riesz_from_euclidean)
from symvar.principles import Certificate, symmetric_ekeland, verify_certificate
from symvar.rearrange import is_family_fixed

from conftest import quad_X, sym_center


def test_make_grid_1d_four_cells():
    g = make_grid(1, 4, 1.0, 2, 4)
    assert np.allclose(g.cells.ravel(), [-0.75, -0.25, 0.25, 0.75])
    assert g.cell_measure == pytest.approx(0.5)


def test_make_grid_smallest_symmetric():
    g = make_grid(1, 2, 1.0, 2, 4)
    assert np.allclose(g.cells.ravel(), [-0.5, 0.5])


def test_make_grid_2d_enumerates_tensor_grid():
    g = make_grid(2, 4, 1.0, 2, 4)
    assert g.n_cells == 16
    assert g.cell_measure == pytest.approx(0.25)
    # oracle: enumerate the tensor grid directly
    coords = -1.0 + (np.arange(4) + 0.5) * 0.5
    expected = np.array([(x, y) for x in coords for y in coords])
    assert np.allclose(g.cells, expected)


def test_make_grid_errors():
    with pytest.raises(InvalidGrid):
        make_grid(1, 5, 1.0, 2, 4)
    with pytest.raises(InvalidGrid):
        make_grid(3, 4, 1.0, 2, 4)
    with pytest.raises(InvalidExponent):
        make_grid(1, 4, 1.0, 1.0, 4)
    with pytest.raises(InvalidExponent):
        make_grid(1, 4, 1.0, 2, q_W=1.5)  # q_W < p


def test_exponent_structure():
    g = make_grid(1, 4, 1.0, 2, 4)
    assert g.p < g.q_W < g.q_V


def test_norm_X_zero(g1d4):
    assert norm_X(g1d4.zeros()) == 0.0


def test_norm_X_two_cell_hand_value():
    # 2 cells at ±0.5, spacing 1, measure 1, u = (0, 1):
    # edges (0-0)² + (1-0)² + (0-1)² plus cell 1² -> sqrt(3)
    g = make_grid(1, 2, 1.0, 2, 4)
    u = g.function([0.0, 1.0])
    assert norm_X(u) == pytest.approx(math.sqrt(3.0), abs=1e-14)
    # mirror symmetry of the full edge set
    assert norm_X(g.function([1.0, 0.0])) == pytest.approx(math.sqrt(3.0), abs=1e-14)


@given(c=st.floats(-50, 50, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_norm_homogeneity(c):
    g = make_grid(1, 4, 1.0, 2, 4)
    rng = np.random.default_rng(11)
    u = g.function(rng.standard_normal(4))
    for nrm in (norm_X, norm_V, norm_W):
        assert nrm(c * u) == pytest.approx(abs(c) * nrm(u), rel=1e-12, abs=1e-12)


def test_norm_triangle_inequality(g1d8):
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = g1d8.function(rng.standard_normal(8))
        v = g1d8.function(rng.standard_normal(8))
        for nrm in (norm_X, norm_V, norm_W):
            assert nrm(u + v) <= nrm(u) + nrm(v) + 1e-12


def test_norm_V_indicator(g1d4):
    m = g1d4.cell_measure
    u = g1d4.function([0, 1, 0, 0])
    assert norm_V(u) == pytest.approx(max(m ** (1 / g1d4.p),
                                          m ** (1 / g1d4.q_V)), abs=1e-14)
    assert norm_W(u) == pytest.approx(m ** (1 / g1d4.q_W), abs=1e-14)


def test_lr_norms_of_finite_input_do_not_overflow():
    # Σ|x|^8 overflows to inf above about 1e38 and Σ|x|^4 above about
    # 1e77: such a row is normed as s·‖x/s‖, s = max|x|; a finite result
    # keeps its bits, and a row with an infinite entry stays inf
    g = make_grid(2, 4, 1.0, 2, 4)
    assert (g.q_V, g.q_W) == (8.0, 4.0)
    z = g.function(np.random.default_rng(0).standard_normal(g.n_cells))
    m = g.cell_measure
    with np.errstate(over="ignore"):
        big_V, big_W = norm_V(1e39 * z), norm_W(1e100 * z)
        block = np.vstack([z.values, 1e39 * z.values, 1e300 * z.values,
                           np.append(np.inf, z.values[1:])])
        rows = _norm_V_raw(block, m, g.p, g.q_V)
        one = [_norm_V_raw(w, m, g.p, g.q_V) for w in block]
    assert math.isfinite(big_V) and math.isfinite(big_W)
    assert big_V == pytest.approx(1e39 * norm_V(z), rel=1e-12)
    assert big_W == pytest.approx(1e100 * norm_W(z), rel=1e-12)
    assert np.array_equal(rows, one)
    assert rows[0] == norm_V(z) == max(_lr_norm_plain(z.values, m, g.p),
                                       _lr_norm_plain(z.values, m, g.q_V))
    assert rows[2] == pytest.approx(1e300 * norm_V(z), rel=1e-12)
    assert rows[3] == math.inf


def test_norms_constant_on_unit_measure_grid():
    g = make_grid(1, 4, 0.5, 2, 4)   # total measure = 1
    u = g.function(np.ones(4))
    for r in (1.5, 2.0, 3.0, 4.0, 7.0):
        assert norm_Lr(u, r) == pytest.approx(1.0, abs=1e-14)


def test_embedding_constant_bounds_sampled_ratios():
    for g in (make_grid(1, 8, 1.0, 2, 4), make_grid(2, 4, 1.0, 2, 4),
              make_grid(1, 8, 1.0, 3, 4.5)):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = g.function(rng.standard_normal(g.n_cells))
            nx = norm_X(u)
            if nx > 0:
                assert norm_V(u) <= g.K * nx * (1 + 1e-9)


def _edge_matrix(space):
    """Forward differences over the full edge set (zero extension), one
    row per edge, as norm_X takes them."""
    n = space.n
    d1 = np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)
    if space.dimension == 1:
        return d1
    return np.vstack([np.kron(d1, np.eye(n)), np.kron(np.eye(n), d1)])


def _best_ratio(space, r, starts):
    """L-BFGS maximum of ‖u‖_{L^r}/‖u‖_X from each start, the best ratio
    evaluated with the library's norm kernels."""
    D = _edge_matrix(space) / space.spacing
    m, p = space.cell_measure, space.p

    def neg_ratio(u):
        du = D @ u
        a = (m * np.sum(np.abs(u) ** r)) ** (1 / r)
        b = (m * (np.sum(np.abs(du) ** p) + np.sum(np.abs(u) ** p))) ** (1 / p)
        ga = a ** (1 - r) * m * np.abs(u) ** (r - 1) * np.sign(u)
        gb = b ** (1 - p) * m * (D.T @ (np.abs(du) ** (p - 1) * np.sign(du))
                                 + np.abs(u) ** (p - 1) * np.sign(u))
        return -a / b, -(ga * b - a * gb) / b ** 2

    best = 0.0
    for u0 in starts:
        u = optimize.minimize(neg_ratio, u0, jac=True, method="L-BFGS-B",
                              options={"maxiter": 2000, "ftol": 1e-15,
                                       "gtol": 1e-12}).x
        best = max(best, _lr_norm_raw(u, m, r) / norm_X(space.function(u)))
    return best


@pytest.mark.parametrize("dimension,n,radius,p,q_W", [
    (1, 2, 1.0, 2, 4), (1, 4, 1.0, 2, 4), (1, 8, 1.0, 2, 4),
    (1, 16, 1.0, 2, 4), (1, 8, 0.5, 2, 4), (2, 2, 1.0, 2, 4),
    (2, 4, 1.0, 2, 4), (2, 8, 1.0, 2, 4), (1, 4, 1.0, 3, 4),
    (1, 8, 1.0, 3, 4), (2, 4, 1.0, 1.5, 2)])
def test_embedding_constant_is_an_upper_bound(dimension, n, radius, p, q_W):
    g = make_grid(dimension, n, radius, p, q_W)
    spike = np.eye(g.n_cells)[np.argmin(np.sum(g.cells ** 2, axis=1))]
    rng = np.random.default_rng(3)
    starts = [spike] + [np.abs(rng.standard_normal(g.n_cells))
                        for _ in range(3)]
    for r in (g.q_V, g.p):
        assert _best_ratio(g, r, starts) <= g.K * (1 + 1e-12)


def test_theta_examples(g1d2):
    u = g1d2.function([-1.0, 2.0])
    assert np.array_equal(theta(u).values, [1.0, 2.0])
    v = g1d2.function([0.5, 2.0])
    assert theta(v) == v                      # identity on S, exact
    assert theta(theta(u)) == theta(u)        # idempotent, exact


def test_theta_contractive_in_V(g1d8):
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = g1d8.function(rng.standard_normal(8))
        v = g1d8.function(rng.standard_normal(8))
        assert norm_V(theta(u) - theta(v)) <= norm_V(u - v) + 1e-12


def test_gridfunction_immutable_and_space_checked(g1d4, g1d8):
    u = g1d4.function([1, 2, 3, 4])
    with pytest.raises((ValueError, AttributeError)):
        u.values[0] = 9.0
    with pytest.raises(SpaceMismatch):
        _ = u + g1d8.function(np.ones(8))
    with pytest.raises(ValueError):
        g1d4.function([1, 2, 3, np.nan])


def test_gridfunction_refuses_a_wrong_shape_and_assignment(g1d4):
    with pytest.raises(SpaceMismatch, match="expected 4 values"):
        GridFunction(g1d4, np.ones(5))
    u = g1d4.function([1, 2, 3, 4])
    with pytest.raises(AttributeError, match="immutable"):
        u.values = np.zeros(4)


def test_serialization_round_trip(g1d4):
    u = g1d4.function([0.25, -1.5, 3.0, 0.0])
    obj = function_to_json(u)
    assert set(obj) == {"dimension", "n", "radius", "p", "qV", "qW", "values"}
    v = function_from_json(obj)
    assert v.space.signature == g1d4.signature
    assert np.array_equal(v.values, u.values)


def test_q_V_default_collision_bumped():
    # default q_V = 2p collides with q_W = 4; bumped to 2·q_W
    g = make_grid(1, 4, 1.0, 2, 4)
    assert g.q_V == pytest.approx(8.0)
    # p < dimension uses the critical exponent
    g2 = make_grid(2, 4, 1.0, 1.5, 2.0)
    assert g2.q_V == pytest.approx(2 * 1.5 / (2 - 1.5))


@pytest.mark.parametrize("dimension,n", [(1, 8), (1, 128), (2, 8)])
def test_riesz_matches_dense_solve(dimension, n):
    g = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(11)
    for _ in range(3):
        grad = rng.standard_normal(g.n_cells)
        dense = np.linalg.solve(gram_matrix(g), grad)
        rep = riesz_from_euclidean(g, grad)
        assert np.linalg.norm(rep - dense) <= 1e-12 * np.linalg.norm(dense)


def test_riesz_reuses_cached_factor(g1d8):
    # Gx is factored once, in LAPACK's upper band storage (w + 1 rows,
    # ab[w + i − j, j] = U[i, j]), kept read-only on the grid and reused by
    # every later solve
    upper = g1d8._gram_factor
    assert upper.shape == (2, 8) and not upper.flags.writeable
    U = np.diag(upper[1]) + np.diag(upper[0, 1:], k=1)
    assert np.allclose(U.T @ U, gram_matrix(g1d8), rtol=1e-13)
    grad = np.arange(8.0)
    first = riesz_from_euclidean(g1d8, grad)
    for _ in range(3):
        assert g1d8._gram_factor is upper
        assert np.array_equal(riesz_from_euclidean(g1d8, grad), first)
    block = np.stack([grad, -grad], axis=1)
    assert np.allclose(riesz_from_euclidean(g1d8, block),
                       np.stack([first, -first], axis=1), rtol=1e-15)


@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 128),
                                         (2, 2), (2, 4), (2, 16)])
def test_dense_views_equal_the_kronecker_reference(dimension, n):
    # the dense views of the band equal, entry for entry, the closed form
    # (m/h²)(L ⊗ I + I ⊗ L) + m·I (1D: (m/h²)L + m·I), L = tridiag(−1, 2,
    # −1); both are read-only and the Gram view is cached on the grid
    g = make_grid(dimension, n, 1.0, 2, 4)
    m, h = g.cell_measure, g.spacing
    L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if dimension == 2:
        L = np.kron(L, np.eye(n)) + np.kron(np.eye(n), L)
    A = (m / h ** 2) * L
    lap, gram = laplacian_matrix(g), gram_matrix(g)
    assert np.array_equal(lap, A)
    assert np.array_equal(gram, A + m * np.eye(g.n_cells))
    assert not lap.flags.writeable and not gram.flags.writeable
    assert gram_matrix(g) is gram


def test_grid_matrices_are_freed_with_the_grid():
    g = make_grid(2, 4, 1.0, 2, 4)
    gram_matrix(g)
    riesz_from_euclidean(g, np.ones(16))   # builds the band factor
    is_family_fixed(g.zeros())      # builds the polarizer family and table
    refs = [weakref.ref(x) for x in (g, *g.polarizers, *g._polarizer_table,
                                     g._gram_factor, g._gram_dense)]
    del g
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_polarizer_family_is_built_on_first_use(monkeypatch):
    a = sym_center(make_grid(1, 8, 1.0, 2, 4))
    f = quad_X(a)
    raw = symmetric_ekeland(f, a.space, a, 0.1, 0.1, seed=3).to_json_dict()
    calls = []
    build = rearrange.build_polarizer_family
    monkeypatch.setattr(rearrange, "build_polarizer_family",
                        lambda space: calls.append(space) or build(space))
    g = make_grid(1, 8, 1.0, 2, 4)
    u = g.function(a.values)
    norm_X(u), norm_V(u), norm_W(u)
    assert calls == []
    function_from_json(function_to_json(u))
    cert = Certificate.from_json_dict(raw)
    verify_certificate(f, cert, 200)
    assert calls == []
    family = g.polarizers
    inside, partner = g._polarizer_table
    assert g.polarizers is family and calls == [g]
    assert [H.space_signature for H in family] == [g.signature] * len(family)
    for k, H in enumerate(family):
        assert np.array_equal(inside[k], H.inside)
        assert np.array_equal(partner[k], H.partner)
    for table in (inside, partner):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


def _root(body, p):
    """The p-th root as the kernels take it: IEEE sqrt at p = 2."""
    return np.sqrt(body) if p == 2 else body ** (1.0 / p)


def _norm_X_padded(values, dimension, n, spacing, measure, p):
    """The norm_X kernel as first written, with np.pad and np.concatenate:
    the reference the row kernels must match bit for bit."""
    if dimension == 1:
        pad = np.concatenate(([0.0], values, [0.0]))
        grad = np.abs(np.diff(pad) / spacing)
        body = np.sum(grad ** p) * measure + np.sum(np.abs(values) ** p) * measure
        return _root(body, p)
    v = values.reshape(n, n)
    gx = np.abs(np.diff(np.pad(v, ((1, 1), (0, 0))), axis=0) / spacing)
    gy = np.abs(np.diff(np.pad(v, ((0, 0), (1, 1))), axis=1) / spacing)
    body = (np.sum(gx ** p) + np.sum(gy ** p)) * measure \
        + np.sum(np.abs(v) ** p) * measure
    return _root(body, p)


def _lr_norm_plain(values, measure, r):
    return _root(np.sum(np.abs(values) ** r) * measure, r)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 128), (2, 4),
                                         (2, 16)])
def test_row_kernels_equal_scalar_kernels(dimension, n, p):
    rng = np.random.default_rng(n + int(p))
    N = n ** dimension
    h = 2.0 / n
    m = h ** dimension
    q = 2.0 * p + 1.0
    block = rng.standard_normal((200, N)) * rng.uniform(1e-3, 1e3, (200, 1))
    block[[0, 77]] = 0.0
    rows_X = _norm_X_raw(block, dimension, n, h, m, p)
    rows_V = _norm_V_raw(block, m, p, q)
    rows_L = _lr_norm_raw(block, m, q)
    assert rows_X.shape == rows_V.shape == rows_L.shape == (200,)
    assert rows_X[0] == rows_V[77] == rows_L[0] == 0.0
    for j, w in enumerate(block):
        one = _norm_X_raw(w, dimension, n, h, m, p)
        assert one == rows_X[j] == _norm_X_padded(w, dimension, n, h, m, p)
        assert type(one) is np.float64
        assert (_norm_V_raw(w, m, p, q) == rows_V[j]
                == max(_lr_norm_plain(w, m, p), _lr_norm_plain(w, m, q)))
        assert _lr_norm_raw(w, m, q) == rows_L[j] == _lr_norm_plain(w, m, q)


def _stencil_grid(dimension, n):
    """A p = 2 grid of n cells per axis on [−1, 1]^d.  make_grid takes only
    even n; the one-cell 1D grid is built field by field, as the stencil and
    laplacian_matrix read only its dimension, n, spacing and cell measure."""
    if n % 2 == 0:
        return make_grid(dimension, n, 1.0, 2, 4)
    h = 2.0 / n
    return GridSpace(dimension=1, n=n, radius=1.0, p=2.0, q_V=8.0, q_W=4.0,
                     cells=np.zeros((n, 1)), lattice=np.zeros((n, 1), int),
                     spacing=h, cell_measure=h, K=1.0)


@pytest.mark.parametrize("dimension,n", [(1, 1), (1, 2), (1, 8), (1, 128),
                                         (2, 2), (2, 4), (2, 16)])
def test_dirichlet_stencil_equals_dense_laplacian(dimension, n):
    # uᵀAu and A·u on the edge stencil agree with the dense products to
    # 1e-14 relative; every row of a block is bit-equal to its one-vector
    # call, and an empty block gives empty results
    g = _stencil_grid(dimension, n)
    N = g.n_cells
    A = laplacian_matrix(g)
    rng = np.random.default_rng(10 * n + dimension)
    block = rng.standard_normal((60, N)) * rng.uniform(1e-3, 1e3, (60, 1))
    block[7] = 0.0
    quad, Au = _dirichlet_rows(g, block), _laplacian_rows(g, block)
    assert quad.shape == (60,) and Au.shape == (60, N)
    assert quad[7] == 0.0 and not Au[7].any()
    for j, w in enumerate(block):
        dense = A @ w
        assert abs(quad[j] - w @ dense) <= 1e-14 * (w @ dense)
        assert (np.max(np.abs(Au[j] - dense))
                <= 1e-14 * np.max(np.abs(dense)))
        one = _dirichlet_rows(g, w)
        assert type(one) is np.float64 and one == quad[j]
        assert np.array_equal(_laplacian_rows(g, w), Au[j])
    empty = np.empty((0, N))
    assert _dirichlet_rows(g, empty).shape == (0,)
    assert _laplacian_rows(g, empty).shape == (0, N)


def test_pow_rows_root_is_ieee_sqrt():
    # libm pow rounds this root up in the last bit; sqrt is correctly rounded
    x = 995.2998033878611
    assert math.pow(x, 0.5) != math.sqrt(x)
    one = _pow_rows(np.float64(x), 0.5)
    assert type(one) is np.float64 and one == math.sqrt(x)
    assert _pow_rows(np.array([x]), 0.5).tolist() == [math.sqrt(x)]
    assert _pow_rows(x, 2) == _pow_rows(np.array([x]), 2)[0] == x * x


@pytest.mark.parametrize("dimension,n", [(1, 8), (2, 4)])
def test_p2_row_norms_take_no_libm_pow(monkeypatch, dimension, n):
    # at p = 2 every square and root is a multiply or sqrt; only the V
    # norm's q_V-part root (q_V > 2) is still libm pow
    g = make_grid(dimension, n, 1.0, 2, 4)
    real_pow = math.pow

    def pow_(x, e):
        if e in (0.5, 2.0):
            raise AssertionError(f"math.pow(x, {e}) on a p = 2 path")
        return real_pow(x, e)

    monkeypatch.setattr(funcspace.math, "pow", pow_)
    rng = np.random.default_rng(n)
    block = rng.standard_normal((50, g.n_cells)) * rng.uniform(1e-3, 1e3, (50, 1))
    m = g.cell_measure
    rows_X = _norm_X_raw(block, dimension, n, g.spacing, m, g.p)
    rows_V = _norm_V_raw(block, m, g.p, g.q_V)
    for j, w in enumerate(block):
        assert _norm_X_raw(w, dimension, n, g.spacing, m, g.p) == rows_X[j]
        assert _norm_V_raw(w, m, g.p, g.q_V) == rows_V[j]


def test_eval_rows_fallback_and_checks(g1d4):
    calls = []

    def ev(u):
        calls.append(1)
        return float(u.values @ u.values) ** 0.5

    f = Functional(eval=ev, name="root")
    W = np.random.default_rng(2).standard_normal((5, 4))
    assert np.array_equal(f._eval_rows(g1d4, W),
                          [f(GridFunction(g1d4, w)) for w in W])
    assert len(calls) == 10
    assert f._eval_rows(g1d4, W[:0]).shape == (0,)
    inf_ok = Functional(eval=ev, eval_batch=lambda W: np.full(len(W), np.inf))
    assert np.all(inf_ok._eval_rows(g1d4, W) == np.inf)
    for bad in (np.nan, -np.inf):
        for g in (Functional(eval=lambda u, b=bad: b, name="bad"),
                  Functional(eval=ev, name="bad",
                             eval_batch=lambda W, b=bad: np.full(len(W), b))):
            with pytest.raises(InvalidArgument, match="functional bad"):
                g._eval_rows(g1d4, W)
    wrong = Functional(eval=ev, eval_batch=lambda W: np.zeros(len(W) + 1))
    with pytest.raises(InvalidArgument, match="shape"):
        wrong._eval_rows(g1d4, W)


def test_eval_batch_rows_must_be_finite(g1d4):
    f = Functional(eval=lambda u: 0.0, name="zero",
                   eval_batch=lambda W: np.zeros(len(W)))
    W = np.ones((3, 4))
    W[1, 2] = np.inf
    with pytest.raises(InvalidArgument, match="values must be finite"):
        f._eval_rows(g1d4, W)


def test_user_functional_rows_are_checked_read_only_copies(g1d4):
    # a functional without eval_batch is called on one GridFunction per
    # row: the block is checked and copied read-only once, and each value is
    # bit-equal to the call on its own GridFunction
    seen = []

    def ev(u):
        seen.append(u.values)
        return float(u.values @ u.values) ** 0.5

    f = Functional(eval=ev, name="root")
    W = np.random.default_rng(5).standard_normal((6, 4))
    vals = f._eval_rows(g1d4, W)
    assert len(seen) == 6
    assert not any(v.flags.writeable for v in seen)
    assert not any(np.shares_memory(v, W) for v in seen)
    for j, w in enumerate(W):
        one = f(GridFunction(g1d4, w))
        assert vals[j].tobytes() == np.float64(one).tobytes()
    # a non-finite row raises GridFunction's error, a wrong shape its
    # SpaceMismatch
    for bad in (np.nan, np.inf, -np.inf):
        Wb = W.copy()
        Wb[3, 1] = bad
        with pytest.raises(InvalidArgument,
                           match="GridFunction values must be finite"):
            f._eval_rows(g1d4, Wb)
    with pytest.raises(SpaceMismatch):
        f._eval_rows(g1d4, W[:, :3])
