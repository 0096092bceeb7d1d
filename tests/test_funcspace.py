import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvar import (GridFunction, InvalidExponent, InvalidGrid, SpaceMismatch,
                    function_from_json, function_to_json, make_grid, norm_Lr,
                    norm_V, norm_W, norm_X, theta)
from symvar.funcspace import _matrices, gram_matrix, riesz_from_euclidean


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
    upper = _matrices(g1d8)[2]
    assert np.array_equal(upper, np.triu(upper))
    assert np.allclose(upper.T @ upper, gram_matrix(g1d8), rtol=1e-13)
    assert not upper.flags.writeable
    grad = np.arange(8.0)
    first = riesz_from_euclidean(g1d8, grad)
    before = _matrices.cache_info()
    for _ in range(3):
        assert np.array_equal(riesz_from_euclidean(g1d8, grad), first)
    after = _matrices.cache_info()
    assert after.hits - before.hits == 3
    assert after.misses == before.misses
