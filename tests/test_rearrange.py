import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvar import (ConvergenceFailure, approx_symmetrize, is_family_fixed,
                    make_grid, norm_V, norm_X, polarize, schwarz, theta)
from symvar import rearrange
from symvar.rearrange import Polarizer, build_polarizer_family, schwarz_order

from conftest import random_S


def _beta0_polarizer(space, axis=None):
    axis = axis or tuple([1.0] + [0.0] * (space.dimension - 1))
    for p in space.polarizers:
        if p.offset == 0.0 and np.allclose(p.axis, axis):
            return p
    raise AssertionError("beta=0 polarizer missing")


def test_polarize_single_swap(g1d4):
    u = g1d4.function([0, 0, 1, 0])
    out = polarize(u, _beta0_polarizer(g1d4))
    assert np.array_equal(out.values, [0, 1, 0, 0])


def test_polarize_fixes_symmetric_decreasing(g1d4):
    u = schwarz(g1d4.function([0.9, 0.1, 0.5, 0.3]))
    for H in g1d4.polarizers:
        assert polarize(u, H) == u


def test_polarize_idempotent(g1d8):
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = random_S(g1d8, rng)
        for H in g1d8.polarizers[::3]:
            once = polarize(u, H)
            assert polarize(once, H) == once


def test_polarize_equimeasurable_all_family(g1d8, g2d4):
    rng = np.random.default_rng(1)
    for g in (g1d8, g2d4):
        for _ in range(40):
            u = random_S(g, rng)
            for H in g.polarizers:
                out = polarize(u, H)
                assert np.array_equal(np.sort(out.values), np.sort(u.values))


def test_polarize_contractive_in_V(g1d8, g2d4):
    # two-point rearrangement inequality, brute force over random pairs
    rng = np.random.default_rng(2)
    for g in (g1d8, g2d4):
        fam = g.polarizers
        for i in range(200):
            u = random_S(g, rng)
            v = random_S(g, rng)
            H = fam[i % len(fam)]
            assert norm_V(polarize(u, H) - polarize(v, H)) \
                <= norm_V(u - v) + 1e-12


def test_extended_contractivity_signed_inputs(g1d8):
    # Θ-extension: ‖u^H − v^H‖_V ≤ C_Θ‖u−v‖_V and the schwarz analogue
    rng = np.random.default_rng(3)
    fam = g1d8.polarizers
    for i in range(100):
        u = g1d8.function(rng.standard_normal(8))
        v = g1d8.function(rng.standard_normal(8))
        H = fam[i % len(fam)]
        bound = g1d8.C_theta * norm_V(u - v) + 1e-12
        assert norm_V(polarize(u, H) - polarize(v, H)) <= bound
        assert norm_V(schwarz(u) - schwarz(v)) <= bound


def test_polarization_then_schwarz_is_schwarz(g1d8, g2d4):
    rng = np.random.default_rng(4)
    for g in (g1d8, g2d4):
        for _ in range(30):
            u = random_S(g, rng)
            for H in g.polarizers[::2]:
                assert schwarz(polarize(u, H)) == schwarz(u)


def test_schwarz_sort_assign_example(g1d4):
    u = g1d4.function([0.2, 0.0, 0.9, 0.5])
    assert np.array_equal(schwarz(u).values, [0.2, 0.9, 0.5, 0.0])


def test_schwarz_indicator_moves_inward(g1d4, g2d4):
    for g in (g1d4, g2d4):
        innermost = schwarz_order(g)[0]
        for i in range(g.n_cells):
            u = g.zeros().values.copy()
            u[i] = 1.0
            out = schwarz(g.function(u))
            expected = np.zeros(g.n_cells)
            expected[innermost] = 1.0
            assert np.array_equal(out.values, expected)


def test_schwarz_idempotent_and_equimeasurable(g1d8, g2d4):
    rng = np.random.default_rng(5)
    for g in (g1d8, g2d4):
        for _ in range(100):
            u = g.function(rng.standard_normal(g.n_cells))
            s = schwarz(u)
            assert schwarz(s) == s
            assert np.array_equal(np.sort(s.values),
                                  np.sort(np.abs(u.values)))


def test_approx_symmetrize_identity_on_symmetric(g1d8):
    u = schwarz(g1d8.function(np.arange(8, dtype=float)))
    out, seq = approx_symmetrize(u, 0.5)
    assert out == u
    assert seq == []


def test_approx_symmetrize_single_swap(g1d4):
    u = g1d4.function([0, 0, 1, 0])
    out, seq = approx_symmetrize(u, 0.01)
    assert np.array_equal(out.values, [0, 1, 0, 0])
    assert norm_V(out - schwarz(u)) == 0.0
    assert len(seq) == 1 and seq[0].offset == 0.0


def test_approx_symmetrize_converges_1d():
    rng = np.random.default_rng(6)
    for n in (4, 8, 16, 32):
        g = make_grid(1, n, 1.0, 2, 4)
        for _ in range(25):
            u = random_S(g, rng)
            out, seq = approx_symmetrize(u, 1e-3)
            assert norm_V(out - schwarz(u)) < 1e-3
            assert schwarz(out) == schwarz(u)      # equimeasurability kept


def test_approx_symmetrize_preserves_energy_monotone(g1d8):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = random_S(g1d8, rng)
        out, _ = approx_symmetrize(u, 1e-3)
        assert norm_X(out) <= norm_X(u) + 1e-9


def test_fixed_point_equivalence_1d():
    # schwarz(u) = u  <=>  u^H = u for every registered H (family exhaustion)
    rng = np.random.default_rng(8)
    for n in (4, 8, 16, 64):
        g = make_grid(1, n, 1.0, 2, 4)
        for _ in range(60):
            u = random_S(g, rng)
            canon = schwarz(u) == u
            fixed = is_family_fixed(u)
            assert canon == fixed
            us = schwarz(u)
            assert is_family_fixed(us)


def test_fixed_point_equivalence_1d_exhaustive_permutations():
    g = make_grid(1, 4, 1.0, 2, 4)
    vals = [4.0, 3.0, 2.0, 1.0]
    for perm in itertools.permutations(vals):
        u = g.function(perm)
        assert (schwarz(u) == u) == is_family_fixed(u)


def test_fixed_point_equivalence_2x2_exhaustive():
    g = make_grid(2, 2, 1.0, 2, 4)
    for perm in itertools.permutations([4.0, 3.0, 2.0, 1.0]):
        u = g.function(perm)
        assert (schwarz(u) == u) == is_family_fixed(u)
        out, _ = approx_symmetrize(u, 1e-9)
        assert out == schwarz(u)


def _fixed_by_each_polarizer(u):
    """is_family_fixed as a loop over the family, one polarization per
    member: the reference the stacked table must match."""
    return all(polarize(u, H) == theta(u) for H in u.space.polarizers)


@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 128), (2, 2),
                                         (2, 4), (2, 16)])
def test_is_family_fixed_equals_per_polarizer_loop(dimension, n):
    g = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(15)
    inputs = []
    for _ in range(4):
        z = np.abs(rng.standard_normal(g.n_cells))
        s = schwarz(g.function(np.round(z, 1))).values    # has ties
        inputs += [z, schwarz(g.function(z)).values, s]
        for i in range(g.n_cells):      # a fixed function, one cell one ulp off
            t = s.copy()
            t[i] = np.nextafter(t[i], np.inf if i % 2 else -np.inf)
            inputs.append(t)
    seen = set()
    for vals in inputs:
        u = g.function(vals)
        assert is_family_fixed(u) == _fixed_by_each_polarizer(u)
        seen.add(is_family_fixed(u))
    assert seen == {True, False}


def test_2d_partial_order_obstruction_documented(g2d4):
    """On 4x4 grids the lattice reflections cannot compare the cells
    (-0.75, 0.25) and (-0.25, -0.75): a function with their canonical
    values swapped is fixed by the whole family yet is not the sort-assign
    rearrangement, so approx_symmetrize legitimately fails there."""
    u = schwarz(g2d4.function(np.linspace(1.0, 2.5, 16))).values.copy()
    cells = [tuple(c) for c in g2d4.cells]
    i = cells.index((-0.75, 0.25))
    j = cells.index((-0.25, -0.75))
    u[i], u[j] = u[j], u[i]
    stuck = g2d4.function(u)
    assert is_family_fixed(stuck)
    assert schwarz(stuck) != stuck
    with pytest.raises(ConvergenceFailure) as exc:
        approx_symmetrize(stuck, 1e-3)
    assert exc.value.residual > 1e-3


def test_polya_szego_sanity(g1d8, g2d4):
    rng = np.random.default_rng(9)
    for g in (g1d8, g2d4):
        for _ in range(60):
            u = random_S(g, rng)
            assert norm_X(schwarz(u)) <= norm_X(u) + 1e-9
            for H in g.polarizers[::4]:
                assert norm_X(polarize(u, H)) <= norm_X(u) + 1e-9


def test_theta_extension_rule_in_polarize(g1d4):
    # sign-changing input is polarized through Θ(u) = |u|
    u = g1d4.function([0, 0, -1, 0])
    out = polarize(u, _beta0_polarizer(g1d4))
    assert np.array_equal(out.values, [0, 1, 0, 0])


def test_polarizer_pairing_is_involution(g1d8, g2d4):
    for g in (g1d8, g2d4):
        for H in g.polarizers:
            assert H.offset >= 0.0                     # 0 ∈ H
            for i, j in enumerate(H.partner):
                if j >= 0:
                    assert H.partner[j] == i           # involution
                    # mirror cells trade sides unless on the hyperplane
                    if i != j:
                        assert H.inside[i] != H.inside[j] or (
                            H.inside[i] and H.inside[j])


def test_cell_set_invariant_under_family(g1d8, g2d4):
    # every registered reflection maps the cell set into itself ∪ outside
    for g in (g1d8, g2d4):
        a = np.array
        for H in g.polarizers:
            axis = a(H.axis)
            for i, c in enumerate(g.cells):
                mirror = c - 2.0 * (c @ axis - H.offset) * axis
                dists = np.abs(g.cells - mirror).max(axis=1)
                if H.partner[i] >= 0:
                    assert dists[H.partner[i]] < 1e-9
                else:
                    assert dists.min() > g.spacing / 4   # genuinely outside


def _dict_scan_polarizer(space, axis, beta_lattice):
    """The pairing as first written: each mirror cell found by a dict
    lookup of its lattice coordinates, one cell at a time."""
    lattice = space.lattice
    a_int = np.asarray(axis, dtype=int)
    shift = lattice @ a_int - beta_lattice
    norm2 = int(a_int @ a_int)
    numer = np.outer(2 * shift, a_int)
    if np.any(numer % norm2 != 0):
        return None
    mirrors = lattice - numer // norm2
    lookup = {tuple(int(c) for c in row): i for i, row in enumerate(lattice)}
    partner = np.full(space.n_cells, -1, dtype=int)
    inside = shift <= 0
    nontrivial = False
    for i in range(space.n_cells):
        j = lookup.get(tuple(int(c) for c in mirrors[i]))
        if j is None:
            if not inside[i]:
                return None
        else:
            partner[i] = j
            nontrivial |= bool(inside[i] != inside[j])
    if not nontrivial:
        return None
    scale = float(np.sqrt(norm2))
    return Polarizer(axis=tuple(float(c) / scale for c in a_int),
                     offset=beta_lattice * (space.spacing / 2.0) / scale,
                     inside=inside, partner=partner,
                     space_signature=space.signature)


@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 34), (2, 2),
                                         (2, 4), (2, 10)])
def test_polarizer_family_equals_dict_scan_reference(monkeypatch, dimension,
                                                     n):
    space = make_grid(dimension, n, 1.0, 2, 4)
    family = build_polarizer_family(space)
    monkeypatch.setattr(rearrange, "_make_polarizer", _dict_scan_polarizer)
    reference = build_polarizer_family(space)
    assert len(family) == len(reference) > 0
    for H, R in zip(family, reference):
        assert (H.axis, H.offset) == (R.axis, R.offset)
        assert np.array_equal(H.partner, R.partner)
        assert np.array_equal(H.inside, R.inside)
        assert H.space_signature == space.signature


def test_polarize_space_mismatch(g1d4, g1d8):
    from symvar import SpaceMismatch
    u8 = g1d8.function(np.ones(8))
    with pytest.raises(SpaceMismatch):
        polarize(u8, g1d4.polarizers[0])


def test_approx_symmetrize_respects_iteration_cap(g1d8):
    rng = np.random.default_rng(77)
    u = random_S(g1d8, rng)
    if schwarz(u) == u:
        u = g1d8.function(u.values[::-1] + 0.1)
    with pytest.raises(ConvergenceFailure) as exc:
        approx_symmetrize(u, 1e-12, max_iters=1)
    assert exc.value.residual is not None
    assert exc.value.best is not None


_vals8 = st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False,
                            width=64), min_size=8, max_size=8)


@given(uv=_vals8, vv=_vals8, k=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_property_contractivity_and_equimeasurability(uv, vv, k):
    g = make_grid(1, 8, 1.0, 2, 4)
    u = g.function(np.abs(uv))
    v = g.function(np.abs(vv))
    H = g.polarizers[k % len(g.polarizers)]
    uh, vh = polarize(u, H), polarize(v, H)
    assert np.array_equal(np.sort(uh.values), np.sort(u.values))
    assert norm_V(uh - vh) <= norm_V(u - v) + 1e-12
    assert polarize(uh, H) == uh


@given(uv=_vals8)
@settings(max_examples=60, deadline=None)
def test_property_schwarz_idempotent_theta_compatible(uv):
    g = make_grid(1, 8, 1.0, 2, 4)
    u = g.function(uv)
    s = schwarz(u)
    assert schwarz(s) == s
    assert s == schwarz(theta(u))
    assert np.all(np.diff(s.values[np.argsort(
        np.abs(g.cells.ravel()), kind="stable")]) <= 1e-15)
