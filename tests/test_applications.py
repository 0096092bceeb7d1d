import math
import tracemalloc

import numpy as np
import pytest

from symvar import (AssumptionViolated, Ball, Drop, Functional, GridFunction,
                    IntegrandError, InvalidArgument, InvalidEpsilon,
                    NotBoundedBelow, Petal,
                    QuasilinearIntegrand, SemilinearNonlinearity, SeparationViolated, SetOracle,
                    caristi_fixed_point, clarke_fixed_point,
                    dirichlet_integrand, drop_membership, dual_norm,
                    forced_dirichlet_integrand, lower_derivative, make_grid,
                    norm_V, norm_X, petal_inclusions, petal_membership,
                    polarize, quasilinear_energy, quasilinear_experiment,
                    quasilinear_functional, quasilinear_residual, schwarz,
                    semilinear_experiment, symmetric_drop_point,
                    symmetric_petal_point, theta)
from symvar import _descent
from symvar import applications as ap
from symvar.applications import (euler_lagrange_residual, h_minus1_norm,
                                 quasilinear_residual_vector,
                                 semilinear_functional)
from symvar.funcspace import (_dirichlet_rows, _laplacian_rows, gram_matrix,
                              laplacian_matrix, riesz_from_euclidean)
from symvar.slopes import strong_slope
from symvar.principles import VMetric, XMetric, box_set

from conftest import probe_spy, random_S


# ---------------------------------------------------------------------------
# quasilinear energy and residual

def test_quasilinear_zero_function(g1d4):
    I = dirichlet_integrand()
    assert quasilinear_energy(I, g1d4.zeros()) == 0.0
    v = g1d4.function([1.0, -2.0, 0.5, 0.0])
    assert quasilinear_residual(I, g1d4.zeros(), v) == 0.0


def test_quasilinear_two_cell_stencil():
    # hand-expanded: E(u) = m/2·[u0² + (u1−u0)² + u1²]/h², residual = u·A·v
    g = make_grid(1, 2, 1.0, 2, 4)
    I = dirichlet_integrand()
    u = g.function([0.7, -0.3])
    A = laplacian_matrix(g)
    assert quasilinear_energy(I, u) == pytest.approx(
        0.5 * float(u.values @ A @ u.values), abs=1e-14)
    v = g.function([0.2, 0.9])
    assert quasilinear_residual(I, u, v) == pytest.approx(
        float(u.values @ A @ v.values), abs=1e-14)


def test_quasilinear_energy_equals_gradient_part(g1d8, g2d4):
    I = dirichlet_integrand()
    rng = np.random.default_rng(0)
    for g in (g1d8, g2d4):
        A = laplacian_matrix(g)
        for _ in range(20):
            u = g.function(rng.standard_normal(g.n_cells))
            assert quasilinear_energy(I, u) == pytest.approx(
                0.5 * float(u.values @ A @ u.values), rel=1e-12)


def test_quasilinear_theta_invariance_on_S(g1d8):
    # for u in the cone, Θ(u) = u: radial-structure equality is exact
    I = forced_dirichlet_integrand(0.5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = random_S(g1d8, rng)
        assert quasilinear_energy(I, theta(u)) == quasilinear_energy(I, u)


def test_quasilinear_polarization_monotone_and_mirror_exact(g1d8):
    I = forced_dirichlet_integrand(0.5)
    rng = np.random.default_rng(2)
    for _ in range(30):
        u = random_S(g1d8, rng)
        E = quasilinear_energy(I, u)
        for H in g1d8.polarizers:
            assert quasilinear_energy(I, polarize(u, H)) <= E + 1e-9
        # full mirror swap: the edge multiset is reflected, energy exact
        flipped = g1d8.function(u.values[::-1])
        assert quasilinear_energy(I, flipped) == pytest.approx(E, rel=1e-12)


def test_quasilinear_growth_validation():
    I = dirichlet_integrand()
    assert I.validate()
    bad = dirichlet_integrand()
    bad.L = lambda s, t: -1.0
    with pytest.raises(AssumptionViolated):
        bad.validate()


def _anti_dominated_integrand():
    """L(s, t) = t²/2 + s: L(−s, t) > L(s, t) for s < 0, so Θ can raise the
    energy."""
    return QuasilinearIntegrand(L=lambda s, t: 0.5 * t * t + s,
                                L_s=lambda s, t: 1.0, L_xi=lambda s, t: t,
                                nonneg=False, name="anti_dominated")


def test_quasilinear_validate_checks_odd_domination(g1d8):
    assert forced_dirichlet_integrand(1.0).validate()
    anti = _anti_dominated_integrand()
    # Θ raises the energy: f(Θu) = 2 > f(u) = 0 at u ≡ −0.5
    u = g1d8.function(np.full(8, -0.5))
    assert quasilinear_energy(anti, u) == pytest.approx(0.0, abs=1e-12)
    assert quasilinear_energy(anti, theta(u)) == pytest.approx(2.0)
    with pytest.raises(AssumptionViolated, match=r"L\(-s,t\) ≤ L\(s,t\)"):
        anti.validate()


def test_quasilinear_experiment_validates_its_integrand(g1d8):
    with pytest.raises(AssumptionViolated, match=r"L\(-s,t\) ≤ L\(s,t\)"):
        quasilinear_experiment(_anti_dominated_integrand(), g1d8, 0.01,
                               seed=0, n_samples=50)


def _quartic_integrand():
    """L(s, t) = t²/2 + t⁴/4 − s: a nonlinear radial weight L_t/t = 1 + t²."""
    return QuasilinearIntegrand(L=lambda s, t: 0.5 * t * t + 0.25 * t ** 4 - s,
                                L_s=lambda s, t: -1.0,
                                L_xi=lambda s, t: t + t ** 3, nonneg=False,
                                name="quartic")


def test_quasilinear_residual_vector_matches_energy_differences(g1d8, g2d4):
    # r is the gradient of the energy, cell and ghost terms included: compare
    # against central differences, and the linear case against A·u − c·m·1
    rng = np.random.default_rng(8)
    step = 1e-6
    for g in (g1d8, g2d4):
        for I in (_quartic_integrand(), forced_dirichlet_integrand(1.5)):
            u = g.function(0.3 * rng.standard_normal(g.n_cells))
            r = quasilinear_residual_vector(I, u)
            fd = [(quasilinear_energy(I, g.function(u.values + step * e))
                   - quasilinear_energy(I, g.function(u.values - step * e)))
                  / (2 * step) for e in np.eye(g.n_cells)]
            scale = 1.0 + np.max(np.abs(r))
            np.testing.assert_allclose(r, fd, rtol=0, atol=1e-6 * scale)
        u = g.function(rng.standard_normal(g.n_cells))
        r = quasilinear_residual_vector(forced_dirichlet_integrand(1.5), u)
        linear = laplacian_matrix(g) @ u.values - 1.5 * g.cell_measure
        np.testing.assert_allclose(r, linear, rtol=0,
                                   atol=1e-12 * (1.0 + np.max(np.abs(r))))


def _reference_residual_rows(I, space, values):
    """The residual as it was computed with per-axis swapaxes/reshape
    copies of the fields and the divergence: the bit-level reference."""
    h, m = space.spacing, space.cell_measure
    rows = values.shape[:-1]
    v = values.T.reshape((space.n,) * space.dimension + rows)
    comps, ghost = [], []
    for axis in range(space.dimension):
        w = v.swapaxes(0, axis)
        d = (np.concatenate((w[1:], np.zeros_like(w[:1]))) - w) / h
        comps.append(d.swapaxes(0, axis).reshape((-1,) + rows))
        ghost.append(w[0].reshape((-1,) + rows) / h)
    ghost = np.concatenate(ghost)
    s = values.T
    t = np.sqrt(sum(c * c for c in comps))
    lt, moving = np.asarray(I.L_xi(s, t), float), t > 0
    W = np.divide(lt, t, out=np.zeros_like(t), where=moving)
    r = np.broadcast_to(np.asarray(I.L_s(s, t), float), t.shape) * m
    shape = (space.n,) * space.dimension + rows
    for axis, c in enumerate(comps):
        F = ((W * c).reshape(shape) / h).swapaxes(0, axis)
        out = -F
        out[1:] += F[:-1]
        r += m * out.swapaxes(0, axis).reshape(r.shape)
    flux = I.L_xi(0.0, abs(ghost)) * np.sign(ghost)
    if space.dimension == 1:
        r[0] += m * flux[0] / h
    else:
        radd = np.zeros(shape)
        radd[0, :] += flux[:space.n] / h
        radd[:, 0] += flux[space.n:] / h
        r += m * radd.reshape(r.shape)
    return r.T


@pytest.mark.parametrize("dimension,n",
                         [(1, 2), (1, 8), (1, 128), (2, 4), (2, 16)])
def test_residual_rows_equal_the_per_axis_reference(dimension, n):
    # one pass over all axes gives the bytes of the per-axis computation,
    # on one vector and on each row of a block (zero rows included)
    from symvar.applications import _quasilinear_residual_rows

    g = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(n + dimension)
    W = rng.standard_normal((9, g.n_cells)) * rng.uniform(1e-2, 1e2, (9, 1))
    W[3] = 0.0
    for I in (dirichlet_integrand(), forced_dirichlet_integrand(1.5),
              _quartic_integrand()):
        block = _quasilinear_residual_rows(I, g, W)
        assert block.tobytes() == _reference_residual_rows(I, g, W).tobytes()
        for w, row in zip(W, block):
            one = _quasilinear_residual_rows(I, g, w)
            assert one.tobytes() == _reference_residual_rows(I, g, w).tobytes()
            assert one.tobytes() == row.tobytes()


def test_quasilinear_energy_equals_per_cell_sum(g1d8, g2d4):
    # reference: scalar calls summed left to right, cells then ghost nodes
    from symvar.applications import _gradient_fields
    rng = np.random.default_rng(9)
    for g in (g1d8, g2d4):
        for I in (dirichlet_integrand(), forced_dirichlet_integrand(0.7)):
            u = g.function(rng.standard_normal(g.n_cells))
            comps, ghost = _gradient_fields(g, u.values)
            t = np.sqrt(sum(c * c for c in comps))
            total = 0.0
            for s, tv in zip(u.values, t):
                total += I.L(float(s), float(tv))
            for gb in ghost:
                total += I.L(0.0, abs(float(gb)))
            assert quasilinear_energy(I, u) == total * g.cell_measure


def test_nonfinite_integrand_names_first_bad_cell(g1d4):
    I = QuasilinearIntegrand(
        L=lambda s, t: np.where(s > 1.0, np.inf, 0.5 * t * t),
        L_s=lambda s, t: 0.0, L_xi=lambda s, t: t, nonneg=False,
        odd_dominated=False)
    with pytest.raises(IntegrandError, match=r"^L\(2\.0, "):
        quasilinear_energy(I, g1d4.function([0.5, 2.0, 3.0, 0.0]))
    # validation names the first failing sample of its draw
    rng = np.random.default_rng(0)
    s, t = rng.uniform(-3.0, 3.0, 400), rng.uniform(0.0, 5.0, 400)
    i = int(np.flatnonzero(s > 1.0)[0])
    with pytest.raises(IntegrandError) as err:
        I.validate()
    assert str(err.value) == f"L({s[i]}, {t[i]}) is not finite"


@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 128), (2, 4)])
def test_pde_row_energies_equal_single_calls(dimension, n):
    # eval_batch of the quasilinear and semilinear functionals gives on a
    # block exactly what __call__ gives on each row; +inf off the box
    g = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(n)
    W = rng.standard_normal((200, g.n_cells)) \
        * rng.uniform(1e-2, 1e2, (200, 1))
    W[:50] *= 0.5 / np.max(np.abs(W[:50]), axis=1, keepdims=True)
    W[50:, 0] = 0.75                         # rows 50.. leave the box
    cubic = SemilinearNonlinearity(
        g=lambda s: s * s * s, G=lambda s: 0.25 * (s * s) * (s * s),
        a1=0.0, a2=0.0, b=3.0, p=4.0)
    damping = SemilinearNonlinearity(
        g=lambda s: -s, G=lambda s: -0.5 * s * s, a1=1.0, a2=2.0, b=1.0, p=3.0)
    box = box_set(g, -0.5, 0.5)
    for f in (quasilinear_functional(dirichlet_integrand(), g),
              quasilinear_functional(forced_dirichlet_integrand(0.7), g),
              semilinear_functional(cubic, g), semilinear_functional(damping, g),
              semilinear_functional(cubic, g, box)):
        rows = f.eval_batch(W)
        assert rows.shape == (200,)
        assert rows.tobytes() == np.array(
            [f(GridFunction(g, w)) for w in W]).tobytes(), f.name
    boxed = semilinear_functional(cubic, g, box).eval_batch(W)
    assert np.isfinite(boxed[:50]).all() and np.all(boxed[50:] == np.inf)


@pytest.mark.parametrize("dimension,n", [(1, 8), (2, 4)])
def test_row_energy_raises_for_the_first_nonfinite_row(dimension, n):
    # a non-finite L raises IntegrandError on a block too, naming the first
    # bad row's first bad cell as the call on that row does
    g = make_grid(dimension, n, 1.0, 2, 4)
    I = QuasilinearIntegrand(
        L=lambda s, t: np.where(s > 1.0, np.inf, 0.5 * t * t),
        L_s=lambda s, t: 0.0, L_xi=lambda s, t: t, nonneg=False,
        odd_dominated=False)
    f = quasilinear_functional(I, g)
    W = np.full((4, g.n_cells), 0.5)
    W[1, 5], W[1, 6] = 2.0, 3.0
    W[2, 1] = 4.0                              # earlier cell, later row
    with pytest.raises(IntegrandError) as single:
        f(GridFunction(g, W[1]))
    with pytest.raises(IntegrandError) as block:
        f.eval_batch(W)
    assert str(block.value) == str(single.value)
    assert str(block.value).startswith("L(2.0, ")


def test_dual_norm_two_routes_agree(g1d8):
    rng = np.random.default_rng(3)
    for _ in range(4):
        r = rng.standard_normal(8)
        a = dual_norm(g1d8, r, method="solve")
        b = dual_norm(g1d8, r, method="ascent", seed=5)
        assert abs(a - b) <= 1e-8 * (1.0 + max(a, b))


def solo_dual_ascent(space, r, v):
    """The one-start ascent on q(v) = r·v/‖v‖_X that
    ``applications._dual_ascent`` runs in lock-step, kept as the
    reference: (v, q(v)) at its end and the number of gradient steps it
    took, None for a start of X norm 0."""
    nx = XMetric(space).norm

    def q(v):
        nv = nx(v)
        return (r @ v) / nv if nv > 0 else 0.0

    def grad_q(v):
        nv = nx(v)
        if space.p == 2.0:
            gnorm = gram_matrix(space) @ v / nv
        else:
            hstep = 1e-7 * (1.0 + float(np.max(np.abs(v))))
            E = hstep * np.eye(len(v))
            gnorm = (nx(v + E) - nx(v - E)) / (2 * hstep)
        return r / nv - (r @ v) / nv ** 2 * gnorm

    v = np.array(v, float)
    if nx(v) == 0:
        return None
    v /= nx(v)
    step, qv, k = 1.0, q(v), 0
    for k in range(4000):
        g = grad_q(v)
        if float(np.linalg.norm(g)) < 1e-14 * (1.0 + abs(qv)):
            break
        while step > 1e-16:
            vn = v + step * g
            if q(vn) > qv + 1e-16:
                v, qv = vn / nx(vn), q(vn)
                step *= 1.3
                break
            step *= 0.5
        else:
            break
    return v, qv, k


@pytest.mark.parametrize("dimension,n,p", [
    (1, 8, 2.0), (1, 16, 2.0), (1, 128, 2.0), (2, 4, 2.0),
    (1, 8, 3.0), (1, 16, 3.0), (2, 4, 3.0)])
def test_lockstep_ascent_equals_solo_runs(dimension, n, p):
    # dual_norm's four starts ascend in lock-step: each ends on the bytes
    # and value of its own one-start ascent, a start of norm 0 is skipped,
    # and dual_norm is the largest end value (or 0).  p = 3 on 1D n = 128
    # is left out: its one-start runs alone take about 100 s
    g = make_grid(dimension, n, 1.0, p, 4)
    rng = np.random.default_rng(int(10 * p) + n)
    N = g.n_cells
    u = g.function(0.1 * rng.standard_normal(N))
    residual = quasilinear_residual_vector(forced_dirichlet_integrand(1.0), u)
    steps = set()
    for r in (rng.standard_normal(N), residual, np.zeros(N)):
        V = np.vstack([r, rng.standard_normal((3, N))])
        ends = ap._dual_ascent(g, r, V)
        solo = [solo_dual_ascent(g, r, v) for v in V]
        assert [e is None for e in ends] == [s is None for s in solo]
        for e, s in zip(ends, solo):
            if e is not None:
                assert _bits_equal(e[0], s[0]) and e[1] == s[1]
                steps.add(s[2])
        value = dual_norm(g, r, method="ascent", seed=9)
        V9 = np.vstack([r, np.random.default_rng(9).standard_normal((3, N))])
        assert value == max([0.0] + [e[1] for e in ap._dual_ascent(g, r, V9)
                                     if e is not None])
    # the starts take different numbers of steps, so rows leave the block
    # at different rounds
    assert len(steps) > 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at p = 2 the dual-norm ascent accepts a trial only for "
    "a gain above an absolute 1e-16, which a residual near 1e-11 never "
    "gives, so every start ends on its start value"))
def test_criterion7_dual_norm_ascent_reaches_the_solve():
    # the certificate of acceptance criterion 7: the ascent is a lower
    # estimate of the dual norm, and on this residual it should reach the
    # solve's value
    g = make_grid(1, 8, 1.0, 2, 4)
    cert = quasilinear_experiment(forced_dirichlet_integrand(1.0), g, 0.01,
                                  seed=7, n_samples=3000)
    solve = cert.extras["dual_norm_solve"]
    assert abs(cert.extras["dual_norm_ascent"] - solve) <= 1e-6 * solve


def test_quasilinear_experiment_torsion_oracle(g1d8):
    I = forced_dirichlet_integrand(1.0)
    eps = 0.01
    cert = quasilinear_experiment(I, g1d8, eps, seed=3, n_samples=1500)
    assert cert.status == "PASS"
    assert cert.measured["‖w_ε‖_dual"][0] <= eps
    assert cert.measured["‖u_ε-u_ε*‖_V"][0] <= eps
    # independent oracle: the discrete torsion function A u = c·m·1
    A = laplacian_matrix(g1d8)
    ustar = np.linalg.solve(A, g1d8.cell_measure * np.ones(8))
    assert np.max(np.abs(cert.v.values - ustar)) < 1e-6
    assert abs(cert.extras["dual_norm_solve"]
               - cert.extras["dual_norm_ascent"]) <= 1e-8


def test_quasilinear_experiment_p3_torsion_passes_and_replays():
    # p ≠ 2: no gradient reaches the descent, so the probe and the chain
    # run the compass search; the engine starts from its probe's argmin,
    # and the certificate compares the ascent's dual norm (a lower
    # estimate, ROADMAP item 2) with ε
    g = make_grid(1, 16, 1.0, 3, 4)
    I = forced_dirichlet_integrand(1.0)
    certs = [quasilinear_experiment(I, g, 0.01, seed=7, n_samples=500)
             for _ in range(2)]
    assert certs[0].status == "PASS"
    assert certs[0].extras["start"] == {"route": "probe argmin",
                                        "check": "by construction"}
    assert "dual_norm_solve" not in certs[0].extras
    assert certs[0].extras["dual_norm_ascent"] == certs[0].measured[
        "‖w_ε‖_dual"][0]
    assert certs[0].to_json_bytes() == certs[1].to_json_bytes()


# ---------------------------------------------------------------------------
# lower derivative

def test_lower_derivative_identity():
    for s in (-1.0, 0.0, 2.5):
        assert lower_derivative(lambda x: x, s, 1e-3) == pytest.approx(1.0, abs=1e-9)


def test_lower_derivative_cubic_at_zero():
    val = lower_derivative(lambda x: x ** 3, 0.0, 1e-3)
    assert 0.0 <= val <= 1e-6        # min(t²+tτ+τ²) ≥ 0, shrinking with δ


def test_lower_derivative_abs_at_zero():
    val = lower_derivative(lambda x: abs(x), 0.0, 1e-3)
    assert -1.0 <= val <= -0.99      # sign-pattern infimum is −1


def test_lower_derivative_logged_schedule():
    val, log = lower_derivative(lambda x: x ** 3, 0.0, 1e-2, return_log=True)
    assert len(log) == 3
    assert log[-1][1] == val
    deltas = [d for d, _ in log]
    assert deltas == sorted(deltas, reverse=True)


def test_lower_derivative_array_equals_scalar_calls():
    # one call on an array gives, bit for bit, the per-point scalar results
    s = np.array([-1.3, -0.2, 0.0, 1e-5, 0.7, 2.5])
    for g in (lambda x: x, lambda x: x ** 3, abs, lambda x: 0.5):
        val, log = lower_derivative(g, s, 1e-3, return_log=True)
        assert val.shape == s.shape
        for k, sk in enumerate(s):
            vk, logk = lower_derivative(g, float(sk), 1e-3, return_log=True)
            assert isinstance(vk, float)
            assert np.float64(vk).tobytes() == val[k].tobytes()
            for (d, best), (dk, bk) in zip(log, logk):
                assert d == dk
                assert np.float64(bk).tobytes() == best[k].tobytes()


# ---------------------------------------------------------------------------
# semilinear experiment

def _lin_damping():
    return SemilinearNonlinearity(g=lambda s: -s, G=lambda s: -0.5 * s * s,
                                  a1=1.0, a2=2.0, b=1.0, p=3.0,
                                  name="linear_damping")


def _cubic():
    return SemilinearNonlinearity(g=lambda s: s ** 3,
                                  G=lambda s: 0.25 * s ** 4,
                                  a1=0.0, a2=0.0, b=3.0, p=4.0, name="cubic")


def test_semilinear_zero_nonlinearity(g1d8):
    N = SemilinearNonlinearity(g=lambda s: 0.0, G=lambda s: 0.0, a1=1.0,
                               a2=1.0, b=1.0, p=3.0, name="zero")
    certs = semilinear_experiment(N, g1d8, [0.1, 0.05], seed=0, n_samples=300,
                                  q_probes=8, second_order_samples=8)
    for c in certs:
        assert c.status == "PASS"
        assert c.extras["psi_Hminus1"] <= 1e-8
        assert norm_X(c.v) <= 0.2


def test_semilinear_linear_closed_form(g1d8):
    # g(s) = −s: f strictly convex with unique minimizer from (A + M)u = 0
    N = _lin_damping()
    certs = semilinear_experiment(N, g1d8, [0.1, 0.05], seed=1, n_samples=300,
                                  q_probes=8, second_order_samples=16)
    A = laplacian_matrix(g1d8)
    m = g1d8.cell_measure
    for c in certs:
        assert c.status == "PASS"
        ustar = np.linalg.solve(A + m * np.eye(8), np.zeros(8))
        assert np.max(np.abs(c.v.values - ustar)) <= 1e-6
        assert c.extras["psi_Hminus1"] <= 1e-6
        assert c.measured["‖v-v*‖_V"][0] <= 1e-6
        # second-order form is wAw + m‖w‖² ≥ 0 for every direction
        assert c.extras["second_order_min"] >= 0.0


def test_semilinear_oddness_enforced():
    bad = SemilinearNonlinearity(g=lambda s: s + 1.0, G=lambda s: 0.5 * s * s + s,
                                 a1=2.0, a2=1.0, b=1.0, p=3.0)
    with pytest.raises(AssumptionViolated):
        bad.validate()


def test_semilinear_cubic_box(g1d8):
    certs = semilinear_experiment(_cubic(), g1d8, [0.1, 0.05, 0.01],
                                  box=box_set(g1d8, 0.0, 0.5), seed=2,
                                  n_samples=300, q_probes=12,
                                  second_order_samples=16)
    for c, eps_h in zip(certs, (0.1, 0.05, 0.01)):
        assert c.status == "PASS"
        assert c.extras["second_order_min"] >= -1e-6 - 2.0 * eps_h
        assert c.extras["q_bound"]["ok"]


def test_semilinear_unbounded_detection(g1d8):
    with pytest.raises(NotBoundedBelow):
        semilinear_experiment(_cubic(), g1d8, [0.1], seed=0, n_samples=50)


def test_semilinear_h_minus1_solve(g1d8):
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(8)
    A = laplacian_matrix(g1d8)
    direct = math.sqrt(psi @ np.linalg.solve(A, psi))
    assert h_minus1_norm(g1d8, psi) == pytest.approx(direct, rel=1e-12)


def test_semilinear_equivariance_invariants(g1d8):
    # f(Θu) = f(u) and gradient-energy invariance under the full mirror
    N = _lin_damping()
    f = semilinear_functional(N, g1d8)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = random_S(g1d8, rng)
        assert f(theta(u)) == f(u)
        assert norm_X(g1d8.function(u.values[::-1])) == pytest.approx(
            norm_X(u), rel=1e-13)


def _no_dense_views(monkeypatch):
    """Make building a dense view of any band (``laplacian_matrix``,
    ``gram_matrix``) fail the test."""
    def refuse(self):
        raise AssertionError("a dense view of a band was built")
    monkeypatch.setattr(_descent._BandHessian, "dense", refuse)


def test_semilinear_oracles_never_build_the_dense_laplacian(monkeypatch):
    # f, its declared gradient and ψ take the Dirichlet part on the edge
    # stencil: the dense 4096 × 4096 Laplacian (128 MB) is never formed
    _no_dense_views(monkeypatch)
    space = make_grid(2, 64, 1.0, 2, 4)
    N = _cubic()
    f = semilinear_functional(N, space)
    W = 0.1 * np.random.default_rng(8).standard_normal((3, space.n_cells))
    u = space.function(W[0])
    assert np.isfinite(f(u)) and np.isfinite(f._eval_rows(space, W)).all()
    assert f.gradient(W).shape == W.shape
    assert np.array_equal(f.gradient(W[0]), euler_lagrange_residual(N, u))
    assert "_gram_dense" not in space.__dict__


def test_p2_solves_never_build_a_dense_view(monkeypatch):
    # on 2D 64×64 the Riesz solve, the dual norm's solve route, the H⁻¹
    # norm and strong_slope's lower end all solve with a band factor; each
    # is checked against the stencil, and no dense 4096 × 4096 view
    # (134 MB) is formed: numpy's traced allocations for the grid and the
    # first three stay below 16 MB (the bands and Gx's factor take 10.6)
    _no_dense_views(monkeypatch)
    tracemalloc.start()
    space = make_grid(2, 64, 1.0, 2, 4)
    m = space.cell_measure
    u = 0.1 * np.random.default_rng(9).standard_normal(space.n_cells)
    Au = _laplacian_rows(space, u)
    rep = riesz_from_euclidean(space, Au + m * u)
    assert np.max(np.abs(rep - u)) <= 1e-10 * np.max(np.abs(u))
    assert dual_norm(space, Au + m * u) == pytest.approx(
        norm_X(space.function(u)), rel=1e-10)
    assert h_minus1_norm(space, Au) == pytest.approx(
        math.sqrt(_dirichlet_rows(space, u)), rel=1e-10)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 16e6
    f = semilinear_functional(_cubic(), space)
    est = strong_slope(f, space.function(u), radii=(1e-3,), n_samples=2)
    assert est.lower == pytest.approx(dual_norm(space, f.gradient(u)),
                                      rel=1e-10)
    assert "_gram_dense" not in space.__dict__


def test_gradient_norm_exhaustive_small_grids():
    # β=0 full-swap mirrors preserve norm_X exactly; every polarization is
    # nonexpansive (exhaustion over grids with ≤ 6 cells)
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        g = make_grid(1, n, 1.0, 2, 4)
        for _ in range(50):
            u = random_S(g, rng)
            nu = norm_X(u)
            assert norm_X(g.function(u.values[::-1])) == pytest.approx(
                nu, rel=1e-12)
            for H in g.polarizers:
                assert norm_X(polarize(u, H)) <= nu + 1e-12


# ---------------------------------------------------------------------------
# fixed points

def _caristi_pair(space, rate=2.0, lam=0.5):
    def F(u):
        return GridFunction(space, lam * u.values)

    f = Functional(eval=lambda u: rate * norm_X(u),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="caristi-potential")
    return F, f


def test_caristi_contraction(g1d4):
    F, f = _caristi_pair(g1d4)
    xi, resid, cert = caristi_fixed_point(F, f, 0.25, g1d4, seed=0,
                                          n_samples=2000,
                                          return_certificate=True)
    info = cert.extras["caristi"]
    assert info["slack"] <= 1e-6
    assert resid <= info["slack"] / (1 - 0.25) + 1e-12
    assert norm_X(xi) <= 1e-6


def test_caristi_identity_map(g1d4):
    def F(u):
        return u

    f = Functional(eval=lambda u: norm_X(u),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="pot")
    xi, resid = caristi_fixed_point(F, f, 0.3, g1d4, seed=1, n_samples=500)
    assert resid == 0.0


def test_caristi_epsilon_scaling(g1d4):
    F, f = _caristi_pair(g1d4)
    for eps in (0.1, 0.5):
        xi, resid, cert = caristi_fixed_point(F, f, eps, g1d4, seed=2,
                                              n_samples=800,
                                              return_certificate=True)
        info = cert.extras["caristi"]
        # the recorded bound is exactly slack/(1−ε)
        assert info["bound"] == pytest.approx(info["slack"] / (1 - eps))
        assert resid <= info["bound"] + 1e-12


def test_caristi_epsilon_range(g1d4):
    F, f = _caristi_pair(g1d4)
    with pytest.raises(InvalidEpsilon):
        caristi_fixed_point(F, f, 1.0, g1d4)


def test_caristi_condition_violated(g1d4):
    def F(u):                       # moves far: violates the descent bound
        return GridFunction(g1d4, u.values + 5.0)

    f = Functional(eval=lambda u: norm_X(u),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="pot")
    with pytest.raises(AssumptionViolated):
        caristi_fixed_point(F, f, 0.2, g1d4, seed=0)


def test_clarke_linear_contraction(g1d4):
    sig = 0.4

    def F(u):
        return GridFunction(g1d4, sig * u.values)

    xi, resid, cert = clarke_fixed_point(F, sig, 0.3, g1d4, seed=0,
                                         n_samples=1200,
                                         return_certificate=True)
    info = cert.extras["clarke"]
    assert resid <= info["slack"] / (1 - sig - 0.3) + 1e-12
    assert norm_V(xi) <= 1e-6


def test_clarke_affine_to_symmetric_target(g1d4):
    # the target must be constant on polarizer orbits for the equivariance
    # F(u^H) = F(u)^H to hold exactly: affine contraction toward c·1
    sig = 0.5
    a = g1d4.function(0.7 * np.ones(4))

    def F(u):
        return GridFunction(g1d4, a.values + sig * (u.values - a.values))

    xi, resid, cert = clarke_fixed_point(F, sig, 0.2, g1d4, seed=1,
                                         n_samples=1200,
                                         return_certificate=True)
    assert norm_V(xi - a) <= 0.05
    assert cert.measured["‖v-v*‖_V"][0] <= cert.measured["‖v-v*‖_V"][1]


def test_clarke_equivariance_violation(g1d4):
    bias = np.array([1.0, 0.0, 0.0, 0.0])

    def F(u):                        # translation breaks F(u^H) = F(u)^H
        return GridFunction(g1d4, 0.3 * u.values + bias)

    with pytest.raises(AssumptionViolated):
        clarke_fixed_point(F, 0.3, 0.2, g1d4, seed=0)


def test_clarke_epsilon_range(g1d4):
    def F(u):
        return GridFunction(g1d4, 0.5 * u.values)

    with pytest.raises(InvalidEpsilon):
        clarke_fixed_point(F, 0.5, 0.6, g1d4)


# ---------------------------------------------------------------------------
# drops and petals

def test_petal_membership_examples(g1d2):
    x0 = g1d2.function([2.0, 1.0])
    x1 = g1d2.function([0.2, 0.1])
    P = Petal(0.5, x0, x1)
    assert petal_membership(x1, P)          # y = x1 always belongs
    far = g1d2.function([50.0, 50.0])
    assert not petal_membership(far, P)


def test_drop_membership_examples(g1d2):
    center = g1d2.function([3.0, 3.0])
    B = Ball(center, 1.0)
    x = g1d2.function([0.0, 0.0])
    D = Drop(x, B)
    assert drop_membership(x, D)            # t = 0
    assert drop_membership(center, D)       # t = 1, b = center
    mid = g1d2.function([1.5, 1.5])
    assert drop_membership(mid, D)
    assert not drop_membership(g1d2.function([3.0, -3.0]), D)


def test_membership_agrees_with_parameter_scan(g1d2):
    rng = np.random.default_rng(8)
    center = g1d2.function([2.0, 1.0])
    B = Ball(center, 0.8)
    x = g1d2.function([0.3, 0.0])
    D = Drop(x, B)
    # brute-force parameterization scan oracle over (t, b)
    ts = np.linspace(0.0, 1.0, 101)
    thetas = np.linspace(0, 2 * np.pi, 101)
    pts = []
    for t in ts:
        for th in thetas:
            b = center.values + 0.8 * np.array([np.cos(th), np.sin(th)])
            pts.append(x.values + t * (b - x.values))
    pts = np.array(pts)
    for _ in range(60):
        y = rng.uniform(-1, 4, 2)
        scan_inside = np.min(np.linalg.norm(pts - y, axis=1)) < 5e-3
        pred = drop_membership(g1d2.function(y), D)
        if pred != scan_inside:
            # disagreement only allowed within the scan resolution band
            assert np.min(np.linalg.norm(pts - y, axis=1)) < 2e-2


def test_petal_inclusions_sampled(g1d2):
    x0 = g1d2.function([2.0, 1.0])
    x1 = g1d2.function([0.2, 0.1])
    for eps in (0.25, 0.5, 0.75):
        rep = petal_inclusions(Petal(eps, x0, x1), n_samples=1000, seed=0)
        assert rep["ball_violations"] == 0
        assert rep["drop_violations"] == 0
    # no sample would be a report of no violation
    for n in (0, -1):
        with pytest.raises(InvalidArgument, match="n_samples"):
            petal_inclusions(Petal(0.5, x0, x1), n_samples=n)


def _halfplane_C():
    """C = {u >= 0, u0 + u1 <= 1} on 1D n = 2: the CLI's ``halfplane_sum``,
    whose Euclidean projection lands in C
    (``test_set_projections_land_in_their_sets``)."""
    from symvar.cli import SETS

    return SETS["halfplane_sum"]({"level": 1.0})


def test_symmetric_drop_point_hand_geometry(g1d2):
    # B: symmetric segment on the diagonal at L² distance 3 from C;
    # the drop from the origin meets C in the segment to (0.5, 0.5)
    a_min = 0.5 + 3.0 / np.sqrt(2.0)
    B = Ball(g1d2.function([a_min + 1 / np.sqrt(2)] * 2), 1.0, symmetric=True)
    C = _halfplane_C()
    x = g1d2.function([0.0, 0.0])
    cert = symmetric_drop_point(x, B, C, 0.05, seed=2, n_samples=600,
                                minimality_samples=10000)
    assert cert.status == "PASS"
    assert np.max(np.abs(cert.v.values - 0.5)) < 1e-6
    assert cert.extras["drop_minimality"]["second_points"] == 0
    assert cert.extras["drop_minimality"]["d_est"] >= 2.9


def test_symmetric_drop_point_reaches_the_end_of_a_thin_drop(g1d2):
    # a symmetric ball on 1D n = 2 makes the drop a segment of the
    # diagonal; the feasibility projection is exact on that subspace, so
    # the engine reaches the segment's end in C instead of stalling short
    B = Ball(g1d2.function([3.0, 3.0]), 0.5, symmetric=True)
    cert = symmetric_drop_point(g1d2.function([0.2, 0.2]), B, _halfplane_C(),
                                0.05, seed=0, n_samples=300,
                                minimality_samples=1000)
    assert cert.status == "PASS"
    assert np.max(np.abs(cert.v.values - 0.5)) < 1e-9
    assert cert.extras["drop_minimality"]["second_points"] == 0


def test_symmetric_drop_point_singleton(g1d2):
    a_min = 0.5 + 3.0 / np.sqrt(2.0)
    B = Ball(g1d2.function([a_min + 1 / np.sqrt(2)] * 2), 1.0, symmetric=True)
    x = g1d2.function([0.4, 0.4])

    def contains(v):
        return bool(np.max(np.abs(v - x.values)) <= 1e-9)

    C = SetOracle(contains=contains, project=lambda v: np.array(x.values),
                  kind="custom", description="singleton")
    cert = symmetric_drop_point(x, B, C, 0.05, seed=0, n_samples=200,
                                minimality_samples=2000)
    assert cert.status == "PASS"
    assert np.array_equal(cert.v.values, x.values)


def test_symmetric_drop_point_separation_guard(g1d2):
    a_min = 0.5 + 3.0 / np.sqrt(2.0)
    B = Ball(g1d2.function([a_min + 1 / np.sqrt(2)] * 2), 1.0, symmetric=True)
    with pytest.raises(SeparationViolated):
        symmetric_drop_point(g1d2.function([0.0, 0.0]), B, _halfplane_C(),
                             0.9, seed=0)


def _fixed_basis(space):
    """Orthonormal basis of the functions fixed by every reflection of the
    grid, from the group's own permutations."""
    idx = np.arange(space.n_cells)
    if space.dimension == 1:
        perms = [idx, idx[::-1]]
    else:
        v = idx.reshape(space.n, space.n)
        perms = [a.ravel() for w in (v, v[::-1], v[:, ::-1], v[::-1, ::-1])
                 for a in (w, w.T)]
    proj = np.mean([np.eye(space.n_cells)[p] for p in perms], axis=0)
    vecs, vals, _ = np.linalg.svd(proj)
    return vecs[:, vals > 0.5]


def _unit_directions(k, count, rng):
    u = rng.standard_normal((count, k))
    return u / np.linalg.norm(u, axis=1)[:, None]


@pytest.mark.parametrize("grid", ["g1d4", "g2d4"])
def test_symmetric_membership_agrees_with_parameter_scan(grid, request):
    # the vertex is off the fixed subspace, so the ray x + s(y−x) crosses it
    # once, at s* = 1/t; the drop holds y iff s* ≥ 1 and that crossing
    # point lies in the ball
    space = request.getfixturevalue(grid)
    rng = np.random.default_rng(21)
    E = _fixed_basis(space)
    # radially decreasing, so fixed by every polarizer and every reflection
    k = np.arange(space.n) - (space.n - 1) / 2.0
    r2 = k * k if space.dimension == 1 else np.add.outer(k * k, k * k)
    center = space.function(3.0 - 0.3 * r2.ravel())
    r = 0.7
    B = Ball(center, r, symmetric=True)
    x = rng.standard_normal(space.n_cells)
    assert np.max(np.abs(x - E @ (E.T @ x))) > 0.1
    D = Drop(space.function(x), B)

    def ball_point(u, rho):
        w = E @ u
        return center.values + rho * r * w / B.norm(w)

    # brute-force (t, b) scan of the drop: b over a polar grid of the ball
    dirs = _unit_directions(E.shape[1], 400, rng)
    bs = np.array([ball_point(u, rho) for u in dirs
                   for rho in np.linspace(0.0, 1.0, 11)])
    ts = np.linspace(0.0, 1.0, 41)
    cloud = (x + ts[:, None, None] * (bs - x)[None]).reshape(-1, space.n_cells)

    def scan_dist(y):
        return float(np.sqrt(np.min(np.sum((cloud - y) ** 2, axis=1))))

    # the scan's resolution: how far points built inside the drop sit from it
    inside = [x + t * (ball_point(u, rho) - x) for u, rho, t in zip(
        _unit_directions(E.shape[1], 200, rng), rng.uniform(0, 1, 200),
        rng.uniform(0, 1, 200))]
    cover = 1.5 * max(scan_dist(y) for y in inside)

    for u in _unit_directions(E.shape[1], 90, rng):
        rho = rng.choice([rng.uniform(0.0, 0.95), 1.0 - 1e-6, 1.0 + 1e-6,
                          rng.uniform(1.05, 2.0)])
        t = rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.1, 3.0)])
        y = x + t * (ball_point(u, rho) - x)
        pred = drop_membership(space.function(y), D)
        assert pred == bool(t <= 1.0 and rho <= 1.0), (rho, t)
        if scan_dist(y) > cover:
            assert not pred, (rho, t)


def test_plain_membership_matches_closed_form_ray_distance(g1d4):
    # Euclidean ball: the ray x + s·d comes closest to c at a known s*, at
    # distance m, so grazing rays (m = r(1 ± 1e-6)) have an exact answer
    rng = np.random.default_rng(4)
    center = g1d4.function([1.0, 2.0, 0.5, -1.0])
    r = 0.8
    B = Ball(center, r, norm=np.linalg.norm)
    for _ in range(200):
        e, w = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        m = r * rng.choice([1.0 - 1e-6, 1.0 + 1e-6, rng.uniform(0.0, 0.9),
                            rng.uniform(1.1, 3.0)])
        dist, s_star = rng.uniform(1.0, 20.0), rng.choice(
            [rng.uniform(1.0, 50.0), rng.uniform(0.2, 1.0)])
        x = center.values + m * w - dist * e
        y = x + (dist / s_star) * e
        if s_star >= 1.0:
            inside = m <= r
        else:
            inside = np.linalg.norm(y - center.values) <= r
        D = Drop(g1d4.function(x), B)
        assert drop_membership(g1d4.function(y), D) == inside, (m, s_star)


def test_drop_membership_edge_cases(g1d4):
    center = g1d4.function([1.0, 2.0, 2.0, 1.0])
    B = Ball(center, 0.5, symmetric=True)
    x = np.array([0.3, -0.2, 0.4, 0.1])      # off the fixed subspace
    D = Drop(g1d4.function(x), B)
    assert drop_membership(g1d4.function(x), D)                   # y = x
    # a ray parallel to the fixed subspace: its symmetric part runs through
    # the center, but the ray never meets the subspace
    sx = 0.5 * (x + x[::-1])
    for s in (0.5, 1.0, 2.0):
        assert not drop_membership(
            g1d4.function(x + s * (center.values - sx)), D)

def test_symmetric_ball_center_must_be_reflection_symmetric(g1d4):
    # schwarz of a random function on an even grid is fixed by every
    # registered polarizer but not by the reflection average that the
    # ball's project and contains use; with it, project left the ball
    from symvar import NotSymmetricInput, is_family_fixed

    center = schwarz(g1d4.function(
        np.random.default_rng(0).uniform(0, 4, 4)))
    assert np.allclose(center.values, [0.164, 2.548, 1.079, 0.066],
                       atol=1e-3)
    assert is_family_fixed(center)
    with pytest.raises(NotSymmetricInput):
        Ball(center, 1.0, symmetric=True)
    # the defect the check keeps out: set the flag after construction
    unchecked = Ball(center, 1.0)
    unchecked.symmetric = True
    assert not unchecked.contains(
        unchecked.project(np.array([10.0, 0.0, 0.0, 10.0])))
    # a reflection-symmetric, family-fixed center keeps project inside
    B = Ball(g1d4.function([1.0, 2.0, 2.0, 1.0]), 1.0, symmetric=True)
    rng = np.random.default_rng(1)
    for y in [np.array([10.0, 0.0, 0.0, 10.0])] + list(
            3.0 * rng.standard_normal((50, 4))):
        assert B.contains(B.project(y))


def test_symmetric_ball_accepts_large_symmetric_2d_center(g2d4):
    # an exactly symmetric 2D center near 1.2e4: the reflection average
    # rounds about 1 ulp (≈ 1.8e-12) away from it, so the symmetry check
    # must compare the reflected images exactly, not the average
    from symvar import NotSymmetricInput

    x = np.arange(4) + 0.5 - 2.0
    c = 12345.678 + np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 4.0)
    center = g2d4.function(c.ravel())
    B = Ball(center, 1.0, symmetric=True)
    assert np.max(np.abs(c.ravel() - B._sym_project(c.ravel()))) > 1e-12
    assert B.contains(center.values)
    # one cell off its reflections is still rejected
    bumped = c.copy()
    bumped[0, 1] = np.nextafter(bumped[0, 1], np.inf)
    with pytest.raises(NotSymmetricInput):
        Ball(g2d4.function(bumped.ravel()), 1.0, symmetric=True)


def test_symmetric_ball_contains_only_reflection_fixed_points(g1d2, g1d4):
    # a point fixed by every polarizer after Θ need not be fixed by the
    # reflections that project averages over; contains must reject it
    cases = [(Ball(g1d2.zeros(), 1.0, symmetric=True), [0.1, -0.1]),
             (Ball(g1d4.function([1.0, 2.0, 2.0, 1.0]), 5.0, symmetric=True),
              [3.02, 3.57, 3.37, 0.72])]
    for B, y in cases:
        y = np.array(y)
        assert B.norm(y - B.center.values) <= B.radius
        assert not B.contains(y)
        assert B.contains(B.project(y))
        assert not np.allclose(B.project(y), y)


def test_symmetric_ball_contains_its_projections_at_large_2d_center(g2d4):
    # the 8-image reflection average rounds about 1 ulp of the point's
    # size off the fixed subspace; contains measures symmetry relative to
    # the point, so a large ball keeps its own projections
    x = np.arange(4) + 0.5 - 2.0
    c = 12345.678 + np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 4.0)
    B = Ball(g2d4.function(c.ravel()), 1.0, symmetric=True)
    rng = np.random.default_rng(0)
    for scale in (0.1, 1.0, 10.0):
        for _ in range(40):
            y = c.ravel() + scale * rng.standard_normal(16)
            assert B.contains(B.project(y))
            assert not B.contains(y)
    # a point one part in 1e9 off its reflections is still rejected
    off = c.copy()
    off[0, 1] += 1e-9 * off[0, 1]
    assert not B.contains(off.ravel())


def _criterion9_drop(g):
    """The hand-geometry drop: from the origin to a symmetric ball that is
    a diagonal segment."""
    a_min = 0.5 + 3.0 / np.sqrt(2.0)
    B = Ball(g.function([a_min + 1 / np.sqrt(2)] * 2), 1.0, symmetric=True)
    return Drop(g.function([0.0, 0.0]), B)


def test_drop_membership_far_tip(g1d2):
    # the far end of the drop, where N(Sz − c) = r
    D = _criterion9_drop(g1d2)
    tip = D.ball.project(np.array([1e3, 1e3]))
    assert drop_membership(g1d2.function(tip), D)
    assert not drop_membership(g1d2.function(tip * (1.0 + 1e-6)), D)


def test_drop_membership_norm_count():
    # the criterion-9 drop: at most 32 ball-norm evaluations per query
    g = make_grid(1, 2, 1.0, 2, 4)
    D = _criterion9_drop(g)
    B = D.ball
    calls = []
    norm = B.norm

    def counted(vals):
        calls.append(1)
        return norm(vals)

    B.norm = counted
    s_max = float(B.project(np.array([1e3, 1e3]))[0])
    rng = np.random.default_rng(5)
    queries = ([[s, s] for s in rng.uniform(0.0, 1.0, 20) * s_max]
               + [[s, s] for s in rng.uniform(1.0, 2.0, 20) * s_max]
               + [[-s, -s] for s in rng.uniform(0.0, 1.0, 20) * s_max]
               + [[s + 0.1, s - 0.1] for s in rng.uniform(0.0, 1.0, 20)]
               + list(rng.uniform(-2.0, 6.0, (40, 2))))
    for y in queries:
        calls.clear()
        drop_membership(g.function(y), D)
        assert len(calls) <= 32, (y, len(calls))


def _diag_ray_C():
    def contains(v):
        return bool(abs(v[0] - v[1]) <= 1e-9 and v[0] >= 1.0 - 1e-12)

    def project(v):
        a = max(1.0, 0.5 * (v[0] + v[1]))
        return np.array([a, a])

    return SetOracle(contains=contains, project=project, kind="custom",
                     description="{(a,a): a >= 1}")


def test_symmetric_petal_point_l1_geometry(g1d2):
    # 2-cell ℓ¹: C the diagonal ray, y = 0, x = (1,1): d(y,C) = 2 = ‖x−y‖₁
    def l1(vals):
        return float(np.sum(np.abs(vals)))

    x = g1d2.function([1.0, 1.0])
    y = g1d2.function([0.0, 0.0])
    cert = symmetric_petal_point(x, y, _diag_ray_C(), 0.3, norm=l1, seed=1,
                                 n_samples=500, minimality_samples=10000)
    assert cert.status == "PASS"
    assert np.max(np.abs(cert.v.values - 1.0)) < 1e-6
    assert cert.extras["petal_member"]
    assert cert.extras["petal_minimality"]["second_points"] == 0
    assert cert.extras["petal_minimality"]["d_est"] == pytest.approx(2.0)
    # membership follows from the recorded exact comparison (T_ε x = x)
    assert cert.measured["ε‖ξ-x‖+‖ξ-y‖-‖x-y‖"][0] <= 1e-12


def test_verify_rejects_unknown_metric_of_petal_certificate(g1d2):
    # the l1 petal certificate records metric "petal-norm", which
    # re-verification cannot rebuild; re-sampling it in the X norm would
    # report on a different inequality
    from symvar import verify_certificate

    def l1(vals):
        return float(np.sum(np.abs(vals)))

    x = g1d2.function([1.0, 1.0])
    y = g1d2.function([0.0, 0.0])
    cert = symmetric_petal_point(x, y, _diag_ray_C(), 0.3, norm=l1, seed=1,
                                 n_samples=500, minimality_samples=10000)
    assert cert.extras["metric"] == "petal-norm"
    f = Functional(eval=lambda u: l1(u.values - y.values), name="dist-to-y")
    with pytest.raises(AssumptionViolated, match="petal-norm"):
        verify_certificate(f, cert, 100, seed=0)


def test_symmetric_petal_point_singleton(g1d2):
    x = g1d2.function([1.0, 1.0])
    y = g1d2.function([0.0, 0.0])

    def contains(v):
        return bool(np.max(np.abs(v - x.values)) <= 1e-9)

    C = SetOracle(contains=contains, project=lambda v: np.array(x.values),
                  kind="custom", description="singleton")
    cert = symmetric_petal_point(x, y, C, 0.2, seed=0, n_samples=200,
                                 minimality_samples=1000)
    assert cert.status == "PASS"
    assert np.array_equal(cert.v.values, x.values)


def test_symmetric_petal_point_requires_symmetric_inputs(g1d2):
    x = g1d2.function([1.0, 2.0])      # not fixed by the mirror polarizer
    y = g1d2.function([0.0, 0.0])
    with pytest.raises(Exception) as exc:
        symmetric_petal_point(x, y, _diag_ray_C(), 0.2, seed=0)
    from symvar import NotSymmetricInput
    assert isinstance(exc.value, (NotSymmetricInput, AssumptionViolated))


# ---------------------------------------------------------------------------
# starts that only tests set: the u0 of the quasi-linear experiment and the
# minimizing sequence of the semi-linear one

def test_quasilinear_experiment_takes_its_start(g1d8):
    # u0 replaces the probe's start: a symmetric shift of the probe's
    # point, still within σρ of the infimum, starts the Ekeland chain
    from symvar import whole_space
    from symvar.principles import estimate_inf

    I = forced_dirichlet_integrand(1.0)
    f = quasilinear_functional(I, g1d8)
    _, _, argmin = estimate_inf(f, g1d8, whole_space(g1d8),
                                np.random.default_rng(4))
    shift = 1e-3 * np.array([1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0])
    u0 = theta(GridFunction(g1d8, argmin + shift))
    probed = quasilinear_experiment(I, g1d8, 0.01, seed=3, n_samples=300)
    given = quasilinear_experiment(I, g1d8, 0.01, seed=3, n_samples=300,
                                   u0=u0)
    assert given.status == "PASS"
    assert given.extras["chain"][0][0] == f(u0)
    assert probed.extras["chain"][0][0] != f(u0)
    assert given.to_json_bytes() != probed.to_json_bytes()


def test_semilinear_experiment_takes_a_minimizing_sequence(g1d8):
    asked = []

    def minimizing_sequence(h):
        asked.append(h)
        return g1d8.zeros()

    certs = semilinear_experiment(_lin_damping(), g1d8, [0.1, 0.05], seed=1,
                                  n_samples=300, q_probes=8,
                                  second_order_samples=8,
                                  minimizing_sequence=minimizing_sequence)
    assert asked == [0, 1]
    for c in certs:
        assert c.status == "PASS"
        assert np.max(np.abs(c.v.values)) <= 1e-6
        assert c.extras["start"]["route"] == "given"


def _experiments(g1d2, g1d4, g1d8):
    """Each experiment's call, with the extra starts its probe takes."""
    F, f = _caristi_pair(g1d4)
    x = g1d2.function([0.2, 0.2])
    return {
        "quasilinear": (lambda: [quasilinear_experiment(
            forced_dirichlet_integrand(1.0), g1d8, 0.01, seed=3,
            n_samples=300)], []),
        "caristi": (lambda: [caristi_fixed_point(
            F, f, 0.25, g1d4, seed=0, n_samples=300,
            return_certificate=True)[2]], []),
        "clarke": (lambda: [clarke_fixed_point(
            lambda u: GridFunction(g1d4, 0.4 * u.values), 0.4, 0.3, g1d4,
            seed=0, n_samples=300, return_certificate=True)[2]], []),
        "drop": (lambda: [symmetric_drop_point(
            x, Ball(g1d2.function([3.0, 3.0]), 0.5, symmetric=True),
            _halfplane_C(), 0.05, seed=0, n_samples=300,
            minimality_samples=1000)], [x.values]),
        "semilinear": (lambda: semilinear_experiment(
            _lin_damping(), g1d8, [0.1, 0.05], seed=1, n_samples=300,
            q_probes=8, second_order_samples=8), []),
    }


@pytest.mark.parametrize("name", ["quasilinear", "caristi", "clarke", "drop",
                                  "semilinear"])
def test_each_experiment_runs_one_inf_probe(g1d2, g1d4, g1d8, monkeypatch,
                                            name):
    # the engine starts from its own probe's argmin (semilinear: every SQPS
    # step from the call's one probe): one probe per call, whose estimate
    # and log every certificate records with its start route and the route
    # of its start check
    run, starts = _experiments(g1d2, g1d4, g1d8)[name]
    calls = probe_spy(monkeypatch)
    certs = run()
    (probe_starts, (inf_est, log, argmin)), = calls
    assert len(probe_starts) == len(starts)
    assert all(np.array_equal(a, b) for a, b in zip(probe_starts, starts))
    for cert in certs:
        assert cert.status == "PASS"
        assert cert.inf_est == inf_est and cert.inf_probe_log is log
        start = cert.extras["start"]
        assert start["route"] == "probe argmin"
        assert start["check"] in ("declared lower bound", "by construction")
    # the potentials declaring lower bound 0 start within σρ of it; the
    # drop's distance and the two energies declare none that close
    declared = name in ("caristi", "clarke")
    assert all((c.extras["start"]["check"] == "declared lower bound")
               == declared for c in certs)


def test_quasilinear_experiment_records_a_given_start(g1d8, monkeypatch):
    # a given u0 keeps the engine's path: its probe runs from Θ(u0) and
    # T_ρΘ(u0), and the experiment records the route "given", whose check
    # was against that probe's upper estimate
    I = forced_dirichlet_integrand(1.0)
    probed = quasilinear_experiment(I, g1d8, 0.01, seed=3, n_samples=300)
    calls = probe_spy(monkeypatch)
    cert = quasilinear_experiment(I, g1d8, 0.01, seed=3, n_samples=300,
                                  u0=probed.v)
    (starts, _), = calls
    assert np.array_equal(starts[0], probed.v.values)
    assert cert.extras["start"] == {"route": "given",
                                    "check": "probe estimate"}


# ---------------------------------------------------------------------------
# argument checks, guards and rare branches

def test_dual_norm_ascent_of_zero_is_zero(g1d8):
    # the start r = 0 is skipped, and every random start has q ≡ 0 with a
    # zero gradient, so each ends at once
    assert dual_norm(g1d8, np.zeros(8), method="ascent", seed=1) == 0.0


def test_dual_norm_ascent_off_p2_lies_in_its_bracket():
    # p = 1.5 takes the central-difference gradient of the X norm; the
    # value lies between r·v/‖v‖_X at sampled v and the bound
    # m^{-1/p}‖r‖_{l^p'} from ‖v‖_X ≥ ‖v‖_{L^p} and Hölder
    g = make_grid(1, 8, 1.0, 1.5, 4)
    p, m = g.p, g.cell_measure
    r = np.random.default_rng(4).standard_normal(8)
    value = dual_norm(g, r, method="ascent", seed=2)
    upper = m ** (-1.0 / p) * np.sum(np.abs(r) ** (p / (p - 1))) ** (
        (p - 1) / p)
    V = np.vstack([r, np.random.default_rng(5).standard_normal((20, 8))])
    lower = max(float(r @ v) / norm_X(g.function(v)) for v in V)
    assert lower <= value <= upper
    assert value >= lower * (1.0 + 1e-3)        # the ascent moved


def test_dual_norm_checks_its_method(g1d8):
    with pytest.raises(InvalidArgument, match="unknown dual-norm method"):
        dual_norm(g1d8, np.ones(8), method="newton")
    with pytest.raises(AssumptionViolated, match="needs p = 2"):
        dual_norm(make_grid(1, 8, 1.0, 3.0, 4), np.ones(8), method="solve")


def test_argument_checks_of_the_pde_helpers():
    with pytest.raises(InvalidArgument, match="forcing constant"):
        forced_dirichlet_integrand(0.0)
    with pytest.raises(InvalidArgument, match="delta must be positive"):
        lower_derivative(np.sin, 0.0, 0.0)
    N = SemilinearNonlinearity(g=lambda s: s ** 3, G=lambda s: s ** 4 / 4,
                               a1=1.0, a2=1.0, b=1.0, p=7.0, name="p7")
    with pytest.raises(AssumptionViolated, match="outside \\(2, 6\\]"):
        N.validate()


def test_residual_refuses_a_kinked_integrand(g1d4):
    # L = t²/2 + t: L_t(s, 0) = 1, so the radial weight L_t/t blows up
    kinked = QuasilinearIntegrand(L=lambda s, t: 0.5 * t * t + t,
                                  L_s=lambda s, t: 0.0,
                                  L_xi=lambda s, t: t + 1.0, name="kinked")
    with pytest.raises(IntegrandError, match="must vanish"):
        quasilinear_residual_vector(kinked, g1d4.zeros())


def test_semilinear_validate_checks_one_sided_monotonicity():
    # g(s) = −10s: odd, inside its growth bound, but it falls faster than
    # a2 + b|s| + b|t| = 0.1 + 0.1(|s| + |t|) ≤ 0.7 allows on [−3, 3]
    N = SemilinearNonlinearity(g=lambda s: -10.0 * s, G=lambda s: -5.0 * s * s,
                               a1=40.0, a2=0.1, b=0.1, p=3.0, name="steep")
    with pytest.raises(AssumptionViolated, match="one-sided monotonicity"):
        N.validate()


def test_caristi_condition_failing_only_at_the_output(g1d4):
    # F moves a point by d only inside ‖u‖_X < 0.1, which no probe reaches;
    # the output ξ ≈ 0 of f = ‖u‖_X is there, and the descent bound fails
    d = 0.05 * np.ones(4)

    def F(u):
        return GridFunction(g1d4, u.values + d * (norm_X(u) < 0.1))

    f = Functional(eval=norm_X, symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="pot")
    with pytest.raises(AssumptionViolated, match="fails at the output") as exc:
        caristi_fixed_point(F, f, 0.2, g1d4, seed=0, n_samples=300)
    assert norm_X(exc.value.witness) < 0.1


def test_clarke_returns_the_pair_without_the_certificate(g1d4):
    def F(u):
        return GridFunction(g1d4, 0.4 * u.values)

    xi, resid = clarke_fixed_point(F, 0.4, 0.3, g1d4, seed=0, n_samples=300)
    xi2, resid2, _ = clarke_fixed_point(F, 0.4, 0.3, g1d4, seed=0,
                                        n_samples=300, return_certificate=True)
    assert xi == xi2 and resid == resid2


def test_clarke_refuses_a_map_leaving_the_cone(g1d4):
    with pytest.raises(AssumptionViolated, match="F\\(S\\) ⊄ S"):
        clarke_fixed_point(lambda u: GridFunction(g1d4, -u.values), 0.4, 0.3,
                           g1d4, seed=0)


def test_clarke_refuses_an_expanding_map(g1d4):
    # u ↦ 2u is equivariant but moves the segment twice as far
    with pytest.raises(AssumptionViolated, match="contraction fails on a"):
        clarke_fixed_point(lambda u: GridFunction(g1d4, 2.0 * u.values), 0.4,
                           0.3, g1d4, seed=0)


def test_clarke_contraction_failing_only_at_the_output(g1d4):
    # F contracts by 0.4 away from 0 but shifts by a constant c inside
    # ‖u‖_V < 0.05, which no probe's segment enters, where f = ‖c‖_V is
    # least: the output lies there, and along its segment F moves exactly
    # as far as the point
    c = 0.001 * np.ones(4)

    def F(u):
        if norm_V(u) < 0.05:
            return GridFunction(g1d4, u.values + c)
        return GridFunction(g1d4, 0.4 * u.values)

    with pytest.raises(AssumptionViolated, match="fails at the output") as exc:
        clarke_fixed_point(F, 0.4, 0.3, g1d4, seed=0, n_samples=300)
    assert norm_V(exc.value.witness) < 0.05


def test_ball_sphere_points_of_a_zero_draw_is_the_center(g1d2):
    center = g1d2.function([3.0, 3.0])
    Z = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    for symmetric in (False, True):
        S = Ball(center, 1.0, symmetric=symmetric).sphere_points(Z)
        assert np.array_equal(S[[0, 2]], [center.values] * 2)
        assert np.allclose(S[1], center.values + 1.0 / np.sqrt(2.0))


# The geometry samplers' per-sample loops before their points were built as
# blocks; the block samplers must reproduce their points bit for bit.

def _loop_images(space, vals):
    if space.dimension == 1:
        return [vals, vals[::-1]]
    v = vals.reshape(space.n, space.n)
    imgs = []
    for a in (v, v[::-1, :], v[:, ::-1], v[::-1, ::-1]):
        imgs.extend((a.ravel(), a.T.ravel()))
    return imgs


def _loop_sym_project(space, vals):
    if space.dimension == 1:
        return 0.5 * (vals + vals[::-1])
    return sum(_loop_images(space, vals)) / 8.0


def _loop_project(B, vals):
    w = np.array(vals, float)
    if B.symmetric:
        w = _loop_sym_project(B.center.space, w)
    d = B.norm(w - B.center.values)
    if d > B.radius:
        w = B.center.values + (B.radius / d) * (w - B.center.values)
    return w


def _loop_sphere_point(B, z):
    if B.symmetric:
        z = _loop_sym_project(B.center.space, z)
    nz = B.norm(z)
    if nz == 0:
        return np.array(B.center.values)
    return B.center.values + (B.radius / nz) * z


def _loop_inclusion_points(P, ball, rng, n_samples):
    # the sampler's own draws (every z, then every t); each point built alone
    Z = rng.standard_normal((n_samples, P.x0.space.n_cells))
    Y = []
    for z, t in zip(Z, rng.uniform(0.0, 1.0, n_samples)):
        b = _loop_sphere_point(ball, z)
        Y += [b, P.x0.values + t * (b - P.x0.values)]
    return np.reshape(Y, (-1, P.x0.space.n_cells))


def _loop_drop_points(x, B, rng, n_samples):
    # the sampler's own draws (every coin, a, z, then every t); each point
    # built alone
    coins, A = rng.uniform(size=n_samples), rng.uniform(-1, 1, n_samples)
    Z = rng.standard_normal((n_samples, len(x)))
    Y = []
    for u, a, z, t in zip(coins, A, Z, rng.uniform(0.0, 1.0, n_samples)):
        b = _loop_sphere_point(B, z) if u < 0.5 else \
            _loop_project(B, B.center.values + B.radius * a * z)
        Y.append(x + t * (b - x))
    return np.reshape(Y, (-1, len(x)))


def _l1(v):
    return float(np.sum(np.abs(v)))


def _radial_center(space, top):
    """A radially decreasing center: fixed by every polarizer and every
    reflection, so a symmetric ball accepts it."""
    k = np.arange(space.n) - (space.n - 1) / 2.0
    r2 = k * k if space.dimension == 1 else np.add.outer(k * k, k * k)
    return space.function(top - 0.1 * r2.ravel())


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", ["g1d8", "g2d4"])
@pytest.mark.parametrize("norm", [None, _l1], ids=["V", "l1"])
def test_petal_inclusion_points_equal_the_per_sample_loop(grid, norm,
                                                          request):
    from symvar.applications import _inclusion_points

    space = request.getfixturevalue(grid)
    rng = np.random.default_rng(3)
    P = Petal(0.5, space.function(rng.uniform(1.0, 3.0, space.n_cells)),
              space.function(rng.uniform(0.0, 0.5, space.n_cells)), norm=norm)
    ball = Ball(P.x1, 0.7, norm=P.norm)
    Y = _inclusion_points(P, ball, np.random.default_rng(5), 500)
    assert _bits_equal(Y, _loop_inclusion_points(
        P, ball, np.random.default_rng(5), 500))
    # the report scores those points as before
    rep = petal_inclusions(P, n_samples=300, seed=11)
    r = (1.0 - P.eps) / (1.0 + P.eps) * P.norm(P.x0.values - P.x1.values)
    Y = _loop_inclusion_points(P, Ball(P.x1, r, norm=P.norm),
                               np.random.default_rng(11), 300)
    lhs = np.array([P.eps * P.norm(w - P.x0.values) + P.norm(w - P.x1.values)
                    for w in Y]) - P.norm(P.x0.values - P.x1.values)
    assert rep["worst_margin"] == max(lhs)


@pytest.mark.parametrize("grid", ["g1d8", "g2d4"])
@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "sym"])
@pytest.mark.parametrize("norm", [None, _l1], ids=["V", "l1"])
def test_drop_points_equal_the_per_sample_loop(grid, symmetric, norm,
                                               request):
    from symvar.applications import _drop_points

    space = request.getfixturevalue(grid)
    B = Ball(_radial_center(space, 3.0), 0.8, norm=norm, symmetric=symmetric)
    x = np.random.default_rng(4).uniform(0.0, 0.5, space.n_cells)
    Y = _drop_points(x, B, np.random.default_rng(6), 2000)
    assert _bits_equal(Y, _loop_drop_points(x, B, np.random.default_rng(6),
                                            2000))


def test_normal_only_draws_equal_their_per_draw_loops(g1d8, monkeypatch):
    # estimate_inf's six random starts, caristi_fixed_point's 16 probes and
    # dual_norm's three ascent starts each come from one block of normals,
    # bit for bit the per-draw loop's
    from conftest import quad_X
    from symvar import applications as ap
    from symvar import principles as pr

    def per_draw(seed, k):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(g1d8.n_cells) for _ in range(k)]

    # estimate_inf: scaled by the largest start, then projected one by one
    starts, real = [], _descent.minimize_multistart

    def spy(fun, grad, S, **kw):
        starts.extend(S)
        return real(fun, grad, S, **kw)

    monkeypatch.setattr(_descent, "minimize_multistart", spy)
    dom = box_set(g1d8, -2.0, 2.0)
    pr.estimate_inf(quad_X(g1d8.function(np.full(8, 0.5))), g1d8, dom, 7,
                    extra_starts=[np.full(8, 1.5)])
    assert len(starts) == 8
    ref = [dom.project(z * 1.5) for z in per_draw(7, 6)]
    assert any((np.abs(z) * 1.5 > 2.0).any() for z in per_draw(7, 6))
    assert all(_bits_equal(a, b) for a, b in zip(starts[2:], ref))

    # caristi_fixed_point: F sees the 16 probes first
    class Probed(Exception):
        pass

    seen = []

    def F(u):
        seen.append(np.array(u.values))
        if len(seen) == 16:
            raise Probed
        return u

    f = Functional(eval=lambda u: norm_X(u), lower_bound=0.0)
    with pytest.raises(Probed):
        caristi_fixed_point(F, f, 0.3, g1d8, seed=4)
    assert all(_bits_equal(a, b) for a, b in zip(seen, per_draw(4, 16)))

    # dual_norm: each ascent start is normed as drawn before it is scaled,
    # as a row of a block the ascent norms
    normed = []

    class Spy(pr.XMetric):
        def norm(self, values):
            normed.extend(np.atleast_2d(values))
            return super().norm(values)

    monkeypatch.setattr(ap, "XMetric", Spy)
    dual_norm(g1d8, np.linspace(-1.0, 1.0, 8), method="ascent", seed=5)
    for z in per_draw(5, 3):
        assert any(_bits_equal(w, z) for w in normed)


def test_petal_inclusion_points_take_t_in_the_unit_interval(g1d8):
    # every drop point lies on the segment from x0 to its sphere point b, at
    # a t drawn uniformly from [0, 1); every b lies on the ball's sphere
    from symvar.applications import _inclusion_points

    rng = np.random.default_rng(3)
    P = Petal(0.5, g1d8.function(rng.uniform(1.0, 3.0, g1d8.n_cells)),
              g1d8.function(rng.uniform(0.0, 0.5, g1d8.n_cells)))
    Y = _inclusion_points(P, Ball(P.x1, 0.7), np.random.default_rng(5), 2000)
    assert np.allclose([P.norm(b - P.x1.values) for b in Y[0::2]], 0.7,
                       rtol=1e-12, atol=0)
    B, D = Y[0::2] - P.x0.values, Y[1::2] - P.x0.values
    t = np.sum(D * B, axis=1) / np.sum(B * B, axis=1)
    assert np.allclose(D, t[:, None] * B, rtol=0, atol=1e-12)
    assert -1e-12 <= t.min() and t.max() <= 1.0
    # uniform: each tenth of [0, 1) holds a share (200 expected)
    assert np.histogram(t, bins=10, range=(0.0, 1.0))[0].min() > 150


def test_drop_points_reach_both_branches_of_the_coin(g1d8, monkeypatch):
    # a fair coin sends each sample to a sphere point or to a projected
    # interior draw; both branches are reached, about half the time each
    from symvar.applications import _drop_points

    rows = {}

    def counted(name):
        real = getattr(Ball, name)

        def method(self, W):
            rows[name] = rows.get(name, 0) + len(W)
            return real(self, W)
        return method

    for name in ("sphere_points", "project"):
        monkeypatch.setattr(Ball, name, counted(name))
    B = Ball(_radial_center(g1d8, 3.0), 0.8)
    x = np.random.default_rng(4).uniform(0.0, 0.5, g1d8.n_cells)
    Y = _drop_points(x, B, np.random.default_rng(6), 2000)
    assert Y.shape == (2000, g1d8.n_cells)
    assert rows["sphere_points"] + rows["project"] == 2000
    assert 850 < rows["sphere_points"] < 1150


@pytest.mark.parametrize("grid", ["g1d8", "g2d4"])
@pytest.mark.parametrize("norm", [None, _l1], ids=["V", "l1"])
def test_ball_block_methods_equal_one_vector_calls(grid, norm, request):
    space = request.getfixturevalue(grid)
    W = _radial_center(space, 3.0).values + np.linspace(0.01, 1.0, 300)[
        :, None] * np.random.default_rng(2).standard_normal((300, space.n_cells))
    for symmetric in (False, True):
        B = Ball(_radial_center(space, 3.0), 1.0, norm=norm,
                 symmetric=symmetric)
        P = B.project(W)
        assert _bits_equal(P, np.array([_loop_project(B, w) for w in W]))
        assert _bits_equal(P, np.array([B.project(w) for w in W]))
        assert _bits_equal(B.dist(W), np.array([B.dist(w) for w in W]))
        assert _bits_equal(B._sym_project(W), np.array(
            [_loop_sym_project(space, w) for w in W]))
        # the rows outside the ball moved onto its sphere, the others stayed
        out = np.array([B.norm(w - B.center.values) for w in
                        (_loop_sym_project(space, w) if symmetric else w
                         for w in W)]) > B.radius
        assert 0 < out.sum() < len(W)


@pytest.mark.parametrize("norm", [None, _l1], ids=["V", "l1"])
def test_petal_second_points_match_the_mask_formula(g1d4, norm):
    # a block with known rows: ξ itself, a row within 1e-9 of ξ, petal
    # members and non-members; the count and the witness (the last hit)
    # match the mask (‖w−ξ‖ > 1e-9) & (ε‖w−ξ‖ + ‖w−y‖ ≤ ‖ξ−y‖ + 1e-12)
    from symvar.applications import _petal_second_points

    calls = []

    def counted(v):
        calls.append(1)
        return (norm or VMetric(g1d4).norm)(v)

    xi, y = np.array([1.0, 2.0, 2.0, 1.0]), np.zeros(4)
    eps = 0.3
    P = Petal(eps, g1d4.function(xi), g1d4.function(y), norm=counted)
    members = [xi + s * (y - xi) for s in (0.2, 0.5, 0.9)]
    W = np.array([xi, xi + 1e-12, members[0], 3.0 * xi, members[1],
                  xi, -xi, members[2], xi + [0.0, 0.0, 0.0, 1e-12],
                  xi + [5.0, 0.0, 0.0, 0.0]])
    calls.clear()
    hits = _petal_second_points(P, W)
    # one norm per row other than ξ, one per row past the 1e-9 test, and
    # ‖ξ − y‖ once
    assert len(calls) == 8 + 6 + 1

    def d(w, c):
        return (norm or VMetric(g1d4).norm)(w - c)

    mask = np.array([d(w, xi) > 1e-9
                     and eps * d(w, xi) + d(w, y) <= d(xi, y) + 1e-12
                     for w in W])
    assert mask.sum() == 3
    assert _bits_equal(hits, W[mask])
    assert _bits_equal(hits[-1], members[2])


def test_convex_reaches_answers_false_once_the_bracket_stops_shrinking():
    from symvar.applications import _convex_reaches

    # a collapsed bracket: nothing but a is left, and h(a) > level
    assert not _convex_reaches(lambda s: 1.0 + s, 2.0, 3.0, 2.0, 0.0)
    # h stays 1e-300 above the level: no chord bound exceeds it, and the
    # bracket shrinks to floating-point resolution in about 80 evaluations
    calls = []

    def h(s):
        calls.append(s)
        return abs(s - 1.0 / 3.0) + 1e-300

    assert not _convex_reaches(h, 0.0, h(0.0), 1.0, 0.0)
    assert len(calls) < 100


def selecting_near_zero_interval(a0, a1, tol):
    """The reference: ``_near_zero_interval`` by selecting the coordinates
    with a1ᵢ = 0 (every s or none) and the crossings of the others."""
    still = a1 == 0.0
    if np.any(np.abs(a0[still]) > tol):
        return None
    moving = ~still
    ends = (np.array([-tol, tol])[:, None] - a0[moving]) / a1[moving]
    lo = float(np.max(np.min(ends, axis=0), initial=-math.inf))
    hi = float(np.min(np.max(ends, axis=0), initial=math.inf))
    return (lo, hi) if lo <= hi else None


@pytest.mark.parametrize("grid", ["g1d2", "g1d8", "g2d4"])
def test_near_zero_interval_equals_its_reference(grid, request):
    # the off-subspace parts a0 = x − Sx and a1 = d − Sd of a symmetric
    # ball's rays, then edge cases: zero a1 entries (either sign), |a0| at,
    # below and above tol there, and quotients that overflow
    from symvar.applications import _DROP_TOL, _near_zero_interval

    g = request.getfixturevalue(grid)
    n, tol = g.n_cells, _DROP_TOL
    B = Ball(g.function(np.zeros(n)), 1.0, symmetric=True)
    rng = np.random.default_rng(n)
    pairs = []
    for scale in (1e-12, 1e-10, 1.0):
        x, d = scale * rng.standard_normal((2, n))
        pairs.append((x - B._sym_project(x), d - B._sym_project(d)))
        pairs.append((x - B._sym_project(x), np.zeros(n)))
    for a0_still in (0.0, 0.5 * tol, tol, -tol, 2.0 * tol, -2.0 * tol):
        for zero in (0.0, -0.0):
            a0 = 1e-11 * rng.standard_normal(n)
            a1 = rng.standard_normal(n)
            a0[0], a1[0] = a0_still, zero
            pairs.append((a0, a1))
            pairs.append((np.full(n, a0_still), np.full(n, zero)))
    for big in (1.0, -1.0):
        # (±tol − a0)/1e-310 overflows to one infinity at both crossings
        a0, a1 = np.zeros(n), np.zeros(n)
        a0[0], a1[0] = big, 1e-310
        pairs.append((a0.copy(), a1.copy()))
        a0[-1] = 2.0 * tol                     # and a still coordinate off
        pairs.append((a0.copy(), a1.copy()))
        a1[-1] = 1.0                           # or moving
        pairs.append((a0, a1))
    answers = set()
    for a0, a1 in pairs:
        with np.errstate(over="ignore"):
            want = selecting_near_zero_interval(a0, a1, tol)
        got = _near_zero_interval(a0, a1, tol)
        assert got == want, (a0, a1)
        answers.add("empty" if got is None else
                    "all" if got == (-math.inf, math.inf) else
                    "infinite" if math.isinf(got[0]) or math.isinf(got[1])
                    else "finite")
    assert answers == {"empty", "all", "infinite", "finite"}


def test_drop_membership_answers_the_geometry_queries(g1d2):
    # the benchmark's geometry queries on the criterion-9 drop, a diagonal
    # segment from the origin: points inside it, and outside it off the
    # diagonal, past its far end and behind its vertex
    D = _criterion9_drop(g1d2)
    s_max = float(D.ball.project(np.array([1e3, 1e3]))[0])
    rng = np.random.default_rng(35)
    inside = [[s, s] for s in rng.uniform(0.02, 0.98, 90) * s_max]
    outside = []
    for s in rng.uniform(0.1, 1.0, 30) * s_max:
        d = rng.uniform(0.05, 0.3) * s
        outside.append([s + d, s - d])
    outside += [[s, s] for s in rng.uniform(1.02, 2.0, 30) * s_max]
    outside += [[-s, -s] for s in rng.uniform(0.02, 1.0, 30) * s_max]
    assert all(drop_membership(g1d2.function(y), D) for y in inside)
    assert not any(drop_membership(g1d2.function(y), D) for y in outside)


def test_drop_membership_of_a_ray_with_no_symmetric_motion(g1d2):
    # the vertex lies off the fixed subspace and d = y − x is antisymmetric:
    # the ray meets the subspace only at s = 2, where b = (1/2, 1/2) is far
    # from the ball, and the symmetric part of the ray does not move
    B = Ball(g1d2.function([3.0, 3.0]), 1.0, symmetric=True)
    D = Drop(g1d2.function([1.0, 0.0]), B)
    assert not drop_membership(g1d2.function([0.75, 0.25]), D)


def test_drop_projection_scan_moves_toward_the_point(g1d2):
    from symvar.applications import _drop_project

    B = Ball(g1d2.function([3.0, 3.0]), 1.0)
    D = Drop(g1d2.function([0.0, 0.0]), B)
    y = np.array([3.0, 1.0])
    assert not drop_membership(g1d2.function(y), D)
    w = _drop_project(D, y)
    assert drop_membership(g1d2.function(w), D)
    assert B.norm(y - w) < B.norm(y)


def test_symmetric_drop_point_falls_back_to_the_vertex(g1d2):
    # C = {x, p}: C's projection always lands on p, which is off the drop,
    # and the drop's projection leaves C, so the drop engine's feasibility
    # projection gives the vertex x back, and the point found is x
    B = Ball(g1d2.function([3.0, 3.0]), 0.5, symmetric=True)
    x, p = np.array([0.2, 0.2]), np.array([0.0, 2.0])

    def contains(v):
        return bool(np.array_equal(v, x) or np.array_equal(v, p))

    C = SetOracle(contains=contains, project=lambda v: np.array(p),
                  kind="custom", description="{x, p}")
    cert = symmetric_drop_point(g1d2.function(x), B, C, 0.05, seed=0,
                                n_samples=200, minimality_samples=500)
    assert cert.status == "PASS"
    assert np.array_equal(cert.v.values, x)


def test_symmetric_drop_point_checks_its_inputs(g1d2):
    from symvar import NotSymmetricInput, nonneg_cone

    C = _halfplane_C()
    x = g1d2.function([0.0, 0.0])
    with pytest.raises(NotSymmetricInput, match="fully symmetric class"):
        symmetric_drop_point(x, Ball(g1d2.function([3.0, 3.0]), 1.0), C, 0.05)
    B = Ball(g1d2.function([3.0, 3.0]), 1.0, symmetric=True)
    with pytest.raises(AssumptionViolated, match="vertex x must belong"):
        symmetric_drop_point(g1d2.function([2.0, 2.0]), B, C, 0.05)
    # the vertex lies in B: d(B, C) = 0
    with pytest.raises(SeparationViolated, match="≤ 0"):
        symmetric_drop_point(g1d2.function([3.0, 3.0]), B,
                             nonneg_cone(g1d2), 0.05)


def test_symmetric_petal_point_checks_its_inputs(g1d4):
    box = box_set(g1d4, 0.0, 0.6)
    half, one = (g1d4.function(np.full(4, c)) for c in (0.5, 1.0))
    with pytest.raises(AssumptionViolated, match="x must belong to C"):
        symmetric_petal_point(one, one, box, 0.05)
    with pytest.raises(AssumptionViolated, match="y must lie outside C"):
        symmetric_petal_point(half, half, box, 0.05)
    # x = 0 is ‖1‖ from y, but the box comes within ‖0.4·1‖ of y
    with pytest.raises(AssumptionViolated, match="slope condition fails"):
        symmetric_petal_point(g1d4.zeros(), one, box, 0.05)
