import dataclasses
import json
import os
import signal
import threading
import time
from collections import Counter
from contextlib import closing

import numpy as np
import pytest

from symvar import (AssumptionViolated, BadStart, Certificate,
                    ConstraintDegeneracy, DivergenceAssumptionViolated,
                    Functional, GridFunction, InvalidArgument, NoMountainPass,
                    NotSymmetricInput, SymmetryViolation, bump_perturbation,
                    constrained_symmetric_ekeland, dgz_check, ekeland_point,
                    estimate_inf, make_grid, nonneg_cone, norm_V, norm_X, path_minimax,
                    schwarz, sqps_sequence, strong_slope,
                    symmetric_borwein_preiss, symmetric_ekeland,
                    symmetric_zhong, theta, verify_certificate, whole_space,
                    zhong_radius)
from symvar.funcspace import gram_matrix
from symvar.principles import XMetric, _ekeland_chain, box_set

from conftest import (double_well, on_rows, probe_spy, quad_V, quad_X,
                      random_S, sym_center)


def _sym_dec(g, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return schwarz(g.function(scale * np.abs(rng.standard_normal(g.n_cells))))


# ---------------------------------------------------------------------------
# core Ekeland engine

def test_ekeland_trivial_minimizer(g1d4):
    a = _sym_dec(g1d4, 1)
    f = quad_X(a)
    cert = ekeland_point(f, whole_space(g1d4), a, 0.1, 0.1, seed=0,
                         n_samples=500)
    assert cert.status == "PASS"
    assert cert.v == a
    assert cert.violation.max_violation == 0.0


def test_ekeland_quadratic_hand_bound(g1d4):
    # f(u0) = 0.9·σρ; the inequality at w = a forces ‖v−a‖ ≤ σ + slack/σ
    a = _sym_dec(g1d4, 2)
    f = quad_X(a)
    sigma = rho = 0.3
    rng = np.random.default_rng(3)
    d = g1d4.function(rng.standard_normal(4))
    d = (1.0 / norm_X(d)) * d
    u0 = a + np.sqrt(0.9 * sigma * rho) * d
    assert f(u0) == pytest.approx(0.9 * sigma * rho)
    cert = ekeland_point(f, whole_space(g1d4), u0, sigma, rho, seed=1,
                         n_samples=2000)
    assert cert.status == "PASS"
    assert f(cert.v) <= f(u0) + 1e-12
    dva = norm_X(cert.v - a)
    assert dva * dva <= sigma * dva + cert.slack + 1e-12


def test_ekeland_chain_energy_rise_is_typed(g1d4):
    # f rises by 10 each time it is re-evaluated at a point it has seen, so
    # the chain's re-evaluation of its accepted point breaks monotonicity
    seen = Counter()

    def ev(u):
        key = u.values.tobytes()
        seen[key] += 1
        return float(u.values @ u.values) + 10.0 * (seen[key] - 1)

    f = Functional(eval=ev, name="drifting")
    with pytest.raises(AssumptionViolated) as exc:
        _ekeland_chain(f, g1d4, whole_space(g1d4), np.ones(4), 0.1,
                       XMetric(g1d4), np.random.default_rng(0),
                       anchor_vals=np.zeros(4), trust=1.0)
    log = exc.value.witness
    assert log[0] == [4.0, 0.0]
    assert log[-1][0] > log[-2][0]


def test_ekeland_double_well_brute_force(g1d2):
    f = double_well(g1d2)
    gram = gram_matrix(g1d2)
    rng = np.random.default_rng(4)
    # a point near the well ‖u‖ = 1
    d = np.abs(rng.standard_normal(2))
    d /= np.sqrt(d @ gram @ d)
    u0 = g1d2.function(d * 1.001)
    sigma = rho = 0.1
    assert f(u0) <= sigma * rho
    cert = ekeland_point(f, whole_space(g1d2), u0, sigma, rho, seed=2,
                         n_samples=10000)
    assert cert.status == "PASS"
    v = cert.v
    fv = f(v)
    # v sits near the well: f(v) ≤ f(u0) pins the radius shell, and the
    # chain telescoping bounds the drift from u0
    assert fv <= f(u0) + 1e-15
    assert abs(np.sqrt(v.values @ gram @ v.values) - 1.0) <= 1.5e-3
    # independent oracle: dense grid scan of the variational inequality
    xs = np.linspace(-2.0, 2.0, 81)
    worst = 0.0
    for w0 in xs:
        for w1 in xs:
            w = g1d2.function([w0, w1])
            worst = max(worst, fv - sigma * norm_X(w - v) - f(w))
    assert worst <= cert.slack + 1e-9


def test_ekeland_bad_start(g1d4):
    a = _sym_dec(g1d4, 5)
    f = quad_X(a)
    u0 = a + g1d4.function(np.ones(4))     # energy far above inf + σρ
    with pytest.raises(BadStart):
        ekeland_point(f, whole_space(g1d4), u0, 0.01, 0.01, seed=0)


# ---------------------------------------------------------------------------
# symmetric variants

def test_symmetric_ekeland_trivial(g1d4):
    a = sym_center(g1d4, 6)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g1d4, a, 0.1, 0.1, variant="II", seed=0,
                             n_samples=500)
    assert cert.status == "PASS"
    assert norm_V(cert.v - schwarz(cert.v)) == 0.0


def test_symmetric_ekeland_variant_II_closed_form(g1d4):
    a = _sym_dec(g1d4, 7)
    f = quad_V(a)                       # eval-only functional in the V norm
    sigma = rho = 0.2
    rng = np.random.default_rng(8)
    u0 = theta(a + g1d4.function(0.05 * rng.standard_normal(4)))
    assert f(u0) <= sigma * rho
    cert = symmetric_ekeland(f, g1d4, u0, sigma, rho, variant="II", seed=3,
                             n_samples=3000)
    assert cert.status == "PASS"
    val, bound = cert.measured["‖v-v*‖_V"]
    assert bound == pytest.approx((g1d4.K * (g1d4.C_theta + 1) + 1) * rho)
    assert val < bound


def test_symmetric_ekeland_variant_I_cone(g1d4):
    a = sym_center(g1d4, 9)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g1d4, a, 0.1, 0.1, variant="I",
                             domain=nonneg_cone(g1d4), seed=1, n_samples=1000)
    assert cert.status == "PASS"
    _, bound = cert.measured["‖v-v*‖_V"]
    assert bound == pytest.approx((2 * g1d4.K + 1) * 0.1)


def test_symmetric_ekeland_variant_V_any_start(g1d4):
    a = sym_center(g1d4, 10)
    f = quad_X(a)
    rng = np.random.default_rng(11)
    u0 = random_S(g1d4, rng, scale=3.0)      # no energy precondition
    cert = symmetric_ekeland(f, g1d4, u0, 0.2, 0.2, variant="V", seed=4,
                             n_samples=2000)
    assert cert.status == "PASS"
    # exact recorded comparison f(v) + σ‖v−T_ρu0‖ ≤ f(u0)
    val, bound = cert.measured["f(v)+σ‖v-T_ρu0‖-f(u0)"]
    assert val <= bound + 1e-12


def test_symmetric_ekeland_variant_V_location_recovery(g1d4):
    a = sym_center(g1d4, 12)
    f = quad_X(a)
    rng = np.random.default_rng(13)
    sigma = rho = 0.3
    d = g1d4.function(rng.standard_normal(4))
    u0 = theta(a + (0.5 * np.sqrt(sigma * rho) / norm_X(d)) * d)
    assert f(u0) <= sigma * rho
    cert = symmetric_ekeland(f, g1d4, u0, sigma, rho, variant="V", seed=5,
                             n_samples=1000)
    rem = cert.extras["location_recovery"]
    assert rem["ok"]
    assert rem["‖v-T_ρu0‖"] <= rem["(f(u0)-f(v))/σ"] + 1e-12
    assert rem["(f(u0)-f(v))/σ"] <= rho + 1e-12


def test_symmetric_ekeland_variant_IV_stability(g1d4):
    a = sym_center(g1d4, 14)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g1d4, a, 0.1, 0.05, variant="IV", rho2=0.05,
                             seed=6, n_samples=1000)
    assert cert.status == "PASS"
    table = cert.extras["stability_modulus"]
    vals = [row[1] for row in table]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    _, bound = cert.measured["‖v-v*‖_V"]
    assert bound == pytest.approx((g1d4.K * 2 + 1) * 0.1)


def test_symmetric_ekeland_variant_III_point_list(g1d4):
    a = sym_center(g1d4, 15)
    f = quad_X(a)
    Y = [a, schwarz(g1d4.function([1.0, 1.0, 1.0, 1.0]))]
    cert = symmetric_ekeland(f, g1d4, a, 0.2, 0.2, variant="III", Y=Y,
                             seed=7, n_samples=800)
    assert cert.status == "PASS"
    assert cert.measured["d(v,Y)"][0] < cert.measured["d(v,Y)"][1]
    assert cert.measured["|f(v)-inf_est|"][0] < 0.2 * 0.2 + 1e-9


def test_variant_III_inf_probe_stream_is_not_the_symmetry_stream(
        g1d4, monkeypatch):
    import symvar.principles as pr

    # the stream state each call starts from, first call of each only
    states = {}

    def recording(name, fn):
        def wrapped(f, space, *args, **kwargs):
            seed = args[1] if name == "estimate_inf" else args[0]
            states.setdefault(name, np.random.default_rng(
                seed).bit_generator.state["state"])
            return fn(f, space, *args, **kwargs)
        return wrapped

    for name in ("check_symmetry", "estimate_inf"):
        monkeypatch.setattr(pr, name, recording(name, getattr(pr, name)))
    a = sym_center(g1d4, 15)
    Y = [a, schwarz(g1d4.function([1.0, 1.0, 1.0, 1.0]))]
    symmetric_ekeland(quad_X(a), g1d4, a, 0.2, 0.2, variant="III", Y=Y,
                      seed=7, n_samples=200)
    assert states["check_symmetry"] != states["estimate_inf"]


def test_variant_III_probes_once_and_checks_its_start(g1d4, monkeypatch):
    # the inner variant-II run's inf probe and start check are the
    # variant's own: one estimate_inf call, whose log (starts u_h and
    # T_ρ u_h) the certificate records, and a point list whose best point
    # lies above the probe by more than σ̃ρ = 0.016 still raises BadStart
    import symvar.principles as pr

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    real = pr.estimate_inf
    monkeypatch.setattr(pr, "estimate_inf", counting)
    a = sym_center(g1d4, 15)
    Y = [a, schwarz(g1d4.function([1.0, 1.0, 1.0, 1.0]))]
    cert = symmetric_ekeland(quad_X(a), g1d4, a, 0.2, 0.2, variant="III", Y=Y,
                             seed=7, n_samples=200)
    assert len(calls) == 1
    assert [tag for tag, _ in cert.inf_probe_log[:3]] == [
        "origin", "given0", "given1"]
    far = a + g1d4.function(np.full(4, 0.5))
    assert quad_X(a)(far) > 0.2 * 0.4 * 0.2
    with pytest.raises(BadStart):
        symmetric_ekeland(quad_X(a), g1d4, a, 0.2, 0.2, variant="III",
                          Y=[far], seed=7, n_samples=200)
    assert len(calls) == 2


def test_symmetry_violation_rejected(g1d4):
    # deliberately asymmetric functional declared as nonincreasing
    def ev(u):
        return -float(u.values[-1])

    f = Functional(eval=ev, symmetry_class="polarization-nonincreasing",
                   lower_bound=None, name="asym")
    with pytest.raises(SymmetryViolation):
        symmetric_ekeland(f, g1d4, g1d4.zeros(), 0.1, 0.1, variant="II",
                          seed=0)


def test_symmetric_ekeland_requires_cone_start(g1d4):
    a = sym_center(g1d4, 16)
    f = quad_X(a)
    with pytest.raises(AssumptionViolated):
        symmetric_ekeland(f, g1d4, g1d4.function([-1, 0, 0, 0]), 0.1, 0.1)


# ---------------------------------------------------------------------------
# Borwein-Preiss

def test_bp_trivial(g1d4):
    a = sym_center(g1d4, 17)
    f = quad_X(a)
    cert = symmetric_borwein_preiss(f, g1d4, a, 0.1, 0.1, seed=0,
                                    n_samples=500)
    assert cert.status == "PASS"
    assert cert.v == a
    assert cert.eta == a
    assert all(v == 0.0 for v, _ in
               [cert.measured["‖v-v*‖_V"], cert.measured["‖v-u‖"],
                cert.measured["‖η-u‖"]])


def test_bp_closed_form_inner_minimizer(g1d4):
    # v must solve (1+σ)v = a + σ·η exactly; (e) then has zero violation
    a = sym_center(g1d4, 18)
    f = quad_X(a)
    sigma = rho = 0.4
    rng = np.random.default_rng(19)
    u0 = theta(a + g1d4.function(0.03 * rng.standard_normal(4)))
    assert f(u0) <= 0.5 * sigma * rho ** 2
    cert = symmetric_borwein_preiss(f, g1d4, u0, sigma, rho, p_exp=2, seed=1,
                                    n_samples=10000)
    assert cert.status == "PASS"
    vhat = (a.values + sigma * cert.eta.values) / (1.0 + sigma)
    assert np.max(np.abs(cert.v.values - vhat)) < 1e-9
    assert cert.violation.max_violation <= 1e-10


def test_bp_pexp1_reduces_to_ekeland_form(g1d4):
    # σ(‖v−η‖ − ‖w−η‖) ≥ −σ‖w−v‖: the p=1 inequality implies Ekeland's
    a = sym_center(g1d4, 20)
    f = quad_X(a)
    cert = symmetric_borwein_preiss(f, g1d4, a, 0.2, 0.2, p_exp=1, seed=2,
                                    n_samples=500)
    rng = np.random.default_rng(21)
    v, eta = cert.v, cert.eta
    for _ in range(100):
        w = g1d4.function(rng.standard_normal(4))
        lhs = norm_X(v - eta) - norm_X(w - eta)
        assert lhs >= -norm_X(w - v) - 1e-12


def test_bp_center_bisects_toward_the_minimizer(g1d2):
    # f = h(mean u) drops by 9e-4 across a 0.004-wide step at s = 0.52 and
    # then slopes gently to s = 1: from u0 on the high side, the penalized
    # minimizer lies past the step, more than ρ/2 from η = u0, so η moves
    def h(s):
        return (9e-4 / (1.0 + np.exp((s - 0.52) / 0.004))
                + 2e-4 * (s - 1.0) ** 2)

    f = Functional(eval=lambda u: float(h(np.mean(u.values))), name="step")
    u0 = g1d2.function([0.5, 0.5])
    cert = symmetric_borwein_preiss(f, g1d2, u0, 0.1, 0.1, seed=1)
    assert cert.status == "PASS"
    assert norm_X(cert.eta - u0) > 0.0
    assert norm_X(cert.v - cert.eta) <= 0.1 / 2.0


def test_bp_bad_start(g1d4):
    a = sym_center(g1d4, 22)
    f = quad_X(a)
    with pytest.raises(BadStart):
        symmetric_borwein_preiss(f, g1d4, a + g1d4.function(np.ones(4)),
                                 0.01, 0.01, seed=0)


@pytest.mark.parametrize("engine", ["ekeland", "bp", "sqps"])
def test_bad_start_carries_its_witness(g1d4, monkeypatch, engine):
    # the failing start names the probe it was checked against: f(u0),
    # inf_est, the gap, the start route and the probe's log
    a = sym_center(g1d4, 22)
    f = quad_X(a)
    u0 = a + g1d4.function(np.ones(4))
    sigma, rho = (0.01, 0.01) if engine == "sqps" else (0.01, 0.02)
    gap = sigma * rho if engine == "ekeland" else sigma * rho ** 2
    calls = probe_spy(monkeypatch)
    with pytest.raises(BadStart) as exc:
        if engine == "ekeland":
            symmetric_ekeland(f, g1d4, u0, sigma, rho, seed=0)
        elif engine == "bp":
            symmetric_borwein_preiss(f, g1d4, u0, sigma, rho, seed=0)
        else:
            sqps_sequence(f, g1d4, [sigma], minimizing_sequence=lambda h: u0,
                          seed=0, n_samples=50, q_probes=4)
    e = exc.value
    (_, (inf_est, log, _)), = calls
    assert e.f_u0 == f(u0) and e.inf_est == inf_est and e.gap == gap
    assert e.start_route == "given" and e.probe_log is log
    assert e.f_u0 > e.inf_est + e.gap
    # the message text is the one it always was
    msg = (f"f(u0) = {e.f_u0:.6g} exceeds inf_est + {gap:.6g} "
           f"= {inf_est + gap:.6g}")
    assert str(e) == (f"schedule step h=0 (eps=0.01): {msg}"
                      if engine == "sqps" else msg)


def test_engines_given_u0_keep_their_path(g1d8, monkeypatch):
    # a given u0 never reaches the probe form: the probe runs once, after
    # T_ρ, from u and T_ρu, no start record is built, and the bytes equal
    # those of an unspied run
    from symvar import principles

    a = sym_center(g1d8, 3)
    f = quad_X(a)
    u0 = a * 1.001
    runs = {
        "I": lambda: symmetric_ekeland(f, g1d8, u0, 0.1, 0.1, variant="I",
                                       seed=2, n_samples=200),
        "II": lambda: symmetric_ekeland(f, g1d8, u0, 0.1, 0.1, variant="II",
                                        seed=2, n_samples=200),
        "BP": lambda: symmetric_borwein_preiss(f, g1d8, u0, 0.1, 0.1,
                                               seed=2, n_samples=200),
    }
    plain = {k: run().to_json_bytes() for k, run in runs.items()}
    calls = probe_spy(monkeypatch)

    def no_record(*args):
        raise AssertionError("a given start built a start record")

    monkeypatch.setattr(principles, "_start_record", no_record)
    for k, run in runs.items():
        calls.clear()
        cert = run()
        assert cert.to_json_bytes() == plain[k]
        assert "start" not in cert.extras
        (starts, (inf_est, log, _)), = calls
        assert [t for t, _ in log] == ["origin", "given0", "given1",
                                       *(f"random{j}" for j in range(6))]
        assert np.array_equal(starts[0], u0.values)
        assert cert.inf_est == inf_est and cert.inf_probe_log is log


def test_sqps_runs_one_probe_per_call(g1d4, monkeypatch):
    # the steps start from the argmin of the call's one probe and certify
    # against it; a given minimizing sequence's steps each probe from
    # their start and record the route "given"
    gram = gram_matrix(g1d4)
    f = Functional(eval=lambda u: 0.5 * float(u.values @ gram @ u.values),
                   gradient=lambda W: np.matmul(gram, W[..., None])[..., 0],
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="halfsq")
    calls = probe_spy(monkeypatch)
    out = sqps_sequence(f, g1d4, [0.1, 0.05, 0.02], seed=3, n_samples=100,
                        q_probes=4)
    (starts, (inf_est, log, _)), = calls
    assert starts == []
    for cert, _ in out:
        assert cert.status == "PASS"
        assert cert.inf_est == inf_est and cert.inf_probe_log is log
        assert cert.extras["start"] == {"route": "probe argmin",
                                        "check": "declared lower bound"}
    calls.clear()
    given = sqps_sequence(f, g1d4, [0.1, 0.05], seed=3, n_samples=100,
                          q_probes=4,
                          minimizing_sequence=lambda h: out[0][0].v)
    assert len(calls) == 2
    assert [c.extras["start"]["route"] for c, _ in given] == ["given"] * 2


# ---------------------------------------------------------------------------
# Zhong

def test_zhong_radius_closed_forms():
    for rho in (0.1, 0.5, 1.0, 2.0):
        assert zhong_radius(lambda s: 0.0, rho) == pytest.approx(rho, abs=1e-8)
        assert zhong_radius(lambda s: s, rho) == pytest.approx(
            np.expm1(rho), abs=1e-8)
    assert zhong_radius(lambda s: s * s, 0.5) == pytest.approx(
        np.tan(0.5), abs=1e-8)


def test_zhong_radius_divergence_violation():
    with pytest.raises(DivergenceAssumptionViolated):
        zhong_radius(lambda s: s ** 4, 2.0)    # ∫ds/(1+s⁴) = π/(2√2) < 2
    with pytest.raises(AssumptionViolated):
        zhong_radius(lambda s: -s, 1.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
def test_zhong_radius_rejects_rho_not_positive(rho):
    with pytest.raises(InvalidArgument, match="rho must be positive"):
        zhong_radius(lambda s: s, rho)


def test_symmetric_zhong_h_zero_degenerates(g1d4):
    a = sym_center(g1d4, 23)
    f = quad_X(a)
    cert = symmetric_zhong(f, g1d4, a, 0.1, 0.1, lambda s: 0.0, seed=0,
                           n_samples=800)
    assert cert.status == "PASS"
    assert cert.extras["r_of_rho"] == pytest.approx(0.1, abs=1e-8)
    assert cert.extras["weight_at_v"] == pytest.approx(1.0)


def test_symmetric_zhong_linear_weight_bound(g1d4):
    a = sym_center(g1d4, 24)
    f = quad_X(a)
    rho = 0.2
    rng = np.random.default_rng(25)
    u0 = theta(a + g1d4.function(0.03 * rng.standard_normal(4)))
    assert f(u0) <= 0.1 * rho
    cert = symmetric_zhong(f, g1d4, u0, 0.1, rho, lambda s: s, seed=1,
                           n_samples=2000)
    assert cert.status == "PASS"
    r = cert.extras["r_of_rho"]
    assert r == pytest.approx(np.expm1(rho), abs=1e-8)
    _, bound = cert.measured["‖v-v*‖_V"]
    assert bound == pytest.approx((g1d4.K * 2 + 1) * r, rel=1e-9)


def test_symmetric_zhong_weighted_slope_corollary(g1d4):
    # (1 + h(‖v−T_r u‖))·|∇f|(v) ≤ ρ + tol on a quadratic, with σ = ρ
    a = sym_center(g1d4, 26)
    f = quad_X(a)
    rho = 0.2
    rng = np.random.default_rng(27)
    u0 = theta(a + g1d4.function(0.03 * rng.standard_normal(4)))
    assert f(u0) <= rho * rho
    cert = symmetric_zhong(f, g1d4, u0, rho, rho, lambda s: s, seed=2,
                           n_samples=1000)
    est = strong_slope(f, cert.v, radii=(1e-4, 1e-5), n_samples=64, seed=3)
    weighted = est.upper / cert.extras["weight_at_v"]
    assert weighted <= rho + 0.1 * rho + 1e-6


# ---------------------------------------------------------------------------
# DGZ checking

def test_dgz_zero_perturbation_pass(g1d4):
    a = sym_center(g1d4, 28)
    f = quad_X(a)
    g0 = Functional(eval=lambda u: 0.0,
                    gradient=np.zeros_like, name="zero")
    cert = dgz_check(f, g0, a, 0.1, seed=0, n_samples=1000)
    assert cert.status == "PASS"
    assert cert.violation.max_violation == 0.0


def test_dgz_shipped_bump_analytic_bounds(g1d4):
    a = sym_center(g1d4, 29)
    f = quad_X(a)
    eps = 0.25
    g = bump_perturbation(g1d4, a, eps, delta=1.0)
    cert = dgz_check(f, g, a, eps, seed=1, n_samples=2000)
    assert cert.status == "PASS"
    assert cert.measured["sup|g|"][0] <= eps + 1e-12
    assert cert.measured["sup‖g'‖"][0] <= eps + 1e-12
    # analytic amplitude: A = ε·min(1, δ/M), M = 8/(3√3)
    M = 8.0 / (3.0 * np.sqrt(3.0))
    assert abs(g(a)) == pytest.approx(eps / M, rel=1e-12)


def test_dgz_failure_has_witness(g1d4):
    a = sym_center(g1d4, 30)
    f = quad_X(a)
    g0 = Functional(eval=lambda u: 0.0,
                    gradient=np.zeros_like, name="zero")
    v_bad = a + g1d4.function([0.5, 0, 0, 0])
    cert = dgz_check(f, g0, v_bad, 0.1, seed=2, n_samples=2000)
    assert cert.status == "FAILED"
    assert cert.violation.max_violation > 0
    assert cert.violation.argmax_w is not None
    w = cert.violation.argmax_w
    assert f(w) < f(v_bad)                      # genuine counterexample


def test_dgz_without_g_derivative_bounds_the_slope_by_differences(g1d4):
    # a g with no declared gradient: sup‖g'‖ comes from forward differences
    # along sampled unit directions, under the bump's analytic bound ε
    a = sym_center(g1d4, 29)
    eps = 0.25
    bump = bump_perturbation(g1d4, a, eps, delta=1.0)
    g = Functional(eval=bump.eval, name="bump-no-gradient")
    cert = dgz_check(quad_X(a), g, a, eps, seed=1, n_samples=2000)
    assert cert.status == "PASS"
    assert 0.0 < cert.measured["sup‖g'‖"][0] <= eps + 1e-6


def test_dgz_off_p2_never_calls_the_derivative():
    # off p = 2 the X-norm of an X-Riesz representative is not ‖g'‖_X′:
    # sup‖g'‖ comes from finite differences instead, and the declared
    # gradient is never called
    g1 = make_grid(1, 4, 1.0, 1.5, 4)
    a = sym_center(g1, 29)
    eps = 0.25
    bump = bump_perturbation(g1, a, eps, delta=1.0)

    def no_gradient(W):
        raise AssertionError("gradient called off p = 2")

    g = Functional(eval=bump.eval, gradient=no_gradient, name="bump")
    cert = dgz_check(quad_X(a), g, a, eps, seed=1, n_samples=500)
    assert 0.0 < cert.measured["sup‖g'‖"][0]


# ---------------------------------------------------------------------------
# constrained principle

def _l2_sphere(space, level=1.0):
    m = space.cell_measure

    def gev(u):
        return m * float(u.values @ u.values) - level

    return Functional(eval=gev, gradient=lambda W: 2.0 * m * W,
                      name="l2_sphere")


def test_constrained_rayleigh_quotient(g1d2):
    # min ‖u‖²_X on the unit L² sphere: generalized eigenproblem oracle
    from scipy.linalg import eigh
    gram = gram_matrix(g1d2)
    m = g1d2.cell_measure
    vals, vecs = eigh(gram, m * np.eye(2))
    lam_min = vals[0]
    ustar = np.abs(vecs[:, 0]) / np.sqrt(m * (vecs[:, 0] @ vecs[:, 0]))

    f = quad_X(g1d2.zeros())
    G = [_l2_sphere(g1d2)]
    u0 = g1d2.function(ustar)
    eps = 0.05
    cert = constrained_symmetric_ekeland(f, G, 1, u0, eps, seed=0,
                                         n_samples=3000)
    assert cert.status == "PASS"
    assert cert.measured["‖df-Σλ·dG‖_X'"][0] <= eps
    lam = cert.extras["multipliers"][0]
    assert lam == pytest.approx(lam_min, rel=0.05)
    assert np.max(np.abs(np.abs(cert.v.values) - ustar)) < 0.05


def test_constrained_requires_p2():
    g1 = make_grid(1, 2, 1.0, 1.5, 4)
    with pytest.raises(AssumptionViolated, match="p = 2"):
        constrained_symmetric_ekeland(quad_X(g1.zeros()), [_l2_sphere(g1)],
                                      1, g1.function([1.0, 1.0]), 0.05,
                                      seed=0, n_samples=200)


def test_constrained_no_constraints_reduces_to_variant_II(g1d4):
    a = sym_center(g1d4, 31)
    f = quad_X(a)
    cert = constrained_symmetric_ekeland(f, [], 0, a, 0.1, seed=1,
                                         n_samples=500)
    assert cert.variant == "SymEkelandII"
    assert cert.status == "PASS"


def test_constrained_inactive_inequality_zero_multiplier(g1d2):
    f = quad_X(g1d2.zeros())
    m = g1d2.cell_measure

    def g2ev(u):
        return 16.0 - m * float(u.values @ u.values)   # inactive at solution

    G = [_l2_sphere(g1d2),
         Functional(eval=g2ev, gradient=lambda W: -2.0 * m * W,
                    name="inactive")]
    gram = gram_matrix(g1d2)
    vals, vecs = np.linalg.eigh(np.linalg.solve(m * np.eye(2), gram))
    u0 = g1d2.function(np.abs(vecs[:, 0]) / np.sqrt(m * vecs[:, 0] @ vecs[:, 0]))
    cert = constrained_symmetric_ekeland(f, G, 1, u0, 0.05, seed=2,
                                         n_samples=1500)
    assert cert.extras["multipliers"][1] == 0.0
    assert 1 not in cert.extras["saturated"]


def _weighted_l2(space, weights):
    """f(u) = m·Σ w_i u_i² with its gradient."""
    m, w = space.cell_measure, np.asarray(weights, float)
    return Functional(eval=lambda u: m * float(w @ (u.values * u.values)),
                      gradient=lambda W: 2.0 * m * w * W, name="weighted_l2")


def test_constrained_rejects_a_set_polarization_leaves(g1d4):
    # C = {u_0 = 1/m} pins the edge cell; polarization moves its value
    m = g1d4.cell_measure
    pin = Functional(eval=lambda u: m * float(u.values[0]) - 1.0,
                     gradient=lambda W: np.broadcast_to(
                         m * np.eye(4)[0], np.shape(W)).copy(), name="pin")
    with pytest.raises(AssumptionViolated):
        constrained_symmetric_ekeland(quad_X(g1d4.zeros()), [pin], 1,
                                      g1d4.function([2.0, 1.0, 1.0, 1.0]),
                                      0.05, seed=0, n_samples=200)


def test_constrained_rejects_f_rising_under_polarization(g1d4):
    # the L² sphere is polarization stable, but weights heavier in the
    # middle make f grow when polarization moves mass inward
    f = _weighted_l2(g1d4, [1.0, 2.0, 2.0, 1.0])
    with pytest.raises(SymmetryViolation):
        constrained_symmetric_ekeland(f, [_l2_sphere(g1d4)], 1,
                                      g1d4.function([1.0, 1.0, 1.0, 1.0]),
                                      0.05, seed=0, n_samples=200)


# ---------------------------------------------------------------------------
# verification, determinism

def test_verify_certificate_trivial_and_corrupted(g1d4):
    a = sym_center(g1d4, 32)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g1d4, a, 0.1, 0.1, variant="II", seed=0,
                             n_samples=500)
    rep = verify_certificate(f, cert, 1000, seed=99)
    assert rep.max_violation == 0.0
    # corrupt the output point: shift by 10ρ along a fixed direction
    shift = g1d4.function([1.0, 0, 0, 0])
    bad = Certificate(variant=cert.variant,
                      v=cert.v + (10 * 0.1 / norm_X(shift)) * shift,
                      sigma=cert.sigma, rho=cert.rho, extras=cert.extras)
    rep_bad = verify_certificate(f, bad, 2000, seed=99)
    assert rep_bad.max_violation > 0
    assert rep_bad.argmax_w is not None


def test_verify_zhong_certificate_samples_on_r_of_rho(g1d4, monkeypatch):
    # the issuing engine samples on (4r, r, r/4) with r = r(ρ) = e^ρ − 1 for
    # the linear weight; re-verification must use the same radii, not ρ
    import symvar.principles as principles

    a = sym_center(g1d4, 24)
    f = quad_X(a)
    rng = np.random.default_rng(25)
    u0 = theta(a + g1d4.function(0.03 * rng.standard_normal(4)))
    cert = symmetric_zhong(f, g1d4, u0, 0.1, 0.2, lambda s: s, seed=1,
                           n_samples=200)
    seen = []
    real = principles.sample_inequality

    def spy(*args, **kwargs):
        seen.append(kwargs["radii"])
        return real(*args, **kwargs)

    monkeypatch.setattr(principles, "sample_inequality", spy)
    verify_certificate(f, cert, 100, seed=3)
    r = cert.extras["r_of_rho"]
    assert r == pytest.approx(np.expm1(0.2), abs=1e-8)
    assert seen == [(4 * r, r, r / 4)]


def test_certificate_record_needs_positive_sigma_and_rho(g1d8):
    # with ρ = 0 every ball sample sits on v itself, so a certificate whose
    # v was moved off its Ekeland point would re-verify with no violation
    f = quad_X(g1d8.zeros())
    cert = symmetric_ekeland(f, g1d8, g1d8.zeros(), 0.1, 0.1, variant="II",
                             seed=1, n_samples=300)
    raw = cert.to_json_dict()
    raw["v"] = {**raw["v"], "values": [x + 0.2 for x in raw["v"]["values"]]}
    moved = Certificate.from_json_dict(raw)
    assert verify_certificate(f, moved, 300, seed=2).max_violation > 0.05
    for name in ("rho", "sigma"):
        for bad in (0, 0.0, -0.1):
            with pytest.raises(InvalidArgument, match=f"{name} must be"):
                Certificate.from_json_dict({**raw, name: bad})


def test_engine_refuses_zero_rho(g1d8):
    # ρ = 0 used to issue a PASS certificate whose record the parser refuses
    with pytest.raises(InvalidArgument, match="rho must be a finite positive"):
        symmetric_ekeland(quad_X(g1d8.zeros()), g1d8, g1d8.zeros(),
                          sigma=0.1, rho=0.0, variant="II", seed=1)


def test_engine_refuses_zero_sigma(g1d8):
    # σ = 0 used to end in a raw ZeroDivisionError
    with pytest.raises(InvalidArgument, match="sigma must be a finite positive"):
        symmetric_ekeland(quad_X(g1d8.zeros()), g1d8, g1d8.zeros(),
                          sigma=0, rho=0.1, variant="II", seed=1)


def test_verify_certificate_sample_monotone(g1d4):
    a = sym_center(g1d4, 33)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g1d4, a + g1d4.function([0.02, 0, 0, 0.01]),
                             0.3, 0.3, variant="V", seed=1, n_samples=400)
    r1 = verify_certificate(f, cert, 500, seed=7)
    r2 = verify_certificate(f, cert, 1000, seed=7)
    assert r2.max_violation >= r1.max_violation


def test_certificate_determinism_byte_identical(g1d4):
    a = sym_center(g1d4, 34)
    f = quad_X(a)
    rng = np.random.default_rng(35)
    d = g1d4.function(rng.standard_normal(4))
    u0 = theta(a + (0.02 / norm_X(d)) * d)
    c1 = symmetric_ekeland(f, g1d4, u0, 0.2, 0.2, variant="II", seed=42,
                           n_samples=800)
    c2 = symmetric_ekeland(f, g1d4, u0, 0.2, 0.2, variant="II", seed=42,
                           n_samples=800)
    assert c1.to_json_bytes() == c2.to_json_bytes()
    parsed = json.loads(c1.to_json_bytes())
    assert parsed["schema"] == "symvar-certificate/1"


# ---------------------------------------------------------------------------
# path minimax

def _radial_double_well(space):
    gram = gram_matrix(space)

    def ev(u):
        r2 = float(u.values @ gram @ u.values)
        r = np.sqrt(r2)
        return r2 * (r - 1.0) ** 2

    def grad(v):
        r = np.sqrt(float(v @ gram @ v))
        return gram @ ((2.0 * (r - 1.0) ** 2 + 2.0 * r * (r - 1.0)) * v)

    return Functional(eval=ev, gradient=on_rows(grad),
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name="radial_double_well")


def _unit_sym(space):
    gram = gram_matrix(space)
    ones = np.ones(space.n_cells)
    return GridFunction(space, ones / np.sqrt(ones @ gram @ ones))


def test_path_minimax_ridge(g1d2):
    f = _radial_double_well(g1d2)
    psi = _unit_sym(g1d2)
    cert = path_minimax(f, psi, 12, 0.05, seed=1, n_samples=300)
    assert cert.status == "PASS"
    # 1D scan oracle: the ridge of r²(r−1)² sits at r = 1/2, level 1/16
    assert norm_X(cert.v) == pytest.approx(0.5, abs=0.05)
    assert f(cert.v) <= 1.0 / 16.0 + 0.05
    assert cert.measured["‖df(u_ε)‖"][0] <= 0.05 + 1e-6


def test_path_minimax_degenerate_two_nodes(g1d2):
    f = _radial_double_well(g1d2)
    psi = _unit_sym(g1d2)
    with pytest.raises(NoMountainPass):
        path_minimax(f, psi, 1, 0.05, seed=0)


def test_path_minimax_needs_symmetric_psi(g1d4):
    f = _radial_double_well(g1d4)
    psi = g1d4.function([0.0, 0.0, 1.0, 0.0])       # not family-fixed
    with pytest.raises(NotSymmetricInput):
        path_minimax(f, psi, 8, 0.05, seed=0)


def test_path_minimax_requires_p2():
    g1 = make_grid(1, 2, 1.0, 1.5, 4)
    with pytest.raises(AssumptionViolated, match="p = 2"):
        path_minimax(_radial_double_well(g1), g1.function([0.5, 0.5]), 8,
                     0.05, seed=0)


def _shape_well(space, kappa):
    """r²(r−1)²·(1 + κ(q − c)²) with r = ‖u‖_{L²}, q = ‖u‖_{L⁴}/r and c the
    q of a flat u: wells at 0 and on the unit L² sphere, and a ridge at
    r = 1/2 that is lowest on flat shapes; rearrangement-invariant."""
    m = space.cell_measure
    c = (m * space.n_cells) ** -0.25

    def parts(v):
        r = np.sqrt(m * float(v @ v))
        return r, (m * float(np.sum(v ** 4))) ** 0.25

    def ev(u):
        r, r4 = parts(u.values)
        if r == 0.0:
            return 0.0
        return r * r * (r - 1.0) ** 2 * (1.0 + kappa * (r4 / r - c) ** 2)

    def grad(v):
        r, r4 = parts(v)
        if r == 0.0:
            return np.zeros_like(v)
        dr, dr4 = m * v / r, m * v ** 3 / r4 ** 3
        q = r4 / r - c
        dq = dr4 / r - r4 / (r * r) * dr
        well = r * r * (r - 1.0) ** 2
        dwell = (2.0 * r * (r - 1.0) ** 2 + 2.0 * r * r * (r - 1.0)) * dr
        return dwell * (1.0 + kappa * q * q) + well * 2.0 * kappa * q * dq

    return Functional(eval=ev, gradient=on_rows(grad), name="shape_well")


@pytest.mark.xfail(strict=True, raises=NoMountainPass, reason=(
    "the f̂ descent moves nodes off the ridge until the inner nodes sit on "
    "the two wells (r = 0 or 1, f about 1e-14): f̂ sees only the nodes, so "
    "the level falls to the barrier"))
@pytest.mark.parametrize("kappa", [5.0, 50.0, 500.0])
def test_path_minimax_shape_ridge(g1d4, kappa):
    shape = np.array([0.3, 1.0, 1.0, 0.3])
    psi = g1d4.function(shape / np.sqrt(g1d4.cell_measure * (shape @ shape)))
    cert = path_minimax(_shape_well(g1d4, kappa), psi, 8, 0.05, seed=0,
                        n_samples=200)
    assert cert.status == "PASS"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the path-space chain accepts moves that take the ridge node off the "
    "ridge, so f̂ falls far below the level c_est = 1/16 of the descent "
    "and the bound c_est - f(u_ε) <= 0 fails"))
def test_path_minimax_chain_keeps_the_ridge(g1d2):
    cert = path_minimax(_radial_double_well(g1d2), _unit_sym(g1d2), 12,
                        0.002, seed=0, n_samples=300)
    assert cert.status == "PASS"


def test_nodewise_polarization_fixes_symmetric_paths(g1d4):
    from symvar import polarize
    nodes = [t * _sym_dec(g1d4, 36) for t in np.linspace(0, 1, 5)]
    for H in g1d4.polarizers:
        for nd in nodes:
            assert polarize(nd, H) == theta(nd)


# ---------------------------------------------------------------------------
# SQPS

def test_sqps_convex_quadratic(g1d4):
    gram = gram_matrix(g1d4)
    f = Functional(eval=lambda u: 0.5 * float(u.values @ gram @ u.values),
                   gradient=lambda W: np.matmul(gram, W[..., None])[..., 0],
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="halfsq")
    out = sqps_sequence(f, g1d4, [0.1, 0.01], seed=0, n_samples=400,
                        q_probes=16)
    for (cert, qrep) in out:
        assert cert.status == "PASS"
        assert qrep.min_margin >= 0.0 - 1e-9      # quotient = ‖ζ‖² ≥ 0
        assert norm_X(cert.v) < 0.2


def test_sqps_symmetry_residual_bound(g1d4):
    gram = gram_matrix(g1d4)
    f = Functional(eval=lambda u: 0.5 * float(u.values @ gram @ u.values),
                   gradient=lambda W: np.matmul(gram, W[..., None])[..., 0],
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="halfsq")
    eps = [0.1, 0.05]
    out = sqps_sequence(f, g1d4, eps, seed=1, n_samples=300, q_probes=8)
    for (cert, _), e in zip(out, eps):
        val, bound = cert.measured["‖v-v*‖_V"]
        assert bound == pytest.approx((g1d4.K * 2 + 1) * e)
        assert val < bound


def test_sqps_box_constrained_quartic(g1d4):
    gram = gram_matrix(g1d4)
    # the alternating-sign corner maximizes ‖u‖_X over the box at ≈ 5.48·B;
    # B = 0.15 keeps the whole box inside ‖u‖_X < 1 where the radial hump
    # increases, so the boxed functional is polarization-nonincreasing
    box = box_set(g1d4, -0.15, 0.15)
    def ev(u):
        if not box.contains(u.values):
            return np.inf
        r2 = float(u.values @ gram @ u.values)
        return 0.5 * r2 - 0.25 * r2 * r2

    def grad(v):
        return gram @ ((1.0 - float(v @ gram @ v)) * v)

    f = Functional(eval=ev, gradient=on_rows(grad),
                   symmetry_class="polarization-nonincreasing", name="quart")
    out = sqps_sequence(f, g1d4, [0.1, 0.05], domain=box, seed=2,
                        n_samples=300, q_probes=16)
    for cert, qrep in out:
        assert qrep.min_margin >= -qrep.tol_q
        assert cert.status == "PASS"


# ---------------------------------------------------------------------------
# extra surface coverage

def test_symmetric_ekeland_on_2d_grid(g2d4):
    # 2D engines work whenever T_rho succeeds; canonical starts make it
    # the identity word
    a = sym_center(g2d4, 2)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g2d4, a, 0.1, 0.1, variant="II", seed=0,
                             n_samples=800)
    assert cert.status == "PASS"
    assert cert.t_rho_sequence == []


def test_symmetric_bp_on_2d_grid(g2d4):
    a = sym_center(g2d4, 4)
    f = quad_X(a)
    cert = symmetric_borwein_preiss(f, g2d4, a, 0.1, 0.1, seed=1,
                                    n_samples=600)
    assert cert.status == "PASS"


def test_engine_on_p3_grid_derivative_free():
    # non-Hilbert exponent: engines fall back to the compass path
    g = make_grid(1, 4, 1.0, 3, 4.5)
    from conftest import quad_V
    rng = np.random.default_rng(11)
    a = schwarz(GridFunction(g, np.abs(rng.standard_normal(4))))
    f = quad_V(a)
    cert = symmetric_ekeland(f, g, a, 0.2, 0.2, variant="II", seed=2,
                             n_samples=500)
    assert cert.status == "PASS"


def test_verify_certificate_bp_route(g1d4):
    a = sym_center(g1d4, 40)
    f = quad_X(a)
    rng = np.random.default_rng(41)
    d = GridFunction(g1d4, rng.standard_normal(4))
    u0 = theta(a + (0.02 / norm_X(d)) * d)
    cert = symmetric_borwein_preiss(f, g1d4, u0, 0.2, 0.2, seed=3,
                                    n_samples=500)
    rep = verify_certificate(f, cert, 2000, seed=17)
    assert rep.max_violation <= cert.slack


def test_verify_certificate_zhong_route(g1d4):
    a = sym_center(g1d4, 42)
    f = quad_X(a)
    cert = symmetric_zhong(f, g1d4, a, 0.1, 0.1, lambda s: s, seed=4,
                           n_samples=500)
    rep = verify_certificate(f, cert, 2000, seed=18)
    assert rep.max_violation <= cert.slack


def test_certificate_failed_bounds_reporting(g1d4):
    a = sym_center(g1d4, 43)
    f = quad_X(a)
    cert = symmetric_ekeland(f, g1d4, a, 0.1, 0.1, variant="II", seed=5,
                             n_samples=300)
    cert.add_measured("impossible", 2.0, 1.0)
    cert.seal()
    assert cert.status == "FAILED"
    assert "impossible" in cert.failed_bounds()


def _round_trip(cert):
    return Certificate.from_json_dict(json.loads(cert.to_json_bytes()))


def test_path_minimax_certificate_reverifies_at_its_own_seed(g1d2):
    # re-verified from its JSON record at the report's own seed, a path
    # certificate's sampled inequality is the one it was issued with: the
    # same max_violation, witness and seed, on a PASS and a FAILED one
    f, psi = _radial_double_well(g1d2), _unit_sym(g1d2)
    for seed, status in ((0, "PASS"), (4, "FAILED")):
        cert = path_minimax(f, psi, 8, 0.05, seed=seed, n_samples=300)
        assert cert.status == status
        issued = cert.violation
        rep = verify_certificate(f, _round_trip(cert), issued.n_samples,
                                 seed=issued.seed)
        assert (rep.max_violation, rep.seed) == (issued.max_violation,
                                                 issued.seed)
        if status == "PASS":
            assert rep.argmax_w is None and issued.argmax_w is None
        else:
            assert rep.max_violation > cert.slack
            assert np.array_equal(rep.argmax_w.values,
                                  issued.argmax_w.values)


def test_path_minimax_certificate_with_a_tampered_path_fails(g1d2):
    # the digest case issues a PASS, and re-verifies as one at seeds 1-3;
    # with the top node of its recorded path scaled by 0.9 the path no
    # longer crosses the ridge at f(u_eps), and paths sampled around it
    # score below f(u_eps) - eps·d at the same seeds
    f, psi = _radial_double_well(g1d2), _unit_sym(g1d2)
    cert = path_minimax(f, psi, 8, 0.05, seed=8, n_samples=300)
    assert cert.status == "PASS"
    raw = json.loads(cert.to_json_bytes())
    top = raw["extras"]["argmax_node"]
    raw["extras"]["path"][top] = [0.9 * x for x in raw["extras"]["path"][top]]
    tampered = Certificate.from_json_dict(raw)
    for seed in (1, 2, 3):
        rep = verify_certificate(f, _round_trip(cert), 300, seed=seed)
        assert rep.max_violation <= cert.slack, seed
        rep = verify_certificate(f, tampered, 300, seed=seed)
        assert rep.max_violation > 100 * tampered.slack, seed


def test_path_minimax_deficit_counts_the_endpoints(g1d2):
    # f̂ of a sampled path is its largest node value, the recorded
    # endpoints included; when an endpoint is the top node it sets the
    # deficit and is the witness
    from symvar.principles import _deficit

    f = quad_X(g1d2.function([0.3, 0.3]))
    nodes = [[0.0, 0.0], [0.2, 0.2], [0.4, 0.4], [2.0, 2.0]]
    v = g1d2.function(nodes[2])
    cert = Certificate(variant="PathMinimax", v=v, sigma=0.1, rho=0.1,
                       extras={"path": nodes})
    deficit = _deficit(f, cert, XMetric(g1d2), f(v))
    W = np.array([[0.2, 0.2, 0.4, 0.4], [0.25, 0.25, 0.35, 0.35]])
    top = f(g1d2.function(nodes[3]))
    assert top > max(f(g1d2.function(w)) for w in W.reshape(-1, 2))
    assert np.array_equal(deficit(W, np.array([0.5, 0.25])),
                          f(v) - 0.1 * np.array([0.5, 0.25]) - top)
    assert np.array_equal(deficit._witness(W[1]), nodes[3])


def test_path_minimax_record_with_a_malformed_path_is_refused(g1d2, tmp_path,
                                                               capsys):
    # re-verification samples around the recorded path, so a path with
    # fewer than 3 nodes or a ragged one is refused when the record is
    # read, by the library and by the CLI's verify_certificate (exit 1)
    from cli_cases import WELL, config
    from symvar.cli import run_config

    cert = path_minimax(_radial_double_well(g1d2), _unit_sym(g1d2), 8, 0.05,
                        seed=8, n_samples=50)
    raw = json.loads(cert.to_json_bytes())
    path = raw["extras"]["path"]
    for label, bad in (("two_nodes", [path[0], path[-1]]),
                       ("ragged", [*path[:3], path[3][:1], *path[4:]]),
                       ("not_a_number", [*path[:3], [0.1, "0.2"], *path[4:]])):
        record = {**raw, "extras": {**raw["extras"], "path": bad}}
        with pytest.raises(InvalidArgument, match="extras.path"):
            Certificate.from_json_dict(record)
        cert_path = tmp_path / f"{label}.json"
        cert_path.write_text(json.dumps(record))
        verify = tmp_path / f"verify_{label}.json"
        verify.write_text(json.dumps(config(
            "verify_certificate", 2, {"certificate_path": str(cert_path)},
            WELL)))
        assert run_config(verify, out_dir=str(tmp_path / label)) == 1
        err = capsys.readouterr().err
        assert "config.parameters.certificate_path" in err, label
        assert "extras.path" in err, label


def test_record_metric_must_match_the_path_variant(g1d2, g1d4, tmp_path,
                                                    capsys):
    # a path record re-verifies under the path metric only: with its
    # metric edited to "V" or "X" (or left out) the digest path record
    # would be re-sampled under a grid norm of the flattened path rows,
    # another inequality, so the record is refused when it is read, by
    # the library and by the CLI's verify_certificate (exit 1); a record
    # of another variant may not claim the path metric
    from cli_cases import WELL, config
    from symvar.cli import run_config

    f = _radial_double_well(g1d2)
    cert = path_minimax(f, _unit_sym(g1d2), 8, 0.05, seed=8, n_samples=50)
    raw = json.loads(cert.to_json_bytes())
    assert raw["extras"]["metric"] == "X-path-sup"
    other = json.loads(symmetric_ekeland(
        quad_X(g1d4.zeros()), g1d4, g1d4.zeros(), 0.1, 0.1, variant="II",
        seed=1, n_samples=50).to_json_bytes())
    extras = {k: v for k, v in raw["extras"].items() if k != "metric"}
    records = {"V": {**raw, "extras": {**extras, "metric": "V"}},
               "X": {**raw, "extras": {**extras, "metric": "X"}},
               "none": {**raw, "extras": extras},
               "other": {**other, "extras": {**other["extras"],
                                             "metric": "X-path-sup"}}}
    for label, record in records.items():
        with pytest.raises(InvalidArgument, match="extras.metric"):
            Certificate.from_json_dict(record)
        cert_path = tmp_path / f"{label}.json"
        cert_path.write_text(json.dumps(record))
        verify = tmp_path / f"verify_{label}.json"
        verify.write_text(json.dumps(config(
            "verify_certificate", 2 if label != "other" else 4,
            {"certificate_path": str(cert_path)}, WELL)))
        assert run_config(verify, out_dir=str(tmp_path / label)) == 1
        err = capsys.readouterr().err
        assert "extras.metric" in err, label
    # the records as issued are read and re-verify as before
    assert verify_certificate(f, Certificate.from_json_dict(raw), 50,
                              seed=3).n_samples == 50
    assert Certificate.from_json_dict(other).extras["metric"] == "X"


def test_sqps_error_carries_schedule_index(g1d4):
    a = sym_center(g1d4, 50)
    f = quad_X(a)

    def minseq(h):
        # far from the minimizer: violates f(xi) < inf + eps^3 at h = 0
        return theta(a + g1d4.function(np.ones(4)))

    with pytest.raises(BadStart) as exc:
        sqps_sequence(f, g1d4, [0.1, 0.05], minimizing_sequence=minseq,
                      seed=0, n_samples=50, q_probes=4)
    assert "h=0" in str(exc.value)


# ---------------------------------------------------------------------------
# block sampling against the per-sample loop

def _reference_sample(deficit, space, v_vals, *, n_samples, seed, radii,
                      metric_norm, domain=None, width=None, extra_points=()):
    """sample_inequality as first written: one draw, one norm and one
    deficit per sample, on single points.  ``deficit(w, dist)`` gets the
    distance the sampler owns: r for a ball point, the norm of a probe's
    offset, ‖w − v‖ for an extra point and for a point the projection
    moved."""
    rng = np.random.default_rng(seed)
    if width is None:
        width = max(1.0, 2.0 * float(np.max(np.abs(v_vals))))
    maxv, arg = 0.0, None

    def consider(w, dist):
        nonlocal maxv, arg
        if domain is not None:
            moved = domain.project(w)
            if not np.array_equal(moved, w):
                dist = metric_norm(moved - v_vals)
            w = moved
            if not domain.contains(w):
                return
        d = deficit(w, dist)
        if d > maxv:
            maxv, arg = d, np.array(w)

    for w in extra_points:
        w = np.asarray(w, float)
        consider(w, metric_norm(w - v_vals))
    for i in range(n_samples):
        z = rng.standard_normal(len(v_vals))
        k = i % (len(radii) + 1)
        if k < len(radii):
            nz = metric_norm(z)
            if nz == 0.0:
                continue
            consider(v_vals + radii[k] * z / nz, radii[k])
        else:
            offset = width * (2.0 * (z % 1.0) - 1.0)
            consider(v_vals + offset, metric_norm(offset))
    return maxv, arg


def _sampling_metrics(space):
    from symvar.principles import CallableMetric, VMetric

    return {"X": XMetric(space), "V": VMetric(space),
            "l1": CallableMetric(lambda z: float(np.sum(np.abs(z))), "l1"),
            # zero on about half the draws: those ball samples are skipped
            "semi": CallableMetric(lambda z: max(float(z[0]), 0.0), "semi")}


def _sampling_domains(space):
    from symvar import SetOracle

    return {"none": None, "space": whole_space(space),
            "cone": nonneg_cone(space),
            "box": box_set(space, 0.0, 1.3),
            "custom": SetOracle(contains=lambda v: v[0] <= v[-1] + 0.3,
                                project=lambda v: np.maximum(v, -0.5))}


def _scalar_deficit(f, cert, metric, fv, g=None):
    """Per-point deficit of each certificate form, on single points, given
    the point's distance to v (unused by SymBP and DGZCheck)."""
    space, sigma = cert.v.space, cert.sigma
    if cert.variant == "SymBP":
        eta, p = cert.eta.values, cert.p_exp
        dve = metric.dist(cert.v.values, eta) ** p
        return lambda w, dist: (fv + sigma * (dve - metric.dist(w, eta) ** p)
                                - f(GridFunction(space, w)))
    if cert.variant == "DGZCheck":
        fgv = fv + g(cert.v)
        return lambda w, dist: (fgv - f(GridFunction(space, w))
                                - g(GridFunction(space, w)))
    return lambda w, dist: fv - sigma * dist - f(GridFunction(space, w))


def _block_equals_loop(space, a, v, eta, metric_name, domain_name,
                       n_samples):
    """Score four certificate forms with sample_inequality and with the
    per-sample loop; assert the same points at the same distances with the
    same deficits in the same order, and the same winner; return how many
    forms found a positive deficit."""
    from symvar.cli import FUNCTIONALS
    from symvar.principles import _deficit, sample_inequality

    metric = _sampling_metrics(space)[metric_name]
    domain = _sampling_domains(space)[domain_name]
    batched = FUNCTIONALS["quadratic"].build(space, {"center": a})
    assert batched.eval_batch is not None
    bump = bump_perturbation(space, v, 0.05, 0.3)
    positive = 0
    for f, variant, g in ((batched, "SymEkelandII", None),
                          (quad_X(a), "SymEkelandII", None),
                          (batched, "SymBP", None),
                          (quad_X(a), "DGZCheck", bump)):
        cert = Certificate(variant=variant, v=v, sigma=0.1, rho=0.1,
                           p_exp=2.0, eta=eta)
        fv = f(v)
        kw = dict(n_samples=n_samples, seed=5, radii=(0.4, 0.1, 0.025),
                  domain=domain, extra_points=[a.values, v.values + 0.01,
                                               np.zeros(space.n_cells)])
        block_deficit = _deficit(f, cert, metric, fv, g)
        point_deficit = _scalar_deficit(f, cert, metric, fv, g)
        scored, ref_scored = [], []

        def block(W, D):
            d = block_deficit(W, D)
            scored.append((W.copy(), D.copy(), d))
            return d

        def point(w, dist):
            d = point_deficit(w, dist)
            ref_scored.append((w, dist, d))
            return d

        rep = sample_inequality(block, space, v.values,
                                metric_norm=metric.norm, **kw)
        maxv, arg = _reference_sample(point, space, v.values,
                                      metric_norm=metric.norm, **kw)
        # the same points at the same distances with the same deficits in
        # the same order, and the same winner
        for j, ref in enumerate(zip(*ref_scored)):
            assert np.array_equal(np.concatenate([b[j] for b in scored]),
                                  ref)
        assert rep.max_violation == maxv
        if arg is None:
            assert rep.argmax_w is None
        else:
            assert np.array_equal(rep.argmax_w.values, arg)
            positive += 1
    return positive


@pytest.mark.parametrize("metric_name", ["X", "V", "l1", "semi"])
@pytest.mark.parametrize("domain_name", ["none", "space", "cone", "box",
                                         "custom"])
def test_sample_inequality_equals_per_sample_loop(g1d4, metric_name,
                                                  domain_name):
    a = sym_center(g1d4, 40)
    v = a + g1d4.function([0.05, -0.02, 0.04, 0.1])
    eta = v + g1d4.function([0.01, 0.02, 0.0, -0.01])
    assert _block_equals_loop(g1d4, a, v, eta, metric_name, domain_name,
                              n_samples=1100) >= 2


@pytest.mark.parametrize("metric_name", ["X", "V"])
@pytest.mark.parametrize("domain_name", ["none", "cone"])
@pytest.mark.parametrize("dimension,n", [(1, 128), (2, 4)])
def test_sample_inequality_equals_per_sample_loop_on_larger_grids(
        dimension, n, metric_name, domain_name):
    # three full blocks of 512 rows and a partial fourth on 1D n = 128, two
    # full blocks of 1024 rows and a partial third on 2D 4×4
    g = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(40)
    a = sym_center(g, 40)
    v = a + g.function(0.05 * rng.standard_normal(g.n_cells))
    eta = v + g.function(0.01 * rng.standard_normal(g.n_cells))
    assert _block_equals_loop(g, a, v, eta, metric_name, domain_name,
                              n_samples=2000 if dimension == 1 else 2500) >= 2


def test_sample_inequality_probe_map_is_remainder_bit_for_bit():
    # z − ⌊z⌋ against the specification z % 1.0, compared as raw bits so
    # that −0.0 and +0.0 differ; on a strided view it maps only its rows
    from symvar.principles import _probe_frac

    tiny = np.finfo(float).smallest_subnormal
    z = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 2.0 ** 52, -2.0 ** 52, -1e-17,
         1e-17, 0.5, -0.5, 2.0 ** 52 - 0.5, -2.0 ** 52 + 0.5],
        [tiny, -tiny, 1000 * tiny, -1000 * tiny, np.finfo(float).tiny / 2,
         -np.finfo(float).tiny / 2],
        np.random.default_rng(0).standard_normal(10 ** 5)])
    assert np.array_equal(_probe_frac(z.copy()).view(np.uint64),
                          (z % 1.0).view(np.uint64))
    Z = z[:-4].reshape(-1, 4 * 7)
    M = Z.copy()
    _probe_frac(M[1::4])
    assert np.array_equal(M[1::4].view(np.uint64),
                          (Z[1::4] % 1.0).view(np.uint64))
    assert np.array_equal(np.delete(M, np.s_[1::4], axis=0),
                          np.delete(Z, np.s_[1::4], axis=0))


@pytest.mark.parametrize("dimension,n,p", [(1, 8, 2.0), (1, 16, 2.0),
                                           (1, 16, 1.5), (1, 128, 2.0),
                                           (2, 4, 2.0), (2, 16, 2.0)])
def test_sample_inequality_probe_norms_on_strided_rows(dimension, n, p):
    # the sampler norms its probe offsets through a strided view of the
    # block: every X and V norm of a strided row view has the bits of the
    # same norm of a contiguous copy
    from symvar.funcspace import _norm_V_raw, _norm_X_raw

    g = make_grid(dimension, n, 1.0, p, 4)
    W = np.random.default_rng(n).standard_normal((513, g.n_cells)) * 3.0
    for start, step in ((0, 1), (3, 4), (1, 3), (2, 7)):
        view = W[start::step]
        assert not view.flags.c_contiguous or step == 1
        for norm in (lambda V: _norm_X_raw(V, g.dimension, g.n, g.spacing,
                                           g.cell_measure, g.p),
                     lambda V: _norm_V_raw(V, g.cell_measure, g.p, g.q_V)):
            assert np.array_equal(norm(view).view(np.uint64),
                                  norm(view.copy()).view(np.uint64))


@pytest.mark.parametrize("metric_name", ["X", "V"])
@pytest.mark.parametrize("dimension,n", [(1, 8), (1, 16), (1, 128), (2, 4),
                                         (2, 16)])
def test_sample_inequality_ball_distance_is_sound(dimension, n, metric_name):
    # a ball point is scored at its radius r, which is within
    # 1e-14·(1 + ‖v‖_∞) of its measured distance ‖w − v‖ because the norm
    # is positively homogeneous; a point the cone's or the box's projection
    # moved is scored at its measured distance, which its radius misses
    from symvar.principles import VMetric, sample_inequality

    g = make_grid(dimension, n, 1.0, 2, 4)
    metric = XMetric(g) if metric_name == "X" else VMetric(g)
    v = np.minimum(np.abs(np.random.default_rng(n).standard_normal(
        g.n_cells)), 1.2)
    v[::3] = 0.0  # on the lower face of the cone and of the box
    tol = 1e-14 * (1.0 + np.max(np.abs(v)))

    def scored(radii, domain=None):
        rows, dists = [], []
        sample_inequality(
            lambda W, D: (rows.append(W.copy()) or dists.append(D.copy())
                          or np.zeros(len(W))), g, v, n_samples=1500,
            seed=n, radii=radii, metric_norm=metric.norm, domain=domain)
        W, D = np.concatenate(rows), np.concatenate(dists)
        # no ‖z‖ is 0 and every projected row is in its set: row i is
        # sample i
        assert len(W) == 1500
        ball = np.arange(1500) % 4 < 3
        return W[ball], D[ball], np.tile(radii, 375)

    for r in (1e-4, 0.1):
        radii = (4 * r, r, r / 4)
        W, D, radius = scored(radii)
        assert np.array_equal(D, radius)
        assert np.all(np.abs(D - metric.dist(W, v)) <= tol)
        for domain in (nonneg_cone(g), box_set(g, 0.0, 1.3)):
            W, D, radius = scored(radii, domain)
            measured = metric.dist(W, v)
            assert np.all(np.abs(D - measured) <= tol)
            moved = np.abs(radius - measured) > 1e-3 * radius
            assert moved.sum() >= 100
            assert np.array_equal(D[moved], measured[moved])


def test_sample_inequality_refuses_a_count_below_one(g1d4):
    # a count below 1 draws nothing, so its report would be a vacuous PASS
    from symvar.principles import sample_inequality

    a = sym_center(g1d4, 41)
    f = quad_X(a)
    kw = dict(seed=1, radii=(0.4, 0.1, 0.025), metric_norm=XMetric(g1d4).norm)
    for bad in (0, -5, 2.5, True, "100", None):
        with pytest.raises(InvalidArgument, match="n_samples must be"):
            sample_inequality(lambda W, D: np.zeros(len(W)), g1d4, a.values,
                              n_samples=bad, **kw)
    cert = Certificate(variant="EkelandCore", v=a, sigma=0.1, rho=0.1)
    for bad in (0, -5):
        with pytest.raises(InvalidArgument, match="n_samples must be"):
            verify_certificate(f, cert, bad)
    assert verify_certificate(f, cert, np.int64(1)).n_samples == 1


def test_engines_refuse_a_count_below_one_before_any_descent(g1d4,
                                                            monkeypatch):
    # the count is checked in each sampling engine's prologue, so a bad one
    # costs no inf probe, no Ekeland chain and no other descent
    from symvar import _descent
    from symvar import applications as ap
    from symvar import principles as pr

    def descent(*args, **kwargs):
        raise AssertionError("a descent ran before the count check")

    for mod, name in ((pr, "estimate_inf"), (ap, "estimate_inf"),
                      (_descent, "minimize_multistart")):
        monkeypatch.setattr(mod, name, descent)
    a = sym_center(g1d4, 41)
    f, u0 = quad_X(a), a + g1d4.function([0.1, 0.0, 0.2, 0.0])
    one = g1d4.function(np.ones(4))
    sym = GridFunction(g1d4, np.full(4, 0.5))
    B = ap.Ball(g1d4.function(np.full(4, 4.0)), 1.0, symmetric=True)
    N = ap.SemilinearNonlinearity(g=lambda s: 0.0, G=lambda s: 0.0, a1=1.0,
                                  a2=1.0, b=1.0, p=3.0, name="zero")
    engines = [
        lambda n: ekeland_point(f, whole_space(g1d4), u0, 0.1, 0.1,
                                n_samples=n),
        *(lambda n, v=v: symmetric_ekeland(f, g1d4, u0, 0.1, 0.1, v,
                                           n_samples=n)
          for v in ("I", "II", "III", "IV", "V")),
        lambda n: symmetric_borwein_preiss(f, g1d4, u0, 0.1, 0.1,
                                           n_samples=n),
        lambda n: symmetric_zhong(f, g1d4, u0, 0.1, 0.1, lambda t: t,
                                  n_samples=n),
        lambda n: dgz_check(f, bump_perturbation(g1d4, a, 0.1, delta=1.0),
                            a, 0.1, n_samples=n),
        lambda n: constrained_symmetric_ekeland(f, [], 0, u0, 0.1,
                                                n_samples=n),
        lambda n: path_minimax(f, one, 12, 0.05, n_samples=n),
        lambda n: sqps_sequence(f, g1d4, [0.1], n_samples=n),
        lambda n: ap.quasilinear_experiment(
            ap.forced_dirichlet_integrand(1.0), g1d4, 0.01, n_samples=n),
        lambda n: ap.semilinear_experiment(N, g1d4, [0.1], n_samples=n),
        lambda n: ap.caristi_fixed_point(
            lambda u: GridFunction(g1d4, 0.5 * u.values), f, 0.25, g1d4,
            n_samples=n),
        lambda n: ap.clarke_fixed_point(
            lambda u: GridFunction(g1d4, 0.4 * u.values), 0.4, 0.3, g1d4,
            n_samples=n),
        lambda n: ap.symmetric_drop_point(sym, B, nonneg_cone(g1d4), 0.05,
                                          n_samples=n),
        lambda n: ap.symmetric_petal_point(sym, one, box_set(g1d4, 0.0, 0.6),
                                           0.05, n_samples=n),
    ]
    for engine in engines:
        for bad in (0, -1, 2.5):
            with pytest.raises(InvalidArgument, match="n_samples must be"):
                engine(bad)
    # the patched descent is what a good count reaches
    with pytest.raises(AssertionError, match="descent ran"):
        engines[1](100)


@pytest.mark.parametrize("engine,count", [
    ("sqps_sequence", "q_probes"), ("semilinear_experiment", "q_probes"),
    ("semilinear_experiment", "second_order_samples"),
    ("symmetric_drop_point", "minimality_samples"),
    ("symmetric_petal_point", "minimality_samples")])
def test_engines_refuse_other_counts_below_one_before_any_descent(
        engine, count, g1d4, monkeypatch):
    # a sample count other than n_samples is checked in the prologue too: a
    # count below 1 would score no probe and report a vacuous PASS or bound
    from symvar import _descent
    from symvar import applications as ap
    from symvar import principles as pr

    def descent(*args, **kwargs):
        raise AssertionError("a descent ran before the count check")

    for mod, name in ((pr, "estimate_inf"), (ap, "estimate_inf"),
                      (_descent, "minimize_multistart")):
        monkeypatch.setattr(mod, name, descent)
    a = sym_center(g1d4, 41)
    sym = GridFunction(g1d4, np.full(4, 0.5))
    N = ap.SemilinearNonlinearity(g=lambda s: 0.0, G=lambda s: 0.0, a1=1.0,
                                  a2=1.0, b=1.0, p=3.0, name="zero")
    call = {
        "sqps_sequence": lambda **kw: sqps_sequence(quad_X(a), g1d4, [0.1],
                                                    **kw),
        "semilinear_experiment": lambda **kw: ap.semilinear_experiment(
            N, g1d4, [0.1], **kw),
        "symmetric_drop_point": lambda **kw: ap.symmetric_drop_point(
            sym, ap.Ball(g1d4.function(np.full(4, 4.0)), 1.0, symmetric=True),
            nonneg_cone(g1d4), 0.05, **kw),
        "symmetric_petal_point": lambda **kw: ap.symmetric_petal_point(
            sym, g1d4.function(np.ones(4)), box_set(g1d4, 0.0, 0.6), 0.05,
            **kw),
    }[engine]
    for bad in (0, -3, 2.5, True):
        with pytest.raises(InvalidArgument, match=f"{count} must be"):
            call(**{count: bad})


def test_sample_inequality_prefix_property(g1d4):
    # one stream drawn a block at a time: every run is a prefix of a longer
    # run, so the maximum only rises with n_samples
    from symvar.principles import _deficit, sample_inequality

    a = sym_center(g1d4, 41)
    v = a + g1d4.function([0.05, -0.02, 0.04, 0.1])
    f = quad_X(a)
    cert = Certificate(variant="EkelandCore", v=v, sigma=0.1, rho=0.1)
    metric = XMetric(g1d4)
    # two radii: three sample kinds, which do not divide the block size; the
    # counts straddle the end of the first block of 2**14 / 4 = 4096 rows
    # and reach a partial third
    for radii in ((0.4, 0.1, 0.025), (0.3, 0.05)):
        seen = []
        for n in (1, 100, 4095, 4096, 4097, 8200):
            kw = dict(n_samples=n, seed=9, radii=radii,
                      metric_norm=metric.norm)
            rep = sample_inequality(_deficit(f, cert, metric, f(v)), g1d4,
                                    v.values, **kw)
            assert rep.n_samples == n
            assert (rep.max_violation, None if rep.argmax_w is None else
                    list(rep.argmax_w.values)) == _ref_pair(
                _reference_sample(_scalar_deficit(f, cert, metric, f(v)),
                                  g1d4, v.values, **kw))
            seen.append(rep.max_violation)
        assert seen == sorted(seen) and seen[-1] > 0.0


def test_sample_inequality_ties_and_nan(g1d4):
    # a flat deficit ties everywhere: the first point scored wins, the
    # first extra point when there is one
    from symvar.principles import sample_inequality

    v = np.array([0.3, 0.5, 0.5, 0.3])
    kw = dict(n_samples=1100, seed=4, radii=(0.4, 0.1, 0.025),
              metric_norm=XMetric(g1d4).norm)
    for extra in ([], [np.ones(4), np.zeros(4)]):
        rep = sample_inequality(lambda W, D: np.full(len(W), 0.5), g1d4, v,
                                extra_points=extra, **kw)
        maxv, arg = _reference_sample(lambda w, d: 0.5, g1d4, v,
                                      extra_points=extra, **kw)
        assert rep.max_violation == maxv == 0.5
        assert np.array_equal(rep.argmax_w.values, arg)
    assert np.array_equal(rep.argmax_w.values, np.ones(4))
    # a NaN deficit never wins, and does not hide the other rows
    rep = sample_inequality(
        lambda W, D: np.where(W[:, 0] > 0.3, np.nan, W[:, 1]), g1d4, v, **kw)
    maxv, arg = _reference_sample(
        lambda w, d: np.nan if w[0] > 0.3 else w[1], g1d4, v, **kw)
    assert rep.max_violation == maxv > 0.0
    assert np.array_equal(rep.argmax_w.values, arg)


def test_sample_inequality_norms_no_distance_a_deficit_ignores(g1d8):
    # _deficit marks the SymBP and DGZ deficits, which ignore D; for a
    # marked deficit the sampler norms only the ball rows (to place them)
    # and hands NaN for the probes, the extra points and the moved rows,
    # with every point and the winner as for the unmarked deficit
    from types import SimpleNamespace

    from symvar.principles import _deficit, sample_inequality

    u = _sym_dec(g1d8, 2)
    f, metric = quad_X(u), XMetric(g1d8)
    marks = {}
    for variant in ("SymBP", "DGZCheck", "SymEkelandI"):
        cert = SimpleNamespace(variant=variant, v=u, eta=u, sigma=0.1,
                               p_exp=2.0, extras={})
        marks[variant] = getattr(_deficit(f, cert, metric, f(u), f),
                                 "_ignores_dist", False)
    assert marks == {"SymBP": True, "DGZCheck": True, "SymEkelandI": False}

    def run(mark):
        rows, dists, normed = [], [], []

        def deficit(W, D):
            rows.append(W.copy())
            dists.append(D.copy())
            return np.sin(7.0 * W[:, 0] + W[:, 3])

        if mark:
            deficit._ignores_dist = True

        def norm(B):
            normed.append(len(B))
            return metric.norm(B)

        rep = sample_inequality(
            deficit, g1d8, u.values, n_samples=1500, seed=5,
            radii=(0.4, 0.1, 0.025), metric_norm=norm,
            domain=box_set(g1d8, -3.0, 3.0),
            extra_points=[np.ones(8), np.full(8, 9.0)])
        return rep, np.concatenate(rows), np.concatenate(dists), sum(normed)

    rep, W, D, normed = run(False)
    rep_m, W_m, D_m, normed_m = run(True)
    assert rep.max_violation == rep_m.max_violation > 0.0
    assert np.array_equal(rep.argmax_w.values, rep_m.argmax_w.values)
    assert np.array_equal(W, W_m)
    kept = ~np.isnan(D_m)
    assert np.array_equal(D[kept], D_m[kept]) and not np.isnan(D).any()
    assert 0 < kept.sum() < len(D_m)
    assert normed_m == 1125 < normed     # the ball rows, 3 of each 4


# ---------------------------------------------------------------------------
# the sampler's draw-ahead: next block of normals on a worker thread

def _serial_blocks(rng, n_samples, rows, shape):
    """The serial loop that principles._normal_blocks replaces."""
    for start in range(0, n_samples, rows):
        yield start, rng.standard_normal((min(rows, n_samples - start),)
                                         + shape)


class _Boom(Exception):
    pass


class _Drawing:
    """Draws from ``rng`` and records the thread of each draw; draw
    number ``fail_at`` (from 1) raises, and every draw after the first
    waits ``delay`` seconds first."""

    def __init__(self, rng, fail_at=None, delay=0.0):
        self.rng = rng
        self.fail_at = fail_at
        self.delay = delay
        self.threads = []

    def standard_normal(self, size):
        self.threads.append(threading.current_thread())
        if len(self.threads) > 1:
            time.sleep(self.delay)
        if len(self.threads) == self.fail_at:
            raise _Boom(f"draw {self.fail_at}")
        return self.rng.standard_normal(size)


def _draw_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("symvar-draw")]


def _assert_no_draw_pending(rng):
    # a draw still pending on the worker would move the generator's state
    state = rng.bit_generator.state
    time.sleep(0.01)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [4, 128])
@pytest.mark.parametrize("full,extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                        (3, 5)])
def test_sample_inequality_normal_blocks_are_one_serial_stream(n, full,
                                                               extra):
    # for n_samples = full·rows + extra on the sampler's block size, the
    # blocks, their starts and the generator's state afterwards are those
    # of one serial standard_normal draw
    from symvar.principles import (_SAMPLE_BLOCK, _SAMPLE_VALUES,
                                   _normal_blocks)

    rows = max(_SAMPLE_BLOCK, _SAMPLE_VALUES // n)
    n_samples = full * rows + extra
    rng = np.random.default_rng(31)
    blocks = list(_normal_blocks(rng, n_samples, rows, (n,)))
    _assert_no_draw_pending(rng)
    starts = list(range(0, n_samples, rows))
    assert [start for start, _ in blocks] == starts
    assert [Z.shape for _, Z in blocks] == [
        (min(rows, n_samples - start), n) for start in starts]
    ref = np.random.default_rng(31)
    assert np.array_equal(np.concatenate([Z for _, Z in blocks]),
                          ref.standard_normal((n_samples, n)))
    assert rng.integers(2 ** 31) == ref.integers(2 ** 31)


def test_sample_inequality_normal_blocks_stop_on_close(g1d4):
    # closed after its first block, the iterator has cancelled or finished
    # its one pending draw, of the second block, in stream order; nothing
    # draws from the generator after close() returns
    from symvar.principles import _normal_blocks

    for _ in range(20):
        rng = np.random.default_rng(7)
        blocks = _normal_blocks(rng, 100, 10, (4,))
        start, Z = next(blocks)
        assert start == 0
        blocks.close()
        _assert_no_draw_pending(rng)
        ref = np.random.default_rng(7).standard_normal((100, 4))
        assert np.array_equal(Z, ref[:10])
        ahead = rng.standard_normal((1, 4))[0]
        assert any(np.array_equal(ahead, ref[k]) for k in (10, 20))


def test_sample_inequality_normal_blocks_share_one_worker():
    # 50 calls that run to the end, are closed after the first block, whose
    # consumer raises or whose draw raises: every draw after a first block
    # ran on one long-lived thread, the only live drawing thread, and no
    # draw is pending once a call returns or raises (each worker draw takes
    # 3 ms, so one left running would still be drawing)
    from symvar.principles import _normal_blocks

    drawn_on = set()
    for k in range(50):
        kind = k % 4
        rng = _Drawing(np.random.default_rng(k),
                       fail_at=3 if kind == 3 else None, delay=0.003)
        blocks = _normal_blocks(rng, 40, 10, (4,))
        if kind == 0:
            assert sum(len(Z) for _, Z in blocks) == 40
        elif kind == 1:
            with closing(blocks):
                next(blocks)
        elif kind == 2:
            with pytest.raises(_Boom, match="consumer"), closing(blocks):
                for start, _ in blocks:
                    if start == 20:
                        raise _Boom("consumer")
        else:
            with pytest.raises(_Boom, match="draw 3"), closing(blocks):
                list(blocks)
        _assert_no_draw_pending(rng.rng)
        assert rng.threads[0] is threading.current_thread()
        drawn_on.update(rng.threads[1:])
        assert len(_draw_threads()) <= 1
    assert len(drawn_on) == 1 and drawn_on == set(_draw_threads())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sample_inequality_normal_blocks_in_a_forked_child():
    # a child forked after the parent's worker ran draws on a fresh one:
    # it exits 0 only if its blocks are the serial stream's; on the
    # parent's executor its first submit would never complete, and the
    # alarm ends it
    from symvar.principles import _normal_blocks

    def blocks(make):
        return list(make(np.random.default_rng(5), 100, 10, (4,)))

    assert len(blocks(_normal_blocks)) == 10
    assert _draw_threads()
    pid = os.fork()
    if pid == 0:  # the child: leave only through os._exit
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(10)
            got, ref = blocks(_normal_blocks), blocks(_serial_blocks)
            code = int(not (
                [s for s, _ in got] == [s for s, _ in ref]
                and all(np.array_equal(Z, R)
                        for (_, Z), (_, R) in zip(got, ref))))
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_sample_inequality_deficit_raising_in_a_later_block(g1d4,
                                                            monkeypatch):
    # a deficit raising on the second block propagates its error, and no
    # draw is pending once the sampler has raised
    from symvar.principles import _SAMPLE_VALUES, sample_inequality

    rows = _SAMPLE_VALUES // 4
    calls, made = [], []
    real = np.random.default_rng

    def deficit(W, D):
        calls.append(len(W))
        if len(calls) == 2:
            raise _Boom("second block")
        return np.zeros(len(W))

    def recording_rng(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    with pytest.raises(_Boom, match="second block"):
        sample_inequality(deficit, g1d4, np.zeros(4), n_samples=3 * rows + 5,
                          seed=2, radii=(0.4, 0.1, 0.025),
                          metric_norm=XMetric(g1d4).norm)
    assert calls == [rows, rows]
    (rng,) = made
    _assert_no_draw_pending(rng)


def test_sample_inequality_draw_failing_on_the_worker(g1d4, monkeypatch):
    # the caller draws the first block, the worker every later one; a
    # draw raising on the worker raises in the caller, and no draw is
    # pending once it has
    from symvar.principles import _SAMPLE_VALUES, sample_inequality

    made = []
    real = np.random.default_rng

    def failing(seed):
        made.append(_Drawing(real(seed), fail_at=2))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", failing)
    with pytest.raises(_Boom, match="draw 2"):
        sample_inequality(lambda W, D: np.zeros(len(W)), g1d4, np.zeros(4),
                          n_samples=3 * _SAMPLE_VALUES // 4, seed=2,
                          radii=(0.4, 0.1, 0.025),
                          metric_norm=XMetric(g1d4).norm)
    (rng,) = made
    _assert_no_draw_pending(rng.rng)
    drawn_on = rng.threads
    assert len(drawn_on) == 2
    assert drawn_on[0] is threading.main_thread()
    assert drawn_on[1] is not threading.main_thread()


def test_path_minimax_samples_through_sample_inequality(g1d2, monkeypatch):
    # the path certificate's sampled inequality over three blocks of paths
    # is sample_inequality's: the report's seed is the one it draws with,
    # the report equals the per-sample loop's over flattened paths, with
    # the winning path's top node as its witness, and the certificate bytes
    # are those of the serial loop; on a seed with no positive deficit and
    # on one with a positive deficit
    from symvar import principles

    f, eps, n, m = _radial_double_well(g1d2), 0.05, 1600, 12
    metric = XMetric(g1d2)
    real = principles._normal_blocks
    for seed in (1, 5):
        starts = []

        def recording(rng, n_samples, rows, shape):
            starts.append((rng.bit_generator.state, n_samples > 2 * rows))
            return real(rng, n_samples, rows, shape)

        def run():
            return path_minimax(f, _unit_sym(g1d2), m, eps, seed=seed,
                                n_samples=n)

        monkeypatch.setattr(principles, "_normal_blocks", recording)
        cert = run()
        assert len(_draw_threads()) <= 1
        report = cert.violation
        assert starts == [
            (np.random.default_rng(report.seed).bit_generator.state, True)]
        monkeypatch.setattr(principles, "_normal_blocks", _serial_blocks)
        assert run().to_json_bytes() == cert.to_json_bytes()

        nodes = np.array(cert.extras["path"])

        def with_ends(w):
            return np.vstack([nodes[0], w.reshape(m - 1, -1), nodes[-1]])

        def node_values(w):
            return [f(g1d2.function(x)) for x in with_ends(w)]

        fu = f(cert.v)
        worst, arg = _reference_sample(
            lambda w, dist: fu - eps * dist - max(node_values(w)), g1d2,
            nodes[1:-1].ravel(), n_samples=n, seed=report.seed,
            radii=(4 * eps, eps, eps / 4),
            metric_norm=lambda z: metric.norm(z.reshape(m - 1, -1)).max())
        assert (report.n_samples, report.max_violation) == (n, worst)
        if arg is None:
            assert seed == 1 and report.argmax_w is None
        else:
            assert seed == 5 and worst > cert.slack
            top = with_ends(arg)[int(np.argmax(node_values(arg)))]
            assert np.array_equal(report.argmax_w.values, top)


def _ref_pair(maxv_arg):
    maxv, arg = maxv_arg
    return maxv, None if arg is None else list(arg)


def test_stability_modulus_scores_each_sample_once(g1d4):
    # the per-δ table of variant IV equals the loop that re-evaluated every
    # sample once per δ, each sample built alone from the sampler's own
    # draws (every z, then every radius), with f evaluated once per sample
    from symvar.cli import FUNCTIONALS
    from symvar.principles import _stability_modulus

    a = sym_center(g1d4, 42)
    v = a + g1d4.function([0.01, 0.0, 0.02, 0.0])
    metric = XMetric(g1d4)
    sigma, rho = 0.1, 0.2
    for f in (quad_X(a), FUNCTIONALS["quadratic"].build(g1d4, {"center": a})):
        fv = f(v)
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((400, 4))
        samples = [v.values + r * z / metric.norm(z)
                   for z, r in zip(Z, rng.uniform(0, 4 * rho, 400))]
        expected = []
        for d in (sigma * rho, sigma * rho / 4, sigma * rho / 16,
                  sigma * rho / 64):
            worst = 0.0
            for w in samples:
                val = f(GridFunction(g1d4, w)) + sigma * metric.dist(w, v.values)
                if val <= fv + d:
                    worst = max(worst, metric.dist(w, v.values))
            expected.append([float(d), float(worst)])
        calls = Counter()
        counted = Functional(eval=lambda u: calls.update("f") or f(u),
                             eval_batch=f.eval_batch)
        table = _stability_modulus(counted, g1d4, v.values, fv, sigma, metric,
                                   np.random.default_rng(3), rho=rho)
        assert table == expected
        assert any(w > 0.0 for _, w in table)
        assert calls["f"] == (0 if f.eval_batch else 400)


def test_radial_draws_have_radii_in_range_and_X_unit_directions(g2d4):
    # the SQPS q-probes and variant IV's modulus: rows c·z/‖z‖_X, c uniform
    # in [lo, hi), directions X-unit and spread over every axis
    from symvar.principles import _radial_draws

    metric = XMetric(g2d4)
    R = _radial_draws(np.random.default_rng(9), metric, g2d4.n_cells, 2000,
                      0.25, 2.0)
    radii = metric.norm(R)
    assert R.shape == (2000, g2d4.n_cells)
    assert np.all((radii >= 0.25 * (1 - 1e-12)) & (radii <= 2.0))
    assert np.histogram(radii, bins=8, range=(0.25 * (1 - 1e-12), 2.0))[
        0].min() > 150
    U = R / radii[:, None]
    assert np.allclose(metric.norm(U), 1.0, rtol=1e-12, atol=0)
    assert np.all(np.abs(U.mean(axis=0)) < 0.1 * np.abs(U).mean(axis=0))


def test_dgz_probes_and_their_partners_keep_their_distributions(g1d4):
    # half the probes (rounded up) lie at X-distance in [0, 4) from v, the
    # rest in the box of half-width max(1, 2·max|v|) around v; each
    # finite-difference partner lies at X-distance 1e-6 from its probe
    a = sym_center(g1d4, 41)
    seen = []

    def g_rows(W):
        seen.append(np.array(W))
        return np.zeros(len(W))

    g = Functional(eval=lambda u: 0.0, eval_batch=g_rows)
    cert = dgz_check(quad_X(a), g, a, 0.1, seed=3, n_samples=2010)
    assert cert.status == "PASS"
    metric = XMetric(g1d4)
    W, partners = seen[0], seen[1]
    assert W.shape == (201, 4) and partners.shape == W.shape
    d = metric.norm(W[:101] - a.values)
    assert 3.5 < d.max() < 4.0
    width = max(1.0, 2.0 * np.max(np.abs(a.values)))
    box = np.abs(W[101:] - a.values)
    assert box.max() <= width and box.max() > 0.9 * width
    assert np.allclose(metric.norm(partners - W), 1e-6, rtol=1e-6, atol=0)


def test_polarized_draws_take_nonnegative_rows_and_family_polarizers(g2d4):
    # u = |z| row by row, and every H is one of the grid's registered
    # polarizers, each drawn
    from symvar.principles import _polarized_draws

    fam = g2d4.polarizers
    U, Hs = _polarized_draws(g2d4, 5, 40 * len(fam))
    assert U.shape == (40 * len(fam), g2d4.n_cells) and np.all(U >= 0)
    assert {id(H) for H in Hs} == {id(P) for P in fam}


# ---------------------------------------------------------------------------
# theorem inputs that only tests set: the domain and g of verify_certificate,
# the Γ-sequence of variant III and the domain of the Zhong engine

def _tilted_norm(space, c=10.0):
    """f(u) = ‖u‖²_X + c·Σu: polarization keeps ‖u‖_X from growing and Σu
    fixed; for c > 0 the minimizer is negative, so over the cone S the
    minimum is f(0) = 0."""
    gram = gram_matrix(space)
    return Functional(
        eval=lambda u: float(u.values @ gram @ u.values)
        + c * float(np.sum(u.values)),
        gradient=lambda W: np.matmul(gram, (2.0 * W)[..., None])[..., 0] + c,
        symmetry_class="polarization-nonincreasing", name="tilted")


def test_verify_certificate_restores_the_cone_domain(g1d4):
    f = _tilted_norm(g1d4)
    cone = nonneg_cone(g1d4)
    cert = symmetric_ekeland(f, g1d4, g1d4.zeros(), 0.1, 0.1, variant="I",
                             domain=cone, seed=1, n_samples=500)
    assert cert.status == "PASS"
    assert np.array_equal(cert.v.values, np.zeros(4))
    rep = verify_certificate(f, cert, 1000, domain=cone, seed=5)
    assert rep.max_violation <= cert.slack
    # without the domain the quantifier runs over the whole space, where
    # f falls below f(v) − σ‖w − v‖ off the cone
    assert verify_certificate(f, cert, 1000, seed=5).max_violation > 1.0


def test_verify_certificate_takes_the_dgz_perturbation(g1d4):
    a = sym_center(g1d4, 15)
    f = quad_X(a)
    bump = bump_perturbation(g1d4, a, 0.25, delta=1.0)
    cert = dgz_check(f, bump, a, 0.25, seed=1, n_samples=500)
    assert cert.status == "PASS"
    rep = verify_certificate(f, cert, 1000, g=bump, seed=3)
    assert rep.max_violation <= cert.slack
    assert rep == verify_certificate(f, cert, 1000, g=bump, seed=3)
    with pytest.raises(AssumptionViolated):
        verify_certificate(f, cert, 100, seed=3)


def test_dgz_check_records_the_start_distance(g1d4):
    a = sym_center(g1d4, 29)
    f = quad_X(a)
    bump = bump_perturbation(g1d4, a, 0.25, delta=1.0)
    u0 = theta(a + g1d4.function([0.02, 0.0, -0.01, 0.0]))
    cert = dgz_check(f, bump, a, 0.25, u0=u0, seed=1, n_samples=500)
    assert cert.status == "PASS"
    value, bound = cert.measured["‖v-u‖"]
    assert value == pytest.approx(norm_X(a - u0), rel=1e-12)
    assert bound >= 0.25
    assert "‖v-u‖" not in dgz_check(f, bump, a, 0.25, seed=1,
                                    n_samples=100).measured


def test_symmetric_ekeland_variant_III_gamma_sequence(g1d4):
    # f_h = (1 + 2^-h)·‖u − a‖²_X Γ-converges to f; the engine runs on f_h
    # at h = h0 from the recovery point of u0
    a = sym_center(g1d4, 15)
    f = quad_X(a)

    def f_h(h):
        return Functional(eval=lambda u: (1 + 2.0 ** -h) * f(u),
                          gradient=lambda W: (1 + 2.0 ** -h) * f.gradient(W),
                          symmetry_class="polarization-nonincreasing",
                          lower_bound=0.0, name=f"f_{h}")

    recovered = []

    def recovery(u, h):
        recovered.append(h)
        return u

    cert = symmetric_ekeland(f, g1d4, a, 0.2, 0.2, variant="III",
                             gamma_sequence=([f_h(h) for h in range(4)],
                                             recovery), h0=2, seed=7,
                             n_samples=500)
    assert cert.status == "PASS"
    assert recovered == [2]
    assert cert.extras["constants"]["h"] == 2
    assert cert.measured["|f(v)-inf_est|"][0] <= 0.2 * 0.2


def test_symmetric_zhong_on_the_cone(g1d4):
    f = _tilted_norm(g1d4)
    cert = symmetric_zhong(f, g1d4, g1d4.zeros(), 0.1, 0.1, lambda s: s,
                           domain=nonneg_cone(g1d4), seed=1, n_samples=500)
    assert cert.status == "PASS"
    assert np.all(cert.v.values >= 0.0)
    assert cert.violation.max_violation == 0.0
    # on the whole space the start is far above inf f
    with pytest.raises(BadStart):
        symmetric_zhong(f, g1d4, g1d4.zeros(), 0.1, 0.1, lambda s: s,
                        seed=1, n_samples=500)


# ---------------------------------------------------------------------------
# block gradients in the descent

def _column_hessian(grad, x, idx):
    # the column loop the block Hessian replaced: two gradient calls per
    # coordinate in idx
    from symvar import _descent

    h = _descent._FD_STEP * (1.0 + float(np.max(np.abs(x))))
    H = np.empty((len(idx), len(idx)))
    for c, j in enumerate(idx):
        e = np.zeros(len(x))
        e[j] = h
        H[:, c] = ((grad(x + e) - grad(x - e)) / (2.0 * h))[idx]
    return 0.5 * (H + H.T)


def test_block_hessian_equals_column_loop(g1d8, g2d4, monkeypatch):
    from symvar import _descent
    from symvar import applications as ap
    from symvar.principles import _f_arr

    rng = np.random.default_rng(12)
    for g in (g1d8, g2d4):
        cubic = ap.SemilinearNonlinearity(
            g=lambda s: s * s * s, G=lambda s: 0.25 * (s * s) * (s * s),
            a1=0.0, a2=0.0, b=3.0, p=4.0)
        fs_ = [ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.5), g),
               ap.semilinear_functional(cubic, g), double_well(g)]
        for f in fs_:
            fun, grad = _f_arr(f, g), f.gradient
            x = 0.4 * rng.standard_normal(g.n_cells)
            every = np.arange(g.n_cells)
            some = np.flatnonzero(rng.random(g.n_cells) < 0.5)
            for idx in (every, some):
                assert np.array_equal(_descent._fd_hessian(grad, x, idx),
                                      _column_hessian(grad, x, idx)), f.name
            lo, hi = -0.3 * np.ones(g.n_cells), 0.3 * np.ones(g.n_cells)
            xb = np.clip(x, lo, hi)
            block = (_descent.newton_rows(fun, grad, [x], [fun(x)]),
                     _descent.newton_rows(fun, grad, [xb], [fun(xb)], lo, hi))
            built = []

            def column(grad_, x_, idx_):
                built.append(len(idx_))
                return _column_hessian(grad_, x_, idx_)

            with monkeypatch.context() as m:
                m.setattr(_descent, "_fd_hessian", column)
                loop = (_descent.newton_rows(fun, grad, [x], [fun(x)]),
                        _descent.newton_rows(fun, grad, [xb], [fun(xb)],
                                             lo, hi))
            assert built, f.name
            for (xa, fa, ea), (xc, fc, ec) in zip(block, loop):
                assert ea == ec == {}, f.name
                assert np.array_equal(xa[0], xc[0]) and fa[0] == fc[0], f.name


def test_descent_makes_no_riesz_solve(g1d8, monkeypatch):
    # a functional that declares its Euclidean gradient is descended without
    # one Riesz solve; the spy does see the Riesz helper's one solve, for one
    # vector and for a whole block of rows
    from symvar import applications as ap
    from symvar import funcspace
    from symvar.principles import estimate_inf

    calls = []
    real = funcspace.riesz_from_euclidean

    def spy(space, g):
        calls.append(np.shape(g))
        return real(space, g)

    monkeypatch.setattr(funcspace, "riesz_from_euclidean", spy)
    monkeypatch.setattr(ap, "riesz_from_euclidean", spy)
    f = ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.5), g1d8)
    estimate_inf(f, g1d8, whole_space(g1d8), np.random.default_rng(0))
    assert calls == []
    funcspace._riesz_gradient(f, g1d8, np.zeros(8))
    funcspace._riesz_gradient(f, g1d8, np.ones((3, 8)))
    assert calls == [(8,), (8, 3)]


def _broken_gradient(bad):
    """(error, broken): ``broken(f)`` is f with a gradient that returns NaN
    (bad = "nan") or one column too many (bad = "shape"), and ``error`` the
    error a GridFunction built from such values raises."""
    from symvar.errors import SpaceMismatch

    if bad == "nan":
        error = InvalidArgument

        def grad(W):
            return np.full(np.shape(W), np.nan)
    else:
        error = SpaceMismatch

        def grad(W):
            return np.zeros(np.shape(W)[:-1] + (np.shape(W)[-1] + 1,))

    def broken(f):
        return Functional(eval=f.eval, gradient=grad, name="broken",
                          symmetry_class=f.symmetry_class,
                          lower_bound=f.lower_bound)

    return error, broken


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_every_riesz_reader_checks_the_declared_gradient(g1d2, g1d4, bad):
    # a gradient that returns NaN raises InvalidArgument, and one of the
    # wrong shape SpaceMismatch, as a GridFunction built from it would
    error, broken = _broken_gradient(bad)
    a = sym_center(g1d4, 29)
    runs = [
        lambda: strong_slope(broken(quad_X(a)), a + g1d4.function(
            [0.1, 0.0, 0.0, 0.0]), n_samples=8),
        lambda: dgz_check(quad_X(a), broken(bump_perturbation(g1d4, a, 0.25,
                                                              1.0)),
                          a, 0.25, seed=1, n_samples=200),
        lambda: path_minimax(broken(_radial_double_well(g1d2)),
                             _unit_sym(g1d2), 8, 0.05, seed=1, n_samples=100),
        lambda: constrained_symmetric_ekeland(
            quad_X(g1d2.zeros()), [broken(_l2_sphere(g1d2))], 1,
            g1d2.function([1.0, 1.0]), 0.05, seed=0, n_samples=100)]
    for run in runs:
        with pytest.raises(error, match="gradient of broken"):
            run()


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_the_descent_checks_the_declared_gradient(g1d4, bad):
    # the multi-start descent reads the gradient as the Riesz readers do:
    # a NaN one raises InvalidArgument and one of the wrong shape
    # SpaceMismatch, not numpy's ValueError
    from symvar.principles import estimate_inf

    error, broken = _broken_gradient(bad)
    a = sym_center(g1d4, 29)
    f = broken(quad_X(a))
    u0 = a + g1d4.function([0.1, 0.0, 0.2, 0.0])
    runs = [lambda: estimate_inf(f, g1d4, whole_space(g1d4), 3),
            lambda: estimate_inf(f, g1d4, nonneg_cone(g1d4), 3),
            lambda: symmetric_ekeland(f, g1d4, u0, 0.1, 0.1, "II", seed=3,
                                      n_samples=100)]
    for run in runs:
        with pytest.raises(error, match="gradient of broken"):
            run()


def test_penalty_grad_rows_equal_single_calls(g1d8, g2d4):
    rng = np.random.default_rng(13)
    for g in (g1d8, g2d4):
        metric, gram = XMetric(g), gram_matrix(g)
        c = rng.standard_normal(g.n_cells)
        W = c + rng.standard_normal((20, g.n_cells)) \
            * rng.uniform(1e-3, 1e2, (20, 1))
        W[3] = c                          # at the center: zero gradient
        P = metric.penalty_grad(W, c)
        assert P.shape == W.shape
        for w, pg in zip(W, P):
            assert np.array_equal(pg, metric.penalty_grad(w, c))
        assert not P[3].any()
        w = W[0]
        assert np.array_equal(metric.penalty_grad(w, c),
                              gram @ (w - c) / metric.norm(w - c))


# ---------------------------------------------------------------------------
# argument checks, guards and rare branches of the engines

@pytest.mark.parametrize("sigma", [0.0, float("nan"), True])
def test_ekeland_point_checks_sigma_like_every_engine(g1d4, sigma):
    # σ = 0 from the minimizer used to divide by zero in the location
    # slack, NaN to surface as a GridFunction error, True to be accepted
    a = _sym_dec(g1d4, 1)
    with pytest.raises(InvalidArgument, match="sigma must be a finite "
                                              "positive number"):
        ekeland_point(quad_X(a), whole_space(g1d4), a, sigma, 0.1)


def test_ekeland_point_checks_rho(g1d4):
    a = _sym_dec(g1d4, 1)
    with pytest.raises(InvalidArgument, match="rho must be a finite positive"):
        ekeland_point(quad_X(a), whole_space(g1d4), a, 0.1, 0.0)


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_dgz_check_refuses_eps_not_positive(g1d4, eps):
    # a bound of ε ≤ 0 used to come back as a FAILED certificate
    a = sym_center(g1d4, 41)
    with pytest.raises(InvalidArgument, match="eps must be a finite positive"):
        dgz_check(quad_X(a), bump_perturbation(g1d4, a, 0.1, 1.0), a, eps)


def test_estimate_inf_refuses_a_false_lower_bound(g1d4):
    f = Functional(eval=lambda u: float(u.values @ u.values),
                   lower_bound=1.0, name="false_bound")
    with pytest.raises(AssumptionViolated, match="below the declared lower"):
        estimate_inf(f, g1d4, whole_space(g1d4), 0)


def test_sample_inequality_skips_a_block_the_domain_empties(g1d4):
    # the domain keeps the extra point only: the sampled block it empties
    # is skipped and the deficit scores the extra point alone
    from symvar.principles import SetOracle, sample_inequality

    e = np.full(4, 0.5)
    blocks = []

    def deficit(W, D):
        blocks.append(W.copy())
        return np.ones(len(W))

    only_e = SetOracle(contains=lambda v: bool(np.array_equal(v, e)),
                       project=lambda v: v)
    rep = sample_inequality(deficit, g1d4, np.zeros(4), n_samples=300,
                            seed=0, radii=(0.1,),
                            metric_norm=XMetric(g1d4).norm, domain=only_e,
                            extra_points=[e])
    assert len(blocks) == 1 and np.array_equal(blocks[0], [e])
    assert rep.max_violation == 1.0
    assert np.array_equal(rep.argmax_w.values, e)


def test_sample_inequality_refuses_a_domain_that_keeps_no_point(g1d4):
    # no sampled point lies in the domain: a report would be a 300-sample
    # PASS on no evidence, so the sampler raises and names the domain
    from symvar.principles import SetOracle, sample_inequality

    def deficit(W, D):
        raise AssertionError("the deficit scored an empty block")

    empty = SetOracle(contains=lambda v: False, project=lambda v: v,
                      description="nowhere")
    with pytest.raises(AssumptionViolated,
                       match="domain nowhere kept none of the 300"):
        sample_inequality(deficit, g1d4, np.zeros(4), n_samples=300, seed=0,
                          radii=(0.1,), metric_norm=XMetric(g1d4).norm,
                          domain=empty)


def test_check_symmetry_without_polarizers_evaluates_nothing():
    # a one-cell grid (built field by field: make_grid takes even n only)
    # registers no polarizer, so there is nothing to sample
    from symvar import GridSpace
    from symvar.principles import check_symmetry

    bare = GridSpace(dimension=1, n=1, radius=1.0, p=2.0, q_V=8.0, q_W=4.0,
                     cells=np.zeros((1, 1)), lattice=np.zeros((1, 1), int),
                     spacing=2.0, cell_measure=2.0, K=1.0)
    assert bare.polarizers == ()

    def ev(u):
        raise AssertionError("f was evaluated")

    assert check_symmetry(Functional(eval=ev, name="never"), bare, 0) is None


def test_ekeland_chain_refuses_a_start_outside_the_domain(g1d4):
    # a domain whose projection misses it: f is +inf at the start
    from symvar import OutsideDomain
    from symvar.principles import SetOracle

    nowhere = SetOracle(contains=lambda v: False, project=lambda v: v)
    with pytest.raises(OutsideDomain, match="f\\(u0\\) is not finite"):
        _ekeland_chain(quad_X(g1d4.zeros()), g1d4, nowhere, np.ones(4), 0.1,
                       XMetric(g1d4), np.random.default_rng(0),
                       anchor_vals=np.zeros(4), trust=1.0)


def test_symmetric_ekeland_refuses_an_unknown_variant(g1d4):
    a = sym_center(g1d4, 31)
    with pytest.raises(InvalidArgument, match="unknown variant 'VI'"):
        symmetric_ekeland(quad_X(a), g1d4, a, 0.1, 0.1, variant="VI")


def test_variant_III_checks_its_points(g1d4):
    a = sym_center(g1d4, 15)
    f = quad_X(a)
    with pytest.raises(AssumptionViolated, match="needs Y or a gamma"):
        symmetric_ekeland(f, g1d4, a, 0.2, 0.2, variant="III")
    with pytest.raises(NotSymmetricInput, match="Y must lie inside"):
        symmetric_ekeland(f, g1d4, a, 0.2, 0.2, variant="III",
                          Y=[g1d4.function([1.0, 0.0, 0.0, 0.0])])
    with pytest.raises(AssumptionViolated, match="recovery sequence"):
        symmetric_ekeland(f, g1d4, a, 0.2, 0.2, variant="III",
                          gamma_sequence=([f], lambda u, h: -1.0 * u), h0=0)


def test_variant_III_gamma_sequence_with_points_bounds_the_drift(g1d4):
    # the recovery point sits off Y by a constant shift, which T_ρ keeps
    # fixed: d(v, Y) is bounded by ρ plus the shift's X norm
    a = sym_center(g1d4, 15)
    f = quad_X(a)
    shift = g1d4.function(np.full(4, 0.05))
    cert = symmetric_ekeland(f, g1d4, a, 0.2, 0.2, variant="III", Y=[a],
                             gamma_sequence=([f], lambda u, h: u + shift),
                             h0=0, seed=7, n_samples=500)
    assert cert.status == "PASS"
    value, bound = cert.measured["d(v,Y)"]
    assert bound == pytest.approx(0.2 + norm_X(shift), rel=1e-12)
    assert value <= bound


def _bp_descent_patch(monkeypatch, move):
    """Route the Borwein-Preiss inner minimization (its four starts) to
    ``move(eta)``; the inf probe's descent runs as it is."""
    from symvar import _descent

    real = _descent.minimize_multistart

    def patched(fun, grad, starts, **kw):
        if len(starts) != 4:
            return real(fun, grad, starts, **kw)
        x = move(np.asarray(starts[0], float))
        return x, float(fun(x)), [float(fun(x))] * 4

    monkeypatch.setattr(_descent, "minimize_multistart", patched)


def test_bp_center_loop_that_never_settles_is_typed(g1d4, monkeypatch):
    from symvar import ConvergenceFailure

    _bp_descent_patch(monkeypatch, lambda eta: eta + 1.0)
    a = sym_center(g1d4, 21)
    with pytest.raises(ConvergenceFailure, match="did not settle") as exc:
        symmetric_borwein_preiss(quad_X(a), g1d4, a, 0.1, 0.1, seed=0,
                                 n_samples=200)
    assert isinstance(exc.value.best, GridFunction)


def test_bp_inner_minimizer_above_the_gap_is_typed(g1d4, monkeypatch):
    # the inner minimizer lands within ρ/2 of η but above inf + σρ²
    from symvar import ConvergenceFailure

    _bp_descent_patch(monkeypatch, lambda eta: eta + 0.02)
    a = sym_center(g1d4, 21)
    with pytest.raises(ConvergenceFailure, match="stalled above") as exc:
        symmetric_borwein_preiss(quad_X(a), g1d4, a, 0.1, 0.1, seed=0,
                                 n_samples=200)
    assert exc.value.residual > 0


def test_constrained_refuses_dependent_saturated_constraints(g1d2):
    f = quad_X(g1d2.zeros())
    u0 = g1d2.function(np.full(2, 1.0 / np.sqrt(2 * g1d2.cell_measure)))
    with pytest.raises(ConstraintDegeneracy, match="numerically dependent"):
        constrained_symmetric_ekeland(f, [_l2_sphere(g1d2)] * 2, 2, u0, 0.05,
                                      seed=0, n_samples=200)


def test_constrained_with_no_saturated_constraint_reports_the_slope(g1d2):
    # an inequality that never binds: no multiplier, and the residual is
    # the X norm of f's Riesz gradient 2(v − a), nonzero at this start
    a = g1d2.function([0.3, 0.3])
    m = g1d2.cell_measure
    loose = Functional(eval=lambda u: 16.0 - m * float(u.values @ u.values),
                       gradient=lambda W: -2.0 * m * W, name="loose")
    cert = constrained_symmetric_ekeland(quad_X(a), [loose], 0,
                                         g1d2.function([0.31, 0.31]), 0.05,
                                         seed=0, n_samples=300)
    assert cert.status == "PASS"
    assert cert.extras["saturated"] == []
    assert cert.extras["multipliers"] == [0.0]
    resid = cert.measured["‖df-Σλ·dG‖_X'"][0]
    assert resid > 0.01
    assert resid == pytest.approx(2.0 * norm_X(cert.v - a), rel=1e-12)


def test_sqps_projects_a_start_outside_its_domain(g1d4):
    # f = m·Σ(u_i − 1/2)² on the box [−0.15, 0.15]: the minimizing sequence
    # sits at 1/2, outside the box, and each step starts from its
    # projection 0.15, the minimizer on the box
    m = g1d4.cell_measure
    f = Functional(eval=lambda u: m * float(np.sum((u.values - 0.5) ** 2)),
                   gradient=lambda W: 2.0 * m * (W - 0.5),
                   symmetry_class="polarization-invariant", lower_bound=0.0,
                   name="to_half")
    box = box_set(g1d4, -0.15, 0.15)
    starts = []

    def recording(v):
        starts.append(np.array(v))
        return box.project(v)

    out = sqps_sequence(f, g1d4, [0.1], seed=0, n_samples=200, q_probes=4,
                        domain=dataclasses.replace(box, project=recording),
                        minimizing_sequence=lambda h: g1d4.function(
                            np.full(4, 0.5)))
    assert any(np.array_equal(s, np.full(4, 0.5)) for s in starts)
    cert, _ = out[0]
    assert cert.status == "PASS"
    assert np.allclose(cert.v.values, 0.15, atol=1e-9)


def test_sqps_needs_a_dominating_point(g1d4):
    # f(u) = m·Σ(u_i + 1)² is rearrangement invariant, but Θ(−1) = 1 has
    # the larger value
    m = g1d4.cell_measure
    f = Functional(eval=lambda u: m * float(np.sum((u.values + 1.0) ** 2)),
                   symmetry_class="polarization-invariant", name="shifted")
    with pytest.raises(AssumptionViolated, match="no dominating point"):
        sqps_sequence(f, g1d4, [0.1], seed=0, n_samples=200,
                      minimizing_sequence=lambda h: g1d4.function(-np.ones(4)))


def test_sqps_requires_p2():
    g = make_grid(1, 4, 1.0, 3.0, 4)
    with pytest.raises(AssumptionViolated, match="requires the Hilbert"):
        sqps_sequence(quad_V(g.zeros()), g, [0.1])
