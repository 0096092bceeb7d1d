"""Batch experiment runner: ``symvar run <config.json>``.

Configs are versioned JSON (schema ``symvar-config/1``) naming one
subcommand, a grid, optionally a registered functional/integrand with its
constants, experiment parameters and a seed.  The runner writes certificate
JSON and CSV tables into the output directory (``--out``, else
``$SYMVAR_OUT``, else the working directory) and exits 0 when every emitted
certificate PASSes, 2 when one FAILED, 1 on config or runtime errors.
Identical config + seed reproduces the output files byte for byte.

Unknown config keys are rejected with a field-path diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import applications as ap
from . import funcspace as fs
from . import principles as pr
from . import rearrange as re_
from . import slopes as sl
from .errors import ConfigError, SymvarError
from .funcspace import Functional, GridFunction, gram_matrix

SCHEMA = "symvar-config/1"
CONFIG_SCHEMA_PATH = Path(__file__).with_name("config_schema.json")

WEIGHTS = {
    "zero": lambda s: 0.0,
    "linear": lambda s: s,
    "quadratic": lambda s: s * s,
}


@functools.lru_cache(maxsize=None)
def _schema_keys():
    """Known keys of the config and of each of its sections, by field path,
    as the shipped schema names them."""
    props = json.loads(CONFIG_SCHEMA_PATH.read_text())["properties"]
    keys = {f"config.{k}": frozenset(v["properties"])
            for k, v in props.items() if "properties" in v}
    keys["config"] = frozenset(props)
    return keys


def _check_keys(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - _schema_keys()[path])
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")


def _need(obj, key, path):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return obj[key]


# ---------------------------------------------------------------------------
# registries

def _fn_quadratic(space, params):
    center = np.asarray(params.get("center", np.zeros(space.n_cells)), float)
    a = GridFunction(space, center)
    gram = gram_matrix(space)

    def ev(u):
        d = u.values - a.values
        return float(d @ gram @ d)

    def dv(u):
        return GridFunction(space, 2.0 * (u.values - a.values))

    sym = ("polarization-nonincreasing"
           if re_.is_family_fixed(fs.theta(a)) and np.all(center >= 0)
           else "unverified")
    return Functional(eval=ev, derivative=dv, symmetry_class=sym,
                      lower_bound=0.0, name="quadratic")


def _fn_double_well(space, params):
    """L² radial double well (m·Σu² − r²)²: rearrangement-invariant, so it
    is exactly polarization-invariant (the X-norm analogue is not: its
    inner branch decreases in the radius that polarization shrinks)."""
    m = space.cell_measure
    r2 = float(params.get("radius", 1.0)) ** 2

    def ev(u):
        return (m * float(u.values @ u.values) - r2) ** 2

    def dv(u):
        g = 4.0 * (m * float(u.values @ u.values) - r2) * m * u.values
        return GridFunction(space, fs.riesz_from_euclidean(space, g))

    return Functional(eval=ev, derivative=dv,
                      symmetry_class="polarization-invariant",
                      lower_bound=0.0, name="double_well")


def _fn_norm_dist(space, params):
    center = np.asarray(params.get("center", np.zeros(space.n_cells)), float)
    a = GridFunction(space, center)

    def ev(u):
        return fs.norm_V(u - a)

    return Functional(eval=ev, symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name="norm_dist")


FUNCTIONALS = {
    "quadratic": _fn_quadratic,
    "double_well": _fn_double_well,
    "norm_dist": _fn_norm_dist,
}

INTEGRANDS = {
    "dirichlet": lambda params: ap.dirichlet_integrand(),
    "forced_dirichlet": lambda params: ap.forced_dirichlet_integrand(
        float(params.get("c", 1.0))),
}

NONLINEARITIES = {
    "linear_damping": lambda params: ap.SemilinearNonlinearity(
        g=lambda s: -s, G=lambda s: -0.5 * s * s, a1=1.0, a2=2.0, b=1.0,
        p=3.0, name="linear_damping"),
    "cubic": lambda params: ap.SemilinearNonlinearity(
        g=lambda s: s ** 3, G=lambda s: 0.25 * s ** 4, a1=0.0, a2=0.0, b=3.0,
        p=4.0, name="cubic"),
}

SCALAR_FUNCS = {
    "identity": lambda s: s,
    "cube": lambda s: s ** 3,
    "abs": abs,
}


def _build_grid(cfg):
    grid = _need(cfg, "grid", "config")
    _check_keys(grid, "config.grid")
    return fs.make_grid(_need(grid, "dimension", "config.grid"),
                        _need(grid, "n", "config.grid"),
                        _need(grid, "radius", "config.grid"),
                        _need(grid, "p", "config.grid"),
                        _need(grid, "qW", "config.grid"),
                        q_V=grid.get("qV"))


def _build_functional(cfg, space):
    fdef = cfg.get("functional")
    if fdef is None:
        raise ConfigError("config.functional: required by this subcommand")
    name = _need(fdef, "name", "config.functional")
    params = {k: v for k, v in fdef.items() if k != "name"}
    if name in FUNCTIONALS:
        return FUNCTIONALS[name](space, params)
    if name in INTEGRANDS:
        return ap.quasilinear_functional(INTEGRANDS[name](params), space)
    raise ConfigError(f"config.functional.name: unknown functional '{name}'")


def _gf(space, values, path):
    if values is None:
        raise ConfigError(f"{path}: missing values")
    return GridFunction(space, np.asarray(values, float))


# ---------------------------------------------------------------------------
# output helpers

class _Out:
    def __init__(self, cfg, outdir, subcommand):
        spec = cfg.get("output", {})
        _check_keys(spec, "config.output")
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cert_path = self.dir / spec.get("certificate",
                                             f"{subcommand}_certificate.json")
        self.csv_path = self.dir / spec.get("csv", f"{subcommand}.csv")
        self.fn_path = self.dir / spec.get("function",
                                           f"{subcommand}_function.json")

    def write_certificates(self, certs):
        if isinstance(certs, list):
            payload = json.dumps([c.to_json_dict() for c in certs],
                                 indent=1).encode()
        else:
            payload = certs.to_json_bytes()
        self.cert_path.write_bytes(payload)

    def write_csv(self, header, rows):
        lines = [",".join(header)]
        for row in rows:
            # float(x): numpy floats subclass float but repr as np.float64(...)
            lines.append(",".join(
                repr(float(x)) if isinstance(x, float) else str(x)
                for x in row))
        self.csv_path.write_text("\n".join(lines) + "\n")

    def write_function(self, u, extra=None):
        obj = fs.function_to_json(u)
        if extra:
            obj.update(extra)
        self.fn_path.write_text(json.dumps(obj, indent=1))


def _status_exit(certs):
    if isinstance(certs, list):
        return 2 if any(c.status != "PASS" for c in certs) else 0
    return 0 if certs.status == "PASS" else 2


# ---------------------------------------------------------------------------
# subcommand handlers; each returns an exit code

def _run_make_grid(cfg, space, params, seed, n_samples, out):
    out.write_function(space.zeros(), extra={"K": space.K,
                                             "n_polarizers": len(space.polarizers)})
    out.write_csv(["dimension", "n", "radius", "p", "qV", "qW", "measure", "K"],
                  [[space.dimension, space.n, space.radius, space.p,
                    space.q_V, space.q_W, space.cell_measure, space.K]])
    return 0


def _run_norms(cfg, space, params, seed, n_samples, out):
    u = _gf(space, params.get("values"), "parameters.values")
    out.write_csv(["norm_X", "norm_V", "norm_W"],
                  [[fs.norm_X(u), fs.norm_V(u), fs.norm_W(u)]])
    return 0


def _run_theta(cfg, space, params, seed, n_samples, out):
    u = _gf(space, params.get("values"), "parameters.values")
    out.write_function(fs.theta(u))
    return 0


def _set_oracle(name, space, params):
    import numpy as _np

    if name == "halfplane_sum":
        level = float(params.get("level", 1.0))

        def contains(v):
            return bool(_np.all(v >= -1e-12) and _np.sum(v) <= level + 1e-12)

        def project(v):
            w = _np.maximum(v, 0.0)
            ex = (_np.sum(w) - level) / len(w)
            if ex > 0:
                w = _np.maximum(w - ex, 0.0)
            return w

        return pr.SetOracle(contains=contains, project=project, kind="custom",
                            description=f"{{u >= 0, sum <= {level}}}")
    if name == "diag_ray":
        lo = float(params.get("lo", 1.0))

        def contains(v):
            return bool(_np.max(_np.abs(v - _np.mean(v))) <= 1e-9
                        and _np.mean(v) >= lo - 1e-12)

        def project(v):
            a = max(lo, float(_np.mean(v)))
            return _np.full(len(v), a)

        return pr.SetOracle(contains=contains, project=project, kind="custom",
                            description=f"{{(a,...,a): a >= {lo}}}")
    if name == "singleton":
        point = _np.asarray(params.get("point"), float)

        def contains(v):
            return bool(_np.max(_np.abs(v - point)) <= 1e-9)

        return pr.SetOracle(contains=contains,
                            project=lambda v: _np.array(point),
                            kind="custom", description="singleton")
    raise ConfigError(f"parameters.set: unknown set oracle '{name}'")


def _run_drop_point(cfg, space, params, seed, n_samples, out):
    B = ap.Ball(_gf(space, params.get("ball_center"),
                    "parameters.ball_center"),
                float(params.get("ball_radius", 1.0)), symmetric=True)
    C = _set_oracle(params.get("set", "halfplane_sum"), space, params)
    x = _gf(space, params.get("x"), "parameters.x")
    cert = ap.symmetric_drop_point(
        x, B, C, float(params.get("eps", 0.05)), seed=seed,
        n_samples=n_samples or 1000,
        minimality_samples=int(params.get("minimality_samples", 10000)))
    out.write_certificates(cert)
    out.write_csv(["status", "second_points", "d_est"],
                  [[cert.status,
                    cert.extras["drop_minimality"]["second_points"],
                    cert.extras["drop_minimality"]["d_est"]]])
    return _status_exit(cert)


def _run_petal_point(cfg, space, params, seed, n_samples, out):
    C = _set_oracle(params.get("set", "diag_ray"), space, params)
    x = _gf(space, params.get("x"), "parameters.x")
    y = _gf(space, params.get("y"), "parameters.y")
    norm = None
    if params.get("norm") == "l1":
        norm = lambda vals: float(np.sum(np.abs(vals)))
    cert = ap.symmetric_petal_point(
        x, y, C, float(params.get("eps", 0.3)), norm=norm, seed=seed,
        n_samples=n_samples or 1000,
        minimality_samples=int(params.get("minimality_samples", 10000)))
    out.write_certificates(cert)
    out.write_csv(["status", "second_points", "petal_member"],
                  [[cert.status,
                    cert.extras["petal_minimality"]["second_points"],
                    cert.extras["petal_member"]]])
    return _status_exit(cert)


def _run_polarize(cfg, space, params, seed, n_samples, out):
    u = _gf(space, params.get("values"), "parameters.values")
    axis = tuple(params.get("axis",
                            [1.0] + [0.0] * (space.dimension - 1)))
    offset = float(params.get("offset", 0.0))
    match = [p for p in space.polarizers
             if np.allclose(p.axis, axis) and abs(p.offset - offset) < 1e-12]
    if not match:
        raise ConfigError(f"parameters: no registered polarizer with axis "
                          f"{axis}, offset {offset}")
    res = re_.polarize(u, match[0])
    out.write_function(res)
    out.write_csv(["norm_V_before", "norm_V_after"],
                  [[fs.norm_V(u), fs.norm_V(res)]])
    return 0


def _run_schwarz(cfg, space, params, seed, n_samples, out):
    u = _gf(space, params.get("values"), "parameters.values")
    res = re_.schwarz(u)
    out.write_function(res)
    out.write_csv(["norm_X_before", "norm_X_after"],
                  [[fs.norm_X(u), fs.norm_X(res)]])
    return 0


def _run_approx_symmetrize(cfg, space, params, seed, n_samples, out):
    u = _gf(space, params.get("values"), "parameters.values")
    rho = float(params.get("rho", 1e-3))
    res, seq = re_.approx_symmetrize(u, rho)
    out.write_function(res, extra={
        "polarizer_sequence": re_.polarizer_sequence_json(seq)})
    resid = fs.norm_V(res - re_.schwarz(u))
    out.write_csv(["rho", "residual", "sequence_length"],
                  [[rho, resid, len(seq)]])
    return 0


def _run_zhong_radius(cfg, space, params, seed, n_samples, out):
    wname = params.get("weight", "zero")
    if wname not in WEIGHTS:
        raise ConfigError(f"parameters.weight: unknown weight '{wname}'")
    rho = float(params.get("rho", 1.0))
    r = pr.zhong_radius(WEIGHTS[wname], rho)
    out.write_csv(["weight", "rho", "r"], [[wname, rho, float(f"{r:.10f}")]])
    print(f"r(rho) = {r:.10f}")
    return 0


def _run_strong_slope(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    u = _gf(space, params.get("values"), "parameters.values")
    radii = tuple(params.get("radii", (1e-3, 1e-4, 1e-5)))
    est = sl.strong_slope(f, u, radii=radii,
                          n_samples=n_samples or int(params.get("n_samples", 64)),
                          seed=seed)
    out.write_csv(["lower", "upper", "tol"], [[est.lower, est.upper, est.tol]])
    return 0


def _run_q_form(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    u = _gf(space, params.get("u"), "parameters.u")
    w = _gf(space, params.get("w"), "parameters.w")
    est = sl.q_form(f, u, w, delta=float(params.get("delta", 1e-4)),
                    n_samples=n_samples or int(params.get("n_samples", 32)),
                    seed=seed)
    out.write_csv(["delta", "value"],
                  [[d, v] for d, v in est.schedule])
    return 0


def _engine_common(cfg, space, params, seed, n_samples):
    f = _build_functional(cfg, space)
    u0 = _gf(space, params.get("u0"), "parameters.u0")
    sigma = float(params.get("sigma", 0.1))
    rho = float(params.get("rho", 0.1))
    return f, u0, sigma, rho


def _run_ekeland(cfg, space, params, seed, n_samples, out):
    f, u0, sigma, rho = _engine_common(cfg, space, params, seed, n_samples)
    cert = pr.ekeland_point(f, pr.whole_space(space), u0, sigma, rho,
                            seed=seed, n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["status", "max_violation"],
                  [[cert.status, cert.violation.max_violation]])
    return _status_exit(cert)


def _run_symmetric_ekeland(cfg, space, params, seed, n_samples, out):
    f, u0, sigma, rho = _engine_common(cfg, space, params, seed, n_samples)
    variant = params.get("variant", "II")
    cert = pr.symmetric_ekeland(f, space, u0, sigma, rho, variant=variant,
                                seed=seed, n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["variant", "status", "max_violation"],
                  [[variant, cert.status, cert.violation.max_violation]])
    return _status_exit(cert)


def _run_borwein_preiss(cfg, space, params, seed, n_samples, out):
    f, u0, sigma, rho = _engine_common(cfg, space, params, seed, n_samples)
    cert = pr.symmetric_borwein_preiss(f, space, u0, sigma, rho,
                                       p_exp=float(params.get("p_exp", 2)),
                                       seed=seed, n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["status", "max_violation"],
                  [[cert.status, cert.violation.max_violation]])
    return _status_exit(cert)


def _run_symmetric_zhong(cfg, space, params, seed, n_samples, out):
    f, u0, sigma, rho = _engine_common(cfg, space, params, seed, n_samples)
    wname = params.get("weight", "zero")
    if wname not in WEIGHTS:
        raise ConfigError(f"parameters.weight: unknown weight '{wname}'")
    cert = pr.symmetric_zhong(f, space, u0, sigma, rho, WEIGHTS[wname],
                              seed=seed, n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["weight", "r", "status", "max_violation"],
                  [[wname, cert.extras["r_of_rho"], cert.status,
                    cert.violation.max_violation]])
    return _status_exit(cert)


def _run_dgz_check(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    v = _gf(space, params.get("v"), "parameters.v")
    eps = float(params.get("eps", 0.1))
    delta = float(params.get("delta", 1.0))
    g = pr.bump_perturbation(space, v, eps, delta)
    cert = pr.dgz_check(f, g, v, eps, seed=seed, n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["status", "sup_g", "sup_gprime", "max_violation"],
                  [[cert.status, cert.measured["sup|g|"][0],
                    cert.measured["sup‖g'‖"][0],
                    cert.violation.max_violation]])
    return _status_exit(cert)


def _run_constrained(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    u0 = _gf(space, params.get("u0"), "parameters.u0")
    eps = float(params.get("eps", 0.05))
    kind = params.get("constraint", "l2_sphere")
    if kind == "l2_sphere":
        m = space.cell_measure
        level = float(params.get("level", 1.0))

        def gev(u):
            return m * float(u.values @ u.values) - level

        def gdv(u):
            return GridFunction(space, fs.riesz_from_euclidean(
                space, 2.0 * m * u.values))

        G = [Functional(eval=gev, derivative=gdv, name="l2_sphere")]
        n_eq = 1
    else:
        raise ConfigError(f"parameters.constraint: unknown '{kind}'")
    cert = pr.constrained_symmetric_ekeland(f, G, n_eq, u0, eps, seed=seed,
                                            n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["status", "multipliers", "residual"],
                  [[cert.status,
                    ";".join(repr(x) for x in cert.extras["multipliers"]),
                    cert.measured["‖df-Σλ·dG‖_X'"][0]]])
    return _status_exit(cert)


def _run_path_minimax(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    psi = _gf(space, params.get("psi"), "parameters.psi")
    cert = pr.path_minimax(f, psi, int(params.get("m_nodes", 12)),
                           float(params.get("eps", 0.05)), seed=seed,
                           n_samples=n_samples or 600)
    out.write_certificates(cert)
    out.write_csv(["status", "argmax_node", "f(u_eps)"],
                  [[cert.status, cert.extras["argmax_node"],
                    f.eval(cert.v)]])
    return _status_exit(cert)


def _run_sqps(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    schedule = [float(e) for e in params.get("eps_schedule", [0.1, 0.05, 0.01])]
    box = params.get("box")
    dom = pr.box_set(space, box[0], box[1]) if box else None
    res = pr.sqps_sequence(f, space, schedule, domain=dom, seed=seed,
                           n_samples=n_samples or 2000)
    certs = [c for c, _ in res]
    out.write_certificates(certs)
    rows = []
    for (c, q), eps_h in zip(res, schedule):
        rows.append([eps_h, c.status, c.measured["‖v-v*‖_V"][0],
                     c.measured["slope_upper"][0], q.min_margin])
    out.write_csv(["eps_h", "status", "symmetry_residual", "slope_upper",
                   "q_min_margin"], rows)
    return _status_exit(certs)


def _run_quasilinear(cfg, space, params, seed, n_samples, out):
    fdef = cfg.get("functional", {"name": "forced_dirichlet"})
    name = _need(fdef, "name", "config.functional")
    if name not in INTEGRANDS:
        raise ConfigError(f"config.functional.name: unknown integrand '{name}'")
    I = INTEGRANDS[name]({k: v for k, v in fdef.items() if k != "name"})
    eps = float(params.get("eps", 0.01))
    cert = ap.quasilinear_experiment(I, space, eps, seed=seed,
                                     n_samples=n_samples or 2000)
    out.write_certificates(cert)
    out.write_csv(["status", "dual_norm", "symmetry_residual"],
                  [[cert.status, cert.measured["‖w_ε‖_dual"][0],
                    cert.measured["‖u_ε-u_ε*‖_V"][0]]])
    return _status_exit(cert)


def _run_semilinear(cfg, space, params, seed, n_samples, out):
    fdef = cfg.get("functional", {"name": "linear_damping"})
    name = _need(fdef, "name", "config.functional")
    if name not in NONLINEARITIES:
        raise ConfigError(f"config.functional.name: unknown nonlinearity "
                          f"'{name}'")
    N = NONLINEARITIES[name]({k: v for k, v in fdef.items() if k != "name"})
    schedule = [float(e) for e in params.get("eps_schedule", [0.1, 0.05, 0.01])]
    box = params.get("box")
    dom = pr.box_set(space, box[0], box[1]) if box else None
    certs = ap.semilinear_experiment(N, space, schedule, box=dom, seed=seed,
                                     n_samples=n_samples or 2000)
    out.write_certificates(certs)
    rows = [[e, c.status, c.extras["psi_Hminus1"],
             c.measured["‖v-v*‖_V"][0], c.extras["second_order_min"]]
            for e, c in zip(schedule, certs)]
    out.write_csv(["eps_h", "status", "psi_Hminus1", "symmetry_residual",
                   "second_order_min"], rows)
    return _status_exit(certs)


def _run_lower_derivative(cfg, space, params, seed, n_samples, out):
    gname = params.get("g", "identity")
    if gname not in SCALAR_FUNCS:
        raise ConfigError(f"parameters.g: unknown scalar function '{gname}'")
    val, log = ap.lower_derivative(SCALAR_FUNCS[gname],
                                   float(params.get("s", 0.0)),
                                   float(params.get("delta", 1e-3)),
                                   int(params.get("n", 256)),
                                   return_log=True)
    out.write_csv(["delta", "min_quotient"], [[d, v] for d, v in log])
    return 0


def _run_caristi(cfg, space, params, seed, n_samples, out):
    lam = float(params.get("contraction", 0.5))
    rate = float(params.get("rate", 2.0))

    def F(u):
        return GridFunction(space, lam * u.values)

    f = Functional(eval=lambda u: rate * fs.norm_X(u),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="caristi-potential")
    xi, resid, cert = ap.caristi_fixed_point(
        F, f, float(params.get("eps", 0.1)), space, seed=seed,
        n_samples=n_samples or 2000, return_certificate=True)
    out.write_certificates(cert)
    out.write_function(xi)
    out.write_csv(["residual", "bound"],
                  [[resid, cert.extras["caristi"]["bound"]]])
    return _status_exit(cert)


def _run_clarke(cfg, space, params, seed, n_samples, out):
    sig = float(params.get("sigma_contraction", 0.5))
    target = np.asarray(params.get("target", np.zeros(space.n_cells)), float)

    def F(u):
        return GridFunction(space, target + sig * (u.values - target))

    xi, resid, cert = ap.clarke_fixed_point(
        F, sig, float(params.get("eps", 0.1)), space, seed=seed,
        n_samples=n_samples or 2000, return_certificate=True)
    out.write_certificates(cert)
    out.write_function(xi)
    out.write_csv(["residual", "bound"],
                  [[resid, cert.extras["clarke"]["bound"]]])
    return _status_exit(cert)


def _run_petal_inclusions(cfg, space, params, seed, n_samples, out):
    x0 = _gf(space, params.get("x0"), "parameters.x0")
    x1 = _gf(space, params.get("x1"), "parameters.x1")
    P = ap.Petal(float(params.get("eps", 0.5)), x0, x1)
    rep = ap.petal_inclusions(P, n_samples=n_samples or 1000, seed=seed)
    out.write_csv(list(rep.keys()), [list(rep.values())])
    return 0 if rep["ball_violations"] == 0 and rep["drop_violations"] == 0 else 2


def _run_verify(cfg, space, params, seed, n_samples, out):
    f = _build_functional(cfg, space)
    cert_path = params.get("certificate_path")
    if cert_path is None:
        raise ConfigError("parameters.certificate_path: required")
    raw = json.loads(Path(cert_path).read_text())
    v = fs.function_from_json(raw["v"])
    cert = pr.Certificate(
        variant=raw["variant"], v=v, sigma=raw["sigma"], rho=raw["rho"],
        p_exp=raw.get("p_exp", 1.0),
        eta=None if raw.get("eta") is None else fs.function_from_json(raw["eta"]),
        seed=raw.get("seed", 0), slack=raw.get("slack", 0.0),
        extras=raw.get("extras", {}))
    rep = pr.verify_certificate(f, cert, n_samples or 2000, seed=seed + 104729)
    out.write_csv(["max_violation", "slack", "n_samples"],
                  [[rep.max_violation, cert.slack, rep.n_samples]])
    return 0 if rep.max_violation <= cert.slack else 2


HANDLERS = {
    "make_grid": _run_make_grid,
    "norms": _run_norms,
    "theta": _run_theta,
    "drop_point": _run_drop_point,
    "petal_point": _run_petal_point,
    "polarize": _run_polarize,
    "schwarz": _run_schwarz,
    "approx_symmetrize": _run_approx_symmetrize,
    "zhong_radius": _run_zhong_radius,
    "strong_slope": _run_strong_slope,
    "q_form": _run_q_form,
    "ekeland_point": _run_ekeland,
    "symmetric_ekeland": _run_symmetric_ekeland,
    "symmetric_borwein_preiss": _run_borwein_preiss,
    "symmetric_zhong": _run_symmetric_zhong,
    "dgz_check": _run_dgz_check,
    "constrained_symmetric_ekeland": _run_constrained,
    "path_minimax": _run_path_minimax,
    "sqps_sequence": _run_sqps,
    "quasilinear_experiment": _run_quasilinear,
    "semilinear_experiment": _run_semilinear,
    "lower_derivative": _run_lower_derivative,
    "caristi_fixed_point": _run_caristi,
    "clarke_fixed_point": _run_clarke,
    "petal_inclusions": _run_petal_inclusions,
    "verify_certificate": _run_verify,
}


def run_config(config_path, *, seed=None, out_dir=None, n_samples=None) -> int:
    try:
        raw = Path(config_path).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: config line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 1
    try:
        _check_keys(cfg, "config")
        if cfg.get("schema") != SCHEMA:
            raise ConfigError(f"config.schema: expected '{SCHEMA}', got "
                              f"{cfg.get('schema')!r}")
        sub = _need(cfg, "subcommand", "config")
        if sub not in HANDLERS:
            raise ConfigError(f"config.subcommand: unknown subcommand '{sub}'"
                              f" (known: {sorted(HANDLERS)})")
        if "functional" in cfg:
            _check_keys(cfg["functional"], "config.functional")
        params = cfg.get("parameters", {})
        _check_keys(params, "config.parameters")
        space = _build_grid(cfg)
        eff_seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
        outdir = out_dir or os.environ.get("SYMVAR_OUT", ".")
        out = _Out(cfg, outdir, sub)
        return HANDLERS[sub](cfg, space, params, eff_seed, n_samples, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SymvarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symvar",
        description="symmetric variational principle experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    runp = subs.add_parser("run", help="execute a JSON experiment config")
    runp.add_argument("config", help="path to the config JSON")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--out", default=None,
                      help="output directory (default $SYMVAR_OUT or '.')")
    runp.add_argument("--samples", type=int, default=None,
                      help="override verification sample counts")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_config(args.config, seed=args.seed, out_dir=args.out,
                          n_samples=args.samples)
    return 1


if __name__ == "__main__":
    sys.exit(main())
