"""Batch experiment runner: ``symvar run <config.json>``.

Configs are versioned JSON (schema ``symvar-config/1``) naming one
subcommand, a grid, optionally a registered functional/integrand with its
constants, experiment parameters and a seed.  The runner writes certificate
JSON and CSV tables into the output directory (``--out``, else
``$SYMVAR_OUT``, else the working directory) and exits 0 when every emitted
certificate PASSes, 2 when one FAILED, 1 on config or runtime errors.
Identical config + seed reproduces the output files byte for byte.

One registry owns the config format: ``HANDLERS`` maps each subcommand to
its handler, the functional kinds it takes and one JSON-Schema fragment per
parameter, and ``FUNCTIONALS`` holds each functional's fragments.  ``_check``
validates a config against the fragments and fills in their defaults;
``config_schema()`` publishes them as the shipped ``config_schema.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import applications as ap
from . import funcspace as fs
from . import principles as pr
from . import rearrange as re_
from . import slopes as sl
from ._descent import _BandHessian
from .errors import ConfigError, SymvarError
from .funcspace import Functional, GridFunction, gram_matrix

SCHEMA = "symvar-config/1"
CONFIG_SCHEMA_PATH = Path(__file__).with_name("config_schema.json")

# ---------------------------------------------------------------------------
# schema fragments and the check routine


def _num(default, **bounds):
    return {"type": "number", **bounds, "default": default}


def _pos(default):
    return _num(default, exclusiveMinimum=0)


def _count(default):
    return {"type": "integer", "minimum": 1, "default": default}


def _enum(names, default):
    return {"enum": list(names), "default": default}


def _optional(frag, meaning):
    """A parameter that may be absent; the handler reads None then."""
    return {**frag, "default": None, "description": meaning}


def _object(props):
    """A closed object; the properties without a default are required."""
    return {"type": "object", "additionalProperties": False,
            "required": [k for k, f in props.items() if "default" not in f],
            "properties": props}


NUMBERS = {"type": "array", "items": {"type": "number"}}
POSITIVES = {"type": "array", "minItems": 1,
             "items": {"type": "number", "exclusiveMinimum": 0}}
# "format": "cells" marks a vector with one value per grid cell; its length
# is checked once the grid is built, and handlers receive a GridFunction
CELLS = {**NUMBERS, "format": "cells",
         "description": "one value per grid cell"}
ZEROS = _optional(CELLS, "one value per grid cell; all zeros when absent")

_TYPES = {"number": (int, float), "integer": (int, float), "string": str,
          "array": list, "object": dict}
_BOUNDS = {"minimum": lambda v, b: v >= b,
           "exclusiveMinimum": lambda v, b: v > b,
           "multipleOf": lambda v, b: v % b == 0}


def _check(value, frag, path):
    """Check one config value against its schema fragment and return it
    converted: numbers to float, integers to int, arrays item by item and
    objects with every property present (absent ones take their default).
    Raises ConfigError naming the field path."""
    kind = frag.get("type")
    if kind and (isinstance(value, bool)
                 or not isinstance(value, _TYPES[kind])):
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    if kind in ("number", "integer"):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}: not a finite number ({value!r})")
        if kind == "integer" and value != int(value):
            raise ConfigError(f"{path}: expected integer, got {value!r}")
        value = int(value) if kind == "integer" else float(value)
        for key, ok in _BOUNDS.items():
            if key in frag and not ok(value, frag[key]):
                raise ConfigError(f"{path}: {value!r} fails {key} {frag[key]}")
    elif kind == "array":
        if not frag.get("minItems", 0) <= len(value) <= frag.get("maxItems",
                                                                  len(value)):
            raise ConfigError(f"{path}: wrong number of items ({len(value)})")
        value = [_check(v, frag["items"], f"{path}[{i}]")
                 for i, v in enumerate(value)]
    elif "properties" in frag:
        props = frag["properties"]
        unknown = sorted(set(value) - set(props))
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {unknown}")
        for key in frag["required"]:
            if key not in value:
                raise ConfigError(f"{path}: missing required key '{key}'")
        value = {k: _check(value[k], f, f"{path}.{k}") if k in value
                 else None if f["default"] is None
                 else _check(f["default"], f, f"{path}.{k}")
                 for k, f in props.items()}
    if "enum" in frag and value not in frag["enum"]:
        raise ConfigError(f"{path}: unknown value {value!r} "
                          f"(known: {frag['enum']})")
    if "const" in frag and value != frag["const"]:
        raise ConfigError(f"{path}: expected {frag['const']!r}, got {value!r}")
    return value


def _to_grid(space, obj, props, path):
    """Replace the cell vectors of a checked object by GridFunctions."""
    for key, frag in props.items():
        if frag.get("format") == "cells" and obj[key] is not None:
            if len(obj[key]) != space.n_cells:
                raise ConfigError(f"{path}.{key}: expected {space.n_cells} "
                                  f"values (one per grid cell), got "
                                  f"{len(obj[key])}")
            obj[key] = GridFunction(space, obj[key])


def _zeros_or(space, u):
    return np.zeros(space.n_cells) if u is None else u.values


# ---------------------------------------------------------------------------
# registries: functionals, set oracles, weights, scalar functions

def _fn_quadratic(space, params):
    a = GridFunction(space, _zeros_or(space, params["center"]))
    gram = gram_matrix(space)

    def ev(u):
        d = u.values - a.values
        return float(d @ gram @ d)

    def ev_rows(W):
        # per row the same gemv and ddot as ev: a stacked (1, N) @ (N, N)
        # is a gemv and a stacked (1, N) @ (N, 1) a ddot
        D = W - a.values
        return np.matmul(np.matmul(D[:, None, :], gram), D[:, :, None])[:, 0, 0]

    def grad(W):
        # Gx·(2(v − a)), a gemv per row as for one vector
        return np.matmul(gram, (2.0 * (W - a.values))[..., None])[..., 0]

    hessian = _BandHessian(2.0 * space._bands[1])

    def hess(v):
        return hessian

    return Functional(eval=ev, lower_bound=0.0, name="quadratic",
                      eval_batch=ev_rows, gradient=grad, hessian=hess)


def _fn_double_well(space, params):
    """L² radial double well (m·Σu² − r²)²: rearrangement-invariant, so it
    is exactly polarization-invariant (the X-norm analogue is not: its
    inner branch decreases in the radius that polarization shrinks)."""
    m = space.cell_measure
    r2 = params["radius"] ** 2

    def ev(u):
        d = m * float(u.values @ u.values) - r2
        return d * d

    def ev_rows(W):
        # the same ddot per row and the same one-multiply square as ev
        sq = np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0]
        d = m * sq - r2
        return d * d

    def grad(W):
        # 4(m‖v‖² − r²)·m·v with the same ddot per row as ev
        sq = np.matmul(W[..., None, :], W[..., :, None])[..., 0, 0]
        return (4.0 * (m * sq - r2) * m)[..., None] * W

    def hess(v):
        # 4m(m‖v‖² − r²)·I + 8m²·vvᵀ: a diagonal and a rank-1 term
        return _BandHessian(np.full((1, len(v)), 4.0 * m * (m * float(v @ v)
                                                            - r2)),
                            v[:, None].copy(), np.array([8.0 * m * m]))

    return Functional(eval=ev, symmetry_class="polarization-invariant",
                      lower_bound=0.0, name="double_well", eval_batch=ev_rows,
                      gradient=grad, hessian=hess)


def _fn_norm_dist(space, params):
    a = GridFunction(space, _zeros_or(space, params["center"]))

    def ev(u):
        return fs.norm_V(u - a)

    return Functional(eval=ev, symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name="norm_dist")


class Fn(NamedTuple):
    kind: str              # "functional", "integrand" or "nonlinearity"
    build: Callable        # (space, filled params) -> the object
    params: dict


FUNCTIONALS = {
    "quadratic": Fn("functional", _fn_quadratic, {"center": ZEROS}),
    "double_well": Fn("functional", _fn_double_well, {"radius": _num(1.0)}),
    "norm_dist": Fn("functional", _fn_norm_dist, {"center": ZEROS}),
    "dirichlet": Fn("integrand", lambda space, p: ap.dirichlet_integrand(),
                    {}),
    "forced_dirichlet": Fn("integrand", lambda space, p:
                           ap.forced_dirichlet_integrand(p["c"]),
                           {"c": _pos(1.0)}),
    "linear_damping": Fn("nonlinearity", lambda space, p:
                         ap.SemilinearNonlinearity(
                             g=lambda s: -s, G=lambda s: -0.5 * s * s,
                             a1=1.0, a2=2.0, b=1.0, p=3.0,
                             name="linear_damping"), {}),
    # powers as products: numpy's array power can differ from scalar pow in
    # the last bit, by CPU, and certificate bytes would follow it
    "cubic": Fn("nonlinearity", lambda space, p: ap.SemilinearNonlinearity(
        g=lambda s: s * s * s, G=lambda s: 0.25 * (s * s) * (s * s), a1=0.0,
        a2=0.0, b=3.0, p=4.0, name="cubic"), {}),
}


def _fn_object(name):
    return _object({"name": {"const": name}, **FUNCTIONALS[name].params})


def _halfplane_sum(params):
    level = params["level"]

    def contains(v):
        return bool(np.all(v >= -1e-12)
                    and np.sum(v) <= level + 1e-12 * (1.0 + level))

    def project(v):
        # Euclidean projection: clip at 0, or when that sum exceeds level,
        # shift by the threshold that brings the positive part's sum to
        # level (sort and cumulative sums); the last factor takes off the
        # rounding of a large shift
        w = np.maximum(v, 0.0)
        if np.sum(w) <= level:
            return w
        s = np.sort(v)[::-1]
        t = (np.cumsum(s) - level) / np.arange(1, len(s) + 1)
        w = np.maximum(v - t[s > t][-1], 0.0)
        return w * min(1.0, level / np.sum(w))

    return pr.SetOracle(contains=contains, project=project, kind="custom",
                        description=f"{{u >= 0, sum <= {level}}}")


def _diag_ray(params):
    lo = params["lo"]

    def contains(v):
        return bool(np.max(np.abs(v - np.mean(v))) <= 1e-9
                    and np.mean(v) >= lo - 1e-12)

    def project(v):
        return np.full(len(v), max(lo, float(np.mean(v))))

    return pr.SetOracle(contains=contains, project=project, kind="custom",
                        description=f"{{(a,...,a): a >= {lo}}}")


def _singleton(params):
    if params["point"] is None:
        raise ConfigError("config.parameters.point: required by set "
                          "'singleton'")
    point = params["point"].values

    def contains(v):
        return bool(np.max(np.abs(v - point)) <= 1e-9)

    return pr.SetOracle(contains=contains, project=lambda v: np.array(point),
                        kind="custom", description="singleton")


SETS = {"halfplane_sum": _halfplane_sum, "diag_ray": _diag_ray,
        "singleton": _singleton}
SET_PARAMS = {"level": _pos(1.0), "lo": _num(1.0),
              "point": _optional(CELLS, "the point of the singleton set")}

WEIGHTS = {
    "zero": lambda s: 0.0,
    "linear": lambda s: s,
    "quadratic": lambda s: s * s,
}

SCALAR_FUNCS = {
    "identity": lambda s: s,
    "cube": lambda s: s * s * s,
    "abs": abs,
}

PETAL_NORMS = {"l1": lambda vals: float(np.sum(np.abs(vals)))}

GRID = {
    "dimension": {"type": "integer", "enum": [1, 2]},
    "n": {"type": "integer", "minimum": 2, "multipleOf": 2,
          "description": "cells per axis"},
    "radius": {"type": "number", "exclusiveMinimum": 0},
    "p": {"type": "number", "exclusiveMinimum": 1},
    "qW": {"type": "number"},
    "qV": _optional({"type": "number"}, "make_grid's default when absent"),
}

OUTPUT_SUFFIX = {"certificate": "_certificate.json", "csv": ".csv",
                 "function": "_function.json"}
OUTPUT = {k: _optional({"type": "string"}, f"file name; <subcommand>{s} "
                       f"when absent") for k, s in OUTPUT_SUFFIX.items()}


# ---------------------------------------------------------------------------
# output helpers

class _Out:
    def __init__(self, spec, outdir, subcommand):
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cert_path, self.csv_path, self.fn_path = (
            self.dir / (spec[k] or f"{subcommand}{s}")
            for k, s in OUTPUT_SUFFIX.items())

    def write_certificates(self, certs):
        """Write one certificate or a list; return the exit code, 0 when
        every certificate PASSes and 2 otherwise."""
        if isinstance(certs, list):
            payload = json.dumps([c.to_json_dict() for c in certs],
                                 indent=1).encode()
        else:
            payload, certs = certs.to_json_bytes(), [certs]
        self.cert_path.write_bytes(payload)
        return 0 if all(c.status == "PASS" for c in certs) else 2

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


# ---------------------------------------------------------------------------
# subcommand handlers; each reads the checked parameters p and returns an
# exit code.  f is the built functional (None when the subcommand takes none)
# and samples the --samples override (None when not given).

class Subcommand(NamedTuple):
    run: Callable
    takes: tuple           # functional kinds accepted; () takes none
    names: list            # the functional names of those kinds
    default: str | None    # functional name used when the config has none
    params: dict


HANDLERS: dict[str, Subcommand] = {}
FUNC = ("functional", "integrand")
ENGINE = {"u0": CELLS, "sigma": _pos(0.1), "rho": _pos(0.1)}
SCHEDULE = {**POSITIVES, "default": [0.1, 0.05, 0.01]}
BOX = _optional({**NUMBERS, "minItems": 2, "maxItems": 2},
                "[lo, hi] of a box domain; the whole space when absent")


def _subcommand(name, takes=(), default=None, **params):
    def register(run):
        names = [n for n, fn in FUNCTIONALS.items() if fn.kind in takes]
        HANDLERS[name] = Subcommand(run, takes, names, default, params)
        return run
    return register


@_subcommand("make_grid")
def _run_make_grid(space, f, p, seed, samples, out):
    out.write_function(space.zeros(), extra={"K": space.K,
                                             "n_polarizers": len(space.polarizers)})
    out.write_csv(["dimension", "n", "radius", "p", "qV", "qW", "measure", "K"],
                  [[space.dimension, space.n, space.radius, space.p,
                    space.q_V, space.q_W, space.cell_measure, space.K]])
    return 0


@_subcommand("norms", values=CELLS)
def _run_norms(space, f, p, seed, samples, out):
    u = p["values"]
    out.write_csv(["norm_X", "norm_V", "norm_W"],
                  [[fs.norm_X(u), fs.norm_V(u), fs.norm_W(u)]])
    return 0


@_subcommand("theta", values=CELLS)
def _run_theta(space, f, p, seed, samples, out):
    out.write_function(fs.theta(p["values"]))
    return 0


@_subcommand("drop_point", ball_center=CELLS, ball_radius=_pos(1.0), x=CELLS,
             set=_enum(SETS, "halfplane_sum"), eps=_pos(0.05),
             minimality_samples=_count(10000), **SET_PARAMS)
def _run_drop_point(space, f, p, seed, samples, out):
    B = ap.Ball(p["ball_center"], p["ball_radius"], symmetric=True)
    cert = ap.symmetric_drop_point(
        p["x"], B, SETS[p["set"]](p), p["eps"], seed=seed,
        n_samples=samples or 1000,
        minimality_samples=p["minimality_samples"])
    out.write_csv(["status", "second_points", "d_est"],
                  [[cert.status,
                    cert.extras["drop_minimality"]["second_points"],
                    cert.extras["drop_minimality"]["d_est"]]])
    return out.write_certificates(cert)


@_subcommand("petal_point", x=CELLS, y=CELLS, set=_enum(SETS, "diag_ray"),
             norm=_optional({"enum": list(PETAL_NORMS)},
                            "the V norm when absent"),
             eps=_pos(0.3), minimality_samples=_count(10000), **SET_PARAMS)
def _run_petal_point(space, f, p, seed, samples, out):
    cert = ap.symmetric_petal_point(
        p["x"], p["y"], SETS[p["set"]](p), p["eps"],
        norm=PETAL_NORMS.get(p["norm"]), seed=seed,
        n_samples=samples or 1000,
        minimality_samples=p["minimality_samples"])
    out.write_csv(["status", "second_points", "petal_member"],
                  [[cert.status,
                    cert.extras["petal_minimality"]["second_points"],
                    cert.extras["petal_member"]]])
    return out.write_certificates(cert)


@_subcommand("polarize", values=CELLS,
             axis=_optional({**NUMBERS, "minItems": 1, "maxItems": 2},
                            "the first coordinate axis when absent"),
             offset=_num(0.0, minimum=0))
def _run_polarize(space, f, p, seed, samples, out):
    u = p["values"]
    axis = tuple(p["axis"] or [1.0] + [0.0] * (space.dimension - 1))
    offset = p["offset"]
    match = [H for H in space.polarizers if len(H.axis) == len(axis)
             and np.allclose(H.axis, axis) and abs(H.offset - offset) < 1e-12]
    if not match:
        raise ConfigError(f"config.parameters.axis: no registered polarizer "
                          f"with axis {axis}, offset {offset}")
    res = re_.polarize(u, match[0])
    out.write_function(res)
    out.write_csv(["norm_V_before", "norm_V_after"],
                  [[fs.norm_V(u), fs.norm_V(res)]])
    return 0


@_subcommand("schwarz", values=CELLS)
def _run_schwarz(space, f, p, seed, samples, out):
    u = p["values"]
    res = re_.schwarz(u)
    out.write_function(res)
    out.write_csv(["norm_X_before", "norm_X_after"],
                  [[fs.norm_X(u), fs.norm_X(res)]])
    return 0


@_subcommand("approx_symmetrize", values=CELLS, rho=_pos(1e-3))
def _run_approx_symmetrize(space, f, p, seed, samples, out):
    u = p["values"]
    res, seq = re_.approx_symmetrize(u, p["rho"])
    out.write_function(res, extra={
        "polarizer_sequence": re_.polarizer_sequence_json(seq)})
    resid = fs.norm_V(res - re_.schwarz(u))
    out.write_csv(["rho", "residual", "sequence_length"],
                  [[p["rho"], resid, len(seq)]])
    return 0


@_subcommand("zhong_radius", weight=_enum(WEIGHTS, "zero"), rho=_pos(1.0))
def _run_zhong_radius(space, f, p, seed, samples, out):
    r = pr.zhong_radius(WEIGHTS[p["weight"]], p["rho"])
    out.write_csv(["weight", "rho", "r"],
                  [[p["weight"], p["rho"], float(f"{r:.10f}")]])
    print(f"r(rho) = {r:.10f}")
    return 0


@_subcommand("strong_slope", takes=FUNC, values=CELLS,
             radii={**POSITIVES, "default": [1e-3, 1e-4, 1e-5]},
             n_samples=_count(64))
def _run_strong_slope(space, f, p, seed, samples, out):
    est = sl.strong_slope(f, p["values"], radii=tuple(p["radii"]),
                          n_samples=samples or p["n_samples"], seed=seed)
    out.write_csv(["lower", "upper", "tol"], [[est.lower, est.upper, est.tol]])
    return 0


@_subcommand("q_form", takes=FUNC, u=CELLS, w=CELLS, delta=_pos(1e-4),
             n_samples=_count(32))
def _run_q_form(space, f, p, seed, samples, out):
    est = sl.q_form(f, p["u"], p["w"], delta=p["delta"],
                    n_samples=samples or p["n_samples"], seed=seed)
    out.write_csv(["delta", "value"],
                  [[d, v] for d, v in est.schedule])
    return 0


@_subcommand("ekeland_point", takes=FUNC, **ENGINE)
def _run_ekeland(space, f, p, seed, samples, out):
    cert = pr.ekeland_point(f, pr.whole_space(space), p["u0"], p["sigma"],
                            p["rho"], seed=seed, n_samples=samples or 2000)
    out.write_csv(["status", "max_violation"],
                  [[cert.status, cert.violation.max_violation]])
    return out.write_certificates(cert)


@_subcommand("symmetric_ekeland", takes=FUNC, **ENGINE,
             variant=_enum(["I", "II", "IV", "V"], "II"))
def _run_symmetric_ekeland(space, f, p, seed, samples, out):
    cert = pr.symmetric_ekeland(f, space, p["u0"], p["sigma"], p["rho"],
                                variant=p["variant"], seed=seed,
                                n_samples=samples or 2000)
    out.write_csv(["variant", "status", "max_violation"],
                  [[p["variant"], cert.status, cert.violation.max_violation]])
    return out.write_certificates(cert)


@_subcommand("symmetric_borwein_preiss", takes=FUNC, **ENGINE,
             p_exp=_num(2, minimum=1))
def _run_borwein_preiss(space, f, p, seed, samples, out):
    cert = pr.symmetric_borwein_preiss(f, space, p["u0"], p["sigma"],
                                       p["rho"], p_exp=p["p_exp"], seed=seed,
                                       n_samples=samples or 2000)
    out.write_csv(["status", "max_violation"],
                  [[cert.status, cert.violation.max_violation]])
    return out.write_certificates(cert)


@_subcommand("symmetric_zhong", takes=FUNC, **ENGINE,
             weight=_enum(WEIGHTS, "zero"))
def _run_symmetric_zhong(space, f, p, seed, samples, out):
    cert = pr.symmetric_zhong(f, space, p["u0"], p["sigma"], p["rho"],
                              WEIGHTS[p["weight"]], seed=seed,
                              n_samples=samples or 2000)
    out.write_csv(["weight", "r", "status", "max_violation"],
                  [[p["weight"], cert.extras["r_of_rho"], cert.status,
                    cert.violation.max_violation]])
    return out.write_certificates(cert)


@_subcommand("dgz_check", takes=FUNC, v=CELLS, eps=_pos(0.1),
             delta=_pos(1.0))
def _run_dgz_check(space, f, p, seed, samples, out):
    g = pr.bump_perturbation(space, p["v"], p["eps"], p["delta"])
    cert = pr.dgz_check(f, g, p["v"], p["eps"], seed=seed,
                        n_samples=samples or 2000)
    out.write_csv(["status", "sup_g", "sup_gprime", "max_violation"],
                  [[cert.status, cert.measured["sup|g|"][0],
                    cert.measured["sup‖g'‖"][0],
                    cert.violation.max_violation]])
    return out.write_certificates(cert)


def _l2_sphere(space, level):
    """The ``l2_sphere`` constraint m·Σu² − level, with its gradient."""
    m = space.cell_measure
    return Functional(eval=lambda u: m * float(u.values @ u.values) - level,
                      gradient=lambda W: 2.0 * m * W, name="l2_sphere")


@_subcommand("constrained_symmetric_ekeland", takes=FUNC, u0=CELLS,
             eps=_pos(0.05), constraint=_enum(["l2_sphere"], "l2_sphere"),
             level=_num(1.0))
def _run_constrained(space, f, p, seed, samples, out):
    cert = pr.constrained_symmetric_ekeland(
        f, [_l2_sphere(space, p["level"])], 1, p["u0"], p["eps"], seed=seed,
        n_samples=samples or 2000)
    out.write_csv(["status", "multipliers", "residual"],
                  [[cert.status,
                    ";".join(repr(x) for x in cert.extras["multipliers"]),
                    cert.measured["‖df-Σλ·dG‖_X'"][0]]])
    return out.write_certificates(cert)


@_subcommand("path_minimax", takes=FUNC, psi=CELLS, m_nodes=_count(12),
             eps=_pos(0.05))
def _run_path_minimax(space, f, p, seed, samples, out):
    cert = pr.path_minimax(f, p["psi"], p["m_nodes"], p["eps"], seed=seed,
                           n_samples=samples or 600)
    out.write_csv(["status", "argmax_node", "f(u_eps)"],
                  [[cert.status, cert.extras["argmax_node"],
                    f.eval(cert.v)]])
    return out.write_certificates(cert)


@_subcommand("sqps_sequence", takes=FUNC, eps_schedule=SCHEDULE, box=BOX)
def _run_sqps(space, f, p, seed, samples, out):
    schedule = p["eps_schedule"]
    dom = pr.box_set(space, *p["box"]) if p["box"] else None
    res = pr.sqps_sequence(f, space, schedule, domain=dom, seed=seed,
                           n_samples=samples or 2000)
    rows = [[eps_h, c.status, c.measured["‖v-v*‖_V"][0],
             c.measured["slope_upper"][0], q.min_margin]
            for (c, q), eps_h in zip(res, schedule)]
    out.write_csv(["eps_h", "status", "symmetry_residual", "slope_upper",
                   "q_min_margin"], rows)
    return out.write_certificates([c for c, _ in res])


@_subcommand("quasilinear_experiment", takes=("integrand",),
             default="forced_dirichlet", eps=_pos(0.01))
def _run_quasilinear(space, f, p, seed, samples, out):
    cert = ap.quasilinear_experiment(f, space, p["eps"], seed=seed,
                                     n_samples=samples or 2000)
    out.write_csv(["status", "dual_norm", "symmetry_residual"],
                  [[cert.status, cert.measured["‖w_ε‖_dual"][0],
                    cert.measured["‖u_ε-u_ε*‖_V"][0]]])
    return out.write_certificates(cert)


@_subcommand("semilinear_experiment", takes=("nonlinearity",),
             default="linear_damping", eps_schedule=SCHEDULE, box=BOX)
def _run_semilinear(space, f, p, seed, samples, out):
    schedule = p["eps_schedule"]
    dom = pr.box_set(space, *p["box"]) if p["box"] else None
    certs = ap.semilinear_experiment(f, space, schedule, box=dom, seed=seed,
                                     n_samples=samples or 2000)
    rows = [[e, c.status, c.extras["psi_Hminus1"],
             c.measured["‖v-v*‖_V"][0], c.extras["second_order_min"]]
            for e, c in zip(schedule, certs)]
    out.write_csv(["eps_h", "status", "psi_Hminus1", "symmetry_residual",
                   "second_order_min"], rows)
    return out.write_certificates(certs)


@_subcommand("lower_derivative", g=_enum(SCALAR_FUNCS, "identity"),
             s=_num(0.0), delta=_pos(1e-3), n=_count(256))
def _run_lower_derivative(space, f, p, seed, samples, out):
    val, log = ap.lower_derivative(SCALAR_FUNCS[p["g"]], p["s"], p["delta"],
                                   p["n"], return_log=True)
    out.write_csv(["delta", "min_quotient"], [[d, v] for d, v in log])
    return 0


@_subcommand("caristi_fixed_point", contraction=_num(0.5), rate=_num(2.0),
             eps=_pos(0.1))
def _run_caristi(space, f, p, seed, samples, out):
    lam, rate = p["contraction"], p["rate"]

    def F(u):
        return GridFunction(space, lam * u.values)

    potential = Functional(eval=lambda u: rate * fs.norm_X(u),
                           symmetry_class="polarization-nonincreasing",
                           lower_bound=0.0, name="caristi-potential")
    xi, resid, cert = ap.caristi_fixed_point(
        F, potential, p["eps"], space, seed=seed,
        n_samples=samples or 2000, return_certificate=True)
    out.write_function(xi)
    out.write_csv(["residual", "bound"],
                  [[resid, cert.extras["caristi"]["bound"]]])
    return out.write_certificates(cert)


@_subcommand("clarke_fixed_point", sigma_contraction=_num(0.5), target=ZEROS,
             eps=_pos(0.1))
def _run_clarke(space, f, p, seed, samples, out):
    sig = p["sigma_contraction"]
    target = _zeros_or(space, p["target"])

    def F(u):
        return GridFunction(space, target + sig * (u.values - target))

    xi, resid, cert = ap.clarke_fixed_point(
        F, sig, p["eps"], space, seed=seed,
        n_samples=samples or 2000, return_certificate=True)
    out.write_function(xi)
    out.write_csv(["residual", "bound"],
                  [[resid, cert.extras["clarke"]["bound"]]])
    return out.write_certificates(cert)


@_subcommand("petal_inclusions", x0=CELLS, x1=CELLS, eps=_pos(0.5))
def _run_petal_inclusions(space, f, p, seed, samples, out):
    P = ap.Petal(p["eps"], p["x0"], p["x1"])
    rep = ap.petal_inclusions(P, n_samples=samples or 1000, seed=seed)
    out.write_csv(list(rep.keys()), [list(rep.values())])
    return 0 if rep["ball_violations"] == 0 and rep["drop_violations"] == 0 else 2


@_subcommand("verify_certificate", takes=FUNC,
             certificate_path={"type": "string"})
def _run_verify(space, f, p, seed, samples, out):
    path = "config.parameters.certificate_path"
    try:
        cert = pr.Certificate.from_json_dict(
            json.loads(Path(p["certificate_path"]).read_text()))
    except (OSError, ValueError, KeyError, TypeError, SymvarError) as exc:
        raise ConfigError(f"{path}: cannot read the certificate: {exc!r}")
    if cert.v.space.signature != space.signature:
        raise ConfigError(
            f"{path}: the certificate's grid (dimension, n, radius, p, qV, "
            f"qW) = {cert.v.space.signature} differs from config.grid "
            f"{space.signature}")
    rep = pr.verify_certificate(f, cert, samples or 2000, seed=seed + 104729)
    out.write_csv(["max_violation", "slack", "n_samples"],
                  [[rep.max_violation, cert.slack, rep.n_samples]])
    return 0 if rep.max_violation <= cert.slack else 2


CONFIG = _object({
    "schema": {"const": SCHEMA},
    "subcommand": {"enum": list(HANDLERS)},
    "grid": _object(GRID),
    "functional": {"type": "object", "default": None},
    "parameters": {"type": "object", "default": {}},
    "seed": {"type": "integer", "minimum": 0, "default": 0},
    "output": {**_object(OUTPUT), "default": {}},
})


def config_schema() -> dict:
    """The draft-07 JSON Schema of the config format, derived from the
    registries; ``config_schema.json`` is this dict, serialized."""
    rules = []
    for name, sub in HANDLERS.items():
        params = _object(sub.params)
        then = {"required": ["parameters"] if params["required"] else [],
                "properties": {"parameters": params}}
        if not sub.takes:
            then["not"] = {"required": ["functional"]}
        else:
            then["properties"]["functional"] = {
                "properties": {"name": {"enum": sub.names}}}
            if not sub.default:
                then["required"].append("functional")
        rules.append({"if": {"properties": {"subcommand": {"const": name}}},
                      "then": then})
    functional = {
        "type": "object", "required": ["name"],
        "properties": {"name": {"enum": list(FUNCTIONALS)}},
        "allOf": [{"if": {"properties": {"name": {"const": n}}},
                   "then": _fn_object(n)} for n in FUNCTIONALS]}
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            "$id": SCHEMA, "title": "symvar experiment config", **CONFIG,
            "properties": {**CONFIG["properties"], "functional": functional},
            "allOf": rules}


def _check_functional(fdef, sub):
    """(name, checked constants) of the config's functional, or None."""
    path = "config.functional"
    if fdef is None and sub.default:
        fdef = {"name": sub.default}
    if fdef is None:
        if sub.takes:
            raise ConfigError(f"{path}: required by this subcommand")
        return None
    if not sub.takes:
        raise ConfigError(f"{path}: this subcommand takes no functional")
    if "name" not in fdef:
        raise ConfigError(f"{path}: missing required key 'name'")
    name = _check(fdef["name"], {"enum": sub.names}, f"{path}.name")
    return name, _check(fdef, _fn_object(name), path)


def _build_functional(space, fdef, sub):
    if fdef is None:
        return None
    name, params = fdef
    fn = FUNCTIONALS[name]
    _to_grid(space, params, fn.params, "config.functional")
    built = fn.build(space, params)
    if fn.kind == "integrand" and "functional" in sub.takes:
        return ap.quasilinear_functional(built, space)
    return built


def run_config(config_path, *, seed=None, out_dir=None, n_samples=None) -> int:
    if n_samples is not None and n_samples < 1:
        # a count below 1 would sample nothing and certify vacuously
        print(f"error: --samples must be at least 1, got {n_samples}",
              file=sys.stderr)
        return 1
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
        # every key is checked before the grid is built
        cfg = _check(cfg, CONFIG, "config")
        name = cfg["subcommand"]
        sub = HANDLERS[name]
        fdef = _check_functional(cfg["functional"], sub)
        params = _check(cfg["parameters"], _object(sub.params),
                        "config.parameters")
        g = cfg["grid"]
        space = fs.make_grid(g["dimension"], g["n"], g["radius"], g["p"],
                             g["qW"], q_V=g["qV"])
        _to_grid(space, params, sub.params, "config.parameters")
        f = _build_functional(space, fdef, sub)
        out = _Out(cfg["output"], out_dir or os.environ.get("SYMVAR_OUT", "."),
                   name)
        return sub.run(space, f, params, cfg["seed"] if seed is None
                       else int(seed), n_samples, out)
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
                      help="override verification sample counts (at least 1)")
    args = parser.parse_args(argv)
    return run_config(args.config, seed=args.seed, out_dir=args.out,
                      n_samples=args.samples)


if __name__ == "__main__":
    sys.exit(main())
