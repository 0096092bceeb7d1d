"""Config tables for ``symvar run``, shared by ``tests/test_cli.py`` and
``scripts/cert_digests.py``.

``valid_cases`` holds one small config per subcommand (plus an l1 petal
variant and ``strong_slope`` on the ``norm_dist`` functional and on an
integrand), each with the exit code it must give; ``REJECTED`` holds configs
that must exit 1 with a diagnostic naming the given field.
"""

from __future__ import annotations

import math
from pathlib import Path

SCHEMA = "symvar-config/1"
SAMPLES = 300           # the --samples override every table run uses
U0_WELL = [0.55, 0.65, 0.75, 0.85, 0.85, 0.75, 0.65, 0.55]
U4 = [0.2, 0.0, 0.9, 0.5]
# a symmetric ball at L² distance 3 from the segment {(a, a): a >= 0}
DROP_CENTER = [0.5 + 3.0 / math.sqrt(2.0) + 1.0 / math.sqrt(2.0)] * 2


def grid(n):
    return {"dimension": 1, "n": n, "radius": 1.0, "p": 2, "qW": 4}


def config(subcommand, n, parameters=None, functional=None, seed=0):
    cfg = {"schema": SCHEMA, "subcommand": subcommand, "grid": grid(n),
           "parameters": parameters or {}, "seed": seed}
    if functional is not None:
        cfg["functional"] = functional
    return cfg


WELL = {"name": "double_well"}
QUAD = {"name": "quadratic"}
ENGINE = {"u0": U0_WELL, "sigma": 0.1, "rho": 0.1}
NO_MOUNTAIN_PASS = ("every registered functional is convex or peaks at an "
                    "end of the path, so path_minimax raises NoMountainPass")


def valid_cases(out_root):
    """(label, config, expected exit, reason) for every table entry.

    Each entry writes into ``out_root / label``; ``verify_certificate``
    re-checks the certificate of the ``symmetric_ekeland`` entry, which
    runs before it."""
    cert = Path(out_root) / "symmetric_ekeland" / \
        "symmetric_ekeland_certificate.json"
    petal = {"x": [1.0, 1.0], "y": [0.0, 0.0], "eps": 0.3,
             "minimality_samples": 1000}
    table = [
        ("make_grid", config("make_grid", 4)),
        ("norms", config("norms", 4, {"values": U4})),
        ("theta", config("theta", 2, {"values": [-1.0, 2.0]})),
        ("drop_point", config("drop_point", 2, {
            "ball_center": DROP_CENTER, "x": [0.4, 0.4], "set": "singleton",
            "point": [0.4, 0.4], "minimality_samples": 1000})),
        ("petal_point", config("petal_point", 2, petal, seed=14)),
        ("petal_point/l1", config("petal_point", 2, {**petal, "norm": "l1"},
                                  seed=14)),
        ("polarize", config("polarize", 4, {"values": [0, 0, 1, 0],
                                            "axis": [1.0], "offset": 0.0})),
        ("schwarz", config("schwarz", 4, {"values": U4})),
        ("approx_symmetrize", config("approx_symmetrize", 4,
                                     {"values": [0, 0, 1, 0], "rho": 0.01})),
        ("zhong_radius", config("zhong_radius", 2,
                                {"weight": "linear", "rho": 1.0})),
        ("strong_slope", config("strong_slope", 4, {"values": U4},
                                {**QUAD, "center": [0, 0, 0, 0]})),
        ("strong_slope/norm_dist", config(
            "strong_slope", 4, {"values": U4},
            {"name": "norm_dist", "center": [0.1, 0.4, 0.4, 0.1]})),
        # an integrand where a functional is due: the CLI wraps it
        ("strong_slope/forced_dirichlet", config(
            "strong_slope", 4, {"values": U4},
            {"name": "forced_dirichlet", "c": 1.5})),
        ("q_form", config("q_form", 4, {"u": U4, "w": [1, 0, 0, 1]}, QUAD)),
        ("ekeland_point", config("ekeland_point", 8, ENGINE, WELL, seed=1)),
        ("symmetric_ekeland", config("symmetric_ekeland", 8,
                                     {**ENGINE, "variant": "II"}, WELL,
                                     seed=3)),
        ("symmetric_borwein_preiss", config("symmetric_borwein_preiss", 8,
                                            {**ENGINE, "p_exp": 2}, WELL,
                                            seed=4)),
        ("symmetric_zhong", config("symmetric_zhong", 8,
                                   {**ENGINE, "weight": "linear"}, WELL,
                                   seed=5)),
        ("dgz_check", config("dgz_check", 8, {"v": U0_WELL, "eps": 0.1},
                             WELL, seed=6)),
        ("constrained_symmetric_ekeland", config(
            "constrained_symmetric_ekeland", 2, {"u0": [1.0, 1.0]}, QUAD,
            seed=7)),
        ("path_minimax", config("path_minimax", 2,
                                {"psi": [1.0, 1.0], "m_nodes": 8}, WELL,
                                seed=8)),
        ("sqps_sequence", config("sqps_sequence", 4,
                                 {"eps_schedule": [0.1, 0.05]}, QUAD, seed=9)),
        ("quasilinear_experiment", config("quasilinear_experiment", 8,
                                          {"eps": 0.01}, seed=10)),
        ("semilinear_experiment", config("semilinear_experiment", 8,
                                         {"eps_schedule": [0.1, 0.05]},
                                         seed=11)),
        ("lower_derivative", config("lower_derivative", 2,
                                    {"g": "abs", "s": 0.0, "delta": 1e-3})),
        ("caristi_fixed_point", config("caristi_fixed_point", 4,
                                       {"eps": 0.25}, seed=12)),
        ("clarke_fixed_point", config("clarke_fixed_point", 4,
                                      {"sigma_contraction": 0.4, "eps": 0.3},
                                      seed=13)),
        ("petal_inclusions", config("petal_inclusions", 2,
                                    {"x0": [1.0, 1.0], "x1": [0.0, 0.0]},
                                    seed=15)),
        ("verify_certificate", config("verify_certificate", 8,
                                      {"certificate_path": str(cert)}, WELL)),
    ]
    return [(label, cfg, 1 if label == "path_minimax" else 0,
             NO_MOUNTAIN_PASS if label == "path_minimax" else "")
            for label, cfg in table]


def _ekeland(**params):
    return config("symmetric_ekeland", 8, {**ENGINE, **params}, WELL)


def _norms(values=U4, **top):
    return {**config("norms", 4, {"values": values}), **top}


# (label, config, the field its diagnostic must name)
REJECTED = [
    ("sigma not a number", _ekeland(sigma="abc"), "config.parameters.sigma"),
    ("unknown variant", _ekeland(variant="VI"), "config.parameters.variant"),
    ("variant III", _ekeland(variant="III"), "config.parameters.variant"),
    ("values a string", _norms("abcd"), "config.parameters.values"),
    ("m_nodes a string", config("path_minimax", 2,
                                {"psi": [1.0, 1.0], "m_nodes": "x"}, WELL),
     "config.parameters.m_nodes"),
    ("seed a string", _norms(seed="x"), "config.seed"),
    ("NaN in values", _norms([0.2, math.nan, 0.9, 0.5]),
     "config.parameters.values[1]"),
    ("grid p a string", _norms(grid={**grid(4), "p": "x"}), "config.grid.p"),
    ("box a number", config("sqps_sequence", 4, {"box": 5}, QUAD),
     "config.parameters.box"),
    ("negative seed", _norms(seed=-1), "config.seed"),
    ("polarize with eps_schedule", config("polarize", 4, {
        "values": [0, 0, 1, 0], "eps_schedule": [0.1]}),
     "config.parameters: unknown key(s) ['eps_schedule']"),
    ("symmetric_ekeland with weight", _ekeland(weight="linear"),
     "config.parameters: unknown key(s) ['weight']"),
    ("theta with a functional", config("theta", 2, {"values": [-1.0, 2.0]},
                                       QUAD), "config.functional"),
    ("petal norm l2", config("petal_point", 2, {
        "x": [1.0, 1.0], "y": [0.0, 0.0], "norm": "l2"}),
     "config.parameters.norm"),
    ("negative sigma", _ekeland(sigma=-0.1), "config.parameters.sigma"),
    ("parameters a list", _norms(parameters=[1, 2]), "config.parameters"),
    ("grid a list", _norms(grid=[1, 4]), "config.grid"),
    ("nonlinearity where a functional is due", config(
        "semilinear_experiment", 8, {}, QUAD), "config.functional.name"),
    ("missing certificate file", config(
        "verify_certificate", 4, {"certificate_path": "no/such/cert.json"},
        WELL), "config.parameters.certificate_path"),
    ("values missing", config("norms", 4), "config.parameters: missing "
     "required key 'values'"),
    ("values of the wrong length", _norms([0.2, 0.0, 0.9]),
     "config.parameters.values"),
    # np.allclose would broadcast an axis of the wrong length
    ("2D polarize with a 1-entry axis", {
        **config("polarize", 4, {"values": [0.0] * 15 + [1.0],
                                 "axis": [0.7071067811865476],
                                 "offset": 0.0}),
        "grid": {**grid(4), "dimension": 2}}, "config.parameters.axis"),
    ("1D polarize with a 2-entry axis", config("polarize", 4, {
        "values": [0, 0, 1, 0], "axis": [1, 1], "offset": 0.0}),
     "config.parameters.axis"),
    ("m_nodes not an integer", config("path_minimax", 2, {
        "psi": [1.0, 1.0], "m_nodes": 2.5}, WELL), "config.parameters.m_nodes"),
    ("empty eps_schedule", config("sqps_sequence", 4, {"eps_schedule": []},
                                  QUAD), "config.parameters.eps_schedule"),
    ("singleton set without its point", config("drop_point", 2, {
        "ball_center": DROP_CENTER, "x": [0.4, 0.4], "set": "singleton"}),
     "config.parameters.point"),
    ("functional missing", config("dgz_check", 8, {"v": U0_WELL}),
     "config.functional: required"),
    ("functional without a name", config("dgz_check", 8, {"v": U0_WELL},
                                         {"center": U0_WELL}),
     "config.functional: missing required key 'name'"),
]
