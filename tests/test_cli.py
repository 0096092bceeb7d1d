import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symvar import InvalidArgument, make_grid
from symvar.cli import run_config


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=1))
    return p


def _grid1d(n=4):
    return {"dimension": 1, "n": n, "radius": 1.0, "p": 2, "qW": 4}


def test_polarize_demo_swap(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema": "symvar-config/1",
        "subcommand": "polarize",
        "grid": _grid1d(),
        "parameters": {"values": [0, 0, 1, 0], "axis": [1.0], "offset": 0.0},
        "seed": 0,
    })
    code = run_config(cfg, out_dir=str(tmp_path))
    assert code == 0
    out = json.loads((tmp_path / "polarize_function.json").read_text())
    assert out["values"] == [0.0, 1.0, 0.0, 0.0]


def test_zhong_radius_ten_digits(tmp_path, capsys):
    cfg = _write(tmp_path, "z.json", {
        "schema": "symvar-config/1",
        "subcommand": "zhong_radius",
        "grid": _grid1d(2),
        "parameters": {"weight": "linear", "rho": 1.0},
        "seed": 0,
    })
    code = run_config(cfg, out_dir=str(tmp_path))
    assert code == 0
    printed = capsys.readouterr().out
    assert f"{np.e - 1:.10f}" in printed
    csv = (tmp_path / "zhong_radius.csv").read_text()
    assert "linear" in csv


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "schema": "symvar-config/1",
        "subcommand": "polarize",
        "grid": _grid1d(),
        "parameters": {"values": [0, 0, 1, 0]},
        "bogus": 1,
    })
    code = run_config(cfg, out_dir=str(tmp_path))
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_bad_schema_and_bad_json(tmp_path, capsys):
    cfg = _write(tmp_path, "bad2.json", {"schema": "other/9",
                                         "subcommand": "polarize",
                                         "grid": _grid1d()})
    assert run_config(cfg, out_dir=str(tmp_path)) == 1
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_config(p, out_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "line" in err


def _engine_cfg(tmp_path, seed=3):
    return _write(tmp_path, f"eng{seed}.json", {
        "schema": "symvar-config/1",
        "subcommand": "symmetric_ekeland",
        "grid": _grid1d(),
        "functional": {"name": "double_well"},
        "parameters": {"u0": [0.4, 0.7, 0.55, 0.3], "sigma": 0.3,
                       "rho": 0.3, "variant": "V"},
        "seed": seed,
        "output": {"certificate": "cert.json"},
    })


def test_engine_run_and_determinism(tmp_path):
    cfg = _engine_cfg(tmp_path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run_config(cfg, out_dir=str(d1)) == 0
    assert run_config(cfg, out_dir=str(d2)) == 0
    b1 = (d1 / "cert.json").read_bytes()
    b2 = (d2 / "cert.json").read_bytes()
    assert b1 == b2
    assert (d1 / "symmetric_ekeland.csv").read_bytes() == \
        (d2 / "symmetric_ekeland.csv").read_bytes()
    cert = json.loads(b1)
    assert cert["status"] == "PASS"
    assert cert["schema"] == "symvar-certificate/1"


def test_verify_subcommand_detects_corruption(tmp_path):
    cfg = _engine_cfg(tmp_path, seed=5)
    rundir = tmp_path / "run"
    assert run_config(cfg, out_dir=str(rundir)) == 0
    cert_path = rundir / "cert.json"
    cert = json.loads(cert_path.read_text())

    verify_cfg = _write(tmp_path, "verify.json", {
        "schema": "symvar-config/1",
        "subcommand": "verify_certificate",
        "grid": _grid1d(),
        "functional": {"name": "double_well"},
        "parameters": {"certificate_path": str(cert_path)},
        "seed": 0,
    })
    assert run_config(verify_cfg, out_dir=str(tmp_path)) == 0

    # corrupt the output point: shift v by 10·rho
    cert["v"]["values"] = [x + 3.0 for x in cert["v"]["values"]]
    bad_path = rundir / "cert_bad.json"
    bad_path.write_text(json.dumps(cert))
    verify_bad = _write(tmp_path, "verify_bad.json", {
        "schema": "symvar-config/1",
        "subcommand": "verify_certificate",
        "grid": _grid1d(),
        "functional": {"name": "double_well"},
        "parameters": {"certificate_path": str(bad_path)},
        "seed": 0,
    })
    assert run_config(verify_bad, out_dir=str(tmp_path)) == 2


def test_samples_below_one_exit_1(tmp_path, capsys):
    # a count below 1 draws nothing: the run would write a vacuous PASS
    from symvar.cli import main

    cfg = _engine_cfg(tmp_path)
    for bad in ("0", "-5"):
        out = tmp_path / f"out{bad}"
        assert main(["run", str(cfg), "--out", str(out),
                     "--samples", bad]) == 1
        assert capsys.readouterr().err == (
            f"error: --samples must be at least 1, got {bad}\n")
        assert not out.exists()
    assert main(["run", str(cfg), "--out", str(tmp_path / "out1"),
                 "--samples", "1"]) == 0


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema": "symvar-config/1",
        "subcommand": "schwarz",
        "grid": _grid1d(),
        "parameters": {"values": [0.2, 0.0, 0.9, 0.5]},
        "seed": 0,
    })
    proc = subprocess.run([sys.executable, "-m", "symvar.cli", "run",
                           str(cfg), "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    out = json.loads((tmp_path / "schwarz_function.json").read_text())
    assert out["values"] == [0.2, 0.9, 0.5, 0.0]


def test_sqps_csv_table(tmp_path):
    cfg = _write(tmp_path, "s.json", {
        "schema": "symvar-config/1",
        "subcommand": "sqps_sequence",
        "grid": _grid1d(),
        "functional": {"name": "quadratic"},
        "parameters": {"eps_schedule": [0.1, 0.05]},
        "seed": 1,
    })
    assert run_config(cfg, out_dir=str(tmp_path), n_samples=300) == 0
    rows = (tmp_path / "sqps_sequence.csv").read_text().strip().splitlines()
    assert rows[0].startswith("eps_h,status,symmetry_residual")
    assert len(rows) == 3


def test_lower_derivative_csv(tmp_path):
    cfg = _write(tmp_path, "ld.json", {
        "schema": "symvar-config/1",
        "subcommand": "lower_derivative",
        "grid": _grid1d(2),
        "parameters": {"g": "abs", "s": 0.0, "delta": 1e-3},
        "seed": 0,
    })
    assert run_config(cfg, out_dir=str(tmp_path)) == 0
    rows = (tmp_path / "lower_derivative.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert float(rows[-1].split(",")[1]) == pytest.approx(-1.0, abs=0.01)


def test_env_var_output_dir(tmp_path, monkeypatch):
    outdir = tmp_path / "envout"
    monkeypatch.setenv("SYMVAR_OUT", str(outdir))
    cfg = _write(tmp_path, "e.json", {
        "schema": "symvar-config/1",
        "subcommand": "theta",
        "grid": _grid1d(2),
        "parameters": {"values": [-1.0, 2.0]},
        "seed": 0,
    })
    assert run_config(cfg) == 0
    out = json.loads((outdir / "theta_function.json").read_text())
    assert out["values"] == [1.0, 2.0]


def test_approx_symmetrize_subcommand_writes_word(tmp_path):
    cfg = _write(tmp_path, "a.json", {
        "schema": "symvar-config/1",
        "subcommand": "approx_symmetrize",
        "grid": _grid1d(4),
        "parameters": {"values": [0, 0, 1, 0], "rho": 0.01},
        "seed": 0,
    })
    assert run_config(cfg, out_dir=str(tmp_path)) == 0
    out = json.loads((tmp_path / "approx_symmetrize_function.json").read_text())
    assert out["values"] == [0.0, 1.0, 0.0, 0.0]
    assert out["polarizer_sequence"] == [{"axis": [1.0], "offset": 0.0}]
    # numpy scalars in the row must be written as plain numbers
    header, row = (tmp_path / "approx_symmetrize.csv").read_text().split()
    assert header == "rho,residual,sequence_length"
    assert [float(x) for x in row.split(",")] == [0.01, 0.0, 1.0]


def test_shipped_schema_matches_registry():
    import symvar.cli as cli
    schema = json.loads(cli.CONFIG_SCHEMA_PATH.read_text())
    assert schema["$id"] == cli.SCHEMA
    assert set(schema["properties"]["subcommand"]["enum"]) == set(cli.HANDLERS)
    grid_keys = set(schema["properties"]["grid"]["properties"])
    assert grid_keys == {"dimension", "n", "radius", "p", "qW", "qV"}


def test_unknown_parameter_and_functional_keys_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "rhoo.json", {
        "schema": "symvar-config/1",
        "subcommand": "approx_symmetrize",
        "grid": _grid1d(4),
        "parameters": {"values": [0, 0, 1, 0], "rhoo": 0.5},
        "seed": 0,
    })
    assert run_config(cfg, out_dir=str(tmp_path)) == 1
    assert "config.parameters: unknown key(s) ['rhoo']" in \
        capsys.readouterr().err
    assert not (tmp_path / "approx_symmetrize.csv").exists()

    cfg = _write(tmp_path, "centre.json", {
        "schema": "symvar-config/1",
        "subcommand": "strong_slope",
        "grid": _grid1d(4),
        "functional": {"name": "quadratic", "centre": [0, 0, 0, 0]},
        "parameters": {"values": [0, 0, 1, 0]},
        "seed": 0,
    })
    assert run_config(cfg, out_dir=str(tmp_path)) == 1
    assert "config.functional: unknown key(s) ['centre']" in \
        capsys.readouterr().err


def test_readme_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (config,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    cfg = tmp_path / "readme.json"
    cfg.write_text(config)
    assert run_config(cfg, out_dir=str(tmp_path / "cli")) == 0
    assert json.loads((tmp_path / "cli" / "cert.json").read_text())[
        "status"] == "PASS"

    (quick_start,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(quick_start, namespace)
    assert namespace["cert"].status == "PASS"


# ---------------------------------------------------------------------------
# the config tables of cli_cases.py

def _run_table_entry(tmp_path, label, cfg, **kw):
    path = _write(tmp_path, f"{label.replace('/', '_')}.json", cfg)
    return run_config(path, out_dir=str(tmp_path / "out" / label), **kw)


def test_config_table_runs_every_subcommand(tmp_path):
    import symvar.cli as cli
    from cli_cases import SAMPLES, valid_cases

    cases = valid_cases(tmp_path / "out")
    assert {cfg["subcommand"] for _, cfg, _, _ in cases} == set(cli.HANDLERS)
    words = {"PASS", "FAILED", "True", "False", *cli.WEIGHTS,
             *cli.HANDLERS["symmetric_ekeland"].params["variant"]["enum"]}
    for label, cfg, expected, reason in cases:
        code = _run_table_entry(tmp_path, label, cfg, n_samples=SAMPLES)
        assert code == expected, (label, reason)
        for csv in (tmp_path / "out" / label).glob("*.csv"):
            for line in csv.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    if cell not in words:
                        float(cell)     # raises on a cell that is neither


def test_rejected_configs_name_their_field(tmp_path, capsys):
    from cli_cases import REJECTED

    for label, cfg, field in REJECTED:
        assert _run_table_entry(tmp_path, label, cfg) == 1, label
        err = capsys.readouterr().err
        assert field in err, (label, err)


def test_unreadable_config_path_exits_1(tmp_path, capsys):
    assert run_config(tmp_path / "no_such_config.json") == 1
    assert "cannot read config" in capsys.readouterr().err


def test_shipped_schema_is_generated_from_registry():
    import symvar.cli as cli
    assert cli.CONFIG_SCHEMA_PATH.read_text() == \
        json.dumps(cli.config_schema(), indent=1) + "\n"


def test_verify_rejects_certificate_of_another_grid(tmp_path, capsys):
    cfg = _engine_cfg(tmp_path, seed=5)
    rundir = tmp_path / "run"
    assert run_config(cfg, out_dir=str(rundir)) == 0
    for label, grid in (("n8", _grid1d(8)),
                        ("r2", {**_grid1d(), "radius": 2.0})):
        verify = _write(tmp_path, f"verify_{label}.json", {
            "schema": "symvar-config/1",
            "subcommand": "verify_certificate",
            "grid": grid,
            "functional": {"name": "double_well"},
            "parameters": {"certificate_path": str(rundir / "cert.json")},
        })
        assert run_config(verify, out_dir=str(tmp_path)) == 1, label
        err = capsys.readouterr().err
        assert "config.parameters.certificate_path" in err
        for g in (_grid1d(), grid):
            space = make_grid(g["dimension"], g["n"], g["radius"], g["p"],
                              g["qW"])
            assert str(space.signature) in err
    assert not (tmp_path / "verify_certificate.csv").exists()


def test_verify_rejects_a_malformed_certificate(tmp_path, capsys):
    from cli_cases import SAMPLES, WELL, config, valid_cases

    cases = {label: cfg for label, cfg, _, _ in valid_cases(tmp_path / "out")}
    label = "symmetric_borwein_preiss"
    assert _run_table_entry(tmp_path, label, cases[label],
                            n_samples=SAMPLES) == 0
    cert = json.loads((tmp_path / "out" / label /
                       f"{label}_certificate.json").read_text())
    eta4 = {**cert["eta"], "n": 4, "values": cert["eta"]["values"][:4]}
    for field, value in (("eta", eta4), ("sigma", "0.1"), ("extras", None)):
        path = _write(tmp_path, f"cert_{field}.json", {**cert, field: value})
        verify = config("verify_certificate", 8,
                        {"certificate_path": str(path)}, WELL)
        assert _run_table_entry(tmp_path, f"verify_{field}", verify) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "config.parameters.certificate_path" in err and field in err


def test_verify_rejects_malformed_zhong_extras(tmp_path, capsys):
    # the radius and weight that re-verification reads from extras must be
    # finite positive numbers: a string or a boolean is one error line
    from cli_cases import SAMPLES, WELL, config, valid_cases
    from symvar.principles import Certificate

    cases = {label: cfg for label, cfg, _, _ in valid_cases(tmp_path / "out")}
    label = "symmetric_borwein_preiss"
    assert _run_table_entry(tmp_path, label, cases[label],
                            n_samples=SAMPLES) == 0
    cert = json.loads((tmp_path / "out" / label /
                       f"{label}_certificate.json").read_text())
    for key in ("r_of_rho", "weight_at_v"):
        for bad in ("0.1", True):
            raw = {**cert, "extras": {**cert["extras"], key: bad}}
            with pytest.raises(InvalidArgument, match=f"extras.{key}"):
                Certificate.from_json_dict(raw)
            path = _write(tmp_path, f"cert_{key}.json", raw)
            verify = config("verify_certificate", 8,
                            {"certificate_path": str(path)}, WELL)
            assert _run_table_entry(tmp_path, f"verify_{key}", verify) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "config.parameters.certificate_path" in err and key in err


def test_verify_rejects_a_certificate_with_rho_zero(tmp_path, capsys):
    # a certificate whose v was moved fails re-verification with its real ρ;
    # with ρ = 0 the sampled balls shrink onto v, so the record is refused
    from cli_cases import QUAD, config

    issue = config("symmetric_ekeland", 8, {
        "u0": [0.0] * 8, "sigma": 0.1, "rho": 0.1, "variant": "II"},
        QUAD, seed=1)
    issue["output"] = {"certificate": "cert.json"}
    assert _run_table_entry(tmp_path, "issue", issue, n_samples=300) == 0
    cert = json.loads((tmp_path / "out" / "issue" / "cert.json").read_text())
    cert["v"]["values"] = [x + 0.2 for x in cert["v"]["values"]]
    for rho, code in ((0.1, 2), (0, 1)):
        path = _write(tmp_path, f"moved_{rho}.json", {**cert, "rho": rho})
        verify = config("verify_certificate", 8,
                        {"certificate_path": str(path)}, QUAD)
        assert _run_table_entry(tmp_path, f"verify_{rho}", verify,
                                n_samples=300) == code
        err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "config.parameters.certificate_path" in err and "rho" in err


def test_strong_slope_lower_end_is_zero_off_p2(tmp_path):
    # the double well's X-Riesz derivative has X-norm 0.0572 here, above the
    # exact weak slope 0.0425: off p = 2 it is not the dual norm of df
    cfg = _write(tmp_path, "slope.json", {
        "schema": "symvar-config/1",
        "subcommand": "strong_slope",
        "grid": {"dimension": 1, "n": 8, "radius": 1.0, "p": 1.5, "qW": 4},
        "functional": {"name": "double_well"},
        "parameters": {"values": [0.346, 0.822, 0.33, -1.303, 0.905, 0.446,
                                  -0.537, 0.581]},
        "seed": 0,
    })
    assert run_config(cfg, out_dir=str(tmp_path)) == 0
    header, row = (tmp_path / "strong_slope.csv").read_text().split()
    assert header == "lower,upper,tol"
    lower, upper, _ = (float(x) for x in row.split(","))
    assert 0.0 == lower <= upper


def test_library_argument_errors_exit_1(tmp_path, capsys):
    for sub, functional, params in (
            ("sqps_sequence", {"name": "quadratic"},
             {"eps_schedule": [0.05, 0.1]}),
            ("semilinear_experiment", None, {"eps_schedule": [0.05, 0.1]}),
            ("strong_slope", {"name": "quadratic"},
             {"values": [0, 0, 1, 0], "radii": [1e-3, 1e-3]})):
        cfg = {"schema": "symvar-config/1", "subcommand": sub,
               "grid": _grid1d(), "parameters": params}
        if functional:
            cfg["functional"] = functional
        assert run_config(_write(tmp_path, f"{sub}.json", cfg),
                          out_dir=str(tmp_path), n_samples=50) == 1, sub
        assert "InvalidArgument" in capsys.readouterr().err


def test_registered_power_nonlinearities_are_bitwise_elementwise():
    # numpy's array power may differ from scalar pow in the last bit, by
    # CPU; the registered cubic and cube give on an array exactly what they
    # give per Python float
    from symvar.cli import FUNCTIONALS, SCALAR_FUNCS

    s = 3.0 * np.random.default_rng(0).standard_normal(20000)
    cubic = FUNCTIONALS["cubic"].build(make_grid(1, 4, 1.0, 2, 4), {})
    for fn in (cubic.g, cubic.G, SCALAR_FUNCS["cube"]):
        arr = fn(s)
        per = np.array([fn(float(v)) for v in s])
        assert np.array_equal(arr, per)


def test_set_projections_land_in_their_sets():
    # SetOracle's rule: project lands inside the set, for every CLI set
    # and the built-in cone and box, on random vectors of many sizes
    from symvar.cli import SETS
    from symvar.principles import box_set, nonneg_cone

    space = make_grid(1, 8, 1.0, 2, 4)
    rng = np.random.default_rng(21)
    point = space.function(np.abs(rng.standard_normal(8)))
    oracles = {f"{name}/{level}": SETS[name](
        {"level": level, "lo": level, "point": point})
        for name in SETS for level in (1e-3, 1.0, 7.5)}
    oracles.update(cone=nonneg_cone(space),
                   box=box_set(space, -0.5, rng.uniform(0.0, 2.0, 8)))
    for label, oracle in oracles.items():
        for scale in (0.1, 1.0, 10.0, 1e4):
            for v in scale * rng.standard_normal((300, 8)):
                assert oracle.contains(oracle.project(v)), (label, v)
    halfplane = SETS["halfplane_sum"]({"level": 1.0})
    assert np.array_equal(halfplane.project(np.array([2.0, -1.0, 3.0])),
                          [0.0, 0.0, 1.0])


@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 128), (2, 4)])
def test_eval_batch_equals_call_bitwise(dimension, n):
    # every registered functional that defines eval_batch gives on a block
    # exactly what __call__ gives on each row
    from symvar.cli import FUNCTIONALS, _check, _fn_object, _to_grid
    from symvar.funcspace import GridFunction

    space = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(n)
    W = rng.standard_normal((300, space.n_cells)) \
        * rng.uniform(1e-2, 1e2, (300, 1))
    batched = []
    for name, fn in FUNCTIONALS.items():
        if fn.kind != "functional":
            continue
        for given in ({}, {"center": list(rng.standard_normal(space.n_cells)),
                           "radius": 0.7}):
            params = _check({"name": name, **{k: v for k, v in given.items()
                                              if k in fn.params}},
                            _fn_object(name), "functional")
            _to_grid(space, params, fn.params, "functional")
            f = fn.build(space, params)
            if f.eval_batch is None:
                continue
            batched.append(name)
            rows = f.eval_batch(W)
            assert np.array_equal(
                rows, [f(GridFunction(space, w)) for w in W]), name
    assert {"quadratic", "double_well"} <= set(batched)


def _shipped_functionals(space, rng):
    """(label, Functional) for every registered functional, integrand and
    nonlinearity, built as the CLI builds them, with default and with drawn
    parameters; each nonlinearity also on the box [−0.5, 0.5]."""
    from symvar import applications as ap
    from symvar.cli import FUNCTIONALS, _check, _fn_object, _to_grid
    from symvar.principles import box_set

    out = []
    for name, fn in FUNCTIONALS.items():
        for given in ({}, {"center": list(rng.standard_normal(space.n_cells)),
                           "radius": 0.7, "c": 0.3}):
            params = _check({"name": name, **{k: v for k, v in given.items()
                                              if k in fn.params}},
                            _fn_object(name), "functional")
            _to_grid(space, params, fn.params, "functional")
            built = fn.build(space, params)
            if fn.kind == "integrand":
                out.append((name, ap.quasilinear_functional(built, space)))
            elif fn.kind == "nonlinearity":
                out.append((name, ap.semilinear_functional(built, space)))
                out.append((f"{name}/box", ap.semilinear_functional(
                    built, space, box_set(space, -0.5, 0.5))))
            else:
                out.append((name, built))
    return out


GRADIENT_GRIDS = [(1, 8), (1, 128), (2, 4), (2, 8)]


@pytest.mark.parametrize("dimension,n", GRADIENT_GRIDS)
def test_gradient_rows_equal_single_calls(dimension, n):
    # every shipped gradient gives on a block exactly what it gives on each
    # row alone, for rows that differ in one cell (as the Hessian's do) and
    # for scattered rows, the zero row included
    space = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(space.n_cells)
    E = 1e-5 * np.eye(space.n_cells)
    W = np.concatenate((
        x + E, x - E, np.zeros((1, space.n_cells)),
        rng.standard_normal((30, space.n_cells))
        * rng.uniform(1e-2, 1e1, (30, 1))))
    declared = []
    for name, f in _shipped_functionals(space, rng):
        if f.gradient is None:
            continue
        declared.append(name)
        G = f.gradient(W)
        assert G.shape == W.shape, name
        for w, g in zip(W, G):
            assert np.array_equal(g, f.gradient(w)), name
    assert set(declared) == {"quadratic", "double_well", "dirichlet",
                             "forced_dirichlet", "linear_damping",
                             "linear_damping/box", "cubic", "cubic/box"}


@pytest.mark.parametrize("dimension,n", GRADIENT_GRIDS)
def test_declared_gradients_match_central_differences(dimension, n):
    # every shipped gradient is the gradient of its eval: central
    # differences of eval along each cell, at points inside every box
    # [−0.5, 0.5] and, for the DGZ bump, inside its support
    from symvar.cli import _l2_sphere
    from symvar.principles import XMetric, bump_perturbation

    space = make_grid(dimension, n, 1.0, 2, 4)
    rng = np.random.default_rng(n + 2)
    N = space.n_cells
    v = 0.3 * rng.uniform(-1.0, 1.0, N)
    z = rng.standard_normal((2, N))
    near_v = v + [[0.3], [0.7]] * z / XMetric(space).norm(z)[:, None]
    points = [s * rng.uniform(-1.0, 1.0, N) for s in (0.1, 0.4)]
    declared = []
    for name, f in [*_shipped_functionals(space, rng),
                    ("dgz-bump",
                     bump_perturbation(space, space.function(v), 0.1, 1.0)),
                    ("l2_sphere", _l2_sphere(space, 1.0))]:
        if f.gradient is None:
            continue
        declared.append(name)
        for x in near_v if name == "dgz-bump" else points:
            E = 1e-5 * np.eye(N)
            fd = (f._eval_rows(space, x + E)
                  - f._eval_rows(space, x - E)) / 2e-5
            g = f.gradient(x)
            err = np.max(np.abs(g - fd))
            assert err <= 1e-6 * (1.0 + np.max(np.abs(g))), name
    assert set(declared) == {"quadratic", "double_well", "dirichlet",
                             "forced_dirichlet", "linear_damping",
                             "linear_damping/box", "cubic", "cubic/box",
                             "dgz-bump", "l2_sphere"}
