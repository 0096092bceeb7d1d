"""Print one sha256 digest per certificate kind, for diffing two commits.

Issues one certificate of every engine kind on small grids with fixed seeds
and prints ``<kind> <sha256 of the certificate JSON bytes>``, one line each.
A refactor that must keep certificates byte-identical runs this script on
both commits and diffs the two outputs::

    PYTHONPATH=src python scripts/cert_digests.py > after.txt

Schedule engines (SQPS, semilinear) emit a list of certificates; their
digest covers the list serialized as the CLI writes it.  The ``verify/``
lines digest the ``ViolationReport`` of a re-verification, as JSON.  The
``approx_symmetrize/`` lines digest a 2D run's values and polarizer word,
or the residual, best point and word of its ``ConvergenceFailure``.  The
``polarizer_family/`` lines digest a grid's family table and its
polarizers' axes and offsets.  The ``estimate_inf/`` line digests the
estimate and the argmin values of one multi-start probe, whose Newton
polish factors a band wider than 1.

It then runs the config table of ``tests/cli_cases.py`` (one small config
per ``symvar run`` subcommand) through ``run_config`` and prints
``<subcommand> <exit> <file> <sha256>`` for every file each run writes
(``-`` for both when a run writes none), so the diff also covers every CLI
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from symvar import (ConvergenceFailure, GridFunction, approx_symmetrize,
                    make_grid, nonneg_cone, polarizer_sequence_json, schwarz,
                    whole_space)
from symvar import applications as ap
from symvar import principles as pr
from symvar.cli import SETS, run_config
from symvar.funcspace import (Functional, gram_matrix, norm_X,
                              riesz_from_euclidean)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cli_cases import SAMPLES, valid_cases  # noqa: E402

N_SAMPLES = 300
U0_WELL = [0.55, 0.65, 0.75, 0.85, 0.85, 0.75, 0.65, 0.55]


def l2_double_well(space, radius=1.0, scale=1.0):
    """scale·(m·Σu² − r²)²: rearrangement-invariant, so admissible
    everywhere.  Its gradient is Gx·(scale·Gx⁻¹∇) row by row, not the
    closed form scale·4(m·Σu² − r²)·m·u: the digests of its descents were
    first taken with that rounding."""
    m, r2 = space.cell_measure, radius ** 2
    gram = gram_matrix(space)

    def ev(u):
        return scale * (m * float(u.values @ u.values) - r2) ** 2

    def row(w):
        g = 4.0 * (m * float(w @ w) - r2) * m * w
        return gram @ (scale * riesz_from_euclidean(space, g))

    def grad(W):
        return np.array([row(w) for w in W]) if np.ndim(W) == 2 else row(W)

    return Functional(eval=ev, gradient=grad,
                      symmetry_class="polarization-invariant",
                      lower_bound=0.0, name="l2_double_well")


def quad_X(a):
    """‖u−a‖²_X with its gradient Gx·2(u−a), a gemv per row."""
    gram = gram_matrix(a.space)

    def ev(u):
        d = u.values - a.values
        return float(d @ gram @ d)

    def grad(W):
        return np.matmul(gram, (2.0 * (W - a.values))[..., None])[..., 0]

    return Functional(eval=ev, gradient=grad,
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name="quadX")


def radial_double_well(space):
    """r²(r−1)² in r = ‖u‖_X: a mountain pass between 0 and the unit sphere."""
    gram = gram_matrix(space)

    def ev(u):
        r = np.sqrt(float(u.values @ gram @ u.values))
        return r * r * (r - 1.0) ** 2

    def grad(W):
        # (2(r−1)² + 2r(r−1))·Gx·u, a gemv per row
        r = np.sqrt(np.matmul(np.matmul(W[..., None, :], gram),
                              W[..., :, None])[..., 0])
        return ((2.0 * (r - 1.0) * (r - 1.0) + 2.0 * r * (r - 1.0))
                * np.matmul(gram, W[..., None])[..., 0])

    return Functional(eval=ev, gradient=grad,
                      symmetry_class="polarization-nonincreasing",
                      lower_bound=0.0, name="radial_double_well")


def cubic():
    """g = s³, G = s⁴/4, written with products: numpy's array power may
    differ from scalar ``pow`` in the last bit, by CPU."""
    return ap.SemilinearNonlinearity(
        g=lambda s: s * s * s, G=lambda s: 0.25 * (s * s) * (s * s),
        a1=0.0, a2=0.0, b=3.0, p=4.0, name="cubic")


def l2_sphere(space, level=1.0):
    m = space.cell_measure
    return Functional(
        eval=lambda u: m * float(u.values @ u.values) - level,
        gradient=lambda W: 2.0 * m * W,
        name="l2_sphere")


def diag_ray():
    def project(v):
        a = max(1.0, 0.5 * (v[0] + v[1]))
        return np.array([a, a])

    return pr.SetOracle(
        contains=lambda v: bool(abs(v[0] - v[1]) <= 1e-9 and v[0] >= 1.0 - 1e-12),
        project=project, kind="custom", description="{(a,a): a >= 1}")


def symmetrize_bytes(u, rho=1e-3) -> bytes:
    """approx_symmetrize's values and word, or the residual, best point and
    word of its ConvergenceFailure, as JSON."""
    try:
        out, word = approx_symmetrize(u, rho)
        rec = {"values": out.values.tolist()}
    except ConvergenceFailure as exc:
        word = exc.sequence
        rec = {"residual": float(exc.residual),
               "best": exc.best.values.tolist()}
    rec["word"] = polarizer_sequence_json(word)
    return json.dumps(rec, indent=1).encode()


def estimate_bytes(f, space, seed) -> bytes:
    """estimate_inf's estimate, then its argmin values, as raw doubles."""
    inf_est, _, argmin = pr.estimate_inf(f, space, whole_space(space), seed)
    return np.float64(inf_est).tobytes() + np.asarray(argmin, float).tobytes()


def family_bytes(space) -> bytes:
    """The grid's (F, N) inside and partner tables, then its polarizers'
    axes and offsets as JSON."""
    inside, partner = space._polarizer_table
    return inside.tobytes() + partner.tobytes() + json.dumps(
        polarizer_sequence_json(space.polarizers)).encode()


FAMILY_GRIDS = ((1, 8), (1, 256), (2, 4), (2, 16), (2, 32))

# tied values the plateau walk carries to the Schwarz image of a 4x4 grid
TIED_4X4 = [2, 1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 1, 2, 2]


def cases():
    g2 = make_grid(1, 2, 1.0, 2, 4)
    g4 = make_grid(1, 4, 1.0, 2, 4)
    g8 = make_grid(1, 8, 1.0, 2, 4)
    well = l2_double_well(g8)
    u0 = g8.function(U0_WELL)
    far = g8.function([0.4, 0.7, 0.5, 0.3, 0.2, 0.1, 0.0, 0.0])
    box = pr.box_set(g8, 0.0, 2.0)

    def sym_ekeland(variant, u=u0, **kw):
        return lambda: pr.symmetric_ekeland(well, g8, u, 0.1, 0.1,
                                            variant=variant, seed=3,
                                            n_samples=N_SAMPLES, **kw)

    yield "EkelandCore", lambda: pr.ekeland_point(
        well, whole_space(g8), u0, 0.1, 0.1, seed=1, n_samples=N_SAMPLES)
    yield "SymEkelandI/X/cone", sym_ekeland("I", domain=nonneg_cone(g8))
    yield "SymEkelandI/X/box", sym_ekeland("I", domain=box)
    yield "SymEkelandII/X", sym_ekeland("II")
    yield "SymEkelandII/V", sym_ekeland("II", metric=pr.VMetric(g8))
    yield "SymEkelandIII", sym_ekeland("III", Y=[schwarz(u0)])
    yield "SymEkelandIV", sym_ekeland("IV", rho2=0.05)
    yield "SymEkelandV/X", sym_ekeland("V", u=far)
    yield "SymEkelandV/V/box", sym_ekeland("V", u=far, domain=box,
                                           metric=pr.VMetric(g8))
    yield "SymBP/p2", lambda: pr.symmetric_borwein_preiss(
        well, g8, u0, 0.1, 0.1, p_exp=2, seed=4, n_samples=N_SAMPLES)
    yield "SymBP/p1", lambda: pr.symmetric_borwein_preiss(
        well, g8, u0, 0.1, 0.1, p_exp=1, seed=4, n_samples=N_SAMPLES)
    yield "SymZhong/linear", lambda: pr.symmetric_zhong(
        well, g8, u0, 0.1, 0.1, lambda s: s, seed=5, n_samples=N_SAMPLES)
    yield "DGZCheck", lambda: pr.dgz_check(
        well, pr.bump_perturbation(g8, schwarz(u0), 0.1, 1.0), schwarz(u0),
        0.1, seed=6, n_samples=N_SAMPLES)
    yield "Constrained", lambda: pr.constrained_symmetric_ekeland(
        quad_X(g2.zeros()), [l2_sphere(g2)], 1, g2.function([1.0, 1.0]),
        0.05, seed=7, n_samples=N_SAMPLES)
    ones = np.ones(2)
    psi = g2.function(ones / np.sqrt(ones @ gram_matrix(g2) @ ones))
    yield "PathMinimax", lambda: pr.path_minimax(
        radial_double_well(g2), psi, 8, 0.05, seed=8, n_samples=N_SAMPLES)
    yield "SQPS", lambda: [c for c, _ in pr.sqps_sequence(
        well, g8, [0.1, 0.05], seed=9, n_samples=N_SAMPLES, q_probes=8)]
    yield "quasilinear", lambda: ap.quasilinear_experiment(
        ap.forced_dirichlet_integrand(1.0), g8, 0.01, seed=10,
        n_samples=N_SAMPLES)
    yield "semilinear", lambda: ap.semilinear_experiment(
        ap.SemilinearNonlinearity(g=lambda s: -s, G=lambda s: -0.5 * s * s,
                                  a1=1.0, a2=2.0, b=1.0, p=3.0,
                                  name="linear_damping"),
        g8, [0.1, 0.05], seed=11, n_samples=N_SAMPLES, q_probes=8,
        second_order_samples=8)
    yield "semilinear/cubic/box", lambda: ap.semilinear_experiment(
        cubic(), g8, [0.1, 0.05], box=pr.box_set(g8, 0.0, 0.5), seed=11,
        n_samples=N_SAMPLES, q_probes=8, second_order_samples=8)
    # its minimizer is nonzero, so the cubic's arithmetic reaches the bytes
    yield "semilinear/cubic/box-high", lambda: ap.semilinear_experiment(
        cubic(), g8, [0.1, 0.05], box=pr.box_set(g8, 0.5, 1.0), seed=11,
        n_samples=N_SAMPLES, q_probes=8, second_order_samples=8)
    yield "quasilinear/2D", lambda: ap.quasilinear_experiment(
        ap.forced_dirichlet_integrand(1.0), make_grid(2, 4, 1.0, 2, 4), 0.01,
        seed=10, n_samples=N_SAMPLES)
    # the polish on 2D 8x8 factors the band of half-width 8
    g2d8 = make_grid(2, 8, 1.0, 2, 4)
    yield "estimate_inf/2D8", lambda: estimate_bytes(
        ap.quasilinear_functional(ap.forced_dirichlet_integrand(1.0), g2d8),
        g2d8, 10)
    yield "Caristi", lambda: ap.caristi_fixed_point(
        lambda u: GridFunction(g4, 0.5 * u.values),
        Functional(eval=lambda u: 2.0 * norm_X(u),
                   symmetry_class="polarization-nonincreasing",
                   lower_bound=0.0, name="caristi-potential"),
        0.25, g4, seed=12, n_samples=N_SAMPLES, return_certificate=True)[2]
    yield "Clarke", lambda: ap.clarke_fixed_point(
        lambda u: GridFunction(g4, 0.4 * u.values), 0.4, 0.3, g4, seed=13,
        n_samples=N_SAMPLES, return_certificate=True)[2]
    yield "petal/l1", lambda: ap.symmetric_petal_point(
        g2.function([1.0, 1.0]), g2.zeros(), diag_ray(), 0.3,
        norm=lambda vals: float(np.sum(np.abs(vals))), seed=14,
        n_samples=N_SAMPLES, minimality_samples=1000)
    a_min = 0.5 + 3.0 / np.sqrt(2.0)
    yield "drop/halfplane", lambda: ap.symmetric_drop_point(
        g2.zeros(), ap.Ball(g2.function([a_min + 1 / np.sqrt(2)] * 2), 1.0,
                            symmetric=True),
        SETS["halfplane_sum"]({"level": 1.0}), 0.05, seed=2, n_samples=600,
        minimality_samples=10000)
    # theorem inputs no library caller sets: a Γ-sequence, a Zhong domain,
    # and the domain and g that re-verification takes
    yield "SymEkelandIII/gamma", sym_ekeland(
        "III", gamma_sequence=([l2_double_well(g8, scale=1.0 + 2.0 ** -h)
                                for h in range(4)], lambda u, h: u), h0=2)
    yield "SymZhong/cone", lambda: pr.symmetric_zhong(
        well, g8, u0, 0.1, 0.1, lambda s: s, domain=nonneg_cone(g8), seed=5,
        n_samples=N_SAMPLES)
    yield "verify/SymEkelandI/cone", lambda: pr.verify_certificate(
        well, sym_ekeland("I", domain=nonneg_cone(g8))(), N_SAMPLES,
        domain=nonneg_cone(g8), seed=15)
    bump = pr.bump_perturbation(g8, schwarz(u0), 0.1, 1.0)
    yield "verify/DGZCheck", lambda: pr.verify_certificate(
        well, pr.dgz_check(well, bump, schwarz(u0), 0.1, seed=6,
                           n_samples=N_SAMPLES), N_SAMPLES, g=bump, seed=16)
    g2d4 = make_grid(2, 4, 1.0, 2, 4)
    yield "approx_symmetrize/2D4/tied", lambda: symmetrize_bytes(
        g2d4.function(np.array(TIED_4X4, float)))
    # a |normal| draw the walk leaves stuck on a family-fixed point
    yield "approx_symmetrize/2D8/stuck", lambda: symmetrize_bytes(
        g2d8.function(np.abs(np.random.default_rng(0).standard_normal(64))))
    for dim, n in FAMILY_GRIDS:
        g = make_grid(dim, n, 1.0, 2, 4)
        yield f"polarizer_family/{dim}D{n}", lambda g=g: family_bytes(g)


def certificate_bytes(out) -> bytes:
    if isinstance(out, bytes):
        return out
    if isinstance(out, pr.ViolationReport):
        return json.dumps(out.to_json_dict(), indent=1).encode()
    if isinstance(out, list):
        return json.dumps([c.to_json_dict() for c in out], indent=1).encode()
    return out.to_json_bytes()


def cli_digests(root: Path):
    """Run the CLI config table under ``root``; yield one line per file."""
    for label, cfg, _, _ in valid_cases(root / "out"):
        path = root / f"{label.replace('/', '_')}.json"
        path.write_text(json.dumps(cfg))
        out = root / "out" / label
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_config(path, out_dir=out, n_samples=SAMPLES)
        files = sorted(out.iterdir()) if out.exists() else []
        for f in files:
            yield f"{label} {code} {f.name} " \
                f"{hashlib.sha256(f.read_bytes()).hexdigest()}"
        if not files:
            yield f"{label} {code} - -"


def main():
    for kind, issue in cases():
        print(kind, hashlib.sha256(certificate_bytes(issue())).hexdigest(),
              flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_digests(Path(tmp)):
            print(line, flush=True)


if __name__ == "__main__":
    main()
