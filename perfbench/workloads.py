"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), then ``run_round`` performs one fixed round of operations through
a :class:`Recorder`, one after another in this process (a closed loop with
one client: symvar is a batch tool, not a server).  Every output is checked;
an output that fails its check counts as a failed operation.  ``replay``
issues one certificate (or output) per engine kind a second time with the
same seed and compares bytes.  ``expected_counts`` gives the per-layer
counts the traced run must reproduce for one set-up plus one round.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symvar import applications as ap
from symvar import cli
from symvar import funcspace as fs
from symvar import principles as pr
from symvar import rearrange as re_
from symvar.errors import ConvergenceFailure

GRID = dict(domain_radius=1.0, p=2, q_W=4)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal(64)
_REF_A = _REF_RNG.standard_normal((64, 64)) / 8
_REF_M = _REF_RNG.standard_normal((128, 128)) + 128 * np.eye(128)


def reference_kernel():
    """Fixed work made of what symvar's hot paths are made of: small-array
    numpy calls in a Python loop, and dense 128 x 128 solves, the loop
    taking about 1.3 times as long as the solves.  The loop alone slows
    less in the slow regime than the Riesz solves of ``pde`` do; the
    solves alone, more than ``approx_symmetrize`` does.  It belongs to the
    benchmark, so no change to symvar can change its time."""
    x, acc = _REF_X, 0.0
    for _ in range(100):
        pad = np.concatenate(([0.0], x, [0.0]))
        acc += (float(np.sum(np.abs(np.diff(pad)) ** 2))
                + float(np.sum(np.abs(x) ** 4)) ** 0.25)
        x = np.tanh(_REF_A @ x) + 0.1
    for _ in range(5):
        acc += float(np.linalg.solve(_REF_M, _REF_X.repeat(2))[0])
    return acc


class SpeedProbe:
    """Samples how fast the machine runs by timing :func:`reference_kernel`
    every ``every`` seconds of wall time, from a SIGALRM handler, so that
    samples also fall inside long operations.  The handler runs between
    bytecodes of the main thread and touches no state of symvar; its time
    is taken out of whatever it interrupted."""

    def __init__(self, every=0.05):
        self.every = every
        self.samples = []       # reference-kernel seconds, in order
        self.spent = 0.0        # seconds spent probing
        self._busy = False
        self._previous = None

    def probe(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt
        finally:
            self._busy = False

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()        # the probe after the last timing
        return False

    def clock(self):
        """Wall seconds without the time spent probing.  A probe that lands
        between the two reads of ``spent`` makes the loop read again."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def mark(self):
        return len(self.samples), self.clock()

    def since(self, mark):
        """(seconds since ``mark`` without probe time, span of the probes
        taken since, for :meth:`ref`)."""
        n0, t0 = mark
        return self.clock() - t0, (n0, len(self.samples))

    def ref(self, span):
        """Reference seconds for a timing, once later probes exist: the
        mean of the probes taken during it, else the mean of the probes
        just before and just after it."""
        n0, n1 = span
        inside = self.samples[n0:n1]
        if inside:
            return statistics.fmean(inside)
        return statistics.fmean(self.samples[max(n0 - 1, 0):n0 + 1])


@dataclass
class Op:
    kind: str        # "primary", "verify" or "other"
    name: str
    seconds: float
    ok: bool = True
    span: tuple = None  # probes around the call, for SpeedProbe.ref


@dataclass
class Recorder:
    """Times operations of one round and collects their check results."""

    speed: SpeedProbe = field(default_factory=SpeedProbe)
    tracer: object = None
    ops: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def run(self, kind, name, fn, *args, **kwargs):
        """Call ``fn`` once, timed; returns (result, exception, op).  A
        raised exception is returned, not propagated, so the caller's check
        decides whether it was the expected outcome."""
        if self.tracer is not None:
            self.tracer.op = f"{name}#{len(self.ops)}"
        out = exc = None
        mark = self.speed.mark()
        try:
            out = fn(*args, **kwargs)
        except Exception as err:  # noqa: BLE001 - a failing op is a result
            exc = err
        seconds, span = self.speed.since(mark)
        op = Op(kind, name, seconds, span=span)
        self.ops.append(op)
        if exc is not None and not isinstance(exc, ConvergenceFailure):
            traceback.print_exception(exc)
        return out, exc, op

    def check(self, op, name, ok, detail=""):
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            op.ok = False
            self.failures.append(f"{op.name}: {name} failed {detail}".strip())

    def count(self, name, n):
        if self.tracer is not None:
            self.tracer.counts[name] += n


def _seed(rng):
    return int(rng.integers(2 ** 31))


def _sym_center(space, rng):
    """Center a = Gx⁻¹w with w symmetric-decreasing and a fixed by every
    polarizer, so the quadratic ‖u − a‖²_X is polarization-nonincreasing."""
    gram = fs.gram_matrix(space)
    for _ in range(64):
        w = re_.schwarz(space.function(
            (np.abs(rng.standard_normal(space.n_cells)) + 0.2) ** 2))
        a = np.linalg.solve(gram, w.values)
        if re_.is_family_fixed(space.function(a)) and np.all(a >= 0):
            return a
    raise RuntimeError("no symmetric center found for this seed")


def _is_permutation(a, b):
    return np.array_equal(np.sort(a), np.sort(b))


# ---------------------------------------------------------------------------

class Certify:
    """Certificates issued through ``symvar.cli.run_config`` and re-checked
    through its ``verify_certificate`` subcommand."""

    name = "certify"
    checks = ("issue_exit", "issue_pass", "verify_exit", "verify_slack",
              "replay")
    # (variant, functional, n, sigma = rho): every variant meets both
    # functionals, both grids and both sigmas once across the round.
    PLAN = (("I", "quadratic", 8, 0.1), ("I", "double_well", 16, 0.01),
            ("II", "quadratic", 16, 0.01), ("II", "double_well", 8, 0.1),
            ("IV", "quadratic", 8, 0.01), ("IV", "double_well", 16, 0.1),
            ("V", "quadratic", 16, 0.1), ("V", "double_well", 8, 0.01))
    SMOKE_PLAN = (("I", "quadratic", 8, 0.1), ("V", "double_well", 8, 0.01))

    def __init__(self, seed, smoke, workdir: Path):
        self.seed = seed
        self.plan = self.SMOKE_PLAN if smoke else self.PLAN
        self.n_samples = 1000 if smoke else 10000
        self.dir = workdir / "certify"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        grids = {n: fs.make_grid(1, n, **GRID)
                 for n in sorted({n for _, _, n, _ in self.plan})}
        jobs = []
        for k, (variant, fname, n, sr) in enumerate(self.plan):
            g = grids[n]
            grid = {"dimension": 1, "n": n, "radius": 1.0, "p": 2, "qW": 4}
            if fname == "quadratic":
                a = _sym_center(g, rng)
                d = rng.standard_normal(n)
                d *= 0.5 * sr / fs.norm_X(g.function(d))
                u0 = np.abs(a + d)
                functional = {"name": "quadratic", "center": a.tolist()}
            else:
                u0 = np.abs(rng.standard_normal(n)) + 0.1
                u0 /= math.sqrt(g.cell_measure * float(u0 @ u0))
                functional = {"name": "double_well"}
            seed = _seed(rng)
            issue_dir, verify_dir = self.dir / f"c{k}", self.dir / f"v{k}"
            issue = {"schema": cli.SCHEMA, "subcommand": "symmetric_ekeland",
                     "grid": grid, "functional": functional,
                     "parameters": {"u0": u0.tolist(), "sigma": sr,
                                    "rho": sr, "variant": variant},
                     "seed": seed}
            cert_path = issue_dir / "symmetric_ekeland_certificate.json"
            verify = {"schema": cli.SCHEMA,
                      "subcommand": "verify_certificate", "grid": grid,
                      "functional": functional,
                      "parameters": {"certificate_path": str(cert_path)},
                      "seed": seed}
            paths = []
            for tag, cfg in (("issue", issue), ("verify", verify)):
                p = self.dir / f"{tag}{k}.json"
                p.write_text(json.dumps(cfg))
                paths.append(p)
            jobs.append({"tag": f"{variant}/{fname}/n{n}/s{sr}",
                         "issue": paths[0], "verify": paths[1],
                         "issue_dir": issue_dir, "verify_dir": verify_dir,
                         "cert": cert_path})
        return {"jobs": jobs}

    def _dir_bytes(self, path):
        return sum(p.stat().st_size for p in Path(path).iterdir())

    def run_round(self, state, rec: Recorder):
        for job in state["jobs"]:
            code, exc, op = rec.run("primary", "issue", cli.run_config,
                                    job["issue"], out_dir=job["issue_dir"],
                                    n_samples=self.n_samples)
            rec.check(op, "issue_exit", exc is None and code == 0,
                      f"{job['tag']}: exit {code} {exc!r}")
            if exc is not None or not job["cert"].exists():
                continue
            rec.count("cli.bytes_written", self._dir_bytes(job["issue_dir"]))
            blob = job["cert"].read_bytes()
            rec.digests[job["tag"]] = sha256(blob)
            rec.check(op, "issue_pass",
                      json.loads(blob)["status"] == "PASS", job["tag"])

            code, exc, vop = rec.run("verify", "verify", cli.run_config,
                                     job["verify"], out_dir=job["verify_dir"],
                                     n_samples=self.n_samples)
            rec.check(vop, "verify_exit", exc is None and code == 0,
                      f"{job['tag']}: exit {code} {exc!r}")
            if exc is not None:
                continue
            rec.count("cli.bytes_written", self._dir_bytes(job["verify_dir"]))
            with open(job["verify_dir"] / "verify_certificate.csv") as fh:
                row = next(csv.DictReader(fh))
            viol, slack = float(row["max_violation"]), float(row["slack"])
            rec.check(vop, "verify_slack", viol <= slack,
                      f"{job['tag']}: {viol} > {slack}")

    def replay(self, state, digests):
        job = state["jobs"][0]
        out = self.dir / "replay"
        code = cli.run_config(job["issue"], out_dir=out,
                              n_samples=self.n_samples)
        blob = (out / job["cert"].name).read_bytes() if code == 0 else b""
        return [("symmetric_ekeland(cli)", sha256(blob),
                 code == 0 and sha256(blob) == digests.get(job["tag"]))]

    def expected_counts(self, state):
        n = len(state["jobs"])
        grids = len({n for _, _, n, _ in self.plan})
        # issue builds the grid once; verify builds it for the config and
        # again when it reads the certificate's v
        return {"funcspace.make_grid.calls": grids + 3 * n,
                "principles.sample_inequality.samples":
                    2 * n * self.n_samples}


# ---------------------------------------------------------------------------

class Pde:
    """Quasi-linear torsion and the semilinear experiment on one 1D grid,
    each certificate re-verified through ``principles.verify_certificate``."""

    name = "pde"
    checks = ("quasi_pass", "torsion_oracle", "dual_routes", "semi_pass",
              "verify_slack", "replay")
    SCHEDULE = (0.1, 0.05, 0.01)
    EPS = 0.01
    # The quasilinear experiment's work moves with its engine seed by about
    # a tenth, the semilinear one's hardly at all: a round runs three
    # quasilinear seeds to average that spread down.
    QUASI_RUNS = 3
    # Each semilinear certificate is re-verified with this many seeds.  A
    # quasilinear check takes about 0.16 s and a semilinear one 0.115 s, so
    # with 3 + 3 x 3 checks the median check falls inside the semilinear
    # mode, not on the edge between the two.
    SEMI_VERIFIES = 3
    # The forcing stays fixed (criterion 7's torsion problem): moving it
    # changes the experiment's work by more than the seeds do.
    FORCING = 1.0

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.n = 8 if smoke else 128
        self.n_samples = 500 if smoke else 2000

    @staticmethod
    def _damping():
        return ap.SemilinearNonlinearity(
            g=lambda s: -s, G=lambda s: -0.5 * s * s, a1=1.0, a2=2.0, b=1.0,
            p=3.0, name="linear_damping")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        grid = fs.make_grid(1, self.n, **GRID)
        c = self.FORCING
        I = ap.forced_dirichlet_integrand(c)
        N = self._damping()
        A = fs.laplacian_matrix(grid)
        oracle = np.linalg.solve(A, c * grid.cell_measure
                                 * np.ones(grid.n_cells))
        return {"grid": grid, "c": c, "I": I, "N": N, "oracle": oracle,
                "f_quasi": ap.quasilinear_functional(I, grid),
                "f_semi": ap.semilinear_functional(N, grid),
                "quasi_seeds": [(_seed(rng), _seed(rng))
                                for _ in range(self.QUASI_RUNS)],
                "semi_seeds": (_seed(rng), _seed(rng)),
                "replay_grid": fs.make_grid(1, 8, **GRID)}

    def run_round(self, state, rec: Recorder):
        grid, verify = state["grid"], []
        for k, (s_q, s_vq) in enumerate(state["quasi_seeds"]):
            cert, exc, op = rec.run("primary", "quasilinear",
                                    ap.quasilinear_experiment, state["I"],
                                    grid, self.EPS, seed=s_q,
                                    n_samples=self.n_samples)
            rec.check(op, "quasi_pass",
                      exc is None and cert.status == "PASS",
                      repr(exc) if exc else "")
            if exc is None:
                rec.digests[f"quasilinear[{k}]"] = sha256(
                    cert.to_json_bytes())
                dev = float(np.max(np.abs(cert.v.values - state["oracle"])))
                rec.check(op, "torsion_oracle", dev <= 1e-6, f"{dev:.3e}")
                agree = abs(cert.extras["dual_norm_solve"]
                            - cert.extras["dual_norm_ascent"])
                rec.check(op, "dual_routes", agree <= 1e-8, f"{agree:.3e}")
                verify.append((state["f_quasi"], cert, s_vq))

        s_s, s_vs = state["semi_seeds"]
        certs, exc, op = rec.run("primary", "semilinear",
                                 ap.semilinear_experiment, state["N"], grid,
                                 list(self.SCHEDULE), seed=s_s,
                                 n_samples=self.n_samples)
        rec.check(op, "semi_pass",
                  exc is None and all(c.status == "PASS" for c in certs),
                  repr(exc) if exc else "")
        if exc is None:
            for h, c in enumerate(certs):
                rec.digests[f"semilinear[{h}]"] = sha256(c.to_json_bytes())
                verify += [(state["f_semi"], c,
                            s_vs + h + r * len(self.SCHEDULE))
                           for r in range(self.SEMI_VERIFIES)]

        for f, c, seed in verify:
            rep, exc, vop = rec.run("verify", "verify_certificate",
                                    pr.verify_certificate, f, c,
                                    self.n_samples, seed=seed)
            rec.check(vop, "verify_slack",
                      exc is None and rep.max_violation <= c.slack,
                      f"{c.variant}: {exc!r}" if exc else
                      f"{c.variant}: {rep.max_violation} > {c.slack}")

    def replay(self, state, digests):
        g = state["replay_grid"]
        out = []
        blobs = [ap.quasilinear_experiment(
            ap.forced_dirichlet_integrand(state["c"]), g, self.EPS,
            seed=state["quasi_seeds"][0][0], n_samples=500).to_json_bytes()
            for _ in range(2)]
        out.append(("quasilinear_experiment", sha256(blobs[0]),
                    blobs[0] == blobs[1]))
        blobs = [ap.semilinear_experiment(
            self._damping(), g, [0.1], seed=state["semi_seeds"][0],
            n_samples=500)[0].to_json_bytes() for _ in range(2)]
        out.append(("semilinear_experiment", sha256(blobs[0]),
                    blobs[0] == blobs[1]))
        return out

    def expected_counts(self, state):
        # each certificate samples once when issued and once per check
        issued = self.QUASI_RUNS + len(self.SCHEDULE)
        checked = self.QUASI_RUNS + self.SEMI_VERIFIES * len(self.SCHEDULE)
        return {"funcspace.make_grid.calls": 2,
                "principles.sample_inequality.samples":
                    (issued + checked) * self.n_samples}


# ---------------------------------------------------------------------------

class Symmetrize:
    """``approx_symmetrize`` at rho = 1e-3 on seeded nonnegative inputs,
    with ``schwarz``, ``polarize``, ``is_family_fixed`` and the norms of
    each input as the check."""

    name = "symmetrize"
    checks = ("converged", "stuck_permutation", "stuck_residual",
              "schwarz_fixed", "polarize_permutation", "norm_V_equal",
              "replay")
    RHO = 1e-3
    # (dimension, n, inputs per round).  The grids' latencies form separate
    # modes; 2D 16x16 carries most inputs, so the medians of both the
    # symmetrize calls and the checks fall in the middle of one mode, not on
    # the edge between two.
    PLAN = ((1, 128, 2), (2, 8, 2), (1, 256, 2), (2, 16, 10))
    SMOKE_PLAN = ((1, 8, 2), (2, 4, 2))

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.plan = self.SMOKE_PLAN if smoke else self.PLAN

    def setup(self):
        rng = np.random.default_rng(self.seed)
        inputs = []
        for dim, n, count in self.plan:
            g = fs.make_grid(dim, n, **GRID)
            for k in range(count):
                u = g.function(np.abs(rng.standard_normal(g.n_cells)))
                H = g.polarizers[int(rng.integers(len(g.polarizers)))]
                inputs.append((f"{dim}d{n}#{k}", dim, u, H))
        return {"inputs": inputs}

    def _symmetrize(self, rec, tag, dim, u):
        out, exc, op = rec.run("primary", "approx_symmetrize",
                               re_.approx_symmetrize, u, self.RHO)
        target = re_.schwarz(u)
        # only the 2D lookahead may end stuck; in 1D the greedy path must
        # converge, so a ConvergenceFailure there is a failed operation
        if isinstance(exc, ConvergenceFailure) and dim == 2:
            best = exc.best
            rec.check(op, "stuck_permutation",
                      _is_permutation(best.values, np.abs(u.values)), tag)
            resid = fs.norm_V(best - target)
            rec.check(op, "stuck_residual",
                      math.isclose(resid, exc.residual, rel_tol=1e-12,
                                   abs_tol=1e-15) and resid >= self.RHO,
                      f"{tag}: {resid} vs {exc.residual}")
            word = exc.sequence
        elif exc is None:
            best, word = out
            resid = fs.norm_V(best - target)
            rec.check(op, "converged", resid < self.RHO, f"{tag}: {resid}")
        else:
            rec.check(op, "converged", False, f"{tag}: {exc!r}")
            return
        rec.digests[tag] = sha256(best.values.tobytes() + json.dumps(
            re_.polarizer_sequence_json(word)).encode())

    @staticmethod
    def _secondary(u, H):
        s = re_.schwarz(u)
        return (s, re_.polarize(u, H), re_.is_family_fixed(s),
                fs.norm_X(u), fs.norm_V(u), fs.norm_W(u), fs.norm_V(s))

    def run_round(self, state, rec: Recorder):
        for tag, dim, u, H in state["inputs"]:
            self._symmetrize(rec, tag, dim, u)
            res, exc, op = rec.run("verify", "checks", self._secondary, u, H)
            if exc is not None:
                rec.check(op, "schwarz_fixed", False, f"{tag}: {exc!r}")
                continue
            s, uh, fixed, _, nv, _, nvs = res
            rec.check(op, "schwarz_fixed", fixed, tag)
            rec.check(op, "polarize_permutation",
                      _is_permutation(uh.values, np.abs(u.values)), tag)
            rec.check(op, "norm_V_equal",
                      math.isclose(nv, nvs, rel_tol=1e-12), tag)

    def replay(self, state, digests):
        tag, dim, u, _ = state["inputs"][0]
        rec = Recorder()
        self._symmetrize(rec, tag, dim, u)
        d = rec.digests.get(tag, "")
        return [("approx_symmetrize", d, d == digests.get(tag))]

    def expected_counts(self, state):
        return {"funcspace.make_grid.calls": len(self.plan),
                "rearrange.approx_symmetrize.calls": len(state["inputs"])}


# ---------------------------------------------------------------------------

class Geometry:
    """``drop_membership`` queries against the criterion-9 hand-geometry
    drop, plus one petal-point certificate and ``petal_inclusions``."""

    name = "geometry"
    checks = ("member_inside", "member_outside", "petal_pass",
              "petal_second_points", "inclusions", "replay")
    EPS_INCLUSIONS = (0.25, 0.5, 0.75)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        # enough queries that membership, not the petal certificate, holds
        # most of the round
        self.n_inside = 6 if smoke else 270
        self.n_outside = 6 if smoke else 180    # three families, equal shares
        self.minimality = 1000 if smoke else 10000
        self.n_incl = 100 if smoke else 1000

    @staticmethod
    def _diag_ray():
        def contains(v):
            return bool(abs(v[0] - v[1]) <= 1e-9 and v[0] >= 1.0 - 1e-12)

        def project(v):
            a = max(1.0, 0.5 * (v[0] + v[1]))
            return np.array([a, a])

        return pr.SetOracle(contains=contains, project=project, kind="custom",
                            description="{(a,a): a >= 1}")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        g = fs.make_grid(1, 2, **GRID)
        a_min = 0.5 + 3.0 / math.sqrt(2.0)
        ball = ap.Ball(g.function([a_min + 1 / math.sqrt(2)] * 2), 1.0,
                       symmetric=True)
        drop = ap.Drop(g.function([0.0, 0.0]), ball)
        # The symmetric ball is a diagonal segment, so the drop from the
        # origin is the diagonal segment {(s, s): 0 <= s <= s_max}.
        s_max = float(ball.project(np.array([1e3, 1e3]))[0])
        queries = [(g.function([s, s]), True)
                   for s in rng.uniform(0.02, 0.98, self.n_inside) * s_max]
        per = self.n_outside // 3
        for s in rng.uniform(0.1, 1.0, per) * s_max:       # off the diagonal
            d = rng.uniform(0.05, 0.3) * s
            queries.append((g.function([s + d, s - d]), False))
        for s in rng.uniform(1.02, 2.0, per) * s_max:      # past the far end
            queries.append((g.function([s, s]), False))
        for s in rng.uniform(0.02, 1.0, per) * s_max:      # behind the vertex
            queries.append((g.function([-s, -s]), False))
        order = rng.permutation(len(queries))
        incl = [ap.Petal(eps, g.function(rng.uniform(1.0, 3.0, 2)),
                         g.function(rng.uniform(0.0, 0.5, 2)))
                for eps in self.EPS_INCLUSIONS]
        return {"grid": g, "ball": ball, "drop": drop,
                "queries": [queries[i] for i in order],
                "petal_seed": _seed(rng), "incl": incl,
                "incl_seeds": [_seed(rng) for _ in incl]}

    def _petal(self, state):
        g = state["grid"]

        def l1(vals):
            return float(np.sum(np.abs(vals)))

        return ap.symmetric_petal_point(
            g.function([1.0, 1.0]), g.function([0.0, 0.0]), self._diag_ray(),
            0.3, norm=l1, seed=state["petal_seed"], n_samples=1000,
            minimality_samples=self.minimality)

    def run_round(self, state, rec: Recorder):
        for y, inside in state["queries"]:
            ans, exc, op = rec.run("primary", "drop_membership",
                                   ap.drop_membership, y, state["drop"])
            rec.check(op, "member_inside" if inside else "member_outside",
                      exc is None and bool(ans) == inside,
                      f"{y.values}: {ans} {exc!r}")

        cert, exc, op = rec.run("other", "petal_point", self._petal, state)
        rec.check(op, "petal_pass", exc is None and cert.status == "PASS",
                  repr(exc) if exc else "")
        if exc is None:
            rec.digests["petal"] = sha256(cert.to_json_bytes())
            rec.check(op, "petal_second_points",
                      cert.extras["petal_minimality"]["second_points"] == 0)

        for P, seed in zip(state["incl"], state["incl_seeds"]):
            rep, exc, vop = rec.run("verify", "petal_inclusions",
                                    ap.petal_inclusions, P,
                                    n_samples=self.n_incl, seed=seed)
            rec.check(vop, "inclusions", exc is None
                      and rep["ball_violations"] == 0
                      and rep["drop_violations"] == 0,
                      repr(exc) if exc else str(rep))

    def instrument(self, state, tracer):
        """Count the drop ball's norm evaluations in the traced round."""
        tracer.count_calls(state["ball"], "norm", "applications.ball_norm")

    def replay(self, state, digests):
        d = sha256(self._petal(state).to_json_bytes())
        return [("symmetric_petal_point", d, d == digests.get("petal"))]

    def expected_counts(self, state):
        return {"funcspace.make_grid.calls": 1,
                "applications.drop_membership.calls": len(state["queries"])}


WORKLOADS = {w.name: w for w in (Certify, Pde, Symmetrize, Geometry)}
