"""Constructive engines for the symmetric variational principles.

Every engine returns a :class:`Certificate`: the output point, each
theorem conclusion as a (measured value, theoretical bound) pair, and a
sampled-verification report of the variational inequality.  A certificate
PASSes only if every measured value sits under its bound (within
``tol_cert``) and the sampled inequality deficit stays under the fixed
slack 1e-6·(1 + |f(v)|) of ``default_slack`` (f + g for DGZ).

The true infimum is never available; every "f(v) < inf f + ..." bound is
certified against ``inf_est`` from a documented multi-start probe whose
log ships inside the certificate.  Engines are deterministic given
(inputs, seed): one numpy SeedSequence drives inf probes, chain restarts
and verification sampling in a fixed spawn order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import lsq_linear

from . import _descent
from .errors import (AssumptionViolated, BadStart, ConstraintDegeneracy,
                     ConvergenceFailure, DivergenceAssumptionViolated,
                     InvalidArgument, NoMountainPass, NotSymmetricInput,
                     OutsideDomain, SymmetryViolation)
from .funcspace import (Functional, GridFunction, GridSpace, gram_matrix,
                        norm_V, theta, function_from_json,
                        function_to_json,
                        _declared_gradient, _norm_V_raw, _norm_X_raw,
                        _pow_rows, _riesz_gradient)
from .rearrange import (approx_symmetrize, is_family_fixed,
                        polarizer_sequence_json, schwarz, _polarize_raw)
from .slopes import strong_slope

__all__ = [
    "SetOracle", "whole_space", "nonneg_cone", "box_set",
    "ViolationReport", "Certificate", "QBoundReport",
    "estimate_inf", "ekeland_point", "symmetric_ekeland",
    "symmetric_borwein_preiss", "zhong_radius", "symmetric_zhong",
    "dgz_check", "bump_perturbation", "constrained_symmetric_ekeland",
    "path_minimax", "sqps_sequence", "verify_certificate",
    "XMetric", "VMetric", "CallableMetric",
]

# the sampled symmetry checks allow f(u^H) ≤ f(u) + _TOL_SYM·(1 + |f(u)|)
_TOL_SYM = 1e-9


# ---------------------------------------------------------------------------
# domains

@dataclass
class SetOracle:
    """Membership + feasibility projection for a closed set of grid values.

    ``project`` must land inside the set (a feasibility oracle, not
    necessarily the metric projection).  The built-in kinds ``space``,
    ``cone`` and ``box`` also act on a block (k, N) of rows (``contains``
    then answers per row); ``contains_rows`` and ``project_rows``, which
    the samplers and the descent call on blocks, call any other oracle once
    per row."""

    contains: Callable[[np.ndarray], bool]
    project: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    description: str = ""

    def contains_rows(self, W):
        """``contains`` of each row of the block W, as a (k,) mask."""
        if self.kind == "space":
            return np.ones(len(W), bool)
        if self.kind in ("cone", "box"):
            return self.contains(W)
        return np.array([bool(self.contains(w)) for w in W], bool)

    def project_rows(self, W):
        """``project`` of each row of the block W."""
        if self.kind in ("space", "cone", "box"):
            return self.project(W)
        return np.array([self.project(w) for w in W], float).reshape(W.shape)


def whole_space(space: GridSpace) -> SetOracle:
    return SetOracle(contains=lambda v: True, project=lambda v: v,
                     kind="space", description="X")


def nonneg_cone(space: GridSpace) -> SetOracle:
    """The cone S of nonnegative functions; projection is pointwise clip.
    It is the box [0, ∞), and carries those bounds for the descent's
    Newton polish."""
    return SetOracle(contains=lambda v: np.all(v >= 0.0, axis=-1),
                     project=lambda v: np.maximum(v, 0.0), kind="cone",
                     lo=np.zeros(space.n_cells),
                     hi=np.full(space.n_cells, math.inf), description="S")


def box_set(space: GridSpace, lo, hi) -> SetOracle:
    lo = np.broadcast_to(np.asarray(lo, float), (space.n_cells,)).copy()
    hi = np.broadcast_to(np.asarray(hi, float), (space.n_cells,)).copy()
    return SetOracle(contains=lambda v: np.all((v >= lo - 1e-12)
                                               & (v <= hi + 1e-12), axis=-1),
                     project=lambda v: np.clip(v, lo, hi),
                     kind="box", lo=lo, hi=hi,
                     description=f"box[{lo.min():g},{hi.max():g}]")


# ---------------------------------------------------------------------------
# metrics: ``norm`` and ``dist`` take one vector, or a block (k, N) of rows
# and then return the (k,) row values

class _Metric:
    def dist(self, a, b) -> float:
        return self.norm(a - b)


class XMetric(_Metric):
    name = "X"

    def __init__(self, space: GridSpace):
        self.space = space

    def norm(self, values) -> float:
        s = self.space
        return _norm_X_raw(values, s.dimension, s.n, s.spacing, s.cell_measure, s.p)

    def penalty_grad(self, w, center):
        """Euclidean gradient of w ↦ ‖w−center‖_X for p = 2 grids, for one
        vector or each row of a block (zero where the distance is below
        1e-14); a stacked mat-vec keeps each row bit-equal to its call."""
        D = w - center
        d = np.asarray(self.norm(D))[..., None]
        G = np.matmul(gram_matrix(self.space), D[..., None])[..., 0]
        return np.divide(G, d, out=np.zeros_like(G), where=d >= 1e-14)

    def penalty_hessian(self, w, center):
        """Euclidean Hessian of w ↦ ‖w−center‖_X for p = 2 grids at one
        vector, in the descent's band form: the band Gx/d minus the rank-1
        term ccᵀ/d³, c = Gx·D with D = w − center and d = ‖D‖_X (zero where
        d is below 1e-14, as penalty_grad is)."""
        D = w - center
        d = float(self.norm(D))
        if d < 1e-14:
            return _descent._BandHessian(np.zeros((1, len(D))))
        c = gram_matrix(self.space) @ D
        return _descent._BandHessian(self.space._bands[1] / d, c[:, None],
                                     np.array([-1.0 / d ** 3]))


class VMetric(_Metric):
    name = "V"

    def __init__(self, space: GridSpace):
        self.space = space

    def norm(self, values) -> float:
        s = self.space
        return _norm_V_raw(values, s.cell_measure, s.p, s.q_V)


class CallableMetric(_Metric):
    def __init__(self, fn, name="custom"):
        self._fn = fn
        self.name = name

    def norm(self, values) -> float:
        if np.ndim(values) == 2:
            return np.array([float(self._fn(w)) for w in values])
        return float(self._fn(values))


def _check_n_samples(n_samples):
    """InvalidArgument unless ``n_samples`` is an integer ≥ 1: a smaller
    count draws nothing, so its report would be a vacuous PASS.  The
    sampling engines call it in their prologue, before any descent."""
    if (isinstance(n_samples, bool)
            or not isinstance(n_samples, numbers.Integral) or n_samples < 1):
        raise InvalidArgument(
            f"n_samples must be an integer >= 1, got {n_samples!r}")


def _check_number(name, x, positive):
    """InvalidArgument unless x is a finite real number (> 0 if
    ``positive``); bools are refused."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not math.isfinite(x) or positive and x <= 0):
        raise InvalidArgument(f"{name} must be a finite "
                              f"{'positive ' * positive}number, got {x!r}")


# ---------------------------------------------------------------------------
# reports

@dataclass
class ViolationReport:
    """Largest observed deficit of a sampled variational inequality."""

    n_samples: int
    max_violation: float
    argmax_w: Optional[GridFunction] = None
    seed: int = 0

    def to_json_dict(self):
        return {
            "n_samples": self.n_samples,
            "max_violation": self.max_violation,
            "argmax_w": (None if self.argmax_w is None
                         else [float(x) for x in self.argmax_w.values]),
            "seed": self.seed,
        }


@dataclass
class QBoundReport:
    """Sampled minimum of quotient + 2ε‖ζ‖² for the SQPS second-order bound."""

    eps_h: float
    min_margin: float
    n_probes: int
    worst_t: float
    tol_q: ClassVar[float] = 1e-6      # a constant, not a field

    def ok(self) -> bool:
        return self.min_margin >= -self.tol_q

    def to_json_dict(self):
        return {"eps_h": float(self.eps_h), "min_margin": float(self.min_margin),
                "n_probes": int(self.n_probes), "worst_t": float(self.worst_t),
                "tol_q": float(self.tol_q), "ok": bool(self.ok())}


@dataclass
class Certificate:
    """Measured record of one theorem instance.

    ``measured`` maps conclusion names to (value, theoretical_bound);
    sealing marks the certificate PASS only when every value is under its
    bound within ``tol_cert`` and the sampled deficit is under ``slack``.
    """

    variant: str
    v: GridFunction
    sigma: float
    rho: float
    p_exp: float = 1.0
    eta: Optional[GridFunction] = None
    measured: dict = field(default_factory=dict)
    violation: Optional[ViolationReport] = None
    t_rho_sequence: list = field(default_factory=list)
    status: str = "UNSEALED"
    seed: int = 0
    slack: float = 0.0
    inf_est: Optional[float] = None
    inf_probe_log: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    tol_cert: ClassVar[float] = 1e-7   # a constant, not a field

    def add_measured(self, name, value, bound):
        self.measured[name] = (float(value), float(bound))

    def seal(self) -> "Certificate":
        ok = all(v <= b + self.tol_cert for v, b in self.measured.values())
        if self.violation is not None:
            ok = ok and self.violation.max_violation <= self.slack
        self.status = "PASS" if ok else "FAILED"
        return self

    def failed_bounds(self):
        return {k: vb for k, vb in self.measured.items()
                if vb[0] > vb[1] + self.tol_cert}

    def to_json_dict(self):
        return {
            "schema": "symvar-certificate/1",
            "variant": self.variant,
            "status": self.status,
            "sigma": self.sigma,
            "rho": self.rho,
            "p_exp": self.p_exp,
            "seed": self.seed,
            "slack": self.slack,
            "inf_est": self.inf_est,
            "measured": {k: {"value": v, "bound": b}
                         for k, (v, b) in self.measured.items()},
            "violation": (None if self.violation is None
                          else self.violation.to_json_dict()),
            "t_rho_sequence": self.t_rho_sequence,
            "inf_probe_log": self.inf_probe_log,
            "extras": self.extras,
            "v": function_to_json(self.v),
            "eta": (None if self.eta is None else function_to_json(self.eta)),
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), indent=1).encode("utf-8")

    @classmethod
    def from_json_dict(cls, raw: dict) -> "Certificate":
        """The certificate a :meth:`to_json_dict` record describes, with the
        fields re-verification reads; each is checked, and a malformed one
        raises InvalidArgument naming it (a missing one, KeyError)."""
        # σ weighs the inequality, and ρ sizes the balls _sampler_radii
        # samples unless a Zhong radius is given
        for name in ("sigma", "rho", "p_exp", "slack"):
            _check_number(name, raw[name], name in ("sigma", "rho"))
        for name, kind, what in (("variant", str, "a string"),
                                 ("extras", dict, "an object")):
            if not isinstance(raw[name], kind):
                raise InvalidArgument(f"{name} must be {what}, "
                                      f"got {raw[name]!r}")
        # the Zhong radius and weight, read by _sampler_radii and _deficit
        for name in ("r_of_rho", "weight_at_v"):
            _check_number(f"extras.{name}", raw["extras"].get(name, 1.0), True)
        v = function_from_json(raw["v"])
        eta = None if raw["eta"] is None else function_from_json(raw["eta"])
        if (eta is None and raw["variant"] == "SymBP"
                or eta is not None and eta.space.signature != v.space.signature):
            raise InvalidArgument(f"eta must be a function on v's grid "
                                  f"{v.space.signature}")
        return cls(variant=raw["variant"], v=v, sigma=raw["sigma"],
                   rho=raw["rho"], p_exp=raw["p_exp"], eta=eta,
                   seed=raw["seed"], slack=raw["slack"], extras=raw["extras"])


# ---------------------------------------------------------------------------
# shared machinery

def _f_arr(f: Functional, space: GridSpace):
    """f on one vector of cell values, or on each row of a block (k, N)
    through ``Functional._eval_rows``, each row bit-equal to its call."""
    def fun(W):
        if np.ndim(W) == 1:
            return f(GridFunction(space, W))
        return f._eval_rows(space, W)

    return fun


def default_slack(fv: float) -> float:
    return 1e-6 * (1.0 + abs(fv))


def _on_domain(f: Functional, space: GridSpace, domain: SetOracle):
    """(fun, grad, project, box) for a descent on the domain; grad is the
    declared gradient, checked by ``funcspace._declared_gradient`` (another
    shape raises SpaceMismatch, a non-finite entry InvalidArgument), on
    p = 2 grids, else None.  Off the whole space fun is +inf outside the
    set, so a feasibility restoration that fails to land in the set cannot
    pass for a low value."""
    fun = _f_arr(f, space)
    grad = (None if space.p != 2.0 or f.gradient is None
            else lambda W: _declared_gradient(f, W))
    box = (domain.lo, domain.hi) if domain.kind in ("box", "cone") else None
    if domain.kind == "space":
        return fun, grad, None, box

    def guarded(W):
        if np.ndim(W) == 1:
            return fun(W) if domain.contains(W) else math.inf
        inside = domain.contains_rows(W)
        vals = np.full(len(W), math.inf)
        vals[inside] = fun(W[inside])
        return vals

    def project(W):
        return domain.project(W) if np.ndim(W) == 1 else domain.project_rows(W)

    return guarded, grad, project, box


def _check_start(f_start, inf_est, gap):
    """The start-energy hypothesis f(u0) ≤ inf_est + gap, else BadStart."""
    if f_start > inf_est + gap + 1e-12 * (1.0 + abs(inf_est)):
        raise BadStart(f"f(u0) = {f_start:.6g} exceeds inf_est + {gap:.6g} "
                       f"= {inf_est + gap:.6g}")


def estimate_inf(f: Functional, space: GridSpace, domain: SetOracle, seed,
                 extra_starts=()):
    """Documented multi-start minimization probe: the origin, the given
    starts and six random starts, descended together by one
    ``minimize_multistart`` call.

    Returns (inf_est, log, argmin_values).  The estimate is an upper bound
    on inf f over the domain; engines record it and certify against it."""
    rng = np.random.default_rng(seed)
    fun, grad, project, box = _on_domain(f, space, domain)

    starts = [domain.project(np.zeros(space.n_cells))]
    tags = ["origin"]
    for j, s0 in enumerate(extra_starts):
        starts.append(domain.project(np.asarray(s0, float)))
        tags.append(f"given{j}")
    scale = max(1.0, max(float(np.max(np.abs(s))) for s in starts))
    for j in range(6):
        starts.append(domain.project(rng.standard_normal(space.n_cells) * scale))
        tags.append(f"random{j}")

    best_x, best_f, values = _descent.minimize_multistart(
        fun, grad, starts, project=project, box=box, hess=f.hessian)
    log = [[tag, float(fx)] for tag, fx in zip(tags, values)]
    if f.lower_bound is not None and best_f < f.lower_bound - 1e-9:
        raise AssumptionViolated(
            f"probe found f = {best_f} below the declared lower bound {f.lower_bound}")
    return best_f, log, best_x


# rows drawn and scored at a time (bounds the memory): path_minimax takes
# 512 paths, sample_inequality 2**14 values but never fewer than 512 rows
_SAMPLE_BLOCK = 512
_SAMPLE_VALUES = 2 ** 14


def _project_rows(domain: SetOracle, W, D, v_vals, metric_norm):
    """(W, D): the rows of the block W projected into ``domain`` and their
    distances D to v, keeping the rows the domain contains, in order.  A
    row the projection moved gets D = metric_norm(w − v); a custom oracle
    is called once per row."""
    if domain is None:
        return W, D
    P = domain.project_rows(W)
    if P is not W:
        moved = (P != W).any(axis=1)
        if moved.any():
            D[moved] = metric_norm(P[moved] - v_vals)
    keep = domain.contains_rows(P)
    return (P, D) if keep.all() else (P[keep], D[keep])


def _probe_frac(Z):
    """Z − ⌊Z⌋ in Z's own storage: the samplers' map of a draw into [0, 1),
    bit for bit ``Z % 1.0`` at a fraction of the cost of numpy's remainder.
    For z ≥ 0 both are exact; for a negative non-integer z numpy's
    remainder rounds fmod(z, 1) + 1 once, whose exact value is z − ⌊z⌋;
    both give +0.0 on integers and on −0.0."""
    Z -= np.floor(Z)
    return Z


def _draw_worker():
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="symvar-draw")


# the one thread per process that draws the samplers' next block ahead; it
# starts on the first submit.  A forked child has no copy of the parent's
# thread, and its submit to the parent's executor would never complete, so
# the child gets a fresh executor
_DRAW = _draw_worker()
if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(
        after_in_child=lambda: globals().update(_DRAW=_draw_worker()))


def _normal_blocks(rng, n_samples, rows, shape):
    """Yield (start, Z) for start = 0, rows, 2·rows, … below ``n_samples``
    (≥ 1), Z the next min(rows, n_samples − start) standard normal draws
    of ``shape`` from ``rng``: the blocks of the serial loop, in its
    order, so the stream and every draw are the same.

    The caller's thread draws the first block.  While a next block exists,
    the process's one drawing worker (``_DRAW``) draws it as the caller
    scores the current one (numpy releases the GIL while it fills a
    block), with at most one draw pending.  When the generator ends, is
    closed, or its consumer raises and closes it (``contextlib.closing``),
    a pending draw is cancelled or waited for, so nothing touches ``rng``
    once it returns; an error in a draw is raised in the consumer."""
    starts = range(0, n_samples, rows)

    def draw(start):
        return rng.standard_normal((min(rows, n_samples - start),) + shape)

    Z = draw(0)
    ahead = None
    try:
        for start, nxt in zip(starts, starts[1:]):
            ahead = _DRAW.submit(draw, nxt)
            yield start, Z
            Z = ahead.result()
        yield starts[-1], Z
    finally:
        if ahead is not None:
            ahead.cancel() or ahead.exception()


def sample_inequality(deficit, space: GridSpace, v_vals, *, n_samples, seed,
                      radii, metric_norm, domain: SetOracle = None,
                      extra_points=()):
    """Max deficit of an inequality over ball-radii + global probes.

    Sample i turns a standard normal draw z into the point v + r·z/‖z‖ on
    the sphere of radius r = ``radii[i % (len(radii)+1)]`` around v (none
    when ‖z‖ = 0), or, when that index is len(radii), into the global probe
    v + h·(2·frac(z) − 1) in the box of half-width h = max(1, 2‖v‖_∞)
    around v, where frac(z) = z − ⌊z⌋ (``_probe_frac``, bit for bit
    ``z % 1.0``).  ``deficit(W, D)`` scores a block (k, N) of points row
    by row, given each row's distance D to v; ``metric_norm`` norms a block
    row by row.  The sampler owns the distances: a ball point is at its
    radius r, a probe at metric_norm of its offset h·(2·frac(z) − 1), an
    extra point and a point that ``domain``'s projection moved at
    metric_norm(w − v).  The radius stands for ‖w − v‖ only because the
    norm is positively homogeneous (the X, V and l1 norms are): it then
    differs from the norm of the rounded w − v by about 1e-15·(1 + ‖v‖_∞),
    far below any certificate's slack 1e-6·(1 + |f(v)|).

    Draws come sequentially from one seeded stream, a block at a time (a
    block draw equals the same draws made one by one), so a run with more
    samples extends a run with fewer (the max can only grow); the first
    strict maximum above 0 wins, the extra points first.  A block holds
    2**14 values but at least 512 rows (``_SAMPLE_VALUES``,
    ``_SAMPLE_BLOCK``); its size changes no point and no winner.  While
    the current block is scored, the process's one drawing worker draws
    the next one from the same stream, in the same order
    (``_normal_blocks``); no draw is pending once the call returns or
    raises, and an error in a draw is raised here.  Each
    block becomes its points in place: the ball rows are gathered once,
    normed, multiplied by r, divided by ‖z‖ and shifted by v, the probe
    rows are mapped through a strided view of the block, so every point
    and every distance has the bits of its one-sample formula.  A deficit
    marked ``_ignores_dist`` (``_deficit`` marks the SymBP and DGZ ones)
    gets NaN in place of every distance the sampler would have to norm: a
    probe's, an extra point's, a moved row's.
    ``n_samples`` must be an integer ≥ 1 (else InvalidArgument), and a
    run that scores no point (``domain`` kept none) raises
    AssumptionViolated: its report would be a PASS on no evidence."""
    _check_n_samples(n_samples)
    rng = np.random.default_rng(seed)
    n_dim = space.n_cells
    rows = max(_SAMPLE_BLOCK, _SAMPLE_VALUES // n_dim)
    width = max(1.0, 2.0 * float(np.max(np.abs(v_vals))))
    n_ball = len(radii)
    # each slot's distance to v; a probe's is filled in per block
    slot_dist = np.append(np.asarray(radii, float), np.nan)
    maxv, arg, scored = 0.0, None, 0
    if getattr(deficit, "_ignores_dist", False):
        def offset_norm(B):
            return np.full(len(B), np.nan)
    else:
        offset_norm = metric_norm

    def consider(W, D):
        nonlocal maxv, arg, scored
        W, D = _project_rows(domain, W, D, v_vals, offset_norm)
        if len(W) == 0:
            return
        scored += len(W)
        d = deficit(W, D)
        j = int(np.argmax(np.where(np.isnan(d), -np.inf, d)))
        if d[j] > maxv:
            maxv, arg = d[j], W[j].copy()

    if len(extra_points):
        E = np.array([np.asarray(w, float) for w in extra_points])
        consider(E, offset_norm(E - v_vals))
    with closing(_normal_blocks(rng, n_samples, rows, (n_dim,))) as blocks:
        for start, W in blocks:
            slot = (start + np.arange(len(W))) % (n_ball + 1)
            D = slot_dist[slot]
            ball = slot < n_ball
            B = W[ball]
            nz = metric_norm(B)
            zero = nz == 0.0
            has_zero = bool(zero.any())
            B *= D[ball, None]
            B /= (np.where(zero, 1.0, nz) if has_zero else nz)[:, None]
            B += v_vals
            W[ball] = B
            # the probe rows, every (n_ball + 1)-th, mapped in place in W
            # and normed before v is added
            probe = np.s_[(n_ball - start) % (n_ball + 1)::n_ball + 1]
            P = _probe_frac(W[probe])
            P *= 2.0
            P -= 1.0
            P *= width
            D[probe] = offset_norm(P)
            P += v_vals
            if has_zero:
                gone = np.flatnonzero(ball)[zero]
                consider(np.delete(W, gone, axis=0), np.delete(D, gone))
            else:
                consider(W, D)
    if not scored:
        where = "X" if domain is None else domain.description or domain.kind
        raise AssumptionViolated(f"the domain {where} kept none of the "
                                 f"{n_samples} sampled points")
    gf = None if arg is None else GridFunction(space, arg)
    return ViolationReport(n_samples=n_samples, max_violation=maxv,
                           argmax_w=gf, seed=int(seed))


def _deficit(f: Functional, cert: Certificate, metric, fv, g=None):
    """(W, D) ↦ deficits (> 0 violates) of the certificate's inequality at
    the rows w of the block W, at issue and at re-verification; ``fv`` is
    f(v) and D holds each row's distance ‖w−v‖ as ``sample_inequality``
    hands it.  SymBP: f(w) ≥ f(v) + σ(‖v−η‖^p − ‖w−η‖^p); DGZCheck:
    f(w) + g(w) ≥ f(v) + g(v), both ignoring D and marked
    ``_ignores_dist``, so the sampler norms no offset for them; otherwise
    f(w) ≥ f(v) − σc·D, c the Zhong weight at v (1 for other kinds).  Each
    row's deficit is bit-equal to the deficit of that point alone, given
    the same distance."""
    space, v_vals, sigma = cert.v.space, cert.v.values, cert.sigma
    if cert.variant == "SymBP":
        eta, p = cert.eta.values, cert.p_exp
        dve = _pow_rows(metric.dist(v_vals, eta), p)
        score = lambda W, D: (
            fv + sigma * (dve - _pow_rows(metric.dist(W, eta), p))
            - f._eval_rows(space, W))
    elif cert.variant == "DGZCheck":
        fgv = fv + g(cert.v)
        score = lambda W, D: (fgv - f._eval_rows(space, W)
                              - g._eval_rows(space, W))
    else:
        s = sigma * cert.extras.get("weight_at_v", 1)
        return lambda W, D: fv - s * D - f._eval_rows(space, W)
    score._ignores_dist = True
    return score


def _sampler_radii(cert: Certificate):
    """Ball radii (4r, r, r/4) around v; r = r(ρ) for Zhong, else ρ."""
    r = cert.extras.get("r_of_rho", cert.rho)
    return (4 * r, r, r / 4)


def _issue_sample(f, cert: Certificate, metric, fv, stream, n_samples, *,
                  domain=None, extra_points=(), g=None) -> ViolationReport:
    """Issue-time sampling of the certificate's inequality, seeded from the
    engine's verification stream."""
    return sample_inequality(
        _deficit(f, cert, metric, fv, g), cert.v.space, cert.v.values,
        n_samples=n_samples,
        seed=int(np.random.default_rng(stream).integers(2 ** 31)),
        radii=_sampler_radii(cert), metric_norm=metric.norm, domain=domain,
        extra_points=extra_points)


def check_symmetry(f: Functional, space: GridSpace, seed, domain=None):
    """Sample f(u^H) ≤ f(u) + tol at 24 draws u ∈ S, H in the registered
    family.  With a ``domain`` C each draw is projected into C (a draw the
    projection leaves outside C is skipped) and u^H must stay in C.  Each
    draw takes its H whether or not it is skipped; f scores the draws and
    their images as blocks."""
    if not space.polarizers:
        return
    dom = domain or whole_space(space)
    fun = _on_domain(f, space, dom)[0]
    U, Hs = _polarized_draws(space, seed, 24)
    U = dom.project_rows(U)
    UH = np.array([_polarize_raw(np.abs(u), H.inside, H.partner)
                   for u, H in zip(U, Hs)])
    for u, H, fu, fh, stable in zip(U, Hs, fun(U), fun(UH),
                                    dom.contains_rows(UH)):
        if math.isinf(fu):
            continue
        if not stable:
            raise AssumptionViolated("the domain is not polarization stable",
                                     witness=GridFunction(space, u))
        if fh > fu + _TOL_SYM * (1.0 + abs(fu)):
            raise SymmetryViolation(
                f"f({H}) increased by {fh - fu:.3e} on a sampled u in S")


def _polarized_draws(space: GridSpace, seed, k):
    """k draws u = |z|, z standard normal, each followed by its polarizer H
    drawn from the registered family: (the (k, N) block of u, the H's)."""
    rng = np.random.default_rng(seed)
    fam = space.polarizers
    draws = [(np.abs(rng.standard_normal(space.n_cells)),
              fam[rng.integers(len(fam))]) for _ in range(k)]
    return np.array([u for u, _ in draws]), [H for _, H in draws]


def _dominating_theta(f: Functional, u: GridFunction) -> GridFunction:
    """ξ = Θ(u) ∈ S, checked to satisfy f(ξ) ≤ f(u)."""
    xi = theta(u)
    fu, fxi = f(u), f(xi)
    if fxi > fu + 1e-9 * (1.0 + abs(fu)):
        raise AssumptionViolated(
            "no dominating point in S: f(xi) > f(u)", witness=u)
    return xi


def _t_rho(u: GridFunction, rho: float):
    """T_ρ u with the polarizer word; identity word for family-fixed u."""
    if is_family_fixed(theta(u)):
        return theta(u), []
    return approx_symmetrize(u, rho)


def _open_symmetric(f: Functional, space: GridSpace, u0: GridFunction, seed,
                    n_streams, n_samples, **positives):
    """Symmetric-engine opening, part 1: the named ``positives`` (σ and ρ,
    or ε) finite and > 0, as a certificate record needs them, the sample
    count, u0 ∈ S, the seed streams and the symmetry check on the first;
    returns the other n_streams − 1 streams."""
    for name, x in positives.items():
        _check_number(name, x, True)
    _check_n_samples(n_samples)
    if np.any(u0.values < 0):
        raise AssumptionViolated("u0 must lie in the cone S (values >= 0)")
    c_sym, *streams = np.random.SeedSequence(seed).spawn(n_streams)
    check_symmetry(f, space, c_sym)
    return streams


def _symmetric_start(f: Functional, space: GridSpace, dom: SetOracle,
                     u_start: GridFunction, r, c_inf, gap):
    """Symmetric-engine opening, part 2: T_r u_start, f(T_r u) ≤ f(u), the
    inf probe from both points and, unless ``gap`` is None, the start check.
    Returns (u_tilde, word, f(u_start), inf_est, probe log, argmin)."""
    u_tilde, seq = _t_rho(u_start, r)
    f_start = f(u_start)
    if f(u_tilde) > f_start + 1e-9 * (1.0 + abs(f_start)):
        raise SymmetryViolation("f increased along the T_rho polarization word")
    inf_est, log, argmin = estimate_inf(f, space, dom, c_inf,
                                        extra_starts=[u_start.values,
                                                      u_tilde.values])
    if gap is not None:
        _check_start(f_start, inf_est, gap)
    return u_tilde, seq, f_start, inf_est, log, argmin


def _ekeland_chain(f: Functional, space: GridSpace, domain: SetOracle,
                   u0_vals, sigma, metric, rng, *, anchor_vals, trust,
                   weight_fn=None):
    """Greedy Ekeland chain of at most 60 steps: v_{k+1} minimizes
    f(w) + σ_w(w)‖w−v_k‖ and is accepted only when the penalized value drops
    by 1e-12·(1 + |f(v_k)|); telescoping gives σ·Σ weights·steps ≤
    f(u0) − f(v).  Returns (v, log)."""
    fun, grad_f, project, box = _on_domain(f, space, domain)
    v = domain.project(np.asarray(u0_vals, float))
    fv = fun(v)
    if math.isinf(fv):
        raise OutsideDomain("f(u0) is not finite on the domain")
    log = [[float(fv), 0.0]]
    anchor = np.asarray(anchor_vals, float)

    for _ in range(60):
        ts = 1e-12 * (1.0 + abs(fv))
        vk = v

        def phi(w):
            sw = sigma if weight_fn is None else sigma * weight_fn(w)
            return fun(w) + sw * metric.dist(w, vk)

        grad_phi = hess_phi = None
        if (grad_f is not None and weight_fn is None
                and isinstance(metric, XMetric)):
            def grad_phi(w):
                return grad_f(w) + sigma * metric.penalty_grad(w, vk)

            if f.hessian is not None:
                def hess_phi(w):
                    return (_descent._band_form(f.hessian(w))
                            + sigma * metric.penalty_hessian(w, vk))

        starts = [vk, anchor, 0.5 * (vk + anchor), np.zeros_like(vk)]
        D = rng.standard_normal((2, len(vk)))
        starts += [vk + trust * d / nd
                   for d, nd in zip(D, metric.norm(D)) if nd > 0]
        # the compass keywords serve only the derivative free path
        w_best, phi_best, _ = _descent.minimize_multistart(
            phi, grad_phi, starts, project=project, box=box, hess=hess_phi,
            compass_scale=max(0.25 * trust, 1e-3), f_atol=0.25 * ts)
        # the current point is always an admissible candidate
        if phi_best <= fv - ts and metric.dist(w_best, vk) > 0.0:
            v = w_best
            fv = fun(v)
            log.append([float(fv), float(metric.dist(w_best, vk))])
            if len(log) >= 2 and log[-1][0] > log[-2][0] + 1e-12:
                raise AssumptionViolated(
                    "engine energy increased along the chain: f rose on "
                    "re-evaluation at the accepted point", witness=log)
        else:
            break
    return v, log


def _symmetry_pair(v: GridFunction, metric, r: float):
    """(measured symmetry defect, bound (K(C_Θ+1)+1)·r) for conclusion (a).

    For runs whose Ekeland metric is the X-norm the defect is measured in
    the V-norm with the grid's embedding constant K.  When the engine
    metric *is* the symmetry-measurement norm (V-metric or a caller norm
    playing the role X = V), the embedding constant is 1 and the defect is
    measured in that same norm."""
    space = v.space
    if isinstance(metric, XMetric):
        val, K = norm_V(v - schwarz(v)), space.K
    else:
        val, K = metric.dist(v.values, schwarz(v).values), 1.0
    return val, (K * (space.C_theta + 1.0) + 1.0) * r


# ---------------------------------------------------------------------------
# core principle: Ekeland point on a domain

def ekeland_point(f: Functional, domain_oracle: SetOracle, u0: GridFunction,
                  sigma, rho, *, seed=0, n_samples=2000) -> Certificate:
    """Ekeland point from u0 in the X metric: f(v) ≤ f(u0), ‖v−u0‖ ≤ ρ +
    slack, and the sampled inequality f(w) ≥ f(v) − σ‖w−v‖ over the domain.

    Requires f(u0) ≤ inf_est + σρ (BadStart otherwise), inf_est coming from
    the multi-start probe recorded in the certificate."""
    _check_number("sigma", sigma, True)
    _check_number("rho", rho, True)
    _check_n_samples(n_samples)
    space = u0.space
    metric = XMetric(space)
    ss = np.random.SeedSequence(seed)
    s_inf, s_chain, s_ver = [np.random.default_rng(c) for c in ss.spawn(3)]

    inf_est, log, argmin = estimate_inf(f, space, domain_oracle, s_inf,
                                        extra_starts=[u0.values])
    fu0 = f(u0)
    _check_start(fu0, inf_est, sigma * rho)

    v_vals, chain_log = _ekeland_chain(f, space, domain_oracle, u0.values,
                                       sigma, metric, s_chain,
                                       anchor_vals=argmin, trust=rho)
    v = GridFunction(space, v_vals)
    fv = f(v)

    cert = Certificate(variant="EkelandCore", v=v, sigma=sigma, rho=rho,
                       seed=seed, slack=default_slack(fv), inf_est=inf_est,
                       inf_probe_log=log)
    cert.extras["metric"] = metric.name
    cert.extras["chain"] = chain_log
    cert.add_measured("f(v)-f(u0)", fv - fu0, 0.0)
    loc_slack = max(0.0, (inf_est - fv) / sigma)
    cert.add_measured("‖v-u0‖", metric.dist(v_vals, u0.values), rho + loc_slack)
    cert.violation = _issue_sample(f, cert, metric, fv, s_ver, n_samples,
                                   domain=domain_oracle,
                                   extra_points=[argmin, u0.values])
    return cert.seal()


# ---------------------------------------------------------------------------
# symmetric Ekeland, variants I..V

def symmetric_ekeland(f: Functional, space: GridSpace, u0: GridFunction,
                      sigma, rho, variant="II", *, domain=None, rho2=None,
                      Y=None, gamma_sequence=None, h0=1, seed=0,
                      n_samples=2000, metric=None) -> Certificate:
    """Symmetric Ekeland point: almost-minimal, almost-critical and almost
    symmetric, certificate per variant.

    I   set-restricted on a polarization-stable closed S' (``domain``);
        symmetry bound (2K+1)ρ.
    II  whole space with a dominating point ξ ∈ S; bound (K(C_Θ+1)+1)ρ.
    III Γ-limit form: either ``gamma_sequence`` = (list of Functionals,
        recovery oracle) with the approximating conditions, or f_h ≡ f with
        ``Y`` a point list inside the fully symmetric class.
    IV  strong form: extra stability modulus over a δ-schedule; bounds use
        ρ1 + ρ2 (``rho`` is ρ1, ``rho2`` defaults to ρ1).
    V   altered form: no energy precondition; records the exact comparison
        f(v) ≤ f(u0) − σ‖v − T_ρ u0‖ and the strict sampled inequality;
        when the start also satisfies the energy precondition, the
        ``location_recovery`` extras recover the ρ-location bound.
    """
    if variant not in ("I", "II", "III", "IV", "V"):
        raise InvalidArgument(f"unknown variant {variant!r}")
    metric = metric or XMetric(space)
    c_inf, c_chain, c_ver, c_extra = _open_symmetric(f, space, u0, seed, 5,
                                                    n_samples, sigma=sigma,
                                                    rho=rho)
    if variant == "III":
        return _symmetric_ekeland_gamma(
            f, space, u0, sigma, rho, Y=Y, gamma_sequence=gamma_sequence,
            h0=h0, seed=seed, n_samples=n_samples, metric=metric,
            c_inf=c_inf, c_rest=c_chain)

    u_start = u0
    dom = domain
    extras = {"metric": metric.name, "variant_detail": {}}
    if variant == "I":
        dom = dom or nonneg_cone(space)
    elif variant == "II":
        u_start = _dominating_theta(f, u0)
    dom = dom or whole_space(space)

    # variant IV polarizes to ρ1 + ρ2 and carries that radius in its bounds
    r_bound = (rho + (rho if rho2 is None else rho2)) if variant == "IV" else rho
    u_tilde, seq, f_start, inf_est, log, argmin = _symmetric_start(
        f, space, dom, u_start, r_bound, c_inf,
        None if variant == "V" else sigma * rho)

    rng_chain = np.random.default_rng(c_chain)
    v_vals, chain_log = _ekeland_chain(
        f, space, dom, u_tilde.values, sigma, metric, rng_chain,
        anchor_vals=argmin, trust=rho)
    v = GridFunction(space, v_vals)
    fv = f(v)

    cert = Certificate(variant=f"SymEkeland{variant}", v=v, sigma=sigma,
                       rho=rho, seed=seed, slack=default_slack(fv),
                       inf_est=inf_est, inf_probe_log=log,
                       t_rho_sequence=polarizer_sequence_json(seq))
    cert.extras.update(extras)
    cert.extras["chain"] = chain_log

    sym_val, sym_bound = _symmetry_pair(v, metric, r_bound)
    cert.add_measured("‖v-v*‖_V", sym_val, sym_bound)
    if variant == "V":
        # Theorem conclusion (b), an exact recorded comparison
        dvT = metric.dist(v_vals, u_tilde.values)
        cert.add_measured("f(v)+σ‖v-T_ρu0‖-f(u0)",
                          fv + sigma * dvT - f_start, 0.0)
        if f_start <= inf_est + sigma * rho:
            cert.extras["location_recovery"] = {
                "‖v-T_ρu0‖": dvT,
                "(f(u0)-f(v))/σ": (f_start - fv) / sigma,
                "rho": rho,
                "ok": bool(dvT <= (f_start - fv) / sigma + 1e-12
                           and (f_start - fv) / sigma <= rho + 1e-12),
            }
    else:
        cert.add_measured("f(v)-f(u0)", fv - f_start, 0.0)
    drift = metric.dist(u_tilde.values, u_start.values)
    if variant == "V":
        # no energy precondition: the only location control is the chain
        # telescoping σ‖v−T_ρu0‖ ≤ f(u0) − f(v)
        loc_bound = max(0.0, (f_start - fv)) / sigma + drift
    else:
        loc_bound = r_bound + drift + max(0.0, (inf_est - fv) / sigma)
    cert.add_measured("‖v-u0‖", metric.dist(v_vals, u_start.values), loc_bound)
    cert.violation = _issue_sample(
        f, cert, metric, fv, c_ver, n_samples, domain=dom,
        extra_points=[argmin, u_start.values, u_tilde.values])

    if variant == "IV":
        rng_x = np.random.default_rng(c_extra)
        cert.extras["stability_modulus"] = _stability_modulus(
            f, space, v_vals, fv, sigma, metric, rng_x, rho=r_bound)
    return cert.seal()


def _stability_modulus(f, space, v_vals, fv, sigma, metric, rng, *, rho):
    """max ‖w−v‖ over 400 sampled w with f(w)+σ‖w−v‖ ≤ f(v)+δ, per δ.

    Theorem conclusion (c) says minimizing sequences of w ↦ f(w)+σ‖w−v‖
    converge to v; the moduli should shrink with δ."""
    deltas = [sigma * rho, sigma * rho / 4, sigma * rho / 16, sigma * rho / 64]
    W = v_vals + _radial_draws(rng, metric, space.n_cells, 400, 0, 4 * rho)
    dist = metric.dist(W, v_vals)
    val = f._eval_rows(space, W) + sigma * dist
    return [[float(d), float(max(dist[val <= fv + d], default=0.0))]
            for d in deltas]


def _radial_draws(rng, metric, n_cells, k, lo, hi):
    """The rows c·z/‖z‖ of k draws: z standard normal, then, unless
    ‖z‖ = 0 drops the draw, c uniform in [lo, hi].  The normal and uniform
    draws interleave, so they stay one at a time."""
    rows = []
    for _ in range(k):
        z = rng.standard_normal(n_cells)
        nz = metric.norm(z)
        if nz != 0:
            rows.append(rng.uniform(lo, hi) * z / nz)
    return np.reshape(rows, (-1, n_cells))


def _symmetric_ekeland_gamma(f, space, u0, sigma, rho, *, Y, gamma_sequence,
                             h0, seed, n_samples, metric, c_inf, c_rest):
    """Γ-limit variant.  With gamma_sequence=(f_list, recovery) the engine
    follows the approximating construction; with f_h ≡ f (default) it runs
    the specialization on a point list Y in the fully symmetric class.
    c_inf seeds the inf probe and c_rest the inner variant-II run; both are
    streams of the caller's spawn, apart from its symmetry-check stream."""
    m = 5
    sig_hat, sig_til = 0.2 * sigma, 0.4 * sigma
    sig_eff = m * sig_til / (m - 1)            # = sigma/2 < sigma
    rho_eff = (m - 1) * rho / m

    if gamma_sequence is None:
        f_list = None
        if Y is None or len(Y) == 0:
            raise AssumptionViolated("variant III needs Y or a gamma_sequence")
        for y in Y:
            if not is_family_fixed(theta(y)) or np.any(y.values < 0):
                raise NotSymmetricInput("Y must lie inside the fully "
                                        "symmetric class X_{H*}")
        f_h, h_used = f, h0
        u_h = min(Y, key=f)
    else:
        f_list, recovery = gamma_sequence
        h_used = max(h0, 0)
        f_h = f_list(h_used) if callable(f_list) else f_list[h_used]
        base = min(Y, key=f) if Y else u0
        u_h = recovery(base, h_used)
        if np.any(u_h.values < 0):
            raise AssumptionViolated("recovery sequence must stay in S")

    dom = whole_space(space)
    inf_est, log, argmin = estimate_inf(f_h, space, dom,
                                        np.random.default_rng(c_inf),
                                        extra_starts=[u_h.values])
    _check_start(f_h(u_h), inf_est, sig_til * rho)

    sub = symmetric_ekeland(f_h, space, u_h, sig_eff, rho_eff, variant="II",
                            seed=int(np.random.default_rng(c_rest).integers(2 ** 31)),
                            n_samples=n_samples, metric=metric)
    v = sub.v
    fv = f_h(v)
    cert = Certificate(variant="SymEkelandIII", v=v, sigma=sigma, rho=rho,
                       seed=seed, slack=sub.slack, inf_est=inf_est,
                       inf_probe_log=log, t_rho_sequence=sub.t_rho_sequence)
    cert.extras["metric"] = metric.name
    cert.extras["constants"] = {"m": m, "sigma_hat": sig_hat,
                                "sigma_tilde": sig_til,
                                "sigma_effective": sig_eff,
                                "rho_effective": rho_eff, "h": h_used}
    cert.add_measured("‖v-v*‖_V", *_symmetry_pair(v, metric, rho))
    cert.add_measured("|f(v)-inf_est|", abs(fv - inf_est), sigma * rho)
    if Y:
        xm = XMetric(space)
        dY = min(xm.dist(v.values, y.values) for y in Y)
        if gamma_sequence is None:
            # Y ⊂ X_{H*}: T_ρ is the identity on Y, bound is plain ρ
            cert.add_measured("d(v,Y)", dY, rho)
        else:
            u_h_tilde, _ = _t_rho(u_h, rho_eff)
            drift = xm.dist(u_h_tilde.values, u_h.values) \
                + min(xm.dist(u_h.values, y.values) for y in Y)
            cert.add_measured("d(v,Y)", dY, rho + drift)
    cert.violation = sub.violation
    return cert.seal()


# ---------------------------------------------------------------------------
# symmetric Borwein-Preiss

def symmetric_borwein_preiss(f: Functional, space: GridSpace,
                             u0: GridFunction, sigma, rho, p_exp=2, *,
                             domain=None, seed=0,
                             n_samples=2000) -> Certificate:
    """Smooth symmetric principle: produces (v, η) with the p-th power
    penalty inequality (e) f(w) ≥ f(v) + σ(‖v−η‖^p − ‖w−η‖^p).

    The proof's countable convex combination is replaced by one moving
    center: η starts at T_ρu0, v is the penalized global minimizer, and η
    bisects toward v until ‖v−η‖ ≤ ρ/2, in at most 200 rounds."""
    metric = XMetric(space)
    dom = domain or whole_space(space)
    c_inf, c_ver = _open_symmetric(f, space, u0, seed, 3, n_samples,
                                   sigma=sigma, rho=rho)
    gap = sigma * rho ** p_exp
    u_tilde, seq, fu0, inf_est, log, argmin = _symmetric_start(
        f, space, dom, u0, rho, c_inf, gap)

    # the penalized minimizer runs on f itself, without the domain guard
    fun = _f_arr(f, space)
    _, grad_f, project, box = _on_domain(f, space, dom)
    gram = gram_matrix(space) if space.p == 2.0 else None

    eta = np.array(u_tilde.values)
    v_vals = None
    for _ in range(200):
        def phi(w):
            # one power for a block and for one vector, as in _deficit
            return fun(w) + sigma * _pow_rows(metric.dist(w, eta), p_exp)

        grad_phi = hess_phi = None
        if grad_f is not None and p_exp == 2 and gram is not None:
            def grad_phi(w):
                pen = np.matmul(gram, (w - eta)[..., None])[..., 0]
                return grad_f(w) + 2.0 * sigma * pen

            if f.hessian is not None:
                pen_hess = (2.0 * sigma) * _descent._BandHessian(
                    space._bands[1])

                def hess_phi(w):
                    return _descent._band_form(f.hessian(w)) + pen_hess

        starts = [eta, argmin, 0.5 * (eta + argmin), np.zeros_like(eta)]
        v_vals, _, _ = _descent.minimize_multistart(
            phi, grad_phi, starts, project=project, box=box, hess=hess_phi)
        if metric.dist(v_vals, eta) <= rho / 2.0:
            break
        eta = 0.5 * (eta + v_vals)
    else:
        raise ConvergenceFailure("Borwein-Preiss center loop did not settle",
                                 best=GridFunction(space, v_vals))

    v = GridFunction(space, v_vals)
    fv = f(v)
    if fv > inf_est + gap + 1e-9 * (1.0 + abs(inf_est)):
        raise ConvergenceFailure(
            "inner minimizer stalled above inf_est + sigma*rho^p",
            residual=fv - inf_est - gap, best=v)

    eta_gf = GridFunction(space, eta)
    cert = Certificate(variant="SymBP", v=v, sigma=sigma, rho=rho,
                       p_exp=float(p_exp), eta=eta_gf, seed=seed,
                       slack=default_slack(fv),
                       inf_est=inf_est, inf_probe_log=log,
                       t_rho_sequence=polarizer_sequence_json(seq))
    cert.extras["metric"] = metric.name
    drift = metric.dist(u_tilde.values, u0.values)
    cert.add_measured("‖v-v*‖_V", *_symmetry_pair(v, metric, rho))
    cert.add_measured("‖v-u‖", metric.dist(v_vals, u0.values), rho + drift)
    cert.add_measured("‖η-u‖", metric.dist(eta, u0.values), rho + drift)
    cert.add_measured("f(v)-inf_est", fv - inf_est, gap)
    cert.violation = _issue_sample(f, cert, metric, fv, c_ver, n_samples,
                                   domain=dom,
                                   extra_points=[argmin, u0.values, eta])
    return cert.seal()


# ---------------------------------------------------------------------------
# Zhong weights

# zhong_radius gives up once its doubling search passes this radius
_ZHONG_R_CAP = 1e8


def zhong_radius(h: Callable[[float], float], rho: float) -> float:
    """Minimal r with ∫_0^r ds/(1+h(s)) = ρ, by bisection over quadrature.

    The integral is computed to absolute and relative tolerance 1e-12; the
    upper end doubles from max(ρ, 1) and DivergenceAssumptionViolated is
    raised past r = 1e8; bisection stops at an interval width of 1e-10 and
    returns its midpoint.  h must be nondecreasing, continuous and
    nonnegative with divergent ∫ ds/(1+h) (declared by the caller;
    spot-checked on a probe grid)."""
    if not rho > 0:                    # NaN too
        raise InvalidArgument("rho must be positive")
    probes = np.linspace(0.0, 10.0, 21)
    vals = [h(s) for s in probes]
    if any(v < -1e-12 for v in vals) or any(b < a - 1e-9 for a, b in
                                            zip(vals, vals[1:])):
        raise AssumptionViolated("h must be nonnegative and nondecreasing")

    def integral(r):
        with warnings.catch_warnings():
            # the doubling cap probes integrals that may be slowly
            # convergent on purpose (divergence detection)
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda s: 1.0 / (1.0 + h(s)), 0.0, r,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    hi = max(rho, 1.0)
    while integral(hi) < rho:
        hi *= 2.0
        if hi > _ZHONG_R_CAP:
            raise DivergenceAssumptionViolated(
                f"∫ ds/(1+h) did not reach rho={rho} below r={_ZHONG_R_CAP:g}")
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if integral(mid) >= rho:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def symmetric_zhong(f: Functional, space: GridSpace, u0: GridFunction,
                    sigma, rho, h: Callable[[float], float], *, domain=None,
                    seed=0, n_samples=2000) -> Certificate:
    """Weighted symmetric Ekeland point: the inequality carries the factor
    1/(1+h(‖v−T_{r(ρ)}u0‖)) and all location bounds use r(ρ)."""
    metric = XMetric(space)
    dom = domain or whole_space(space)
    c_inf, c_chain, c_ver = _open_symmetric(f, space, u0, seed, 4,
                                            n_samples, sigma=sigma, rho=rho)
    r = zhong_radius(h, rho)
    u_tilde, seq, fu0, inf_est, log, argmin = _symmetric_start(
        f, space, dom, u0, r, c_inf, sigma * rho)

    anchor = np.array(u_tilde.values)

    def weight(w):
        return 1.0 / (1.0 + h(metric.dist(w, anchor)))

    v_vals, chain_log = _ekeland_chain(
        f, space, dom, anchor, sigma, metric,
        np.random.default_rng(c_chain), weight_fn=weight,
        anchor_vals=argmin, trust=r)
    v = GridFunction(space, v_vals)
    fv = f(v)

    w_final = weight(v_vals)
    cert = Certificate(variant="SymZhong", v=v, sigma=sigma, rho=rho,
                       seed=seed, slack=default_slack(fv), inf_est=inf_est,
                       inf_probe_log=log,
                       t_rho_sequence=polarizer_sequence_json(seq))
    cert.extras["metric"] = metric.name
    cert.extras["chain"] = chain_log
    cert.extras["r_of_rho"] = r
    cert.extras["weight_at_v"] = w_final
    cert.add_measured("‖v-v*‖_V", *_symmetry_pair(v, metric, r))
    cert.add_measured("f(v)-f(u0)", fv - fu0, 0.0)
    drift = metric.dist(u_tilde.values, u0.values)
    cert.add_measured("‖v-u0‖", metric.dist(v_vals, u0.values),
                      r + drift + max(0.0, (inf_est - fv) / sigma))
    cert.violation = _issue_sample(
        f, cert, metric, fv, c_ver, n_samples, domain=dom,
        extra_points=[argmin, u0.values, u_tilde.values])
    return cert.seal()


# ---------------------------------------------------------------------------
# Deville-Godefroy-Zizler: candidate generation + certificate checking

def bump_perturbation(space: GridSpace, v: GridFunction, eps: float,
                      delta: float) -> Functional:
    """C¹ compactly supported bump g(w) = −A·(1−s²)², s = ‖w−v‖_X/δ,
    scaled so that sup|g| ≤ ε and sup‖g'‖ ≤ ε (A = ε·min(1, δ/M) with
    M = max|bump'| = 8/(3√3))."""
    M = 8.0 / (3.0 * math.sqrt(3.0))
    A = eps * min(1.0, delta / M)
    metric = XMetric(space)
    gram = gram_matrix(space)

    def g_eval(w):
        s = metric.dist(w.values, v.values) / delta
        if s >= 1.0:
            return 0.0
        return -A * (1.0 - s * s) ** 2

    def g_grad(W):
        # d/dw of −A·bump(s) = coeff·Gx(w − v), zero off the support and at
        # v; a stacked mat-vec keeps each row bit-equal to its call
        D = W - v.values
        d = np.asarray(metric.norm(D))[..., None]
        s = d / delta
        coeff = np.divide(A * (4.0 * s * (1.0 - s * s)), delta * d,
                          out=np.zeros_like(d), where=(s < 1.0) & (d >= 1e-15))
        return coeff * np.matmul(gram, D[..., None])[..., 0]

    return Functional(eval=g_eval, gradient=g_grad, name="dgz-bump",
                      symmetry_class="unverified")


def dgz_check(f: Functional, g: Functional, v: GridFunction, eps, *,
              u0: GridFunction = None, seed=0, n_samples=2000) -> Certificate:
    """Report-only verification of a smooth-perturbation certificate:
    sup|g| ≤ ε, sup‖g'‖ ≤ ε on probes, and global minimality of f+g at v.
    ‖g'‖ is the X-norm of the Riesz solve of g's declared gradient on
    p = 2 grids (one block gradient call and one solve for all probes),
    else a forward difference along one random direction per probe.
    Never raises on a failed check; failures surface as a FAILED
    certificate with witness."""
    _check_number("eps", eps, True)
    _check_n_samples(n_samples)
    space = v.space
    metric = XMetric(space)
    riesz = g.gradient is not None and space.p == 2.0
    ss = np.random.SeedSequence(seed)
    c_probe, c_ver = ss.spawn(2)
    rng = np.random.default_rng(c_probe)
    # the probe draws interleave, so they stay one at a time; g scores the
    # probes (and their finite-difference partners) as blocks
    width = max(1.0, 2.0 * float(np.max(np.abs(v.values))))
    W, fd = [], []
    for i in range(max(200, n_samples // 10)):
        z = rng.standard_normal(space.n_cells)
        if i % 2 == 0:
            nz = metric.norm(z)
            W.append(v.values + (rng.uniform(0, 4) * z / nz if nz > 0 else z))
        else:
            W.append(v.values + width * (2.0 * _probe_frac(z) - 1.0))
        if not riesz:
            # the partner of the finite difference (w itself if d = 0)
            d = rng.standard_normal(space.n_cells)
            nd = metric.norm(d)
            fd.append(W[-1] + (1e-6 * d / nd if nd > 0 else 0.0))
    W = np.array(W)
    gw = g._eval_rows(space, W)
    sup_g = max([0.0, *np.abs(gw).tolist()])
    if riesz:
        sup_gp = max([0.0,
                      *metric.norm(_riesz_gradient(g, space, W)).tolist()])
    else:
        gd = g._eval_rows(space, np.array(fd))
        sup_gp = max([0.0, *(np.abs(gd - gw) / 1e-6).tolist()])

    fv = f(v)
    cert = Certificate(variant="DGZCheck", v=v, sigma=eps, rho=eps, seed=seed,
                       slack=default_slack(fv + g(v)))
    cert.extras["metric"] = metric.name
    cert.extras["inequality"] = "f(w)+g(w) >= f(v)+g(v)"
    cert.add_measured("‖v-v*‖_V", *_symmetry_pair(v, metric, eps))
    cert.add_measured("sup|g|", sup_g, eps)
    cert.add_measured("sup‖g'‖", sup_gp, eps)
    if u0 is not None:
        u_tilde, _ = _t_rho(u0, eps)
        cert.add_measured("‖v-u‖", metric.dist(v.values, u0.values),
                          eps + metric.dist(u_tilde.values, u0.values))
    cert.violation = _issue_sample(f, cert, metric, fv, c_ver, n_samples, g=g)
    return cert.seal()


# ---------------------------------------------------------------------------
# constrained principle

# feasibility tolerance of the constraint set; a constraint within
# 10·_TOL_CON of zero at v counts as saturated
_TOL_CON = 1e-9


def _constraint_set(space, G, n_eq):
    def residuals(vals):
        u = GridFunction(space, vals)
        return np.array([Gj(u) for Gj in G])

    def contains(vals):
        r = residuals(vals)
        eq_ok = np.all(np.abs(r[:n_eq]) <= _TOL_CON)
        in_ok = np.all(r[n_eq:] >= -_TOL_CON)
        return bool(eq_ok and in_ok)

    def project(vals):
        x = np.array(vals, float)
        for _ in range(60):
            r = residuals(x)
            viol_eq = list(range(n_eq))
            viol_in = [j for j in range(n_eq, len(G)) if r[j] < -_TOL_CON]
            act = [j for j in viol_eq if abs(r[j]) > _TOL_CON] + viol_in
            if not act:
                return x
            J = np.stack([_declared_gradient(G[j], x) for j in act])
            c = r[act]
            try:
                dx = -J.T @ np.linalg.solve(J @ J.T + 1e-12 * np.eye(len(act)), c)
            except np.linalg.LinAlgError:
                return x
            x = x + dx
        return x

    return SetOracle(contains=contains, project=project, kind="custom",
                     description="constraint set")


def constrained_symmetric_ekeland(f: Functional, G, n_eq, u0: GridFunction,
                                  eps, *, seed=0,
                                  n_samples=2000) -> Certificate:
    """Ekeland on the constraint set {G_j = 0 (j ≤ n_eq), G_j ≥ 0 (j > n_eq)},
    with Lagrange multipliers from sign-constrained least squares on the
    saturated constraints.

    With no constraints this reduces to the symmetric Ekeland principle II.
    With constraints it needs declared gradients of f and every G_j and
    p = 2: the multipliers and the residual's dual norm are taken from
    their Riesz solves with the Cholesky factor of Gx.
    """
    _check_number("eps", eps, True)
    _check_n_samples(n_samples)
    space = u0.space
    if len(G) == 0:
        return symmetric_ekeland(f, space, u0, eps, eps, variant="II",
                                 seed=seed, n_samples=n_samples)
    if (space.p != 2.0 or f.gradient is None
            or any(Gj.gradient is None for Gj in G)):
        raise AssumptionViolated("constrained principle needs p = 2 and "
                                 "declared gradients of f and every G_j")
    metric = XMetric(space)
    dom = _constraint_set(space, G, n_eq)
    c_sym, c_inf, c_chain, c_ver = np.random.SeedSequence(seed).spawn(4)
    # symmetry of the constrained problem: u^H stays feasible, f does not grow
    check_symmetry(f, space, c_sym, dom)
    u_start = GridFunction(space, dom.project(np.abs(u0.values)))
    u_tilde, seq, _, inf_est, log, argmin = _symmetric_start(
        f, space, dom, u_start, eps, c_inf, eps * eps)

    v_vals, chain_log = _ekeland_chain(
        f, space, dom, u_tilde.values, eps, metric,
        np.random.default_rng(c_chain), anchor_vals=argmin, trust=eps)
    v = GridFunction(space, v_vals)
    fv = f(v)

    # multipliers on the saturated constraints
    rvals = np.array([Gj(v) for Gj in G])
    saturated = [j for j in range(len(G)) if abs(rvals[j]) <= 10 * _TOL_CON]
    lam = np.zeros(len(G))
    rep_f = _riesz_gradient(f, space, v.values)
    if saturated:
        reps = np.stack([_riesz_gradient(G[j], space, v.values)
                         for j in saturated]).T
        U = space._matrices[2]  # the grid's Cholesky factor, gram = UᵀU
        A = U @ reps
        y = U @ rep_f
        sv = np.linalg.svd(A, compute_uv=False)
        if sv.size and sv.min() < 1e-10 * max(1.0, sv.max()):
            raise ConstraintDegeneracy("saturated constraint gradients are "
                                       "numerically dependent")
        lo = [-np.inf if j < n_eq else 0.0 for j in saturated]
        sol = lsq_linear(A, y, bounds=(lo, [np.inf] * len(saturated)))
        for k, j in enumerate(saturated):
            lam[j] = sol.x[k]
        resid_vec = rep_f - reps @ sol.x
    else:
        resid_vec = rep_f
    resid = float(np.sqrt(resid_vec @ gram_matrix(space) @ resid_vec))

    cert = Certificate(variant="Constrained", v=v, sigma=eps, rho=eps,
                       seed=seed, slack=default_slack(fv), inf_est=inf_est,
                       inf_probe_log=log,
                       t_rho_sequence=polarizer_sequence_json(seq))
    cert.extras["metric"] = metric.name
    cert.extras["chain"] = chain_log
    cert.extras["multipliers"] = [float(x) for x in lam]
    cert.extras["saturated"] = saturated
    cert.add_measured("‖df-Σλ·dG‖_X'", resid, eps)
    cert.add_measured("f(v)-inf_est", fv - inf_est, eps * eps)
    cert.add_measured("‖v-v*‖_V", *_symmetry_pair(v, metric, eps))
    cert.violation = _issue_sample(f, cert, metric, fv, c_ver, n_samples,
                                   domain=dom,
                                   extra_points=[argmin, u_start.values])
    return cert.seal()


# ---------------------------------------------------------------------------
# path-space symmetric minimax

# node-gradient sweeps of path_minimax's f̂ descent
_MINIMAX_SWEEPS = 200


def path_minimax(f: Functional, psi: GridFunction, m_nodes: int, eps, *,
                 seed=0, n_samples=600) -> Certificate:
    """Symmetric mountain-pass point from discrete paths 0 → ψ.

    Paths are node lists (γ_0, ..., γ_m) with γ_0 = 0, γ_m = ψ; the path
    functional is f̂(γ) = max_t f(γ_t) with the sup-of-X-norms metric.  The
    engine checks the mountain-pass geometry, polarizes nodewise, runs the
    set-restricted Ekeland chain in path space and returns the argmax node
    with the three measured bounds.  It needs p = 2 and f's declared
    gradient: the node moves and ‖df(u_ε)‖ take the gradient's Riesz
    solve."""
    space = psi.space
    if space.p != 2.0 or f.gradient is None:
        raise AssumptionViolated("path minimax needs p = 2 and a declared "
                                 "gradient")
    if np.any(psi.values < 0) or not is_family_fixed(psi):
        raise NotSymmetricInput("psi must be fixed by every registered "
                                "polarizer")
    _, c_chain, c_ver = _open_symmetric(f, space, psi, seed, 4, n_samples,
                                        eps=eps)

    zero = space.zeros()
    f_ends = (f(zero), f(psi))
    barrier = max(f_ends)
    m = int(m_nodes)
    metric = XMetric(space)
    if m < 2:
        raise NoMountainPass("a two-node path cannot exceed its endpoints: "
                             "f̂ = max(f(0), f(ψ))")

    # a path is the (m−1, N) block of its inner nodes γ_1, ..., γ_{m−1}
    def nodes(path):
        return np.vstack([zero.values, path, psi.values])

    def node_vals(paths):
        """[f(0), f(γ_1), ..., f(ψ)] for each path of a list or block."""
        inner = f._eval_rows(space, np.reshape(paths, (-1, space.n_cells)))
        return [[f_ends[0], *row, f_ends[1]]
                for row in inner.reshape(-1, m - 1).tolist()]

    def path_dists(paths, b):
        """The sup over the nodes of ‖γ_t − b_t‖_X for each path γ."""
        d = metric.norm((paths - b).reshape(-1, space.n_cells))
        return d.reshape(len(paths), m - 1).max(axis=1)

    def node_gradient_moves(path, fv, step):
        """The path with its near-top nodes (fv: the f values of its nodes)
        moved by ``step`` against the X-unit Riesz solve of their gradient,
        at three nearness levels; one block gradient call and one solve
        serve all of them."""
        top, cands = max(fv), []
        nears = (0.0, 0.1 * (abs(top) + 1.0) * 1e-6,
                 0.05 * (top - min(fv) + 1e-12))
        idx = [i for i in range(1, m) if fv[i] >= top - max(nears)]
        if not idx:
            return cands
        G = _riesz_gradient(f, space, path[np.subtract(idx, 1)])
        NG = metric.norm(G)
        for near in nears:
            cand = np.array(path)
            for i, g, ng in zip(idx, G, NG):
                if fv[i] >= top - near and ng > 0:
                    cand[i - 1] -= step * g / ng
            if not np.array_equal(cand, path):
                cands.append(cand)
        return cands

    # initial straight path, then descend f̂ to estimate the minimax level
    path = np.outer(np.linspace(0.0, 1.0, m + 1)[1:-1], psi.values)
    fv = node_vals([path])[0]
    step = 0.25 * max(1.0, metric.norm(psi.values))
    for _ in range(_MINIMAX_SWEEPS):
        best, best_val = None, max(fv)
        cands = node_gradient_moves(path, fv, step)
        for cand, cfv in zip(cands, node_vals(cands)):
            if max(cfv) < best_val - 1e-14:
                best, best_val = (cand, cfv), max(cfv)
        if best is None:
            step *= 0.5
            if step < 1e-9:
                break
        else:
            path, fv = best
    c_est = max(fv)
    if c_est <= barrier + 1e-9 * (1.0 + abs(barrier)):
        raise NoMountainPass(
            f"estimated minimax level {c_est:.6g} does not exceed "
            f"max(f(0), f(psi)) = {barrier:.6g}")

    # nodewise T_eps (identity on already-symmetric nodes)
    tilde = [_t_rho(GridFunction(space, nd), eps) for nd in path]
    cur = np.array([tnd.values for tnd, _ in tilde])
    seq_all = [H for _, seq in tilde for H in seq]
    fv = node_vals([cur])[0]
    if max(fv) > c_est + 1e-9 * (1.0 + abs(c_est)):
        raise SymmetryViolation("nodewise polarization increased f̂")

    # path-space Ekeland chain with sigma = eps on the sup metric: each move
    # scores φ(γ) = f̂(γ) + ε·d(γ, v_k) at the path and its candidates at once
    rng_chain = np.random.default_rng(c_chain)
    for _ in range(40):
        vk, fvk = cur, max(fv)
        improved = False
        step = max(eps, 0.05 * metric.norm(psi.values))
        for _ in range(60):
            moves = node_gradient_moves(cur, fv, step)
            Z = rng_chain.standard_normal((2,) + cur.shape)
            Z = (step * Z
                 / np.maximum(1e-12, path_dists(Z + vk, vk))[:, None, None])
            paths = np.array([cur, *moves, *(cur + Z)])
            fvs = node_vals(paths)
            phis = [max(v) + eps * d
                    for v, d in zip(fvs, path_dists(paths, vk).tolist())]
            best = 0
            for j in range(1, len(paths)):
                if phis[j] < phis[best] - 1e-13 * (1.0 + abs(phis[best])):
                    best = j
            if best == 0:
                step *= 0.5
                if step < 1e-10:
                    break
            else:
                cur, fv, improved = paths[best], fvs[best], True
        if not improved or fvk - max(fv) < 1e-12 * (1.0 + abs(fvk)):
            break

    nodes_final = nodes(cur)
    t_idx = int(np.argmax(fv))
    u_eps = GridFunction(space, nodes_final[t_idx])
    fu = fv[t_idx]

    cert = Certificate(variant="PathMinimax", v=u_eps, sigma=eps, rho=eps,
                       seed=seed, slack=default_slack(fu), inf_est=c_est,
                       t_rho_sequence=polarizer_sequence_json(seq_all))
    cert.extras["metric"] = "X-path-sup"
    cert.extras["argmax_node"] = t_idx
    cert.extras["m_nodes"] = m
    cert.extras["barrier"] = barrier
    cert.extras["path"] = [[float(x) for x in nd] for nd in nodes_final]
    # the path engine claims its T_ε radius ε itself, not the (a) bound
    cert.add_measured("‖u_ε-u_ε*‖_V", _symmetry_pair(u_eps, metric, eps)[0],
                      eps)
    cert.add_measured("‖df(u_ε)‖",
                      metric.norm(_riesz_gradient(f, space, u_eps.values)),
                      eps + 1e-6)
    cert.add_measured("f(u_ε)-c_est", fu - c_est, eps)
    cert.add_measured("c_est-f(u_ε)", c_est - fu, 0.0)  # c ≤ f̂(γ_ε) = f(u_ε)

    # sample i lies on the sphere of radius (4ε, ε, ε/4)[i % 3] around γ_ε;
    # the first strict maximum wins
    rng_ver = np.random.default_rng(c_ver)
    maxv, arg = 0.0, None
    with closing(_normal_blocks(rng_ver, n_samples, _SAMPLE_BLOCK,
                                cur.shape)) as blocks:
        for start, Z in blocks:
            r = np.array([4 * eps, eps, eps / 4])[
                (start + np.arange(len(Z))) % 3]
            nz = path_dists(cur + Z, cur)
            keep = nz != 0
            paths = cur + r[keep, None, None] * Z[keep] / nz[keep, None, None]
            d = np.append(max(fv) - eps * path_dists(paths, cur)
                          - [max(v) for v in node_vals(paths)], 0.0)
            j = int(np.argmax(np.where(np.isnan(d), -np.inf, d)))
            if d[j] > maxv:
                maxv, arg = d[j], paths[j]
    cert.violation = ViolationReport(
        n_samples=n_samples, max_violation=maxv,
        argmax_w=None if arg is None else GridFunction(
            space, nodes(arg)[int(np.argmax(node_vals([arg])[0]))]),
        seed=int(rng_ver.integers(2 ** 31)))
    return cert.seal()


# ---------------------------------------------------------------------------
# SQPS sequences (symmetric quasi-convex Palais-Smale)

def sqps_sequence(f: Functional, space: GridSpace, eps_schedule, *,
                  domain=None, minimizing_sequence=None, seed=0,
                  n_samples=2000, q_probes=48):
    """Palais-Smale sequence with vanishing symmetry defect and
    asymptotically nonnegative second-order quotients.

    For each ε_h in the decreasing schedule the smooth principle runs with
    p = 2 and σ = ρ = ε_h from a dominating point of the bounded minimizing
    sequence; each step reports the slope bound, the symmetry residual, and
    the sampled minimum of quotient + 2ε_h‖ζ‖² (which the penalized-
    minimizer construction keeps ≥ 0 up to solver slack; the QBoundReport
    accepts a minimum down to −1e-6).  Each certificate carries the default
    slack 1e-6·(1 + |f(v)|)."""
    if space.p != 2.0:
        raise AssumptionViolated("the SQPS pipeline requires the Hilbert "
                                 "case p = 2")
    _check_n_samples(n_samples)
    eps_schedule = [float(e) for e in eps_schedule]
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise InvalidArgument("eps_schedule must decrease strictly")
    dom = domain or whole_space(space)
    ss = np.random.SeedSequence(seed)
    c_sym, c_norm, *c_h = ss.spawn(2 + 2 * len(eps_schedule))
    # spawned after the streams above, which keep their places: the inf
    # probe and each step's q-probes draw from streams of their own
    c_inf, *c_q = ss.spawn(1 + len(eps_schedule))
    check_symmetry(f, space, c_sym)

    # assumption (norm does not grow under polarization), sampled
    metric = XMetric(space)
    U, U_H = _polarized_draws(space, c_norm, 16)
    nu = metric.norm(U)
    nh = metric.norm(np.array([_polarize_raw(u, H.inside, H.partner)
                               for u, H in zip(U, U_H)]))
    if np.any(nh > nu + 1e-9 * (1.0 + nu)):
        raise AssumptionViolated("‖u^H‖ ≤ ‖u‖ failed on a sample")

    if minimizing_sequence is None:
        inf0, _, argmin0 = estimate_inf(
            f, space, dom, c_inf, extra_starts=[])

        def minimizing_sequence(h):
            return GridFunction(space, argmin0)

    out = []
    for h, eps_h in enumerate(eps_schedule):
        try:
            xi_h = _dominating_theta(f, minimizing_sequence(h))
            if not dom.contains(xi_h.values):
                xi_h = GridFunction(space, dom.project(xi_h.values))
            cert = symmetric_borwein_preiss(
                f, space, xi_h, eps_h, eps_h, p_exp=2, domain=dom,
                seed=int(np.random.default_rng(c_h[2 * h]).integers(2 ** 31)),
                n_samples=n_samples)
        except (BadStart, ConvergenceFailure) as exc:
            exc.args = (f"schedule step h={h} (eps={eps_h}): {exc}",)
            raise
        v_h, eta_h = cert.v, cert.eta
        dve = metric.dist(v_h.values, eta_h.values)

        slope = strong_slope(f, v_h, radii=(1e-3, 1e-4, 1e-5),
                             n_samples=48,
                             seed=int(np.random.default_rng(
                                 c_h[2 * h + 1]).integers(2 ** 31)))
        slope_bound = eps_h * (2.0 * dve + 1e-3) + 1e-6 \
            + (cert.violation.max_violation / 1e-5 if cert.violation else 0.0)
        cert.add_measured("slope_upper", slope.upper, slope_bound)
        cert.extras["slope"] = {"lower": slope.lower, "upper": slope.upper,
                                "bound": slope_bound,
                                "C": slope_bound / eps_h}
        # second-order report: min of quotient + 2ε‖ζ‖² (‖ζ‖² one multiply)
        # over probes ζ at t = ε, ε/2, ε/4, the first strict minimum; probes
        # where f is infinite are skipped; f scores the points as one block
        zetas = _radial_draws(np.random.default_rng(c_q[h]), metric,
                              space.n_cells, q_probes, 0.25, 2.0)
        ts = (eps_h, eps_h / 2, eps_h / 4)
        step = zetas[:, None] * np.array(ts)[:, None]
        fp, fm = (f._eval_rows(space, w.reshape(-1, space.n_cells))
                  .reshape(-1, 3) for w in (v_h.values + step,
                                            v_h.values - step))
        margin = ((fp + fm - 2.0 * f(v_h)) / [t ** 2 for t in ts]
                  + 2.0 * eps_h * _pow_rows(metric.norm(zetas), 2)[:, None])
        margin[np.isinf(fp) | np.isinf(fm) | np.isnan(margin)] = math.inf
        margin = np.append(margin, math.inf)    # the last: none scored
        j = int(np.argmin(margin))
        qrep = QBoundReport(eps_h=eps_h, min_margin=margin[j],
                            n_probes=len(margin) - 1,
                            worst_t=ts[j % 3] if margin[j] < math.inf
                            else eps_h)
        cert.extras["q_bound"] = qrep.to_json_dict()
        out.append((cert, qrep))
    return out


# ---------------------------------------------------------------------------
# certificate re-verification

def verify_certificate(f: Functional, cert: Certificate, n_samples, *,
                       domain=None, g=None, seed=104729) -> ViolationReport:
    """Re-sample a certificate's variational inequality with an independent
    seed and the issuing engine's sampler: spheres of radius 4r, r and r/4
    around v (r = r(ρ) for Zhong, else ρ) plus global probes in the box of
    half-width max(1, 2‖v‖_∞) around v.

    ``domain`` restores set-restricted quantifiers (variant I, constrained);
    ``g`` supplies the perturbation for DGZ certificates.  Only X- and
    V-metric certificates can be re-sampled (AssumptionViolated otherwise).
    Pure and idempotent; a larger n_samples extends the smaller run's sample
    stream.
    """
    space = cert.v.space
    if cert.variant == "PathMinimax":
        raise AssumptionViolated(
            "path certificates carry a path-space inequality that cannot be "
            "reconstructed from the argmax node (the node is a near-saddle, "
            "not an Ekeland point); they are verified at emission")
    metric_name = cert.extras.get("metric", "X")
    if metric_name not in ("X", "V"):
        raise AssumptionViolated(
            f"certificate metric {metric_name!r} cannot be rebuilt: "
            "re-verification knows only the X and V metrics")
    metric = XMetric(space) if metric_name == "X" else VMetric(space)
    if cert.variant == "DGZCheck" and g is None:
        raise AssumptionViolated("DGZ verification needs the g oracle")

    return sample_inequality(
        _deficit(f, cert, metric, f(cert.v), g), space, cert.v.values,
        n_samples=n_samples, seed=seed, radii=_sampler_radii(cert),
        metric_norm=metric.norm, domain=domain)
