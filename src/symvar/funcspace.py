"""Discrete function spaces: the triple X ⊆ V ⊆ W on uniform grids.

The optimization space X carries a discrete W^{1,p}-type norm (forward
differences with zero extension outside the domain), V = L^p ∩ L^{q_V} is
the norm in which symmetry defects are measured, and W = L^{q_W} is the
compactness-target space.  Grids are uniform tensor grids on [-R, R]^d,
d in {1, 2}, with an even cell count per axis so that every reflection
used by the polarizer machinery maps cell centers to cell centers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import (InvalidArgument, InvalidExponent, InvalidGrid,
                     SpaceMismatch)

__all__ = [
    "GridSpace",
    "GridFunction",
    "Functional",
    "make_grid",
    "norm_X",
    "norm_V",
    "norm_W",
    "norm_Lr",
    "theta",
    "inner_X",
    "gram_matrix",
    "laplacian_matrix",
    "riesz_from_euclidean",
    "function_to_json",
    "function_from_json",
]

_K_SAFETY = 1.05
_K_SEED = 20240917


@dataclass(frozen=True, eq=False)
class GridSpace:
    """Uniform symmetric grid carrying the X, V, W norm data.

    Instances compare by identity; use :attr:`signature` for structural
    equality (serialization round-trips build fresh objects).
    """

    dimension: int
    n: int
    radius: float
    p: float
    q_V: float
    q_W: float
    cells: np.ndarray            # (n_cells, dimension) centers
    lattice: np.ndarray          # (n_cells, dimension) odd-integer coords, 2i+1-n
    spacing: float
    cell_measure: float
    K: float
    C_theta: float = 1.0
    polarizers: tuple = field(default=())

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def signature(self) -> tuple:
        return (self.dimension, self.n, self.radius, self.p, self.q_V, self.q_W)

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.n_cells))

    def function(self, values) -> "GridFunction":
        return GridFunction(self, np.asarray(values, dtype=float))

    def __repr__(self):
        return (f"GridSpace(dim={self.dimension}, n={self.n}, R={self.radius}, "
                f"p={self.p}, qV={self.q_V}, qW={self.q_W}, K={self.K:.6g})")


class GridFunction:
    """Vector of cell values over a :class:`GridSpace`; immutable."""

    __slots__ = ("space", "values")

    def __init__(self, space: GridSpace, values):
        vals = np.array(values, dtype=float)
        if vals.shape != (space.n_cells,):
            raise SpaceMismatch(
                f"expected {space.n_cells} values, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise InvalidArgument("GridFunction values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *a):
        raise AttributeError("GridFunction is immutable")

    def _check(self, other: "GridFunction"):
        if other.space is not self.space and other.space.signature != self.space.signature:
            raise SpaceMismatch("operands live on different grids")

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.space, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.space, self.values - other.values)

    def __mul__(self, c):
        return GridFunction(self.space, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.space, -self.values)

    def __eq__(self, other):
        return (isinstance(other, GridFunction)
                and self.space.signature == other.space.signature
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.space.signature, self.values.tobytes()))

    def __repr__(self):
        return f"GridFunction({np.array2string(self.values, precision=4)})"


@dataclass
class Functional:
    """Evaluation oracle for f: X -> R ∪ {+inf} with declared symmetry class.

    ``derivative`` (optional) returns the X-Riesz representative of df(u)
    for the p = 2 inner product.  ``symmetry_class`` is one of
    ``polarization-nonincreasing``, ``polarization-invariant``,
    ``unverified``.  ``dominating_point`` (optional) maps u to some
    ξ ∈ S with f(ξ) ≤ f(u); the default used by the engines is Θ(u).
    ``eval_batch`` (optional) maps a block (k, N) of cell-value rows to the
    (k,) values of f, each equal to ``eval`` on its row; the samplers and
    the multi-start descent use it in place of one ``eval`` per row.
    ``gradient`` (optional) returns the Euclidean gradient ∇f of the cell
    values: one vector (N,) gives (N,), a block (k, N) gives the (k, N)
    gradients, each row bit-equal to the call on that row alone.  The
    descent uses it in place of Gx times ``derivative``, and builds each
    Newton Hessian from one block call.
    """

    eval: Callable[[GridFunction], float]
    derivative: Optional[Callable[[GridFunction], GridFunction]] = None
    symmetry_class: str = "unverified"
    lower_bound: Optional[float] = None
    dominating_point: Optional[Callable[[GridFunction], GridFunction]] = None
    name: str = ""
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, u: GridFunction) -> float:
        val = float(self.eval(u))
        if math.isnan(val) or val == -math.inf:
            raise InvalidArgument(f"functional {self.name or '<anon>'} returned {val}")
        return val

    def _eval_rows(self, space: GridSpace, W) -> np.ndarray:
        """f at each row of the block W: ``eval_batch`` when given, else
        ``__call__`` row by row; non-finite rows (as for a GridFunction)
        and the values NaN and −inf are rejected either way."""
        if self.eval_batch is None:
            return np.array([self(GridFunction(space, w)) for w in W], float)
        if not np.isfinite(W).all():
            raise InvalidArgument("GridFunction values must be finite")
        vals = np.asarray(self.eval_batch(W), dtype=float)
        if vals.shape != (len(W),):
            raise InvalidArgument(f"functional {self.name or '<anon>'}: "
                                  f"eval_batch returned shape {vals.shape} "
                                  f"for {len(W)} rows")
        bad = np.isnan(vals) | (vals == -math.inf)
        if bad.any():
            raise InvalidArgument(f"functional {self.name or '<anon>'} "
                                  f"returned {vals[bad][0]}")
        return vals


# ---------------------------------------------------------------------------
# raw-array norm kernels (shared with the K estimator and the engines)
#
# Each kernel takes one vector (N,) and returns a scalar, or a block (k, N)
# of rows and returns the (k,) row norms, each bit-equal to the norm of its
# row alone: sums run along the last axis (numpy's pairwise summation per
# row) and the final root is libm pow per row, as numpy's scalar power is.

def _pow_rows(x, e):
    """x ** e by libm pow: numpy's scalar power for a scalar, ``math.pow``
    row by row for an array (numpy's array power can differ in the last
    bit)."""
    if type(x) is np.ndarray:
        return np.array([math.pow(b, e) for b in x.tolist()])
    return x ** e


_sum_rows = functools.partial(np.add.reduce, axis=-1)


def _edge_diffs(v, spacing):
    """|forward differences| / spacing along the last axis of v extended by
    a zero at both ends (one more entry than v on that axis)."""
    d = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    d[..., 0] = v[..., 0]
    np.subtract(v[..., 1:], v[..., :-1], out=d[..., 1:-1])
    d[..., -1] = -v[..., -1]
    return np.abs(d / spacing)


def _norm_X_raw(values, dimension, n, spacing, measure, p):
    if dimension == 1:
        grad = _sum_rows(_edge_diffs(values, spacing) ** p)
    else:
        v = values.reshape(values.shape[:-1] + (n, n))
        gx = np.swapaxes(_edge_diffs(np.swapaxes(v, -1, -2), spacing), -1, -2)
        gy = _edge_diffs(v, spacing)
        # each sum runs over one whole field in C order, as for one grid
        flat = values.shape[:-1] + (-1,)
        grad = (_sum_rows((gx ** p).reshape(flat))
                + _sum_rows((gy ** p).reshape(flat)))
    body = grad * measure + _sum_rows(np.abs(values) ** p) * measure
    return _pow_rows(body, 1.0 / p)


def _lr_norm_raw(values, measure, r):
    return _pow_rows(_sum_rows(np.abs(values) ** r) * measure, 1.0 / r)


def _norm_V_raw(values, measure, p, q_V):
    a, b = _lr_norm_raw(values, measure, p), _lr_norm_raw(values, measure, q_V)
    return np.maximum(a, b)


# ---------------------------------------------------------------------------

def norm_X(u: GridFunction) -> float:
    """Discrete W^{1,p}_0 norm: forward differences over the full edge set
    (zero extension beyond the boundary) plus the cell-value term."""
    s = u.space
    return _norm_X_raw(u.values, s.dimension, s.n, s.spacing, s.cell_measure, s.p)


def norm_V(u: GridFunction) -> float:
    """max(‖u‖_{L^p}, ‖u‖_{L^{q_V}}), the symmetry-measurement norm."""
    s = u.space
    return _norm_V_raw(u.values, s.cell_measure, s.p, s.q_V)


def norm_W(u: GridFunction) -> float:
    """‖u‖_{L^{q_W}}, the compactness-target norm."""
    s = u.space
    return _lr_norm_raw(u.values, s.cell_measure, s.q_W)


def norm_Lr(u: GridFunction, r: float) -> float:
    return _lr_norm_raw(u.values, u.space.cell_measure, r)


def theta(u: GridFunction) -> GridFunction:
    """Projection onto the cone S of nonnegative functions (pointwise |.|);
    identity on S, idempotent, 1-Lipschitz in every L^r norm."""
    return GridFunction(u.space, np.abs(u.values))


def inner_X(u: GridFunction, v: GridFunction) -> float:
    """X inner product for p = 2 grids."""
    g = gram_matrix(u.space)
    return float(u.values @ g @ v.values)


# ---------------------------------------------------------------------------
# p = 2 linear algebra

@functools.lru_cache(maxsize=64)
def _matrices(space: GridSpace):
    n, dim, h, m = space.n, space.dimension, space.spacing, space.cell_measure
    d1 = np.zeros((n + 1, n))
    idx = np.arange(n)
    d1[idx, idx] = 1.0
    d1[idx + 1, idx] -= 1.0
    lap1 = d1.T @ d1  # tridiag(-1, 2, -1)
    if dim == 1:
        lap = lap1
    else:
        eye = np.eye(n)
        lap = np.kron(lap1, eye) + np.kron(eye, lap1)
    a_grad = (m / h ** 2) * lap
    gram = a_grad + m * np.eye(space.n_cells)
    # upper factor U (gram = UᵀU), Fortran-ordered so LAPACK takes it uncopied
    chol_upper = np.linalg.cholesky(gram).T
    chol_upper.setflags(write=False)
    return a_grad, gram, chol_upper


def laplacian_matrix(space: GridSpace) -> np.ndarray:
    """Gradient-part matrix A with u^T A u = Σ_edges |fd|^2 · measure."""
    return _matrices(space)[0]


def gram_matrix(space: GridSpace) -> np.ndarray:
    """X-inner-product matrix for p = 2: A + measure·I."""
    return _matrices(space)[1]


def riesz_from_euclidean(space: GridSpace, g: np.ndarray) -> np.ndarray:
    """Solve Gx·rep = g: X-Riesz representative of the Euclidean gradient g,
    by two triangular solves on the grid's cached Cholesky factor of Gx."""
    rep, info = dpotrs(_matrices(space)[2], np.asarray(g, float), lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs returned info={info}")
    return rep


# ---------------------------------------------------------------------------

def _default_q_V(dimension, p, q_W):
    if p < dimension:
        q = dimension * p / (dimension - p)
    else:
        q = 2.0 * p
    # keep the strict inclusion p < q_W < q_V when the default collides
    if q <= q_W:
        q = 2.0 * q_W
    return q


def _probe_set(cells, lattice, n_cells, seed):
    rng = np.random.default_rng(seed)
    probes = [np.ones(n_cells)]
    eye = np.eye(n_cells)
    probes.extend(eye[i] for i in range(n_cells))
    r2 = np.sum(lattice.astype(float) ** 2, axis=1)
    probes.append(np.exp(-r2 / max(1.0, r2.max())))
    probes.append((r2.max() - r2) / max(1.0, r2.max()))
    probes.extend(rng.standard_normal(n_cells) for _ in range(16))
    probes.extend(np.abs(rng.standard_normal(n_cells)) for _ in range(16))
    return probes


def _estimate_K(cells, lattice, dimension, n, spacing, measure, p, q_V):
    """sup ‖u‖_V / ‖u‖_X over a deterministic probe set plus ascent polish,
    times a 1.05 safety margin (reported with certificates that use it)."""

    def ratio(v):
        nx = _norm_X_raw(v, dimension, n, spacing, measure, p)
        if nx == 0.0:
            return 0.0
        return _norm_V_raw(v, measure, p, q_V) / nx

    best_val = 0.0
    best_v = None
    for v in _probe_set(cells, lattice, len(cells), _K_SEED):
        r = ratio(v)
        if r > best_val:
            best_val, best_v = r, v
    # coordinate-ascent polish around the best probe
    v = np.array(best_v, float)
    step = 0.5 * float(np.max(np.abs(v)) or 1.0)
    for _ in range(60):
        improved = False
        for i in range(len(v)):
            for s in (step, -step):
                w = v.copy()
                w[i] += s
                r = ratio(w)
                if r > best_val * (1 + 1e-12):
                    best_val, v = r, w
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return best_val * _K_SAFETY


def make_grid(dimension, n_cells_per_axis, domain_radius, p, q_W,
              q_V=None) -> GridSpace:
    """Build a symmetric uniform grid with its registered polarizer family.

    Parameters
    ----------
    dimension : 1 or 2
    n_cells_per_axis : even int (reflections about 0 must be cell automorphisms)
    domain_radius : half-width R of the domain [-R, R]^dimension
    p : X-norm exponent, > 1
    q_W : exponent of the compactness-target norm, p < q_W < q_V
    q_V : optional override of the V-norm second exponent
        (default p* = dim·p/(dim−p) when p < dim, else 2p, bumped to 2·q_W
        if the default would not exceed q_W)
    """
    n = int(n_cells_per_axis)
    if n <= 0 or n % 2 != 0:
        raise InvalidGrid(f"n_cells_per_axis must be positive and even, got {n}")
    if dimension not in (1, 2):
        raise InvalidGrid(f"dimension must be 1 or 2, got {dimension}")
    if not p > 1:
        raise InvalidExponent(f"p must exceed 1, got {p}")
    p = float(p)
    q_W = float(q_W)
    if q_V is None:
        q_V = _default_q_V(dimension, p, q_W)
    q_V = float(q_V)
    if not (p < q_W < q_V):
        raise InvalidExponent(f"need p < q_W < q_V, got {p}, {q_W}, {q_V}")

    R = float(domain_radius)
    h = 2.0 * R / n
    axis_lattice = 2 * np.arange(n) + 1 - n           # odd integers
    axis_coords = axis_lattice * (h / 2.0)
    if dimension == 1:
        cells = axis_coords.reshape(-1, 1)
        lattice = axis_lattice.reshape(-1, 1)
    else:
        cells = np.array([(x, y) for x in axis_coords for y in axis_coords])
        lattice = np.array([(a, b) for a in axis_lattice for b in axis_lattice])
    cells.setflags(write=False)
    lattice.setflags(write=False)
    measure = h ** dimension

    K = _estimate_K(cells, lattice, dimension, n, h, measure, p, q_V)
    space = GridSpace(dimension=dimension, n=n, radius=R, p=p, q_V=q_V,
                      q_W=q_W, cells=cells, lattice=lattice, spacing=h,
                      cell_measure=measure, K=K)
    from . import rearrange  # deferred: rearrange depends on GridSpace
    family = rearrange.build_polarizer_family(space)
    object.__setattr__(space, "polarizers", family)
    return space


# ---------------------------------------------------------------------------
# serialization: {dimension, n, radius, p, qV, qW, values:[...]}

def function_to_json(u: GridFunction) -> dict:
    s = u.space
    return {
        "dimension": s.dimension,
        "n": s.n,
        "radius": s.radius,
        "p": s.p,
        "qV": s.q_V,
        "qW": s.q_W,
        "values": [float(v) for v in u.values],
    }


def function_from_json(obj: dict) -> GridFunction:
    space = make_grid(obj["dimension"], obj["n"], obj["radius"],
                      obj["p"], obj["qW"], q_V=obj["qV"])
    return GridFunction(space, np.asarray(obj["values"], float))
