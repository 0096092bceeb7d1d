"""Discrete function spaces: the triple X ⊆ V ⊆ W on uniform grids.

The optimization space X carries a discrete W^{1,p}-type norm (forward
differences with zero extension outside the domain), V = L^p ∩ L^{q_V} is
the norm in which symmetry defects are measured, and W = L^{q_W} is the
compactness-target space.  Grids are uniform tensor grids on [-R, R]^d,
d in {1, 2}, with an even cell count per axis so that every reflection
used by the polarizer machinery maps cell centers to cell centers.  Each
grid carries a proven embedding constant K ≥ ‖u‖_V/‖u‖_X in closed form
(exact eigen-data for p = 2, line-sum and Hölder bounds otherwise), and
builds its p = 2 operators as bands and its polarizer family on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from ._descent import _BandHessian
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
    "gram_matrix",
    "laplacian_matrix",
    "riesz_from_euclidean",
    "function_to_json",
    "function_from_json",
]

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
    C_theta: ClassVar[float] = 1.0      # a constant, not a field

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def signature(self) -> tuple:
        return (self.dimension, self.n, self.radius, self.p, self.q_V, self.q_W)

    @functools.cached_property
    def _bands(self):
        """The grid's one build of its p = 2 operators, from the stencil:
        A = (m/h²)(L ⊗ I + I ⊗ L) (1D: (m/h²)L), L = tridiag(−1, 2, −1),
        and Gx = A + m·I, in LAPACK band storage ab[w + i − j, j] = M[i, j],
        w = 1 in 1D and n in 2D."""
        n, N = self.n, self.n_cells
        c = self.cell_measure / self.spacing ** 2
        w = 1 if self.dimension == 1 else n
        line = np.arange(N) % n   # position along the last axis
        A = np.zeros((2 * w + 1, N))
        A[w] = c * (2.0 * self.dimension)
        A[w - 1, 1:] = np.where(line[1:] > 0, -c, 0.0)
        A[w + 1, :-1] = np.where(line[:-1] < n - 1, -c, 0.0)
        if self.dimension == 2:
            A[0, n:] = A[2 * w, :-n] = -c
        gram = A.copy()
        gram[w] += self.cell_measure
        A.setflags(write=False)
        gram.setflags(write=False)
        return A, gram

    @functools.cached_property
    def _gram_factor(self):
        """Gx = UᵀU: U in upper band storage, kept on the grid."""
        return _band_cholesky(self._bands[1])

    @functools.cached_property
    def _gram_dense(self):
        """Gx as a dense read-only array (``gram_matrix``)."""
        M = _BandHessian(self._bands[1]).dense()
        M.setflags(write=False)
        return M

    @functools.cached_property
    def polarizers(self) -> tuple:
        """The registered polarizer family, built on first use."""
        from .rearrange import build_polarizer_family  # it imports GridSpace
        return build_polarizer_family(self)

    @property
    def _polarizer_table(self):
        """The family's read-only (inside, partner) pair of (F, N) arrays,
        row k the pairing of ``polarizers[k]``, whose arrays view it."""
        H = self.polarizers[0]
        return H.inside.base, H.partner.base

    @functools.cached_property
    def _polarizer_pairs(self):
        """The family as swap pairs, built on first use from the table: the
        rows k (P,) and the cells (P, 2) of every pair of a cell j outside
        ``polarizers[k]`` and its mirror i inside, sorted by row, then j,
        both read-only.  Polarizing |u| by row k swaps the values of
        exactly its pairs with |u|[j] > |u|[i]."""
        inside, partner = self._polarizer_table
        rows, outside = np.nonzero(~inside)
        cells = np.stack((outside, partner[rows, outside]), axis=1)
        rows.setflags(write=False)
        cells.setflags(write=False)
        return rows, cells

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

    def __eq__(self, other):
        return (isinstance(other, GridFunction)
                and self.space.signature == other.space.signature
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"GridFunction({np.array2string(self.values, precision=4)})"


def _row_functions(space: GridSpace, W):
    """A GridFunction over each row of the block W, for a functional that
    takes one GridFunction at a time.  The block is checked (shape and
    finiteness, as GridFunction checks one row) and copied read-only once;
    each row's function is a bare wrapper over its read-only view, with no
    copy or check of its own."""
    W = np.array(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != space.n_cells:
        raise SpaceMismatch(
            f"expected rows of {space.n_cells} values, got shape {W.shape}")
    if not np.isfinite(W).all():
        raise InvalidArgument("GridFunction values must be finite")
    W.setflags(write=False)
    out = []
    for w in W:
        u = object.__new__(GridFunction)
        object.__setattr__(u, "space", space)
        object.__setattr__(u, "values", w)
        out.append(u)
    return out


@dataclass
class Functional:
    """Evaluation oracle for f: X -> R ∪ {+inf} with declared symmetry class.

    ``symmetry_class`` is one of ``polarization-nonincreasing``,
    ``polarization-invariant``, ``unverified``; it documents the caller's
    claim and is not read: the engines sample-check symmetry with
    ``check_symmetry``.  ``eval_batch`` (optional) maps a block (k, N) of rows
    to the (k,) values of f, each equal to ``eval`` on its row; the
    samplers and the multi-start descent use it in place of one ``eval``.
    ``gradient`` (optional) returns the Euclidean gradient ∇f of the cell
    values: one vector (N,) gives (N,), a block (k, N) gives the (k, N)
    gradients, each row bit-equal to the call on that row alone.  It is
    f's only first-order oracle: the descent reads it on p = 2 grids, and
    the X-Riesz representative of df(u), whose X-norm is the dual norm of
    df(u) there, is its Riesz solve (``_riesz_gradient``).  ``hessian``
    (optional) maps one vector (N,) to the Euclidean Hessian of f in the
    descent's band form (``_descent._BandHessian``: a band in LAPACK
    storage plus an optional low-rank term), as every declarer in the
    library builds it from its stencil; a dense (N, N) array is still
    accepted and enters that form once, with its outermost nonzero diagonal
    as the bandwidth.  The Newton polish slices it to its free coordinates
    and factors it once per build (banded LU, Woodbury for the low-rank
    term), and without it builds a finite-difference Hessian from one
    block ``gradient`` call.
    """

    eval: Callable[[GridFunction], float]
    symmetry_class: str = "unverified"
    lower_bound: Optional[float] = None
    name: str = ""
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, u: GridFunction) -> float:
        val = float(self.eval(u))
        if math.isnan(val) or val == -math.inf:
            raise InvalidArgument(f"functional {self.name or '<anon>'} returned {val}")
        return val

    def _eval_rows(self, space: GridSpace, W) -> np.ndarray:
        """f at each row of the block W: ``eval_batch`` when given, else
        ``__call__`` row by row; non-finite rows (as for a GridFunction)
        and the values NaN and −inf are rejected either way.  An empty
        block gives an empty result without calling f."""
        if not len(W):
            return np.empty(0)
        if self.eval_batch is None:
            return np.array([self(u) for u in _row_functions(space, W)],
                            float)
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
# raw-array norm kernels (shared with the engines)
#
# Each kernel takes one vector (N,) and returns a scalar, or a block (k, N)
# of rows and returns the (k,) row norms, each bit-equal to the norm of its
# row alone: sums run along the last axis (numpy's pairwise summation per
# row) and the final root is _pow_rows, one operation for a scalar and a
# row.  At p = 2 the squares are one multiply and the root is IEEE sqrt, so
# those norms do not depend on the platform's libm.

def _pow_rows(x, e):
    """x ** e, by the same operation for a scalar and for each entry of an
    array: IEEE sqrt for e = 0.5 and one multiply for e = 2, both correctly
    rounded everywhere; libm pow for any other e (numpy's scalar power for a
    scalar, ``math.pow`` entry by entry for an array: numpy's array power
    can differ in the last bit)."""
    if e == 0.5:
        if type(x) is np.ndarray:
            return np.sqrt(x)
        return np.float64(math.sqrt(x))
    if e == 2:
        return x * x
    if type(x) is np.ndarray:
        return np.array([math.pow(b, e) for b in x.tolist()])
    return x ** e


_sum_rows = functools.partial(np.add.reduce, axis=-1)


def _edge_diffs(v, spacing, step):
    """Differences / spacing at distance ``step`` along the last axis of v
    extended by ``step`` zeros at both ends, in one new buffer (``step``
    more entries than v on that axis).  Step 1 differences neighbours; on a
    flattened n × n field, step n differences along its first axis and
    gives the (n + 1, n) field in C order."""
    m = v.shape[-1]
    d = np.empty(v.shape[:-1] + (m + step,))
    d[..., :step] = v[..., :step]
    np.subtract(v[..., step:], v[..., :-step], out=d[..., step:m])
    d[..., m:] = -v[..., m - step:]
    d /= spacing
    return d


def _edge_power_sum(values, dimension, n, spacing, p):
    """Σ over the edge set of |fd|^p, fd the forward difference / spacing
    (zero extension beyond the boundary), of one vector or of each row of
    a block: the gradient part of the X norm's p-th power over the cell
    measure, and at p = 2 the Dirichlet form uᵀAu over it
    (``_dirichlet_rows``).  The p = 2 squares are one multiply in place:
    the same bytes as numpy's power, which takes the exponent 2 as
    np.square, without its abs pass and temporaries."""
    if dimension == 1:
        fields = (_edge_diffs(values, spacing, 1),)
    else:
        # each sum runs over one whole field in C order, as for one grid
        lead = values.shape[:-1]
        gy = _edge_diffs(values.reshape(lead + (n, n)), spacing, 1)
        fields = (_edge_diffs(values, spacing, n),
                  gy.reshape(lead + (n * (n + 1),)))
    if p == 2:
        sums = [_sum_rows(np.multiply(d, d, out=d)) for d in fields]
    else:
        sums = [_sum_rows(np.abs(d) ** p) for d in fields]
    return sums[0] if dimension == 1 else sums[0] + sums[1]


def _norm_X_raw(values, dimension, n, spacing, measure, p):
    """(measure·(Σ_edges |fd|^p + Σ_cells |u|^p))^{1/p}: the edge sum is
    ``_edge_power_sum``, the one the Dirichlet form takes at p = 2."""
    grad = _edge_power_sum(values, dimension, n, spacing, p)
    if p == 2:
        # the general branch's bytes without its abs pass and temporaries:
        # 4% off certify verify_p50_s (9 of 10 paired benchmark runs, 2-core
        # x86-64)
        cells = _sum_rows(values * values)
    else:
        cells = _sum_rows(np.abs(values) ** p)
    return _pow_rows(grad * measure + cells * measure, 1.0 / p)


def _lr_norm_raw(values, measure, r):
    """(measure·Σ|x|^r)^{1/r} of one vector or of each row of a block.  A
    row whose power sum overflows to inf while its entries are finite is
    normed as s·‖x/s‖, s = max|x| (numpy still warns of the overflow);
    every finite result keeps its bits."""
    a = np.abs(values)
    out = _pow_rows(_sum_rows(a ** r) * measure, 1.0 / r)
    if a.ndim == 1:
        # a comparison, not np.isinf: one-vector norms are the drop
        # membership's inner loop
        if out < math.inf or not np.isfinite(a).all():
            return out
        s = a.max()
        return s * _lr_norm_raw(a / s, measure, r)
    over = np.isinf(out)
    if over.any():
        over &= np.isfinite(a).all(axis=-1)
        s = a[over].max(axis=1)
        out[over] = s * _lr_norm_raw(a[over] / s[:, None], measure, r)
    return out


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


# ---------------------------------------------------------------------------
# p = 2 linear algebra

def _band_cholesky(ab):
    """The Cholesky factor U (UᵀU = M) of a positive definite band ab
    (2w + 1 rows), by raw ``dpbtrf`` on its upper w + 1 rows; read-only."""
    U, info = dpbtrf(ab[:(len(ab) + 1) // 2])
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrf returned info={info}")
    U.setflags(write=False)
    return U


def laplacian_matrix(space: GridSpace) -> np.ndarray:
    """Gradient-part matrix A with uᵀAu = Σ_edges |fd|² · measure: a dense
    read-only view of the grid's band, built on each call."""
    M = _BandHessian(space._bands[0]).dense()
    M.setflags(write=False)
    return M


def _dirichlet_rows(space: GridSpace, values):
    """uᵀAu, A = ``laplacian_matrix(space)``, of one vector (N,) or of each
    row of a block (k, N), from the edge stencil: m·Σ_edges (fd)², the
    X norm's edge sum at p = 2, in O(N) per row and without A.  Each row is
    bit-equal to its one-vector call."""
    return space.cell_measure * _edge_power_sum(
        values, space.dimension, space.n, space.spacing, 2)


def _laplacian_rows(space: GridSpace, values):
    """A·u, A = ``laplacian_matrix(space)``, of one vector (N,) or of each
    row of a block (k, N), from the edge stencil: (m/h)·(d_left − d_right)
    per axis, d the forward differences / h of ``_edge_diffs`` on the
    cell's two edges along that axis, in O(N) per row and without A.  Each
    row is bit-equal to its one-vector call."""
    n, h = space.n, space.spacing
    c = space.cell_measure / h
    if space.dimension == 1:
        d = _edge_diffs(values, h, 1)
        return c * (d[..., :-1] - d[..., 1:])
    lead = values.shape[:-1]
    dx = _edge_diffs(values, h, n)
    dy = _edge_diffs(values.reshape(lead + (n, n)), h, 1)
    across = (dy[..., :-1] - dy[..., 1:]).reshape(lead + (n * n,))
    return c * ((dx[..., :-n] - dx[..., n:]) + across)


def gram_matrix(space: GridSpace) -> np.ndarray:
    """X-inner-product matrix for p = 2, A + measure·I: a dense read-only
    view of the grid's band, cached on the grid, for products only."""
    return space._gram_dense


def riesz_from_euclidean(space: GridSpace, g: np.ndarray) -> np.ndarray:
    """Solve Gx·rep = g (g (N,) or columns (N, k)): the X-Riesz
    representative of the Euclidean gradient g, by ``dpbtrs`` on the grid's
    cached band Cholesky factor of Gx."""
    return dpbtrs(space._gram_factor, np.asarray(g, float))[0]


def _declared_gradient(f: Functional, W) -> np.ndarray:
    """``f.gradient`` at one vector (N,) or at each row of a block (k, N),
    checked as a GridFunction checks its values: a result of another shape
    raises SpaceMismatch, a non-finite entry InvalidArgument."""
    G = np.asarray(f.gradient(W), dtype=float)
    if G.shape != np.shape(W):
        raise SpaceMismatch(f"gradient of {f.name or '<anon>'}: expected "
                            f"shape {np.shape(W)}, got {G.shape}")
    if not np.isfinite(G).all():
        raise InvalidArgument(f"gradient of {f.name or '<anon>'} is not "
                              f"finite")
    return G


def _riesz_gradient(f: Functional, space: GridSpace, W) -> np.ndarray:
    """The X-Riesz representative of df (p = 2 grids) at one vector (N,)
    or at each row of a block (k, N): one Riesz solve of the checked
    declared gradient."""
    return riesz_from_euclidean(space, _declared_gradient(f, W).T).T


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


def _embedding_constant(dimension, n, h, p, q_V):
    """A proven upper bound K on ‖u‖_V/‖u‖_X over the grid.

    ‖u‖_V = max(‖u‖_p, ‖u‖_q), and ‖u‖_q^q ≤ ‖u‖_∞^{q−p}·‖u‖_p^p, so
    K = max(K_p, C_∞^{1−p/q}·K_p^{p/q}) with ‖u‖_p ≤ K_p‖u‖_X and
    ‖u‖_∞ ≤ C_∞‖u‖_X.

    p = 2: both are exact.  The Dirichlet difference Laplacian has the
    sine eigenvectors φ_k(i) = √(2/(n+1))·sin(kiπ/(n+1)) and eigenvalues
    4·sin²(kπ/(2(n+1))) per axis, so K_2 = (1 + 4d·sin²(π/(2(n+1)))/h²)^{−1/2}
    and C_∞ = maxᵢ √((Gx⁻¹)ᵢᵢ), the diagonal summed over that basis.

    p ≠ 2: along a grid line each value is at most half the sum of the
    line's n + 1 |differences| (zero extension at both ends).  Hölder over
    the line, averaged over the d axes, gives K_p ≤ (c/(1+c))^{1/p} with
    c = n(n+1)^{p−1}(h/2)^p/d, and C_∞ ≤ ½(n+1)^{1−1/p}·h·(d·h^d)^{−1/p}.
    """
    d = dimension
    if p == 2.0:
        k = np.arange(1, n + 1)
        lam = (2.0 * np.sin(k * (np.pi / (2 * (n + 1)))) / h) ** 2
        K_p = (1.0 + d * lam[0]) ** -0.5
        S = (2.0 / (n + 1)) * np.sin(np.outer(k, k) * (np.pi / (n + 1))) ** 2
        if d == 1:
            diag = S @ (1.0 / (1.0 + lam))
        else:
            diag = S @ (1.0 / (1.0 + lam[:, None] + lam[None, :])) @ S.T
        C_inf = math.sqrt(diag.max() / h ** d)
    else:
        c = n * (n + 1) ** (p - 1) * (h / 2) ** p / d
        K_p = (c / (1.0 + c)) ** (1.0 / p)
        C_inf = 0.5 * (n + 1) ** (1 - 1 / p) * h * (d * h ** d) ** (-1 / p)
    return float(max(K_p, C_inf ** (1 - p / q_V) * K_p ** (p / q_V)))


def make_grid(dimension, n_cells_per_axis, domain_radius, p, q_W,
              q_V=None) -> GridSpace:
    """Build a symmetric uniform grid with its embedding constant K (see
    :func:`_embedding_constant`).  Its registered polarizer family is
    built on first use of ``polarizers``, in one pass into one (F, N)
    table whose rows the polarizers view.

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

    return GridSpace(dimension=dimension, n=n, radius=R, p=p, q_V=q_V,
                     q_W=q_W, cells=cells, lattice=lattice, spacing=h,
                     cell_measure=measure,
                     K=_embedding_constant(dimension, n, h, p, q_V))


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
