"""Polarization, discrete Schwarz rearrangement, and iterated-polarization
approximation of the symmetrization map.

A polarizer is a closed half-space {x : a·x ≤ β} containing the origin
(β ≥ 0) whose boundary reflection maps the cell lattice into itself union
"outside" (where functions are extended by zero).  Polarizing a nonnegative
function moves, pair by mirror pair, the larger value to the half-space
side.  The registered family per grid:

* axis directions ±e_k with offsets on the half-spacing lattice β = j·h/2;
* in 2D the diagonals, with offsets β = k·h/√2;
* at β = 0 only one orientation per reflection line is kept — the one whose
  "inside" agrees with the Schwarz tie-break order — so that the discrete
  symmetric-decreasing rearrangement is a fixed point of every member.

Offsets are restricted so that every cell outside the half-space has its
mirror inside the grid; polarization is then an exact value permutation
(equimeasurability holds with no tolerance).  The family is built in one
vectorised pass straight into the grid's read-only (F, N) inside/partner
table, and each polarizer's arrays are row views of it.

On 1D grids the family contains a full odd-even transposition network for
the Schwarz cell order, so iterated polarization reaches the rearrangement
exactly.  On 2D grids of 4x4 and larger the fixed points of the axis and
diagonal reflections include functions that are not radially sorted, so the
sort-assign target may be unreachable; ``approx_symmetrize`` then raises
:class:`~symvar.errors.ConvergenceFailure` carrying the stable residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidArgument, SpaceMismatch
from .funcspace import GridFunction, GridSpace, _norm_V_raw

__all__ = [
    "Polarizer",
    "build_polarizer_family",
    "polarize",
    "schwarz",
    "schwarz_order",
    "approx_symmetrize",
    "is_family_fixed",
    "polarizer_sequence_json",
]


@dataclass(frozen=True, eq=False)
class Polarizer:
    """Reflection half-space with its precomputed cell pairing.

    ``partner[i]`` is the mirror cell index, ``i`` itself for cells on the
    reflecting hyperplane, and ``-1`` when the mirror falls outside the grid
    (zero under the extension rule).  ``inside[i]`` marks a·x_i ≤ β.  Both
    are read-only row views of the family's (F, N) table.
    """

    axis: tuple
    offset: float
    inside: np.ndarray
    partner: np.ndarray
    space_signature: tuple

    def __repr__(self):
        ax = ",".join(f"{a:+g}" for a in self.axis)
        return f"Polarizer(axis=({ax}), beta={self.offset:g})"


def build_polarizer_family(space: GridSpace):
    """All grid-compatible polarizers for ``space``, deterministic order.

    Every candidate {a·x = β} is paired at once by exact integer arithmetic
    on (candidate, cell) arrays: β is carried in the integer units of the
    lattice projection (cell centers have odd-integer lattice coordinates)
    and 2/|a|² is an integer for every registered a.  The kept rows form
    the read-only (F, N) inside/partner table that the polarizers view.
    """
    n = space.n
    if space.dimension == 1:
        # beta = j*h/2 <-> lattice offset j; orientation rule drops -e_x at 0
        cands = [((1,), j) for j in range(n)]
        cands += [((-1,), j) for j in range(1, n)]
    else:
        cands = [(ax, j) for ax in ((1, 0), (0, 1)) for j in range(n)]
        cands += [(ax, j) for ax in ((-1, 0), (0, -1)) for j in range(1, n)]
        # diagonals: projection unit is h/sqrt(2) -> lattice offsets 2k
        cands += [((1, 1), 0), ((1, -1), 0)]
        cands += [(ax, 2 * k) for ax in ((1, 1), (1, -1), (-1, -1), (-1, 1))
                  for k in range(1, 2 * n)]
    axes = np.array([ax for ax, _ in cands])
    beta = np.array([b for _, b in cands])
    norm2 = np.sum(axes * axes, axis=1)                 # 1 or 2
    lattice = space.lattice
    shift = axes @ lattice.T - beta[:, None]            # (C, N): a·x - β
    # the mirror is x - step·a, step = 2·shift/|a|² an even integer; odd
    # coordinate c is axis index (c+n-1)/2 and cells are x-major
    step = (2 // norm2)[:, None] * shift
    found = np.ones(shift.shape, dtype=bool)
    for k in range(space.dimension):
        found &= np.abs(lattice[:, k] - axes[:, k, None] * step) <= n - 1
    weights = n ** np.arange(space.dimension)[::-1]
    partner = np.where(found, np.arange(space.n_cells)
                       - (axes @ weights)[:, None] * (step // 2), -1)
    inside = shift <= 0
    # keep a reflection when no outside cell loses its value and it acts:
    # some pair straddles it (a mirror's shift is -shift, so iff shift ≠ 0)
    keep = np.all(found | inside, axis=1) & np.any(found & (shift != 0), 1)
    inside, partner = inside[keep], partner[keep]
    inside.setflags(write=False)
    partner.setflags(write=False)
    scale = np.sqrt(norm2[keep])
    units = (axes[keep] / scale[:, None]).tolist()
    offsets = (beta[keep] * (space.spacing / 2.0) / scale).tolist()
    sig = space.signature
    return tuple(Polarizer(axis=tuple(a), offset=b, inside=i, partner=j,
                           space_signature=sig)
                 for a, b, i, j in zip(units, offsets, inside, partner))


def _polarize_raw(values, inside, partner):
    """values (N,) polarized by one pairing (N,), or by every row of a
    stacked (F, N) family table, one row of the result per polarizer."""
    ext = np.append(values, 0.0)       # partner -1 gathers the zero extension
    mirror = ext[partner]
    return np.where(inside, np.maximum(values, mirror),
                    np.minimum(values, mirror))


def polarize(u: GridFunction, H: Polarizer) -> GridFunction:
    """Two-point rearrangement of u across H's reflecting hyperplane.

    Operates on Θ(u) = |u| (the extension rule for sign-changing input), so
    the output always lies in the cone S.  Idempotent; an exact value
    permutation whenever all cells are paired.
    """
    if H.space_signature != u.space.signature:
        raise SpaceMismatch("polarizer was built for a different grid")
    return GridFunction(u.space,
                        _polarize_raw(np.abs(u.values), H.inside, H.partner))


def schwarz_order(space: GridSpace) -> np.ndarray:
    """Cell indices sorted by |center| ascending, ties by index ascending.

    Radii compare through integer squared lattice coordinates, so mirror
    ties are exact regardless of the floating-point grid geometry.
    """
    r2 = np.sum(space.lattice.astype(np.int64) ** 2, axis=1)
    return np.lexsort((np.arange(space.n_cells), r2))


def _schwarz_raw(values, order):
    out = np.empty_like(values)
    out[order] = np.sort(np.abs(values))[::-1]
    return out


def schwarz(u: GridFunction) -> GridFunction:
    """Discrete Schwarz rearrangement: sort |values| descending onto the
    cells in ``schwarz_order``.  Equimeasurable with Θ(u), idempotent."""
    return GridFunction(u.space, _schwarz_raw(u.values, schwarz_order(u.space)))


def is_family_fixed(u: GridFunction) -> bool:
    """True when every registered polarizer leaves |u| exactly unchanged."""
    vals = np.abs(u.values)
    return bool(np.all(_polarize_raw(vals, *u.space._polarizer_table) == vals))


def _iteration_cap(space: GridSpace) -> int:
    """Greedy steps ``approx_symmetrize`` takes before it gives up: 10·N·F."""
    return 10 * space.n_cells * max(1, len(space.polarizers))


def approx_symmetrize(u: GridFunction, rho: float):
    """Drive u toward schwarz(u) by greedily chosen polarizations.

    Returns ``(u_tilde, sequence)`` with ``u_tilde = u^{H_1...H_m}``,
    ``‖u_tilde − schwarz(u)‖_V < rho`` and the polarizer list used.  The
    greedy step picks the family member with the largest V-distance decrease
    toward the (fixed) target.  On a plateau it takes a state-changing move
    not visited since the last strict decrease; when none is left the walk
    is stuck.  No two-letter word helps there: the walk stood at every
    state-changing neighbour s, none of s's one-letter words went below
    dist(s) − 1e-15, and dist(s) ≥ residual − 1e-15.

    Raises
    ------
    ConvergenceFailure
        iteration cap reached, or the walk is stuck (possible on 2D grids),
        with the residual, the best point and the word attached.
    """
    if not rho > 0:                    # NaN too
        raise InvalidArgument("rho must be positive")
    space = u.space
    family = space.polarizers
    measure, p, q_V = space.cell_measure, space.p, space.q_V

    order = schwarz_order(space)
    cur = np.abs(u.values)
    target = _schwarz_raw(cur, order)
    table = space._polarizer_table

    # numpy's array power, not the libm-per-row q_V root of _norm_V_raw:
    # the greedy choice needs no bit-equality with a one-row norm, and the
    # per-row math.pow loop made approx_symmetrize 13% slower (median
    # op_p50_s of 10 paired symmetrize benchmark runs, same outputs); the
    # p = 2 root is IEEE sqrt here as there (numpy takes ** 0.5 as sqrt)
    def dist_rows(mat):
        diff = np.abs(mat - target[None, :])
        lp = (np.sum(diff ** p, axis=1) * measure) ** (1.0 / p)
        lq = (np.sum(diff ** q_V, axis=1) * measure) ** (1.0 / q_V)
        return np.maximum(lp, lq)

    seq = []
    residual = _norm_V_raw(cur - target, measure, p, q_V)
    plateau_seen = set()
    cap = _iteration_cap(space)
    for _ in range(cap):
        if residual < rho:
            return GridFunction(space, cur), [family[k] for k in seq]
        cands = _polarize_raw(cur, *table)
        dists = dist_rows(cands)
        k = int(np.argmin(dists))
        if dists[k] < residual - 1e-15:
            plateau_seen.clear()
        else:
            # plateau: take any state-changing move not seen before
            moved = np.flatnonzero(np.any(cands != cur[None, :], axis=1))
            k = next((int(j) for j in moved
                      if cands[j].tobytes() not in plateau_seen), None)
            if k is None:
                why = (f"iterated polarization is stuck at residual "
                       f"{residual:.3e} >= rho={rho:.3e}")
                break
            plateau_seen.add(cands[k].tobytes())
        cur, residual = cands[k], dists[k]
        seq.append(k)
    else:
        why = f"iteration cap {cap} reached with residual {residual:.3e}"
    raise ConvergenceFailure(why, residual=residual,
                             best=GridFunction(space, cur),
                             sequence=[family[k] for k in seq])


def polarizer_sequence_json(sequence) -> list:
    """Serialize a polarizer list as [{axis, offset}, ...]."""
    return [{"axis": list(p.axis), "offset": p.offset} for p in sequence]
