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
(equimeasurability holds with no tolerance).

On 1D grids the family contains a full odd-even transposition network for
the Schwarz cell order, so iterated polarization reaches the rearrangement
exactly.  On 2D grids of 4x4 and larger the lattice reflections only induce
a partial order inside equal-radius orbits and the sort-assign target may
be unreachable; ``approx_symmetrize`` then raises
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
    (zero under the extension rule).  ``inside[i]`` marks a·x_i ≤ β.
    """

    axis: tuple
    offset: float
    inside: np.ndarray
    partner: np.ndarray
    space_signature: tuple

    def __repr__(self):
        ax = ",".join(f"{a:+g}" for a in self.axis)
        return f"Polarizer(axis=({ax}), beta={self.offset:g})"


def _make_polarizer(space: GridSpace, axis, beta_lattice):
    """Build the pairing for reflection about {a·x = β}, or None when the
    reflection is not a lattice map, could zero an outside value, or cannot
    act at all.

    ``beta_lattice`` carries β in the integer units of the lattice
    projection (cell centers have odd-integer lattice coordinates, so the
    projection onto an integer direction a is an integer).  All geometry is
    exact integer arithmetic; pairings carry no float noise.
    """
    lattice, n = space.lattice, space.n
    a_int = np.asarray(axis, dtype=int)            # un-normalized direction
    proj = lattice @ a_int                          # integer projections
    norm2 = int(a_int @ a_int)
    shift = proj - beta_lattice
    # mirror in lattice coordinates: x - 2(a·x - beta)/|a|^2 * a
    numer = np.outer(2 * shift, a_int)
    if np.any(numer % norm2 != 0):
        return None                                # not a lattice reflection
    mirrors = lattice - numer // norm2
    # odd coordinate c in [1-n, n-1] is axis index (c+n-1)/2; cells x-major
    found = np.all(np.abs(mirrors) <= n - 1, axis=1)
    index = ((mirrors + (n - 1)) // 2) @ (n ** np.arange(space.dimension)[::-1])
    partner = np.where(found, index, -1)
    inside = shift <= 0
    if not np.all(found | inside):
        return None       # an outside cell would lose its value
    # an unpaired inside cell keeps max(u_i, 0) = u_i on S; some pair must
    # straddle the hyperplane for the reflection to act at all
    if not np.any(found & (inside != inside[partner])):
        return None
    partner.setflags(write=False)
    inside.setflags(write=False)
    scale = float(np.sqrt(norm2))
    unit_axis = tuple(float(c) / scale for c in a_int)
    beta_real = beta_lattice * (space.spacing / 2.0) / scale
    return Polarizer(axis=unit_axis, offset=beta_real, inside=inside,
                     partner=partner, space_signature=space.signature)


def build_polarizer_family(space: GridSpace):
    """All grid-compatible polarizers for ``space``, deterministic order."""
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
    fam = (_make_polarizer(space, ax, beta) for ax, beta in cands)
    return tuple(H for H in fam if H is not None)


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


def approx_symmetrize(u: GridFunction, rho: float, max_iters=None):
    """Drive u toward schwarz(u) by greedily chosen polarizations.

    Returns ``(u_tilde, sequence)`` with ``u_tilde = u^{H_1...H_m}``,
    ``‖u_tilde − schwarz(u)‖_V < rho`` and the polarizer list used.  The
    greedy step picks the family member with the largest V-distance decrease
    toward the (fixed) target; zero-progress moves are allowed on plateaus
    with a visited-state guard, and a two-step lookahead runs before
    declaring the configuration stuck.

    Raises
    ------
    ConvergenceFailure
        iteration cap reached, or no polarization word can reduce the
        residual further (possible on 2D grids), with the residual attached.
    """
    if rho <= 0:
        raise InvalidArgument("rho must be positive")
    space = u.space
    family = space.polarizers
    if max_iters is None:
        max_iters = 10 * space.n_cells * max(1, len(family))
    measure, p, q_V = space.cell_measure, space.p, space.q_V

    order = schwarz_order(space)
    cur = np.abs(u.values)
    target = _schwarz_raw(cur, order)
    table = space._polarizer_table

    # numpy's array power, not the libm-per-row roots of _norm_V_raw: the
    # greedy choice needs no bit-equality with a one-row norm, and the
    # per-row math.pow loop made approx_symmetrize 13% slower (median
    # op_p50_s of 10 paired symmetrize benchmark runs, same outputs)
    def dist_rows(mat):
        diff = np.abs(mat - target[None, :])
        lp = (np.sum(diff ** p, axis=1) * measure) ** (1.0 / p)
        lq = (np.sum(diff ** q_V, axis=1) * measure) ** (1.0 / q_V)
        return np.maximum(lp, lq)

    seq = []
    residual = _norm_V_raw(cur - target, measure, p, q_V)
    plateau_seen = set()
    for _ in range(max_iters):
        if residual < rho:
            return GridFunction(space, cur), [family[k] for k in seq]
        cands = _polarize_raw(cur, *table)
        dists = dist_rows(cands)
        k = int(np.argmin(dists))
        if dists[k] < residual - 1e-15:
            plateau_seen.clear()
            cur, residual = cands[k], dists[k]
            seq.append(k)
            continue
        # plateau: take any state-changing move not seen before
        for k in np.flatnonzero(np.any(cands != cur[None, :], axis=1)):
            key = cands[k].tobytes()
            if key not in plateau_seen:
                plateau_seen.add(key)
                cur, residual = cands[k], dists[k]
                seq.append(int(k))
                break
        else:
            # two-step lookahead before giving up
            for k1 in range(len(family)):
                c2s = _polarize_raw(cands[k1], *table)
                d2 = dist_rows(c2s)
                k2 = int(np.argmin(d2))
                if d2[k2] < residual - 1e-15:
                    plateau_seen.clear()
                    cur, residual = c2s[k2], d2[k2]
                    seq.extend([k1, k2])
                    break
            else:
                raise ConvergenceFailure(
                    f"iterated polarization is stuck at residual "
                    f"{residual:.3e} >= rho={rho:.3e}",
                    residual=residual, best=GridFunction(space, cur),
                    sequence=[family[k] for k in seq])
    raise ConvergenceFailure(
        f"iteration cap {max_iters} reached with residual {residual:.3e}",
        residual=residual, best=GridFunction(space, cur),
        sequence=[family[k] for k in seq])


def polarizer_sequence_json(sequence) -> list:
    """Serialize a polarizer list as [{axis, offset}, ...]."""
    return [{"axis": list(p.axis), "offset": p.offset} for p in sequence]
