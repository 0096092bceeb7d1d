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
table, and each polarizer's arrays are row views of it.  The fixed-point
test and the greedy walk read the family as swap pairs instead (a member,
an outside cell and its inside mirror; ``GridSpace._polarizer_pairs``):
polarizing a nonnegative function by a member swaps the values of exactly
its pairs that hold the larger value outside.

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
    """values (N,) polarized by one pairing (N,).  Broadcast against the
    (F, N) family table it polarizes by every member at once, one row per
    polarizer: the dense form the swap-pair walk is checked against."""
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
    """True when every registered polarizer leaves |u| exactly unchanged:
    no swap pair holds a larger value at its outside cell than at its
    inside mirror.  Every outside cell is paired, and an unpaired inside
    cell keeps max(v, 0) = v."""
    vals = np.abs(u.values)[u.space._polarizer_pairs[1]]
    return not np.any(vals[:, 0] > vals[:, 1])


def _iteration_cap(space: GridSpace) -> int:
    """Greedy steps ``approx_symmetrize`` takes before it gives up: 10·N·F."""
    return 10 * space.n_cells * max(1, len(space.polarizers))


def _run_image(cur, t, runs, at, given):
    """cur polarized by the row that owns run t of the swap pairs: the
    pairs' cells ``at`` take the values ``given``."""
    run = slice(runs[t], runs[t + 1])
    out = cur.copy()
    out[at[run]] = given[run]
    return out


def _run_terms(terms, ts, runs, at, new_terms):
    """The (p, q_V) term rows (2, len(ts), N) of the images of runs ts:
    the point's terms (2, N), the run's cells taking ``new_terms``."""
    out = np.repeat(terms[:, None], len(ts), axis=1)
    for s, t in enumerate(ts):
        run = slice(runs[t], runs[t + 1])
        for e in (0, 1):
            out[e, s][at[run]] = new_terms[e, run]
    return out


def approx_symmetrize(u: GridFunction, rho: float):
    """Drive u toward schwarz(u) by greedily chosen polarizations.

    Returns ``(u_tilde, sequence)`` with ``u_tilde = u^{H_1...H_m}``,
    ``‖u_tilde − schwarz(u)‖_V < rho`` and the polarizer list used.  The
    greedy step picks the family member with the largest V-distance decrease
    toward the (fixed) target, the first one on a tie.  On a plateau it
    takes a state-changing move not visited since the last strict decrease;
    when none is left the walk is stuck.  No two-letter word helps there:
    the walk stood at every state-changing neighbour s, none of s's
    one-letter words went below dist(s) − 1e-15, and dist(s) ≥ residual −
    1e-15.

    A step reads the family as swap pairs (``GridSpace._polarizer_pairs``):
    polarizer k moves the current point c only on its pairs (k, j, i) with
    c[j] > c[i], whose two values it swaps.  A row that moves nothing
    scores dist(c), carried over from the step that reached c.  For a row
    that moves, and each exponent e ∈ {p, q_V}, the sum S = Σ|x − t|^e of
    its image is estimated as Ŝ = S(c) plus the term changes on its swapped
    cells, with powers taken on those cells only.  |S − Ŝ| is at most
    4(N + 3)·2⁻⁵³·S(c), half the window's width (N + 8)·2⁻⁵⁰·S(c): S(c) and
    S are each within γ_N of the real sums of their terms, the change (at
    most N term differences, summed) errs by at most γ_{N+3} times the sum
    of its terms, and no swap raises a real sum, because every polarizer
    fixes the target and |·|^e is convex.  Through numpy's roots, within a
    few ulps of the real root, and a relative widening by 2⁻⁴⁴, the window
    gives lo ≤ dist ≤ hi.  Only the rows whose lo reaches the least hi (and
    dist(c), when some row moves nothing) are built and scored exactly.  The
    exact minimum is at most that bound, so every row that attains it is
    kept, and every row left out scores more.  The exact score is the dense
    sum-and-root expression over the row's terms, which are c's terms
    except on the swapped cells.  So each step's choice, numpy's first-index
    tie-break and the residual are those of scoring every polarized image
    of c, given that numpy's power gives an entry the same bits in any
    array.

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
    # the sums' window and the roots' widening (see above)
    spread = 1.0 + np.array([-1.0, 1.0]) * ((space.n_cells + 8) * 2.0 ** -50)
    root_slack = 1.0 + 2.0 ** -44

    cur = np.abs(u.values)
    target = _schwarz_raw(cur, schwarz_order(space))
    rows, cells = space._polarizer_pairs

    def exact(terms):
        """(2, K, N) stacks of |x − t|^p and |x − t|^q_V -> their sums
        (2, K) and the K rows' V-distances, by the dense expression."""
        sums = np.add.reduce(terms, axis=2)
        scaled = sums * measure
        return sums, np.maximum(scaled[0] ** (1.0 / p),
                                scaled[1] ** (1.0 / q_V))

    diff = np.abs(cur - target)
    cur_terms = np.concatenate((diff ** p, diff ** q_V)).reshape(2, -1)
    cur_sums, cur_dist = exact(cur_terms[:, None])
    cur_dist = cur_dist[0]

    seq = []
    residual = _norm_V_raw(cur - target, measure, p, q_V)
    plateau_seen = set()
    cap = _iteration_cap(space)
    for _ in range(cap):
        if residual < rho:
            return GridFunction(space, cur), [family[k] for k in seq]
        vals = cur[cells]
        swap = (vals[:, 0] > vals[:, 1]).nonzero()[0]
        moved, kept = swap, []
        if swap.size:
            # pairs come sorted by row: each moved row owns one run of them
            srows = rows[swap]
            head = np.empty(swap.size, dtype=bool)
            head[0] = True
            np.not_equal(srows[1:], srows[:-1], out=head[1:])
            starts = head.nonzero()[0]
            moved = srows[starts]
            runs = starts.tolist() + [swap.size]
            at = cells.take(swap, axis=0)
            given = vals.take(swap, axis=0)[:, ::-1]    # j gets c[i], i c[j]
            x = np.abs(given - target[at])
            new_terms = np.concatenate((x ** p, x ** q_V)).reshape(2, -1, 2)
            change = np.add.reduceat(
                (new_terms - cur_terms.take(at, axis=1)).reshape(2, -1),
                2 * starts, axis=1)
            box = (cur_sums * spread)[:, :, None] + change[:, None]
            np.maximum(box, 0.0, out=box)
            box *= measure
            lo, hi = np.maximum(box[0] ** (1.0 / p), box[1] ** (1.0 / q_V))
            bound = np.minimum.reduce(hi) * root_slack
            if len(moved) < len(family):
                bound = min(bound, cur_dist)
            # a NaN bound (overflowed sums) keeps its row
            kept = (~(lo > bound * root_slack)).nonzero()[0].tolist()
            kept_terms = _run_terms(cur_terms, kept, runs, at, new_terms)
            kept_sums, kept_dists = exact(kept_terms)
        # numpy's argmin over all F scores: the best kept row, unless the
        # first row that moves nothing (it scores dist(c)) is lower or first
        best = np.inf
        if kept:
            s = int(kept_dists.argmin())
            t, best = kept[s], kept_dists[s]
            k = int(moved[t])
        if len(moved) < len(family) and not best < cur_dist:
            unmoved = int(np.count_nonzero(moved == np.arange(len(moved))))
            if not kept or (cur_dist, unmoved) < (best, k):
                t, k, best = None, unmoved, cur_dist
        plateau = not best < residual - 1e-15
        if plateau:
            # take any state-changing move not seen before
            t = next((t for t in range(len(moved)) if _run_image(
                cur, t, runs, at, given).tobytes() not in plateau_seen), None)
            if t is None:
                why = (f"iterated polarization is stuck at residual "
                       f"{residual:.3e} >= rho={rho:.3e}")
                break
            k = int(moved[t])
        else:
            plateau_seen.clear()
        if t is not None:                       # k moves c
            cur = _run_image(cur, t, runs, at, given)
            if t in kept:
                s = kept.index(t)
                cur_terms = kept_terms[:, s]
                cur_sums, cur_dist = kept_sums[:, s:s + 1], kept_dists[s]
            else:
                cur_terms = _run_terms(cur_terms, [t], runs, at, new_terms)
                cur_sums, cur_dist = exact(cur_terms)
                cur_terms, cur_dist = cur_terms[:, 0], cur_dist[0]
            if plateau:
                plateau_seen.add(cur.tobytes())
        residual = cur_dist
        seq.append(k)
    else:
        why = f"iteration cap {cap} reached with residual {residual:.3e}"
    raise ConvergenceFailure(why, residual=residual,
                             best=GridFunction(space, cur),
                             sequence=[family[k] for k in seq])


def polarizer_sequence_json(sequence) -> list:
    """Serialize a polarizer list as [{axis, offset}, ...]."""
    return [{"axis": list(p.axis), "offset": p.offset} for p in sequence]
