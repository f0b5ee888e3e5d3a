"""One-parameter bending deformations along amalgam subgroups.

Each amalgam is four vertex-ball reflections around a shared square.  The
four spheres admit a common orthogonal circle: it is centered at the square's
center, lies in the square's 2-plane, and has radius rho with
rho^2 = d^2 - r^2 (d = center-to-vertex distance, r = ball radius); for a
square of edge ell and r = ell/sqrt(3) this is ell/sqrt(6).  The bending map
E_t fixes that circle pointwise and rotates the complementary coordinate
2-plane by angle t about the circle's center; it therefore commutes with all
four amalgam reflections, and conjugating every generator on one side of the
amalgam by E_t yields a new representation of the same abstract group.

E_t is a Euclidean rotation, so E_t R E_t^-1 is the reflection in the
rotated sphere: bending moves the side-B sphere centers and nothing else,
and keeps the inversive product of any two balls it moves alike.  So
relations between generators on a common side hold as in the base group,
whose relation suite certifies them, and a relation mixing the two sides
holds at every t when its pair's product P(t) = alpha + beta cos t +
gamma sin t (groups.bending_terms) never moves: when its shift, the sup
hypot(beta, gamma) + |beta| of |P_t - P_0|, is 0.  Products are
dimensionless, so no verdict of the sweep depends on the scale.

The crossing relations of every amalgam and their shifts come from one
table per group, `ReflectionGroup.crossings`, built in one pass on first
use and kept: crossing_relations reads amalgam j's slice of it, and
suitable_amalgams reads the shifts of all amalgams at once.

The family is a non-trivial deformation through one number, lambda_max of
the bent crossing word R_a E_t R_b E_t^-1 of a pair (a, b) from
crossing_word.  It needs no word matrix: two reflections whose balls have
inversive product P with |P| > 1 compose to a loxodromic map of dilation
exp(2 acosh |P|) = (|P| + sqrt(P^2 - 1))^2, and P(t) is the pair's own.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cover import ROLE_VERTEX, _finite_balls, pair_orders
from .groups import GroupError, _square_frames, bending_terms


@dataclasses.dataclass
class BendingLocus:
    center: np.ndarray  # (4,) circle center = square center
    radius: float
    rotation_axes: tuple  # the two axes off the square's plane, rotated by E_t


def bending_locus(group, j):
    """The circle orthogonal to amalgam j's four spheres, in the square's
    plane; raises unless the four spheres agree on rho^2 and are centered
    in that plane to within 1e-9, in tube units."""
    am = group.amalgam(j)
    rotation_axes = tuple(a for a in range(4) if am.square[a][1] == am.square[a][0])
    center, rho2, residual = (x[0] for x in _circle_fits(group, [j]))
    if not _has_circle(rho2):
        raise GroupError(
            f"amalgam {j} has no common orthogonal circle: rho^2 spread {rho2}"
        )
    if not residual <= 1e-9:
        raise GroupError(f"amalgam {j} orthogonality residual {residual}")
    return BendingLocus(
        center=center,
        radius=math.sqrt(float(rho2.mean())) * group.cover.unit,
        rotation_axes=rotation_axes,
    )


def _circle_fits(group, js):
    """(center, rho2, residual) of the amalgams js, one row each: the
    square's centre (4,), rho^2 = d^2 - r^2 per ball (d its centre's distance
    from the square's centre) (4,), and the largest miss of d^2 = rho^2 + r^2
    (rho^2 their mean) or of a centre off the square's plane.  rho2 and the
    residual are in tube units, so their tolerances hold at any scale."""
    ams = [group.amalgams[j] for j in js]
    center, spanned = _square_frames(ams)
    balls = np.array([am.ball_ids for am in ams], dtype=np.int64).reshape(-1, 4)
    unit = group.cover.unit
    off = (group.cover.centers[balls] - center[:, None]) / unit
    d2 = (off**2).sum(axis=2)
    r2 = (group.cover.radii[balls] / unit) ** 2
    rho2 = d2 - r2
    with np.errstate(invalid="ignore"):  # a negative mean: _has_circle fails it
        rho = np.sqrt(rho2.mean(axis=1, keepdims=True))
    residual = np.abs(d2 - rho * rho - r2)
    # the spheres must also be centered in the circle's 2-plane
    residual = np.maximum(residual, np.where(spanned[:, None], 0.0, np.abs(off)).max(axis=2))
    return center, rho2, residual.max(axis=1)


def _has_circle(rho2):
    """Per row of rho^2 values (in tube units): all positive and within 1e-9
    of each other (a NaN spread fails too)."""
    return ~(rho2 <= 0).any(axis=-1) & (np.ptp(rho2, axis=-1) <= 1e-9)


def split_sides(group, j):
    """(N,) bool mask of side B at amalgam j; Gamma_j lies on side A.

    Sides follow the cube chain: balls hosted in cubes up to the amalgam's
    first cube belong to side A, the rest to side B.
    """
    return group.cover.host > group.amalgam(j).cube_pair[0]


def crossing_relations(group, j):
    """(rows, shift): the relation rows straddling amalgam j, in relation
    order, and each row's product shift, the sup over all t of |P_t - P_0|;
    amalgam j's slice of group.crossings.

    A relation (i, k, m) with one member on each side survives one-sided
    conjugation at every t iff its shift is 0, so that its angle pi/m does
    not move: iff a member is centred on the rotation's fixed 2-plane, as
    the Gamma_j balls are and, at a junction, the entire plate of the big
    cube.  A shift above tolerance makes the amalgam unsuitable.
    """
    group.amalgam(j)
    rows, shift, offsets = group.crossings
    cut = slice(offsets[j], offsets[j + 1])
    return rows[cut], shift[cut]


def bend(group, j, ts, pair, tol=1e-8):
    """The bending sweep at amalgam j: a row {t, lambda_max} per t in ts.

    Side-B generators are conjugated by E_t; Gamma_j and side A are kept.
    The amalgam is refused once, before any row, when a crossing relation's
    product shift over all t (crossing_relations) is above `tol` or is not
    a number: the GroupError names the worst relation, with report [].
    lambda_max is that of the bent crossing word of `pair` = (a, b) from
    crossing_word: (|P| + sqrt(P^2 - 1))^2 from the pair's product P(t)
    (groups.bending_terms), the dilation of R_a R_b for disjoint (or
    nested) balls, and exactly 1.0 when they meet (|P| <= 1); a pair on one
    side keeps its product.  A pair ball without a finite centre and a
    finite positive radius raises CoverError.
    """
    locus = bending_locus(group, j)
    side_b = split_sides(group, j)
    rows, shift = crossing_relations(group, j)
    cover = group.cover
    _finite_balls(cover.centers[list(pair)], cover.radii[list(pair)], ids=pair)
    max_shift = float(shift.max(initial=0.0))
    if not max_shift <= tol:  # a NaN shift fails too
        i, k, m = (int(x) for x in rows[int(shift.argmax())])
        raise GroupError(f"bending at amalgam {j} breaks relation (R_{i} R_{k})^{m} = 1: product "
                         f"shift {max_shift:.3e} (no member commutes with the bending rotation)",
                         report=[])
    a, b = sorted(pair, key=lambda ball: side_b[ball])  # side A first
    alpha, beta, gamma = map(float, bending_terms(cover, locus.center, locus.rotation_axes, a, b))
    if side_b[a] == side_b[b]:  # E_t moves both balls or neither
        alpha, beta, gamma = alpha + beta, 0.0, 0.0

    def lambda_max(t):
        abs_p = max(abs(alpha + beta * math.cos(t) + gamma * math.sin(t)), 1.0)
        return (abs_p + math.sqrt(abs_p * abs_p - 1.0)) ** 2

    return [{"t": float(t), "lambda_max": lambda_max(float(t))} for t in ts]


def suitable_amalgams(group):
    """Amalgam indices whose every crossing relation has a product shift
    over all t of at most 1e-9 (crossing_relations): there one-sided
    conjugation preserves all relations.  Every amalgam must have a bending
    locus: the first that has none raises its own bending_locus error."""
    _center, rho2, residual = _circle_fits(group, range(len(group.amalgams)))
    for j in np.flatnonzero(~(_has_circle(rho2) & (residual <= 1e-9))):
        bending_locus(group, int(j))
    _rows, shift, offsets = group.crossings
    moved = np.concatenate([[0], np.cumsum(~(shift <= 1e-9))])[offsets]  # moving rows before j's
    return np.flatnonzero(moved[1:] == moved[:-1]).tolist()


def crossing_word(group, j):
    """A loxodromic word straddling amalgam j: reflections in two disjoint
    vertex balls, a on side A and b on side B.  Each side's vertex balls
    outside Gamma_j are ranked by (squared distance to the square's centre,
    id), and (a, b) is the first pair in rank order that pair_orders finds
    disjoint: a runs through side A in rank order, each next one a linear
    minimum over the balls not yet tried, and b is the least-ranked side-B
    ball disjoint from a, so nothing is sorted.  A ranked ball without a
    finite centre and a finite positive radius raises CoverError: it would
    rank last and never be chosen, so the word would silently avoid it."""
    am = group.amalgam(j)
    cover = group.cover
    balls = np.flatnonzero(cover.roles == ROLE_VERTEX)
    balls = balls[~np.isin(balls, am.ball_ids)]
    centers, radii = _finite_balls(cover.centers[balls], cover.radii[balls], ids=balls)
    d2 = ((centers - np.mean(am.square, axis=1)) ** 2).sum(axis=1)
    side_b = split_sides(group, j)[balls]
    # rows of balls, ascending by id, so the first least d2 has the least id
    near, far = np.flatnonzero(~side_b), np.flatnonzero(side_b)
    while len(near):
        k = int(np.argmin(d2[near]))
        a = near[k]
        _prod, order = pair_orders(centers, radii, np.full(len(far), a), far)
        disjoint = far[order == 0]
        if len(disjoint):
            return int(balls[a]), int(balls[disjoint[np.argmin(d2[disjoint])]])
        near = np.delete(near, k)
    raise GroupError(f"no disjoint crossing pair found at amalgam {j}")
