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

The sweep works in the *amalgam frame*, the `lorentz.frame` of the four
Gamma_j balls: coordinates translated so that their mean centre, the
square's center, is the origin, which makes E_t a pure block rotation, and
for the Gamma_j reflections also divided by their radius.  E_t is a
Euclidean rotation about the square's 2-plane, so E_t R E_t^-1 is the
reflection in the rotated sphere: bending moves the side-B sphere centers
and nothing else.  The relations that genuinely mix the two sides are
therefore checked on rotated centers by the base relation suite's own
kernel, `groups.relation_residuals`, each pair in its own unit frame.  The
amalgam frame would not do for them: a pair 13.5 units from the square's
center has reflection entries near 5e4, and its cubed product misses the
identity by ~1e2 even at t = 0.  The locus tests measure lengths in tube
units, so no verdict of the sweep depends on the complex's scale.
Relations between generators on a common side are untouched by the
deformation -- (E R_i E^-1)(E R_j E^-1) = E R_i R_j E^-1 identically -- so
they are certified once by the base group's relation suite.

The crossing relations of every amalgam come from one table per group,
`ReflectionGroup.crossings`, built in one pass on first use and kept:
crossing_relations reads amalgam j's slice of it, and suitable_amalgams reads
the safe flags of all amalgams at once.  bend sweeps all the angles of one
amalgam in one call: the locus, the sides, that slice and the Gamma_j
reflections are built once, and only E_t's work is repeated per angle.

The family is a non-trivial deformation through one number, lambda_max of
the bent crossing word R_a E_t R_b E_t^-1 of a pair (a, b) from
crossing_word.  It needs no word matrix: E_t only rotates b's centre, and
two reflections whose balls have inversive product P with |P| > 1 compose
to a loxodromic map of dilation exp(2 acosh |P|) = (|P| + sqrt(P^2 - 1))^2.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lorentz as lz
from .cover import ROLE_VERTEX, _finite_balls, _products, pair_orders
from .groups import GroupError, _square_frames, reflection_matrices, relation_residuals


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


def bending_rotation(locus, t):
    """E_t in the amalgam frame: rotation by t in the complementary 2-plane.

    Fixes the circle's 2-plane (and the circle itself) pointwise; E_t E_s =
    E_{t+s} and E_0 = I hold by construction of the rotation block.
    """
    p, q = locus.rotation_axes
    e = np.eye(6)
    e[p, p] = math.cos(t)
    e[q, q] = math.cos(t)
    e[p, q] = -math.sin(t)
    e[q, p] = math.sin(t)
    return e


def commutation_residual(e, r):
    """max || E R E^-1 - R ||_inf over the reflections r (k, 6, 6)."""
    return float(np.abs(e @ r @ lz.inverse(e) - r).max())


def split_sides(group, j):
    """(N,) bool mask of side B at amalgam j; Gamma_j lies on side A.

    Sides follow the cube chain: balls hosted in cubes up to the amalgam's
    first cube belong to side A, the rest to side B.
    """
    return group.cover.host > group.amalgam(j).cube_pair[0]


def crossing_relations(group, j):
    """(rows, safe): the relation rows straddling amalgam j, in relation
    order, flagged bending-safe; amalgam j's slice of group.crossings.

    A relation (i, k, m) with one member on each side survives one-sided
    conjugation iff one of its members commutes with E_t: then
    (R_i E R_k E^-1)^m collapses to a conjugate of the base relation.  That
    holds for the Gamma_j reflections and, more generally, for any ball
    centered on the rotation's fixed 2-plane (at a junction the entire
    plate of the big cube qualifies).  Pairs with no commuting member make
    the amalgam unsuitable for bending.
    """
    group.amalgam(j)
    rows, safe, offsets = group.crossings
    cut = slice(offsets[j], offsets[j + 1])
    return rows[cut], safe[cut]


def bend(group, j, ts, pair, tol=1e-8):
    """The bending sweep at amalgam j: one row per angle t in ts.

    Side-B generators are conjugated by E_t; Gamma_j and side A are kept.
    E_t turns about the frame shift of Gamma_j's four balls (`lz.frame`, the
    square's centre).  At each t every relation that genuinely mixes the
    two sides is re-verified on the images (the side-B sphere rotated by
    E_t, each pair in its own unit frame); a residual above `tol`, or one
    that is not a number, raises with the failing relation.  So does a
    commutation residual of E_t with the Gamma_j reflections, built in
    Gamma_j's unit frame, above `tol` or not a number.  Same-side relations
    equal their base counterparts exactly (see module docstring) and are
    covered by the base suite.  A row records t,
    both residuals and lambda_max of the bent crossing word of `pair` = (a,
    b), as crossing_word gives it: the pair's side-B members are rotated as
    the relations' are, and from the inversive product P of the two balls,
    lambda_max = (|P| + sqrt(P^2 - 1))^2, the dilation of R_a R_b for
    disjoint (or nested) balls, and exactly 1.0 when they meet (|P| <= 1:
    an elliptic or parabolic product).  A pair ball without a finite centre
    and a finite positive radius raises CoverError.  The GroupError of a
    failing angle carries the rows of the angles before it as its `report`.
    """
    locus = bending_locus(group, j)
    side_b = split_sides(group, j)
    rows, safe = crossing_relations(group, j)
    cover = group.cover
    pair = np.asarray(pair)
    _finite_balls(cover.centers[pair], cover.radii[pair], ids=pair)
    ids = list(group.amalgams[j].ball_ids)
    shift, scale = lz.frame(cover.centers[ids], cover.radii[ids])
    gamma = reflection_matrices(lz.spheres((cover.centers[ids] - shift) / scale,
                                           cover.radii[ids] / scale))
    balls = np.vstack([rows[:, :2], pair])  # the crossing rows, then the pair
    centers = cover.centers[balls] - shift
    radii = cover.radii[balls]
    moved = side_b[balls]
    side_b_centers = centers[moved]
    out = []
    for t in ts:
        t = float(t)
        e = bending_rotation(locus, t)
        centers[moved] = side_b_centers @ e[:4, :4].T
        residual, _gap = relation_residuals(centers[:-1], radii[:-1], rows[:, 2])
        max_residual = float(residual.max(initial=0.0))
        if not max_residual <= tol:  # a NaN residual fails too
            w = int(residual.argmax())
            i, k, m = (int(x) for x in rows[w])
            raise GroupError(
                f"bending at amalgam {j} breaks relation (R_{i} R_{k})^{m} = 1: "
                f"residual {max_residual:.3e}"
                + ("" if safe[w] else " (no member commutes with the bending rotation)"),
                report=out,
            )
        commutation = commutation_residual(e, gamma)
        if not commutation <= tol:
            raise GroupError(f"bending at amalgam {j} does not commute with Gamma_j: "
                             f"commutation residual {commutation:.3e}", report=out)
        p = max(abs(float(_products(centers[-1], radii[-1], 0, 1))), 1.0)
        out.append({"t": t, "max_relation_residual": max_residual,
                    "commutation_residual": commutation,
                    "lambda_max": (p + math.sqrt(p * p - 1.0)) ** 2})
    return out


def suitable_amalgams(group):
    """Amalgam indices where every crossing relation has a member commuting
    with the bending rotation (the exact condition for one-sided conjugation
    to preserve all relations).  Every amalgam must have a bending locus:
    the first that has none raises its own bending_locus error."""
    _center, rho2, residual = _circle_fits(group, range(len(group.amalgams)))
    for j in np.flatnonzero(~(_has_circle(rho2) & (residual <= 1e-9))):
        bending_locus(group, int(j))
    _rows, safe, offsets = group.crossings
    unsafe_before = np.concatenate([[0], np.cumsum(~safe)])[offsets]  # at each amalgam's first row
    return np.flatnonzero(unsafe_before[1:] == unsafe_before[:-1]).tolist()


def crossing_word(group, j):
    """A loxodromic word straddling amalgam j: reflections in two disjoint
    vertex balls, a on side A and b on side B.  Each side's vertex balls
    outside Gamma_j are ranked by (squared distance to the square's centre,
    id), and (a, b) is the first pair in rank order that pair_orders finds
    disjoint.  A ball without a finite centre and a finite positive radius
    raises CoverError: it would rank last and never be chosen, so the word
    would silently avoid it."""
    am = group.amalgam(j)
    cover = group.cover
    _finite_balls(cover.centers, cover.radii)
    balls = np.flatnonzero(cover.roles == ROLE_VERTEX)
    balls = balls[~np.isin(balls, am.ball_ids)]
    d2 = ((cover.centers[balls] - np.mean(am.square, axis=1)) ** 2).sum(axis=1)
    ranked = balls[np.lexsort((balls, d2))]
    side_b = split_sides(group, j)[ranked]
    near, far = ranked[~side_b], ranked[side_b]
    for a in near:
        _prod, order = pair_orders(cover.centers, cover.radii, np.full(len(far), a), far)
        disjoint = np.flatnonzero(order == 0)
        if len(disjoint):
            return int(a), int(far[disjoint[0]])
    raise GroupError(f"no disjoint crossing pair found at amalgam {j}")

