"""Lorentz-model primitives for Moebius geometry on the 4-sphere.

Points of S^4 = R^4 + {inf} are modelled as rays on the positive light cone
of R^{5,1} with the quadratic form

    Q(x, y) = x1 y1 + ... + x5 y5 - x6 y6

(p lifts to (p, (|p|^2 - 1)/2, (|p|^2 + 1)/2) and inf to (0, 0, 0, 0, 1, 1)),
round 3-spheres (and hyperplanes, which are spheres through infinity) as unit
spacelike "polar" vectors, and Moebius transformations as 6x6 orthochronous
Lorentz matrices acting on everything at once.  All the geometry downstream
(ball covers, reflection groups, bending) reduces to Q-arithmetic here.

A polar's entries grow like |c|^2 / r, so a matrix built in the complex's
coordinates loses precision with the balls' distance from the origin and
with their size.  Every Moebius matrix is therefore built in a unit frame:
`frame` gives the balls' mean centre and mean radius, and the balls are
translated by the one and divided by the other first.  A dilation is a
Moebius map, so the frame is an exact conjugation, and no verdict or
dimensionless number computed in it depends on the complex's scale.

Sign convention: polars are oriented so that a point p lies in the *open
interior* of a ball iff Q(lift(p), polar) < 0.  With that orientation the
product Q(u, v) of two polars is -cos(theta) for spheres crossing at exterior
dihedral angle theta, < -1 for spheres with disjoint exteriors-of-interiors
(i.e. disjoint balls) and > +1 for nested ones.
"""

from __future__ import annotations

import numpy as np

J = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])

# Cosines that give a finite-order composite of the two reflections; the
# exterior angle theta and its complement pi - theta generate the same
# dihedral group, so both signs of the cosine are legal for a given order.
ORDER_COSINES = {2: (0.0,), 3: (0.5, -0.5)}
# A polar with |v_4 - v_5| (the inverse radius) at most this is a hyperplane.
HYPERPLANE_TOL = 1e-12


def frame(centers, radii):
    """(shift, scale) of the unit frame of balls: their mean centre and mean
    radius over the balls' axis, (..., n, 4) and (..., n) -> (..., 4) and
    (...).  Callers build Moebius matrices from spheres((centers - shift) /
    scale, radii / scale), an exact conjugation whose polars are O(1) at any
    position and scale.  einsum sums the short axis several times faster
    than np.mean's strided reduction."""
    n = np.shape(radii)[-1]
    return np.einsum("...ij->...j", centers) / n, np.einsum("...i->...", radii) / n


def spheres(centers, radii):
    """Vectorized polar vectors: (N,4) centers, (N,) radii -> (N,6) polars."""
    c = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    a = (c * c).sum(axis=1) - r * r
    out = np.empty((len(r), 6))
    out[:, :4] = c / r[:, None]
    out[:, 4] = (a - 1.0) / (2.0 * r)
    out[:, 5] = (a + 1.0) / (2.0 * r)
    return -out


def centers_radii(polars):
    """Vectorized inverse of `spheres`: (N,6) polars -> (centers, radii).

    Raises on hyperplanes (spheres through infinity: |v_4 - v_5| at most
    HYPERPLANE_TOL); accepts either orientation and returns positive radii.
    """
    v = np.asarray(polars, dtype=float)
    inv_r = v[:, 4] - v[:, 5]
    if np.any(np.abs(inv_r) <= HYPERPLANE_TOL):
        raise ValueError("polar describes a hyperplane (sphere through infinity)")
    r = 1.0 / inv_r
    c = -v[:, :4] * r[:, None]
    return c, np.abs(r)


KINDS = ("identity", "elliptic", "parabolic", "loxodromic")
LOXODROMIC = 3


def classify_maps(ms):
    """Classify a stack of Lorentz matrices as identity/elliptic/parabolic/loxodromic.

    Returns (kind, att) for the (n, 6, 6) stack: kind (n,) indexes KINDS, and
    att (n, 4) holds each loxodromic row's attracting fixed point in R^4, a
    NaN row for infinity and on the other kinds.  A map's repelling point is
    the attracting point of its inverse.  The ten renormalised squarings that
    decide the kinds leave M^1024 / max|M^1024|, and its largest column seeds
    `_power_polish` of each loxodromic row; no eigensolver runs.
    """
    ms = np.asarray(ms, dtype=float)
    top = np.abs(ms).max(axis=(1, 2))
    # Eigenvalue moduli are too noisy to separate parabolic from mildly
    # loxodromic directly; instead look at the growth of ||M^(2^k)|| under
    # repeated squaring with renormalisation.  log-norm L_k is bounded for
    # elliptic, ~2k log 2 for parabolic (polynomial growth) and ~2^k log(lam)
    # for loxodromic, so the ratio L_10 / L_9 cleanly separates the latter two.
    cur = ms / top[:, None, None]
    log_norm = np.log(top)
    for _ in range(10):
        prev = log_norm
        cur = cur @ cur
        norm = np.abs(cur).max(axis=(1, 2))
        log_norm = 2.0 * log_norm + np.log(norm)
        cur = cur / norm[:, None, None]
    kind = np.select(
        [np.abs(ms - np.eye(6)).max(axis=(1, 2)) <= 1e-9,
         log_norm < np.log(1e4 * (1.0 + top)),
         log_norm / np.maximum(prev, 1e-30) > 1.5],
        [0, 1, LOXODROMIC], default=2)  # indices into KINDS
    att = np.full((len(ms), 4), np.nan)
    rows = np.flatnonzero(kind == LOXODROMIC)
    if len(rows):
        # cur is M^1024 / max|M^1024|: on a loxodromic row each column is the
        # attracting vector up to (1/lam)^1024 of the others and the squarings'
        # rounding, which the polish against M itself removes
        col = np.abs(cur[rows]).max(axis=1).argmax(axis=1)
        att[rows] = _lightlike_fixed_points(_power_polish(ms[rows], cur[rows, :, col]))
    return kind, att


def _power_polish(ms, v):
    """v <- M v / max|M v| on each row in long double, until a row moves by
    at most a quarter of float64's eps (kept: its float64 rounding is
    settled) or M v has a zero or non-finite norm (the row keeps its v).
    A row converges like lam^-k; the cap leaves room for the mildest maps
    the squarings call loxodromic (lam = 1.018 takes about 1,000 steps)."""
    ms = ms.astype(np.longdouble)
    v = v.astype(np.longdouble)
    live = np.arange(len(v))
    for _ in range(8192):
        w = (ms[live] @ v[live, :, None])[:, :, 0]
        norm = np.abs(w).max(axis=1)
        ok = (norm != 0) & np.isfinite(norm)
        live, w = live[ok], w[ok] / norm[ok, None]
        moved = np.abs(w - v[live]).max(axis=1) > np.finfo(float).eps / 4
        v[live] = w
        live = live[moved]
        if not len(live):
            break
    return v


def _lightlike_fixed_points(v):
    """Rows of light-cone vectors -> the points of R^4 they lift, NaN rows
    for infinity (a zero row included), in v's precision."""
    norm = np.abs(v).max(axis=1)
    v = v / np.where(norm == 0, 1.0, norm)[:, None]
    v = np.where(v[:, 5:] < 0, -v, v)  # orient to the positive cone
    scale = v[:, 5] - v[:, 4]
    at_inf = np.abs(scale) <= 1e-12 * np.maximum(1.0, np.abs(v[:, 5]) + np.abs(v[:, 4]))
    pts = v[:, :4] / np.where(at_inf, 1.0, scale)[:, None]
    pts[at_inf] = np.nan
    return pts
