"""Lorentz-model primitives for Moebius geometry on the 4-sphere.

Points of S^4 = R^4 + {inf} are modelled as rays on the positive light cone
of R^{5,1} with the quadratic form

    Q(x, y) = x1 y1 + ... + x5 y5 - x6 y6

(p lifts to (p, (|p|^2 - 1)/2, (|p|^2 + 1)/2) and inf to (0, 0, 0, 0, 1, 1)),
round 3-spheres (and hyperplanes, which are spheres through infinity) as unit
spacelike "polar" vectors, and Moebius transformations as 6x6 orthochronous
Lorentz matrices acting on everything at once.  All the geometry downstream
(ball covers, reflection groups, bending) reduces to Q-arithmetic here.

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


def q(u, v):
    """Lorentz inner product; broadcasts over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (u[..., :5] * v[..., :5]).sum(axis=-1) - u[..., 5] * v[..., 5]


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


def inverse(m):
    """Group inverse via the Lorentz adjugate J M^T J (never numeric inv);
    broadcasts over leading axes."""
    return J @ np.swapaxes(m, -1, -2) @ J


KINDS = ("identity", "elliptic", "parabolic", "loxodromic")
LOXODROMIC = 3


def classify_maps(ms, tol=1e-9):
    """Classify a stack of Lorentz matrices as identity/elliptic/parabolic/loxodromic.

    Returns (kind, lam, att, rep) for the (n, 6, 6) stack: kind (n,) indexes
    KINDS; on loxodromic rows lam is the dilation and att, rep (n, 4) are the
    attracting and repelling fixed points in R^4, NaN rows for infinity.
    lam, att and rep are NaN on the other rows.
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
        [np.abs(ms - np.eye(6)).max(axis=(1, 2)) <= tol,
         log_norm < np.log(1e4 * (1.0 + top)),
         log_norm / np.maximum(prev, 1e-30) > 1.5],
        [0, 1, LOXODROMIC], default=2)  # indices into KINDS
    lam = np.full(len(ms), np.nan)
    att, rep = np.full((2, len(ms), 4), np.nan)
    rows = np.flatnonzero(kind == LOXODROMIC)
    if len(rows):
        m = ms[rows]
        vals, vecs = np.linalg.eig(m)
        moduli = np.abs(vals)
        at = np.arange(len(rows))
        i_max, i_min = moduli.argmax(axis=1), moduli.argmin(axis=1)
        lam[rows] = moduli[at, i_max]
        # polish the eigenvectors by power iteration: eig's output for a
        # nonsymmetric matrix at lattice scale carries ~1e-7 absolute noise,
        # while each multiply contracts the off-dominant error by 1/lam
        att[rows] = _lightlike_fixed_points(_power_polish(m, vecs[at, :, i_max].real))
        rep[rows] = _lightlike_fixed_points(
            _power_polish(inverse(m), vecs[at, :, i_min].real))
    return kind, lam, att, rep


def _power_polish(ms, v, iterations=64):
    """v <- M v / max|M v| on each row, until a row moves by at most 1e-16
    (kept) or M v has a zero or non-finite norm (the row keeps its v)."""
    v = v.copy()
    live = np.arange(len(v))
    for _ in range(iterations):
        w = (ms[live] @ v[live, :, None])[:, :, 0]
        norm = np.abs(w).max(axis=1)
        ok = (norm != 0) & np.isfinite(norm)
        live, w = live[ok], w[ok] / norm[ok, None]
        moved = np.abs(w - v[live]).max(axis=1) > 1e-16
        v[live] = w
        live = live[moved]
        if not len(live):
            break
    return v


def _lightlike_fixed_points(v, tol=1e-12):
    """Rows of light-cone vectors -> the points of R^4 they lift, NaN rows
    for infinity (a zero row included)."""
    norm = np.abs(v).max(axis=1)
    v = v / np.where(norm == 0, 1.0, norm)[:, None]
    v = np.where(v[:, 5:] < 0, -v, v)  # orient to the positive cone
    scale = v[:, 5] - v[:, 4]
    at_inf = np.abs(scale) <= tol * np.maximum(1.0, np.abs(v[:, 5]) + np.abs(v[:, 4]))
    pts = v[:, :4] / np.where(at_inf, 1.0, scale)[:, None]
    pts[at_inf] = np.nan
    return pts
