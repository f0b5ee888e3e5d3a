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

import math

import numpy as np

J = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])

# Cosines that give a finite-order composite of the two reflections; the
# exterior angle theta and its complement pi - theta generate the same
# dihedral group, so both signs of the cosine are legal for a given order.
ORDER_COSINES = {2: (0.0,), 3: (0.5, -0.5)}


def q(u, v):
    """Lorentz inner product; broadcasts over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (u[..., :5] * v[..., :5]).sum(axis=-1) - u[..., 5] * v[..., 5]


def project(w, tol=1e-12):
    """Light-cone vector -> point of R^4 it lifts, or None for inf."""
    w = np.asarray(w, dtype=float)
    scale = w[5] - w[4]
    if abs(scale) <= tol * max(1.0, abs(w[5]) + abs(w[4])):
        return None
    return w[:4] / scale


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


def centers_radii(polars, tol=1e-12):
    """Vectorized inverse of `spheres`: (N,6) polars -> (centers, radii).

    Raises on hyperplanes (spheres through infinity); accepts either
    orientation and returns positive radii.
    """
    v = np.asarray(polars, dtype=float)
    inv_r = v[:, 4] - v[:, 5]
    if np.any(np.abs(inv_r) <= tol):
        raise ValueError("polar describes a hyperplane (sphere through infinity)")
    r = 1.0 / inv_r
    c = -v[:, :4] * r[:, None]
    return c, np.abs(r)


def inverse(m):
    """Group inverse via the Lorentz adjugate J M^T J (never numeric inv)."""
    return J @ np.asarray(m).T @ J


def classify_map(m, tol=1e-9):
    """Classify a Lorentz matrix as identity/elliptic/parabolic/loxodromic.

    Returns (kind, data): for loxodromic maps data is (dilation, attracting
    fixed point, repelling fixed point) with fixed points as R^4 vectors or
    None for infinity; otherwise data is None.
    """
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m - np.eye(6))) <= tol:
        return "identity", None
    # Eigenvalue moduli are too noisy to separate parabolic from mildly
    # loxodromic directly; instead look at the growth of ||M^(2^k)|| under
    # repeated squaring with renormalisation.  log-norm L_k is bounded for
    # elliptic, ~2k log 2 for parabolic (polynomial growth) and ~2^k log(lam)
    # for loxodromic, so the ratio L_10 / L_9 cleanly separates the latter two.
    cur = m.copy()
    log_norm = math.log(np.max(np.abs(cur)))
    cur = cur / np.max(np.abs(cur))
    logs = [log_norm]
    for _ in range(10):
        cur = cur @ cur
        n = np.max(np.abs(cur))
        log_norm = 2.0 * log_norm + math.log(n)
        cur = cur / n
        logs.append(log_norm)
    if logs[-1] < math.log(1e4 * (1.0 + np.max(np.abs(m)))):
        return "elliptic", None
    if logs[-1] / max(logs[-2], 1e-30) > 1.5:
        vals, vecs = np.linalg.eig(m)
        moduli = np.abs(vals)
        i_max = int(np.argmax(moduli))
        i_min = int(np.argmin(moduli))
        lam = float(moduli[i_max])
        # polish the eigenvectors by power iteration: eig's output for a
        # nonsymmetric matrix at lattice scale carries ~1e-7 absolute noise,
        # while each multiply contracts the off-dominant error by 1/lam
        att = _lightlike_fixed_point(_power_polish(m, vecs[:, i_max]))
        rep = _lightlike_fixed_point(_power_polish(inverse(m), vecs[:, i_min]))
        return "loxodromic", (lam, att, rep)
    return "parabolic", None


def _power_polish(m, col, iterations=64):
    v = np.real(np.real_if_close(col, tol=1e6))
    for _ in range(iterations):
        w = m @ v
        norm = np.max(np.abs(w))
        if norm == 0 or not np.isfinite(norm):
            return v
        w = w / norm
        if np.max(np.abs(w - v)) <= 1e-16:
            return w
        v = w
    return v


def _lightlike_fixed_point(col):
    v = np.real_if_close(col, tol=1e6)
    v = np.real(v)
    norm = np.max(np.abs(v))
    if norm == 0:
        return None
    v = v / norm
    # orient to the positive cone
    if v[5] < 0:
        v = -v
    return project(v)
