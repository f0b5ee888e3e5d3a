"""Covering family of round 4-balls for the knot surface of a cube complex.

The cover is built at a single uniform scale, the tube unit, on the
rasterized surface:

* a vertex ball of radius ell/sqrt(3) at every surface lattice vertex
  (adjacent vertices meet at exterior angle pi/3, diagonal pairs are
  disjoint);
* on every surface square of side ell, four face balls at in-plane offsets
  (+-A, 0), (0, +-A) from the face center with A = ell(3-sqrt(7))/2 and
  radius A*sqrt(2/3) -- each orthogonal to its two nearest vertex balls and
  meeting its ring neighbors at pi/3 -- plus a center ball of radius
  A/sqrt(3) orthogonal to the four face balls and disjoint from everything
  else;
* around each tube attachment square ("junction annulus"), 4+8k additional
  balls of radius ell/(2*sqrt(3)) centered at lattice edge midpoints: the 4
  midpoints of the attachment square's own edges, plus for each refinement
  level j <= k the 8-point dihedral orbit of an edge midpoint j steps out.

Every edge-midpoint ball is automatically legal against the whole family:
it meets the two vertex balls of its edge at exterior cosine -1/2 (order 3),
is exactly orthogonal to the nearest face balls (the same quadratic
A^2 - 3 A ell + ell^2/2 = 0 that drives the face pattern), and is disjoint
from all other balls.  All pairwise claims are certified in validate_cover
rather than trusted: one grid search lists every pair whose inversive
product is below 1.15 (cell side sqrt(4.3) times the largest radius, so the
pairs it skips are provably disjoint), and the legality sweep and the
adjacency are both read from that one list.  The adjacency is one (n, 3) int
array of rows (i, j, m), which is also the reflection group's relation array.
Coverage is a query on the same grid join: it lists every ball whose trace
disk meets a face's square, and the Monte-Carlo samples are tested against
those disks in float64, in the face plane, with no recheck.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import lorentz as lz
from .complexes import knot_surface

ROLE_VERTEX = 0
ROLE_FACE = 1
ROLE_JUNCTION = 2
ROLE_NAMES = {ROLE_VERTEX: "vertex", ROLE_FACE: "face", ROLE_JUNCTION: "junction"}

# lz.ORDER_COSINES flattened: each legal exterior cosine and its Coxeter order
_COSINES = np.array([c for cs in lz.ORDER_COSINES.values() for c in cs])
_ORDERS = np.array([m for m, cs in lz.ORDER_COSINES.items() for _ in cs], dtype=np.int64)
ANGLE_TOL = 1e-9


class CoverError(ValueError):
    pass


def face_ball_offset(ell):
    """In-plane face-ball offset A: root of A^2 - 3*A*ell + ell^2/2 = 0."""
    return ell * (3.0 - math.sqrt(7.0)) / 2.0


def closed_form_parameters(ell):
    a = face_ball_offset(ell)
    return {
        "vertex_radius": ell / math.sqrt(3.0),
        "face_offset": a,
        "face_radius": a * math.sqrt(2.0 / 3.0),
        "center_radius": a / math.sqrt(3.0),
        "junction_radius": ell / (2.0 * math.sqrt(3.0)),
    }


@dataclasses.dataclass
class BallCover:
    centers: np.ndarray  # (N, 4)
    radii: np.ndarray  # (N,)
    roles: np.ndarray  # (N,) ints, see ROLE_*
    host: np.ndarray  # (N,) index into complex.all_cubes
    polars: np.ndarray  # (N, 6)
    adjacency: np.ndarray  # (n, 3) int64 rows (i, j, order m), sorted by (i, j)
    refinement: int
    unit: int
    vertex_index: dict  # lattice vertex -> ball index

    def __len__(self):
        return len(self.radii)

    def role_counts(self):
        return {
            name: int((self.roles == code).sum()) for code, name in ROLE_NAMES.items()
        }


def _junction_sites(square_box, k):
    """Edge-midpoint centers for the 4+8k annulus balls of one attach square."""
    axes = [a for a in range(4) if square_box[a][1] > square_box[a][0]]
    if len(axes) != 2:
        raise CoverError("attach square is not two-dimensional")
    u, v = axes
    ell = square_box[u][1] - square_box[u][0]
    base = [lo for lo, _ in square_box]
    cu = base[u] + ell / 2.0
    cv = base[v] + ell / 2.0

    def site(du, dv):
        p = [float(x) for x in base]
        p[u] = cu + du
        p[v] = cv + dv
        return tuple(p)

    half = ell / 2.0
    sites = [site(0, -half), site(0, half), site(-half, 0), site(half, 0)]
    for j in range(1, k + 1):
        d = j * ell
        for su in (-1, 1):
            for sv in (-1, 1):
                sites.append(site(su * d, sv * half))
                sites.append(site(su * half, sv * d))
    return sites


def build_cover(c, k=0, surf=None):
    """Deterministic ball family for the complex's knot surface `surf`
    (computed here when the caller has not built it)."""
    if k < 0:
        raise CoverError("refinement k must be >= 0")
    if surf is None:
        surf = knot_surface(c)
    if surf.issues:
        raise CoverError("complex has an invalid surface: " + "; ".join(surf.issues))
    ell = float(c.unit)
    p = closed_form_parameters(ell)

    centers, radii, roles = [], [], []

    verts = surf.vertices  # sorted
    vertex_index = {}
    for v in verts:
        vertex_index[v] = len(centers)
        centers.append([float(x) for x in v])
        radii.append(p["vertex_radius"])
        roles.append(ROLE_VERTEX)

    for corner, (i, j) in surf.faces:
        mid = [float(x) for x in corner]
        mid[i] += ell / 2.0
        mid[j] += ell / 2.0
        for du, dv in ((p["face_offset"], 0.0), (-p["face_offset"], 0.0),
                       (0.0, p["face_offset"]), (0.0, -p["face_offset"])):
            q = list(mid)
            q[i] += du
            q[j] += dv
            centers.append(q)
            radii.append(p["face_radius"])
            roles.append(ROLE_FACE)
        centers.append(mid)
        radii.append(p["center_radius"])
        roles.append(ROLE_FACE)

    # junction annuli: 4 + 8k extra balls around each attach square
    for square in c.attach_squares():
        for site in _junction_sites(square, k):
            centers.append(list(site))
            radii.append(p["junction_radius"])
            roles.append(ROLE_JUNCTION)

    centers = np.array(centers, dtype=float)
    radii = np.array(radii, dtype=float)
    roles = np.array(roles, dtype=np.int8)

    # refinement sites must stay on the surface lattice plate
    junction = roles == ROLE_JUNCTION
    if junction.any():
        vset = {tuple(v) for v in verts}
        for q in centers[junction]:
            half_axes = [a for a in range(4) if abs((q[a] / ell) % 1.0 - 0.5) < 1e-9]
            if len(half_axes) != 1:
                raise CoverError(f"junction site {q} is not an edge midpoint")
            a = half_axes[0]
            lo = list(q)
            hi = list(q)
            lo[a] -= 0.5 * ell
            hi[a] += 0.5 * ell
            lo = tuple(int(round(x)) for x in lo)
            hi = tuple(int(round(x)) for x in hi)
            if lo not in vset or hi not in vset:
                raise CoverError(
                    f"refinement k={k} places a junction ball at {tuple(q)} whose "
                    "edge is not on the surface (annulus exceeds the plate)"
                )

    host = _host_cubes(c, centers)
    polars = lz.spheres(centers, radii)
    adjacency = _adjacency(centers, radii)
    return BallCover(
        centers=centers,
        radii=radii,
        roles=roles,
        host=host,
        polars=polars,
        adjacency=adjacency,
        refinement=k,
        unit=c.unit,
        vertex_index=vertex_index,
    )


def _host_cubes(c, centers):
    host = np.full(len(centers), -1, dtype=np.int64)
    for idx, cube in enumerate(c.all_cubes):
        inside = np.ones(len(centers), dtype=bool)
        for a in range(4):
            lo, hi = cube.interval(a)
            inside &= (centers[:, a] >= lo) & (centers[:, a] <= hi)
        host[(host == -1) & inside] = idx
    if (host == -1).any():
        raise CoverError("ball center outside every cube closure")
    return host


def _products(centers, radii, i, j):
    """Inversive products of the ball pairs (i, j), from center differences.

    (d^2 - r_i^2 - r_j^2) / (2 r_i r_j) is cos of the exterior angle when the
    balls intersect, > 1 when disjoint, < -1 when nested.  Differencing the
    centers is exact at lattice scale and avoids the cancellation a
    Gram-matrix product suffers at large coordinates.
    """
    diff = centers[i] - centers[j]
    d2 = (diff * diff).sum(axis=1)
    return (d2 - radii[i] * radii[i] - radii[j] * radii[j]) / (
        2.0 * radii[i] * radii[j]
    )


def _grid_join(a, b, side):
    """Yield index arrays (i, j): rows i of a and j of b in equal or neighbouring
    cells of one 4-D grid of the given side, for at most 2^14 rows of a at a
    time; a self-join (b is a) yields each unordered pair of distinct rows once.
    Axes renumber their occupied cells from 1, closing gaps wider than one cell,
    so the key size follows the number of points rather than the extent."""
    both = a if b is a else np.concatenate([a, b])  # a self-join keys its set once
    cell = np.floor(both / side).astype(np.int64)
    for ax in range(4):
        occupied, at = np.unique(cell[:, ax], return_inverse=True)
        gaps = np.minimum(np.diff(occupied, prepend=occupied[0] - 1), 2)
        cell[:, ax] = np.cumsum(gaps)[at]
    dims = [int(d) for d in cell.max(axis=0) + 2]  # a free cell on each side
    if math.prod(dims) >= 2**63:
        raise CoverError("points too sparse for a 64-bit grid key")
    strides = np.array([dims[1] * dims[2] * dims[3], dims[2] * dims[3], dims[3], 1])
    key = cell @ strides
    order_a = np.argsort(key[: len(a)], kind="stable")  # sorted queries search faster
    order_b = np.argsort(key[len(both) - len(b) :], kind="stable")
    query, sorted_key = key[order_a], key[len(both) - len(b) :][order_b]
    # in a self-join the lexicographically non-negative offsets suffice
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=4) if b is not a or o >= (0,) * 4]
    for s in range(0, len(a), 1 << 14):  # slices of a bound the memory
        q = query[s : s + (1 << 14)]
        for shift in np.array(offsets) @ strides:
            lo = np.searchsorted(sorted_key, q + shift, "left")
            count = np.searchsorted(sorted_key, q + shift, "right") - lo
            i = order_a[s + np.repeat(np.arange(len(q)), count)]
            j = order_b[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
            if b is a and shift == 0:  # a pair inside one cell is met from both ends
                i, j = i[i < j], j[i < j]
            yield i, j


def _near_pairs(centers, radii):
    """Every pair i < j with inversive product below 1.15, sorted by (i, j).

    Returns arrays (i, j, product).  The pairs come from a 4-D grid self-join.
    A product < 1.15 forces d^2 < r_i^2 + r_j^2 + 2.3 r_i r_j <= 4.3 r_max^2,
    so with cell side sqrt(4.3) r_max (widened by 1e-9 against rounding) the
    two centers lie in the same or in neighbouring cells: every pair the 3^4
    neighbouring cells miss is provably disjoint.  The design's closest
    disjoint pairs sit above 1.3, so the list holds all intersecting, tangent
    and nested pairs and no designed disjoint one.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    side = math.sqrt(4.3) * float(radii.max()) * (1.0 + 1e-9)
    parts = []
    for i, j in _grid_join(centers, centers, side):
        i, j = np.minimum(i, j), np.maximum(i, j)
        prod = _products(centers, radii, i, j)
        near = prod < 1.15
        parts.append((i[near], j[near], prod[near]))
    i, j, prod = (np.concatenate(col) for col in zip(*parts))
    by_pair = np.lexsort((j, i))
    return i[by_pair], j[by_pair], prod[by_pair]


def _adjacency(centers, radii):
    """All intersecting pairs as (n, 3) int64 rows (i, j, m), sorted by (i, j);
    m is the Coxeter order of the legal cosine nearest the pair's product."""
    i, j, prod = _near_pairs(centers, radii)
    hit = prod < 1.0
    nearest = np.abs(prod[hit, None] - _COSINES).argmin(axis=1)
    return np.stack([i[hit], j[hit], _ORDERS[nearest]], axis=1)


# ---------------------------------------------------------------------------
# Validation


def pairwise_sweep(centers, radii, tol=ANGLE_TOL):
    """Certify every pair of balls: disjoint or at an exact legal angle.

    Pairs with inversive product >= 1.15 are disjoint by a wide margin; the
    rest come from the grid search of _near_pairs.  Returns (max_residual,
    n_intersecting, violations): residual is the distance of an intersecting
    pair's product from {0, +-1/2}; violations lists up to 50 offending
    (i, j, product) triples, including tangent or nested pairs.
    """
    i, j, prod = _near_pairs(centers, radii)
    res = np.abs(prod[:, None] - _COSINES).min(axis=1)
    intersecting = np.abs(prod) < 1.0 - tol
    disjoint = prod >= 1.0 + tol
    bad = np.nonzero((intersecting & (res > tol)) | ~(intersecting | disjoint))[0]
    violations = [(int(i[b]), int(j[b]), float(prod[b])) for b in bad[:50]]
    max_residual = float(res[intersecting].max(initial=0.0))
    return max_residual, int(intersecting.sum()), violations


def coverage_check(cover, surf, n_samples=10_000, seed=0):
    """Monte-Carlo coverage of every surface face by the open cover balls.

    A ball meets a face plane in the open disk of centre (u, v), in face
    coordinates, and squared radius r^2 - h^2, h being the centre's distance
    from the plane.  A face's candidates are the balls whose disk meets its
    closed square, from one grid join of the face middles against the ball
    centres; the cell side r_max + ell/sqrt(2) bounds a centre's distance from
    the middle of any square its ball meets, so the lists are complete.  The
    float32 samples are tested in float64, in the face plane, against every
    candidate disk, so no recheck is needed.  Returns (fraction, misses) with misses as (face index,
    point) pairs, the point being the face's float32 corner plus the sample.
    """
    ell = float(cover.unit)
    n_faces = len(surf.faces)
    corner = np.array([f[0] for f in surf.faces], dtype=float)  # (F, 4)
    plane = np.array([f[1] for f in surf.faces], dtype=np.int64)  # (F, 2) in-plane axes
    off = np.ones_like(corner)  # 1 on the two axes normal to the face plane
    off[np.arange(n_faces)[:, None], plane] = 0.0
    mids = corner + (1.0 - off) * (ell / 2.0)

    side = (float(cover.radii.max()) + ell / math.sqrt(2.0)) * (1.0 + 1e-9)
    parts = []
    for f, b in _grid_join(mids, cover.centers, side):
        d = cover.centers[b] - corner[f]
        uv = np.take_along_axis(d, plane[f], axis=1)
        reach2 = cover.radii[b] ** 2 - (d * d * off[f]).sum(axis=1)
        gap = np.maximum(np.maximum(-uv, uv - ell), 0.0)  # per-axis distance to the square
        meets = (gap * gap).sum(axis=1) < reach2
        parts.append((f[meets], uv[meets], reach2[meets]))
    face, cuv, reach2 = (np.concatenate(col) for col in zip(*parts))
    by_face = np.argsort(face, kind="stable")
    face, cuv, reach2 = face[by_face], cuv[by_face], reach2[by_face]

    rng = np.random.default_rng(seed)
    block = max(1, 2**16 // n_samples)  # faces per block: ~2^16 samples
    misses = []
    for lo in range(0, n_faces, block):
        hi = min(lo + block, n_faces)
        uv = rng.random((hi - lo, n_samples, 2), dtype=np.float32) * ell
        a, z = np.searchsorted(face, (lo, hi))
        f = face[a:z] - lo
        du = uv[f, :, 0] - cuv[a:z, 0, None]  # (pairs, samples), float64
        dv = uv[f, :, 1] - cuv[a:z, 1, None]
        inside = du * du + dv * dv < reach2[a:z, None]
        ok = np.zeros((hi - lo, n_samples), dtype=bool)
        hit, first = np.unique(f, return_index=True)
        if len(hit):
            ok[hit] = np.logical_or.reduceat(inside, first, axis=0)
        fi, si = np.nonzero(~ok)
        pts = corner[lo + fi].astype(np.float32)
        for col in (0, 1):
            pts[np.arange(len(fi)), plane[lo + fi, col]] += uv[fi, si, col]
        misses.extend((lo + int(m), tuple(pt)) for m, pt in zip(fi, pts.astype(float)))
    total = n_faces * n_samples
    return (total - len(misses)) / total, misses


def validate_cover(cover, surf, n_samples=2000, seed=0):
    """Full validation report: closed forms, pairwise legality, coverage."""
    p = closed_form_parameters(float(cover.unit))
    form_residuals = {
        "vertex_radius": float(
            np.abs(cover.radii[cover.roles == ROLE_VERTEX] - p["vertex_radius"]).max()
        ),
        "face_and_center_radius": float(
            np.abs(
                np.sort(np.unique(cover.radii[cover.roles == ROLE_FACE]))
                - np.sort([p["center_radius"], p["face_radius"]])
            ).max()
        ),
    }
    if (cover.roles == ROLE_JUNCTION).any():
        form_residuals["junction_radius"] = float(
            np.abs(cover.radii[cover.roles == ROLE_JUNCTION] - p["junction_radius"]).max()
        )

    max_residual, n_intersecting, violations = pairwise_sweep(
        cover.centers, cover.radii
    )
    fraction, misses = coverage_check(cover, surf, n_samples=n_samples, seed=seed)

    # each adjacency row realized exactly: its product at a cosine of its order m
    adj = cover.adjacency
    cos = _products(cover.centers, cover.radii, adj[:, 0], adj[:, 1])
    own = np.where(adj[:, 2:] == _ORDERS, np.abs(cos[:, None] - _COSINES), np.inf)
    adj_residual = float(own.min(axis=1).max(initial=0.0))

    # every ball orthogonal to the surface: center on its face's 2-plane
    # (true by construction: all centers have at most two non-lattice coords,
    # each lying inside a face; certified here by checking unit polars)
    polar_norm_residual = float(
        np.abs(lz.q(cover.polars, cover.polars) - 1.0).max()
    )

    ok = (
        not violations
        and max_residual <= ANGLE_TOL
        and adj_residual <= ANGLE_TOL
        and fraction == 1.0
        and not misses
    )
    return {
        "ok": bool(ok),
        "n_balls": len(cover),
        "role_counts": cover.role_counts(),
        "closed_form_residuals": form_residuals,
        "max_angle_residual": max_residual,
        "adjacency_residual": adj_residual,
        "n_intersecting_pairs": n_intersecting,
        "n_adjacency_pairs": len(cover.adjacency),
        "illegal_pairs": violations,
        "coverage_fraction": fraction,
        "coverage_misses": misses[:20],
        "n_samples_per_face": n_samples,
        "polar_norm_residual": polar_norm_residual,
        "tolerance": ANGLE_TOL,
    }
