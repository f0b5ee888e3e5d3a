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
rather than trusted: one search lists every pair whose inversive product is
below 1.15, and the legality sweep and the adjacency are both read from that
one list.  The search groups the balls by radius octave and runs one grid
join per pair of groups, at cell side sqrt(R_a^2 + R_b^2 + 2.3 R_a R_b) for
the groups' largest radii R_a and R_b, so the pairs it skips are provably
disjoint and the small balls are not binned at the vertex balls' scale.
The adjacency is one (n, 3) int array of rows (i, j, m), which is also the
reflection group's relation array.  Coverage is a query on the same grid
join, again one per radius octave: it lists every ball whose trace disk
meets a face's square, and the Monte-Carlo samples are tested against those
disks in float64, in the face plane, with no recheck.  Its candidate filter
and its sample blocks run on _thread_map, which the relation suite of
wildknot.groups shares.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import lorentz as lz
from .complexes import boxes, knot_surface, lattice_index

ROLE_VERTEX = 0
ROLE_FACE = 1
ROLE_JUNCTION = 2
ROLE_NAMES = {ROLE_VERTEX: "vertex", ROLE_FACE: "face", ROLE_JUNCTION: "junction"}

# lz.ORDER_COSINES flattened: each legal exterior cosine and its Coxeter order
_COSINES = np.array([c for cs in lz.ORDER_COSINES.values() for c in cs])
_ORDERS = np.array([m for m, cs in lz.ORDER_COSINES.items() for _ in cs], dtype=np.int64)
ANGLE_TOL = 1e-9

# Threads of _thread_map: the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class CoverError(ValueError):
    pass


def _thread_map(kernel, items):
    """Yield kernel(*args) for each argument tuple of `items`, in input order.

    The kernels run on _WORKERS threads: the calling thread runs one item
    while a pool that this call opens and closes runs the next
    _WORKERS - 1, so at most _WORKERS items are drawn and not yet yielded;
    with one worker there is no pool.  `items` is drawn in the calling
    thread, in order.  A kernel's exception reaches the caller unchanged, in
    input order, and no pool thread outlives the call, however it ends.  The
    kernels are numpy code that releases the GIL, and must reach no public
    wildknot function: the benchmark's call tracing keeps one span stack for
    the process.
    """
    items = iter(items)
    if _WORKERS == 1:
        for args in items:
            yield kernel(*args)
        return
    with ThreadPoolExecutor(_WORKERS - 1) as pool:
        futures = []
        try:
            for args in items:
                futures = [pool.submit(kernel, *more)
                           for more in itertools.islice(items, _WORKERS - 1)]
                yield kernel(*args)
                for future in futures:
                    yield future.result()
        finally:
            for future in futures:
                future.cancel()


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
    vertices: np.ndarray  # (V, 4) int64 sorted lattice points; row v is vertex ball v

    def __len__(self):
        return len(self.radii)

    def role_counts(self):
        return {
            name: int((self.roles == code).sum()) for code, name in ROLE_NAMES.items()
        }

    def vertex_balls(self, points):
        """The vertex ball at each lattice point of `points` (..., 4), -1
        where there is none."""
        return lattice_index(self.vertices, points)


# Junction sites of refinement level j around an attach square, in units of
# the edge along its plane (u, v): (s_u j, s_v / 2) and (s_u / 2, s_v j) for
# each sign pair.
_SIGNS = np.array([(-1, -1), (-1, 1), (1, -1), (1, 1)])


def _junction_sites(square_box, k):
    """Edge-midpoint centers for the 4+8k annulus balls of one attach square."""
    box = np.array(square_box, dtype=float)
    axes = np.flatnonzero(box[:, 1] > box[:, 0])
    if len(axes) != 2:
        raise CoverError("attach square is not two-dimensional")
    ell = box[axes[0], 1] - box[axes[0], 0]
    half = ell / 2.0
    reach = np.full((k, 2, 2), half)
    reach[:, 0, 0] = reach[:, 1, 1] = ell * np.arange(1, k + 1)
    uv = np.concatenate([[(0, -half), (0, half), (-half, 0), (half, 0)],
                         (_SIGNS[:, None] * reach[:, None]).reshape(-1, 2)])
    sites = np.repeat(box[None, :, 0], len(uv), axis=0)
    sites[:, axes] = box[axes, 0] + half + uv
    return sites


def build_cover(c, k=0, surf=None):
    """Deterministic ball family for the complex's knot surface `surf`
    (computed here when the caller has not built it).

    The vertex balls come first, at the surface's sorted lattice vertices;
    then each face's five balls, face by face, at the face-ball offsets
    (+-A, 0), (0, +-A) from its middle and the centre ball at the middle;
    then each attach square's junction balls."""
    if k < 0:
        raise CoverError("refinement k must be >= 0")
    if surf is None:
        surf = knot_surface(c)
    if surf.issues:
        raise CoverError("complex has an invalid surface: " + "; ".join(surf.issues))
    ell = float(c.unit)
    p = closed_form_parameters(ell)

    plane = np.eye(4)[surf.faces[:, 4:]]  # (F, 2, 4): each face's unit vectors i, j
    mids = surf.faces[:, :4] + (ell / 2.0) * plane.sum(axis=1)
    a = p["face_offset"]
    offsets = np.array([(a, 0.0), (-a, 0.0), (0.0, a), (0.0, -a), (0.0, 0.0)])
    face_sites = (mids[:, None, :] + offsets @ plane).reshape(-1, 4)
    junction = [_junction_sites(square, k) for square in c.attach_squares()]
    junction = np.concatenate(junction) if junction else np.zeros((0, 4))

    # refinement sites must stay on the surface lattice plate: each is the
    # midpoint of a surface edge, whose endpoints lie half an edge away
    # along one axis
    ends = junction[:, None, None] + ell * np.eye(4)[:, None] * np.array([-0.5, 0.5])[:, None]
    on_plate = (lattice_index(surf.vertices, ends) >= 0).all(axis=2).any(axis=1)
    if not on_plate.all():
        raise CoverError(
            f"refinement k={k} places a junction ball at {tuple(junction[~on_plate][0])} "
            "whose edge is not on the surface (annulus exceeds the plate)"
        )

    n_v, n_f = len(surf.vertices), len(surf.faces)
    centers = np.concatenate([surf.vertices.astype(float), face_sites, junction])
    radii = np.concatenate([
        np.full(n_v, p["vertex_radius"]),
        np.tile([p["face_radius"]] * 4 + [p["center_radius"]], n_f),
        np.full(len(junction), p["junction_radius"]),
    ])
    roles = np.repeat(np.array([ROLE_VERTEX, ROLE_FACE, ROLE_JUNCTION], dtype=np.int8),
                      [n_v, 5 * n_f, len(junction)])
    adjacency = _adjacency(centers, radii)  # first: it rejects a bad ball by name
    return BallCover(
        centers=centers,
        radii=radii,
        roles=roles,
        host=_host_cubes(c, centers),
        polars=lz.spheres(centers, radii),
        adjacency=adjacency,
        refinement=k,
        unit=c.unit,
        vertices=surf.vertices,
    )


def _host_cubes(c, centers):
    """Lowest c.all_cubes index of a cube whose closure holds each centre.

    The big cubes are tested by interval.  The tube's cubes, all of edge ell
    on one lattice of step ell, are found by one packed-key lookup: a closed
    tube cube with omitted axis o holds x only if x is on the lattice along o
    and the floor cell of x is the cube's own cell, or its next cell along
    spanned axes where x is on the lattice.  Each cube is listed under those 8
    cells, each centre is looked up under its floor cell once per axis o, and
    the matches are confirmed by interval.
    """
    box = boxes(c.all_cubes)
    n_cubes = len(box)
    first = 1 if len(c.big) == 2 else len(c.big)  # all_cubes index of tube[0]
    tube = np.arange(first, first + len(c.tube))
    big = np.setdiff1d(np.arange(n_cubes), tube)
    inside = ((box[big, None, :, 0] <= centers) & (centers <= box[big, None, :, 1])).all(axis=2)
    host = np.where(inside, big[:, None], n_cubes).min(axis=0, initial=n_cubes)
    if c.tube:
        ell = c.unit
        lo, hi = box[tube, :, 0], box[tube, :, 1]
        omit = np.argmin(hi - lo, axis=1)  # the axis without extent
        cell, rem = np.divmod(lo - lo[0], ell)
        if rem.any() or ((hi - lo).max(axis=1) != ell).any():
            raise CoverError("tube cubes are not cells of one lattice of the tube unit")
        # tube cube t is listed under (omit[t], cell[t] + s) for the 8 shifts
        # s in {0, 1}^4 with s[omit[t]] = 0
        shift = np.array(list(itertools.product((0, 1), repeat=4)))
        t, s = np.nonzero(shift.T[omit] == 0)
        base = cell.min(axis=0)
        span = cell.max(axis=0) - base + 2
        dims = (4, *span.tolist())
        keys = np.ravel_multi_index((omit[t], *(cell[t] + shift[s] - base).T), dims)
        order = np.argsort(keys, kind="stable")
        keys, t = keys[order], t[order]
        # centre i is looked up under (o, its floor cell) for each axis o
        # along which it is on the lattice
        rel = (centers - lo[0]) / ell
        q = np.floor(rel)
        inbox = ((q >= base) & (q < base + span)).all(axis=1)
        i, o = np.nonzero((q == rel) & inbox[:, None])
        query = np.ravel_multi_index((o, *(q[i] - base).astype(np.int64).T), dims)
        at = np.searchsorted(keys, query, "left")
        count = np.searchsorted(keys, query, "right") - at
        i = np.repeat(i, count)
        t = t[np.repeat(at - np.cumsum(count) + count, count) + np.arange(count.sum())]
        held = ((lo[t] <= centers[i]) & (centers[i] <= hi[t])).all(axis=1)
        np.minimum.at(host, i[held], first + t[held])
    if (host == n_cubes).any():
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


def _classify(prod):
    """(residual, nearest, order) of inversive products: the distance to the
    nearest legal cosine, that cosine's Coxeter order, and the pair's order as
    pair_orders gives it."""
    dist = np.abs(prod[:, None] - _COSINES)
    residual = dist.min(axis=1)
    nearest = _ORDERS[dist.argmin(axis=1)]
    order = np.where(residual <= ANGLE_TOL, nearest, np.where(prod >= 1.0 + ANGLE_TOL, 0, -1))
    return residual, nearest, order


def pair_orders(centers, radii, i, j):
    """(product, order) of the ball pairs (i, j): order 2 or 3 at a legal
    exterior cosine within ANGLE_TOL, 0 if disjoint (product >= 1 + ANGLE_TOL),
    -1 otherwise (an illegal angle, a tangent or a nested pair)."""
    prod = _products(centers, radii, i, j)
    return prod, _classify(prod)[2]


# Rows of a per lookup and pairs per yielded slice of _grid_join: together
# they bound its memory whatever the density of the cells (the slices end at
# a row's run, so one may exceed _JOIN_PAIRS by the rows of three cells).
_JOIN_ROWS = 1 << 12
_JOIN_PAIRS = 1 << 14


def _grid_join(a, b, side):
    """Yield index arrays (i, j): rows i of a and j of b in equal or neighbouring
    cells of one 4-D grid of the given side, about _JOIN_PAIRS pairs at a
    time; a self-join (b is a) yields each unordered pair of distinct rows
    once, as (i, j) with i < j inside a cell and i in the lower-keyed cell
    across cells.  Axes renumber their occupied cells from 1, closing gaps
    wider than one cell, so the key size follows the number of points rather
    than the extent.

    Neighbours are looked up per occupied cell, as runs: the three neighbours
    of a cell along the last axis have consecutive keys, so each offset on the
    first three axes meets one run of b's rows sorted by key.  The rows of a,
    sorted by key, are taken _JOIN_ROWS at a time; each distinct cell among
    them finds each of its 27 runs (14 in a self-join) by one binary search
    among b's occupied cells, and each of its rows meets every row of them.
    """
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
    order_a = np.argsort(key[: len(a)], kind="stable")
    order_b = order_a if b is a else np.argsort(key[len(a) :], kind="stable")
    key_a, key_b = key[: len(a)][order_a], key[len(both) - len(b) :][order_b]
    # a self-join needs only the lexicographically non-negative offsets; at
    # offset 0 a row meets the rest of its own cell and the whole next cell
    heads = [o for o in itertools.product((-1, 0, 1), repeat=3) if b is not a or o >= (0,) * 3]
    shifts = np.array(heads) @ strides[:3]
    # b's occupied cells and the first sorted row of each, then 3 sentinels
    first = np.flatnonzero(np.diff(key_b, prepend=-1))
    cells_b = np.append(key_b[first], np.full(3, np.iinfo(np.int64).max))
    first = np.append(first, np.full(3, len(key_b)))
    for s in range(0, len(a), _JOIN_ROWS):
        keys = key_a[s : s + _JOIN_ROWS]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # this slice's cells
        mid = shifts[:, None] + keys[starts]  # offset-major: each row ascends
        u = np.searchsorted(cells_b, mid - 1)  # the run's first cell, if any
        top = mid + 1  # and at most three cells up to key mid + 1
        v = u + (cells_b[u] <= top) + (cells_b[u + 1] <= top) + (cells_b[u + 2] <= top)
        lo, hi = first[u], first[v]
        o, c = np.nonzero(hi > lo)
        # every row of slice cell c meets run (lo, hi): one item per row
        rows = np.diff(np.append(starts, len(keys)))[c]
        k = np.repeat(np.arange(len(c)), rows)
        p = s + np.repeat(starts[c] - np.cumsum(rows) + rows, rows) + np.arange(len(k))
        lo, hi = lo[o, c][k], hi[o, c][k]
        if b is a:
            lo = np.where(shifts[o][k] == 0, p + 1, lo)
        count = hi - lo
        cuts = np.searchsorted(np.cumsum(count), np.arange(_JOIN_PAIRS, count.sum(), _JOIN_PAIRS))
        for part in np.split(np.arange(len(count)), cuts):
            n = count[part]
            j = np.repeat(lo[part] - np.cumsum(n) + n, n) + np.arange(n.sum())
            yield order_a[np.repeat(p[part], n)], order_b[j]


def _finite_balls(centers, radii):
    """(centers, radii) as float arrays; CoverError names the first ball
    without a finite centre and a finite positive radius."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    bad = ~(np.isfinite(centers).all(axis=1) & np.isfinite(radii) & (radii > 0))
    if bad.any():
        b = int(np.argmax(bad))
        raise CoverError(
            f"ball {b} (centre {tuple(float(x) for x in centers[b])}, radius {float(radii[b])}) "
            "needs a finite centre and a finite positive radius"
        )
    return centers, radii


def _radius_octaves(radii):
    """(groups, top): the ball indices of each radius octave,
    round(log2(r_max / r)), from the largest radii down, and each group's
    largest radius."""
    octave = np.rint(np.log2(radii.max()) - np.log2(radii))
    groups = [np.flatnonzero(octave == g) for g in np.unique(octave)]
    return groups, [float(radii[g].max()) for g in groups]


def _near_pairs(centers, radii):
    """Every pair i < j with inversive product below 1.15, sorted by (i, j).

    Returns arrays (i, j, product).  The balls are grouped by radius octave,
    round(log2(r_max / r)), and each pair of groups (a, b) gets its own 4-D
    grid join (a self-join when a = b).  A product < 1.15 forces
    d^2 < r_i^2 + r_j^2 + 2.3 r_i r_j <= R_a^2 + R_b^2 + 2.3 R_a R_b, R being
    a group's largest radius, so with that bound's square root as the cell
    side (widened by 1e-9 against rounding) the two centers lie in the same
    or in neighbouring cells of their group pair's grid: every pair the 3^4
    neighbouring cells miss is provably disjoint.  The design's closest
    disjoint pairs sit above 1.3, so the list holds all intersecting, tangent
    and nested pairs and no designed disjoint one.  A ball with a non-finite
    centre or radius, or a radius <= 0, raises CoverError.
    """
    centers, radii = _finite_balls(centers, radii)
    if len(radii) < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    groups, top = _radius_octaves(radii)
    parts = []
    for x, y in itertools.combinations_with_replacement(range(len(groups)), 2):
        side = math.sqrt(top[x] ** 2 + top[y] ** 2 + 2.3 * top[x] * top[y]) * (1.0 + 1e-9)
        ga, gb = sorted((groups[x], groups[y]), key=len)  # the smaller group queries
        pa = centers[ga]
        for i, j in _grid_join(pa, pa if x == y else centers[gb], side):
            i, j = ga[i], gb[j]
            i, j = np.minimum(i, j), np.maximum(i, j)
            prod = _products(centers, radii, i, j)
            near = prod < 1.15
            parts.append((i[near], j[near], prod[near]))
    i, j, prod = (np.concatenate(col) for col in zip(*parts))
    by_pair = np.argsort(i * len(radii) + j)  # the pairs are distinct
    return i[by_pair], j[by_pair], prod[by_pair]


def _adjacency(centers, radii):
    """All intersecting pairs as (n, 3) int64 rows (i, j, m), sorted by (i, j);
    m is the order of the legal cosine nearest the pair's product, even for an
    illegal pair, so that validate_cover reports its residual from that order."""
    i, j, prod = _near_pairs(centers, radii)
    hit = prod < 1.0
    return np.stack([i[hit], j[hit], _classify(prod[hit])[1]], axis=1)


# ---------------------------------------------------------------------------
# Validation


def pairwise_sweep(centers, radii):
    """Certify every pair of balls: disjoint or at an exact legal angle.

    Pairs with inversive product >= 1.15 are disjoint by a wide margin; the
    rest come from the grid search of _near_pairs.  Returns (max_residual,
    n_intersecting, violations): residual is the distance of an intersecting
    pair's product from {0, +-1/2}; violations lists up to 50 pairs of
    pair_orders' order -1 as (i, j, product) triples.
    """
    i, j, prod = _near_pairs(centers, radii)
    res, _nearest, order = _classify(prod)
    intersecting = np.abs(prod) < 1.0 - ANGLE_TOL
    bad = np.nonzero(order < 0)[0]
    violations = [(int(i[b]), int(j[b]), float(prod[b])) for b in bad[:50]]
    max_residual = float(res[intersecting].max(initial=0.0))
    return max_residual, int(intersecting.sum()), violations


def _trace_disks(f, b, centers, radii, corner, plane, off, ell):
    """Candidate filter of coverage_check: of the face-ball candidates (f, b),
    those whose ball's open trace disk in face f's plane meets its closed
    square, as (face, (u, v) of the disk centre, squared disk radius)."""
    d = centers[b]
    d -= corner[f]
    uv = np.take_along_axis(d, plane[f], axis=1)
    d *= d
    d *= off[f]
    reach2 = radii[b] ** 2 - d.sum(axis=1)
    gap = np.maximum(-uv, uv - ell)
    np.maximum(gap, 0.0, out=gap)  # per-axis distance to the square
    gap *= gap
    meets = gap.sum(axis=1) < reach2
    return f[meets], uv[meets], reach2[meets]


def _uncovered(lo, uv, ell, corner, plane, table_u, table_v, table_r2, width):
    """Sample kernel of coverage_check for the block of faces from `lo`: their
    float32 samples uv (faces, n, 2), scaled by ell in place and widened to
    float64, are tested rank by rank against their rows of the disk table, up
    to rank `width`.  Returns (faces, points) of the uncovered samples, in
    face then sample order, each point being the face's float32 corner plus
    the sample."""
    rows = slice(lo, lo + len(uv))
    uv *= ell
    u, v = uv[:, :, 0].astype(float), uv[:, :, 1].astype(float)
    du, dv = np.empty_like(u), np.empty_like(u)
    ok = np.zeros(u.shape, dtype=bool)
    inside = np.empty(u.shape, dtype=bool)
    for r in range(width):
        np.subtract(u, table_u[rows, r, None], out=du)
        np.subtract(v, table_v[rows, r, None], out=dv)
        np.multiply(du, du, out=du)
        np.multiply(dv, dv, out=dv)
        np.add(du, dv, out=du)
        ok |= np.less(du, table_r2[rows, r, None], out=inside)
    fi, si = np.nonzero(~ok)
    pts = corner[lo + fi].astype(np.float32)
    for col in (0, 1):
        pts[np.arange(len(fi)), plane[lo + fi, col]] += uv[fi, si, col]
    return lo + fi, pts


def coverage_check(cover, surf, n_samples=10_000, seed=0):
    """Monte-Carlo coverage of every surface face by the open cover balls.

    A ball meets a face plane in the open disk of centre (u, v), in face
    coordinates, and squared radius r^2 - h^2, h being the centre's distance
    from the plane.  A face's candidates are the balls whose disk meets its
    closed square.  They come from one grid join of the face middles against
    the ball centres per radius octave g, at cell side R_g + ell/sqrt(2)
    (widened by 1e-9 against rounding), R_g being the octave's largest
    radius.  The lists are complete: a ball of octave g that meets the square
    holds a point of it within r <= R_g of its centre, and every point of the
    square lies within ell/sqrt(2) of its middle, so centre and middle differ
    by less than the cell side on every axis and lie in the same or in
    neighbouring cells.  The candidates go into one face-major table of
    (F, width) rows u, v and reach2 = r^2 - h^2, width being the largest
    candidate count; padding slots have reach2 = -inf, so they contain no
    point.  The float32 samples are drawn from one generator in blocks of
    about 2^16 samples, in face order, and each block is tested in float64,
    in the face plane, against its faces' table rows (_uncovered), with no
    recheck.  The candidate filter of each join slice and the blocks' tests
    run on _thread_map's threads; no result depends on the worker count.
    Returns (fraction, misses) with misses as (face index, point) pairs in
    face then sample order, the point being the face's float32 corner plus
    the sample.  A ball without a finite centre and a finite positive radius
    raises CoverError.
    """
    ell = float(cover.unit)
    centers, radii = _finite_balls(cover.centers, cover.radii)
    n_faces = len(surf.faces)
    corner = surf.faces[:, :4].astype(float)
    plane = surf.faces[:, 4:]  # (F, 2) in-plane axes
    off = np.ones_like(corner)  # 1 on the two axes normal to the face plane
    off[np.arange(n_faces)[:, None], plane] = 0.0
    mids = corner + (1.0 - off) * (ell / 2.0)

    def candidates():
        for g, top in zip(*_radius_octaves(radii)):
            side = (top + ell / math.sqrt(2.0)) * (1.0 + 1e-9)
            for f, b in _grid_join(mids, centers[g], side):
                yield f, g[b], centers, radii, corner, plane, off, ell

    parts = list(_thread_map(_trace_disks, candidates()))
    face, cuv, reach2 = (np.concatenate(col) for col in zip(*parts))
    by_face = np.argsort(face, kind="stable")
    face, cuv, reach2 = face[by_face], cuv[by_face], reach2[by_face]
    count = np.bincount(face, minlength=n_faces)
    rank = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    width = int(count.max(initial=0))
    table_u, table_v = np.zeros((2, n_faces, width))
    table_r2 = np.full((n_faces, width), -np.inf)  # padding: no point inside
    table_u[face, rank], table_v[face, rank] = cuv.T
    table_r2[face, rank] = reach2

    rng = np.random.default_rng(seed)
    block = max(1, 2**16 // n_samples)  # faces per block: ~2^16 samples

    def blocks():
        for lo in range(0, n_faces, block):
            hi = min(lo + block, n_faces)
            uv = rng.random((hi - lo, n_samples, 2), dtype=np.float32)
            width = int(count[lo:hi].max())  # ranks past it are padding
            yield lo, uv, ell, corner, plane, table_u, table_v, table_r2, width

    misses = []
    for fi, pts in _thread_map(_uncovered, blocks()):
        misses.extend((int(m), tuple(pt)) for m, pt in zip(fi, pts.astype(float)))
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
