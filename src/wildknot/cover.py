"""Covering family of round 4-balls for the knot surface of a cube complex.

The cover is built at a single uniform scale, the tube unit, on the
rasterized surface, the one knot_surface(c) keeps on the complex:

* a vertex ball of radius ell/sqrt(3) at every surface lattice vertex
  (adjacent vertices meet at exterior angle pi/3, diagonal pairs are
  disjoint);
* on every surface square of side ell, four face balls at in-plane offsets
  (+-A, 0), (0, +-A) from the face center with A = ell(3-sqrt(7))/2 and
  radius A*sqrt(2/3) -- each orthogonal to its two nearest vertex balls and
  meeting its ring neighbors at pi/3 -- plus a center ball of radius
  A/sqrt(3) orthogonal to the four face balls and disjoint from everything
  else;
* at each tube attachment square, 4 junction balls of radius
  ell/(2*sqrt(3)) at its edges' midpoints; each lies inside the vertex balls
  v, v' of its edge and reflects as R_v R_v' R_v (ROADMAP item 19).

Every edge-midpoint ball is automatically legal against the whole family:
it meets the two vertex balls of its edge at exterior cosine -1/2 (order 3),
is exactly orthogonal to the nearest face balls (the same quadratic
A^2 - 3 A ell + ell^2/2 = 0 that drives the face pattern), and is disjoint
from all other balls.  All pairwise claims are certified rather than
trusted: one search lists every pair whose inversive product is below 1.15,
and pairwise_sweep reads from that one list both the legality verdict and
the adjacency.  A cover stores no adjacency: it runs that sweep on its own
balls on first use and keeps the result, so the relations it hands to the
group are the pairs that validate_cover certifies, and a cover with other
balls gets a search of its own.  The search groups the balls by radius
octave and runs one grid join per pair of groups, at cell side
sqrt(R_a^2 + R_b^2 + 2.3 R_a R_b) for the groups' largest radii R_a and
R_b, so the pairs it skips are provably disjoint and the small balls are
not binned at the vertex balls' scale; a join between two groups keys
only the rows of the larger that lie near a cell of the smaller, and
searches a cell's neighbours only in the columns (cells on the first three
axes) that hold a row.  The adjacency is one (n, 3) int array of rows
(i, j, m), which is also the reflection group's relation array.  Coverage takes
each face's near disks from the construction, with no search, face by face,
so their table needs no sort: its four corner vertex balls (surf.corners
read in one lattice lookup of the surface's vertices) and the five balls
build_cover labels with it (BallCover.face_balls).  Its complete search, a
grid join per radius octave queried from its smaller side, lists every ball
whose trace disk meets a face's square, and runs only for the faces that are
drawn.  The faces whose near disks are bit for bit the same share one
certificate that their disks hold the whole face square; they are grouped by
_first_rows, exactly and without a sort (hash buckets, every row compared
with its bucket's first), which is also how the relation suite groups its
frames and the word tables their Tits matrices' column sums and their roots.
Each Monte-Carlo sample is a
float32 pair of the seeded generator, tested against its face's disks, in
float64, in the face plane, with no recheck.  A block of faces whose
templates are all whole draws no sample: the generator is advanced past
it, which leaves the stream where drawing would, so the result is the same
bits.  A drawn block's samples are tested against its faces' complete
disks.  A lattice cover's templates are all whole, so its coverage draws no
sample and runs no complete search.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import lorentz as lz
from .complexes import _fold, boxes, knot_surface, lattice_index

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
    """The balls of a cover; nothing derived from them is a field.  `sweep`
    is pairwise_sweep of the cover's own centres and radii, run on first use
    and kept, and `adjacency` is its rows, so a cover made by
    dataclasses.replace gets the adjacency of its own balls.

    `face` labels each ball with the surface face build_cover put it on: f
    for each of face f's five balls, -1 for the vertex and junction balls.
    A cover made with another number of balls passes labels of its own.
    The labels, like surf.corners, only pick the disks coverage_check
    certifies a face's template from (face_balls), never a result."""

    centers: np.ndarray  # (N, 4)
    radii: np.ndarray  # (N,)
    roles: np.ndarray  # (N,) ints, see ROLE_*
    face: np.ndarray  # (N,) ints: the face whose five balls hold the ball, or -1
    host: np.ndarray  # (N,) index into complex.all_cubes
    unit: int
    vertices: np.ndarray  # (V, 4) int64 sorted lattice points; row v is vertex ball v

    def __len__(self):
        return len(self.radii)

    @functools.cached_property
    def sweep(self):
        """(max_residual, n_intersecting, violations, adjacency): see
        pairwise_sweep."""
        return pairwise_sweep(self.centers, self.radii)

    @property
    def adjacency(self):
        """(n, 3) int64 rows (i, j, order m) of the pairs with inversive
        product below 1, sorted by (i, j): the group's relations."""
        return self.sweep[3]

    def role_counts(self):
        return {
            name: int((self.roles == code).sum()) for code, name in ROLE_NAMES.items()
        }

    def vertex_balls(self, points):
        """The vertex ball at each lattice point of `points` (..., 4), -1
        where there is none."""
        return lattice_index(self.vertices, points)

    def face_balls(self, surf):
        """(f, b): the construction balls of each face of surf, as pairs of
        face and ball indices, face by face: its four corner vertex balls,
        surf.corners read in one vertex_balls lookup of surf.vertices (a
        corner without one adds none), then the balls that `face` labels
        with it, in row order.  A label that names no face is ignored."""
        n_faces = len(surf.faces)
        vertex = self.vertex_balls(surf.vertices)[surf.corners].ravel()
        held = np.flatnonzero(vertex >= 0)
        labelled = np.flatnonzero((self.face >= 0) & (self.face < n_faces))
        f = np.concatenate([held // 4, self.face[labelled]])
        order = np.argsort(f, kind="stable")
        return f[order], np.concatenate([vertex[held], labelled])[order]


def _junction_sites(square_box):
    """The 4 junction ball centres of one attach square: its edges' midpoints."""
    box = np.array(square_box, dtype=float)
    axes = np.flatnonzero(box[:, 1] > box[:, 0])
    if len(axes) != 2:
        raise CoverError("attach square is not two-dimensional")
    half = (box[axes[0], 1] - box[axes[0], 0]) / 2.0
    sites = np.repeat(box[None, :, 0], 4, axis=0)
    sites[:, axes] = box[axes, 0] + half + np.array([(0, -half), (0, half), (-half, 0), (half, 0)])
    return sites


def build_cover(c, k=0):
    """Deterministic ball family for the complex's knot surface, the one
    knot_surface(c) keeps on c.

    The vertex balls come first, at the surface's sorted lattice vertices;
    then each face's five balls, face by face, at the face-ball offsets
    (+-A, 0), (0, +-A) from its middle and the centre ball at the middle;
    then each attach square's 4 junction balls, on surface edges: its
    corners are corners of the tube end cube's side faces.  k = 0 is the one
    junction level, kept as a keyword for perfbench (ROADMAP item 23)."""
    if k != 0:
        raise CoverError(f"k={k}: the junction balls have one level, k=0 (ROADMAP item 19)")
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
    junction = [_junction_sites(square) for square in c.attach_squares()]
    junction = np.concatenate(junction) if junction else np.zeros((0, 4))

    n_v, n_f = len(surf.vertices), len(surf.faces)
    centers = np.concatenate([surf.vertices.astype(float), face_sites, junction])
    radii = np.concatenate([
        np.full(n_v, p["vertex_radius"]),
        np.tile([p["face_radius"]] * 4 + [p["center_radius"]], n_f),
        np.full(len(junction), p["junction_radius"]),
    ])
    roles = np.repeat(np.array([ROLE_VERTEX, ROLE_FACE, ROLE_JUNCTION], dtype=np.int8),
                      [n_v, 5 * n_f, len(junction)])
    face = np.full(len(centers), -1, dtype=np.min_scalar_type(-max(n_f, 1)))
    face[n_v : n_v + 5 * n_f] = np.repeat(np.arange(n_f), 5)
    return BallCover(
        centers=centers,
        radii=radii,
        roles=roles,
        face=face,
        host=_host_cubes(c, centers),
        unit=c.unit,
        vertices=surf.vertices,
    )


def _host_cubes(c, centers):
    """Lowest c.all_cubes index of a cube whose closure holds each centre.

    The big cubes are tested by interval.  The tube's cubes are found by one
    grid join of their box middles against the centres, at cell side the
    largest tube edge (widened by 1e-9 against rounding): a closed cube holds
    x only if x is within half an edge of its middle on every axis, so the two
    share a cell or sit in neighbouring ones.  The join's pairs are confirmed
    by interval.
    """
    box = boxes(c.all_cubes)
    n_cubes = len(box)
    first = 1 if len(c.big) == 2 else len(c.big)  # all_cubes index of tube[0]
    tube = np.arange(first, first + len(c.tube))
    big = np.setdiff1d(np.arange(n_cubes), tube)
    inside = np.ones((len(big), len(centers)), dtype=bool)
    for x, (lo, hi) in zip(centers.T, box[big].transpose(1, 2, 0)):  # axis by axis
        inside &= (lo[:, None] <= x) & (x <= hi[:, None])
    host = np.where(inside, big[:, None], n_cubes).min(axis=0, initial=n_cubes)
    if c.tube:
        lo, hi = box[tube, :, 0], box[tube, :, 1]
        side = float((hi - lo).max()) * (1.0 + 1e-9)
        for t, i in _grid_join((lo + hi) / 2.0, centers, side):
            x = centers[i]
            held = _fold(np.logical_and, (lo[t] <= x) & (x <= hi[t]))
            np.minimum.at(host, i[held], first + t[held])
    if (host == n_cubes).any():
        raise CoverError("ball center outside every cube closure")
    return host


def _products(cols, radii, i, j):
    """Inversive products of the ball pairs (i, j), from center differences.

    (d^2 - r_i^2 - r_j^2) / (2 r_i r_j) is cos of the exterior angle when the
    balls intersect, > 1 when disjoint, < -1 when nested.  Differencing the
    centers is exact at lattice scale and avoids the cancellation a
    Gram-matrix product suffers at large coordinates.  i and j index the
    second axis of cols (4, n, ...), the centres' coordinate columns.
    """
    diff = np.take(cols, i, axis=1) - np.take(cols, j, axis=1)
    diff *= diff
    ri, rj = radii[i], radii[j]
    return (_fold(np.add, np.moveaxis(diff, 0, -1)) - ri * ri - rj * rj) / (2.0 * ri * rj)


def _classify(prod):
    """(residual, nearest, order) of inversive products: the distance to the
    nearest legal cosine, that cosine's Coxeter order (the first one's on a
    tie), and the pair's order as pair_orders gives it.  One pass per legal
    cosine."""
    residual = np.abs(prod - _COSINES[0])
    nearest = np.full(len(prod), _ORDERS[0])
    for cos, m in zip(_COSINES[1:], _ORDERS[1:]):
        dist = np.abs(prod - cos)
        nearest[dist < residual] = m
        np.minimum(residual, dist, out=residual)
    order = np.where(residual <= ANGLE_TOL, nearest, np.where(prod >= 1.0 + ANGLE_TOL, 0, -1))
    return residual, nearest, order


def pair_orders(centers, radii, i, j):
    """(product, order) of the ball pairs (i, j): order 2 or 3 at a legal
    exterior cosine within ANGLE_TOL, 0 if disjoint (product >= 1 + ANGLE_TOL),
    -1 otherwise (an illegal angle, a tangent or a nested pair).  Only the
    rows the pairs read are gathered into columns, so a call costs its pairs,
    not the cover."""
    centers, k = np.asarray(centers), np.arange(len(i))
    cols = np.ascontiguousarray(np.concatenate([centers[i], centers[j]]).T)
    prod = _products(cols, np.concatenate([radii[i], radii[j]]), k, k + len(k))
    return prod, _classify(prod)[2]


def _floor_cells(x, side):
    """(4, n) int64: the grid cell floor(x / side) of each row of x, one row
    per axis."""
    return np.floor(np.ascontiguousarray(x.T) / side).astype(np.int64)


def _near_rows(cell_a, cell_b):
    """Ascending indices of the columns of cell_b (4, n) whose cell lies, on
    every axis, within one cell of a cell of cell_a (4, m): axis by axis, the
    survivors whose coordinate is one of cell_a's, less 1, or plus 1."""
    rows = np.arange(cell_b.shape[1])
    for ca, cb in zip(cell_a, cell_b):
        rows = rows[np.isin(cb[rows], np.concatenate([ca - 1, ca, ca + 1]))]
    return rows


# Rows of a per lookup and pairs per yielded slice of _grid_join: together
# they bound its memory whatever the density of the cells (the slices end at
# a row's run, so one may exceed _JOIN_PAIRS by the rows of three cells).
_JOIN_ROWS = 1 << 12
_JOIN_PAIRS = 1 << 14
# An axis of _grid_join spanning at most this many cells per point numbers
# its occupied cells on a bool array of its span; a wider one sorts them.
_BITMAP_CELLS = 4
# Columns per keyed row up to which _grid_join marks b's occupied columns on
# a bool table, so that the table's memory follows the rows'.
_COLUMN_CELLS = 64


def _occupied_columns(key_b, dims, n_keyed):
    """b's occupied columns, key_b // dims[3], as a bool table over all
    prod(dims[:3]); None past _COLUMN_CELLS columns per keyed row."""
    n_columns = math.prod(dims[:3])
    if n_columns > _COLUMN_CELLS * n_keyed:
        return None
    occupied = np.zeros(n_columns, dtype=bool)
    occupied[key_b // dims[3]] = True
    return occupied


def _grid_join(a, b, side):
    """Yield index arrays (i, j): rows i of a and j of b in equal or neighbouring
    cells of one 4-D grid of the given side, about _JOIN_PAIRS pairs at a
    time; a self-join (b is a) yields each unordered pair of distinct rows
    once, as (i, j) with i < j inside a cell and i in the lower-keyed cell
    across cells.  The cells are kept as one row per axis.  A cross join keys
    only the rows of b whose floored cell lies, on every axis, within one
    cell of a cell of a (_near_rows): the others have no neighbour in a, and
    the renumbering below keeps the order of the cells, so the pairs and
    their order are those of keying all of b.  Axes renumber their occupied
    cells from 1, closing gaps wider than one cell, so the key size follows
    the number of points rather than the extent.  An axis, shifted to start
    at 0, that spans at most _BITMAP_CELLS cells per point marks each
    occupied cell and the cell after it on a bool array, and an occupied
    cell's number is the count of marks up to it; a wider axis sorts its
    occupied cells (np.unique) and adds min(step, 2) per step between them.
    Both number the first occupied cell 1 and each next one 1 higher when it
    is adjacent, 2 higher across a gap (whose first cell is the only mark in
    it), so the keys, the pairs and their order do not depend on the branch.

    Neighbours are looked up per occupied cell, as runs: the three neighbours
    of a cell along the last axis have consecutive keys, so each offset on the
    first three axes meets one run of b's rows sorted by key.  The rows of a,
    sorted by key, are taken _JOIN_ROWS at a time; each distinct cell among
    them finds each of its 27 runs (14 in a self-join) by one binary search
    among b's occupied cells, and each of its rows meets every row of them.
    A run lies in one column, its cells' first three coordinates, key //
    dims[3].  Where the columns number at most _COLUMN_CELLS per keyed row,
    b's occupied ones are marked on a bool table (_occupied_columns) and
    only the heads in a marked column are searched: an unmarked one holds no
    run, and the searched heads keep their offset-major order, so the pairs
    and their order do not depend on the table.  Past the bound the table's
    memory would not follow the rows', and every run is searched.
    """
    n_a = len(a)
    if not n_a:
        return  # no row of a: no pair, and no cell to key
    cell = _floor_cells(a, side)
    if b is not a:  # a self-join keys its set once
        cell_b = _floor_cells(b, side)
        rows_b = _near_rows(cell, cell_b)
        cell = np.concatenate([cell, cell_b[:, rows_b]], axis=1)
    for col in cell:
        col -= col.min()
        span = int(col.max()) + 2  # the occupied cells and the one past them
        if span <= _BITMAP_CELLS * len(col):
            mark = np.zeros(span, dtype=bool)
            mark[col] = True
            mark[1:][col] = True  # the cell after each: the first free one of a gap
            col[:] = np.cumsum(mark)[col]
        else:
            occupied, at = np.unique(col, return_inverse=True)
            gaps = np.minimum(np.diff(occupied, prepend=-1), 2)
            col[:] = np.cumsum(gaps)[at]
    dims = [int(col.max()) + 2 for col in cell]  # a free cell on each side
    if math.prod(dims) >= 2**63:
        raise CoverError("points too sparse for a 64-bit grid key")
    strides = np.array([dims[1] * dims[2] * dims[3], dims[2] * dims[3], dims[3], 1])
    key = cell[0].copy()
    for col, d in zip(cell[1:], dims[1:]):  # the mixed-radix key, column by column
        key *= d
        key += col
    order_a = np.argsort(key[:n_a], kind="stable")
    key_a = key[:n_a][order_a]
    if b is a:
        order_b, key_b = order_a, key_a
    else:
        by_key = np.argsort(key[n_a:], kind="stable")
        order_b, key_b = rows_b[by_key], key[n_a:][by_key]
    # a self-join needs only the lexicographically non-negative offsets; at
    # offset 0 a row meets the rest of its own cell and the whole next cell
    heads = [o for o in itertools.product((-1, 0, 1), repeat=3) if b is not a or o >= (0,) * 3]
    shifts = np.array(heads) @ strides[:3]
    occupied = _occupied_columns(key_b, dims, len(key))
    # b's occupied cells and the first sorted row of each, then 3 sentinels
    first = np.flatnonzero(np.diff(key_b, prepend=-1))
    cells_b = np.append(key_b[first], np.full(3, np.iinfo(np.int64).max))
    first = np.append(first, np.full(3, len(key_b)))
    for s in range(0, len(a), _JOIN_ROWS):
        keys = key_a[s : s + _JOIN_ROWS]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # this slice's cells
        mid = shifts[:, None] + keys[starts]  # offset-major: each row ascends
        if occupied is not None:  # only the heads whose column holds a row of b
            o, c = np.nonzero(occupied[(shifts // dims[3])[:, None] + keys[starts] // dims[3]])
            mid = mid[o, c]
        u = np.searchsorted(cells_b, mid - 1)  # the run's first cell, if any
        top = mid + 1  # and at most three cells up to key mid + 1
        v = u + (cells_b[u] <= top) + (cells_b[u + 1] <= top) + (cells_b[u + 2] <= top)
        lo, hi = first[u], first[v]
        hit = np.nonzero(hi > lo)
        o, c = hit if occupied is None else (o[hit], c[hit])
        # every row of slice cell c meets run (lo, hi): one item per row
        rows = np.diff(np.append(starts, len(keys)))[c]
        k = np.repeat(np.arange(len(c)), rows)
        p = s + np.repeat(starts[c] - np.cumsum(rows) + rows, rows) + np.arange(len(k))
        lo, hi = lo[hit][k], hi[hit][k]
        if b is a:
            lo = np.where(shifts[o][k] == 0, p + 1, lo)
        count = hi - lo
        cuts = np.searchsorted(np.cumsum(count), np.arange(_JOIN_PAIRS, count.sum(), _JOIN_PAIRS))
        for part in np.split(np.arange(len(count)), cuts):
            n = count[part]
            j = np.repeat(lo[part] - np.cumsum(n) + n, n) + np.arange(n.sum())
            yield order_a[np.repeat(p[part], n)], order_b[j]


_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # the row hash's multiplier: 2^64 / golden ratio, odd


def _first_rows(rows):
    """(first, rank): the index of each distinct integer row's first
    occurrence, ascending, and per row the position of its first occurrence
    in first.  No sort: the rows, cast to int64 and viewed as uint64, are
    hashed a column at a time (h ^= col; h *= _HASH_MUL; h ^= h >> 29) and
    put in 2^min(16, bits(2n)) buckets by the top bits of h.  Each row is
    compared, column by column, with its bucket's smallest row index and
    resolved to it if equal; the rest are bucketed again on the next bits of
    h, until no row is left.  Equal rows share h, so a class is resolved
    whole, to its first occurrence; each round resolves at least every
    bucket's smallest row, whatever the hash does.  Column-major rows are
    read as contiguous columns.  Rows without columns are all equal."""
    n = len(rows)
    if rows.dtype != np.uint64:
        rows = rows.astype(np.int64, copy=False).view(np.uint64)
    cols = rows.T
    h = np.zeros(n, dtype=np.uint64)
    for col in cols:
        h ^= col
        h *= _HASH_MUL
        h ^= h >> np.uint64(29)
    bits = min(16, (2 * n).bit_length())
    up, down = np.uint64(bits), np.uint64(64 - bits)  # h's window: its top bits
    first_of = np.empty(n, dtype=np.intp)  # per row, its first occurrence
    rest, live = np.arange(n), cols  # the unresolved rows and their columns
    while len(rest):
        bucket = (h >> down).astype(np.intp)
        least = np.full(1 << bits, n)
        np.minimum.at(least, bucket, rest)
        least = least[bucket]  # per row, its bucket's smallest row
        same = np.ones(len(rest), dtype=bool)
        for x, col in zip(live, cols):
            same &= x == col[least]
        first_of[rest[same]] = least[same]
        rest, h, live = rest[~same], h[~same], live[:, ~same]
        h = (h << up) | (h >> down)  # the next window
    is_first = first_of == np.arange(n)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[first_of]


def _finite_balls(centers, radii, ids=None):
    """(centers, radii) as float arrays; CoverError names the first ball
    without a finite centre and a finite positive radius, by its row or, given
    ids, by its row's id."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    bad = ~(_fold(np.logical_and, np.isfinite(centers)) & np.isfinite(radii) & (radii > 0))
    if bad.any():
        b = int(np.argmax(bad))
        raise CoverError(
            f"ball {b if ids is None else int(ids[b])} (centre "
            f"{tuple(float(x) for x in centers[b])}, radius {float(radii[b])}) "
            "needs a finite centre and a finite positive radius"
        )
    return centers, radii


def _radius_octaves(radii):
    """(groups, top): the ball indices of each radius octave,
    round(log2(r_max / r)), ascending, from the largest radii down, and each
    group's largest radius.  One stable sort of the octaves cuts them."""
    octave = np.rint(np.log2(radii.max()) - np.log2(radii))
    order = np.argsort(octave, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(octave[order])) + 1)
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
    cols = np.ascontiguousarray(centers.T)
    parts = []
    for x, y in itertools.combinations_with_replacement(range(len(groups)), 2):
        side = math.sqrt(top[x] ** 2 + top[y] ** 2 + 2.3 * top[x] * top[y]) * (1.0 + 1e-9)
        ga, gb = sorted((groups[x], groups[y]), key=len)  # the smaller group queries
        pa = centers[ga]
        for i, j in _grid_join(pa, pa if x == y else centers[gb], side):
            i, j = ga[i], gb[j]
            i, j = np.minimum(i, j), np.maximum(i, j)
            prod = _products(cols, radii, i, j)
            near = prod < 1.15
            parts.append((i[near], j[near], prod[near]))
    i, j, prod = (np.concatenate(col) for col in zip(*parts))
    by_pair = np.argsort(i * len(radii) + j)  # the pairs are distinct
    return i[by_pair], j[by_pair], prod[by_pair]


# ---------------------------------------------------------------------------
# Validation


def pairwise_sweep(centers, radii):
    """Certify every pair of balls: disjoint or at an exact legal angle.

    Pairs with inversive product >= 1.15 are disjoint by a wide margin; the
    rest come from one grid search, _near_pairs, classified once.  Returns
    (max_residual, n_intersecting, violations, adjacency): residual is the
    distance of an intersecting pair's product from {0, +-1/2}; violations
    lists up to 50 pairs of pair_orders' order -1 as (i, j, product)
    triples; adjacency is the (n, 3) int64 rows (i, j, m) of the pairs with
    product below 1, sorted by (i, j), m being the order of the legal cosine
    nearest the product: an illegal pair stays a relation row with a real
    order, which criterion 3 measures too (at m = -1, relation_residuals
    would give it residual 0).  BallCover.sweep is this call on the cover's
    own balls; the near-pair list is not kept.
    """
    i, j, prod = _near_pairs(centers, radii)
    res, nearest, order = _classify(prod)
    intersecting = np.abs(prod) < 1.0 - ANGLE_TOL
    bad = np.nonzero(order < 0)[0]
    violations = [(int(i[b]), int(j[b]), float(prod[b])) for b in bad[:50]]
    max_residual = float(res[intersecting].max(initial=0.0))
    hit = prod < 1.0
    adjacency = np.stack([i[hit], j[hit], nearest[hit]], axis=1)
    return max_residual, int(intersecting.sum()), violations, adjacency


def _trace_disks(f, b, cols, radii, corner, axes, ell):
    """Candidate filter of coverage_check: of the face-ball candidates (f, b),
    those whose ball's open trace disk in face f's plane meets its closed
    square, as (face, u, v of the disk centre, squared disk radius).  cols
    and corner are the centres' and the corners' coordinate columns, and
    axes (4, F) each face's in-plane axes, then its normal ones."""
    d = np.take(cols, b, axis=1)
    d -= np.take(corner, f, axis=1)
    u, v, *h = np.take_along_axis(d, np.take(axes, f, axis=1), axis=0)
    reach2 = radii[b] ** 2 - (h[0] * h[0] + h[1] * h[1])
    gu, gv = (np.maximum(np.maximum(-t, t - ell), 0.0) for t in (u, v))  # distance to the square
    meets = gu * gu + gv * gv < reach2
    return f[meets], u[meets], v[meets], reach2[meets]


def _disk_table(pairs, cols, radii, corner, axes, ell):
    """(count, table): the disks of the faces (corner, axes) among the
    face-ball candidates (f, b) of pairs, by _trace_disks.  count is each
    face's number of disks and table (F, 3, width) its rows u, v and
    reach2, a face's disks in the order the pairs list them, width being
    the largest count; padding slots have reach2 = -inf, so they contain no
    point.  The faces are its last axis in memory."""
    n_faces = corner.shape[1]
    parts = [(np.zeros(0, np.intp), *[np.zeros(0)] * 3)]
    parts += [_trace_disks(f, b, cols, radii, corner, axes, ell) for f, b in pairs]
    face, *disk = (np.concatenate(col) for col in zip(*parts))
    # face-major pairs, as face_balls lists them, need no sort
    by_face = np.argsort(face, kind="stable") if (face[1:] < face[:-1]).any() else slice(None)
    face = face[by_face]
    count = np.bincount(face, minlength=n_faces)
    rank = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    table = np.zeros((3, int(count.max(initial=0)), n_faces)).transpose(2, 0, 1)
    table[:, 2] = -np.inf  # padding: no point inside
    for k, row in enumerate(disk):
        table[face, k, rank] = row[by_face]
    return count, table


def _octave_pairs(mids, centers, radii, ell):
    """The face-ball candidates (f, b) of coverage_check's complete search:
    one grid join of the face middles and the ball centres per radius octave
    g, at cell side R_g + ell/2 (widened by 1e-9 against rounding), R_g being
    the octave's largest radius, the smaller side querying."""
    if not len(mids):
        return  # no face: no pair
    for g, top in zip(*_radius_octaves(radii)):
        side = (top + ell / 2.0) * (1.0 + 1e-9)
        swap = len(g) < len(mids)
        for f, b in _grid_join(*((centers[g], mids) if swap else (mids, centers[g])), side):
            f, b = (b, f) if swap else (f, b)
            yield f, g[b]


# Cells per side of the grid on which coverage_check certifies each disk
# template, and templates certified at a time (2^18 cells)
_CELLS = 64
_TEMPLATES = 64


def _held_cells(u, v, r2, ell):
    """The cell certificate of template rows u, v and reach2 (T, width): (T,
    _CELLS, _CELLS) bool, True at the cells [i, i + 1] x [j, j + 1] of side
    ell / _CELLS on the face square that one of its disks holds with
    coverage_check's margin."""
    pad = ell * 2.0**-20
    cells = np.arange(_CELLS)
    lo, hi = cells * (ell / _CELLS) - pad, (cells + 1) * (ell / _CELLS) + pad
    held = np.zeros((len(u), _CELLS, _CELLS), dtype=bool)
    for r in range(u.shape[1]):
        # per axis, the squared distance from the disk centre to the padded
        # cell's farther end, raised by the relative margin
        far_u, far_v = ((1.0 + 2.0**-30) * np.maximum(np.abs(lo - t[:, r, None]),
                                                      np.abs(hi - t[:, r, None])) ** 2
                        for t in (u, v))
        inner = r2[:, r, None] - 2.0**-30 * np.abs(r2[:, r, None]) - pad * ell - far_u
        held |= far_v[:, None, :] < inner[:, :, None]  # inner is per u cell
    return held


def coverage_check(cover, surf, n_samples=10_000, seed=0):
    """Monte-Carlo coverage of every surface face by the open cover balls.

    A ball meets a face plane in the open disk of centre (u, v), in face
    coordinates, and squared radius r^2 - h^2, h being the centre's distance
    from the plane.  A face's disks are those of the balls whose disk meets
    its closed square, and _disk_table keeps them as one face-major table of
    (F, width) rows u, v and reach2 = r^2 - h^2, width being the largest
    count; padding slots have reach2 = -inf, so they contain no point.  Two
    sets of disks fill such a table:

    * A face's near disks are those of its construction balls
      (BallCover.face_balls): its four corner vertex balls, surf.corners
      by one exact lattice lookup, and the balls that `cover.face` labels
      with it, on a built cover its four face balls and its centre ball.
      The junction balls are no near disk.  A label that names no face of
      surf is ignored, and a wrong label or corner only leaves a template
      open, so that more is drawn.
    * The complete search is one grid join of the face middles and the ball
      centres per radius octave g, the smaller set querying the larger, at
      cell side R_g + ell/2 (widened by 1e-9), R_g being the octave's
      largest radius.  Its lists are complete: a ball of octave g that meets
      the closed square holds a point p of it with |c - p| < r <= R_g, c
      being its centre, and on every axis p differs from the square's
      middle by at most ell/2 (ell/2 on the two in-plane axes, 0 on the
      normal ones).  So on every axis c and the middle differ by less than
      R_g + ell/2, and they lie in the same or in neighbouring cells.  It
      runs only for the faces of the blocks that are drawn, below.

    The float32 samples x = (u, v) in [0, 1)^2 are drawn by the seeded
    generator's Generator.random(dtype=np.float32), in blocks of about 2^16
    samples, in face order.  A float32 draw is the top 24 bits of 32 times
    2^-24 (exact in float32), and two draws spend one 64-bit PCG64 word, u
    from its low 32 bits and v from its high 32, so a sample is one word.  A
    sample is the point ell * x, rounded to float32, and it is covered when,
    in float64 and in the face plane, (u - cu)^2 + (v - cv)^2 < reach2 for
    one of its face's complete rows.  Most faces are decided without a
    draw, by a certificate on their near disks:

    * A face's template is its row of the near table: u, v and reach2.
      Faces are grouped by the rows' bits, exactly, by _first_rows (the
      lattice cover repeats them: the preset's 9,850 faces have 23
      templates), and the templates are numbered in the order of their
      first faces.  So a certificate serves only faces whose near disks are
      exactly the template's.  The near disks are a subset of the complete
      ones, and a further disk can only add to their union, so a point that
      the near disks hold passes the sample test on the complete rows too.
    * Each template certifies the cells [i, i + 1] x [j, j + 1] / 64 of the
      unit square that one of its disks holds, and it is whole when every
      cell is certified.  float32 rounds ell and ell * x each to a relative
      2^-24, so on each axis a sample's point lies within 2^-23 ell of ell
      times its cell's x-range: inside the cell's square scaled by ell and
      widened by pad = 2^-20 ell on every side (the float64 rounding of its
      bounds is far below the slack).  A cell is certified when, in float64,
      the widened square's farthest corner from the disk centre has
      (1 + 2^-30) far^2 < reach2 - 2^-30 |reach2| - pad ell.  Every point of
      the widened square is within far of the centre, and the computed far^2
      is within a relative 2^-50 of exact.  The sample test rounds one
      difference per axis, two squares and a sum of non-negative terms, each
      to a relative 2^-53, so it computes at most the point's exact value
      times 1 + 2^-50.  Together that is below 2^-48 far^2; the
      certificate's own rounding, of terms no larger than far^2 and
      |reach2|, is smaller still, and both lie far under the margin 2^-30
      (far^2 + |reach2|).  pad ell covers the subnormal range, where
      rounding is not relative.  So the test accepts every sample of a
      certified cell, and every sample of a whole template.
    * A block whose faces all have whole templates draws no sample: the
      generator is advanced past its words instead.  PCG64 steps a 128-bit
      linear congruential state s -> a s + c (mod 2^128) once per 64-bit
      word, the word being a function of the new state, and a block's draw
      of 2m float32 values takes m steps and leaves the 32-bit buffer of a
      word's unread half empty, as it found it.  advance(d) sets the state d
      steps on, a^d s + c (a^d - 1)/(a - 1), by squaring, and clears that
      buffer.  So the words after advance(d) are the words that follow d
      drawn ones: a drawn block gets the words it would get if every block
      were drawn, and a skipped block would have given no miss.  The lattice
      cover's templates are all whole (the preset has 23), so its coverage
      draws no sample and runs no complete search.
    * A block that is drawn tests every sample against all its faces'
      complete rows, one rank of the table at a time, so its misses are
      those of testing against every ball.  Where no template is whole,
      every face is in a drawn block and the complete search runs for all.

    The certificate thus changes which samples are drawn, never a result.
    Returns (fraction, misses) with misses as (face index, point) pairs in
    face then sample order, the point being the face's float32 corner plus
    the sample.  n_samples below 1 raises ValueError, and a ball without a
    finite centre and a finite positive radius CoverError.
    """
    if n_samples < 1:
        raise ValueError(f"coverage_check needs n_samples >= 1, got {n_samples}")
    ell = float(cover.unit)
    centers, radii = _finite_balls(cover.centers, cover.radii)
    n_faces = len(surf.faces)
    corner = surf.faces[:, :4].astype(float)
    plane = surf.faces[:, 4:]  # (F, 2) in-plane axes
    off = np.ones_like(corner)  # 1 on the two axes normal to the face plane
    off[np.arange(n_faces)[:, None], plane] = 0.0
    mids = corner + (1.0 - off) * (ell / 2.0)
    cols, corners = np.ascontiguousarray(centers.T), np.ascontiguousarray(corner.T)
    axes = np.vstack([plane.T, np.nonzero(off)[1].reshape(-1, 2).T])  # in-plane, normal

    # the near disks: each face's template, from the balls built on it
    _count, table = _disk_table([cover.face_balls(surf)], cols, radii, corners, axes, ell)
    first, template = _first_rows(table.reshape(n_faces, -1).view(np.uint64))
    # the faces of whole templates, whose every sample the test provably
    # accepts; _TEMPLATES at a time, so no cell certificate outlives its batch
    whole = np.concatenate([
        _held_cells(*table[t].transpose(1, 0, 2), ell).all(axis=(1, 2))
        for t in np.split(first, range(_TEMPLATES, len(first), _TEMPLATES))])[template]
    del table  # dead: freed before the complete search

    block = max(1, 2**16 // n_samples)  # faces per block: ~2^16 samples
    starts = np.arange(0, n_faces, block)
    drawn = ~np.logical_and.reduceat(whole, starts)
    # the complete disks of the faces in drawn blocks, in face order
    faces = np.flatnonzero(np.repeat(drawn, block)[:n_faces])
    count, table = _disk_table(_octave_pairs(mids[faces], centers, radii, ell), cols, radii,
                               corners[:, faces], axes[:, faces], ell)
    table_u, table_v, table_r2 = table.transpose(1, 0, 2)

    rng = np.random.default_rng(seed)
    misses = []
    rows = slice(0, 0)  # the complete table's rows of the last drawn block
    for lo, draw in zip(starts.tolist(), drawn):
        hi = min(lo + block, n_faces)
        if not draw:
            rng.bit_generator.advance((hi - lo) * n_samples)  # the stream as if drawn
            continue
        rows = slice(rows.stop, rows.stop + hi - lo)
        x = rng.random((hi - lo, n_samples, 2), dtype=np.float32) * ell  # a word per sample
        u, v = x[..., 0].astype(float), x[..., 1].astype(float)
        covered = np.zeros((hi - lo, n_samples), dtype=bool)
        for r in range(int(count[rows].max())):  # ranks past it are padding
            du, dv = u - table_u[rows, r, None], v - table_v[rows, r, None]
            covered |= du * du + dv * dv < table_r2[rows, r, None]
        at, s = np.nonzero(~covered)  # each miss's face in the block and sample
        face = lo + at
        pts = corner[face].astype(np.float32)
        for col in (0, 1):
            pts[np.arange(len(face)), plane[face, col]] += x[at, s, col]
        misses.extend((int(m), tuple(p)) for m, p in zip(face, pts.astype(float)))
    total = n_faces * n_samples
    return (total - len(misses)) / total, misses


def validate_cover(cover, surf, n_samples=2000, seed=0):
    """Full validation report: closed forms, pairwise legality, coverage.

    A closed-form residual is the largest distance of a ball's radius from
    the nearer closed form of its role (the face role has two: face and
    centre balls); `ok` needs each to be at most 1e-9 * unit.  The pair
    verdict and the adjacency are the cover's one sweep, `cover.sweep`, run
    here on first use: the relations the group takes from the cover are the
    pairs certified here.  A relation row needs no check of its own: its
    order is that of the legal cosine nearest its product, which it misses by
    more than ANGLE_TOL only if the sweep lists it as illegal.  A ball
    without a finite centre and a finite positive radius raises CoverError."""
    p = closed_form_parameters(float(cover.unit))

    def residual(role, *forms):
        r = cover.radii[cover.roles == role, None]
        return float(np.abs(r - np.array(forms)).min(axis=1).max(initial=0.0))

    form_residuals = {
        "vertex_radius": residual(ROLE_VERTEX, p["vertex_radius"]),
        "face_and_center_radius": residual(ROLE_FACE, p["face_radius"], p["center_radius"]),
    }
    if (cover.roles == ROLE_JUNCTION).any():
        form_residuals["junction_radius"] = residual(ROLE_JUNCTION, p["junction_radius"])

    max_residual, n_intersecting, violations, adj = cover.sweep
    fraction, misses = coverage_check(cover, surf, n_samples=n_samples, seed=seed)
    ok = (
        max(form_residuals.values()) <= 1e-9 * cover.unit
        and not violations
        and max_residual <= ANGLE_TOL
        and fraction == 1.0
        and not misses
    )
    return {
        "ok": bool(ok),
        "n_balls": len(cover),
        "role_counts": cover.role_counts(),
        "closed_form_residuals": form_residuals,
        "max_angle_residual": max_residual,
        "n_intersecting_pairs": n_intersecting,
        "n_adjacency_pairs": len(adj),
        "illegal_pairs": violations,
        "coverage_fraction": fraction,
        "coverage_misses": misses[:20],
        "n_samples_per_face": n_samples,
        "tolerance": ANGLE_TOL,
    }
