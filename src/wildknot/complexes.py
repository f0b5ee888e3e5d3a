"""Cube complexes supporting a ribbon 2-knot, and their boundary surfaces.

A complex is two large 3-cubes (the knot's two ball factors) joined by a tube
of unit 3-cubes embedded in R^4.  Each cube is axis-aligned and spans exactly
three of the four coordinate axes; consecutive tube cubes share a full square
2-face.  The knot surface is the boundary of the resulting 3-manifold: the
set of unit square 2-faces incident to exactly one unit cell of the cubes.
A cube bounds each square of its boundary with one of its cells and each
square of its relative interior with two, so a square's cell count is the
number of cube boundaries it lies on plus twice the number of cube interiors;
the surface is built from the cubes' boundary squares and never rasterizes a
cube into cells.

Lattice tubes cannot turn without the cube before a turn and the cube after
it touching along a single edge, so the disjointness rule for non-consecutive
cubes admits exactly that contact for pairs at sequence distance two.  The
decisive well-formedness test is on the surface itself: every edge must bound
exactly two surface squares (closed 2-manifold), Euler characteristic must be
2 and a consistent orientation must exist.  validate_complex is the one
check: it lists the structural rules' issues and, only when there are none,
the surface's.  A caller that needs the surface itself reads knot_surface(c),
which the complex builds once and keeps.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

FORMAT_HEADER = "wildknot-complex 1"
# Bound on the fields of a complex file, so that the int64 boxes and their
# sums cannot overflow.
FIELD_LIMIT = 1 << 60
# Cube pairs per block of validate_complex's tube-by-tube meet.
PAIR_BLOCK = 1 << 16


class ComplexError(ValueError):
    """Raised when a cube complex violates its structural invariants."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("invalid cube complex:\n" + "\n".join(f"  - {s}" for s in self.issues))


@dataclasses.dataclass(frozen=True)
class Cube3:
    """Axis-aligned 3-cube in R^4: spans the three axes other than omitted_axis."""

    corner: tuple[int, int, int, int]
    edge: int
    omitted_axis: int  # 0..3

    def __post_init__(self):
        if self.edge <= 0:
            raise ValueError("edge must be positive")
        if self.omitted_axis not in (0, 1, 2, 3):
            raise ValueError("omitted_axis must be in 0..3")


def boxes(cubes):
    """The closed boxes of a cube sequence: (n, 4, 2) int64 [lo, hi] per axis,
    degenerate on each cube's omitted axis."""
    rows = np.array([(*cu.corner, cu.edge, cu.omitted_axis) for cu in cubes],
                    dtype=np.int64).reshape(-1, 6)
    lo = rows[:, :4]
    hi = lo + rows[:, 4:5] * (np.arange(4) != rows[:, 5:])
    return np.stack([lo, hi], axis=-1)


def _fold(op, a):
    """op.reduce(a, axis=-1) over a short, nonempty last axis, as op on its
    columns from left to right, without a reduction's loop per row.  For
    np.add on floats these are the bits of numpy's own sum when the axis has
    fewer than 8 entries, which it too adds left to right."""
    out = np.array(a[..., 0])
    for k in range(1, a.shape[-1]):
        op(out, a[..., k], out=out)
    return out


def meet(a, b):
    """Closed intersection of two box arrays (..., 4, 2), broadcast: the meet
    box and its dimension (see _meet_dim)."""
    box = np.stack([np.maximum(a[..., 0], b[..., 0]), np.minimum(a[..., 1], b[..., 1])], axis=-1)
    return box, _meet_dim(a, b)


def _meet_dim(a, b):
    """The dimension of the meet of two box arrays, without building its box:
    the number of axes of positive extent, -1 where the boxes are disjoint.
    One axis at a time, so that no (..., 4) temporary is built."""
    dim, apart = 0, False
    for k in range(4):
        span = np.minimum(a[..., k, 1], b[..., k, 1])
        span -= np.maximum(a[..., k, 0], b[..., k, 0])
        dim = dim + (span > 0)
        apart = apart | (span < 0)
    return np.where(apart, -1, dim)


@dataclasses.dataclass(frozen=True)
class CubeComplex:
    """Big cubes and a tube, frozen and hashable.  Its knot surface is a pure
    function of it, built on first use and kept on the instance (`_surface`,
    read through knot_surface); equality and hashing see only the cubes, and
    an equal but distinct complex builds its own."""

    big: tuple[Cube3, ...]  # normally (Q0, Q1); a single cube in degenerate test mode
    tube: tuple[Cube3, ...]

    @functools.cached_property
    def _surface(self):
        return _build_surface(self)

    @property
    def all_cubes(self):
        if len(self.big) == 2:
            return (self.big[0],) + self.tube + (self.big[1],)
        return self.big + self.tube

    @property
    def unit(self):
        return self.tube[0].edge if self.tube else 1

    def attach_squares(self):
        """The two squares where the tube meets the big cubes, as lists of
        (lo, hi) per axis; None where the two cubes do not meet."""
        if len(self.big) != 2 or not self.tube:
            return []
        box, dim = meet(boxes(self.big), boxes((self.tube[0], self.tube[-1])))
        return [list(map(tuple, b)) if d >= 0 else None
                for b, d in zip(box.tolist(), dim.tolist())]

    def hyperplane_levels(self):
        """Sorted x4-levels of the cubes lying inside a w = const hyperplane."""
        return sorted({c.corner[3] for c in self.all_cubes if c.omitted_axis == 3})


# ---------------------------------------------------------------------------
# File format: versioned header, one cube per line.
#   wildknot-complex 1
#   big <x> <y> <z> <w> <edge> <omitted_axis>
#   tube <x> <y> <z> <w> <edge> <omitted_axis>     (in tube order)


def dumps_complex(c):
    lines = [FORMAT_HEADER]
    for kind, cube in [("big", b) for b in c.big] + [("tube", t) for t in c.tube]:
        lines.append(f"{kind} {' '.join(map(str, cube.corner))} {cube.edge} {cube.omitted_axis}")
    return "\n".join(lines) + "\n"


def loads_complex(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ComplexError([f"missing or unsupported header (expected {FORMAT_HEADER!r})"])
    big, tube = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 7 or parts[0] not in ("big", "tube"):
            raise ComplexError([f"bad record: {ln!r}"])
        try:
            nums = [int(p) for p in parts[1:]]
        except ValueError:
            raise ComplexError([f"non-integer field in record: {ln!r}"]) from None
        if max(map(abs, nums)) >= FIELD_LIMIT:
            raise ComplexError([f"field out of range (|field| < 2**60) in record: {ln!r}"])
        try:
            cube = Cube3(tuple(nums[:4]), nums[4], nums[5])
        except ValueError as exc:
            raise ComplexError([f"{exc} in record: {ln!r}"]) from None
        (big if parts[0] == "big" else tube).append(cube)
    return CubeComplex(tuple(big), tuple(tube))


def save_complex(c, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_complex(c))


# ---------------------------------------------------------------------------
# Structural validation


def validate_complex(c):
    """The complex's human-readable invariant violations (empty = valid).

    The structural checks come first; only once they all pass is the knot
    surface, knot_surface(c), built, and its issues are the list then.
    """
    issues = []
    if len(c.big) != 2:
        issues.append(f"need exactly 2 big cubes, got {len(c.big)}")
        return issues
    if not c.tube:
        issues.append("empty tube: no fusion between the two big cubes")
        return issues
    unit = c.tube[0].edge
    for i, t in enumerate(c.tube):
        if t.edge != unit:
            issues.append(f"tube cube {i} has edge {t.edge}, expected uniform {unit}")
    if c.big[0].edge != c.big[1].edge:
        issues.append("big cubes differ in edge length")
    if c.big[0].edge % unit != 0:
        issues.append("big edge is not a multiple of the tube unit")

    chain = boxes(c.all_cubes)  # Q0, the tube in order, Q1
    tube = chain[1:-1]
    names = ["Q0"] + [f"tube[{i}]" for i in range(len(c.tube))] + ["Q1"]

    # consecutive cubes share exactly one full unit square 2-face
    box, dim = meet(chain[:-1], chain[1:])
    sides = np.sort(box[..., 1] - box[..., 0], axis=1)[:, 2:]
    for i in np.flatnonzero((dim != 2) | (sides != unit).any(axis=1)).tolist():
        if dim[i] != 2:
            issues.append(f"{names[i]} and {names[i + 1]} do not meet in a 2-face")
            continue
        s0, s1 = sides[i].tolist()
        issues.append(
            f"{names[i]} and {names[i + 1]} meet in a {s0}x{s1} "
            f"rectangle, not a {unit}x{unit} square"
        )

    # attachment squares centered at the centers of big-cube faces; the first
    # and last consecutive meets are Q0 with tube[0] and tube[-1] with Q1
    square, big = box[[0, -1]], chain[[0, -1]]
    off = ((dim[[0, -1], None] == 2) & (square[..., 1] > square[..., 0])
           & (square.sum(axis=-1) != big.sum(axis=-1)))
    for b_idx, a in np.argwhere(off).tolist():
        mid, big_mid = sum(square[b_idx, a].tolist()) / 2.0, sum(big[b_idx, a].tolist()) / 2.0
        issues.append(
            f"attach square of Q{b_idx} is off-center along axis {a} "
            f"(square center {mid}, face center {big_mid})"
        )

    # big cubes meet the tube nowhere else, and never each other
    if _meet_dim(chain[0], chain[-1]) >= 0:
        issues.append("Q0 and Q1 intersect")
    touch = _meet_dim(big[:, None], tube[None]) >= 0
    touch[0, 0] = touch[1, -1] = False
    for b_idx, i in np.argwhere(touch).tolist():
        issues.append(f"tube[{i}] touches Q{b_idx} away from the attach square")

    # non-consecutive tube cubes: disjoint closures, except that the cubes
    # immediately before and after a turn may share exactly one edge; the
    # rows go in blocks of about PAIR_BLOCK pairs
    n = len(tube)
    rows = max(1, PAIR_BLOCK // n)
    for i0 in range(0, n, rows):
        pair_dim = _meet_dim(tube[i0 : i0 + rows, None], tube[None])
        gap = np.arange(n) - np.arange(i0, i0 + len(pair_dim))[:, None]  # j - i
        bad = (gap >= 2) & (pair_dim >= 0) & ~((gap == 2) & (pair_dim == 1))
        for i, j in np.argwhere(bad).tolist():
            issues.append(
                f"tube[{i0 + i}] and tube[{j}] overlap in a {pair_dim[i, j]}-dimensional set "
                "(non-consecutive cubes must have disjoint closures)"
            )

    # every cube lies in a w-hyperplane or is a vertical (w-spanning)
    # connector between the lowest and the highest of those hyperplanes
    levels = c.hyperplane_levels()
    if len(levels) > 4:
        issues.append(f"hyperplane cubes occupy {len(levels)} levels {levels}, expected <= 4")
    if not levels:
        issues.append("no cube lies in a w-hyperplane")
    else:
        w0, w1 = tube[:, 3, 0], tube[:, 3, 1]
        leaves = (w1 > w0) & ((w0 < levels[0]) | (w1 > levels[-1]))
        for i in np.flatnonzero(leaves).tolist():
            issues.append(f"tube[{i}] connector leaves the hyperplane range")

    if issues:
        return issues
    return list(knot_surface(c).issues)


# ---------------------------------------------------------------------------
# The boundary surface, on integer lattice arrays

# The six coordinate planes (i, j), i < j, numbered in sorted order.
PLANES = np.array(list(itertools.combinations(range(4), 2)))
# A cube omitting axis o spans the axes _SPAN[o] (unit rows _AXES[o]).  Its
# cells' six faces are numbered by slot: for each spanned axis a = _SPAN[o][s]
# in turn, the lower face (slot 2s) and the upper face (slot 2s + 1) normal to
# a; _FACE_PLANE[o] holds the slots' planes' numbers.  _NORMAL[p, o] is the
# normal axis of plane p inside such a cube, -1 where p contains o.
_SPAN = np.array([[a for a in range(4) if a != o] for o in range(4)])
_AXES = np.eye(4, dtype=np.int64)[_SPAN]
_FACE_PLANE = np.array([[PLANES.tolist().index(sorted(set(span) - {a})) for a in span
                         for _side in (0, 1)] for span in _SPAN.tolist()])
_NORMAL = np.array([[-1 if o in ij else 6 - o - sum(ij) for o in range(4)]
                    for ij in PLANES.tolist()])
# A face's corners in cyclic order, as unit shifts along its plane (i, j);
# edge k runs from corner k to corner k + 1, along i for even k and along j
# for odd k, in the direction _EDGE_SIGN[k].
_CYCLE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_RING = _CYCLE @ np.eye(4, dtype=np.int64)[PLANES]  # the shifts, plane by plane
_EDGE_SIGN = np.array([1, 1, -1, -1])


@dataclasses.dataclass(eq=False)
class KnotSurface:
    """Closed boundary surface of a cube complex, as unit lattice squares.
    One complex shares one surface (see knot_surface), so its arrays are
    read-only and issues is a tuple.  corners is the face-vertex incidence."""

    faces: np.ndarray  # (F, 6) int64 rows (corner x, y, z, w, plane axes i < j), sorted
    vertices: np.ndarray  # (V, 4) int64 lattice points, sorted
    corners: np.ndarray  # (F, 4) int64 vertices row at each face corner, in _CYCLE order
    unit: int
    n_vertices: int
    n_edges: int
    euler_characteristic: int
    orientable: bool
    connected: bool
    closed: bool
    issues: tuple


def lattice_index(table, points):
    """Row of the int lattice points `table` (n, 4) at each of `points`
    (..., 4), -1 where a point is off the lattice, outside the table's box or
    absent.  The rows are packed into sorted int64 keys and searched, one
    coordinate column at a time, an off-table one clamped into the box."""
    if not len(table):
        return np.full(np.shape(points)[:-1], -1)
    lo, hi = (np.array([f(t) for t in table.T]) for f in (np.min, np.max))
    dims = tuple(int(d) for d in hi - lo + 1)
    keys = np.ravel_multi_index(tuple(table.T - lo[:, None]), dims)
    order = np.argsort(keys)
    ok, query = True, 0
    for x, low, high, d in zip(np.moveaxis(np.asarray(points), -1, 0), lo, hi, dims):
        grid = np.rint(x)
        ok = ok & (grid == x) & (grid >= low) & (grid <= high)
        query = query * d + np.fmin(np.fmax(grid - low, 0), d - 1).astype(np.int64)
    at = np.minimum(np.searchsorted(keys, query, sorter=order), len(keys) - 1)
    return np.where(ok & (keys[order[at]] == query), order[at], -1)


def _boundary_squares(n):
    """The 6 n^2 boundary squares of a cube of n cells per side, in its cell
    index space: (6 n^2, 3) corner steps along the spanned axes, slot by
    slot, and the face slot of the one cell each square bounds."""
    uv = np.indices((n, n)).reshape(2, -1).T
    steps = np.concatenate([np.insert(uv, s, side * n, axis=1)
                            for s in range(3) for side in (0, 1)])
    return steps, np.repeat(np.arange(6), n * n)


def _orientation(neighbour, flip):
    """(orientable, reached) of face 0's component: whether a sign per face
    exists that is its neighbour's, negated where `flip` says the two traverse
    their shared edge in the same direction, and how many faces the edges
    reach from face 0.

    A parity spanning forest, built in levels over the faces' edges
    (u, v, parity).  Each root hooks to its least neighbour with a lower
    index, so every hook points down and the hooks form trees whose roots
    are their least faces.  Pointer jumping takes every face to its root and
    carries the parity of its path with it; the edges between two trees
    become edges between their roots, with the parities of both paths added,
    and the next level hooks those.  The levels end when no edge joins two
    trees: every component is one tree, rooted at its least face, and face
    0's parity to its root is 0.  The signs the tree paths give are the only
    candidates, so face 0's component is orientable exactly when every one
    of its edges agrees with them, which one final pass over the edges tests.
    """
    n = len(neighbour)
    u = np.repeat(np.arange(n), neighbour.shape[1])
    v, p = neighbour.ravel(), flip.ravel()
    # per face: the root of its tree and the parity of its path to it
    root, parity = np.arange(n), np.zeros(n, dtype=bool)
    a, b, q = u, v, p  # this level's edges, between roots
    while len(a):
        up = np.arange(n)
        down = b < a
        np.minimum.at(up, a[down], b[down])
        hop = np.zeros(n, dtype=bool)  # the parity of the hook up[x] of x
        hook = down & (b == up[a])
        hop[a[hook]] = q[hook]
        while True:
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            hop ^= hop[up]
            up = nxt
        parity ^= hop[root]
        root = up[root]
        a, b, q = up[a], up[b], q ^ hop[a] ^ hop[b]
        keep = a != b
        a, b, q = a[keep], b[keep], q[keep]
    mine = root[u] == 0
    orientable = bool((parity[u[mine]] ^ parity[v[mine]] == p[mine]).all())
    return orientable, int((root == 0).sum())


def knot_surface(c):
    """The knot surface of complex c: built on c's first call and kept on c,
    so every later call, by validate_complex, build_cover or a caller, returns
    that one object.  Its arrays are read-only and its issues a tuple."""
    return c._surface


def _build_surface(c):
    """Boundary surface = unit squares incident to exactly one unit cell.

    Each cube of n = edge // unit cells per side bounds the squares of its
    boundary with one cell each and those of its relative interior with two,
    so a square's cell count is

        sum over cubes q of [square on the boundary of q] + 2 [square inside q].

    The first term is the multiset of every cube's 6 n^2 boundary squares,
    built for all cubes of one n at once; the second is an integer box test
    against the cubes with n > 1, on the multiset's squares and on the
    squares where two such cubes meet (none on a well-formed complex).
    Faces, edges and vertices are packed into mixed-radix int64 keys over the
    cells' box, as (corner, plane), (lower endpoint, axis) and point; the
    keys sort as the tuples do, and one sort finds each kind; a square on
    more than two cells is named by the first in face-key order, and a face
    corner's vertex row is its key's place among the vertex keys.  A box too
    large for those keys raises ComplexError.
    """
    unit = c.unit
    rows = np.array([(*cu.corner, cu.edge, cu.omitted_axis) for cu in c.all_cubes],
                    dtype=np.int64).reshape(-1, 6)
    corner, n, omit = rows[:, :4], rows[:, 4] // unit, rows[:, 5]
    extent = unit * n[:, None] * (np.arange(4) != omit[:, None])
    live = n > 0
    lo = corner[live].min(axis=0)
    hi = (corner + np.maximum(extent, unit))[live].max(axis=0)  # the cells' far corner
    dims = tuple(int(d) for d in hi - lo + 1)
    if math.prod(dims) * 6 >= 2**63:  # the face keys have the largest radix, 6 planes
        raise ComplexError([f"complex box {tuple(lo.tolist())} to {tuple(hi.tolist())} "
                            "is too large for 64-bit surface keys"])

    def pack(points, code, radix):
        return np.ravel_multi_index((*(points - lo).T, code), dims + (radix,))

    # every cube's boundary squares, then the squares where two cubes with
    # n > 1 meet in a set of dimension >= 2
    squares, planes = [], []
    for m in np.unique(n[live]).tolist():
        at = np.flatnonzero(n == m)
        steps, slot = _boundary_squares(m)
        squares.append((corner[at, None] + unit * (steps @ _AXES[omit[at]])).reshape(-1, 4))
        planes.append(_FACE_PLANE[omit[at]][:, slot].ravel())
    n_bound = sum(map(len, planes))
    big = np.flatnonzero(n > 1)
    box = np.stack([corner, corner + extent], axis=-1)[big]
    cut, dim = meet(box[:, None], box[None])
    for i, j in np.argwhere(np.triu(dim >= 2, 1)).tolist():
        # the lattice points of cube i's grid in the meet, and the squares of
        # its three planes at those points that fit in the meet
        base, (low, high) = box[i, :, 0], cut[i, j].T
        first, last = -((base - low) // unit), (high - base) // unit
        points = base + unit * (first + np.indices(last - first + 1).reshape(4, -1).T)
        plane = _FACE_PLANE[omit[big[i]], ::2]
        at, k = np.nonzero((points[:, PLANES[plane]] + unit <= high[PLANES[plane]]).all(axis=-1))
        squares.append(points[at])
        planes.append(plane[k])

    keys, inverse = np.unique(pack(np.concatenate(squares), np.concatenate(planes), 6),
                              return_inverse=True)
    *xyzw, plane = np.unravel_index(keys, dims + (6,))
    square = np.column_stack(xyzw) + lo
    count = np.bincount(inverse[:n_bound], minlength=len(keys))
    # the cubes with n > 1 whose relative interior holds a square: on each
    # of their grid's axes, 1 <= steps <= n - 1 along the square's normal,
    # 0 <= steps <= n - 1 in its plane and steps == 0 on the omitted axis
    steps, rem = np.divmod(square[:, None] - corner[big], unit)
    normal = _NORMAL[plane[:, None], omit[big]]
    top = np.where(np.arange(4) == omit[big, None], 0, n[big, None] - 1)
    inside = ((normal >= 0) & (rem == 0).all(axis=-1)
              & (steps >= (np.arange(4) == normal[..., None])).all(axis=-1)
              & (steps <= top).all(axis=-1))
    count += 2 * inside.sum(axis=1)
    issues = []
    over = count > 2
    if over.any():
        f = np.argmax(over)
        example = (tuple(square[f].tolist()), tuple(PLANES[plane[f]].tolist()))
        issues.append(f"{over.sum()} faces shared by more than two cells (e.g. {example})")
    one = count == 1
    faces = np.column_stack([square[one], PLANES[plane[one]]])
    n_f = len(faces)

    # each face's corners (F, 4, 4) and its edges at rows 4 f + k
    ij = faces[:, 4:]
    ring = faces[:, None, :4] + unit * _RING[plane[one]]
    low = np.minimum(ring, np.roll(ring, -1, axis=1)).reshape(-1, 4)
    axis = ij[:, [0, 1, 0, 1]].ravel()
    e_keys, e_first, e_inverse, e_count = np.unique(
        pack(low, axis, 4), return_index=True, return_inverse=True, return_counts=True)
    bad = e_count != 2
    closed = not bad.any()
    if not closed:
        e = e_first[bad].min()
        top = low[e] + unit * (np.arange(4) == axis[e])
        ends = [tuple(low[e].tolist()), tuple(top.tolist())]
        issues.append(
            f"{bad.sum()} surface edges do not bound exactly two faces "
            f"(e.g. edge {ends} bounds {e_count[e_inverse[e]]})"
        )

    ring_keys = pack(ring.reshape(-1, 4), 0, 1)
    v_keys = np.sort(ring_keys)
    v_keys = v_keys[np.diff(v_keys, prepend=-1) != 0]  # keys are >= 0
    vertices = np.column_stack(np.unravel_index(v_keys, dims + (1,))[:4]) + lo
    corners = np.searchsorted(v_keys, ring_keys).reshape(-1, 4)
    n_v, n_e = len(vertices), len(e_keys)
    chi = n_v - n_e + n_f

    orientable = True
    connected = True
    if closed and n_f:
        # an edge's two rows: their faces are neighbours, with opposite signs
        # where both canonical cycles run the edge in the same direction
        pair = np.argsort(e_inverse, kind="stable").reshape(-1, 2)
        partner = np.empty(4 * n_f, dtype=np.int64)
        partner[pair] = pair[:, ::-1]
        sign = np.tile(_EDGE_SIGN, n_f)
        orientable, reached = _orientation((partner // 4).reshape(-1, 4),
                                           (sign == sign[partner]).reshape(-1, 4))
        connected = reached == n_f
        if not connected:
            issues.append(f"surface is disconnected ({reached} of {n_f} faces reached)")
        if not orientable:
            issues.append("surface is not orientable")
        if connected and chi != 2:
            issues.append(f"Euler characteristic {chi} != 2 (not a 2-sphere)")

    for array in (faces, vertices, corners):
        array.setflags(write=False)
    return KnotSurface(
        faces=faces,
        vertices=vertices,
        corners=corners,
        unit=unit,
        n_vertices=n_v,
        n_edges=n_e,
        euler_characteristic=chi,
        orientable=orientable,
        connected=connected,
        closed=closed,
        issues=tuple(issues),
    )
