"""Cube complexes supporting a ribbon 2-knot, and their boundary surfaces.

A complex is two large 3-cubes (the knot's two ball factors) joined by a tube
of unit 3-cubes embedded in R^4.  Each cube is axis-aligned and spans exactly
three of the four coordinate axes; consecutive tube cubes share a full square
2-face.  The knot surface is the boundary of the resulting 3-manifold: after
rasterizing everything to unit cells, it is the set of unit square 2-faces
incident to exactly one cell.

Lattice tubes cannot turn without the cube before a turn and the cube after
it touching along a single edge, so the disjointness rule for non-consecutive
cubes admits exactly that contact for pairs at sequence distance two.  The
decisive well-formedness test is on the surface itself: every edge must bound
exactly two surface squares (closed 2-manifold), Euler characteristic must be
2 and a consistent orientation must exist.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict, deque

FORMAT_HEADER = "wildknot-complex 1"


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

    @property
    def spanned_axes(self):
        return tuple(a for a in range(4) if a != self.omitted_axis)

    def interval(self, axis):
        """Closed extent along an axis; degenerate on the omitted axis."""
        lo = self.corner[axis]
        return (lo, lo if axis == self.omitted_axis else lo + self.edge)

    def box_intersection(self, other):
        """Closed-box intersection as intervals, or None if empty."""
        out = []
        for a in range(4):
            lo = max(self.interval(a)[0], other.interval(a)[0])
            hi = min(self.interval(a)[1], other.interval(a)[1])
            if lo > hi:
                return None
            out.append((lo, hi))
        return out


def intersection_dim(box):
    return sum(1 for lo, hi in box if hi > lo)


@dataclasses.dataclass(frozen=True)
class CubeComplex:
    big: tuple[Cube3, ...]  # normally (Q0, Q1); a single cube in degenerate test mode
    tube: tuple[Cube3, ...]

    @property
    def all_cubes(self):
        if len(self.big) == 2:
            return (self.big[0],) + self.tube + (self.big[1],)
        return self.big + self.tube

    @property
    def unit(self):
        return self.tube[0].edge if self.tube else 1

    def attach_squares(self):
        """The two squares where the tube meets the big cubes (boxes)."""
        if len(self.big) != 2 or not self.tube:
            return []
        return [
            self.big[0].box_intersection(self.tube[0]),
            self.big[1].box_intersection(self.tube[-1]),
        ]

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
        try:
            cube = Cube3(tuple(nums[:4]), nums[4], nums[5])
        except ValueError as exc:
            raise ComplexError([f"{exc} in record: {ln!r}"]) from None
        (big if parts[0] == "big" else tube).append(cube)
    return CubeComplex(tuple(big), tuple(tube))


def save_complex(c, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(c))


# ---------------------------------------------------------------------------
# Structural validation


def validate_complex(c):
    """Return a list of human-readable invariant violations (empty = valid)."""
    return check_complex(c)[0]


def check_complex(c):
    """Invariant violations (empty = valid) and the knot surface, together.

    Returns (issues, surface).  The surface is built only once the structural
    checks pass, and is None when they fail.
    """
    issues = []
    if len(c.big) != 2:
        issues.append(f"need exactly 2 big cubes, got {len(c.big)}")
        return issues, None
    if not c.tube:
        issues.append("empty tube: no fusion between the two big cubes")
        return issues, None
    unit = c.tube[0].edge
    for i, t in enumerate(c.tube):
        if t.edge != unit:
            issues.append(f"tube cube {i} has edge {t.edge}, expected uniform {unit}")
    if c.big[0].edge != c.big[1].edge:
        issues.append("big cubes differ in edge length")
    if c.big[0].edge % unit != 0:
        issues.append("big edge is not a multiple of the tube unit")

    chain = [c.big[0]] + list(c.tube) + [c.big[1]]
    names = ["Q0"] + [f"tube[{i}]" for i in range(len(c.tube))] + ["Q1"]

    # consecutive cubes share exactly one full unit square 2-face
    for i in range(len(chain) - 1):
        box = chain[i].box_intersection(chain[i + 1])
        if box is None or intersection_dim(box) != 2:
            issues.append(f"{names[i]} and {names[i + 1]} do not meet in a 2-face")
            continue
        sides = sorted(hi - lo for lo, hi in box if hi > lo)
        if sides != [unit, unit]:
            issues.append(
                f"{names[i]} and {names[i + 1]} meet in a {sides[0]}x{sides[1]} "
                f"rectangle, not a {unit}x{unit} square"
            )

    # attachment squares centered at the centers of big-cube faces
    for b_idx, (big, t) in enumerate([(c.big[0], c.tube[0]), (c.big[1], c.tube[-1])]):
        box = big.box_intersection(t)
        if box is None or intersection_dim(box) != 2:
            continue  # already reported
        square_axes = [a for a in range(4) if box[a][1] > box[a][0]]
        for a in square_axes:
            mid = (box[a][0] + box[a][1]) / 2.0
            big_mid = (big.interval(a)[0] + big.interval(a)[1]) / 2.0
            if mid != big_mid:
                issues.append(
                    f"attach square of Q{b_idx} is off-center along axis {a} "
                    f"(square center {mid}, face center {big_mid})"
                )

    # big cubes meet the tube nowhere else, and never each other
    if c.big[0].box_intersection(c.big[1]) is not None:
        issues.append("Q0 and Q1 intersect")
    for b_idx, big in enumerate(c.big):
        for i, t in enumerate(c.tube):
            if (b_idx, i) in ((0, 0), (1, len(c.tube) - 1)):
                continue
            if big.box_intersection(t) is not None:
                issues.append(f"tube[{i}] touches Q{b_idx} away from the attach square")

    # non-consecutive tube cubes: disjoint closures, except that the cubes
    # immediately before and after a turn may share exactly one edge
    for i in range(len(c.tube)):
        for j in range(i + 2, len(c.tube)):
            box = c.tube[i].box_intersection(c.tube[j])
            if box is None:
                continue
            dim = intersection_dim(box)
            if j == i + 2 and dim == 1:
                continue  # turn contact: a single shared edge
            issues.append(
                f"tube[{i}] and tube[{j}] overlap in a {dim}-dimensional set "
                "(non-consecutive cubes must have disjoint closures)"
            )

    # every cube lies in a w-hyperplane or is a vertical (w-spanning) connector
    levels = c.hyperplane_levels()
    if len(levels) > 4:
        issues.append(f"hyperplane cubes occupy {len(levels)} levels {levels}, expected <= 4")
    lo_w = min(cu.interval(3)[0] for cu in c.all_cubes)
    hi_w = max(cu.interval(3)[1] for cu in c.all_cubes)
    for i, t in enumerate(c.tube):
        if t.omitted_axis != 3:
            w0, w1 = t.interval(3)
            if w0 < lo_w or w1 > hi_w:
                issues.append(f"tube[{i}] connector leaves the hyperplane range")

    if issues:
        return issues, None
    surf = knot_surface(c)
    return list(surf.issues), surf


# ---------------------------------------------------------------------------
# Rasterization and the boundary surface

Face = tuple[tuple[int, int, int, int], tuple[int, int]]  # (corner, spanned axis pair)


def rasterize(c):
    """All cubes as unit 3-cells: list of (corner, spanned_axes)."""
    unit = c.unit
    cells = []
    for cube in c.all_cubes:
        n = cube.edge // unit
        ax = cube.spanned_axes
        base = cube.corner
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    corner = list(base)
                    corner[ax[0]] += i * unit
                    corner[ax[1]] += j * unit
                    corner[ax[2]] += k * unit
                    cells.append((tuple(corner), ax))
    return cells


def _cell_faces(corner, axes, unit):
    for a in axes:
        rest = tuple(b for b in axes if b != a)
        lo = corner
        hi = list(corner)
        hi[a] += unit
        yield (lo, rest)
        yield (tuple(hi), rest)


def face_vertices(face, unit):
    corner, (i, j) = face
    v1 = list(corner)
    v1[i] += unit
    v2 = list(corner)
    v2[j] += unit
    v3 = list(v1)
    v3[j] += unit
    return [corner, tuple(v1), tuple(v3), tuple(v2)]  # cyclic order around the face


def face_edges_directed(face, unit):
    vs = face_vertices(face, unit)
    return [(vs[k], vs[(k + 1) % 4]) for k in range(4)]


@dataclasses.dataclass
class KnotSurface:
    """Closed boundary surface of a cube complex, as unit lattice squares."""

    faces: list  # list of Face, sorted (deterministic)
    unit: int
    n_vertices: int
    n_edges: int
    euler_characteristic: int
    orientable: bool
    connected: bool
    closed: bool
    issues: list

    @property
    def vertices(self):
        seen = set()
        for f in self.faces:
            seen.update(face_vertices(f, self.unit))
        return sorted(seen)


def knot_surface(c):
    """Boundary surface = unit faces incident to exactly one rasterized cell."""
    unit = c.unit
    count = defaultdict(int)
    for corner, axes in rasterize(c):
        for face in _cell_faces(corner, axes, unit):
            count[face] += 1
    issues = []
    over = [f for f, n in count.items() if n > 2]
    if over:
        issues.append(f"{len(over)} faces shared by more than two cells (e.g. {over[0]})")
    faces = sorted(f for f, n in count.items() if n == 1)

    # closedness: every edge must bound exactly two surface faces
    edge_faces = defaultdict(list)
    for idx, f in enumerate(faces):
        for a, b in face_edges_directed(f, unit):
            edge_faces[frozenset((a, b))].append(idx)
    bad_edges = {e: fs for e, fs in edge_faces.items() if len(fs) != 2}
    closed = not bad_edges
    if bad_edges:
        e, fs = next(iter(bad_edges.items()))
        issues.append(
            f"{len(bad_edges)} surface edges do not bound exactly two faces "
            f"(e.g. edge {sorted(e)} bounds {len(fs)})"
        )

    vertices = set()
    for f in faces:
        vertices.update(face_vertices(f, unit))
    n_v, n_e, n_f = len(vertices), len(edge_faces), len(faces)
    chi = n_v - n_e + n_f

    orientable = True
    connected = True
    if closed and faces:
        # Propagate orientations: adjacent faces must traverse a shared edge
        # in opposite directions.  sign[i] flips face i's canonical cycle.
        directed = [set(face_edges_directed(f, unit)) for f in faces]
        sign = [0] * len(faces)
        sign[0] = 1
        queue = deque([0])
        reached = 1
        while queue:
            i = queue.popleft()
            for a, b in directed[i]:
                e = frozenset((a, b))
                for j in edge_faces[e]:
                    if j == i:
                        continue
                    # same-direction edge in both canonical cycles => opposite signs
                    want = -sign[i] if (a, b) in directed[j] else sign[i]
                    if sign[j] == 0:
                        sign[j] = want
                        reached += 1
                        queue.append(j)
                    elif sign[j] != want:
                        orientable = False
        connected = reached == len(faces)
        if not connected:
            issues.append(f"surface is disconnected ({reached} of {len(faces)} faces reached)")
        if not orientable:
            issues.append("surface is not orientable")
        if connected and chi != 2:
            issues.append(f"Euler characteristic {chi} != 2 (not a 2-sphere)")

    return KnotSurface(
        faces=faces,
        unit=unit,
        n_vertices=n_v,
        n_edges=n_e,
        euler_characteristic=chi,
        orientable=orientable,
        connected=connected,
        closed=closed,
        issues=issues,
    )
