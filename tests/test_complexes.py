import dataclasses
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildknot import cli
from wildknot import complexes as cx
from wildknot import presets
from wildknot.cover import build_cover

import oracles as orc

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def preset():
    return presets.spun_trefoil_preset()


@pytest.fixture(scope="module")
def preset_surface(preset):
    return cx.knot_surface(preset)


class TestCube3:
    def test_intervals(self):
        c = cx.Cube3((1, 2, 3, 4), 2, 3)
        # degenerate on the omitted axis
        assert cx.boxes([c]).tolist() == [[[1, 3], [2, 4], [3, 5], [4, 4]]]
        assert [orc.interval(c, a) for a in range(4)] == [(1, 3), (2, 4), (3, 5), (4, 4)]
        assert cx.boxes([]).shape == (0, 4, 2)

    def test_box_intersection_dims(self):
        a = cx.boxes([cx.Cube3((0, 0, 0, 0), 1, 3)])
        others = cx.boxes([cx.Cube3((1, 0, 0, 0), 1, 3), cx.Cube3((1, 1, 0, 0), 1, 3),
                           cx.Cube3((2, 0, 0, 0), 1, 3),
                           # same footprint, other omitted axis: the z=0 square
                           cx.Cube3((0, 0, 0, 0), 1, 2)])
        box, dim = cx.meet(a, others)
        assert dim.tolist() == [2, 1, -1, 2]
        assert cx._meet_dim(a, others).tolist() == [2, 1, -1, 2]
        assert box[3].tolist() == [[0, 1], [0, 1], [0, 0], [0, 0]]

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            cx.Cube3((0, 0, 0, 0), 0, 3)
        with pytest.raises(ValueError):
            cx.Cube3((0, 0, 0, 0), 1, 4)


class TestPresetComplex:
    def test_validates(self, preset, preset_surface):
        assert cx.validate_complex(preset) == []
        surf = cx.knot_surface(preset)
        for field in dataclasses.fields(cx.KnotSurface):
            got, want = getattr(surf, field.name), getattr(preset_surface, field.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name

    def test_hyperplane_levels(self, preset):
        assert preset.hyperplane_levels() == [-27, 0, 54, 81]

    def test_edge_ratio(self, preset):
        assert preset.big[0].edge == 27
        assert preset.unit == 1
        assert preset.big[0].edge // preset.unit == 27

    def test_attach_squares_are_centered_units(self, preset):
        squares = preset.attach_squares()
        assert len(squares) == 2
        for sq, big in zip(squares, preset.big):
            sides = [hi - lo for lo, hi in sq if hi > lo]
            assert sides == [1, 1]
            for a in range(4):
                lo, hi = sq[a]
                if hi > lo:
                    blo, bhi = orc.interval(big, a)
                    assert lo + hi == blo + bhi  # centered

    def test_consecutive_cubes_share_full_faces(self, preset):
        chain = cx.boxes(preset.all_cubes)
        box, dim = cx.meet(chain[:-1], chain[1:])
        assert (dim == 2).all()
        assert (np.sort(box[..., 1] - box[..., 0], axis=1)[:, 2:] == preset.unit).all()


class TestValidatorRejections:
    def test_empty_tube(self, monkeypatch):
        c = cx.CubeComplex(
            (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((10, 0, 0, 0), 3, 3)), ()
        )
        built = []
        monkeypatch.setattr(cx, "_build_surface", built.append)
        assert any("empty tube" in s for s in cx.validate_complex(c))
        assert built == []

    def test_edge_only_contact_named(self):
        # tube cube meets Q0 along an edge instead of a face
        big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((10, 0, 0, 0), 3, 3))
        tube = (cx.Cube3((3, 3, 0, 0), 1, 3),)
        issues = cx.validate_complex(cx.CubeComplex(big, tube))
        assert any("Q0 and tube[0]" in s for s in issues)

    def test_off_center_attachment(self):
        big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 6), 3, 3))
        tube = tuple(cx.Cube3((0, 1, 0, w), 1, 2) for w in range(3, 6))
        issues = cx.validate_complex(cx.CubeComplex(big, tube))
        assert any("off-center" in s for s in issues)

    def test_overlapping_nonconsecutive_cubes(self):
        big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 6), 3, 3))
        # straight stack with a duplicated cube far apart in sequence order
        tube = (
            cx.Cube3((1, 1, 0, 3), 1, 2),
            cx.Cube3((1, 1, 0, 4), 1, 2),
            cx.Cube3((1, 1, 0, 3), 1, 2),
        )
        issues = cx.validate_complex(cx.CubeComplex(big, tube))
        assert any("disjoint closures" in s for s in issues)

    def test_loads_rejects_bad_header(self):
        with pytest.raises(cx.ComplexError):
            cx.loads_complex("not-a-header\nbig 0 0 0 0 3 3\n")


def test_meet_matches_the_scalar_reference():
    """Every pair of a batch of random small cubes, the pair with itself
    included, gets the scalar box and dimension (-1 for None), from meet and
    from the dimension-only _meet_dim."""
    rng = np.random.default_rng(7)
    cubes = [cx.Cube3(tuple(rng.integers(-2, 3, 4).tolist()), int(rng.integers(1, 4)),
                      int(rng.integers(4))) for _ in range(40)]
    b = cx.boxes(cubes)
    box, dim = cx.meet(b[:, None], b[None])
    assert np.array_equal(cx._meet_dim(b[:, None], b[None]), dim)
    for i, p in enumerate(cubes):
        for j, q in enumerate(cubes):
            want = orc.box_intersection(p, q)
            if want is None:
                assert dim[i, j] == -1
            else:
                assert list(map(tuple, box[i, j].tolist())) == want
                assert dim[i, j] == orc.intersection_dim(want)
    assert set(dim.ravel().tolist()) == {-1, 0, 1, 2, 3}


def _q(corner, edge=3, omit=3):
    return cx.Cube3(corner, edge, omit)


def _tube(*corners, omit=2):
    return tuple(cx.Cube3(c, 1, omit) for c in corners)


_STRAIGHT = orc.straight_tube_complex()
_Q0, _Q1 = _STRAIGHT.big
_OVERLAP = "(non-consecutive cubes must have disjoint closures)"

# One broken complex per validate_complex rule, with its exact issue list.  The
# "flat" tubes lie in the hyperplane w = 0 with both big cubes.
NEGATIVE_CONTROLS = {
    "big-count": (
        cx.CubeComplex((_Q0,), _STRAIGHT.tube), ["need exactly 2 big cubes, got 1"]),
    "empty-tube": (
        cx.CubeComplex((_Q0, _Q1), ()), ["empty tube: no fusion between the two big cubes"]),
    "tube-edge": (
        cx.CubeComplex((_Q0, _Q1), _tube((1, 1, 0, 0)) + (cx.Cube3((1, 1, 0, 1), 2, 2),)
                       + _tube((1, 1, 0, 3), (1, 1, 0, 4), (1, 1, 0, 5))),
        ["tube cube 1 has edge 2, expected uniform 1"]),
    "big-edges": (
        cx.CubeComplex((_Q0, _q((-1, -1, -1, 6), 5)), _STRAIGHT.tube),
        ["big cubes differ in edge length"]),
    "big-multiple": (
        cx.CubeComplex((_q((0, 0, 0, 0), 5), _q((0, 0, 0, 9), 5)),
                       tuple(cx.Cube3((1, 1, 0, w), 3, 2) for w in (0, 3, 6))),
        ["big edge is not a multiple of the tube unit"]),
    "edge-contact": (
        cx.CubeComplex((_Q0, _q((2, 0, 0, 6))), _STRAIGHT.tube),
        ["tube[5] and Q1 do not meet in a 2-face"]),
    "rectangle": (
        cx.CubeComplex((_Q0, _q((2, 0, 0, 3))),
                       _tube((1, 1, 0, 0)) + (cx.Cube3((1, 0, 0, 1), 2, 2),)),
        ["tube cube 1 has edge 2, expected uniform 1",
         "tube[1] and Q1 meet in a 1x2 rectangle, not a 1x1 square",
         "attach square of Q1 is off-center along axis 0 (square center 2.5, face center 3.5)",
         "attach square of Q1 is off-center along axis 1 (square center 1.0, face center 1.5)"]),
    "off-center": (
        cx.CubeComplex((_Q0, _Q1), _tube(*[(0, 1, 0, w) for w in range(6)])),
        ["attach square of Q0 is off-center along axis 0 (square center 0.5, face center 1.5)",
         "attach square of Q1 is off-center along axis 0 (square center 0.5, face center 1.5)"]),
    "big-meet": (
        cx.CubeComplex((_q((0, 0, 0, 0)), _q((3, 0, 0, 0))), _tube(
            (1, 1, 3, 0), (1, 1, 4, 0), (2, 1, 4, 0), (3, 1, 4, 0), (4, 1, 4, 0), (4, 1, 3, 0),
            omit=3)),
        ["Q0 and Q1 intersect"]),
    "touch": (
        cx.CubeComplex((_q((0, 0, 0, 0)), _q((6, 0, 0, 0))), _tube(
            (1, 1, 3, 0), (2, 1, 3, 0), *[(x, 1, 4, 0) for x in range(2, 8)], (7, 1, 3, 0),
            omit=3)),
        ["tube[1] touches Q0 away from the attach square"]),
    "overlap": (
        cx.CubeComplex((_q((0, 0, 0, 0)), _q((6, 0, 0, 0))), _tube(
            (1, 1, 3, 0), (1, 1, 4, 0), (1, 1, 5, 0), (2, 1, 5, 0),
            *[(x, 1, 4, 0) for x in range(2, 8)], (7, 1, 3, 0), omit=3)),
        [f"tube[0] and tube[4] overlap in a 1-dimensional set {_OVERLAP}",
         f"tube[1] and tube[4] overlap in a 2-dimensional set {_OVERLAP}"]),
    # a connector and a hyperplane cube per level, stepping up in z
    "levels": (
        cx.CubeComplex((_Q0, _q((0, 0, 3, 4))), tuple(
            cx.Cube3((1, 1, k // 2, (k + 1) // 2), 1, 2 + k % 2) for k in range(7))),
        ["hyperplane cubes occupy 5 levels [0, 1, 2, 3, 4], expected <= 4"]),
    # every connector lies below the only level, w = 0
    "connector-dip": (
        cx.CubeComplex((_q((0, 0, 0, 0)), _q((6, 0, 0, 0))), _tube(
            (1, 1, 0, -1), (1, 1, 0, -2), *[(x, 1, 0, -2) for x in range(2, 8)], (7, 1, 0, -1))),
        [f"tube[{i}] connector leaves the hyperplane range" for i in range(9)]),
    # the straight tube complex with the axes x and w swapped
    "no-levels": (
        cx.CubeComplex((_q((0, 0, 0, 0), 3, 0), _q((6, 0, 0, 0), 3, 0)),
                       _tube(*[(w, 1, 0, 1) for w in range(6)])),
        ["no cube lies in a w-hyperplane"]),
}


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_check_complex_negative_controls(name, monkeypatch):
    """Each broken complex gets exactly its rule's issues from
    validate_complex, as the one-pair-at-a-time reference finds them, and
    builds no surface.  The complex is a fresh copy, so a surface that
    another test built on the shared control cannot hide a build here."""
    c, want = NEGATIVE_CONTROLS[name]
    c = cx.CubeComplex(c.big, c.tube)
    built = []
    monkeypatch.setattr(cx, "_build_surface", built.append)
    assert cx.validate_complex(c) == want
    assert orc.structural_issues(c) == want
    assert built == []


def test_connector_dip_has_a_sphere_surface():
    """The connector-dip control fails only the connector rule: its surface
    is a 2-sphere, so only the level range can reject it."""
    c, _want = NEGATIVE_CONTROLS["connector-dip"]
    surf = cx.knot_surface(c)
    assert surf.issues == () and surf.euler_characteristic == 2


def _scaled(edge):
    return lambda: presets.spun_trefoil_preset(edge)


VALID_AND_INVALID = {
    "preset": presets.spun_trefoil_preset,
    "scaled-5": _scaled(5),
    "scaled-11": _scaled(11),
    "scaled-27": _scaled(27),
    "straight-tube": orc.straight_tube_complex,
    "single-cube-3": lambda: orc.degenerate_single_cube(3),
}


@pytest.mark.parametrize("name", VALID_AND_INVALID)
def test_check_complex_matches_the_reference(name, monkeypatch):
    """validate_complex's issue list equals the reference's, in order (the
    surface's issues when the structure passes), with the tube-by-tube meet
    in its default blocks and in blocks of a few rows."""
    c = VALID_AND_INVALID[name]()
    want = orc.structural_issues(c)
    issues = cx.validate_complex(c)
    assert issues == (want or list(cx.knot_surface(c).issues))
    monkeypatch.setattr(cx, "PAIR_BLOCK", 3 * len(c.tube) - 1)
    assert cx.validate_complex(c) == issues
    if name == "scaled-5":
        assert issues == [f"tube[50] and tube[53] overlap in a 0-dimensional set {_OVERLAP}"]


def test_one_complex_builds_its_surface_once(tmp_path, monkeypatch):
    """The complex keeps its surface: the checks, knot_surface, build_cover
    and a run on it share one build.  An equal but distinct complex builds
    its own, and equality and hashing see only the cubes: perfbench's copy
    of the preset's construction against the builder at every edge the
    suite builds."""
    original = cx._build_surface
    built = []

    def counted(c):
        built.append(c)
        return original(c)

    monkeypatch.setattr(cx, "_build_surface", counted)
    c = orc.straight_tube_complex()
    assert cx.validate_complex(c) == []
    surf = cx.knot_surface(c)
    assert build_cover(c).vertices is surf.vertices
    run = cli.Run(cli.RunConfig(out_dir=str(tmp_path)))
    run.complex = c  # the run on this very complex
    assert run.surface is surf and run.cover.vertices is surf.vertices
    assert len(built) == 1 and built[0] is c

    twin = cx.loads_complex(cx.dumps_complex(c))
    assert twin == c and hash(twin) == hash(c) and twin is not c
    assert cx.knot_surface(twin) is not surf
    assert len(built) == 2 and built[1] is twin
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for edge in (5, 9, 11, 13, 27):
        scaled, preset = workloads.scaled_spun_trefoil(edge), presets.spun_trefoil_preset(edge)
        assert cx.knot_surface(scaled) is not cx.knot_surface(preset)
        assert scaled == preset and hash(scaled) == hash(preset)


def test_the_shared_surface_is_read_only(preset_surface):
    """Every caller of one complex gets the same surface, so none can change
    it: its arrays refuse writes and its issues are a tuple."""
    for array in (preset_surface.faces, preset_surface.vertices):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            array[:, :2] += 1
    assert isinstance(preset_surface.issues, tuple)
    with pytest.raises(AttributeError):
        preset_surface.issues.append("a late issue")


def test_attach_squares_match_the_reference():
    """On every complex above, and on a tube that meets neither big cube."""
    loose = cx.CubeComplex((_Q0, _Q1), _tube((5, 5, 0, 3)))
    assert loose.attach_squares() == [None, None]
    complexes = [make() for make in VALID_AND_INVALID.values()]
    for c in complexes + [c for c, _want in NEGATIVE_CONTROLS.values()] + [loose]:
        assert c.attach_squares() == orc.attach_squares(c)


class TestSurface:
    def test_preset_is_a_sphere(self, preset_surface):
        s = preset_surface
        assert s.closed and s.connected and s.orientable
        assert s.euler_characteristic == 2
        assert s.issues == ()
        assert s.n_vertices - s.n_edges + len(s.faces) == 2

    def test_single_cube_boundary(self):
        s = cx.knot_surface(orc.degenerate_single_cube(edge=3))
        assert s.euler_characteristic == 2
        assert len(s.faces) == 6 * 9  # rasterized to unit squares
        assert s.closed and s.orientable

    def test_unit_cube_boundary_counts(self):
        s = cx.knot_surface(cx.CubeComplex((cx.Cube3((0, 0, 0, 0), 1, 3),), ()))
        assert (s.n_vertices, s.n_edges, len(s.faces)) == (8, 12, 6)

    def test_attach_squares_not_on_surface(self, preset, preset_surface):
        faces = {tuple(f) for f in preset_surface.faces.tolist()}
        for sq in preset.attach_squares():
            corner = tuple(lo for lo, hi in sq)
            axes = tuple(a for a in range(4) if sq[a][1] > sq[a][0])
            assert corner + axes not in faces

    def test_two_sheets_at_an_edge_detected(self):
        # two unit cubes sharing one edge -> pinched, non-manifold surface
        c = cx.CubeComplex(
            (cx.Cube3((0, 0, 0, 0), 1, 3),), (cx.Cube3((1, 1, 0, 0), 1, 3),)
        )
        s = cx.knot_surface(c)
        assert not s.closed or not s.connected


def _unit_cubes(*corners):
    return cx.CubeComplex((cx.Cube3(corners[0], 1, 3),),
                          tuple(cx.Cube3(c, 1, 3) for c in corners[1:]))


REFERENCE_INPUTS = {
    "preset": (presets.spun_trefoil_preset, None),
    "single-cube-1": (lambda: orc.degenerate_single_cube(1), None),
    "single-cube-3": (lambda: orc.degenerate_single_cube(3), None),
    "straight-tube": (orc.straight_tube_complex, None),
    # a unit cube stacked twice inside a 2-cube: 3 cells at its inner faces
    "overlapping": (lambda: cx.CubeComplex(
        (cx.Cube3((0, 0, 0, 0), 2, 3),),
        (cx.Cube3((1, 0, 0, 0), 1, 3), cx.Cube3((1, 0, 0, 0), 1, 3))),
        "faces shared by more than two cells (e.g. ((1, 0, 0, 0), (0, 1)))"),
    "edge-contact": (lambda: _unit_cubes((0, 0, 0, 0), (1, 1, 0, 0)),
                     "do not bound exactly two faces"),
    "disjoint": (lambda: _unit_cubes((0, 0, 0, 0), (5, 0, 0, 0)), "surface is disconnected"),
    # every interior square lies inside both cubes and on neither boundary
    "identical-big-cubes": (lambda: cx.CubeComplex(
        (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 0), 3, 3)), ()),
        "faces shared by more than two cells (e.g. ((0, 0, 1, 0), (0, 1)))"),
    # the unit cube's faces lie in the 3-cube's relative interior
    "unit-inside-3-cube": (lambda: cx.CubeComplex(
        (cx.Cube3((0, 0, 0, 0), 3, 3),), (cx.Cube3((1, 1, 1, 0), 1, 3),)),
        "faces shared by more than two cells (e.g. ((1, 1, 1, 0), (0, 1)))"),
    # 2-cubes in the flats w = 0 and z = 0 meet in the square [0, 2]^2 x {0}^2,
    # whose four unit squares lie inside both cubes and on neither boundary
    "crossing-2-cubes": (lambda: cx.CubeComplex(
        (cx.Cube3((0, 0, -1, 0), 2, 3), cx.Cube3((0, 0, 0, -1), 2, 2)), ()),
        "faces shared by more than two cells"),
    # edge 5 on a unit of 2: the cube is rasterized as 2 x 2 x 2 cells of side 2
    "edge-not-a-multiple": (lambda: cx.CubeComplex(
        (cx.Cube3((0, 0, 0, 0), 5, 3),), (cx.Cube3((4, 0, 0, 0), 2, 3),)), None),
}


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_surface_matches_the_reference(name):
    """The array surface equals the dict reference field by field, the issue
    strings and their examples included; each malformed input names its fault,
    and a square on more than two cells is named by the first in face order."""
    make, fault = REFERENCE_INPUTS[name]
    c = make()
    got, want = cx.knot_surface(c), orc.knot_surface(c)
    assert [(tuple(f[:4]), tuple(f[4:])) for f in got.faces.tolist()] == want["faces"]
    assert [tuple(v) for v in got.vertices.tolist()] == want["vertices"]
    for field in ("unit", "n_vertices", "n_edges", "euler_characteristic", "orientable",
                  "connected", "closed", "issues"):
        assert getattr(got, field) == want[field], field
    if fault is None:
        assert got.issues == ()
    else:
        assert any(fault in issue for issue in got.issues)


_CUBES = st.builds(cx.Cube3, st.tuples(*[st.integers(0, 3)] * 4), st.integers(1, 3),
                   st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CUBES, min_size=1, max_size=4), st.integers(1, 2))
def test_random_surfaces_match_the_reference(cubes, n_big):
    """1-4 cubes of edge 1-3 with corners in a 4^4 box, overlapping at will:
    the boundary-square count equals the reference's cell-by-cell count, the
    issue strings and their examples included."""
    n_big = min(n_big, len(cubes))
    c = cx.CubeComplex(tuple(cubes[:n_big]), tuple(cubes[n_big:]))
    got, want = cx.knot_surface(c), orc.knot_surface(c)
    assert [(tuple(f[:4]), tuple(f[4:])) for f in got.faces.tolist()] == want["faces"]
    assert [tuple(v) for v in got.vertices.tolist()] == want["vertices"]
    for field in ("unit", "n_vertices", "n_edges", "euler_characteristic", "orientable",
                  "connected", "closed", "issues"):
        assert getattr(got, field) == want[field], field


def _grid_surface(m, n, klein=False, seed=0):
    """(neighbour, flip) of an m x n grid of faces glued into a torus, or into
    a Klein bottle: the wrap along j glued with the reflection i -> m - 1 - i
    and its edges flipped.  The faces carry random signs, which the flips of
    the other edges encode."""
    i, j = np.divmod(np.arange(m * n), n)
    ni = (i[:, None] + np.array([1, -1, 0, 0])) % m
    nj = j[:, None] + np.array([0, 0, 1, -1])
    wrap = (nj < 0) | (nj >= n)
    if klein:
        ni = np.where(wrap, m - 1 - ni, ni)
    neighbour = ni * n + nj % n
    sign = np.random.default_rng(seed).integers(0, 2, m * n).astype(bool)
    flip = sign[:, None] != sign[neighbour]
    return neighbour, flip ^ wrap if klein else flip


def _strip(length, twisted=False, seed=0):
    """(neighbour, flip) of a closed strip of faces, each meeting the one
    before and after it; a twisted strip (a Moebius band) flips its wrap."""
    f = np.arange(length)
    neighbour = (f[:, None] + np.array([-1, 1])) % length
    sign = np.random.default_rng(seed).integers(0, 2, length).astype(bool)
    flip = sign[:, None] != sign[neighbour]
    if twisted:
        flip[0, 0] = flip[-1, 1] = ~flip[0, 0]
    return neighbour, flip


def _beside(first, second):
    """Two surfaces as one, the second's faces numbered after the first's."""
    (n1, f1), (n2, f2) = first, second
    return np.concatenate([n1, n2 + len(n1)]), np.concatenate([f1, f2])


_ORIENTATION_CASES = {
    # name: ((neighbour, flip), (orientable, reached))
    "torus 7x9": (_grid_surface(7, 9), (True, 63)),
    "torus 1x5": (_grid_surface(1, 5), (True, 5)),
    "klein 6x8": (_grid_surface(6, 8, klein=True), (False, 48)),
    "torus then klein": (_beside(_grid_surface(5, 6), _grid_surface(4, 4, klein=True)),
                         (True, 30)),
    "klein then torus": (_beside(_grid_surface(4, 4, klein=True), _grid_surface(5, 6)),
                         (False, 16)),
    "strip": (_strip(3000), (True, 3000)),
    "twisted strip": (_strip(3001, twisted=True), (False, 3001)),
}


@pytest.mark.parametrize("relabel", [None, 0, 1, 2])
@pytest.mark.parametrize("name", _ORIENTATION_CASES)
def test_orientation_forest_matches_the_search(name, relabel):
    """The parity forest gives the breadth-first search's (orientable,
    reached) on tori, Klein bottles, two components side by side (only face
    0's counts, a bad second one included) and long strips, and again after a
    random relabelling of the faces, which makes hooks to lower neighbours
    rare, so the forest takes several levels."""
    (neighbour, flip), want = _ORIENTATION_CASES[name]
    assert orc.orientation(neighbour, flip) == want
    if relabel is not None:  # face f becomes face new[f]
        new = np.random.default_rng(relabel).permutation(len(neighbour))
        neighbour, flip = new[neighbour], flip.copy()
        neighbour[new], flip[new] = neighbour.copy(), flip.copy()
        want = orc.orientation(neighbour, flip)
    assert cx._orientation(neighbour, flip) == want


class TestFileRoundtrip:
    def test_roundtrip(self, tmp_path, preset):
        p = tmp_path / "preset.complex"
        cx.save_complex(preset, p)
        again = orc.load_complex(p)
        assert again == preset

    def test_load_validates(self, tmp_path):
        p = tmp_path / "bad.complex"
        bad = cx.CubeComplex(
            (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((10, 0, 0, 0), 3, 3)), ()
        )
        cx.save_complex(bad, p)
        with pytest.raises(cx.ComplexError, match="empty tube"):
            orc.load_complex(p)
