import dataclasses

import numpy as np
import pytest

from wildknot import complexes as cx
from wildknot import presets

import oracles as orc


@pytest.fixture(scope="module")
def preset():
    return presets.spun_trefoil_preset()


@pytest.fixture(scope="module")
def preset_surface(preset):
    return cx.knot_surface(preset)


class TestCube3:
    def test_intervals(self):
        c = cx.Cube3((1, 2, 3, 4), 2, 3)
        assert c.spanned_axes == (0, 1, 2)
        assert c.interval(0) == (1, 3)
        assert c.interval(3) == (4, 4)  # degenerate on the omitted axis

    def test_box_intersection_dims(self):
        a = cx.Cube3((0, 0, 0, 0), 1, 3)
        assert cx.intersection_dim(a.box_intersection(cx.Cube3((1, 0, 0, 0), 1, 3))) == 2
        assert cx.intersection_dim(a.box_intersection(cx.Cube3((1, 1, 0, 0), 1, 3))) == 1
        assert a.box_intersection(cx.Cube3((2, 0, 0, 0), 1, 3)) is None
        # same footprint, different omitted axis: shares only the z=0 plane square
        fold = a.box_intersection(cx.Cube3((0, 0, 0, 0), 1, 2))
        assert cx.intersection_dim(fold) == 2

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            cx.Cube3((0, 0, 0, 0), 0, 3)
        with pytest.raises(ValueError):
            cx.Cube3((0, 0, 0, 0), 1, 4)


class TestPresetComplex:
    def test_validates(self, preset, preset_surface):
        assert cx.validate_complex(preset) == []
        issues, surf = cx.check_complex(preset)
        assert issues == []
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
                    blo, bhi = big.interval(a)
                    assert lo + hi == blo + bhi  # centered

    def test_consecutive_cubes_share_full_faces(self, preset):
        chain = preset.all_cubes
        for i in range(len(chain) - 1):
            box = chain[i].box_intersection(chain[i + 1])
            assert box is not None and cx.intersection_dim(box) == 2


class TestValidatorRejections:
    def test_empty_tube(self):
        c = cx.CubeComplex(
            (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((10, 0, 0, 0), 3, 3)), ()
        )
        assert any("empty tube" in s for s in cx.validate_complex(c))
        issues, surf = cx.check_complex(c)
        assert surf is None and any("empty tube" in s for s in issues)

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


class TestSurface:
    def test_preset_is_a_sphere(self, preset_surface):
        s = preset_surface
        assert s.closed and s.connected and s.orientable
        assert s.euler_characteristic == 2
        assert s.issues == []
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
        "faces shared by more than two cells"),
    "edge-contact": (lambda: _unit_cubes((0, 0, 0, 0), (1, 1, 0, 0)),
                     "do not bound exactly two faces"),
    "disjoint": (lambda: _unit_cubes((0, 0, 0, 0), (5, 0, 0, 0)), "surface is disconnected"),
}


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_surface_matches_the_reference(name):
    """The array surface equals the dict reference field by field, the issue
    strings and their examples included; each malformed input names its fault."""
    make, fault = REFERENCE_INPUTS[name]
    c = make()
    got, want = cx.knot_surface(c), orc.knot_surface(c)
    assert [(tuple(f[:4]), tuple(f[4:])) for f in got.faces.tolist()] == want["faces"]
    assert [tuple(v) for v in got.vertices.tolist()] == want["vertices"]
    for field in ("unit", "n_vertices", "n_edges", "euler_characteristic", "orientable",
                  "connected", "closed", "issues"):
        assert getattr(got, field) == want[field], field
    if fault is None:
        assert got.issues == []
    else:
        assert any(fault in issue for issue in got.issues)


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
