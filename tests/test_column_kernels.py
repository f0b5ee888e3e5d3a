"""The kernels that read ball centres as coordinate columns, against their
row-major forms in `oracles`, bit for bit: `cover._products`,
`cover._trace_disks`, `groups._frame_keys` and `groups._image_dist2`.
Every float is compared as its uint64 view, so a signed zero or a NaN
payload counts, on the preset, the straight tube and the preset with every
centre moved by N(0, 0.01)."""

import dataclasses

import numpy as np
import pytest

from wildknot import cover as cv
from wildknot import groups as gr
from wildknot import lorentz as lz
from wildknot.complexes import knot_surface
from wildknot.cover import build_cover
from wildknot.presets import spun_trefoil_preset

import oracles as orc


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64) if got.dtype == float else got,
                          want.view(np.uint64) if want.dtype == float else want)


@pytest.fixture(scope="module", params=["preset", "straight tube", "preset jittered"])
def case(request):
    c = orc.straight_tube_complex() if request.param == "straight tube" else spun_trefoil_preset()
    cover = build_cover(c)
    if request.param == "preset jittered":
        rng = np.random.default_rng(0)
        cover = dataclasses.replace(
            cover, centers=cover.centers + rng.normal(0.0, 0.01, cover.centers.shape))
    return cover, knot_surface(c)


def test_products_match_the_row_major_form(case):
    """The pairs of the cover's sweep and 200,000 random pairs."""
    cover, _surf = case
    rng = np.random.default_rng(1)
    n = len(cover)
    i = np.concatenate([cover.adjacency[:, 0], rng.integers(0, n, 200_000)])
    j = np.concatenate([cover.adjacency[:, 1], rng.integers(0, n, 200_000)])
    cols = np.ascontiguousarray(cover.centers.T)
    same_bits(cv._products(cols, cover.radii, i, j),
              orc.products(cover.centers, cover.radii, i, j))


def test_trace_disks_match_the_row_major_form(case):
    """Every face against its construction balls (coverage_check's near
    set, BallCover.face_balls) and the balls of the oracle's wide join,
    whose candidates include disks that miss the square and balls that miss
    the plane."""
    cover, surf = case
    ell = float(cover.unit)
    n_faces = len(surf.faces)
    corner = surf.faces[:, :4].astype(float)
    plane = surf.faces[:, 4:]
    off = np.ones_like(corner)
    off[np.arange(n_faces)[:, None], plane] = 0.0
    mids = corner + (1.0 - off) * (ell / 2.0)
    axes = np.vstack([plane.T, np.nonzero(off)[1].reshape(-1, 2).T])
    cols, corners = np.ascontiguousarray(cover.centers.T), np.ascontiguousarray(corner.T)
    kept = 0
    side = (float(cover.radii.max()) + ell) * (1.0 + 1e-9)
    for f, b in [cover.face_balls(surf), *cv._grid_join(mids, cover.centers, side)]:
        face, u, v, reach2 = cv._trace_disks(f, b, cols, cover.radii, corners, axes, ell)
        want = orc.trace_disks(f, b, cover.centers, cover.radii, corner, plane, off, ell)
        same_bits(face, want[0])
        same_bits(u, want[1][:, 0])
        same_bits(v, want[1][:, 1])
        same_bits(reach2, want[2])
        kept += len(face)
    assert kept > 0


def test_frame_keys_match_the_row_major_form(case):
    cover, _surf = case
    rels = cover.adjacency
    same_bits(gr._frame_keys(np.ascontiguousarray(cover.centers.T), cover.radii, rels),
              orc.frame_keys(cover.centers, cover.radii, rels))


def test_frame_keys_keep_the_frame_shift_signed_zeros():
    """Balls 0 and 1 are mirror images, c_1 = -c_0, so their frame midpoint is
    0.0 on every axis; balls 2 and 3 share the coordinate -0.0 on axes 0 and
    3, where lorentz.frame's einsum gives the midpoint +0.0 but c_2 + c_3 is
    -0.0.  The keys hold the einsum frame's bits on every relation."""
    centers = np.array([[1.5, -0.0, 0.25, 3.0], [-1.5, 0.0, -0.25, -3.0],
                        [-0.0, 2.0, 0.5, -0.0], [-0.0, 1.0, -0.5, -0.0]])
    radii = np.array([1.0, 1.0, 0.75, 1.25])
    rels = np.array([[0, 1, 2], [2, 3, 3], [0, 2, 2], [1, 3, 3], [2, 2, 2]])
    shift, _scale = lz.frame(centers[rels[:, :2]], radii[rels[:, :2]])
    assert not np.signbit(shift[1, 0]) and np.signbit(centers[2, 0] + centers[3, 0])
    keys = gr._frame_keys(np.ascontiguousarray(centers.T), radii, rels)
    same_bits(keys, orc.frame_keys(centers, radii, rels))
    assert keys[1, 0] == np.float64(-0.0).view(np.uint64)  # -0.0 less the +0.0 shift


@pytest.mark.parametrize("per_gen", [1, 8])
def test_image_distances_match_the_row_major_form(case, per_gen):
    """The domain check's inversion images, of points drawn in the centres'
    padded bounding box, inside balls or not."""
    cover, _surf = case
    rng = np.random.default_rng(per_gen)
    lo, hi = cover.centers.min(axis=0) - 2.0, cover.centers.max(axis=0) + 2.0
    pts = rng.random((64, 4)) * (hi - lo) + lo
    gens = rng.permutation(len(cover))[:20_000]
    take = rng.integers(0, len(pts), (len(gens), per_gen))
    r = cover.radii[gens][:, None]
    cols = np.ascontiguousarray(cover.centers.T)
    same_bits(gr._image_dist2(np.take(cols, gens, axis=1)[..., None], r,
                              np.take(pts.T, take, axis=1)),
              orc.image_dist2(cover.centers[gens][:, None, :], r, pts[take]))
