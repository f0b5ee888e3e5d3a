import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildknot import cover as cv
from wildknot import lorentz as lz
from wildknot.complexes import Cube3, knot_surface
from wildknot.cover import (
    ANGLE_TOL,
    ROLE_FACE,
    ROLE_JUNCTION,
    ROLE_VERTEX,
    CoverError,
    _host_cubes,
    _near_pairs,
    build_cover,
    closed_form_parameters,
    coverage_check,
    face_ball_offset,
    pair_orders,
    pairwise_sweep,
    validate_cover,
)
from wildknot.presets import spun_trefoil_preset

import oracles as orc
from oracles import degenerate_single_cube, without_ball


def test_closed_form_constants():
    p = closed_form_parameters(1.0)
    assert p["vertex_radius"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    a = p["face_offset"]
    # a is the root of a^2 - 3a + 1/2 = 0 in (0, 1/2)
    assert a * a - 3.0 * a + 0.5 == pytest.approx(0.0, abs=1e-15)
    assert 0.0 < a < 0.5
    assert p["face_radius"] == pytest.approx(a * math.sqrt(2.0 / 3.0), abs=1e-15)
    assert p["center_radius"] == pytest.approx(a / math.sqrt(3.0), abs=1e-15)
    assert p["junction_radius"] == pytest.approx(0.5 / math.sqrt(3.0), abs=1e-15)
    # scale covariance
    p3 = closed_form_parameters(3.0)
    for key in p:
        assert p3[key] == pytest.approx(3.0 * p[key], rel=1e-14)


def exterior_cos(c1, r1, c2, r2):
    d2 = sum((a - b) ** 2 for a, b in zip(c1, c2))
    return (d2 - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)


def test_designed_pair_angles_euclidean_oracle():
    """The key pairwise angles computed straight from Euclidean geometry."""
    p = closed_form_parameters(1.0)
    rv, a, rf = p["vertex_radius"], p["face_offset"], p["face_radius"]
    rj = p["junction_radius"]
    # adjacent lattice vertices: order 3
    assert exterior_cos((0, 0, 0, 0), rv, (1, 0, 0, 0), rv) == pytest.approx(0.5, abs=1e-12)
    # diagonal lattice vertices: disjoint (inversive distance > 1)
    assert exterior_cos((0, 0, 0, 0), rv, (1, 1, 0, 0), rv) == pytest.approx(2.0, abs=1e-12)
    # face ball orthogonal to its nearest vertex balls
    fb = (0.5 + a, 0.5, 0.0, 0.0)
    assert exterior_cos(fb, rf, (1, 0, 0, 0), rv) == pytest.approx(0.0, abs=1e-12)
    assert exterior_cos(fb, rf, (1, 1, 0, 0), rv) == pytest.approx(0.0, abs=1e-12)
    # ... and to the far ones it is disjoint
    assert exterior_cos(fb, rf, (0, 0, 0, 0), rv) > 1.0
    # ring neighbors meet at order 3
    fb2 = (0.5, 0.5 + a, 0.0, 0.0)
    assert exterior_cos(fb, rf, fb2, rf) == pytest.approx(0.5, abs=1e-12)
    # center ball orthogonal to the four face balls, disjoint from vertices
    cb = (0.5, 0.5, 0.0, 0.0)
    rc = p["center_radius"]
    assert exterior_cos(cb, rc, fb, rf) == pytest.approx(0.0, abs=1e-12)
    assert exterior_cos(cb, rc, (0, 0, 0, 0), rv) > 1.0
    # edge-midpoint ball: order 3 with its edge's vertex balls
    em = (0.5, 0.0, 0.0, 0.0)
    assert exterior_cos(em, rj, (0, 0, 0, 0), rv) == pytest.approx(-0.5, abs=1e-12)
    assert exterior_cos(em, rj, (1, 0, 0, 0), rv) == pytest.approx(-0.5, abs=1e-12)
    # exactly orthogonal to the nearest face ball of an adjacent face
    assert exterior_cos(em, rj, (0.5, 0.5 - a, 0, 0), rf) == pytest.approx(0.0, abs=1e-12)
    # disjoint from non-adjacent vertex balls and other midpoints
    assert exterior_cos(em, rj, (0, 1, 0, 0), rv) == pytest.approx(2.5, abs=1e-12)
    assert exterior_cos(em, rj, (0.5, 1.0, 0, 0), rj) == pytest.approx(5.0, abs=1e-12)
    assert exterior_cos(em, rj, (0.0, 0.5, 0, 0), rj) == pytest.approx(2.0, abs=1e-12)


def test_single_cube_cover_counts_and_validation():
    c = degenerate_single_cube(1)
    surf = knot_surface(c)
    cover = build_cover(c)
    counts = cover.role_counts()
    assert counts == {"vertex": 8, "face": 30, "junction": 0}
    assert len(cover) == 38
    report = validate_cover(cover, surf, n_samples=3000, seed=7)
    assert report["ok"], report
    assert report["coverage_fraction"] == 1.0
    assert report["max_angle_residual"] <= 1e-9
    assert report["illegal_pairs"] == []


def test_single_cube_adjacency_orders():
    c = degenerate_single_cube(1)
    cover = build_cover(c)
    orders = set(cover.adjacency[:, 2].tolist())
    assert orders == {2, 3}
    # every row's order realized exactly by the centers/radii: its cosine is
    # within 1e-12 of a cosine of order m (exterior angle pi/m or its complement)
    for i, j, m in cover.adjacency:
        d2 = float(((cover.centers[i] - cover.centers[j]) ** 2).sum())
        cos = (d2 - cover.radii[i] ** 2 - cover.radii[j] ** 2) / (
            2.0 * cover.radii[i] * cover.radii[j]
        )
        assert min(abs(cos - t) for t in {2: (0.0,), 3: (0.5, -0.5)}[m]) <= 1e-12


def test_validate_cover_rejects_a_moved_ball():
    """Negative control: one vertex ball moved off its lattice point pushes
    the angle residual past the tolerance, and each pair it breaks is listed
    as illegal."""
    c = degenerate_single_cube(1)
    surf = knot_surface(c)
    cover = build_cover(c)
    centers = cover.centers.copy()
    centers[0, 0] += 0.05
    moved = validate_cover(dataclasses.replace(cover, centers=centers), surf, n_samples=500)
    assert not moved["ok"]
    assert moved["max_angle_residual"] > moved["tolerance"]
    assert len(moved["illegal_pairs"]) == 11
    assert all(pair[0] == 0 for pair in moved["illegal_pairs"])


def test_a_replaced_cover_gets_the_sweep_of_its_own_balls():
    """The adjacency is no field that dataclasses.replace could carry over:
    the tube's cover with vertex ball 0 moved by 0.05 has the adjacency of a
    fresh sweep of its moved balls, which differs from the original's, and
    the original keeps its own."""
    c = orc.straight_tube_complex()
    cover = build_cover(c)
    before = cover.adjacency.copy()
    centers = cover.centers.copy()
    centers[0, 0] += 0.05
    moved = dataclasses.replace(cover, centers=centers)
    sweep = pairwise_sweep(centers, cover.radii)
    assert np.array_equal(moved.adjacency, sweep[3])
    assert moved.sweep[:3] == sweep[:3] and sweep[2]  # the moved ball's pairs are illegal
    assert not np.array_equal(moved.adjacency, before)
    assert cover.adjacency is cover.sweep[3] and np.array_equal(cover.adjacency, before)


def test_validate_cover_gates_the_closed_forms():
    """A face ball 1% too large is reported by its distance to the nearer
    closed form, not raised.  The cover scaled by 1 - 1e-6 about the origin
    keeps every angle and covers every sample, so only its radii, off the
    closed forms by more than 1e-9 * unit, fail it."""
    c = degenerate_single_cube(3)
    surf = knot_surface(c)
    cover = build_cover(c)
    p = closed_form_parameters(float(cover.unit))
    radii = cover.radii.copy()
    radii[np.flatnonzero(cover.roles == ROLE_FACE)[0]] *= 1.01  # a face ball, not a centre
    grown = validate_cover(dataclasses.replace(cover, radii=radii), surf, n_samples=200)
    assert not grown["ok"]
    assert grown["closed_form_residuals"] == {
        "vertex_radius": 0.0,
        "face_and_center_radius": pytest.approx(0.01 * p["face_radius"], rel=1e-12),
    }
    s = 1.0 - 1e-6
    scaled = validate_cover(dataclasses.replace(cover, centers=cover.centers * s,
                                                radii=cover.radii * s), surf, n_samples=200)
    assert not scaled["ok"]
    assert scaled["illegal_pairs"] == [] and scaled["coverage_fraction"] == 1.0
    assert scaled["max_angle_residual"] <= ANGLE_TOL
    assert scaled["closed_form_residuals"]["vertex_radius"] == pytest.approx(
        1e-6 * p["vertex_radius"], rel=1e-6)
    assert validate_cover(cover, surf, n_samples=200)["closed_form_residuals"] == {
        "vertex_radius": 0.0, "face_and_center_radius": 0.0}


def brute_force_products(centers, radii):
    """Full-matrix float64 reference: (i, j, inversive product) for all i < j."""
    i, j = np.triu_indices(len(radii), k=1)
    diff = centers[i] - centers[j]
    d2 = (diff * diff).sum(axis=1)
    return i, j, (d2 - radii[i] ** 2 - radii[j] ** 2) / (2.0 * radii[i] * radii[j])


def brute_force_sweep(centers, radii, tol=1e-9):
    i, j, prod = brute_force_products(centers, radii)
    res = np.abs(prod[:, None] - np.array([0.0, 0.5, -0.5])).min(axis=1)
    inter = np.abs(prod) < 1.0 - tol
    bad = (inter & (res > tol)) | ~(inter | (prod >= 1.0 + tol))
    viol = [(int(a), int(b), float(x)) for a, b, x in zip(i[bad], j[bad], prod[bad])]
    return float(res[inter].max(initial=0.0)), int(inter.sum()), viol[:50]


def test_sweep_matches_adjacency_count():
    c = degenerate_single_cube(1)
    cover = build_cover(c)
    max_res, n_inter, violations, _adj = pairwise_sweep(cover.centers, cover.radii)
    assert violations == []
    assert n_inter == len(cover.adjacency)
    assert max_res <= 1e-12
    # the grid search against every pair of the full matrix
    assert (max_res, n_inter, violations) == brute_force_sweep(cover.centers, cover.radii)
    i, j, prod = brute_force_products(cover.centers, cover.radii)
    hit = prod < 1.0
    assert np.array_equal(cover.adjacency[:, :2], np.stack([i[hit], j[hit]], axis=1))
    # fewer than two balls: nothing to certify
    for n in (0, 1):
        empty = pairwise_sweep(cover.centers[:n], cover.radii[:n])
        assert empty[:3] == (0.0, 0, []) and empty[3].shape == (0, 3)


@st.composite
def ball_sets(draw):
    """Balls centred on half-lattice grid lines with radii ratios up to 20,
    plus extra balls nested in, tangent to, or just beyond the 1.15 product
    cut from an existing ball."""
    scale = draw(st.sampled_from([0.25, 1.0, 3.0]))
    n = draw(st.integers(0, 30))
    pts = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * 4), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    centers = np.array(pts, dtype=float).reshape(-1, 4) * (scale / 2.0)
    radii = np.array(sizes, dtype=float) * (scale / 8.0)
    steps = st.tuples(*[st.integers(-1, 1)] * 4).filter(any)
    extras = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(1, 20),
                       st.sampled_from(["nested", "tangent", "near"]),
                       steps, st.floats(1.1, 1.2))
    for a, size, kind, step, product in draw(st.lists(extras, max_size=6 if n else 0)):
        r = size * scale / 8.0
        # tangent along an axis is exact; along a diagonal it is within rounding
        dist = {"nested": 0.0, "tangent": radii[a] + r,
                "near": math.sqrt(radii[a] ** 2 + r * r + 2.0 * product * radii[a] * r)}
        c = centers[a] + dist[kind] * np.array(step) / math.sqrt(np.count_nonzero(step))
        centers = np.vstack([centers, c])
        radii = np.append(radii, r)
    return centers, radii


@settings(max_examples=200, deadline=None)
@given(ball_sets())
def test_sweep_matches_brute_force(balls):
    centers, radii = balls
    i, j, prod = brute_force_products(centers, radii)
    near = prod < 1.15
    gi, gj, gprod = _near_pairs(centers, radii)
    assert np.array_equal(gi, i[near]) and np.array_equal(gj, j[near])
    assert np.array_equal(gprod, prod[near])
    sweep = pairwise_sweep(centers, radii)
    assert sweep[:3] == brute_force_sweep(centers, radii)
    # the adjacency: every pair with product below 1, at its nearest legal order
    hit = prod < 1.0
    nearest = np.where(np.abs(prod[hit]) <= np.abs(np.abs(prod[hit]) - 0.5), 2, 3)
    assert np.array_equal(sweep[3], np.stack([i[hit], j[hit], nearest], axis=1))


def test_grid_search_reaches_the_completeness_bound():
    """Equal balls at product just below 1.15 are found wherever they sit
    relative to the grid cells, along an axis and along a diagonal."""
    d = math.sqrt(4.299)
    for step in ([1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]):
        for t in np.linspace(0.0, 3.0, 301):
            centers = np.array([np.full(4, t), t + d * np.array(step)])
            i, j, prod = _near_pairs(centers, np.ones(2))
            assert list(zip(i, j)) == [(0, 1)]
            assert 1.14 < prod[0] < 1.15


def test_grid_key_follows_ball_count_not_extent():
    # an orthogonal pair of tiny balls and one ball 10^12 away
    far = np.array([[0.0, 0, 0, 0], [1e-3, 1e-3, 0, 0], [1e12, 1e12, 1e12, 1e12]])
    max_res, n_inter, violations, _adj = pairwise_sweep(far, np.full(3, 1e-3))
    assert (n_inter, violations) == (1, []) and max_res <= 1e-12
    # 3 * 10^4 balls in distinct cells on every axis overflow a 64-bit key
    diagonal = np.repeat(np.arange(30_000.0)[:, None], 4, axis=1)
    with pytest.raises(CoverError, match="too sparse"):
        pairwise_sweep(diagonal, np.full(30_000, 1e-3))


def test_sweep_flags_illegal_pair():
    centers = np.array([[0, 0, 0, 0], [0.9, 0, 0, 0]], dtype=float)
    radii = np.array([0.6, 0.6])
    max_res, n_inter, violations, _adj = pairwise_sweep(centers, radii)
    assert n_inter == 1
    assert violations and violations[0][:2] == (0, 1)
    assert max_res > 1e-3


def test_adjacency_keeps_the_nearest_order_of_an_illegal_pair():
    """The pair above has product 1/8: pair_orders calls it illegal, while the
    adjacency keeps it as a relation row with the order of the nearest legal
    cosine (0, order 2), from which validate_cover measures its residual."""
    centers = np.array([[0, 0, 0, 0], [0.9, 0, 0, 0]], dtype=float)
    radii = np.array([0.6, 0.6])
    prod, order = pair_orders(centers, radii, [0], [1])
    assert prod[0] == pytest.approx(0.125) and order.tolist() == [-1]
    assert pairwise_sweep(centers, radii)[3].tolist() == [[0, 1, 2]]


def test_sweep_flags_nested_and_tangent_pairs():
    # nested
    _r, _n, v, _adj = pairwise_sweep(np.zeros((2, 4)) + [[0, 0, 0, 0], [0.1, 0, 0, 0]],
                                     np.array([1.0, 0.2]))
    assert v
    # externally tangent
    _r, _n, v, _adj = pairwise_sweep(np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0]]),
                                     np.array([0.5, 0.5]))
    assert v


def coverage_reference(cover, surf, face_of, n_samples=10_000, seed=0, chunk=200):
    """coverage_check as it was before the grid join: each face's samples in
    float32 4-D against its own face-pattern balls (face_of, per ball) and its
    corner vertex balls, padded to one width, then each local miss rechecked
    against the whole cover in float64."""
    rng = np.random.default_rng(seed)
    ell = float(cover.unit)
    faces = surf.faces
    per_face = [[] for _ in faces]
    for b in np.nonzero(face_of >= 0)[0]:
        per_face[face_of[b]].append(int(b))
    corner_balls = cover.vertex_balls(face_corners(surf))
    for f_idx, balls in enumerate(corner_balls.tolist()):
        per_face[f_idx] += [b for b in balls if b >= 0]
    width = max((len(c) for c in per_face), default=1)
    n_faces = len(faces)
    cand = np.zeros((n_faces, width), dtype=np.int64)
    cand_mask = np.zeros((n_faces, width), dtype=bool)
    for f_idx, ids in enumerate(per_face):
        cand[f_idx, : len(ids)] = ids
        cand_mask[f_idx, : len(ids)] = True
    cand_c = cover.centers[cand].astype(np.float32)
    cand_r2 = (cover.radii[cand] ** 2).astype(np.float32)
    cand_r2[~cand_mask] = -1.0
    corners = faces[:, :4].astype(np.float32)
    span = faces[:, 4:]
    total = 0
    covered = 0
    misses = []
    for lo in range(0, n_faces, chunk):
        hi = min(lo + chunk, n_faces)
        uv = rng.random((hi - lo, n_samples, 2), dtype=np.float32) * ell
        pts = np.repeat(corners[lo:hi, None, :], n_samples, axis=1)
        for col in (0, 1):
            for axis in range(4):
                sel = span[lo:hi, col] == axis
                if sel.any():
                    pts[sel, :, axis] += uv[sel, :, col]
        d2 = ((pts[:, :, None, :] - cand_c[lo:hi, None, :, :]) ** 2).sum(-1)
        ok = (d2 < cand_r2[lo:hi, None, :]).any(-1)
        total += ok.size
        covered += int(ok.sum())
        for fi, si in zip(*np.nonzero(~ok)):
            pt = pts[fi, si].astype(float)
            if (((cover.centers - pt[None, :]) ** 2).sum(-1) < cover.radii**2).any():
                covered += 1
            else:
                misses.append((lo + int(fi), tuple(pt)))
    return covered / total, misses


def face_corners(surf):
    """(F, 4, 4): each face's four lattice vertices, by the reference's
    one-face formula."""
    return np.array([orc.face_vertices((tuple(f[:4]), tuple(f[4:])), surf.unit)
                     for f in surf.faces.tolist()])


def face_pattern_faces(cover, surf):
    """Per ball, the face whose five-ball pattern it belongs to, -1 for the
    rest: build_cover lists those balls face by face after the vertex balls."""
    n_faces = len(surf.faces)
    first = int((cover.roles == ROLE_VERTEX).sum())
    face_of = np.full(len(cover), -1)
    face_of[first : first + 5 * n_faces] = np.repeat(np.arange(n_faces), 5)
    assert np.array_equal(face_of >= 0, cover.roles == ROLE_FACE)
    return face_of


def face_templates(cover, surf):
    """(F, 9): each face's nine template balls, found by geometry alone: the
    vertex-role balls centred on its four corners, then the face-role balls
    within the face offset of its middle (from the oracle's grid join), the
    four face balls first and the centre ball, centred on the middle, last."""
    corners = face_corners(surf)
    vertex = np.flatnonzero(cover.roles == ROLE_VERTEX)
    at = {tuple(x): v for v, x in zip(vertex.tolist(), cover.centers[vertex].tolist())}
    corner_balls = [[at.get(tuple(x), -1) for x in face] for face in corners.tolist()]
    mids = corners.mean(axis=1)  # exact: the corner plus half an edge on two axes
    face_role = np.flatnonzero(cover.roles == ROLE_FACE)
    a = face_ball_offset(cover.unit)
    f, b = (np.concatenate(x) for x in zip(*orc.grid_join(mids, cover.centers[face_role], 2 * a)))
    b = face_role[b]
    dist = np.linalg.norm(cover.centers[b] - mids[f], axis=1)
    mine = dist <= a + 1e-9
    f, b, dist = f[mine], b[mine], dist[mine]
    by_face = np.lexsort((b, -dist, f))  # per face: the farthest first, ties by row
    assert np.array_equal(f[by_face], np.repeat(np.arange(len(corners)), 5))
    assert (dist[by_face][4::5] == 0.0).all()
    return np.hstack([np.array(corner_balls, dtype=np.int64).reshape(-1, 4),
                      b[by_face].reshape(-1, 5)])


def face_template(cover, surf, f):
    """Face f's nine template balls, by face_templates."""
    return face_templates(cover, surf)[f].tolist()


@pytest.fixture(scope="module")
def single_cube():
    c = degenerate_single_cube(1)
    return knot_surface(c), build_cover(c)


@pytest.mark.parametrize(
    "slot", range(9),
    ids=[f"vertex-{t}" for t in range(4)] + [f"face-{t}" for t in range(4)] + ["centre"],
)
def test_removed_ball_breaks_coverage_locally(single_cube, slot):
    """Negative controls for criterion 2: dropping any one of face 0's nine
    template balls leaves misses, all on faces the dropped ball meets, and
    the result equals the pre-grid-join reference."""
    surf, cover = single_cube
    victim = face_template(cover, surf, 0)[slot]
    if cover.roles[victim] == ROLE_VERTEX:
        met = set(np.flatnonzero((face_corners(surf) == cover.centers[victim]).all(-1).any(-1)))
        assert len(met) == 3
    else:
        met = {0}
    broken = without_ball(cover, victim)
    frac, misses = coverage_check(broken, surf, n_samples=4000, seed=0)
    assert frac < 1.0
    assert misses
    assert {fi for fi, _pt in misses} <= met
    face_of = face_pattern_faces(cover, surf)[np.arange(len(cover)) != victim]
    assert (frac, misses) == coverage_reference(broken, surf, face_of, n_samples=4000, seed=0)


def test_coverage_reaches_the_completeness_bound(single_cube):
    """One ball of radius R centred 0.5 + 0.75 R from face 0's middle along the
    face covers a strip by the face's edge.  Over the sweep of R the grid
    cells fall differently against the middle and the centre, and each time
    the result equals the reference, which checks each sample against every
    ball."""
    surf, cover = single_cube
    for radius in np.linspace(0.3, 0.8, 11):
        center = surf.faces[0, :4].astype(float)
        center[surf.faces[0, 4:]] += [1.0 + 0.75 * radius, 0.5]
        one = dataclasses.replace(cover, centers=center[None], radii=np.array([radius]),
                                  face=np.full(1, -1), vertices=np.zeros((0, 4), dtype=np.int64))
        got = coverage_check(one, surf, n_samples=300, seed=0)
        assert got[0] > 0.0
        assert got == coverage_reference(one, surf, np.full(1, -1), n_samples=300, seed=0)


def test_coverage_join_per_radius_octave_is_complete(single_cube):
    """One small ball at a time, beside an anchor ball of radius 0.6 far away
    that sets r_max, so the small ball has an octave and a join of its own.
    Its centre lies 0.5 + r/2 from a face's middle along an in-plane axis,
    so its trace disk reaches r/2 into the square by an edge, a per-axis
    offset that a join side below r/2 + 1/2 can put two cells apart.  Over
    radii in four octaves and every face, the result equals the serial
    form's, whose one join runs at the anchor's cell side."""
    surf, cover = single_cube
    rng = np.random.default_rng(5)
    anchor = np.full(4, 50.0)
    for radius in 0.6 * 2.0 ** -rng.uniform(0.6, 3.6, size=16):
        f = int(rng.integers(len(surf.faces)))
        i, j = surf.faces[f, 4:]
        center = surf.faces[f, :4].astype(float)
        center[i] += 0.5 + (0.5 + 0.5 * radius) * rng.choice([-1.0, 1.0])
        center[j] += rng.uniform(0.0, 1.0)
        two = dataclasses.replace(cover, centers=np.stack([anchor, center]),
                                  radii=np.array([0.6, radius]), face=np.full(2, -1),
                                  vertices=np.zeros((0, 4), dtype=np.int64))
        got = coverage_check(two, surf, n_samples=5000, seed=0)
        assert got[0] > 0.0
        assert got == orc.coverage_check(two, surf, n_samples=5000, seed=0)


def test_coverage_faces_without_candidates_miss_every_sample(single_cube):
    """Face 0's own five face-role balls reach no other face, so the other
    faces' rows of the disk table are padding only and every sample of theirs
    is a miss; a lone ball far away leaves no candidate anywhere."""
    surf, cover = single_cube
    n = 300
    own = np.isin(np.arange(len(cover)), face_template(cover, surf, 0)[4:])
    part = dataclasses.replace(cover, centers=cover.centers[own], radii=cover.radii[own],
                               face=cover.face[own], vertices=np.zeros((0, 4), dtype=np.int64))
    frac, misses = coverage_check(part, surf, n_samples=n, seed=0)
    per_face = np.bincount([fi for fi, _pt in misses], minlength=len(surf.faces))
    assert 0 < per_face[0] < n and (per_face[1:] == n).all()
    assert (frac, misses) == coverage_reference(part, surf, np.zeros(5, dtype=int),
                                                n_samples=n, seed=0)
    far = dataclasses.replace(part, centers=np.full((1, 4), 50.0), radii=np.ones(1),
                              face=np.full(1, -1))
    got = coverage_check(far, surf, n_samples=n, seed=0)
    assert got[0] == 0.0 and len(got[1]) == n * len(surf.faces)
    assert got == coverage_reference(far, surf, np.full(1, -1), n_samples=n, seed=0)


def trace_candidates(cover, surf, f):
    """The balls whose open trace disk in face f's plane meets its closed
    square, from every ball of the cover."""
    d = cover.centers - surf.faces[f, :4]
    normal = np.ones(4, dtype=bool)
    normal[surf.faces[f, 4:]] = False
    uv = d[:, surf.faces[f, 4:]]
    gap = np.maximum(np.maximum(-uv, uv - cover.unit), 0.0)
    reach2 = cover.radii**2 - (d[:, normal] ** 2).sum(axis=1)
    return np.flatnonzero((gap**2).sum(axis=1) < reach2)


@pytest.fixture(scope="module")
def preset_covers():
    c = spun_trefoil_preset()
    surf = knot_surface(c)
    return surf, {k: build_cover(c, k=k) for k in (0, 2)}


def test_pair_orders_gathers_only_its_pairs_rows(preset_covers):
    """On the preset's cover, pair_orders keeps the bits of _products over all
    the centres' columns, and a one-pair call allocates kilobytes, not a copy
    of the 59,110 centres."""
    cover = preset_covers[1][0]
    i, j = np.random.default_rng(0).integers(0, len(cover), (2, 1000))
    prod, order = pair_orders(cover.centers, cover.radii, i, j)
    want = cv._products(np.ascontiguousarray(cover.centers.T), cover.radii, i, j)
    assert prod.tobytes() == want.tobytes()
    assert order.tolist() == cv._classify(want)[2].tolist()
    tracemalloc.start()
    try:
        pair_orders(cover.centers, cover.radii, [0], [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cover.centers.nbytes / 100


@pytest.mark.parametrize("k", [0, 2])
def test_coverage_matches_reference_on_the_preset(preset_covers, k):
    """k = 2 puts junction balls among the candidates of the faces near the
    attach squares."""
    surf, covers = preset_covers
    cover = covers[k]
    got = coverage_check(cover, surf, n_samples=20, seed=0)
    assert got == (1.0, [])
    assert got == coverage_reference(cover, surf, face_pattern_faces(cover, surf),
                                     n_samples=20, seed=0)


def test_coverage_misses_on_the_junction_rows(preset_covers):
    """At k = 2 the faces by a junction ball have ten candidate disks, the
    widest rows of the table.  The junction balls cover nothing the face
    pattern leaves open, so dropping one leaves no miss; dropping a corner
    vertex ball of such a face leaves misses on it, and only on faces at that
    corner.  Both equal the reference."""
    surf, covers = preset_covers
    cover = covers[2]
    face_of = face_pattern_faces(cover, surf)
    junction = np.flatnonzero(cover.roles == ROLE_JUNCTION)
    near = (np.abs(cover.centers[junction, None] - surf.faces[:, :4]) <= 1).all(-1).any(0)
    wide = [f for f in np.flatnonzero(near) if len(trace_candidates(cover, surf, f)) == 10]
    assert wide and all(np.isin(trace_candidates(cover, surf, f), junction).any() for f in wide)
    f = wide[0]
    vertex = face_template(cover, surf, f)[0]
    for victim in (junction[0], vertex):
        broken = without_ball(cover, victim)
        got = coverage_check(broken, surf, n_samples=200, seed=0)
        assert got == coverage_reference(broken, surf, face_of[np.arange(len(cover)) != victim],
                                         n_samples=200, seed=0)
        if victim == vertex:
            missed = {fi for fi, _pt in got[1]}
            met = (face_corners(surf) == cover.centers[vertex]).all(-1).any(-1)
            assert f in missed and missed <= set(np.flatnonzero(met))
        else:
            assert got == (1.0, [])


# Face 4000 of the preset and, by build_cover's order (the vertex balls, then
# five balls per face), its first face ball and its centre ball.
FACE = 4000
DROPPED = ("vertex", "face", "centre")


def dropped_ball(cover, surf, which):
    n_vertex = int((cover.roles == ROLE_VERTEX).sum())
    if which == "vertex":
        return int(cover.vertex_balls(surf.faces[FACE, :4]))
    return n_vertex + 5 * FACE + (0 if which == "face" else 4)


@pytest.fixture(scope="module")
def broken_preset(preset_covers):
    """Per dropped ball: the k = 0 preset cover without it, and the serial
    result at 1,000 samples per face on the whole surface and at 3,000 and
    10^4 on the 400 faces around face FACE (a slice keeps the test short;
    the cover is whole).  3,000 samples make blocks of 21 faces, which do
    not divide 2^16 samples."""
    surf, covers = preset_covers
    cover = covers[0]
    rows = slice(FACE - 200, FACE + 200)
    near = dataclasses.replace(surf, faces=surf.faces[rows], corners=surf.corners[rows])
    out = {}
    for which in DROPPED:
        broken = without_ball(cover, dropped_ball(cover, surf, which))
        out[which] = (broken, {
            1000: (surf, orc.coverage_check(broken, surf, n_samples=1000, seed=3)),
            3000: (near, orc.coverage_check(broken, near, n_samples=3000, seed=3)),
            10_000: (near, orc.coverage_check(broken, near, n_samples=10_000, seed=3)),
        })
    return out


@pytest.mark.parametrize("n_samples", [1000, 3000, 10_000])
@pytest.mark.parametrize("which", DROPPED)
def test_dropped_ball_coverage_matches_the_serial_form(broken_preset, which, n_samples):
    """Negative controls for criterion 2 on the preset, at the sample counts
    of the benchmark and of the acceptance gate: each dropped ball leaves
    misses, and the result has the bits of the serial form in oracles.py.
    Only the blocks that hold a face the dropped ball met are drawn, so the
    result also pins the skipped blocks' advance of the generator."""
    broken, reference = broken_preset[which]
    surf, want = reference[n_samples]
    assert want[1], "the dropped ball must leave misses"
    assert coverage_check(broken, surf, n_samples=n_samples, seed=3) == want


def test_coverage_rejects_a_non_finite_radius(single_cube):
    surf, cover = single_cube
    radii = cover.radii.copy()
    radii[5] = np.nan
    with pytest.raises(CoverError, match="ball 5 .* finite positive radius"):
        coverage_check(dataclasses.replace(cover, radii=radii), surf, n_samples=500)


def record_certificates(monkeypatch):
    """Record each cv._held_cells call, one per batch of templates, as
    (template rows u, v and reach2, ell, its (T, _CELLS, _CELLS) certificate,
    True where a cell is certified)."""
    calls = []
    real = cv._held_cells

    def spy(u, v, r2, ell):
        held = real(u, v, r2, ell)
        calls.append((u, v, r2, ell, held))
        return held

    monkeypatch.setattr(cv, "_held_cells", spy)
    return calls


def whole_templates(calls):
    """Per template, in template order, whether its certificate holds every
    cell."""
    return np.concatenate([held.all(axis=(1, 2)) for *_rows, held in calls])


@pytest.fixture(scope="module")
def jittered_cube():
    """The edge-3 single cube's cover with every centre moved by N(0, 0.3) and
    every radius scaled by U(0.5, 1.5): no two faces share a template."""
    c = degenerate_single_cube(3)
    cover = build_cover(c)
    rng = np.random.default_rng(11)
    return knot_surface(c), dataclasses.replace(
        cover, centers=cover.centers + rng.normal(0.0, 0.3, cover.centers.shape),
        radii=cover.radii * rng.uniform(0.5, 1.5, len(cover)))


def big_ball(surf, cover):
    """One ball of radius 1e4 centred in face 0's plane, 1e4 - 1.5 before its
    corner along its first axis: the trace disk covers face 0 and reaches
    half an edge past it, and the table holds u and reach2 near 1e4 and 1e8."""
    center = surf.faces[0, :4].astype(float)
    center[surf.faces[0, 4:]] += [1.5 - 1e4, 0.5]
    return dataclasses.replace(cover, centers=center[None], radii=np.array([1e4]),
                               face=np.full(1, -1), vertices=np.zeros((0, 4), dtype=np.int64))


def test_coverage_certificate_on_distinct_templates(jittered_cube, monkeypatch):
    surf, cover = jittered_cube
    calls = record_certificates(monkeypatch)
    got = coverage_check(cover, surf, n_samples=2000, seed=0)
    assert sum(len(u) for u, *_rest in calls) == len(surf.faces)  # one per face
    assert 0.0 < got[0] < 1.0
    assert got == orc.coverage_check(cover, surf, n_samples=2000, seed=0)


def complete_rows(cover, surf):
    """Per face, the rows u, v and reach2 (F, width) of every ball whose
    trace disk meets its closed square, padded with reach2 = -inf: the disks
    of coverage_check's complete search, from the oracle's one grid join at
    cell side r_max + ell/sqrt(2), as in oracles.coverage_check."""
    ell = float(cover.unit)
    n_faces = len(surf.faces)
    corner = surf.faces[:, :4].astype(float)
    plane = surf.faces[:, 4:]
    off = np.ones_like(corner)
    off[np.arange(n_faces)[:, None], plane] = 0.0
    side = (float(cover.radii.max()) + ell / math.sqrt(2.0)) * (1.0 + 1e-9)
    pairs = orc.grid_join(corner + (1.0 - off) * (ell / 2.0), cover.centers, side)
    axes = np.vstack([plane.T, np.nonzero(off)[1].reshape(-1, 2).T])
    _count, table = cv._disk_table(pairs, cover.centers.T, cover.radii, corner.T, axes, ell)
    return table.transpose(1, 0, 2)


def test_coverage_certificate_of_a_radius_1e4_disk():
    """The margin is relative: far^2 and reach2 near 1e8 carry rounding far
    above any fixed margin.  The ball is no near disk of any face, so its
    rows are certified through _held_cells directly: face 0's row is whole.
    Coverage draws every face against its complete rows: face 0 is missed
    nowhere; the faces that the ball cuts are missed in part."""
    c = degenerate_single_cube(3)
    surf = knot_surface(c)
    one = big_ball(surf, build_cover(c))
    table_u, table_v, table_r2 = complete_rows(one, surf)
    assert table_u.min() < -9000.0 and table_r2.max() > 9e7
    cert = cv._held_cells(table_u, table_v, table_r2, float(one.unit))
    assert cert.all(axis=(1, 2)).any() and cert[0].all()  # face 0's row
    got = coverage_check(one, surf, n_samples=2000, seed=0)
    assert 0.0 < got[0] < 1.0 and 0 not in {fi for fi, _pt in got[1]}
    assert got == orc.coverage_check(one, surf, n_samples=2000, seed=0)


def test_certified_cells_pass_the_sample_test(preset_covers, jittered_cube, monkeypatch):
    """Brute force: every point of the 513 x 513 lattice k ell / 512 on the
    face square that lies in a closed certified cell (9 x 9 points per cell)
    passes coverage_check's float64 test against its template's disks.  Over
    the preset's templates at k = 0 and 2, where every cell is certified, the
    jittered cube's and the radius-1e4 disk's.  coverage_check certifies its
    templates from the near disks, so the complete rows go through
    _held_cells too: every face's of those two, and at k = 2, with every
    centre moved by N(0, 0.01), those of the preset's 326 faces within 4
    edges of a junction ball on every axis."""
    calls = record_certificates(monkeypatch)
    surf, covers = preset_covers
    for cover in covers.values():
        coverage_check(cover, surf, n_samples=1, seed=0)
    assert all(cert.all() for *_rows, cert in calls)
    cube_surf, cube = jittered_cube
    for one in (cube, big_ball(cube_surf, cube)):
        coverage_check(one, cube_surf, n_samples=1, seed=0)
        cv._held_cells(*complete_rows(one, cube_surf), float(one.unit))
    cover = covers[2]
    moved = cover.centers + np.random.default_rng(0).normal(0.0, 0.01, cover.centers.shape)
    junction = cover.centers[cover.roles == ROLE_JUNCTION]
    near = (np.abs(junction[:, None] - surf.faces[:, :4]) <= 4).all(-1).any(0)
    cv._held_cells(*complete_rows(dataclasses.replace(cover, centers=moved),
                                  dataclasses.replace(surf, faces=surf.faces[near],
                                                      corners=surf.corners[near])),
                   float(cover.unit))
    k = np.arange(513)
    # the closed cells holding lattice index k along one axis: k // 8 and,
    # on a cell edge, the cell below
    near = [np.minimum(k // 8, cv._CELLS - 1), np.maximum((k - 1) // 8, 0)]
    tested = 0
    for table_u, table_v, table_r2, ell, cert in calls:
        grid = k * (ell / 512)
        for t, cells in enumerate(cert):
            inside = np.zeros((513, 513), dtype=bool)
            for a, b in itertools.product(near, repeat=2):
                inside |= cells[a][:, b]
            u, v = (grid[kk] for kk in np.nonzero(inside))
            tested += len(u)
            for u0, v0, r2 in zip(table_u[t], table_v[t], table_r2[t]):
                du, dv = u - u0, v - v0
                open_ = ~(du * du + dv * dv < r2)  # the test of coverage_check, per disk
                u, v = u[open_], v[open_]
            assert len(u) == 0
    assert tested > 10**8


def test_certified_quarters_pass_the_sample_test(preset_covers, jittered_cube, monkeypatch):
    """Brute force at the edge of the open area: every certified cell that is
    a quarter of a 2 x 2 block (a cell of side ell/32) with an open cell
    passes coverage_check's float64 test at the 9 x 9 points of the lattice
    k ell / 512 in it, against its template's disks, all quarters at once.
    Over the preset's templates at k = 0 and 2, where every cell is
    certified, the jittered cube's and the radius-1e4 disk's."""
    calls = record_certificates(monkeypatch)
    surf, covers = preset_covers
    for cover in covers.values():
        coverage_check(cover, surf, n_samples=1, seed=0)
    assert all(cert.all() for *_rows, cert in calls)
    cube_surf, cube = jittered_cube
    coverage_check(cube, cube_surf, n_samples=1, seed=0)
    coverage_check(big_ball(cube_surf, cube), cube_surf, n_samples=1, seed=0)
    steps = np.arange(9)
    tested = 0
    for table_u, table_v, table_r2, ell, cells in calls:
        blocks = cells.reshape(-1, cv._CELLS // 2, 2, cv._CELLS // 2, 2).all(axis=(2, 4))
        in_open_block = ~blocks.repeat(2, axis=1).repeat(2, axis=2)
        row, a, b = np.nonzero(cells & in_open_block)
        u = (8 * a[:, None] + steps)[:, :, None] * (ell / 512)
        v = (8 * b[:, None] + steps)[:, None, :] * (ell / 512)
        open_ = np.ones((len(row), 9, 9), dtype=bool)
        for u0, v0, r2 in zip(table_u[row].T, table_v[row].T, table_r2[row].T):
            du, dv = u - u0[:, None, None], v - v0[:, None, None]
            open_ &= ~(du * du + dv * dv < r2[:, None, None])  # the test of coverage_check
        assert not open_.any()
        tested += len(row)
    assert tested > 1000


def test_a_cell_split_in_part_is_drawn(single_cube):
    """Two balls of radius about 1e3 centred in face 0's plane cut its square
    along v = 33/64 + 1e-3 and v = 33.5/64: the cells with v in [33/64,
    34/64] are open, the first ball holding the part of each below its cut
    and the second the part above its own, so face 0's template is not whole
    although each open cell is held in part, and the uncovered strip between
    the two cuts gives misses.  At 70,000 samples face 0 is a block of its
    own; the result equals the serial form's."""
    surf, cover = single_cube
    far = 1e3
    centers = np.repeat(surf.faces[:1, :4].astype(float), 2, axis=0)
    centers[np.arange(2)[:, None], surf.faces[0, 4:]] += [(0.5, -far), (0.5, 1.0 + far)]
    two = dataclasses.replace(cover, centers=centers,
                              radii=np.array([far + 33 / 64 + 1e-3, far + 1.0 - 33.5 / 64]),
                              face=np.full(2, -1), vertices=np.zeros((0, 4), dtype=np.int64))
    got = coverage_check(two, surf, n_samples=70_000, seed=0)
    assert 0 in {f for f, _pt in got[1]}
    assert got == orc.coverage_check(two, surf, n_samples=70_000, seed=0)


def count_words(monkeypatch):
    """Count the 64-bit words coverage_check draws from and advances past its
    generator: {"drawn": ..., "advanced": ...}.  A float32 draw of
    Generator.random takes half a word, and coverage draws whole words."""
    counts = {"drawn": 0, "advanced": 0}
    real = np.random.default_rng

    class Counting:
        def __init__(self, bits):
            self.bits = bits

        def advance(self, delta):
            counts["advanced"] += delta
            self.bits.advance(delta)

    class Rng:
        def __init__(self, seed):
            self.rng = real(seed)
            self.bit_generator = Counting(self.rng.bit_generator)

        def random(self, size, dtype):
            assert dtype == np.float32 and math.prod(size) % 2 == 0
            counts["drawn"] += math.prod(size) // 2
            return self.rng.random(size, dtype=dtype)

    monkeypatch.setattr(np.random, "default_rng", Rng)
    return counts


def lattice_cover(make, k):
    """(surface, cover at refinement k) of the complex make() builds."""
    c = make()
    surf = knot_surface(c)
    return surf, build_cover(c, k=k)


# Lattice covers besides the preset's: the straight tube, the preset's
# construction at big-cube edges 9 and 13, at k = 0 and 1, and the edge-3 cube
LATTICE = {
    **{f"tube-k{k}": (orc.straight_tube_complex, k) for k in (0, 1)},
    **{f"edge{e}-k{k}": (functools.partial(spun_trefoil_preset, e), k)
       for e in (9, 13) for k in (0, 1)},
    "cube3": (lambda: degenerate_single_cube(3), 0),
}


@pytest.mark.parametrize("case", [0, 2, *LATTICE], ids=str)
def test_lattice_cover_draws_no_word(preset_covers, monkeypatch, case):
    """Every template of a lattice cover, from its near disks (the preset's
    23 at k = 0 and 23 at k = 2: the junction balls are no near disk), has
    every cell certified, so it is whole, and coverage advances the
    generator past all its words and draws none."""
    if case in LATTICE:
        surf, cover = lattice_cover(*LATTICE[case])
    else:
        surf, cover = preset_covers[0], preset_covers[1][case]
    calls = record_certificates(monkeypatch)
    counts = count_words(monkeypatch)
    assert coverage_check(cover, surf, n_samples=1000, seed=0) == (1.0, [])
    assert counts == {"drawn": 0, "advanced": 1000 * len(surf.faces)}
    whole = whole_templates(calls)
    assert whole.all()
    if case in (0, 2):
        assert len(whole) == {0: 23, 2: 23}[case]


def test_preset_certifies_every_face_from_its_near_disks(preset_covers, monkeypatch):
    """On the preset at k = 0 the near set hands _trace_disks each face's
    nine construction balls, 88,650 face-ball candidates, and keeps all
    88,650 disks; every template is whole, so no face reaches the complete
    search."""
    surf, covers = preset_covers
    seen, kept, complete = [], [], []
    trace, octave = cv._trace_disks, cv._octave_pairs

    def trace_spy(f, b, *geometry):
        out = trace(f, b, *geometry)
        seen.append(len(f))
        kept.append(len(out[0]))
        return out

    def octave_spy(mids, *rest):
        complete.append(len(mids))
        return octave(mids, *rest)

    monkeypatch.setattr(cv, "_trace_disks", trace_spy)
    monkeypatch.setattr(cv, "_octave_pairs", octave_spy)
    assert coverage_check(covers[0], surf, n_samples=1000, seed=0) == (1.0, [])
    assert (sum(seen), sum(kept)) == (88_650, 88_650)
    assert complete == [0]


@pytest.fixture(scope="module")
def shrunk_cube():
    """The edge-3 single cube's cover with every radius scaled by U(0.88,
    1.3) and the centres kept: every face's near disks are all its disks,
    no two faces share a template, and some templates are whole."""
    c = degenerate_single_cube(3)
    cover = build_cover(c)
    rng = np.random.default_rng(14)
    return knot_surface(c), dataclasses.replace(
        cover, radii=cover.radii * rng.uniform(0.88, 1.3, len(cover)))


def test_drawn_blocks_are_those_with_an_open_cell(shrunk_cube, monkeypatch):
    """No two faces of the shrunk cube share a template, so template t is
    face t's.  At 10,000 samples (6 faces a block) exactly the blocks that
    hold a face whose template leaves a cell open are drawn, although some
    faces in them are whole, and some blocks are not; the result equals the
    serial form's."""
    surf, cover = shrunk_cube
    want = orc.coverage_check(cover, surf, n_samples=10_000, seed=0)
    calls = record_certificates(monkeypatch)
    counts = count_words(monkeypatch)
    assert coverage_check(cover, surf, n_samples=10_000, seed=0) == want
    n_faces = len(surf.faces)
    whole = whole_templates(calls)
    assert len(whole) == n_faces
    assert 0 < whole.sum() < n_faces
    block = 2**16 // 10_000
    drawn = {f // block for f in np.flatnonzero(~whole)}
    assert 0 < len(drawn) < -(-n_faces // block)
    assert counts["drawn"] == 10_000 * sum(min(block, n_faces - b * block) for b in drawn)
    assert counts["drawn"] + counts["advanced"] == 10_000 * n_faces


def test_a_far_ball_closes_an_open_near_template(monkeypatch):
    """The edge-3 cube's lattice cover less one of face 0's face balls, plus
    the radius-1e4 ball of big_ball, which covers face 0 and is no near disk
    of any face.  Face 0's near disks leave a cell open, so its block, and
    only its block, is drawn, against the complete rows, which hold the far
    ball: face 0 has no miss, and the result equals the serial form's."""
    c = degenerate_single_cube(3)
    surf = knot_surface(c)
    cover = build_cover(c)
    broken = without_ball(cover, face_template(cover, surf, 0)[4])
    far = big_ball(surf, broken)
    closed = dataclasses.replace(broken, centers=np.vstack([broken.centers, far.centers]),
                                 radii=np.append(broken.radii, far.radii),
                                 face=np.append(broken.face, -1))
    calls = record_certificates(monkeypatch)
    counts = count_words(monkeypatch)
    got = coverage_check(closed, surf, n_samples=10_000, seed=0)
    whole = whole_templates(calls)
    assert not whole.all() and (~whole).sum() == 1  # face 0's template alone
    block = 2**16 // 10_000
    assert counts == {"drawn": 10_000 * block, "advanced": 10_000 * (len(surf.faces) - block)}
    assert got == (1.0, [])
    assert got == orc.coverage_check(closed, surf, n_samples=10_000, seed=0)
    # without the far ball the same block is drawn and face 0 is missed
    assert 0 in {f for f, _pt in coverage_check(broken, surf, n_samples=10_000, seed=0)[1]}


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.3), st.integers(0, 2**32 - 1),
       st.sampled_from([1000, 20_000, 70_000]))
@example(0.0, 0, 20_000)
def test_coverage_of_a_perturbed_cube_matches_the_serial_form(sigma, seed, n_samples):
    """The single cube's cover (6 faces, 38 balls) with every centre moved by
    N(0, sigma), every radius scaled by U(0.5, 1.5) and one random ball
    dropped, at blocks of 6, 3 and 1 faces: near templates whole or open,
    blocks drawn or not.  The result has the serial form's bits."""
    c = degenerate_single_cube(1)
    surf = knot_surface(c)
    cover = build_cover(c)
    rng = np.random.default_rng(seed)
    moved = dataclasses.replace(
        cover, centers=cover.centers + rng.normal(0.0, sigma, cover.centers.shape),
        radii=cover.radii * rng.uniform(0.5, 1.5, len(cover)))
    broken = without_ball(moved, int(rng.integers(len(cover))))
    got = coverage_check(broken, surf, n_samples=n_samples, seed=0)
    assert got == orc.coverage_check(broken, surf, n_samples=n_samples, seed=0)


@pytest.mark.parametrize("which", DROPPED)
def test_dropped_ball_draws_only_its_blocks(broken_preset, preset_covers, monkeypatch, which):
    """With one ball dropped, only the blocks that hold a face its trace disk
    met are drawn (at 1,000 samples, 65 faces a block), the others advanced
    past, and every missed face is one of those faces."""
    surf, covers = preset_covers
    broken, reference = broken_preset[which]
    want = reference[1000][1]
    victim = dropped_ball(covers[0], surf, which)
    # the faces whose closed square the victim's open trace disk meets
    d = covers[0].centers[victim] - surf.faces[:, :4]
    uv = np.take_along_axis(d, surf.faces[:, 4:], axis=1)
    reach2 = covers[0].radii[victim] ** 2 - (d * d).sum(axis=1) + (uv * uv).sum(axis=1)
    gap = np.maximum(np.maximum(-uv, uv - covers[0].unit), 0.0)
    met = np.flatnonzero((gap * gap).sum(axis=1) < reach2)
    assert FACE in met and {f for f, _pt in want[1]} <= set(met)
    counts = count_words(monkeypatch)
    assert coverage_check(broken, surf, n_samples=1000, seed=3) == want
    block = 2**16 // 1000
    drawn = {f // block for f in met}
    assert counts["drawn"] == 1000 * sum(min(block, len(surf.faces) - b * block) for b in drawn)
    assert counts["drawn"] + counts["advanced"] == 1000 * len(surf.faces)


def test_one_face_per_block_matches_the_serial_form():
    """At 70,000 samples a block is one face: on the straight tube less one
    face ball, the face it belonged to is drawn and the others advanced
    past, one at a time, and the result has the serial form's bits."""
    c = orc.straight_tube_complex()
    surf = knot_surface(c)
    cover = build_cover(c)
    broken = without_ball(cover, int((cover.roles == ROLE_VERTEX).sum()) + 5 * 7)
    got = coverage_check(broken, surf, n_samples=70_000, seed=3)
    assert {f for f, _pt in got[1]} == {7}
    assert got == orc.coverage_check(broken, surf, n_samples=70_000, seed=3)


@pytest.mark.parametrize("case", ["preset-k0", "preset-k2", "cube3"])
def test_face_balls_are_the_geometric_templates(preset_covers, case):
    """The construction incidence coverage_check certifies from: on the
    preset at k = 0 and 2 and on the edge-3 cube, each face's balls from
    BallCover.face_balls are the nine of its geometric template, and the
    `face` labels are face_pattern_faces."""
    if case == "cube3":
        surf, cover = lattice_cover(*LATTICE[case])
    else:
        surf, cover = preset_covers[0], preset_covers[1][int(case[-1])]
    f, b = cover.face_balls(surf)
    assert np.array_equal(f, np.repeat(np.arange(len(surf.faces)), 9))
    assert np.array_equal(np.sort(b.reshape(-1, 9), axis=1),
                          np.sort(face_templates(cover, surf), axis=1))
    assert np.array_equal(cover.face, face_pattern_faces(cover, surf))


def test_face_labels_only_pick_the_certified_disks(monkeypatch):
    """The labels are a hint: on the straight tube less one face ball, the
    result has the serial form's bits with the built labels, with every
    label -1 (no face ball is a near disk, so no template is whole and every
    sample is drawn), with the labels permuted over the balls and with the
    face labels moved past the surface's faces, which are ignored."""
    c = orc.straight_tube_complex()
    surf = knot_surface(c)
    cover = build_cover(c)
    broken = without_ball(cover, int((cover.roles == ROLE_VERTEX).sum()) + 5 * 7)
    want = orc.coverage_check(broken, surf, n_samples=3000, seed=3)
    assert want[1]
    n_faces = len(surf.faces)
    labels = {
        "built": broken.face,
        "none": np.full(len(broken), -1),
        "permuted": np.random.default_rng(0).permutation(broken.face),
        "past": np.where(broken.face >= 0, broken.face + n_faces, -1),
    }
    counts = count_words(monkeypatch)
    for name, face in labels.items():
        drawn = counts["drawn"]
        got = coverage_check(dataclasses.replace(broken, face=face), surf, n_samples=3000, seed=3)
        assert got == want, name
        if name in ("none", "past"):
            assert counts["drawn"] - drawn == 3000 * n_faces, name


# Surfaces whose corners incidence is checked: the preset, its construction
# at big-cube edges 9 and 13, the straight tube and the edge-3 cube
CORNER_SURFACES = {
    "preset": spun_trefoil_preset,
    **{f"edge{e}": functools.partial(spun_trefoil_preset, e) for e in (9, 13)},
    "tube": orc.straight_tube_complex,
    "cube3": lambda: degenerate_single_cube(3),
}


@pytest.mark.parametrize("name", CORNER_SURFACES)
def test_surface_corners_are_the_geometric_corners(name):
    """KnotSurface.corners, the face-vertex incidence the surface build keeps:
    the vertex rows at each face's corners are face_corners' four vertices,
    in its cyclic order; every vertex row is some face's corner; and the
    (F, 4) int64 array is read-only."""
    surf = knot_surface(CORNER_SURFACES[name]())
    assert surf.corners.dtype == np.int64 and surf.corners.shape == (len(surf.faces), 4)
    assert np.array_equal(surf.vertices[surf.corners], face_corners(surf))
    assert np.array_equal(np.unique(surf.corners), np.arange(len(surf.vertices)))
    assert not surf.corners.flags.writeable


def test_coverage_looks_up_each_surface_vertex_once(preset_covers, monkeypatch):
    """On the preset, coverage_check makes one lattice lookup, of the
    surface's 9,852 vertices, not one per face corner."""
    surf, covers = preset_covers
    shapes = []
    real = cv.lattice_index

    def spy(table, points):
        shapes.append(np.shape(points))
        return real(table, points)

    monkeypatch.setattr(cv, "lattice_index", spy)
    assert coverage_check(covers[0], surf, n_samples=1000, seed=0) == (1.0, [])
    assert shapes == [(9852, 4)] and len(surf.vertices) == 9852


def test_permuted_vertex_balls_still_certify_every_face(preset_covers, monkeypatch):
    """The corner balls come from the lattice lookup, not from row numbers:
    the preset's k = 0 cover with its vertex balls stored in another row
    order (centres, radii, roles, labels, hosts and `vertices` permuted
    together) still has 23 templates, all whole, and draws no word."""
    surf, covers = preset_covers
    cover = covers[0]
    n_v = len(cover.vertices)
    rows = np.concatenate([np.random.default_rng(5).permutation(n_v),
                           np.arange(n_v, len(cover))])
    assert not np.array_equal(rows[:n_v], np.arange(n_v))
    permuted = dataclasses.replace(
        cover, centers=cover.centers[rows], radii=cover.radii[rows], roles=cover.roles[rows],
        face=cover.face[rows], host=cover.host[rows], vertices=cover.vertices[rows[:n_v]])
    calls = record_certificates(monkeypatch)
    counts = count_words(monkeypatch)
    assert coverage_check(permuted, surf, n_samples=1000, seed=0) == (1.0, [])
    assert counts == {"drawn": 0, "advanced": 1000 * len(surf.faces)}
    whole = whole_templates(calls)
    assert len(whole) == 23 and whole.all()


def test_rolled_corners_only_change_what_is_drawn(monkeypatch):
    """surf.corners is a hint too: on the straight tube less one face ball,
    a surface whose corners rows are rolled by one face (so each face takes
    its neighbour's corner balls as near disks) gives the serial form's
    bits; only the number of drawn words grows."""
    c = orc.straight_tube_complex()
    surf = knot_surface(c)
    broken = without_ball(build_cover(c), int(len(surf.vertices)) + 5 * 7)
    want = orc.coverage_check(broken, surf, n_samples=3000, seed=3)
    assert want[1]
    rolled = dataclasses.replace(surf, corners=np.roll(surf.corners, 1, axis=0))
    counts = count_words(monkeypatch)
    assert coverage_check(broken, surf, n_samples=3000, seed=3) == want
    drawn = counts["drawn"]
    assert coverage_check(broken, rolled, n_samples=3000, seed=3) == want
    assert counts["drawn"] - drawn > drawn


@pytest.mark.parametrize("d, m", [(0, 5), (1, 1), (65_000, 3), (70_000, 1000)])
def test_advance_leaves_the_stream_where_drawing_would(d, m):
    """coverage_check advances the generator past a block it need not draw:
    the float32 samples after advance(d) are those after d drawn samples,
    each a pair of float32 draws, one word."""
    skipped = np.random.default_rng(3)
    skipped.bit_generator.advance(d)
    drawn = np.random.default_rng(3).random((d + m, 2), dtype=np.float32)[d:]
    assert np.array_equal(skipped.random((m, 2), dtype=np.float32), drawn)


@pytest.mark.parametrize("n_samples", [0, -3])
def test_coverage_rejects_fewer_than_one_sample(single_cube, n_samples):
    surf, cover = single_cube
    with pytest.raises(ValueError, match=f"n_samples >= 1, got {n_samples}"):
        coverage_check(cover, surf, n_samples=n_samples)


def test_preset_cover_junction_counts(preset_covers):
    surf, covers = preset_covers
    cover0 = covers[0]
    counts = cover0.role_counts()
    assert counts["vertex"] == surf.n_vertices
    assert counts["face"] == 5 * len(surf.faces)
    assert counts["junction"] == 2 * 4
    cover2 = covers[2]
    assert cover2.role_counts()["junction"] == 2 * (4 + 8 * 2)
    # constant junction radius at every refinement level
    jr = cover2.radii[cover2.roles == ROLE_JUNCTION]
    assert np.allclose(jr, closed_form_parameters(1.0)["junction_radius"])


def test_preset_cover_refinement_out_of_range():
    c = spun_trefoil_preset()
    with pytest.raises(CoverError):
        build_cover(c, k=25)


def test_host_cubes_contain_centers():
    c = degenerate_single_cube(2)
    cover = build_cover(c)
    assert (cover.host >= 0).all()
    for idx in range(0, len(cover), 7):
        cube = c.all_cubes[cover.host[idx]]
        for a in range(4):
            lo, hi = orc.interval(cube, a)
            assert lo - 1e-12 <= cover.centers[idx][a] <= hi + 1e-12


@pytest.mark.parametrize("name", ["preset k=0", "preset k=2", "straight tube", "single cube"])
def test_host_cubes_match_the_cube_by_cube_reference(preset_covers, name):
    """The lowest-index host of every ball centre, as one interval pass per
    cube finds it."""
    if name.startswith("preset"):
        c, cover = spun_trefoil_preset(), preset_covers[1][int(name[-1])]
    else:
        c = orc.straight_tube_complex() if name == "straight tube" else degenerate_single_cube(3)
        cover = build_cover(c)
    assert np.array_equal(cover.host, orc.host_cubes(c, cover.centers))


def test_host_cubes_on_the_tube_lattice_and_off_every_cube():
    """Every half-lattice point of the straight tube complex's box that some
    cube holds, corners and shared faces included, gets the reference's
    lowest index, also when the tube's cubes are not cells of one lattice;
    a point no cube holds raises."""
    c = orc.straight_tube_complex()
    grid = np.stack(np.meshgrid(*[np.arange(-0.5, 9.01, 0.5)] * 4, indexing="ij"), -1)
    points = grid.reshape(-1, 4)
    want = orc.host_cubes(c, points)
    assert set(want.tolist()) == set(range(-1, len(c.all_cubes)))
    assert np.array_equal(_host_cubes(c, points[want >= 0]), want[want >= 0])
    with pytest.raises(CoverError, match="outside every cube"):
        _host_cubes(c, points[want < 0][:1])
    skew = dataclasses.replace(c, tube=(Cube3((1, 1, 0, 0), 2, 2), Cube3((2, 1, 0, 2), 2, 2)))
    want = orc.host_cubes(skew, points)
    assert set(want.tolist()) == set(range(-1, len(skew.all_cubes)))
    assert np.array_equal(_host_cubes(skew, points[want >= 0]), want[want >= 0])


def test_vertex_index_roundtrip():
    """Every vertex ball is found at its own lattice point, as floats or as
    ints and in any batch shape; off-lattice, absent and out-of-box points
    give -1."""
    cover = build_cover(degenerate_single_cube(2))
    ids = np.flatnonzero(cover.roles == ROLE_VERTEX)
    assert len(ids) == 26
    assert np.array_equal(cover.vertex_balls(cover.centers[ids]), ids)
    points = cover.centers[ids].astype(np.int64).reshape(2, 13, 4)
    assert np.array_equal(cover.vertex_balls(points), ids.reshape(2, 13))
    assert (cover.vertex_balls(cover.centers[cover.roles != ROLE_VERTEX]) == -1).all()
    probes = [(0.5, 0, 0, 0), (0, 0, 0, 1e-9),  # off the lattice
              (1, 1, 1, 0),  # inside the cube: in the box, no vertex ball
              (3, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)]  # out of the box
    assert cover.vertex_balls(np.array(probes, dtype=float)).tolist() == [-1] * len(probes)


def test_deterministic_build():
    c = degenerate_single_cube(2)
    c1 = build_cover(c)
    c2 = build_cover(c)
    assert np.array_equal(c1.centers, c2.centers)
    assert np.array_equal(c1.radii, c2.radii)
    assert np.array_equal(c1.adjacency, c2.adjacency)
