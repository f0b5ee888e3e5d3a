import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildknot import limitset as ls
from wildknot import lorentz as lz
from wildknot.cover import ROLE_VERTEX, build_cover
from wildknot.groups import (
    assemble_group,
    orbit_spheres,
    pairwise_disjoint_subassembly,
    polyhedron_stages,
    subassembly,
)
from wildknot.limitset import (
    PointCloud,
    cloud_from_orbit,
    cloud_to_csv,
    cloud_to_json,
    cloud_to_ply,
    containment_fraction,
    export_cloud,
    hausdorff_one_sided,
    loxodromic_points,
    slice_cloud,
    stage_report,
)
from wildknot.presets import spun_trefoil_preset

import oracles as orc


def hausdorff_reference(cloud_a, cloud_b, block=1024):
    """sup over a in A of the distance from a to B, by an all-pairs scan over
    blocks of A."""
    if len(cloud_a) == 0:
        return 0.0
    if len(cloud_b) == 0:
        return float("inf")
    worst = 0.0
    for lo in range(0, len(cloud_a), block):
        d2 = (
            (cloud_a.points[lo : lo + block, None, :] - cloud_b.points[None, :, :]) ** 2
        ).sum(-1)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    return worst


def _cloud(points):
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    return PointCloud(points, ["p"] * len(points), np.zeros(len(points), dtype=np.int64))


@pytest.fixture(scope="module")
def setup():
    c = orc.degenerate_single_cube(1)
    cover = build_cover(c)
    sub = pairwise_disjoint_subassembly(cover, n=4)
    orbit = orbit_spheres(sub, 6)
    return cover, sub, orbit


def test_cloud_eps_infinite_gives_all_centers(setup):
    _cover, sub, orbit = setup
    cloud = cloud_from_orbit(orbit, np.inf, offset=sub.offset)
    assert len(cloud) == len(orbit.radii)
    assert cloud.notice is None


def test_cloud_eps_monotone_filter(setup):
    _cover, sub, orbit = setup
    big = cloud_from_orbit(orbit, 0.12, offset=sub.offset)
    small = cloud_from_orbit(orbit, 0.06, offset=sub.offset)
    assert 0 < len(small) < len(big)
    assert set(small.provenance) <= set(big.provenance)
    # halving eps keeps only deeper generations
    assert small.generation.min() >= big.generation.min()


def test_cloud_eps_too_small_notice(setup):
    _cover, sub, orbit = setup
    cloud = cloud_from_orbit(orbit, 1e-12)
    assert len(cloud) == 0
    assert cloud.notice and "radius" in cloud.notice


def test_cloud_points_inside_generation_one_spheres(setup):
    _cover, sub, orbit = setup
    eps = 0.05
    cloud = cloud_from_orbit(orbit, eps, offset=sub.offset)
    gen1 = orbit.generation == 1
    frac = containment_fraction(
        cloud, orbit.centers[gen1] + sub.offset, orbit.radii[gen1]
    )
    assert frac == 1.0


def test_loxodromic_points_inside_hull(setup):
    _cover, sub, orbit = setup
    cloud, skipped = loxodromic_points(sub, 50, seed=11, word_length=6)
    assert len(cloud) == 50
    eps = float(orbit.radii[orbit.generation == orbit.generation.max()].max())
    ref = cloud_from_orbit(orbit, float(orbit.radii[orbit.generation >= 1].max()) * 1.001,
                           offset=sub.offset)
    assert hausdorff_one_sided(cloud, ref) <= eps + 0.2
    # every fixed point inside a generation-1 sphere (never in the domain)
    gen1 = orbit.generation == 1
    assert containment_fraction(
        cloud, orbit.centers[gen1] + sub.offset, orbit.radii[gen1], slack=1e-9
    ) == 1.0


@pytest.fixture(scope="module")
def preset_subs():
    c = spun_trefoil_preset()
    cover = build_cover(c, k=0)
    group = assemble_group(c, cover)
    subs = {"schottky": pairwise_disjoint_subassembly(cover, n=4)}
    subs.update((f"amalgam {j}", subassembly(cover, group.amalgams[j].ball_ids))
                for j in (0, 90, 270))
    return subs


def _same_cloud(got, want):
    assert np.array_equal(got.points, want.points)
    assert got.provenance == want.provenance
    assert np.array_equal(got.generation, want.generation)
    assert (got.n_infinite, got.notice) == (want.n_infinite, want.notice)


@pytest.fixture
def made_rngs(monkeypatch):
    """Every generator np.random.default_rng makes, in order."""
    made = []
    default_rng = np.random.default_rng

    def spy(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


# One case per distinct input: the preset's 277 amalgams have only three
# unit-frame sub-assemblies (bit-equal matrices), and amalgams 0, 270 and 90
# are one of each
LOXODROMIC_CASES = ["schottky", "amalgam 0", "amalgam 90", "amalgam 270"]


@pytest.mark.parametrize("name", LOXODROMIC_CASES)
def test_loxodromic_points_match_the_word_by_word_loop(preset_subs, name, made_rngs):
    """The per-round stacks give the one-word-at-a-time loop's points, bit for
    bit, with its provenance, skip count and points at infinity, and draw no
    word past the loop's last.  The amalgams' order-2 and order-3 pairs give
    non-loxodromic words, so their calls redraw in later rounds.  No two
    cases have the same matrices, so none repeats another's words."""
    sub = preset_subs[name]
    assert not any(np.array_equal(sub.matrices, preset_subs[other].matrices)
                   for other in LOXODROMIC_CASES if other != name)
    redrawn = 0
    for seed, length in itertools.product((0, 3, 11), (4, 6, 8)):
        cloud, skipped = loxodromic_points(sub, 100, seed=seed, word_length=length)
        want, want_skipped = orc.loxodromic_points(sub, 100, seed=seed, word_length=length)
        assert len(cloud) == 100 and skipped == want_skipped
        _same_cloud(cloud, want)
        assert made_rngs[-2].bit_generator.state == made_rngs[-1].bit_generator.state
        redrawn += skipped
    assert (redrawn > 0) == (name != "schottky")


# Two amalgams of different unit-frame classes
ACCURACY_CASES = [0, 90]


@pytest.mark.parametrize("j", ACCURACY_CASES)
def test_amalgam_fixed_points_are_as_accurate_as_the_eig_path(preset_subs, j):
    """On 100 random cyclically reduced words of each even length to 10 in
    an amalgam's sub-assembly, the attracting points of the loxodromic
    words are within 2 eps of the long-double reference and no further from
    it than LAPACK's eigenvector with its float64 polish (which is 1e-14 off
    at length 10).  The two cases' matrices differ, so the second is a
    second input, not more samples of the first."""
    sub = preset_subs[f"amalgam {j}"]
    assert not any(np.array_equal(sub.matrices, preset_subs[f"amalgam {other}"].matrices)
                   for other in ACCURACY_CASES if other != j)
    rng = np.random.default_rng(j)
    ms = []
    for length in range(2, 11, 2):
        words = np.array([ls._cyclic_word(rng, len(sub.ball_ids), length) for _ in range(100)])
        m = np.eye(6)
        for letters in words.T:
            m = m @ sub.matrices[letters]
        ms.append(m)
    ms = np.concatenate(ms)
    kind, att = lz.classify_maps(ms)
    lox = kind == lz.LOXODROMIC
    assert lox.sum() > 400
    new, eig = orc.worst_fixed_point_errors(ms[lox], att[lox])
    assert new <= min(eig, 2 * np.finfo(float).eps), (new, eig)


def test_loxodromic_points_run_no_eigensolver(preset_subs, monkeypatch):
    """With numpy.linalg.eig unavailable, an amalgam's points still come."""
    sub = preset_subs["amalgam 0"]
    want, want_skipped = loxodromic_points(sub, 100, seed=3, word_length=8)

    def refuse(*_args, **_kwargs):
        raise AssertionError("numpy.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    cloud, skipped = loxodromic_points(sub, 100, seed=3, word_length=8)
    assert len(cloud) == 100 and skipped == want_skipped > 0
    _same_cloud(cloud, want)


def test_loxodromic_points_stop_at_the_attempts_cap(setup, made_rngs):
    """Two adjacent vertex balls generate the order-3 dihedral group, so every
    word of length 2 is elliptic: the call draws its cap of 50 n words, no
    more, skips them all and returns the empty cloud."""
    cover = setup[0]
    roles = cover.roles
    i, j, _m = next(r for r in cover.adjacency
                    if r[2] == 3 and roles[r[0]] == roles[r[1]] == ROLE_VERTEX)
    pair = subassembly(cover, [i, j])
    cloud, skipped = loxodromic_points(pair, 5, seed=0, word_length=2)
    want, want_skipped = orc.loxodromic_points(pair, 5, seed=0, word_length=2)
    assert skipped == want_skipped == 250
    assert len(cloud) == 0 and cloud.notice == "no loxodromic words found"
    _same_cloud(cloud, want)
    # the oracle stops after its 250th word: both generators are at the same state
    assert made_rngs[0].bit_generator.state == made_rngs[1].bit_generator.state


def test_loxodromic_rejects_odd_length(setup):
    _cover, sub, _orbit = setup
    with pytest.raises(ValueError):
        loxodromic_points(sub, 1, word_length=3)


def test_loxodromic_rejects_one_generator(setup):
    """With one generator no second letter can differ from the first: an
    error, not an endless rejection loop."""
    one = pairwise_disjoint_subassembly(setup[0], n=1)
    with pytest.raises(ValueError, match="at least 2 generators"):
        loxodromic_points(one, 5, word_length=2)


def test_loxodromic_rejects_a_length_below_two(setup):
    _cover, sub, _orbit = setup
    with pytest.raises(ValueError, match="at least 2"):
        loxodromic_points(sub, 5, word_length=0)


def test_hausdorff_step_bounded_by_radius(setup):
    """One-sided step from depth L+1 back to depth L is at most the max gen-L
    radius: every new center lies inside its depth-L parent sphere."""
    _cover, sub, _orbit = setup
    for L in (3, 4, 5):
        a = orbit_spheres(sub, L)
        b = orbit_spheres(sub, L + 1)
        ca = cloud_from_orbit(a, np.inf)
        cb = cloud_from_orbit(b, np.inf)
        max_r = float(a.radii[a.generation == L].max())
        assert 0.0 < hausdorff_one_sided(cb, ca) <= max_r + 1e-12
        assert hausdorff_one_sided(ca, cb) == 0.0  # ca is a subset of cb


def test_hausdorff_equals_reference_on_orbit_clouds(setup):
    """Bit-for-bit equal to the all-pairs scan on the Schottky steps L -> L-1
    and on loxodromic fixed points against the orbit cloud."""
    _cover, sub, orbit = setup
    clouds = {L: cloud_from_orbit(orbit_spheres(sub, L), np.inf) for L in range(2, 7)}
    for L in range(3, 7):
        step = hausdorff_one_sided(clouds[L], clouds[L - 1])
        assert step > 0.0
        assert step == hausdorff_reference(clouds[L], clouds[L - 1]), L
    lox, _skipped = loxodromic_points(sub, 100, seed=3, word_length=6)
    ref = cloud_from_orbit(orbit, np.inf, offset=sub.offset)
    assert hausdorff_one_sided(lox, ref) == hausdorff_reference(lox, ref)


@st.composite
def cantor_clouds(draw):
    """Two clouds from one random 4-D Cantor construction: each level keeps
    2 or 3 shrunken lattice-shifted copies of the last, so points cluster at
    every scale, and a repeated shift duplicates points.  B may be A itself."""
    ratio = draw(st.sampled_from([0.5, 0.3, 0.1, 1e-3]))
    shifts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=2, max_size=3))
    scale = draw(st.sampled_from([1.0, 1e-7, 1e5]))
    origin = np.array(draw(st.tuples(*[st.integers(-5, 5)] * 4)), dtype=float)

    def cloud(depth):
        pts = np.zeros((1, 4))
        for _ in range(depth):
            pts = np.concatenate([pts * ratio + np.array(t, dtype=float) for t in shifts])
        return _cloud(origin + scale * pts)

    a = cloud(draw(st.integers(0, 5)))
    b = a if draw(st.booleans()) else cloud(draw(st.integers(0, 5)))
    return a, b


@settings(max_examples=200, deadline=None)
@given(cantor_clouds())
def test_hausdorff_matches_reference_on_cantor_clouds(clouds):
    a, b = clouds
    got = hausdorff_one_sided(a, b)
    assert got == hausdorff_reference(a, b)
    if a is b:
        assert got == 0.0


def test_hausdorff_empty_clouds():
    pts = _cloud([[0.0, 1.0, 2.0, 3.0]])
    assert hausdorff_one_sided(_cloud([]), pts) == 0.0
    assert hausdorff_one_sided(pts, _cloud([])) == float("inf")
    assert hausdorff_one_sided(_cloud([]), _cloud([])) == 0.0


def test_hausdorff_far_outlier():
    """One point of A far from a dense B needs many doublings of the cell
    side; the rest resolve at once."""
    rng = np.random.default_rng(4)
    b = rng.random((2000, 4)) * 1e-3
    a = np.vstack([b[:500] + 1e-6, [[7.0, -3.0, 0.5, 2.0]]])
    got = hausdorff_one_sided(_cloud(a), _cloud(b))
    assert got == hausdorff_reference(_cloud(a), _cloud(b))
    assert got > 7.0


def test_hausdorff_nearest_point_two_cells_away():
    """B spans 8 units with 8 points, so the first cell side is 1.  The point
    of A finds the origin (1.109 away) among its neighbouring cells, but its
    nearest point (1.01 away) sits two cells along; a candidate at least one
    side away is not final."""
    b = _cloud([[0, 0, 0, 0], [2.0, 0.5, 0, 0]] + [[8, 8, 8, 8]] * 6)
    a = _cloud([[0.99, 0.5, 0, 0]])
    got = hausdorff_one_sided(a, b)
    assert got == hausdorff_reference(a, b)
    assert got < 1.02  # the point two cells along, not the origin


def test_hausdorff_points_on_cell_boundaries():
    """B spans 7 units with 8 points, so the first cell side is 7/8: every
    coordinate of A is an exact multiple of a side the search uses, and
    many points of A sit exactly one side from B."""
    b = _cloud([[k, 0, 0, 0] for k in range(8)])
    a = _cloud(list(itertools.product([0.0, 7 / 8, 7 / 4, 21 / 8, 7.0], repeat=4)))
    assert hausdorff_one_sided(a, b) == hausdorff_reference(a, b)
    assert hausdorff_one_sided(b, a) == hausdorff_reference(b, a)


def test_hausdorff_sparse_cloud_keeps_a_64_bit_key():
    """80,000 points along a diagonal, in twins 0.04 apart over an extent of
    40,000 (10^6 times the spacing).  Cells of side extent / |B| would put
    the 40,000 diagonal positions two cells apart on every axis, about
    80,000^4 keys; the search must not overflow or raise."""
    k = np.arange(40_000.0)[:, None]
    diagonal = np.repeat(k, 4, axis=1)
    b = _cloud(np.vstack([diagonal, diagonal + [0.04, 0, 0, 0]]))
    rng = np.random.default_rng(9)
    near = diagonal[rng.choice(40_000, 40)] + rng.normal(scale=0.3, size=(40, 4))
    a = _cloud(np.vstack([near, rng.random((10, 4)) * 40_000.0]))
    assert hausdorff_one_sided(a, b) == hausdorff_reference(a, b, block=16)


def test_stage_report(setup):
    _cover, sub, orbit = setup
    stages = polyhedron_stages(sub, orbit, 4)
    report = stage_report(stages)
    assert report[0]["description"] == "K_0 = base knot"
    assert report[1]["description"] == "K_1 = K_0 # K_0"
    counts = [r["side_count"] for r in report]
    assert counts == sorted(set(counts))


def test_slice_cloud(setup):
    _cover, sub, orbit = setup
    cloud = cloud_from_orbit(orbit, np.inf, offset=sub.offset)
    sl = slice_cloud(cloud, 3, 0.0, 0.5)
    assert sl.points.shape[1] == 3
    assert len(sl) > 0
    thin = slice_cloud(cloud, 3, 0.0, 0.01)
    assert set(thin.provenance) <= set(sl.provenance)
    far = slice_cloud(cloud, 0, 1e6, 0.5)
    assert len(far) == 0 and far.notice
    with pytest.raises(ValueError):
        slice_cloud(cloud, 0, 0.0, 0.0)
    for axis in (-1, 4):  # numpy would wrap -1 and keep all four axes
        with pytest.raises(ValueError, match="slice axis"):
            slice_cloud(cloud, axis, 0.0, 0.5)


def test_csv_roundtrip(setup):
    _cover, sub, orbit = setup
    cloud = cloud_from_orbit(orbit, 0.1, offset=sub.offset)
    lines = cloud_to_csv(cloud).splitlines()
    assert lines[0] == "x1,x2,x3,x4,generation,provenance"
    rows = [ln.split(",", 5) for ln in lines[1:]]
    assert len(rows) == len(cloud)
    assert np.array_equal(np.array([r[:4] for r in rows], dtype=float), cloud.points)
    assert [r[5] for r in rows] == cloud.provenance
    assert [int(r[4]) for r in rows] == cloud.generation.tolist()


def test_ply_format(setup):
    _cover, sub, orbit = setup
    cloud = cloud_from_orbit(orbit, 0.1, offset=sub.offset)
    sl = slice_cloud(cloud, 3, 0.0, 0.5)
    text = cloud_to_ply(sl)
    lines = text.splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert f"element vertex {len(sl)}" in lines
    assert "end_header" in lines
    body = lines[lines.index("end_header") + 1 :]
    assert len(body) == len(sl)
    assert all(len(row.split()) == 4 for row in body)  # x y z generation


def test_exports_byte_identical(tmp_path, setup):
    _cover, sub, orbit = setup
    cloud = cloud_from_orbit(orbit, 0.1, offset=sub.offset)
    for fmt in ("csv", "ply", "json"):
        p1 = tmp_path / f"a.{fmt}"
        p2 = tmp_path / f"b.{fmt}"
        export_cloud(cloud if fmt != "ply" else slice_cloud(cloud, 3, 0.0, 0.5), fmt, p1)
        export_cloud(cloud if fmt != "ply" else slice_cloud(cloud, 3, 0.0, 0.5), fmt, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_empty_cloud_exports(tmp_path, setup):
    """An empty cloud exports its own dimension: the empty 4-D cloud of a
    too small eps and its empty 3-D slice, in all three formats, each equal
    to the one-field-at-a-time oracle's text."""
    _cover, sub, orbit = setup
    empty = cloud_from_orbit(orbit, 1e-12)
    for cloud, dim in ((empty, 4), (slice_cloud(empty, 3, 0.0, 0.5), 3)):
        assert cloud.dim == dim
        csv = cloud_to_csv(cloud)
        assert csv == ",".join(["x1", "x2", "x3", "x4"][:dim] + ["generation", "provenance"]) + "\n"
        assert csv == orc.cloud_to_csv(cloud)
        doc = cloud_to_json(cloud)
        assert json.loads(doc)["dim"] == dim and '"n_points": 0' in doc
        assert doc == orc.cloud_to_json(cloud)
        header = cloud_to_ply(cloud).splitlines()
        assert [h.split()[-1] for h in header if h.startswith("property float")] == [
            "x", "y", "z", "w"][:dim]
        assert header[-1] == "end_header" and "element vertex 0" in header
