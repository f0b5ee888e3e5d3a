import math
import types

import numpy as np
import pytest

from wildknot import complexes as cx
from wildknot import groups as gr
from wildknot import lorentz as lz
from wildknot.cover import build_cover
from wildknot.groups import (
    GroupError,
    assemble_group,
    enumerate_words,
    faithfulness_scan,
    fundamental_domain_check,
    lorentz_drift,
    max_radius_per_generation,
    orbit_spheres,
    pairwise_disjoint_subassembly,
    polyhedron_stages,
    reflection_matrices,
    relation_residuals,
    relation_suite,
    subassembly,
)
from wildknot.presets import degenerate_single_cube, spun_trefoil_preset

import oracles as orc


@pytest.fixture(scope="module")
def cube_group():
    c = degenerate_single_cube(1)
    cover = build_cover(c)
    return c, cover, assemble_group(c, cover)


@pytest.fixture(scope="module")
def tube_cover():
    """Two big cubes joined by a straight tube: a cover with 7 amalgams."""
    big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 6), 3, 3))
    tube = tuple(cx.Cube3((1, 1, 0, w), 1, 2) for w in range(6))
    c = cx.CubeComplex(big, tube)
    cover = build_cover(c)
    return cover, assemble_group(c, cover)


def triangle_subassembly():
    """Three unit balls at mutual distance 1: exterior cosines -1/2, so every
    pair is declared order 3 and the Coxeter group is the affine triangle
    group A~2, but the geometric group is finite."""
    centers = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.5, math.sqrt(0.75), 0, 0]])
    return subassembly(types.SimpleNamespace(centers=centers, radii=np.ones(3)), [0, 1, 2])


def assign_parents_reference(centers, radii, block=2048):
    """Smallest strictly containing sphere per sphere, -1 if none, by an
    all-pairs search over the orbit.

    Sphere j strictly contains sphere i iff d(c_i, c_j) + r_i < r_j.  The
    blocked Gram-matrix distance is only a coarse filter: its absolute error
    (~1e-15 at unit scale) swamps the true separation of deep-orbit spheres,
    so every candidate is recomputed from center differences.
    """
    n = len(radii)
    parent = np.full(n, -1, dtype=np.int64)
    n2 = (centers * centers).sum(axis=1)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d2 = n2[lo:hi, None] + n2[None, :] - 2.0 * (centers[lo:hi] @ centers.T)
        d = np.sqrt(np.maximum(d2, 0.0))
        coarse = d + radii[lo:hi, None] < radii[None, :] + 1e-6
        for row in range(hi - lo):
            i = lo + row
            js = np.nonzero(coarse[row])[0]
            js = js[js != i]
            diff = centers[js] - centers[i]
            dx = np.sqrt((diff * diff).sum(axis=1))
            js = js[dx + radii[i] < radii[js] - 1e-12]
            if len(js):
                parent[i] = js[np.argmin(radii[js])]
    return parent


def stages_reference(sub, orbit, n_stages):
    """[(n_sides, reflector_seq)] of the doubling, computed on the spheres:
    a side is a (centre, radius) row, equal to another when every entry
    differs by at most 1e-6 of the radius."""

    def find(sides, row):
        hit = np.abs(sides - row).max(axis=1) <= 1e-6 * row[4]
        return int(np.argmax(hit)) if hit.any() else None

    sides = np.c_[sub.centers, sub.radii]
    orbit_rows = np.c_[orbit.centers, orbit.radii]
    out = [(len(sides), -1)]
    for _ in range(n_stages):
        used = {m for _n, m in out}
        mirror = next(i for i in range(len(orbit_rows))
                      if i not in used and find(sides, orbit_rows[i]) is not None)
        absorbed = find(sides, orbit_rows[mirror])
        reflect = orc.reflection(orbit.polars[mirror])
        cen, rad = lz.centers_radii((reflect @ lz.spheres(sides[:, :4], sides[:, 4]).T).T)
        images = np.c_[cen, rad]
        new = np.empty((0, 5))
        for i in range(len(sides)):
            if i == absorbed:
                continue
            for row in (sides[i], images[i]):
                if find(new, row) is None:
                    new = np.vstack([new, row])
        sides = new
        out.append((len(sides), mirror))
    return out


@pytest.fixture(scope="module")
def preset_group():
    c = spun_trefoil_preset()
    cover = build_cover(c, k=0)
    return c, cover, assemble_group(c, cover)


def test_generator_count_and_blocks(cube_group):
    c, cover, g = cube_group
    assert g.n_generators == len(cover)
    # the host cubes' blocks partition the generators
    blocks = [np.flatnonzero(cover.host == h) for h in range(len(c.all_cubes))]
    assert sorted(np.concatenate(blocks).tolist()) == list(range(len(cover)))


def test_reflection_matrices_match_scalar_path(cube_group):
    _c, cover, _g = cube_group
    mats = reflection_matrices(cover.polars[:5])
    for i in range(5):
        assert np.allclose(mats[i], orc.reflection(cover.polars[i]), atol=1e-14)


def test_relation_suite_single_cube(cube_group):
    _c, _cover, g = cube_group
    report = relation_suite(g)
    assert report["ok"]
    assert report["max_residual"] <= 1e-8
    assert report["min_premature_gap"] > 0.5


def test_order_two_and_three_oracle():
    """Hand-built pairs: matrix powers hit I exactly at the Coxeter order."""
    # orthogonal pair (order 2)
    p1 = orc.sphere([0.0, 0, 0, 0], 1.0)
    p2 = orc.sphere([math.sqrt(2.0), 0, 0, 0], 1.0)
    prod = orc.reflection(p1) @ orc.reflection(p2)
    assert np.abs(prod @ prod - np.eye(6)).max() <= 1e-12
    assert np.abs(prod - np.eye(6)).max() > 0.5
    # pi/3 pair (order 3)
    r = 1.0 / math.sqrt(3.0)
    q1 = orc.sphere([0.0, 0, 0, 0], r)
    q2 = orc.sphere([1.0, 0, 0, 0], r)
    prod = orc.reflection(q1) @ orc.reflection(q2)
    p3 = prod @ prod @ prod
    assert np.abs(p3 - np.eye(6)).max() <= 1e-12
    assert np.abs(prod @ prod - np.eye(6)).max() > 0.5


def test_preset_amalgams(preset_group):
    c, cover, g = preset_group
    # one amalgam per consecutive cube pair in the chain
    assert len(g.amalgams) == len(c.all_cubes) - 1
    for am in g.amalgams:
        assert len(am.ball_ids) == 4
    assert any(am.straight for am in g.amalgams)
    # attach squares appear as the first and last amalgams
    squares = c.attach_squares()
    assert g.amalgams[0].square == squares[0]
    assert g.amalgams[-1].square == squares[1]


def test_dihedral_oracle(cube_group):
    """Two pi/3 generators enumerate to exactly the order-6 dihedral group."""
    _c, cover, g = cube_group
    i, j, m = next(r for r in cover.adjacency if r[2] == 3)
    sub = subassembly(cover, [i, j])
    table = enumerate_words(sub, max_length=10)
    assert len(table.words) == 6
    assert not table.truncated
    # relation (rs)^3 = 1 merged the longer words
    assert table.n_merged > 0


def test_enumerate_words_small_counts(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    t0 = enumerate_words(sub, 0)
    assert t0.words == [()]
    t1 = enumerate_words(sub, 1)
    assert len(t1.words) == 5
    # free product of four involutions: no relations merge anything
    t4 = enumerate_words(sub, 4)
    assert len(t4.words) == 1 + sum(4 * 3 ** (l - 1) for l in range(1, 5))
    assert t4.n_merged == 0


def _growth_subassembly(name, cube_group, tube_cover):
    cover = cube_group[1]
    if name == "free":
        return pairwise_disjoint_subassembly(cover, n=4)
    if name == "order3_pair":
        i, j, _m = next(r for r in cover.adjacency if r[2] == 3)
        return subassembly(cover, [i, j])
    if name == "mixed":  # orders 3 at (0,1), 2 at (0,3), infinity elsewhere
        return subassembly(cover, [0, 1, 8, 9])
    if name == "amalgam":
        tc, tg = tube_cover
        return subassembly(tc, tg.amalgams[0].ball_ids)
    return triangle_subassembly()


@pytest.mark.parametrize(
    "name, growth",
    [
        ("free", [1] + [4 * 3 ** (n - 1) for n in range(1, 7)]),
        ("order3_pair", [1, 2, 2, 1, 0, 0, 0]),
        ("mixed", [1, 4, 11, 29, 76, 200, 526, 1383, 3637]),
        ("amalgam", [1, 4, 12, 32, 84, 220, 576, 1508, 3948]),
        ("triangle", [1] + [3 * n for n in range(1, 9)]),
    ],
)
def test_growth_series(cube_group, tube_cover, name, growth):
    """Elements per word length equal the Coxeter group's growth series.

    The series follow from 1/W(t) = sum over the finite parabolic subgroups
    W_T of (-1)^|T| t^N_T / P_T(t), P_T the Poincare polynomial of degree N_T;
    for "mixed": 1 - 4t/(1+t) + t^2/(1+t)^2 + t^3/((1+t)(1+t+t^2)).
    """
    sub = _growth_subassembly(name, cube_group, tube_cover)
    table = enumerate_words(sub, len(growth) - 1)
    assert np.bincount(table.lengths, minlength=len(growth)).tolist() == growth
    assert [len(w) for w in table.words] == table.lengths.tolist()
    assert table.words == sorted(table.words, key=lambda w: (len(w), w))
    assert len(set(table.words)) == len(table.words)
    assert table.n_raw - table.n_merged == len(table.words)
    # every word is reduced: no letter repeats its predecessor
    assert all(a != b for w in table.words for a, b in zip(w, w[1:]))


def test_tits_entry_guard(cube_group, monkeypatch):
    """Entries past TITS_MAX raise instead of wrapping around int64."""
    sub = pairwise_disjoint_subassembly(cube_group[1], n=2)  # infinite dihedral
    assert len(enumerate_words(sub, 40).words) == 1 + 2 * 40
    monkeypatch.setattr(gr, "TITS_MAX", 10)
    with pytest.raises(GroupError, match="overflow"):
        enumerate_words(sub, 40)


def test_lorentz_drift_small(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    table = enumerate_words(sub, 6)
    assert lorentz_drift(table) <= 1e-7


def test_faithfulness_scan(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    report = faithfulness_scan(sub, 5)
    assert report["ok"]
    assert report["min_gap"] > 0.1


def test_faithfulness_scan_rejects_the_affine_triangle():
    """Negative control for criterion 4: the triangle's infinite Coxeter group
    maps onto a finite group, so distinct elements share a matrix and some
    nonempty word evaluates to the identity."""
    report = faithfulness_scan(triangle_subassembly(), 8)
    assert not report["ok"]
    assert report["violations"]
    assert report["min_gap"] <= 0.1


def test_orbit_nesting_and_decay(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    orbit = orbit_spheres(sub, 5)
    assert not orbit.truncated
    gen0 = orbit.generation == 0
    assert gen0.sum() == 4
    assert (orbit.parent[gen0] == -1).all()
    # every deeper sphere has a parent, strictly containing and one
    # generation up; parents come earlier in the enumeration
    deeper = np.nonzero(orbit.generation >= 1)[0]
    assert len(deeper) > 0
    for i in deeper:
        p = orbit.parent[i]
        assert p >= 0
        assert p < i
        assert orbit.generation[p] == orbit.generation[i] - 1
        d = float(np.linalg.norm(orbit.centers[i] - orbit.centers[p]))
        assert d + orbit.radii[i] < orbit.radii[p]
        # combinatorial cross-check: parent of w(s_j) is prefix(w)(s_last)
        w = orbit.words[i]
        assert orbit.words[p] == w[:-1]
        assert orbit.seed[p] == w[-1]
    decay = max_radius_per_generation(orbit)
    gens = sorted(decay)
    assert all(decay[a] >= decay[b] for a, b in zip(gens, gens[1:]))
    assert decay[gens[-1]] < decay[1]


def _parent_oracle_subs(cube_group, tube_cover):
    cover = cube_group[1]
    tc, tg = tube_cover
    yield "schottky", pairwise_disjoint_subassembly(cover, n=4)
    yield "mixed", subassembly(cover, [0, 1, 8, 9])  # vertex and face balls
    for am in tg.amalgams:
        yield f"amalgam {am.index}", subassembly(tc, am.ball_ids)


def test_parents_match_all_pairs_search(cube_group, tube_cover):
    """Prefix-sphere parents equal the smallest container among all spheres."""
    assert len(tube_cover[1].amalgams) == 7
    for name, sub in _parent_oracle_subs(cube_group, tube_cover):
        orbit = orbit_spheres(sub, 6)
        ref = assign_parents_reference(orbit.centers, orbit.radii)
        assert np.array_equal(orbit.parent, ref), name
        assert (orbit.parent >= 0).any(), name


def test_orbit_roots_name_distinct_spheres(cube_group, tube_cover):
    """Each sphere's root is positive and its own; no two spheres coincide."""
    for name, sub in _parent_oracle_subs(cube_group, tube_cover):
        orbit = orbit_spheres(sub, 4)
        assert (orbit.roots >= 0).all(), name
        assert len({r.tobytes() for r in orbit.roots}) == len(orbit.roots), name
        geo = np.c_[orbit.centers, orbit.radii]
        gap = np.abs(geo[:, None, :] - geo[None, :, :]).max(axis=-1)
        np.fill_diagonal(gap, np.inf)
        assert gap.min() > 1e-9, name


def test_orbit_generation_one_nested_in_mirror(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=3)
    orbit = orbit_spheres(sub, 1)
    for i in np.nonzero(orbit.generation == 1)[0]:
        mirror = orbit.words[i][0]
        d = float(np.linalg.norm(orbit.centers[i] - sub.centers[mirror]))
        assert d + orbit.radii[i] < sub.radii[mirror]


def test_polyhedron_stages(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    orbit = orbit_spheres(sub, 4)
    stages = polyhedron_stages(sub, orbit, 5)
    assert len(stages) == 6
    assert stages[0].n_sides == 4
    counts = [s.n_sides for s in stages]
    assert counts == [4, 6, 10, 18, 34, 66]
    # recurrence cross-check against the recounted side sets
    for prev, cur in zip(stages, stages[1:]):
        assert cur.n_sides == 2 * prev.n_sides - 2
        assert cur.n_sides == len(cur.sides)
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]
    # each mirror is a side of the stage before, and leaves the side set
    for prev, cur in zip(stages, stages[1:]):
        mirror = tuple(orbit.roots[cur.reflector_seq].tolist())
        assert mirror in prev.sides and mirror not in cur.sides


def test_amalgam_stages_fall_below_the_schottky_recurrence(tube_cover):
    """Sides that are mirror images of each other count once, so every tube
    amalgam's side counts fall below 2s - 2 from stage 3 on."""
    cover, group = tube_cover
    for am in group.amalgams:
        sub = subassembly(cover, am.ball_ids)
        stages = polyhedron_stages(sub, orbit_spheres(sub, 5), 6)
        assert [s.n_sides for s in stages] == [4, 6, 10, 16, 30, 52, 98], am.index


def test_orbit_spheres_rejects_a_sphere_through_infinity():
    """The affine triangle's first words already send a generator sphere
    through infinity: an input error, not a bare ValueError."""
    with pytest.raises(GroupError, match="through infinity"):
        orbit_spheres(triangle_subassembly(), 1)


def test_stages_match_sphere_geometry(cube_group, tube_cover):
    """Root-arithmetic stages equal the doubling carried out on the spheres."""
    for name, sub in _parent_oracle_subs(cube_group, tube_cover):
        orbit = orbit_spheres(sub, 5)
        stages = polyhedron_stages(sub, orbit, 6)
        ref = stages_reference(sub, orbit, 6)
        assert [(s.n_sides, s.reflector_seq) for s in stages] == ref, name


def test_fundamental_domain_check(cube_group):
    _c, cover, _g = cube_group
    report = fundamental_domain_check(cover, budget=20_000, seed=3)
    assert report["ok"]
    assert report["violations"] == 0
    assert report["checks"] > 0


@pytest.mark.parametrize("budget, checks", [(0, 0), (20, 20), (114, 114), (115, 114)])
def test_fundamental_domain_check_count(cube_group, budget, checks):
    """ceil(budget / per_gen) generators, capped at n, get per_gen points each:
    budgets below n (38), equal to 3n, and not a multiple of per_gen = 3; a
    zero budget checks nothing and so does not pass."""
    _c, cover, _g = cube_group
    n = len(cover)
    per_gen = max(1, budget // n)
    report = fundamental_domain_check(cover, budget=budget, seed=1)
    assert report["checks"] == min(n, math.ceil(budget / per_gen)) * per_gen == checks
    assert report["violations"] == 0
    assert report["ok"] == (checks > 0)


def domain_reference(cover, budget, seed):
    """fundamental_domain_check as it was before its rejection sampler used
    the grid join: every candidate point against every ball, 8192 balls at a
    time."""
    rng = np.random.default_rng(seed)
    n = len(cover)
    per_gen = max(1, budget // n)
    gen_order = rng.permutation(n)
    lo = cover.centers.min(axis=0) - 2.0
    hi = cover.centers.max(axis=0) + 2.0
    n_points = max(per_gen * 4, 64)
    pts = []
    attempts = 0
    while len(pts) < n_points and attempts < 100:
        cand = rng.random((n_points, 4)) * (hi - lo) + lo
        inside = np.zeros(len(cand), dtype=bool)
        for blo in range(0, n, 8192):
            bhi = min(blo + 8192, n)
            dd = (
                (cand[:, None, :] - cover.centers[None, blo:bhi, :]) ** 2
            ).sum(-1) - cover.radii[None, blo:bhi] ** 2
            inside |= (dd < 0).any(axis=1)
        pts.extend(cand[~inside])
        attempts += 1
    pts = np.array(pts[:n_points])
    gens = gen_order[: max(0, budget)]
    take = pts[rng.integers(0, len(pts), (len(gens), per_gen))]
    c = cover.centers[gens][:, None, :]
    r = cover.radii[gens][:, None]
    diff = take - c
    dist2 = (diff * diff).sum(axis=2)
    img = c + (r * r / dist2)[:, :, None] * diff
    img_dist2 = ((img - c) ** 2).sum(axis=2)
    violations = int((img_dist2 >= r * r).sum())
    checks = len(gens) * per_gen
    return {
        "budget": budget,
        "checks": checks,
        "n_sample_points": len(pts),
        "violations": violations,
        "ok": violations == 0 and len(pts) > 0 and checks > 0,
    }


@pytest.mark.parametrize("budget, seed", [(100_000, 0), (1_000, 5), (1_000_000, 2)])
def test_fundamental_domain_check_matches_dense_reference(cube_group, preset_group,
                                                          budget, seed):
    for cover in (cube_group[1], preset_group[1]):
        got = fundamental_domain_check(cover, budget=budget, seed=seed)
        assert got == domain_reference(cover, budget, seed)


def test_relations_are_one_int_array(cube_group):
    _c, cover, g = cube_group
    rel = g.relations
    assert rel is cover.adjacency
    assert rel.dtype == np.int64
    assert rel.shape == (len(rel), 3) and len(rel) > 0
    assert np.all(np.diff(rel[:, 0] * len(cover) + rel[:, 1]) > 0)  # sorted by (i, j)
    assert (rel[:, 0] < rel[:, 1]).all() and set(rel[:, 2].tolist()) == {2, 3}


def test_relation_residuals_oracle():
    """The batched kernel against scalar matrix powers in each pair's midpoint
    frame, on pairs placed at lattice scale; a wrong order must show."""
    r = 1.0 / math.sqrt(3.0)
    far = np.array([40.0, -25.0, 13.5, 7.0])
    centers = np.array([
        [far, far + [math.sqrt(2.0), 0, 0, 0]],  # orthogonal, order 2
        [far, far + [0, 1.0, 0, 0]],  # pi/3, order 3
        [far, far + [0, 0, 1.0, 0]],  # pi/3 declared order 2
    ])
    radii = np.array([[1.0, 1.0], [r, r], [r, r]])
    orders = np.array([2, 3, 2])
    residual, gap = relation_residuals(centers, radii, orders)
    for n in range(3):
        mid = centers[n].mean(axis=0)
        prod = orc.reflection(orc.sphere(centers[n, 0] - mid, radii[n, 0])) @ orc.reflection(
            orc.sphere(centers[n, 1] - mid, radii[n, 1])
        )
        dist = [
            np.abs(np.linalg.matrix_power(prod, p) - np.eye(6)).max()
            for p in range(1, orders[n] + 1)
        ]
        assert residual[n] == pytest.approx(dist[-1], abs=1e-12)
        assert gap[n] == pytest.approx(min(dist[:-1]), abs=1e-12)
    assert residual[:2].max() <= 1e-12 and gap[:2].min() > 0.5
    assert residual[2] > 0.5
    empty = relation_residuals(np.zeros((0, 2, 4)), np.ones((0, 2)), np.zeros(0, dtype=int))
    assert [len(a) for a in empty] == [0, 0]


def test_subassembly_rejects_bad_pairs():
    c = degenerate_single_cube(1)
    cover = build_cover(c)
    with pytest.raises(GroupError):
        subassembly(cover, [0, 0])


def test_preset_relation_suite(preset_group):
    _c, _cover, g = preset_group
    report = relation_suite(g)
    assert report["ok"]
    assert report["max_residual"] <= 1e-8
