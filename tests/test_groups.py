import dataclasses
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildknot import complexes as cx
from wildknot import cover as cv
from wildknot import groups as gr
from wildknot import lorentz as lz
from wildknot.cover import CoverError, build_cover
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
from wildknot.presets import spun_trefoil_preset

import oracles as orc


@pytest.fixture(scope="module")
def cube_group():
    c = orc.degenerate_single_cube(1)
    cover = build_cover(c)
    return c, cover, assemble_group(c, cover)


def tube_complex():
    """Two big cubes joined by a straight tube."""
    big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 6), 3, 3))
    tube = tuple(cx.Cube3((1, 1, 0, w), 1, 2) for w in range(6))
    return cx.CubeComplex(big, tube)


@pytest.fixture(scope="module")
def tube_cover():
    """The tube complex's cover, with 7 amalgams."""
    c = tube_complex()
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
        reflect = orc.reflection(orc.sphere(orbit.centers[mirror], orbit.radii[mirror]))
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


def renormalised_polars(sub, dtype):
    """The sub-assembly's polars renormalised to Q(v, v) = 1 at `dtype`: a
    float64 polar has Q(v, v) = 1 only to ~1e-16, and that defect is
    amplified by the word norm squared just like accumulation rounding."""
    v = sub.polars.astype(dtype)
    qv = (v[:, :5] ** 2).sum(axis=1) - v[:, 5] ** 2
    return v / np.sqrt(qv)[:, None]


def enumerate_words_reference(sub, max_length, max_elements=2_000_000, dtype=float):
    """enumerate_words as a per-word loop: a `seen` set of Tits-matrix bytes
    across all lengths, and one product per word, recording each new word's
    prefix row and last letter.  The product is M @ R_g in float64, and
    otherwise the rank-1 update M - (M v_g)(2 J v_g)^T with M v_g summed
    left to right (test_long_double_words_match_their_matrix_products checks
    it against M @ R_g).  Returns the table and its words, a list of
    tuples."""
    k = len(sub.ball_ids)
    eye = np.eye(k, dtype=np.int64)
    tits_gens = eye[None] - eye[:, :, None] * sub.cartan[:, None, :]  # s_g = I - e_g (2B)_g
    if np.dtype(dtype) == np.dtype(float):
        def times_generator(m, g):
            return m @ sub.matrices[g]
    else:
        v = renormalised_polars(sub, dtype)
        jv2 = 2.0 * v * np.diag(lz.J).astype(dtype)[None, :]

        def times_generator(m, g):
            mv = sum(m[:, j] * v[g, j] for j in range(6))
            return m - np.outer(mv, jv2[g])
    words = [()]
    prefix, last = [-1], [-1]
    tits = [eye]
    mats = [np.eye(6, dtype=dtype)]
    seen = {eye.tobytes()}
    frontier = [0]
    n_raw = 1
    n_merged = 0
    truncated = False
    for length in range(max_length):
        if length >= 38 and max(np.abs(tits[i]).max() for i in frontier) > gr.TITS_MAX:
            raise GroupError(f"Tits matrix entries overflow int64 beyond length {length}")
        new_frontier = []
        for i in frontier:
            for g in range(k):
                if (tits[i][:, g] < 0).any():
                    continue  # g is a descent of words[i]
                n_raw += 1
                t = tits[i] @ tits_gens[g]
                key = t.tobytes()
                if key in seen:
                    n_merged += 1
                    continue
                if len(words) >= max_elements:
                    truncated = True
                    break
                seen.add(key)
                new_frontier.append(len(words))
                words.append(words[i] + (g,))
                prefix.append(i)
                last.append(g)
                tits.append(t)
                mats.append(times_generator(mats[i], g))
            if truncated:
                break
        frontier = new_frontier
        if truncated:
            break
    return gr.WordTable(
        matrices=np.array(mats),
        tits=np.array(tits),
        n_raw=n_raw,
        n_merged=n_merged,
        truncated=truncated,
        lengths=np.array([len(w) for w in words]),
        prefix=np.array(prefix),
        last=np.array(last),
    ), words


def orbit_spheres_reference(sub, max_length, max_elements=2_000_000):
    """orbit_spheres as a per-word loop: a dict of root bytes to seqs, a dict
    of prefix walls per word, and one centers_radii call per word, in the
    sub-assembly's unit frame, where the parents are found; the table lists
    the spheres scaled back to the cover's units.  The word table is capped
    at `max_elements` too.  Returns the table and its spheres' words, a list
    of tuples."""
    k = len(sub.ball_ids)
    table, words = enumerate_words_reference(sub, max_length, max_elements)
    seq_of = {}  # root bytes -> seq
    walls = {(): []}  # word -> seqs of its prefix spheres
    rows = []  # (word, seed, root, center, radius, word's table row)
    truncated = False
    for row, (word, tits, m) in enumerate(zip(words, table.tits, table.matrices)):
        if word:  # the last prefix sphere has root word[:-1](a_last) = -W a_last
            walls[word] = walls[word[:-1]] + [seq_of[(-tits[:, word[-1]]).tobytes()]]
        pol = (m @ sub.polars.T).T  # images of all seed spheres
        try:
            cen, rad = lz.centers_radii(pol)
        except ValueError as exc:  # a sphere through infinity has no center
            raise GroupError(f"word {word} sends a generator sphere through infinity") from exc
        for s in range(k):
            root = tits[:, s]
            key = root.tobytes()
            if (root < 0).any() or key in seq_of:
                continue
            if len(rows) >= max_elements:
                truncated = True
                break
            seq_of[key] = len(rows)
            rows.append((word, s, root, cen[s], rad[s], row))
        if truncated:
            break
    n = len(rows)
    centers = np.array([r[3] for r in rows])
    radii = np.array([r[4] for r in rows])
    # candidate parents per sphere, ascending seq, padded with -1
    width = max(1, max_length)
    cand = np.full((n, width), -1, dtype=np.int64)
    for i, r in enumerate(rows):
        cand[i, : len(r[0])] = sorted(walls[r[0]])
    return gr.OrbitTable(
        words=gr.Words(table.prefix, table.last, np.array([r[5] for r in rows])),
        seed=np.array([r[1] for r in rows]),
        roots=np.array([r[2] for r in rows]),
        centers=centers * sub.scale,
        radii=radii * sub.scale,
        generation=np.array([len(r[0]) for r in rows]),
        parent=gr._smallest_container(centers, radii, cand),
        truncated=truncated,
    ), [r[0] for r in rows]


def assert_same_table(got, ref, label):
    """Every field equal bit for bit, arrays in dtype, shape and value, and
    the words equal to the reference loops' list of tuples; `ref` is a
    reference's (table, words)."""
    ref, words = ref
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), (label, field.name)
        else:
            assert a == b, (label, field.name)
    assert isinstance(got.words, gr.Words) and list(got.words) == words, label


def assert_prefix_rows(table, label):
    """Row prefix[i] holds words[i] without its last letter last[i]."""
    assert table.prefix[0] == table.last[0] == -1, label
    for i in range(1, len(table.words)):
        assert table.words[table.prefix[i]] == table.words[i][:-1], (label, i)
        assert table.last[i] == table.words[i][-1], (label, i)


def assert_matches_reference(sub, max_length, label, dtypes=(float, np.longdouble)):
    for dtype in dtypes:
        table = enumerate_words(sub, max_length, dtype=dtype)
        assert_same_table(table, enumerate_words_reference(sub, max_length, dtype=dtype),
                          (label, max_length, dtype))
        assert_prefix_rows(table, (label, max_length, dtype))
    try:
        ref = orbit_spheres_reference(sub, max_length)
    except GroupError as exc:
        with pytest.raises(GroupError) as got:
            orbit_spheres(sub, max_length)
        assert str(got.value) == str(exc), label
        return
    assert_same_table(orbit_spheres(sub, max_length), ref, (label, max_length))


@pytest.fixture(scope="module")
def preset_group():
    c = spun_trefoil_preset()
    cover = build_cover(c)
    return c, cover, assemble_group(c, cover)


def test_generator_count_and_blocks(cube_group):
    c, cover, _g = cube_group
    # the host cubes' blocks partition the generators
    blocks = [np.flatnonzero(cover.host == h) for h in range(len(c.all_cubes))]
    assert sorted(np.concatenate(blocks).tolist()) == list(range(len(cover)))


def test_reflection_matrices_match_scalar_path(cube_group):
    _c, cover, _g = cube_group
    polars = lz.spheres(cover.centers[:5], cover.radii[:5])
    mats = reflection_matrices(polars)
    for i in range(5):
        assert np.allclose(mats[i], orc.reflection(polars[i]), atol=1e-14)


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


def test_amalgam_squares_match_the_pairwise_reference(preset_group, tube_cover):
    """Every amalgam's first cube, square and straight flag are the scalar
    reference's; on the preset and the straight tube every consecutive pair
    has one."""
    for c, g in [(preset_group[0], preset_group[2]), (tube_complex(), tube_cover[1])]:
        got = [(am.cube_pair[0], am.square, am.straight) for am in g.amalgams]
        assert got == orc.consecutive_squares(c)


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


# entries that repeat, negative ones and the extremes of the Tits range
_ENTRIES = st.sampled_from([-gr.TITS_MAX, 1 - gr.TITS_MAX, -2, -1, 0, 1, 3,
                            gr.TITS_MAX - 1, gr.TITS_MAX])


@st.composite
def _int_rows(draw):
    """(n, c) int64 rows drawn from a few distinct rows, so most repeat."""
    cols = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), cols)


def _row_examples(test):
    """The rows both _first_rows tests run besides the drawn ones: 0 rows,
    1 row, 1 column, 0 columns (every row equal), entries at +-TITS_MAX,
    one column from -2^63 to 2^63 - 1, float bits as uint64 (-0.0 and 0.0
    differ) and distinct rows interleaved."""
    for rows in (
            np.zeros((0, 3), dtype=np.int64),
            np.array([[gr.TITS_MAX, -gr.TITS_MAX]], dtype=np.int64),
            np.array([[2], [-1], [2], [0], [-1]], dtype=np.int64),
            np.zeros((5, 0), dtype=np.int64),
            np.array([[2, 0, -1], [1, 1, -1], [2, 0, -1], [0, 5, 3], [1, 1, -1]], dtype=np.int64),
            np.array([[gr.TITS_MAX, -gr.TITS_MAX], [-gr.TITS_MAX, gr.TITS_MAX],
                      [gr.TITS_MAX, -gr.TITS_MAX]], dtype=np.int64),
            np.array([[-2**63], [2**63 - 1], [0], [-2**63], [2**63 - 1]], dtype=np.int64),
            np.array([[1.0, 0.5, 0.25], [-0.0, 0.5, 0.25], [1.0, 0.5, 0.25],
                      [0.0, 0.5, 0.25]]).view(np.uint64),
            np.array([[1, 2], [3, 4], [5, 6], [3, 4], [1, 2], [7, 8], [5, 6], [7, 8],
                      [1, 2]], dtype=np.int64)):
        test = example(rows)(test)
    return test


def _same_first_rows(rows):
    """_first_rows gives the oracle's arrays, dtypes included, on the rows
    and on their column-major copy."""
    want = orc.first_rows(rows)
    for layout in (rows, np.asfortranarray(rows)):
        for got, w in zip(cv._first_rows(layout), want):
            assert got.dtype == w.dtype and np.array_equal(got, w)


@settings(max_examples=300, deadline=None)
@given(_int_rows())
@_row_examples
def test_first_rows_match_the_structured_unique(rows):
    """The hash-bucket grouping gives np.unique's first occurrences and
    ranks."""
    _same_first_rows(rows)


@settings(max_examples=300, deadline=None)
@given(_int_rows())
@_row_examples
def test_first_rows_verify_every_row_when_all_hashes_collide(rows):
    """The collision control: with the hash multiplier 0, every row hashes
    to 0 and shares one bucket in every round, so only the row-by-row
    comparison tells the classes apart, one per round."""
    with mock.patch.object(cv, "_HASH_MUL", np.uint64(0)):
        _same_first_rows(rows)


def test_word_counts_build_no_tuple(cube_group):
    """len() of a table's or an orbit's words reads the row arrays only: the
    tuples are built on the first indexed read, once."""
    sub = pairwise_disjoint_subassembly(cube_group[1], n=4)
    table, orbit = enumerate_words(sub, 3), orbit_spheres(sub, 3)
    assert (len(table.words), len(orbit.words)) == (len(table.lengths), len(orbit.radii))
    assert "_tuples" not in vars(table.words) and "_tuples" not in vars(orbit.words)
    assert orbit.words[-1] == table.words[orbit.words.rows[-1]] and len(orbit.words[-1]) == 3
    assert "_tuples" in vars(table.words) and "_tuples" in vars(orbit.words)


def test_tits_entry_guard(cube_group, monkeypatch):
    """Entries past TITS_MAX raise instead of wrapping around int64."""
    sub = pairwise_disjoint_subassembly(cube_group[1], n=2)  # infinite dihedral
    assert len(enumerate_words(sub, 40).words) == 1 + 2 * 40
    monkeypatch.setattr(gr, "TITS_MAX", 10)
    with pytest.raises(GroupError, match="overflow"):
        enumerate_words(sub, 40)


@pytest.mark.parametrize("bound", [10, 41, 100])
@pytest.mark.parametrize("n", [2, 3])
def test_tits_guard_covers_the_column_sums(cube_group, monkeypatch, n, bound):
    """A word class is keyed by the k column sums of its Tits matrix, so the
    guard bounds k times the front's largest entry: enumerating to length L
    raises exactly when some front below L has k max|entry| > TITS_MAX, once
    3^length k can exceed it."""
    sub = pairwise_disjoint_subassembly(cube_group[1], n=n)
    top = {2: 60, 3: 10}[n]  # entries grow linearly in the infinite dihedral group
    table = enumerate_words(sub, top)
    fronts = [np.abs(table.tits[table.lengths == length]).max() for length in range(top)]
    fails = next(length for length in range(top)
                 if 3**length * n > bound and n * fronts[length] > bound)
    monkeypatch.setattr(gr, "TITS_MAX", bound)
    assert len(enumerate_words(sub, fails).words) == np.sum(table.lengths <= fails)
    with pytest.raises(GroupError, match=f"overflow int64 beyond length {fails}"):
        enumerate_words(sub, fails + 1)


@pytest.mark.parametrize("max_length", [0, 1, 3, 6, 8])
def test_words_and_orbits_match_the_reference_loops(cube_group, tube_cover, max_length):
    """The one-pass-per-length enumeration equals the per-word loops bit for
    bit, in float64 and extended precision, on the growth-series
    sub-assemblies and every tube amalgam; the triangle's orbit raises the
    same error naming the same word."""
    names = ["free", "order3_pair", "mixed", "amalgam", "triangle"]
    subs = [(n, _growth_subassembly(n, cube_group, tube_cover)) for n in names]
    tc, tg = tube_cover
    subs += [(f"amalgam {am.index}", subassembly(tc, am.ball_ids)) for am in tg.amalgams]
    assert len(subs) == 12
    for name, sub in subs:
        assert_matches_reference(sub, max_length, name)


def test_infinite_dihedral_matches_the_reference_loops(cube_group):
    assert_matches_reference(pairwise_disjoint_subassembly(cube_group[1], n=2), 40,
                             "infinite dihedral")


def test_preset_words_and_orbits_match_the_reference_loops(preset_group):
    _c, cover, g = preset_group
    schottky = pairwise_disjoint_subassembly(cover, n=4)
    for max_length in (6, 7):
        assert_matches_reference(schottky, max_length, "schottky", dtypes=(float,))
    am = subassembly(cover, g.amalgams[0].ball_ids)
    assert_matches_reference(am, 8, "amalgam 0", dtypes=(np.longdouble,))


@pytest.mark.parametrize(
    "cap, n_raw, n_merged",
    [(1, 2, 0), (2, 3, 0), (5, 6, 0), (17, 18, 0), (50, 55, 4), (51, 56, 4),
     (200, 219, 18)],
)
def test_element_cap_truncates_like_the_reference_loops(cube_group, tube_cover, monkeypatch,
                                                        cap, n_raw, n_merged):
    """MAX_ELEMENTS cuts the enumeration inside a length (50, 51, 200) and at
    its end (1, 5 and 17 close lengths 0, 1 and 2 of the amalgam's growth
    1, 4, 12, 32, 84): counts run up to and including the first new product
    past the cap, and the orbit lists MAX_ELEMENTS spheres."""
    monkeypatch.setattr(gr, "MAX_ELEMENTS", cap)
    tc, tg = tube_cover
    amalgam = subassembly(tc, tg.amalgams[0].ball_ids)
    table = enumerate_words(amalgam, 6)
    assert (table.truncated, len(table.words), table.n_raw, table.n_merged) == (
        True, cap, n_raw, n_merged)
    for name in ("amalgam", "mixed", "free"):
        sub = _growth_subassembly(name, cube_group, tube_cover)
        for dtype in (float, np.longdouble):
            ref = enumerate_words_reference(sub, 6, max_elements=cap, dtype=dtype)
            assert ref[0].truncated
            table = enumerate_words(sub, 6, dtype=dtype)
            assert_same_table(table, ref, (name, cap))
            assert_prefix_rows(table, (name, cap))
        ref = orbit_spheres_reference(sub, 6, max_elements=cap)
        assert ref[0].truncated and len(ref[1]) == cap
        assert_same_table(orbit_spheres(sub, 6), ref, (name, cap))


def test_lorentz_drift_small(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    table = enumerate_words(sub, 6)
    assert lorentz_drift(table) <= 1e-7


def test_lorentz_drift_is_the_largest_defect_and_sees_a_perturbation(cube_group):
    """Per matrix the drift is the oracle's defect, and over the table its
    maximum, for the float64 and the long-double table of the same words.
    The oracle evaluates the form in long double too (a float64 matrix is
    exact there), so the two agree up to 8 ulps of the largest product
    (entries near 1e4), summed in another order.  One entry of one matrix
    moved by 1e-6 shows, and a NaN entry makes the drift NaN.  The long-double
    table keeps its precision: the float64 table shows its rounding, and the
    long-double drift stays far below it."""
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    drifts = {}
    for dtype in (float, np.longdouble):
        table = enumerate_words(sub, 6, dtype=dtype)
        long = table.matrices.astype(np.longdouble)
        tol = 8 * float(np.finfo(np.longdouble).eps) * float(np.abs(long).max()) ** 2
        defects = [orc.lorentz_defect(m) for m in long]
        for i in range(0, len(defects), 97):
            one = dataclasses.replace(table, matrices=table.matrices[i : i + 1])
            assert lorentz_drift(one) == pytest.approx(defects[i], abs=tol), (dtype, i)
        drifts[dtype] = lorentz_drift(table)
        assert drifts[dtype] == pytest.approx(max(defects), abs=tol), dtype
        bent = table.matrices.copy()
        bent[1, 0, 0] += 1e-6
        drift = lorentz_drift(dataclasses.replace(table, matrices=bent))
        assert drift > 1e-7, dtype
        assert drift == pytest.approx(orc.lorentz_defect(bent[1].astype(np.longdouble)), abs=tol)
        bent[2, 3, 4] = np.nan
        assert math.isnan(lorentz_drift(dataclasses.replace(table, matrices=bent))), dtype
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        assert drifts[float] > 1e-8 and drifts[np.longdouble] < 1e-9


def test_long_double_words_match_their_matrix_products(cube_group, preset_group):
    """Each long-double word matrix, built by the rank-1 update, is its
    prefix's matrix times the last letter's reflection matrix I - 2 v (Jv)^T,
    multiplied out in long double, up to 64 ulps of the word's largest entry
    (amalgam 0 to length 8 and the single cube's Schottky set to length 6,
    about 4 ulps at most).  Control: the next generator's reflection misses
    every word."""
    _c, cover, g = preset_group
    subs = [(subassembly(cover, g.amalgams[0].ball_ids), 8),
            (pairwise_disjoint_subassembly(cube_group[1], n=4), 6)]
    eps = np.finfo(np.longdouble).eps
    for sub, max_length in subs:
        table = enumerate_words(sub, max_length, dtype=np.longdouble)
        refl = reflection_matrices(renormalised_polars(sub, np.longdouble))
        assert refl.dtype == np.longdouble
        m, prefix, last = table.matrices[1:], table.prefix[1:], table.last[1:]
        bound = 64 * eps * np.abs(m).max(axis=(1, 2))
        gap = np.abs(m - table.matrices[prefix] @ refl[last]).max(axis=(1, 2))
        assert (gap <= bound).all(), (sub.ball_ids, max_length)
        wrong = refl[(last + 1) % len(sub.ball_ids)]
        gap = np.abs(m - table.matrices[prefix] @ wrong).max(axis=(1, 2))
        assert (gap > bound).all(), (sub.ball_ids, max_length)


def test_faithfulness_scan(cube_group):
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    report = faithfulness_scan(sub, 5)
    assert report["ok"]
    assert report["min_gap"] > 0.1


def test_faithfulness_scan_counts_a_nan_gap(cube_group):
    """Fail-closed control: one NaN entry in a reflection matrix makes every
    word through that generator's gap NaN, and a gap that is not above 0.1
    is a violation."""
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    matrices = sub.matrices.copy()
    matrices[0, 0, 0] = np.nan
    report = faithfulness_scan(dataclasses.replace(sub, matrices=matrices), 5)
    assert not report["ok"]
    assert (0,) in report["violations"]


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


@pytest.mark.parametrize("cap", [17, 18, 33, 34])
def test_polyhedron_stages_refuse_a_stage_past_the_cap(cube_group, monkeypatch, cap):
    """Stage k can have 2s - 2 sides, s those of stage k - 1: the first stage
    whose bound passes MAX_ELEMENTS raises before it is built, and the stages
    before it are the uncapped ones."""
    _c, cover, _g = cube_group
    sub = pairwise_disjoint_subassembly(cover, n=4)
    orbit = orbit_spheres(sub, 4)
    uncapped = polyhedron_stages(sub, orbit, 5)  # side counts 4, 6, 10, 18, 34, 66
    first = next(s.k for s in uncapped if s.n_sides > cap)
    monkeypatch.setattr(gr, "MAX_ELEMENTS", cap)
    assert polyhedron_stages(sub, orbit, first - 1) == uncapped[:first]
    with pytest.raises(GroupError, match=f"^stage {first} can have up to "
                                         f"{uncapped[first].n_sides} sides, past the cap {cap}$"):
        polyhedron_stages(sub, orbit, 5)


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


def test_fundamental_domain_check_without_an_exterior_point(cube_group):
    """Two balls of radius 100 whose centres are 0.5 apart fill the sampled
    box, padded by two tube units, so the sampler finds no exterior point:
    the check makes no generator-point check and so does not pass."""
    _c, cover, _g = cube_group
    two = dataclasses.replace(cover, centers=np.array([[0.0] * 4, [0.5, 0.0, 0.0, 0.0]]),
                              radii=np.array([100.0, 100.0]), roles=cover.roles[:2],
                              face=cover.face[:2], host=cover.host[:2])
    report = fundamental_domain_check(two, budget=1000, seed=0)
    assert report == {"budget": 1000, "checks": 0, "n_sample_points": 0, "violations": 0,
                      "ok": False}


def domain_reference(cover, budget, seed):
    """fundamental_domain_check as it was before its rejection sampler used
    the grid join, every candidate point against every ball, 8192 balls at a
    time, and before it sliced its checks: (report, the squared image
    distances (generators, per_gen))."""
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
    }, img_dist2


# 177,346 checks make per_gen odd on both covers: 3 on the preset's 59,110
# balls and 4,667 on the cube's 38, and a generator straddles the cut of
# the 2^17-check slices.
@pytest.mark.parametrize("budget, seed", [(100_000, 0), (1_000, 5), (1_000_000, 2),
                                          (177_346, 4)])
def test_fundamental_domain_check_matches_dense_reference(cube_group, preset_group,
                                                          monkeypatch, budget, seed):
    """The report, and the squared image distances, bit for bit and in the
    reference's generator-major order, whatever slices the checks run in."""
    images = []
    real = gr._image_dist2

    def spy(c, r, p):
        images.append(real(c, r, p))
        return images[-1]

    monkeypatch.setattr(gr, "_image_dist2", spy)
    for cover in (cube_group[1], preset_group[1]):
        images.clear()
        got = fundamental_domain_check(cover, budget=budget, seed=seed)
        want, img_dist2 = domain_reference(cover, budget, seed)
        assert got == want and len(images) == -(-got["checks"] // gr.DOMAIN_SLICE)
        assert np.concatenate(images).tobytes() == img_dist2.tobytes()


def test_relations_are_one_int_array(cube_group):
    _c, cover, g = cube_group
    rel = g.relations
    assert rel is cover.adjacency
    assert rel.dtype == np.int64
    assert rel.shape == (len(rel), 3) and len(rel) > 0
    assert np.all(np.diff(rel[:, 0] * len(cover) + rel[:, 1]) > 0)  # sorted by (i, j)
    assert (rel[:, 0] < rel[:, 1]).all() and set(rel[:, 2].tolist()) == {2, 3}


def test_relation_residuals_oracle():
    """The batched kernel against scalar matrix powers in each pair's unit
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
        mid, scale = centers[n].mean(axis=0), radii[n].mean()
        prod = orc.reflection(orc.sphere((centers[n, 0] - mid) / scale, radii[n, 0] / scale)) @ (
            orc.reflection(orc.sphere((centers[n, 1] - mid) / scale, radii[n, 1] / scale)))
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
    c = orc.degenerate_single_cube(1)
    cover = build_cover(c)
    with pytest.raises(GroupError):
        subassembly(cover, [0, 0])


@pytest.mark.parametrize(
    "center, radius",
    [([2.0, 0, 0, 0], 1.0),  # tangent: exterior cosine 1
     ([0.2, 0, 0, 0], 0.5),  # nested: cosine below -1
     ([1.5, 0, 0, 0], 1.0),  # exterior cosine 1/8, not 0 or +-1/2
     ([math.sqrt(2.0) + 1e-6, 0, 0, 0], 1.0)],  # 1e-6 off pi/2
    ids=["tangent", "nested", "illegal-angle", "near-orthogonal"],
)
def test_subassembly_rejects_a_bad_pair_by_name(center, radius):
    """Ball 3 is legal against ball 0 (order 2) and disjoint from ball 1;
    ball 5 is the broken one, and the error names the pair (0,5)."""
    centers = np.zeros((6, 4))
    centers[1] = [9.0, 0, 0, 0]
    centers[3] = [0, math.sqrt(2.0), 0, 0]
    centers[5] = center
    radii = np.array([1.0, 1, 1, 1, 1, radius])
    cover = types.SimpleNamespace(centers=centers, radii=radii)
    assert subassembly(cover, [0, 1, 3]).cartan.tolist() == [[2, -2, 0], [-2, 2, -2],
                                                             [0, -2, 2]]
    with pytest.raises(GroupError, match=r"sub-assembly pair \(0,5\) at product"):
        subassembly(cover, [0, 3, 5])


def test_subassembly_cartan_matches_the_pair_oracle(cube_group, tube_cover):
    """2B from cover.pair_orders equals 2B from the scalar Q-product oracle on
    the sub-assemblies' polars, for every growth-series sub-assembly and every
    tube amalgam."""
    tc, tg = tube_cover
    subs = [_growth_subassembly(n, cube_group, tube_cover)
            for n in ["free", "order3_pair", "mixed", "amalgam", "triangle"]]
    subs += [subassembly(tc, am.ball_ids) for am in tg.amalgams]
    for sub in subs:
        k = len(sub.ball_ids)
        want = np.full((k, k), 2)
        for a in range(k):
            for b in range(k):
                if a != b:
                    cfg = orc.pair_configuration(sub.polars[a], sub.polars[b])
                    assert cfg.kind in ("intersecting", "disjoint")
                    want[a, b] = 2 - cfg.order if cfg.kind == "intersecting" else -2
        assert sub.cartan.dtype == np.int64
        assert sub.cartan.tolist() == want.tolist()


def test_check_amalgams_wants_the_plus_half_cosine():
    """Four order-3 pairs and two disjoint ones, but at exterior cosine -1/2
    (a triangle of unit balls and a ball of radius 1/2 hung from one corner):
    only +1/2, the vertex balls' angle, passes."""
    h = math.sqrt(0.75)
    centers = np.array([[0.5, 2 * h, 0, 0], [0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.5, h, 0, 0]])
    cover = types.SimpleNamespace(centers=centers, radii=np.array([0.5, 1, 1, 1]),
                                  roles=np.zeros(4, dtype=np.int8))
    am = gr.Amalgam(0, (0, 1), None, (0, 1, 2, 3), True)
    with pytest.raises(GroupError, match=r"^amalgam 0: pair \(0,3\) at product -0.5"):
        gr._check_amalgams(types.SimpleNamespace(cover=cover, amalgams=[am]))


@pytest.mark.parametrize("change", ["moved", "resized", "role"])
def test_assemble_group_rejects_a_broken_amalgam(change):
    """One vertex ball of amalgam 3 moved by 1e-6, grown by 1e-6 or relabelled:
    assemble_group names that amalgam."""
    c = tube_complex()
    cover = build_cover(c)
    ball = assemble_group(c, cover).amalgams[3].ball_ids[1]
    if change == "moved":
        cover.centers[ball, 1] += 1e-6
    elif change == "resized":
        cover.radii[ball] *= 1.0 + 1e-6
    else:
        cover.roles[ball] = 1
    match = "uses non-vertex balls" if change == "role" else rf"pair \(\d+,\d+\) at product"
    with pytest.raises(GroupError, match=rf"^amalgam 3[: ].*{match}"):
        assemble_group(c, cover)


def test_preset_relation_suite(preset_group):
    _c, _cover, g = preset_group
    report = relation_suite(g)
    assert report["ok"]
    assert report["max_residual"] <= 1e-8


def test_relation_residuals_match_the_scalar_reference(preset_group):
    """Criterion 3 against one pair at a time: on every 97th relation of the
    preset and on every relation of ball 40,000, the batched residuals and
    gaps are those of oracles.relation_residual, which multiplies the scalar
    reflections.  With that ball moved by 1e-3 the reference sees a broken
    relation there, and relation_suite raises."""
    _c, cover, g = preset_group
    rels = g.relations
    rows = np.union1d(np.arange(0, len(rels), 97),
                      np.flatnonzero((rels[:, :2] == 40_000).any(axis=1)))
    assert (rels[rows, :2] == 40_000).any()

    def compare(centers):
        pairs = rels[rows, :2]
        residual, gap = gr.relation_residuals(centers[pairs], cover.radii[pairs], rels[rows, 2])
        want = np.array([orc.relation_residual(centers[[i, k]], cover.radii[[i, k]], m)
                         for i, k, m in rels[rows].tolist()])
        np.testing.assert_allclose(residual, want[:, 0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(gap, want[:, 1], rtol=0, atol=1e-9)
        return want

    want = compare(cover.centers)
    report = relation_suite(g)
    assert report["max_residual"] >= want[:, 0].max()
    assert report["min_premature_gap"] <= want[:, 1].min()
    centers = cover.centers.copy()
    centers[40_000, 0] += 1e-3
    want = compare(centers)
    assert want[(rels[rows, :2] == 40_000).any(axis=1), 0].max() > 1e-8
    moved = dataclasses.replace(g, cover=dataclasses.replace(cover, centers=centers))
    with pytest.raises(GroupError, match="relation suite failed"):
        relation_suite(moved)


def frame_rows(cover, rels):
    """Each relation's inputs to relation_residuals, as raw bits: both centres
    less their midpoint, both radii, and m."""
    centers = cover.centers[rels[:, :2]]
    mid = 0.5 * (centers[:, 0] + centers[:, 1])
    frame = np.hstack([centers[:, 0] - mid, centers[:, 1] - mid, cover.radii[rels[:, :2]]])
    return np.hstack([frame.view(np.int64), rels[:, 2:]])


@pytest.mark.parametrize("fixture, n_frames", [("preset_group", 768), ("cube_group", None)])
def test_relation_suite_is_exact_over_all_rows(request, monkeypatch, fixture, n_frames):
    """The suite computes once per distinct midpoint frame, and its max and
    min are bit for bit those of one relation_residuals call on every row."""
    _c, cover, g = request.getfixturevalue(fixture)
    rels = g.relations
    residual, gap = relation_residuals(cover.centers[rels[:, :2]], cover.radii[rels[:, :2]],
                                       rels[:, 2])
    sizes = []

    def counted(centers, radii, orders):
        sizes.append(len(orders))
        return relation_residuals(centers, radii, orders)

    monkeypatch.setattr(gr, "relation_residuals", counted)
    report = relation_suite(g)
    assert report["max_residual"] == residual.max()
    assert report["min_premature_gap"] == gap.min()
    distinct = len(np.unique(frame_rows(cover, rels), axis=0))
    assert sum(sizes) == distinct == (n_frames or distinct) < len(rels)


def test_relation_suite_without_relations(cube_group):
    _c, _cover, g = cube_group
    empty = dataclasses.replace(g, relations=np.zeros((0, 3), dtype=np.int64))
    assert relation_suite(empty) == {"n_relations": 0, "max_residual": 0.0,
                                     "min_premature_gap": math.inf, "tolerance": 1e-8,
                                     "ok": True}


def test_relation_suite_keys_on_order_and_radius(preset_group):
    """Negative controls for the frame key.  The last order-2 relation's
    frame repeats an earlier relation's, so a key without m would take its
    residual from that one; declared order 3 it must fail.  Likewise a ball
    grown by 1e-6, whose relations repeat earlier frames in centres and m."""
    _c, cover, g = preset_group
    rels = g.relations
    frames = frame_rows(cover, rels)
    row = np.flatnonzero(rels[:, 2] == 2)[-1]
    assert (frames[:row] == frames[row]).all(axis=1).any()
    reordered = rels.copy()
    reordered[row, 2] = 3
    with pytest.raises(GroupError, match="relation suite failed"):
        relation_suite(dataclasses.replace(g, relations=reordered))
    ball = rels[-1, 1]
    radii = cover.radii.copy()
    radii[ball] *= 1.0 + 1e-6
    mine = np.flatnonzero((rels[:, :2] == ball).any(axis=1))
    cols = np.r_[0:8, 10]
    assert all((frames[: mine[0]][:, cols] == frames[k, cols]).all(axis=1).any() for k in mine)
    with pytest.raises(GroupError, match="relation suite failed"):
        relation_suite(dataclasses.replace(g, cover=dataclasses.replace(cover, radii=radii)))


@pytest.mark.parametrize("check", ["relation_suite", "fundamental_domain_check"])
def test_criteria_3_and_6_reject_a_non_finite_ball(check):
    """Negative control: a NaN centre would drop its relations out of the
    suite's max and its points out of the domain check's count, so both
    raise CoverError naming the ball instead."""
    c = orc.degenerate_single_cube(3)
    cover = build_cover(c)
    g = assemble_group(c, cover)
    centers = cover.centers.copy()
    centers[5, 0] = np.nan
    bad = dataclasses.replace(cover, centers=centers)
    with pytest.raises(CoverError, match=r"^ball 5 \(centre \(nan, .*finite positive radius"):
        if check == "relation_suite":
            relation_suite(dataclasses.replace(g, cover=bad))
        else:
            fundamental_domain_check(bad, budget=2000)
