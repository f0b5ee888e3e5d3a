"""The near-pair search by radius octave and the cell-run grid join, against
the single self-join and the one-row-at-a-time join of `oracles`
(`near_pairs`, `grid_join`), with the search's bounds and input checks."""

import math
import tracemalloc

import numpy as np
import pytest

from wildknot import cover as cv
from wildknot import groups as gr
from wildknot import limitset as ls
from wildknot.cli import RunConfig, run_pipeline
from wildknot.complexes import knot_surface, save_complex
from wildknot.cover import CoverError, _near_pairs, build_cover, pairwise_sweep
from wildknot.presets import spun_trefoil_preset

import oracles as orc


@pytest.fixture(scope="module")
def preset():
    c = spun_trefoil_preset()
    return knot_surface(c), build_cover(c)


def scrambled(cover, seed):
    """The cover's centres moved by N(0, 0.3) and its radii scaled by U(0.5, 1.5):
    the radii spread over five octaves, the centres off every lattice."""
    rng = np.random.default_rng(seed)
    return (cover.centers + rng.normal(0.0, 0.3, cover.centers.shape),
            cover.radii * rng.uniform(0.5, 1.5, len(cover.radii)))


def balls(preset, name):
    _surf, preset_cover = preset
    if name.startswith("scrambled"):
        return scrambled(preset_cover, int(name[-1]))
    if name == "straight tube far":
        # copies of the first adjacent pair 1e6 away on every axis: each axis
        # of their octave's joins then spans far more cells per point than
        # _BITMAP_CELLS, so it numbers its cells by sorting, while the other
        # joins number theirs on the bool array
        cover = build_cover(orc.straight_tube_complex())
        pair = cover.adjacency[0, :2]
        return (np.concatenate([cover.centers, cover.centers[pair] + 1e6]),
                np.append(cover.radii, cover.radii[pair]))
    cover = {
        "preset k=0": lambda: preset_cover,
        "edge 5": lambda: build_cover(spun_trefoil_preset(5)),
        "edge 11": lambda: build_cover(spun_trefoil_preset(11)),
        "straight tube": lambda: build_cover(orc.straight_tube_complex()),
        "single cube 3": lambda: build_cover(orc.degenerate_single_cube(3)),
    }[name]()
    return cover.centers, cover.radii


@pytest.fixture
def column_tables(monkeypatch):
    """Spy on the grid join's column table: per join, whether it is a
    self-join and whether the table was built (None is past the bound)."""
    log = []
    build = cv._occupied_columns

    def spy(key_b, dims, n_keyed):
        table = build(key_b, dims, n_keyed)
        log.append((n_keyed == len(key_b), table is not None))  # a cross join keys a's rows too
        return table

    monkeypatch.setattr(cv, "_occupied_columns", spy)
    return log


@pytest.mark.parametrize("name", ["preset k=0", "edge 5", "edge 11",
                                  "straight tube", "straight tube far", "single cube 3",
                                  "scrambled 0", "scrambled 1", "scrambled 2"])
def test_near_pairs_equal_the_single_self_join(preset, name, column_tables):
    centers, radii = balls(preset, name)
    column_tables.clear()
    got = _near_pairs(centers, radii)
    want = orc.near_pairs(centers, radii)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert len(got[0]) > 0
    if name.startswith("preset"):
        assert (True, True) in column_tables  # a self-join that takes the column table
    if name.startswith("scrambled"):  # sparse octaves fall past the bound
        assert {built for _self, built in column_tables} == {True, False}


@pytest.fixture
def oracle_join(monkeypatch):
    """Switch every module that reads the grid join to the oracle's."""
    def use():
        for mod in (cv, gr, ls):
            monkeypatch.setattr(mod, "_grid_join", orc.grid_join)
    return use


def test_join_consumers_match_the_oracle_join(preset, oracle_join, column_tables):
    """Coverage, the host cubes, the domain sampler and the Hausdorff
    distance read the join: each gives the same result through the oracle's,
    on the preset and on the orbit7 clouds at L = 7 and 6."""
    surf, cover = preset
    c = spun_trefoil_preset()
    sch = gr.pairwise_disjoint_subassembly(cover, n=4)
    deep = ls.cloud_from_orbit(gr.orbit_spheres(sch, 7), np.inf)
    coarse_orbit = gr.orbit_spheres(sch, 6)
    coarse = ls.cloud_from_orbit(coarse_orbit, np.inf)
    lox, _skipped = ls.loxodromic_points(sch, 100, seed=0, word_length=6)
    lox_ref = ls.cloud_from_orbit(coarse_orbit, np.inf, offset=sch.offset)

    def run():
        return (cv.coverage_check(cover, surf, n_samples=1000, seed=0),
                cv._host_cubes(c, cover.centers).tolist(),
                gr.fundamental_domain_check(cover, budget=100_000, seed=0),
                ls.hausdorff_one_sided(deep, coarse),
                ls.hausdorff_one_sided(lox, lox_ref))

    column_tables.clear()
    got = run()
    # coverage, the host cubes and the domain sampler take the column table;
    # the two Hausdorff joins, run last, are past its bound (640 to 1,700
    # columns per keyed row) and search every run
    assert column_tables[-2:] == [(False, False)] * 2
    assert all(built for _self, built in column_tables[:-2])
    assert got[0] == (1.0, []) and got[1] == cover.host.tolist()
    assert got[2]["ok"] and got[3] > 0.0
    oracle_join()
    assert run() == got


@pytest.mark.parametrize("ratio", [2.0, 4.0, 5.65])
def test_cross_group_search_reaches_the_completeness_bound(ratio):
    """Two balls in different radius octaves at product just below 1.15 are
    found wherever they sit relative to the cells of their group pair's grid,
    along an axis and along a diagonal."""
    radii = np.array([1.0, 1.0 / ratio])
    assert len(set(np.rint(np.log2(radii.max() / radii)))) == 2
    d = math.sqrt(radii[0] ** 2 + radii[1] ** 2 + 2.0 * 1.1499 * radii[0] * radii[1])
    for step in ([1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]):
        for t in np.linspace(0.0, 3.0, 301):
            centers = np.array([np.full(4, t), t + d * np.array(step)])
            i, j, prod = _near_pairs(centers, radii)
            assert list(zip(i, j)) == [(0, 1)], (ratio, step, t)
            assert 1.14 < prod[0] < 1.15


def test_near_pairs_memory_stays_at_the_oracle(preset):
    """The search yields its pairs in bounded slices: its traced peak on the
    preset stays within 1.1 times the single self-join's."""
    cover = preset[1]
    peaks = []
    for search in (orc.near_pairs, _near_pairs):
        tracemalloc.start()
        try:
            search(cover.centers, cover.radii)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("radius, centre, bad", [
    (np.nan, 0.0, 0), (0.0, 0.0, 0), (-1.0, 0.0, 0), (1.0, np.nan, 2), (1.0, np.inf, 2),
])
def test_sweep_rejects_a_bad_ball(radius, centre, bad):
    """Negative controls: a NaN, zero or negative radius, or a non-finite
    centre, is an error naming the first bad ball, not a ball the sweep
    silently leaves out."""
    centers = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    radii = np.array([radius, 1.0, 1.0])
    centers[2, 1] = centre
    with pytest.raises(CoverError, match=f"^ball {bad} .*finite positive radius"):
        pairwise_sweep(centers, radii)


def test_report_fails_the_cover_check_on_a_bad_radius(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tube.txt"
    save_complex(orc.straight_tube_complex(), path)
    forms = cv.closed_form_parameters
    monkeypatch.setattr(cv, "closed_form_parameters",
                        lambda ell: {**forms(ell), "center_radius": float("nan")})
    checks, _out = run_pipeline(RunConfig(complex_path=str(path), out_dir=str(tmp_path / "b")))
    assert list(checks) == ["complex", "cover"] and not checks["cover"][0]
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL cover: ball ") and "radius nan" in line for line in lines)


def join_in_order(a, b, side):
    """oracles.grid_join's pairs of a cross join in the order that
    cover._grid_join yields them: a's rows by cell, lexicographically and
    stably, in slices of _JOIN_ROWS; in a slice, offset by offset on the
    first three axes, then row by row; for a row, b's rows by their cell on
    the last axis, then by index."""
    i, j = (np.concatenate(col) for col in zip(*orc.grid_join(a, b, side)))
    ca, cb = np.floor(a / side).astype(np.int64), np.floor(b / side).astype(np.int64)
    pos = np.empty(len(a), dtype=np.int64)
    pos[np.lexsort(ca.T[::-1])] = np.arange(len(a))
    o = cb[j, :3] - ca[i, :3]
    order = np.lexsort((j, cb[j, 3], pos[i], o[:, 2], o[:, 1], o[:, 0],
                        pos[i] // cv._JOIN_ROWS))
    return i[order], j[order]


def join_pairs(a, b, side):
    i, j = (np.concatenate(col) for col in zip(*cv._grid_join(a, b, side)))
    return i, j


def octave_join(preset, x, y):
    """The centres of radius octaves x and y of the preset's cover (the
    smaller group first) and their join's cell side, as _near_pairs has them."""
    cover = preset[1]
    groups, top = cv._radius_octaves(cover.radii)
    side = math.sqrt(top[x] ** 2 + top[y] ** 2 + 2.3 * top[x] * top[y]) * (1.0 + 1e-9)
    ga, gb = sorted((groups[x], groups[y]), key=len)
    return cover.centers[ga], cover.centers[gb], side


@pytest.mark.parametrize("case", ["junction beside faces", "junction beside vertices",
                                  "far from every row", "vertices beside faces"])
def test_pruned_cross_join_keeps_the_pairs_and_their_order(preset, case, column_tables):
    """A cross join keys only the rows of b near a cell of a, and yields the
    oracle's pairs in the order it documents: for the preset's 8 junction balls
    beside its 49,250 face and centre balls (nearly all pruned) and beside its
    9,852 vertex balls, for rows of a whose widened cells hold no row of b (no
    pair, and no error on the empty key array), and for the vertex balls
    beside the face balls, where nothing is pruned."""
    if case == "far from every row":
        _a, b, side = octave_join(preset, 1, 2)
        a = b[:5] + 1e3
    else:
        a, b, side = octave_join(preset, *{"junction beside faces": (1, 2),
                                           "junction beside vertices": (0, 1),
                                           "vertices beside faces": (0, 2)}[case])
    kept = len(cv._near_rows(cv._floor_cells(a, side), cv._floor_cells(b, side)))
    assert kept == len(b) if case == "vertices beside faces" else kept < len(b) // 100
    got, want = join_pairs(a, b, side), join_in_order(a, b, side)
    assert column_tables == [(False, True)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert (len(got[0]) == 0) == (case == "far from every row")
