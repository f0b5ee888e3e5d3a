"""Criteria 2 and 3 on threads.

`cover.coverage_check` and `groups.relation_suite` run their kernels on
`cover._thread_map`, whose worker count is `cover._WORKERS`.  Their results
must be the bits of the serial forms in `oracles.py` at any worker count, the
benchmark's span tracer must see only the calls of the calling thread, and no
thread may outlive a call, however it ends.
"""

import dataclasses
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

import oracles as orc
from wildknot import cli
from wildknot import complexes as cx
from wildknot import cover as cv
from wildknot import groups as gr
from wildknot.presets import spun_trefoil_preset

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(cv, "_WORKERS", request.param)
    return request.param


@pytest.fixture(scope="module")
def preset():
    c = spun_trefoil_preset()
    surf = cx.knot_surface(c)
    cover = cv.build_cover(c, k=0, surf=surf)
    return surf, cover, gr.assemble_group(c, cover)


@pytest.fixture(scope="module")
def single_cube():
    c = orc.degenerate_single_cube(1)
    surf = cx.knot_surface(c)
    cover = cv.build_cover(c, surf=surf)
    return surf, cover, gr.assemble_group(c, cover)


# Face 4000 of the preset and, by build_cover's order (the vertex balls, then
# five balls per face), its first face ball and its centre ball.
FACE = 4000
DROPPED = ("vertex", "face", "centre")


def dropped_ball(cover, surf, which):
    n_vertex = int((cover.roles == cv.ROLE_VERTEX).sum())
    if which == "vertex":
        return int(cover.vertex_balls(surf.faces[FACE, :4]))
    return n_vertex + 5 * FACE + (0 if which == "face" else 4)


def without(cover, ball):
    keep = np.arange(len(cover)) != ball
    return dataclasses.replace(cover, centers=cover.centers[keep], radii=cover.radii[keep],
                               roles=cover.roles[keep])


@pytest.fixture(scope="module")
def broken_preset(preset):
    """Per dropped ball: the preset cover without it, and the serial result at
    1,000 samples per face on the whole surface and at 10^4 on the 400 faces
    around face FACE (a slice keeps the test short; the cover is whole)."""
    surf, cover, _group = preset
    near = dataclasses.replace(surf, faces=surf.faces[FACE - 200 : FACE + 200])
    out = {}
    for which in DROPPED:
        broken = without(cover, dropped_ball(cover, surf, which))
        out[which] = (broken, {
            1000: (surf, orc.coverage_check(broken, surf, n_samples=1000, seed=3)),
            10_000: (near, orc.coverage_check(broken, near, n_samples=10_000, seed=3)),
        })
    return out


@pytest.mark.parametrize("n_samples", [1000, 10_000])
@pytest.mark.parametrize("which", DROPPED)
def test_coverage_bits_match_the_serial_form(broken_preset, workers, which, n_samples):
    broken, reference = broken_preset[which]
    surf, want = reference[n_samples]
    assert want[1], "the dropped ball must leave misses"
    assert cv.coverage_check(broken, surf, n_samples=n_samples, seed=3) == want


def moved_ball_group(group, ball=7, shift=1e-3):
    cover = group.cover
    centers = cover.centers.copy()
    centers[ball, 0] += shift
    return dataclasses.replace(group, cover=dataclasses.replace(cover, centers=centers))


def test_relation_suite_matches_the_serial_form(preset, workers):
    _surf, _cover, group = preset
    assert gr.relation_suite(group) == orc.relation_suite(group)
    moved = moved_ball_group(group, ball=40_000)
    with pytest.raises(gr.GroupError) as want:
        orc.relation_suite(moved)
    with pytest.raises(gr.GroupError) as got:
        gr.relation_suite(moved)
    assert str(got.value) == str(want.value)


def test_more_workers_than_cores_with_fast_switching(single_cube, monkeypatch):
    """Four workers and a 1 us switch interval, so the threads interleave at
    every opportunity: still the serial bits."""
    surf, cover, group = single_cube
    broken = without(cover, 0)
    want = orc.coverage_check(broken, surf, n_samples=5000, seed=1), orc.relation_suite(group)
    monkeypatch.setattr(cv, "_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = cv.coverage_check(broken, surf, n_samples=5000, seed=1), gr.relation_suite(group)
    finally:
        sys.setswitchinterval(interval)
    assert want[0][1] and got == want


def test_spans_come_from_the_calling_thread(single_cube, monkeypatch):
    """The benchmark's tracer keeps one span stack per process, so a public
    function reached from a worker thread would add spans under the wrong
    parent.  Traced, the threaded checks record exactly their own calls: each
    span inside its parent's interval, siblings apart, and the self times
    adding up to the top-level time."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    surf, cover, group = single_cube
    monkeypatch.setattr(cv, "_WORKERS", 2)
    tracer = spans.Tracer()
    tracer.install("threads")
    try:
        cv.validate_cover(cover, surf, n_samples=3000)
        gr.relation_suite(group)
    finally:
        tracer.uninstall()
    assert tracer.originals_restored()
    got = tracer.spans_of("threads")
    by_sid = {s.sid: s for s in got}
    tree = [(s.name, by_sid[s.parent].name if s.parent >= 0 else None) for s in got]
    assert tree == [
        ("cover.validate_cover", None),
        ("cover.closed_form_parameters", "cover.validate_cover"),
        ("cover.face_ball_offset", "cover.closed_form_parameters"),
        ("cover.pairwise_sweep", "cover.validate_cover"),
        ("cover.coverage_check", "cover.validate_cover"),
        ("groups.relation_suite", None),
    ]
    for s in got:
        if s.parent >= 0:
            assert by_sid[s.parent].t0 <= s.t0 <= s.t1 <= by_sid[s.parent].t1
    ordered = sorted(got, key=lambda s: s.t0)
    for a, b in zip(ordered, ordered[1:]):
        assert b.t0 >= a.t1 or b.parent == a.sid  # a sibling starts after, a child inside
    top = spans.top_level_seconds(got)
    assert abs(sum(spans.self_times(got)) - top) <= 1e-6 * max(top, 1)


def test_no_thread_outlives_the_checks(single_cube, monkeypatch):
    """Also when they raise: a GroupError from a moved ball, and the
    CoverError of a NaN radius, which coverage_check's join rejects."""
    surf, cover, group = single_cube
    monkeypatch.setattr(cv, "_WORKERS", 2)
    before = threading.active_count()
    assert cv.coverage_check(cover, surf, n_samples=500) == (1.0, [])
    assert gr.relation_suite(group)["ok"]
    assert threading.active_count() == before
    with pytest.raises(gr.GroupError, match="relation suite failed"):
        gr.relation_suite(moved_ball_group(group))
    assert threading.active_count() == before
    radii = cover.radii.copy()
    radii[5] = np.nan
    with pytest.raises(cv.CoverError, match="ball 5 .* finite positive radius"):
        cv.coverage_check(dataclasses.replace(cover, radii=radii), surf, n_samples=500)
    assert threading.active_count() == before


class Boom(Exception):
    pass


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_thread_map_order_bound_and_errors(monkeypatch, n_workers):
    """Results in input order with at most _WORKERS items drawn and not yet
    yielded; a kernel's exception, or one raised while drawing the items,
    reaches the caller as the same object and leaves no thread."""
    monkeypatch.setattr(cv, "_WORKERS", n_workers)

    def kernel(k, fail=None):
        time.sleep(0.002 * (k % 3))  # later items may finish first
        if k == fail:
            raise boom
        return k * k

    def counted(n):
        for k in range(n):
            drawn[0] += 1
            yield (k,)

    before = threading.active_count()
    drawn, got = [0], []
    for out in cv._thread_map(kernel, counted(20)):
        assert drawn[0] <= len(got) + n_workers
        got.append(out)
    assert got == [k * k for k in range(20)]
    boom = Boom("kernel 5")
    got = []
    with pytest.raises(Boom) as err:
        for out in cv._thread_map(kernel, ((k, 5) for k in range(20))):
            got.append(out)
    assert err.value is boom and got == [k * k for k in range(5)]
    assert threading.active_count() == before

    def items():
        yield from ((k,) for k in range(4))
        raise boom

    boom = Boom("items")
    with pytest.raises(Boom) as err:
        list(cv._thread_map(kernel, items()))
    assert err.value is boom
    assert threading.active_count() == before


def test_bundle_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    """Criterion 10 compares two runs at one worker count; here the default
    `report` config on the preset's construction at edge 9 writes the same
    bytes with one worker and with two."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import scaled_spun_trefoil
    finally:
        sys.path.remove(str(PERFBENCH))
    path = tmp_path / "edge9.txt"
    cx.save_complex(scaled_spun_trefoil(9), str(path))
    bundle = tmp_path / "bundle"
    snapshots = []
    for n_workers in (1, 2):
        monkeypatch.setattr(cv, "_WORKERS", n_workers)
        checks, _out = cli.run_pipeline(cli.RunConfig(complex_path=str(path),
                                                      out_dir=str(bundle)))
        assert all(ok for ok, _msg in checks.values())
        snapshots.append({p.relative_to(bundle): p.read_bytes()
                          for p in sorted(bundle.rglob("*")) if p.is_file()})
    assert snapshots[0] == snapshots[1]
