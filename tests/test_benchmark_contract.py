"""The benchmark harness against this tree.

`perfbench/selftest.py` checks the harness's span arithmetic, the scaled
preset and the names its tracer patches, `from ... import` bindings
included.  A refactor that drops one of those bindings fails here, and so
does one that renames an argument or a result field that the tracer's work
counters read, which the traced run below records.  Each workload's phase
also runs once here under the benchmark's own checks.
"""

import os
import pathlib
import subprocess
import sys

import oracles as orc
from wildknot import complexes as cx
from wildknot import cover as cv
from wildknot import groups as gr

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed, attempted = proc.stdout.split()[0].split("/")
    assert passed == attempted != "0", proc.stdout


def test_benchmark_phases_pass_their_checks(tmp_path, monkeypatch):
    """The set-up and each workload's prepare, phase and check, once at seed
    0: every oracle the benchmark applies holds on this tree.  The phases
    call the library positionally (`orbit_spheres(sub, L)`), so a renamed or
    reordered argument fails here.  `report_prepare` writes its complex and
    bundle under the working directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    monkeypatch.chdir(tmp_path)
    checks = workloads.Checks()
    ctx = workloads.setup()
    workloads.check_setup(ctx, checks)
    for w in workloads.WORKLOADS.values():
        w.prepare(ctx)
        w.check(w.phase(ctx, 0), checks)
    assert (checks.attempted, checks.failures) == (37, [])


def test_traced_run_spans_and_counters():
    """A traced run of criteria 2 and 3 and of the word and orbit tables on
    the single cube records exactly their public calls, as one tree: each
    span inside its parent's interval, siblings apart, the self times adding
    up to the top-level time.  The tracer's work counters read
    coverage_check's `surf` and `n_samples` and the two tables' fields, so
    renaming one of them breaks traced benchmark runs; here all three
    counters are recorded with their values."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    c = orc.degenerate_single_cube(1)
    surf = cx.knot_surface(c)
    cover = cv.build_cover(c)
    # the group on a cover of its own: assembling it on `cover` would run
    # that cover's pair sweep here, before validate_cover is traced
    group = gr.assemble_group(c, cv.build_cover(c))
    sub = gr.pairwise_disjoint_subassembly(cover)
    tracer = spans.Tracer()
    tracer.install("contract")
    try:
        cv.validate_cover(cover, surf, n_samples=3000)
        gr.relation_suite(group)
        table = gr.enumerate_words(sub, 3)
        orbit = gr.orbit_spheres(sub, 3)
    finally:
        tracer.uninstall()
    assert tracer.originals_restored()
    assert set(spans.COUNTERS) == {"cover.coverage_check", "groups.enumerate_words",
                                   "groups.orbit_spheres"}
    got = tracer.spans_of("contract")
    by_sid = {s.sid: s for s in got}
    tree = [(s.name, by_sid[s.parent].name if s.parent >= 0 else None) for s in got]
    assert tree == [
        ("cover.validate_cover", None),
        ("cover.closed_form_parameters", "cover.validate_cover"),
        ("cover.face_ball_offset", "cover.closed_form_parameters"),
        ("cover.pairwise_sweep", "cover.validate_cover"),
        ("cover.coverage_check", "cover.validate_cover"),
        ("complexes.lattice_index", "cover.coverage_check"),
        ("groups.relation_suite", None),
        ("groups.relation_residuals", "groups.relation_suite"),
        ("groups.reflection_matrices", "groups.relation_residuals"),
        ("groups.reflection_matrices", "groups.relation_residuals"),
        ("groups.enumerate_words", None),
        ("groups.orbit_spheres", None),
        ("groups.enumerate_words", "groups.orbit_spheres"),
    ]
    for s in got:
        if s.parent >= 0:
            assert by_sid[s.parent].t0 <= s.t0 <= s.t1 <= by_sid[s.parent].t1
    ordered = sorted(got, key=lambda s: s.t0)
    for a, b in zip(ordered, ordered[1:]):
        assert b.t0 >= a.t1 or b.parent == a.sid  # a sibling starts after, a child inside
    top = spans.top_level_seconds(got)
    assert abs(sum(spans.self_times(got)) - top) <= 1e-6 * max(top, 1)
    counters = {s.name: s.counters for s in got if s.counters}
    assert counters == {
        "cover.coverage_check": {"samples": len(surf.faces) * 3000},
        "groups.enumerate_words": {"classes": len(table.words), "raw": table.n_raw,
                                   "merged": table.n_merged},
        "groups.orbit_spheres": {"spheres": len(orbit.radii)},
    }
