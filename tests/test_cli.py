import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from wildknot import bending as bd
from wildknot import complexes as cx
from wildknot import cover as cv
from wildknot import groups as gr
from wildknot import limitset as ls
from wildknot.cli import (INPUT_ERRORS, STAGES, Run, RunConfig, _check_orbit, _check_stages,
                          _write_cover, _write_orbit, main, run_pipeline)
from wildknot.cover import ROLE_FACE, build_cover

import oracles as orc
from test_groups import triangle_subassembly

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.fixture
def tube_complex(tmp_path):
    """Two big cubes joined by a straight tube; passes all ten checks in ~1 s."""
    path = tmp_path / "tube.txt"
    cx.save_complex(orc.straight_tube_complex(), path)
    return str(path)


def test_alexander_preset_trefoil(capsys):
    """Stages past degree 16 print their degree only, so depth 40 returns."""
    assert main(["alexander", "--preset", "trefoil", "-v", "--depth", "40"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t^2 - t + 1"
    assert "NONTRIVIAL" in out[1]
    assert out[2] == "  stage 0: 1 copies, degree 2: t^2 - t + 1"
    assert out[42] == f"  stage 40: {2**40} copies, degree {2**41}: degree-{2**41} power"


def test_alexander_depth_prints_its_stage(capsys):
    """Without -v, --depth picks the one stage printed after the verdict."""
    outs = []
    for depth in (3, 6):
        assert main(["alexander", "--preset", "trefoil", "--depth", str(depth)]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert outs[0][:2] == outs[1][:2] and outs[0] != outs[1]
    assert outs[0][2] == ("  stage 3: 8 copies, degree 16: t^16 - 8*t^15 + 36*t^14 - 112*t^13 "
                          "+ 266*t^12 - 504*t^11 + 784*t^10 - 1016*t^9 + 1107*t^8 - 1016*t^7 "
                          "+ 784*t^6 - 504*t^5 + 266*t^4 - 112*t^3 + 36*t^2 - 8*t + 1")
    assert len(outs[0]) == 3
    assert outs[1][2:] == ["  stage 6: 64 copies, degree 128: degree-128 power"]


def test_alexander_unknot_trivial(capsys):
    assert main(["alexander", "--preset", "unknot"]) == 0
    out = capsys.readouterr().out
    assert "TRIVIAL" in out.splitlines()[1]


def test_alexander_from_file(tmp_path, capsys):
    p = tmp_path / "pres.txt"
    p.write_text("ab\nabaBAB\n", encoding="utf-8")
    assert main(["alexander", "--file", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "t^2 - t + 1"


@pytest.mark.parametrize(
    "text, expected",
    [(None, "FAIL alexander: [Errno 2] No such file or directory"),
     ("ab\nabQ\n", "FAIL alexander: letter 'Q' is not among the first 2 generators"),
     ("ab\n", "FAIL alexander: need a deficiency-1 presentation, got deficiency 2")],
    ids=["missing", "bad-letter", "deficiency"],
)
def test_alexander_bad_file_fails_without_traceback(tmp_path, capsys, text, expected):
    p = tmp_path / "pres.txt"
    if text is not None:
        p.write_text(text, encoding="utf-8")
    assert main(["alexander", "--file", str(p)]) == 1
    assert capsys.readouterr().out.startswith(expected)


def test_enumerate_length_zero(tmp_path, capsys):
    rc = main(["enumerate", "-L", "0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "words <= 0: 1 classes" in out
    orbit = (tmp_path / "orbit.txt").read_text(encoding="utf-8")
    body = [ln for ln in orbit.splitlines() if not ln.startswith("#")]
    assert len(body) == 4  # the generator spheres themselves
    assert all(ln.split()[1] == "-" for ln in body)  # identity words only


def test_enumerate_amalgam_counts(tube_complex, tmp_path, capsys):
    """Word and sphere counts of the tube's first amalgam to length 6.  Four
    spheres have no strictly containing prefix sphere; the check says so but
    passes, because amalgam generators meet at pi/3 and strict nesting is a
    theorem only for pairwise disjoint generators."""
    argv = ["enumerate", "--amalgam", "0", "-L", "6", "--complex", tube_complex]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "words <= 6: 929 classes (raw 1025, merged 96, truncated False)" in lines
    assert "orbit spheres: 1508" in lines
    assert any(ln.startswith("PASS orbit_nesting: 1508 spheres, 4 of 1504 spheres without "
                             "a parent, max radius") for ln in lines)


def test_orbit_check_fails_on_an_orphan_of_a_schottky_orbit(tube_complex, tmp_path,
                                                            monkeypatch):
    """A Schottky sphere without a parent fails the check; the same orbit
    passes under an amalgam's Cartan matrix, where orphans are allowed."""
    run = Run(RunConfig(complex_path=tube_complex, out_dir=str(tmp_path)))
    run.orbit.parent[run.orbit.generation == 2] = -1
    ok, msg = _check_orbit(run)
    assert not ok and msg.startswith("1456 spheres, 36 of 1452 spheres without a parent")
    cartan = run.sub.cartan.copy()
    cartan[0, 1] = cartan[1, 0] = -1  # one pair at pi/3
    monkeypatch.setattr(run.sub, "cartan", cartan)
    assert _check_orbit(run) == (True, msg)


def test_orbit_check_fails_on_a_truncated_orbit(tube_complex, tmp_path, monkeypatch):
    cfg = RunConfig(complex_path=tube_complex, out_dir=str(tmp_path))
    ok, msg = _check_orbit(Run(cfg))
    assert ok and "parents assigned, max radius" in msg
    monkeypatch.setattr(gr, "MAX_ELEMENTS", 50)
    ok, msg = _check_orbit(Run(cfg))
    assert not ok
    assert msg.startswith("50 spheres, parents assigned, truncated, max radius")
    ok, msg = _check_orbit(Run(cfg, amalgam=0))  # truncation fails an amalgam too
    assert not ok and ", truncated, max radius" in msg


def test_stages_check_fails_on_a_dropped_side(tube_complex, tmp_path, monkeypatch):
    """Negative control for the stages check: on the tube's Schottky generators
    the side counts follow n, 2n - 2, ..., so a last stage with one side
    dropped fails with the same stage count; under an amalgam's Cartan
    matrix, where two sides can be mirror images, the same stages pass."""
    run = Run(RunConfig(complex_path=tube_complex, out_dir=str(tmp_path)))
    assert _check_stages(run) == (True, "side counts [4, 6, 10, 18, 34]")
    real = gr.polyhedron_stages

    def dropped(sub, orbit, n_stages):
        *stages, last = real(sub, orbit, n_stages)
        return stages + [dataclasses.replace(last, n_sides=last.n_sides - 1,
                                             sides=last.sides[1:])]

    monkeypatch.setattr(gr, "polyhedron_stages", dropped)
    assert _check_stages(run) == (False, "side counts [4, 6, 10, 18, 33]")
    cartan = run.sub.cartan.copy()
    cartan[0, 1] = cartan[1, 0] = -1  # one pair at pi/3
    monkeypatch.setattr(run.sub, "cartan", cartan)
    assert _check_stages(run) == (True, "side counts [4, 6, 10, 18, 33]")


@pytest.mark.parametrize(("stage", "fault"), [
    ("cover", "moved-vertex-ball"), ("cover", "dropped-face-ball"),
    ("relations", "order-2-row-relabelled-3"), ("bending", "side-a-crossing-word"),
    ("relations", "nan-relation-ball"), ("fundamental_domain", "nan-cover-ball"),
    ("bending", "nan-crossing-ball"), ("bending", "nan-crossing-ball-at-amalgam-3"),
    ("orbit_nesting", "nan-generation-2-radius"), ("limitset", "nan-generation-1-centre"),
    ("faithfulness", "affine-triangle"), ("orbit_nesting", "generation-2-radius-raised"),
    ("limitset", "translated-orbit"),
])
def test_stage_fails_on_a_broken_artifact(tube_complex, tmp_path, monkeypatch, stage, fault):
    """Negative controls for criteria 1, 2, 3, 4, 5, 7 and 8 through the
    pipeline's own stages on the tube; criteria 6 and 9 have no control yet
    (criterion 6 has only its NaN row, which raises before the check).
    Criteria 1 and 2: its cover with vertex ball 0 moved by 0.05 has illegal
    pairs, and without its first face ball it leaves a sample uncovered; each
    broken cover's pair sweep is its own, run by the stage.  Criterion 3: its
    group with the first order-2 relation relabelled 3 fails the relation
    suite, and relations.json keeps the failing report's numbers.  Criterion
    4: the affine triangle sub-assembly maps onto a finite group, so at L = 8
    a nonempty word evaluates to I.  Criterion 5: the first generation-2
    radius raised to twice the generation-1 maximum breaks the decay.
    Criterion 7: the orbit translated by 10 along x leaves every loxodromic
    point outside its generation-1 spheres.  Criterion 8: a crossing word of
    two disjoint vertex balls on the same side of the amalgam is not moved by
    the bending, so lambda_max does not change.

    NaN rows for criteria 3, 6 and 8: one centre coordinate of a relation
    ball, a face ball, or the side-A ball of amalgam 3's crossing word is
    NaN in the run's cover and group.  Each stage raises one of
    INPUT_ERRORS, which run_pipeline turns into a FAIL line: the criterion-8
    row fails on the bending locus of another amalgam at that ball, and at
    amalgam 3 itself on the crossing word's ball check.

    NaN rows for criteria 5 and 7: the radius of the first generation-2
    orbit sphere, or one centre coordinate of the first generation-1 sphere,
    is NaN in the run's orbit.  Criterion 5 fails on the radius decay, which
    reads NaN for generation 2; criterion 7 fails because the loxodromic
    points in that sphere are not inside it, and its message counts them."""
    bend_amalgam = 3 if fault.endswith("at-amalgam-3") else None
    run = Run(RunConfig(complex_path=tube_complex, out_dir=str(tmp_path),
                        bend_amalgam=bend_amalgam,
                        max_word_length=8 if fault == "affine-triangle" else 5))
    if stage == "faithfulness":
        run.sub = triangle_subassembly()
        assert dict(STAGES)[stage](run) == (False, "109 classes at L=8, min gap 0.0000 (> 0.1)")
        return
    if stage in ("orbit_nesting", "limitset"):
        orbit = run.orbit
        gen1, gen2 = (np.flatnonzero(orbit.generation == g) for g in (1, 2))
        if fault == "nan-generation-2-radius":
            orbit.radii[gen2[0]] = np.nan
        elif fault == "generation-2-radius-raised":
            orbit.radii[gen2[0]] = 2.0 * orbit.radii[gen1].max()
        elif fault == "nan-generation-1-centre":
            orbit.centers[gen1[0], 0] = np.nan
        else:
            orbit.centers += [10.0, 0.0, 0.0, 0.0]
        ok, msg = dict(STAGES)[stage](run)
        assert not ok
        want = {"nan-generation-2-radius": "by generation [0.57735, 0.11547, nan, 0.008132",
                "generation-2-radius-raised": "by generation [0.57735, 0.11547, 0.23094, ",
                "nan-generation-1-centre": "), 46 of 50 loxodromic fixed points inside ",
                "translated-orbit": "), 0 of 50 loxodromic fixed points inside "}
        assert want[fault] in msg
        return
    if fault.startswith("nan-"):
        group = run.group  # assembled on the intact cover
        if stage == "relations":
            ball = int(group.relations[0, 0])
        elif stage == "fundamental_domain":
            ball = int(np.flatnonzero(run.cover.roles == ROLE_FACE)[0])
        else:
            ball = bd.crossing_word(group, 3)[0]
        centers = run.cover.centers.copy()
        centers[ball, 1] = np.nan
        run.cover = dataclasses.replace(run.cover, centers=centers)
        run.group = dataclasses.replace(group, cover=run.cover)
        with pytest.raises(INPUT_ERRORS) as raised:
            dict(STAGES)[stage](run)
        if fault == "nan-crossing-ball":
            assert isinstance(raised.value, gr.GroupError)
            assert "has no common orthogonal circle: rho^2 spread [" in str(raised.value)
        else:
            assert isinstance(raised.value, cv.CoverError)
            assert str(raised.value).startswith(f"ball {ball} (centre (")
        return
    if stage == "relations":
        rows = run.group.relations.copy()
        rows[np.flatnonzero(rows[:, 2] == 2)[0], 2] = 3
        run.group = dataclasses.replace(run.group, relations=rows)
    elif stage == "bending":
        sides = bd.split_sides(run.group, 3)
        word = (0, 4)  # both on side A, outside amalgam 3 and disjoint
        assert not sides[list(word)].any()
        assert not set(word) & set(run.group.amalgams[3].ball_ids)
        _prod, order = cv.pair_orders(run.cover.centers, run.cover.radii, [0], [4])
        assert order.tolist() == [0]
        monkeypatch.setattr(bd, "crossing_word", lambda _group, _j: word)
    elif fault == "moved-vertex-ball":
        centers = run.cover.centers.copy()
        centers[0, 0] += 0.05
        run.cover = dataclasses.replace(run.cover, centers=centers)
    else:
        face = int(np.flatnonzero(run.cover.roles == ROLE_FACE)[0])
        run.cover = orc.without_ball(run.cover, face)
    ok, msg = dict(STAGES)[stage](run)
    assert not ok
    if stage == "relations":
        rep = json.loads((tmp_path / "relations.json").read_text(encoding="utf-8"))
        assert rep["ok"] is False and msg == rep["error"]
        assert msg.startswith("relation suite failed: ")
        assert rep["n_relations"] == len(rows) and round(rep["max_residual"], 1) == 28.1
        assert f"{rep['min_premature_gap']:.1e}" == "9.6e-14"
        return
    if stage == "bending":
        assert run.bending["amalgam"] == 3 and run.bending["crossing_word"] == [0, 4]
        lams = {row["lambda_max"] for row in run.bending["rows"]}
        assert len(lams) == 1
        assert msg.startswith("amalgam 3, lambda_max spread 0.000000e+00 over t in ")
        return
    report = json.loads((tmp_path / "cover_report.json").read_text(encoding="utf-8"))
    assert not report["ok"]
    if fault == "moved-vertex-ball":
        assert msg == "max angle residual 4.206e-01 (tol 1e-09), coverage 1.0"
        assert len(report["illegal_pairs"]) == 11
        assert all(pair[0] == 0 for pair in report["illegal_pairs"])
    else:
        assert report["illegal_pairs"] == []
        assert report["max_angle_residual"] <= report["tolerance"]
        assert msg.endswith(", coverage 0.9999615384615385")  # 1 of 130 x 200 samples
        assert [face for face, _point in report["coverage_misses"]] == [0]


def test_build_writes_artifacts(tmp_path, capsys):
    rc = main(["build", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "complex.txt").exists()
    assert (tmp_path / "cover.txt").exists()
    out = capsys.readouterr().out
    assert "chi=2" in out


def test_broken_complex_file_fails(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "wildknot-complex 1\n"
        "big 0 0 0 0 2 3\n"
        "big 9 0 0 4 2 3\n"
        "tube 0 0 0 1 1 2\n",
        encoding="utf-8",
    )
    # the loader's located issues come out as FAIL lines, not a traceback
    assert main(["validate", "--complex", str(bad), "--out", str(tmp_path)]) == 1
    assert "FAIL complex" in capsys.readouterr().out
    bad.write_text("wildknot-complex 1\nbig 0 0 0 0 0 3\n", encoding="utf-8")
    assert main(["validate", "--complex", str(bad), "--out", str(tmp_path)]) == 1
    assert "FAIL complex: edge must be positive" in capsys.readouterr().out
    missing = str(tmp_path / "missing.txt")
    assert main(["build", "--complex", missing, "--out", str(tmp_path)]) == 1
    assert "FAIL complex: cannot read the complex file: " in capsys.readouterr().out
    bad.write_bytes(b"wildknot-complex 1\n\xff\xfe\n")  # not UTF-8
    assert main(["build", "--complex", str(bad), "--out", str(tmp_path)]) == 1
    assert "FAIL complex: cannot read the complex file: 'utf-8' codec" in capsys.readouterr().out


def test_report_fails_on_a_box_too_large_for_surface_keys(tmp_path, capsys):
    """Negative control: the straight tube scaled by 2^14 has fields far
    below the loader's 2^60, but its box holds more lattice points than the
    surface's int64 keys can pack; report prints a FAIL line, not a
    traceback."""
    def scaled(cube):
        return cx.Cube3(tuple(x << 14 for x in cube.corner), cube.edge << 14, cube.omitted_axis)
    c = orc.straight_tube_complex()
    path = tmp_path / "big.txt"
    cx.save_complex(cx.CubeComplex(tuple(map(scaled, c.big)), tuple(map(scaled, c.tube))), path)
    assert main(["report", "--complex", str(path), "--out", str(tmp_path / "b")]) == 1
    assert ("FAIL complex: complex box (0, 0, 0, 0) to (49152, 49152, 49152, 114688) "
            "is too large for 64-bit surface keys") in capsys.readouterr().out.splitlines()


def test_runconfig_guards():
    with pytest.raises(ValueError):
        RunConfig(refinement=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(max_word_length=-2).validate()
    with pytest.raises(ValueError):
        RunConfig(relation_tol=1.0).validate()
    with pytest.raises(ValueError, match="caps must be positive"):
        RunConfig(eps=float("nan")).validate()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig(seed=-1).validate()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="bending angles must be finite"):
            RunConfig(bend_ts=(0.0, bad)).validate()
    RunConfig().validate()


@pytest.mark.parametrize(
    "argv",
    [["report", "--domain-budget", "0"], ["report", "--domain-budget", "-1"],
     ["validate", "--samples-per-face", "0"], ["alexander", "--depth", "-1"],
     ["bend", "--bend-ts", "0,nan"], ["report", "--bend-ts", "nan"],
     ["limitset", "--eps", "nan"], ["validate", "--seed", "-1"], ["report", "--seed", "-1"],
     ["alexander", "--depth", "14300"]],
)
def test_out_of_range_settings_are_usage_errors(argv, capsys):
    """Exit 2 with the subcommand's usage line, which names its flags."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: wildknot {argv[0]} ")


def test_limitset_exports(tmp_path, capsys):
    rc = main(
        [
            "limitset",
            "-L",
            "3",
            "--eps",
            "1e9",
            "--out",
            str(tmp_path),
            "--formats",
            "csv,json",
            "--slice",
            "3",
            "0",
        ]
    )
    assert rc == 0
    assert (tmp_path / "cloud.csv").exists()
    assert (tmp_path / "cloud.json").exists()
    assert (tmp_path / "slice.ply").exists()


@pytest.mark.parametrize(
    "flags",
    [["--slice", "9", "0"], ["--slice", "x", "0"],
     ["--slice", "0", "0", "--slice-thickness", "0"], ["--slice", "-1", "0"]],
    ids=["axis-9", "axis-x", "thickness-0", "axis-minus-1"],
)
def test_malformed_slice_is_a_usage_error(tube_complex, tmp_path, capsys, flags):
    argv = ["limitset", "-L", "3", "--complex", tube_complex, "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert "error: argument --slice" in capsys.readouterr().err
    assert not (tmp_path / "slice.ply").exists()


def test_slice_writes_a_3d_ply(tube_complex, tmp_path):
    argv = ["limitset", "-L", "3", "--eps", "1e9", "--complex", tube_complex,
            "--out", str(tmp_path), "--slice", "3", "0"]
    assert main(argv) == 0
    header, body = (tmp_path / "slice.ply").read_text(encoding="utf-8").split("end_header\n")
    assert "property float z\nproperty int generation\n" in header
    assert "property float w" not in header
    rows = body.splitlines()
    assert len(rows) > 0 and all(len(r.split()) == 4 for r in rows)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["build", "-k", "40"], "FAIL build: refinement k=40 places a junction ball"),
        (["bend", "--bend-amalgam", "9999"], "FAIL bend: amalgam 9999 out of range"),
        (["report", "--bend-amalgam", "9999"], "FAIL bending: amalgam 9999 out of range"),
        (["enumerate", "--amalgam", "9999"], "FAIL enumerate: amalgam 9999 out of range"),
        (["limitset", "--formats", "csv,xyz"], "FAIL limitset: unknown export format 'xyz'"),
        (["enumerate", "--schottky", "0"], "FAIL enumerate: a Schottky sub-assembly needs n >= 1"),
    ],
)
def test_malformed_input_fails_without_traceback(tube_complex, tmp_path, capsys, argv,
                                                 expected):
    assert main(argv + ["--complex", tube_complex, "--out", str(tmp_path / "out")]) == 1
    assert expected in capsys.readouterr().out


def test_unknown_preset_fails_without_traceback(tmp_path, capsys):
    assert main(["build", "--preset", "foo", "--out", str(tmp_path)]) == 1
    assert "FAIL complex: unknown complex preset 'foo'" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, issue",
    [
        ("big 0 0 0 0 2 3\nbig 9 0 0 4 2 3\ntube 0 0 0 1 1 2\n", "do not meet in a 2-face"),
        ("big 0 0 0 0 0 3\n", "edge must be positive"),
        ("big 0 0 0 0 3 3\nbig 0 0 0 100000000000000000000 3 3\n", "field out of range"),
        (None, "cannot read the complex file: [Errno 2] No such file or directory"),
    ],
)
def test_run_pipeline_records_an_invalid_complex_file(tmp_path, text, issue):
    bad = tmp_path / "bad.txt"
    if text is not None:  # else the file is missing
        bad.write_text("wildknot-complex 1\n" + text, encoding="utf-8")
    checks, out = run_pipeline(RunConfig(complex_path=str(bad), out_dir=str(tmp_path / "b")))
    assert list(checks) == ["complex"]
    ok, msg = checks["complex"]
    assert not ok and issue in msg
    summary = (tmp_path / "b" / "summary.txt").read_text(encoding="utf-8")
    assert f"FAIL complex: {msg}" in summary.splitlines()


@pytest.mark.parametrize(
    "argv",
    [["build", "--eps", "1"], ["build", "--seed", "1"], ["validate", "-L", "3"],
     ["enumerate", "--bend-ts", "0,1"], ["bend", "--samples-per-face", "9"]],
)
def test_subcommands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_subcommands_write_the_report_bundle_files(tube_complex, tmp_path, capsys):
    printed = {}
    for command in ("report", "build", "validate", "enumerate", "bend"):
        out = str(tmp_path / command)
        assert main([command, "--complex", tube_complex, "--out", out]) == 0
        printed[command] = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS cover: ") for line in printed["validate"])
    assert not any("adjacency residual" in line for line in printed["validate"])
    for command, name in [("build", "complex.txt"), ("build", "cover.txt"),
                          ("validate", "cover.txt"), ("validate", "cover_report.json"),
                          ("enumerate", "orbit.txt"), ("bend", "bending.json")]:
        expected = (tmp_path / "report" / name).read_bytes()
        assert (tmp_path / command / name).read_bytes() == expected, (command, name)


def test_run_pipeline_builds_the_surface_once(tube_complex, tmp_path, monkeypatch):
    original = cx.knot_surface
    calls = []

    def counted(c):
        calls.append(c)
        return original(c)

    patched = []
    for name, mod in list(sys.modules.items()):
        if name == "wildknot" or name.startswith("wildknot."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, counted)
                    patched.append(f"{name}.{attr}")
    assert {"wildknot.complexes.knot_surface", "wildknot.cover.knot_surface"} <= set(patched)
    checks, _out = run_pipeline(RunConfig(complex_path=tube_complex,
                                          out_dir=str(tmp_path / "b")))
    assert all(ok for ok, _msg in checks.values())
    assert len(calls) == 1


def test_report_searches_the_pairs_once(tube_complex, tmp_path, monkeypatch):
    """The cover's pair search runs once per report, under criterion 1, and
    the group's relations are that same search; build never runs it."""
    original = cv._near_pairs
    calls = []

    def counted(centers, radii):
        calls.append(len(radii))
        return original(centers, radii)

    monkeypatch.setattr(cv, "_near_pairs", counted)
    assert main(["report", "--complex", tube_complex, "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["build", "--complex", tube_complex, "--out", str(tmp_path / "b")]) == 0
    assert calls == []


@pytest.mark.parametrize("name", ["single cube", "scaled preset"])
def test_bundle_text_writers_match_the_per_field_loops(tmp_path, name):
    """cover.txt, orbit.txt and the CSV, PLY and JSON clouds, written with
    one %-format per row, equal the per-field repr(float) loops' and the one
    json.dumps's text, on the single cube and on the preset scaled to edge 11
    (the report workload)."""
    if name == "single cube":
        c = orc.degenerate_single_cube(1)
    else:
        c = workloads.scaled_spun_trefoil(11)
    cover = build_cover(c)
    _write_cover(cover, tmp_path / "cover.txt")
    assert (tmp_path / "cover.txt").read_bytes().decode() == orc.cover_text(cover)
    sub = gr.pairwise_disjoint_subassembly(cover, n=4)
    orbit = gr.orbit_spheres(sub, 5)
    _write_orbit(orbit, sub, tmp_path / "orbit.txt")
    assert (tmp_path / "orbit.txt").read_bytes().decode() == orc.orbit_text(orbit, sub)
    cloud = ls.cloud_from_orbit(orbit, np.inf, offset=sub.offset)
    lox, _skipped = ls.loxodromic_points(sub, 20, seed=0)
    sliced = ls.slice_cloud(cloud, 3, float(np.median(cloud.points[:, 3])), 0.5)
    clouds = [cloud, lox, sliced, ls.cloud_from_orbit(orbit, 0.0)]
    assert min(len(cl) for cl in clouds[:3]) > 0 and len(clouds[3]) == 0
    for cl in clouds:
        assert ls.cloud_to_csv(cl) == orc.cloud_to_csv(cl)
        lines = ls.cloud_to_ply(cl).splitlines()
        assert lines[lines.index("end_header") + 1 :] == orc.cloud_to_ply_rows(cl)
        assert ls.cloud_to_json(cl) == orc.cloud_to_json(cl)


def test_bundle_text_writers_on_odd_floats(tmp_path):
    """The writers format each distinct bit pattern of a column once; on
    columns with -0.0 beside 0.0, NaN, +-inf, the least subnormal and 1e22,
    and on provenances with a quote, a backslash and non-ASCII letters,
    cover.txt, orbit.txt and the CSV, PLY and JSON clouds still equal their
    oracles (single cube, ~10 ms)."""
    odd = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, -1.5])
    odd4 = np.stack([np.roll(odd, k) for k in range(4)], axis=1)
    cover = build_cover(orc.degenerate_single_cube(1))
    centers, radii = cover.centers.copy(), cover.radii.copy()
    centers[: len(odd)], radii[: len(odd)] = odd4, odd[::-1]
    odd_cover = dataclasses.replace(cover, centers=centers, radii=radii)
    _write_cover(odd_cover, tmp_path / "cover.txt")
    text = (tmp_path / "cover.txt").read_bytes().decode()
    assert text == orc.cover_text(odd_cover)
    assert text.splitlines()[1] == "0 -0.0 -1.5 1e+22 5e-324 -1.5 vertex 0"
    sub = gr.pairwise_disjoint_subassembly(cover, n=4)
    orbit = gr.orbit_spheres(sub, 1)
    centers, radii = orbit.centers.copy(), orbit.radii.copy()
    centers[: len(odd)], radii[: len(odd)] = odd4 - sub.offset, odd
    odd_orbit = dataclasses.replace(orbit, centers=centers, radii=radii)
    _write_orbit(odd_orbit, sub, tmp_path / "orbit.txt")
    assert (tmp_path / "orbit.txt").read_bytes().decode() == orc.orbit_text(odd_orbit, sub)
    names = ['say "\\u00e9"', "é", "größe", 'say "\\u00e9"']
    cloud = ls.PointCloud(points=odd4, provenance=names * 2, generation=np.arange(len(odd)),
                          n_infinite=1, notice="ü")
    assert ls.cloud_to_csv(cloud) == orc.cloud_to_csv(cloud)
    lines = ls.cloud_to_ply(cloud).splitlines()
    assert lines[lines.index("end_header") + 1 :] == orc.cloud_to_ply_rows(cloud)
    text = ls.cloud_to_json(cloud)
    assert text == orc.cloud_to_json(cloud)
    assert json.loads(text)["points"][0]["provenance"] == names[0]
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "5e-324" in text


def test_the_command_line_runs_without_sympy(tmp_path):
    """With sympy made unimportable (`sys.modules["sympy"] = None`), the
    `alexander` subcommand and report's invariants stage pass and print
    their lines: the package needs numpy alone."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from wildknot import cli\n"
        "assert cli.main(['alexander', '--preset', 'spun-trefoil']) == 0\n"
        f"run = cli.Run(cli.RunConfig(out_dir={str(tmp_path)!r}))\n"
        "ok, msg = cli._check_invariants(run)\n"
        "assert ok, msg\n"
        "print(msg)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "t^2 - t + 1" and "NONTRIVIAL" in lines[1]
    assert lines[-1] == "spun-trefoil polynomial t^2 - t + 1, verdict NONTRIVIAL"
