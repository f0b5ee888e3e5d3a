import sys

import pytest

from wildknot import complexes as cx
from wildknot.cli import RunConfig, main, run_pipeline


@pytest.fixture
def tube_complex(tmp_path):
    """Two big cubes joined by a straight tube; passes all ten checks in ~1 s."""
    big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 6), 3, 3))
    tube = tuple(cx.Cube3((1, 1, 0, w), 1, 2) for w in range(6))
    path = tmp_path / "tube.txt"
    cx.save_complex(cx.CubeComplex(big, tube), path)
    return str(path)


def test_alexander_preset_trefoil(capsys):
    assert main(["alexander", "--preset", "trefoil"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t^2 - t + 1"
    assert "NONTRIVIAL" in out


def test_alexander_unknot_trivial(capsys):
    assert main(["alexander", "--preset", "unknot"]) == 0
    out = capsys.readouterr().out
    assert "TRIVIAL" in out.splitlines()[1]


def test_alexander_from_file(tmp_path, capsys):
    p = tmp_path / "pres.txt"
    p.write_text("ab\nabaBAB\n", encoding="utf-8")
    assert main(["alexander", "--file", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "t^2 - t + 1"


def test_enumerate_length_zero(tmp_path, capsys):
    rc = main(["enumerate", "-L", "0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "words <= 0: 1 classes" in out
    orbit = (tmp_path / "orbit.txt").read_text(encoding="utf-8")
    body = [ln for ln in orbit.splitlines() if not ln.startswith("#")]
    assert len(body) == 4  # the generator spheres themselves
    assert all(ln.split()[1] == "-" for ln in body)  # identity words only


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


def test_runconfig_guards():
    with pytest.raises(ValueError):
        RunConfig(refinement=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(max_word_length=-2).validate()
    with pytest.raises(ValueError):
        RunConfig(relation_tol=1.0).validate()
    RunConfig().validate()


@pytest.mark.parametrize(
    "argv",
    [["report", "--domain-budget", "0"], ["report", "--domain-budget", "-1"],
     ["validate", "--samples-per-face", "0"]],
)
def test_out_of_range_settings_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
    ],
)
def test_run_pipeline_records_an_invalid_complex_file(tmp_path, text, issue):
    bad = tmp_path / "bad.txt"
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


def test_subcommands_write_the_report_bundle_files(tube_complex, tmp_path):
    for command in ("report", "build", "enumerate", "bend"):
        out = str(tmp_path / command)
        assert main([command, "--complex", tube_complex, "--out", out]) == 0
    for command, name in [("build", "complex.txt"), ("build", "cover.txt"),
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
