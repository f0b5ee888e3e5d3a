import pytest

from wildknot.cli import RunConfig, main


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
