import json

import pytest

from hilbcert import cli
from hilbcert.cli import main

X2Y2 = "field: QQ\nvars: x y\ngens:\nx^2\ny^2\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _gallery_file(tmp_path, capsys, name, *flags):
    assert main(["gallery", name, *flags]) == 0
    text = capsys.readouterr().out
    return _write(tmp_path, f"{name}.txt", text)


def test_hf_command(tmp_path, capsys):
    path = _gallery_file(tmp_path, capsys, "re", "--e", "3")
    assert main(["hf", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == "1+4T+10T^2+12T^3+8T^4; deg 35"
    assert report["degree"] == 35


def test_hf_rejects_positive_dimension(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "field: QQ\nvars: x y\ngens:\nx^2\n")
    assert main(["hf", path]) == 4
    assert "zero-dimensional" in capsys.readouterr().err


def test_certify_exit_codes(tmp_path, capsys):
    neg = _write(tmp_path, "x2y2.txt", X2Y2)
    assert main(["certify", neg]) == 2
    capsys.readouterr()
    smooth = _gallery_file(tmp_path, capsys, "re", "--e", "2")
    assert main(["certify", smooth]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "smooth-elementary"
    assert report["dimension"] == 25


def test_certify_pair(tmp_path, capsys):
    small = _gallery_file(tmp_path, capsys, "re", "--e", "2")
    big = _gallery_file(tmp_path, capsys, "me", "--e", "2")
    assert main(["certify", small, "--pair", big]) == 3
    capsys.readouterr()
    assert main(["certify", small, "--pair", big, "--assert-M-smooth"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "relative-smooth-elementary"
    assert report["dimension"] == 25


def test_certify_graded_only(tmp_path, capsys):
    path = _gallery_file(tmp_path, capsys, "weighted_counterexample")
    assert main(["certify", path, "--graded-only"]) == 4


def test_failed_self_check_is_an_error_not_a_verdict(tmp_path, capsys,
                                                    monkeypatch):
    """A library self-check that fails exits with the error code, not 1
    (TNT-elementary), which an uncaught AssertionError would give."""

    def broken(ideal):
        raise AssertionError("trivial syzygy outside the syzygy module")

    monkeypatch.setattr(cli, "elementary_certificate", broken)
    path = _write(tmp_path, "x2y2.txt", X2Y2)
    assert main(["certify", path]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("internal error: trivial syzygy outside the "
                            "syzygy module\n")
    assert captured.out == ""


def test_parse_error_reports_location(tmp_path, capsys):
    path = _write(
        tmp_path, "bad.txt", "field: QQ\nvars: x y\ngens:\nx^2\nx + w\n"
    )
    assert main(["certify", path]) == 4
    err = capsys.readouterr().err
    assert "line 5" in err
    assert "w" in err


def test_gallery_verify(capsys):
    assert main(["gallery", "me", "--e", "2", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_match"] is True
    assert report["dim_hom_actual"] == 36


def test_gallery_unknown(capsys):
    assert main(["gallery", "nope"]) == 4
    assert "available" in capsys.readouterr().err


def test_hunt_deterministic(tmp_path, capsys):
    args = [
        "hunt", "--vars", "4", "--socle", "2", "--codim", "3",
        "--count", "2", "--seed", "7", "--out", str(tmp_path / "hits"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "seed 7:" in first
    assert (tmp_path / "hits" / "index.json").exists()


def test_certify_reads_a_persisted_hit(tmp_path, capsys):
    out = tmp_path / "hits"
    assert main([
        "hunt", "--vars", "4", "--socle", "2", "--codim", "3",
        "--count", "1", "--seed", "12", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    index = json.loads((out / "index.json").read_text())
    assert list(index.values()) == ["hit-0000-seed12.txt"]
    hit = out / "hit-0000-seed12.txt"
    lines = hit.read_text().split("# certificate\n", 1)[1].splitlines()
    stored = json.loads("\n".join(line[2:] for line in lines))
    assert main(["certify", str(hit)]) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["ideal_hash"] == stored["ideal_hash"]


def test_hunt_bounds_error(capsys):
    assert main(["hunt", "--vars", "4", "--socle", "2", "--codim", "999"]) == 4
    assert "out of range" in capsys.readouterr().err


def test_hunt_needs_a_prime_field(capsys):
    assert main(["hunt", "--vars", "3", "--socle", "2", "--codim", "1",
                 "--field", "QQ"]) == 4
    assert "prime field GF(p)" in capsys.readouterr().err


def test_hunt_rejects_negative_count(capsys):
    assert main(["hunt", "--vars", "3", "--socle", "2", "--codim", "1",
                 "--count", "-2"]) == 4
    captured = capsys.readouterr()
    assert "non-negative" in captured.err
    assert captured.out == ""


def test_missing_file(capsys):
    assert main(["certify", "/nonexistent/file.txt"]) == 4
