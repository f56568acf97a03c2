"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from dpmod2 import cli, errors


def _run(argv, capsys):
    code = cli.run(argv)
    return code, capsys.readouterr().out


def test_verify_single_n_json(capsys):
    code, out = _run(["verify", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    statements = [r["statement"] for r in payload["reports"]]
    assert statements == ["lemma1a", "lemma1b", "prop1", "prop2", "corollary"]
    assert all(r["pass"] for r in payload["reports"])
    # the schema carries every expected numbers key
    for r in payload["reports"]:
        assert set(r["numbers"]) == set(cli.bridge.NUMBER_KEYS)


def test_verify_n3_includes_remark1(capsys):
    code, out = _run(["verify", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    statements = [r["statement"] for r in json.loads(out)["reports"]]
    assert statements == ["lemma1a", "lemma1b", "prop1", "remark1"]


def test_internal_error_is_not_a_failed_check(monkeypatch, capsys):
    def failed_check(n):
        raise errors.CrossCheckFailed("orders differ")

    def bug(n):
        raise KeyError("oops")

    monkeypatch.setattr(cli.bridge, "reports_for", failed_check)
    assert cli.run(["verify", "--n", "4"]) == 1
    assert capsys.readouterr().err == "check failed with CrossCheckFailed: orders differ\n"
    monkeypatch.setattr(cli.bridge, "reports_for", bug)
    assert cli.run(["verify", "--n", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError: 'oops'\n")
    assert "Traceback (most recent call last)" in err


def test_verify_bad_n_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--n", "9"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_roots_formats(capsys):
    code, out = _run(["roots", "--n", "3", "--format", "plain"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    code, out = _run(["roots", "--n", "3", "--format", "json"], capsys)
    payload = json.loads(out)
    assert len(payload["roots"]) == 8
    assert payload["lattice"]["root_type"] == "A1xA2"
    assert len(payload["lattice"]["gram"]) == 3
    code, out = _run(["roots", "--n", "4", "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "E0,E1,E2,E3,E4"
    assert len(lines) == 21


def test_table_csv_row_n7(capsys):
    code, out = _run(["table", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("n,type,roots,q1,q0,radical_dim,arf,weyl_order,"
                        "autL_order,oL2_order,rho_image_order")
    row7 = next(l for l in lines if l.startswith("7,"))
    cells = row7.split(",")
    assert cells[2] == "126" and cells[3] == "64"
    assert "1451520" in cells
    # arf column empty for degenerate rows, filled for the others
    row8 = next(l for l in lines if l.startswith("8,"))
    assert row8.split(",")[6] == "0"
    assert row7.split(",")[6] == ""


def test_remark2_subcommand(capsys):
    code, out = _run(["remark2", "--rank", "8", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    rep = payload["reports"][0]
    assert rep["statement"] == "remark2"
    assert rep["numbers"]["q1_count"] == 120
    assert rep["pass"] is True


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = _run(["verify", "--n", "3", "--format", "json",
                    "--output", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["all_pass"] is True


@pytest.mark.parametrize("where", ["missing-dir/report.txt", "."])
def test_unwritable_output_is_a_usage_error(where, tmp_path, capsys):
    """A missing directory or a directory as --output exits 2, no traceback."""
    path = tmp_path / where
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--n", "3", "--output", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {path}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_json_roundtrip_through_reports(capsys):
    from dpmod2.bridge import VerificationReport
    _, out = _run(["verify", "--n", "5", "--format", "json"], capsys)
    payload = json.loads(out)
    for rd in payload["reports"]:
        assert VerificationReport.from_json_dict(rd).to_json_dict() == rd


def test_repeated_runs_byte_identical(capsys):
    one = _run(["verify", "--n", "6", "--format", "json"], capsys)[1]
    two = _run(["verify", "--n", "6", "--format", "json"], capsys)[1]
    assert one == two
    t1 = _run(["table", "--format", "csv"], capsys)[1]
    t2 = _run(["table", "--format", "csv"], capsys)[1]
    assert t1 == t2


def test_subprocess_determinism_small_n():
    """Two fresh processes produce byte-identical output."""
    cmd = [sys.executable, "-m", "dpmod2.cli", "verify", "--n", "4",
           "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_python_m_dpmod2_runs_the_cli(capsys):
    """`python -m dpmod2` prints what `cli.run` prints."""
    argv = ["verify", "--n", "4", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "dpmod2"] + argv,
                          capture_output=True, text=True)
    code, out = _run(argv, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("argv, sha256", [
    (["verify", "--n", "all", "--format", "json"],
     "bc1831c7e81cc660f641691cd7f04bfefadd4ef49fecdb2dd927ec7421c39bb2"),
    (["table", "--format", "csv"],
     "d128ba90a4f8cbda8180a302f1247f24656fb3301d4f0d9c5c0216bbc9ff4699"),
])
def test_output_bytes_pinned(argv, sha256, tmp_path):
    """A change to any reported number or byte of these reports fails here."""
    out = tmp_path / "report"
    assert cli.run(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_optimized_interpreter_gives_identical_output():
    """No check that decides a reported number is stripped by python -O."""
    argv = ["-m", "dpmod2.cli", "verify", "--n", "4", "--format", "json"]
    plain = subprocess.run([sys.executable] + argv, capture_output=True)
    optimized = subprocess.run([sys.executable, "-O"] + argv, capture_output=True)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
