"""Command-line interface: formats, exit codes, determinism."""

import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import pytest

from dpmod2 import bridge, cli, errors, f2, groups
from dpmod2 import lattice as lat
from oracles import report_from_json_dict


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
    _, out = _run(["verify", "--n", "5", "--format", "json"], capsys)
    payload = json.loads(out)
    for rd in payload["reports"]:
        assert report_from_json_dict(rd).to_json_dict() == rd


def test_repeated_runs_byte_identical(capsys):
    one = _run(["verify", "--n", "6", "--format", "json"], capsys)[1]
    two = _run(["verify", "--n", "6", "--format", "json"], capsys)[1]
    assert one == two
    t1 = _run(["table", "--format", "csv"], capsys)[1]
    t2 = _run(["table", "--format", "csv"], capsys)[1]
    assert t1 == t2


def _lattices_and_spaces():
    """Every Lattice and F2QuadraticSpace the collector tracks."""
    return [o for o in gc.get_objects()
            if isinstance(o, (lat.Lattice, f2.F2QuadraticSpace))]


_CALLS = {"verify-all": (cli.run, ["verify", "--n", "all"]),
          "table": (cli.run, ["table"]),
          "remark2-10": (cli.run, ["remark2", "--rank", "10"]),
          **{f"reports_for-{n}": (bridge.reports_for, n) for n in range(3, 9)},
          **{f"verify_remarks-{n}": (bridge.verify_remarks, n) for n in (3, 5, 10)}}


@pytest.mark.parametrize("call", _CALLS)
def test_no_lattice_outlives_a_call(call, capsys):
    """A lattice or a space keeps the values derived from it, and nothing
    keeps it once its caller lets it go: with the cyclic collector off, no
    lattice or space that a CLI run or a library call of reports_for or
    verify_remarks builds is alive once it has returned, while its result
    is: none is a reference cycle, and nothing it returns holds one."""
    fn, arg = _CALLS[call]
    gc.collect()
    gc.disable()
    try:
        before = _lattices_and_spaces()
        kept = {id(o) for o in before}
        result = fn(arg)            # held, so a lattice it kept would count
        assert [o for o in _lattices_and_spaces() if id(o) not in kept] == []
        assert fn is not cli.run or result == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_verify_all_holds_one_lattice_at_a_time(capsys):
    """The traced peak of verify --n all stays within 1.3 times that of
    verify --n 8 alone, the largest lattice (about 1.2; 2.2 with every
    lattice's values kept to the end).  Each run starts from collected
    garbage, after a warm-up run that pays the one-time allocations of
    argparse and json."""
    def peak(argv):
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert cli.run(["verify", "--n", "3"]) == 0
    every = peak(["verify", "--n", "all", "--format", "json"])
    largest = peak(["verify", "--n", "8", "--format", "json"])
    capsys.readouterr()
    assert every <= 1.3 * largest


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


# the pinned commands, in order: argv, the sha256 of stdout, and whether
# the bytes are also checked under other hash seeds; CI runs the installed
# script on every entry
_PINNED = json.loads((pathlib.Path(__file__).parent / "pinned_outputs.json").read_text())


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_output_bytes_do_not_depend_on_the_hash_seed(seed):
    """The chains and checks keep sets and hash lattices, so a fresh process
    under any hash seed prints the pinned bytes of each command the table
    marks hash_seeds: verify --n all, table and remark2 --rank 10 in json."""
    seeded = [pin for pin in _PINNED if pin.get("hash_seeds")]
    assert len(seeded) == 3
    for pin in seeded:
        proc = subprocess.run([sys.executable, "-m", "dpmod2", *pin["argv"]],
                              capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == pin["sha256"]


@pytest.mark.parametrize("argv, sha256", [(pin["argv"], pin["sha256"]) for pin in _PINNED])
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


def _chains_kept(monkeypatch, call):
    """call's result, how many PermGroups it builds, and how many of them
    are alive once it has returned, each recorded by a weakref as it is
    constructed.  The cyclic collector is off throughout, so a chain counts
    as released only once its last reference is dropped."""
    refs, init = [], groups.PermGroup.__init__

    def recorded(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.PermGroup, "__init__", recorded)
    gc.disable()
    try:
        result = call()
        return result, len(refs), sum(ref() is not None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [["verify", "--n", "all"], ["remark2", "--rank", "10"],
                                  ["table"]], ids=["verify-all", "remark2-10", "table"])
def test_no_chain_outlives_a_run(argv, monkeypatch, capsys):
    """A run keeps the orders and generators it reads from a stabilizer
    chain, never the chain: none is alive once cli.run returns."""
    code, built, alive = _chains_kept(monkeypatch, lambda: cli.run(argv))
    capsys.readouterr()
    assert code == 0 and built and alive == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_no_chain_outlives_the_reports(n, monkeypatch):
    """Nor does one outlive a library call of reports_for."""
    reports, built, alive = _chains_kept(monkeypatch, lambda: bridge.reports_for(n))
    assert all(r.passed for r in reports) and built and alive == 0
