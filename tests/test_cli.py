"""Command-line interface: formats, exit codes, determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import pytest

from dpmod2 import bridge, cli, errors, groups
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


def _cached():
    """How many values the program's caches hold."""
    return sum(fn.cache_info().currsize for fn in bridge._caches())


@pytest.mark.parametrize("command, stage", [("verify", "reports_for"),
                                            ("table", "build_del_pezzo")],
                         ids=["verify", "table"])
def test_each_lattice_starts_from_empty_caches(command, stage, monkeypatch, capsys):
    """verify --n all and table release each lattice's caches once its
    reports or row are built: each reports_for(n) after the first, and each
    row after the first, starts with nothing cached, so no other lattice's
    data.  A table row starts by building its lattice, which then misses
    the emptied cache of lattice._build; so does dP5's prop2 when it
    builds dP4 again, which happens within a verify stage, not at its
    start.  Each stage ends with its own lattice cached."""
    module = {"reports_for": bridge, "build_del_pezzo": lat}[stage]
    fn = getattr(module, stage)
    at_start, at_end = [], []

    def counted(*args):
        at_start.append(_cached())
        out = fn(*args)
        at_end.append(_cached())
        return out

    monkeypatch.setattr(module, stage, counted)
    argv = ["verify", "--n", "all"] if command == "verify" else ["table"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert len(at_start) == 6
    assert at_start[1:] == [0] * 5
    if command == "verify":
        assert all(at_end)


def test_verify_all_holds_one_lattice_at_a_time(capsys):
    """The traced peak of verify --n all stays within 1.3 times that of
    verify --n 8 alone, the largest lattice (about 1.2; 2.2 with every
    lattice's caches kept to the end).  Each run starts from empty caches
    and collected garbage, after a warm-up run that pays the one-time
    allocations of argparse and json."""
    def peak(argv):
        bridge._clear_caches()
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


_VERIFY_ALL_JSON_SHA256 = "bc1831c7e81cc660f641691cd7f04bfefadd4ef49fecdb2dd927ec7421c39bb2"


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_output_bytes_do_not_depend_on_the_hash_seed(seed):
    """The chains and checks keep sets and hash lattices, so a fresh process
    under any hash seed prints the pinned verify --n all bytes."""
    proc = subprocess.run([sys.executable, "-m", "dpmod2", "verify", "--n", "all",
                           "--format", "json"], capture_output=True,
                          env={**os.environ, "PYTHONHASHSEED": seed})
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == _VERIFY_ALL_JSON_SHA256


@pytest.mark.parametrize("argv, sha256", [
    (["verify", "--n", "all", "--format", "json"], _VERIFY_ALL_JSON_SHA256),
    (["table", "--format", "csv"],
     "d128ba90a4f8cbda8180a302f1247f24656fb3301d4f0d9c5c0216bbc9ff4699"),
    (["remark2", "--rank", "10"],
     "4164b4d8a2c08001524bb160b1be7b9aea9f360d6f3168b1bbcf92c347c4ce97"),
    (["remark2", "--rank", "5", "--format", "json"],
     "517d27ab8977f2113e798faba63d76364deb3f3c6af69759073c35c21cb6b094"),
    (["remark2", "--rank", "6", "--format", "json"],
     "b0dec844852a42cd8b5c052dd729c7a2666687497ff61bdc4a8923767b5dd497"),
    (["remark2", "--rank", "7", "--format", "json"],
     "5baf72556e2a42ab3bd05f59ec7c3a0f3b22d3e0945d49ac5b137fabf1925782"),
    (["remark2", "--rank", "8", "--format", "json"],
     "9e4c0ee53bff8710f1303814fcfc370bff4f24d49036c0b3fae3ba44246d6d61"),
    (["remark2", "--rank", "9", "--format", "json"],
     "29e0f60ad54cd8199eed53c43303ff44a70f4837e1bb9cc684c0212d2bb764a0"),
    (["remark2", "--rank", "10", "--format", "json"],
     "88bba06710694ffd7f3e273614d6e5ca3184d6360d3049bd0c1f7de3b0907429"),
    # the plain format prints numbers in insertion order, with keys outside
    # NUMBER_KEYS (root_image_size) that the JSON and CSV formats leave out
    (["verify", "--n", "all"],
     "bbdf0073579295fa02aed74ddc8b09d8b2643a13600bb1a0f3a20fe8b2cea130"),
    (["verify", "--n", "all", "--format", "csv"],
     "807be4fa9f1d1c03b961a097783e0d786be1e99be4c9fdc047ab50a18d22177d"),
    # table reads the census, the radical and arf of each lattice
    (["table"],
     "a581088377ef67c2e34917c2c80f69476c88259e4c3e0654642ef94f5d58744e"),
    (["table", "--format", "json"],
     "fc9491ccc4266855d7b404c7c477156275d5c32ba83eed422960a37088ac325e"),
    # roots prints the lattice and its mod-2 space (F2QuadraticSpace.to_json_dict)
    (["roots", "--n", "8", "--format", "json"],
     "93d7903a69dc64d9847e0dcdcc1d30b3c59f4482e2100128a709a070b44bdef4"),
    # each lattice alone: a fresh process reads only its own pairing rows,
    # and n = 5 also reads dP4's census
    (["verify", "--n", "3", "--format", "json"],
     "701be5d0a7f5197e32f1104035cc23c1645d8862923ab2ba59398b60d5ddd087"),
    (["verify", "--n", "5", "--format", "json"],
     "7bf8484eea62fd8c7e12a421727383b1536f5b7638eb8f2d986667893c20f2cc"),
    (["verify", "--n", "6", "--format", "json"],
     "fec85027a82bf9cc577da6cbcc87a33b57b566d4d634ed64adfdea3cec19c24d"),
    (["verify", "--n", "7", "--format", "json"],
     "c881626914e4e4f589402f78115e07176efce5ee35006a81118dc26ac546fcaf"),
    (["verify", "--n", "8", "--format", "json"],
     "4f5c45fbbc32f32485a3d91db6b40675941718771b3ac65c70182ff0f6ab1400"),
    # the command CI and the benchmark pin as well
    (["verify", "--n", "4", "--format", "json"],
     "4453c275e12f3a3463afb068492195c395d7a6181ce727c976df3b5551e99b26"),
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
    bridge._clear_caches()
    gc.disable()
    try:
        result = call()
        return result, len(refs), sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
        bridge._clear_caches()


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
    """Nor does one outlive a library call of reports_for, whose caches
    are kept."""
    reports, built, alive = _chains_kept(monkeypatch, lambda: bridge.reports_for(n))
    assert all(r.passed for r in reports) and built and alive == 0
