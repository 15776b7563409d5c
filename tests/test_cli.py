"""Command-line behavior, exercised in-process through run()."""

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from strings_and_coins import claims, families, io_cache
from strings_and_coins.claims import ClaimReport
from strings_and_coins.cli import CACHE_ENV, run
from strings_and_coins.families import make
from strings_and_coins.io_cache import load_cache, save_cache
from strings_and_coins.canonical import canonical_key
from strings_and_coins.solver import DepthLimitError, check_depth

import support


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def json_rows(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def tsv_rows(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def test_solve_family_json():
    code, out, err = invoke("solve", "--family", "cycle", "4", "--json")
    assert code == 0
    (row,) = json_rows(out)
    assert row["winner"] == "P2"
    assert (row["p1"], row["p2"], row["differential"]) == (0, 4, -4)
    assert row["family"] == "cycle"
    assert row["parameters"] == "4"


def test_solve_formats_agree():
    code_j, out_j, _ = invoke("solve", "--family", "friendship", "2", "--json")
    code_t, out_t, _ = invoke("solve", "--family", "friendship", "2", "--tsv")
    assert code_j == code_t == 0
    (jrow,) = json_rows(out_j)
    (trow,) = tsv_rows(out_t)
    for field in ("family", "parameters", "winner"):
        assert str(jrow[field]) == trow[field]
    for field in ("p1", "p2", "differential", "nodes"):
        assert jrow[field] == int(trow[field])


def test_solve_edges_file(tmp_path):
    pos = tmp_path / "pos.txt"
    pos.write_text("# two coins on a string\n0 1\n")
    code, out, _ = invoke("solve", "--edges", str(pos), "--json")
    assert code == 0
    (row,) = json_rows(out)
    assert (row["winner"], row["p1"], row["p2"]) == ("P1", 2, 0)
    assert row["family"] == "custom"


def test_solve_edges_budget_covers_keying(tmp_path):
    # keying the rigid multipede alone takes many seconds
    pos = tmp_path / "pos.txt"
    support.write_edge_list(support.multipede(40, 1), str(pos))
    start = time.monotonic()
    code, out, err = invoke("solve", "--edges", str(pos), "--time-budget", "0.5")
    assert time.monotonic() - start < 2
    assert code == 3
    assert out == ""
    assert err.startswith("aborted: time budget")


def test_solve_edges_beyond_key_format_exits_2(tmp_path):
    # 65536 parallel strings: the multiplicity no longer fits a u16 key field
    pos = tmp_path / "pos.txt"
    pos.write_text("0 1\n" * 65536)
    code, out, err = invoke("solve", "--edges", str(pos), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "65535" in err
    assert "Traceback" not in err


def test_solve_edges_too_deep_exits_2(tmp_path):
    # 1500 parallel strings: one search frame per cut exceeds the recursion limit
    pos = tmp_path / "pos.txt"
    pos.write_text("0 1\n" * 1500)
    code, out, err = invoke("solve", "--edges", str(pos), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the same shape at a depth that fits still solves: the last cut takes both coins
    pos.write_text("0 1\n" * 500)
    code, out, _ = invoke("solve", "--edges", str(pos), "--json")
    assert code == 0
    (row,) = json_rows(out)
    assert (row["p1"], row["p2"]) == (0, 2)


def _refuse_to_build(monkeypatch, name):
    """Make building family ``name`` fail the test."""
    arity, mins, _, count = families._FAMILIES[name]

    def builder(*params):
        raise AssertionError(f"{name}{params} was built")

    monkeypatch.setitem(families._FAMILIES, name, (arity, mins, builder, count))


@pytest.mark.parametrize("command", ["solve", "bestmove", "table"])
def test_family_too_deep_is_refused_before_it_is_built(monkeypatch, command):
    # the refusal is check_depth's own, read off the family's counts
    with pytest.raises(DepthLimitError) as exc:
        check_depth(make("path", 2000))
    _refuse_to_build(monkeypatch, "path")
    _refuse_to_build(monkeypatch, "complete")
    rows = ("--from", "2000", "--to", "2000") if command == "table" else ("2000",)
    code, out, err = invoke(command, "--family", "path", *rows, "--json")
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")
    # K(100000) would hold about 5 * 10^9 strings
    rows = ("--from", "100000", "--to", "100000") if command == "table" else ("100000",)
    code, out, err = invoke(command, "--family", "complete", *rows, "--time-budget", "1", "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: position has 4999950000 strings on 100000 coins; ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--family", "hypercube", "100000"),
        ("table", "--family", "hypercube", "--from", "99999", "--to", "100000"),
        ("solve", "--family", "complete", "7" * 2200),
        ("solve", "--family", "hypercube", "10000000000"),
    ],
    ids=["hypercube-1e5", "table-hypercube-1e5", "complete-2200-digits", "hypercube-1e10"],
)
def test_absurd_family_parameters_exit_2(monkeypatch, argv):
    # their counts run past the digits str() converts; Q_d's coin count
    # 1 << d for d = 10^10 would take 1.25 GB, so those are refused first
    _refuse_to_build(monkeypatch, "hypercube")
    _refuse_to_build(monkeypatch, "complete")
    if len(argv[-1]) > 6:

        def no_counts(spec):
            raise AssertionError(f"counts of {spec.family} were computed")

        monkeypatch.setattr(families, "counts", no_counts)
    code, out, err = invoke(*argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [b"0 1\n\xff 2\n", b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR"],
    ids=["bad-byte-in-line-2", "png-header"],
)
def test_solve_edges_not_utf8_exits_2(tmp_path, data):
    pos = tmp_path / "pos.txt"
    pos.write_bytes(data)
    code, out, err = invoke("solve", "--edges", str(pos), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(pos) in err
    assert "Traceback" not in err


def test_solve_missing_edges_file():
    code, _, err = invoke("solve", "--edges", "/nonexistent/pos.txt")
    assert code == 2
    assert "error" in err


def test_solve_unknown_family_lists_names_once():
    code, _, err = invoke("solve", "--family", "moebius", "3")
    assert code == 2
    assert err.count("available") + err.count("families:") == 1


def test_solve_bad_parameter_count():
    code, _, err = invoke("solve", "--family", "complete_bipartite", "2")
    assert code == 2
    assert "error" in err


def test_non_integer_family_parameter_is_refused_alike():
    runs = [
        invoke("solve", "--family", "loopy_cycle", "5", "x"),
        invoke("bestmove", "--family", "loopy_cycle", "5", "x"),
        invoke("table", "--family", "loopy_cycle", "x", "--from", "4", "--to", "5"),
    ]
    assert {(code, out) for code, out, _ in runs} == {(2, "")}
    assert len({err for _, _, err in runs}) == 1
    assert runs[0][2].startswith("error: family parameters must be integers, got 'x'\n")


def test_bestmove_reports_move_and_value():
    code, out, _ = invoke("bestmove", "--family", "loopy_cycle", "6", "1", "--json")
    assert code == 0
    (row,) = json_rows(out)
    u, v = row["move"].split("-")
    assert u == v  # the loop is the optimal opener
    assert row["winner"] == "P1"


def test_bestmove_empty_position(tmp_path):
    pos = tmp_path / "empty.txt"
    pos.write_text("# no edges\n")
    code, _, err = invoke("bestmove", "--edges", str(pos))
    assert code == 2
    assert "error" in err


def test_table_rows_match_reference():
    code, out, _ = invoke("table", "--family", "friendship", "--from", "1", "--to", "4", "--json")
    assert code == 0
    rows = json_rows(out)
    assert [(r["parameters"], r["winner"], r["p1"], r["p2"]) for r in rows] == [
        ("1", "P2", 0, 3),
        ("2", "P1", 3, 2),
        ("3", "P2", 2, 5),
        ("4", "P1", 5, 4),
    ]


def test_table_tsv_single_header():
    code, out, _ = invoke(
        "table", "--family", "cycle", "--from", "3", "--to", "6", "--tsv"
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5
    assert lines[0].startswith("family\t")
    assert sum(ln.startswith("family\t") for ln in lines) == 1


@pytest.mark.parametrize("module", ["strings_and_coins", "strings_and_coins.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    src = os.path.dirname(os.path.dirname(claims.__file__))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-m", module, "table", "--family", "wheel", "--from", "3", "--to", "4"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = tsv_rows(proc.stdout)
    assert [(r["parameters"], r["winner"], r["p1"], r["p2"]) for r in rows] == [
        ("3", "P2", "0", "4"),
        ("4", "P1", "4", "1"),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--family", "complete", "7"),
        ("bestmove", "--family", "complete", "7"),
        ("table", "--family", "complete", "--from", "2", "--to", "7"),
    ],
    ids=["solve", "bestmove", "table"],
)
def test_nan_time_budget_is_refused(argv):
    code, out, err = invoke(*argv, "--time-budget", "nan", "--json")
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error:") and "--time-budget" in line


def test_table_budget_abort_keeps_rows():
    code, out, err = invoke(
        "table", "--family", "complete", "--from", "2", "--to", "10",
        "--time-budget", "0.3", "--json",
    )
    assert code == 3
    assert "aborted" in err
    rows = json_rows(out)
    assert len(rows) >= 1
    assert [r["parameters"] for r in rows] == [str(p) for p in range(2, 2 + len(rows))]
    for r in rows:
        assert r["p1"] + r["p2"] == int(r["parameters"])


def test_table_budget_covers_the_whole_run():
    # wheel 3..12 takes about 1.7 s, and the rows before wheel(12) take
    # under 0.6 s each: a budget per row would run past 0.9 s
    start = time.monotonic()
    code, out, err = invoke(
        "table", "--family", "wheel", "--from", "3", "--to", "12",
        "--time-budget", "0.6", "--json",
    )
    assert time.monotonic() - start < 0.9
    assert code == 3
    rows = json_rows(out)
    stopped = 3 + len(rows)
    assert [r["parameters"] for r in rows] == [str(p) for p in range(3, stopped)]
    assert err.startswith(f"aborted at wheel({stopped}): time budget")
    assert err.rstrip().endswith(f"rows up to {stopped - 1} are complete")


def test_table_range_validation():
    code, _, err = invoke("table", "--family", "cycle", "--from", "5", "--to", "3")
    assert code == 2
    assert "error" in err


def test_verify_single_claim():
    code, out, _ = invoke("verify", "--claim", "cycle_p2")
    assert code == 0
    assert out.splitlines()[0].startswith("cycle_p2: PASS")


def test_verify_unknown_claim_lists_ids():
    code, _, err = invoke("verify", "--claim", "riemann")
    assert code == 2
    assert "cycle_p2" in err


def test_verify_failure_exit_code(monkeypatch):
    def failing():
        rep = ClaimReport("always_red", passed=True, lines=[], witness=None)
        rep.fail("forced failure for the exit-code path")
        return rep

    monkeypatch.setitem(claims.CLAIMS, "always_red", failing)
    code, out, _ = invoke("verify", "--claim", "always_red")
    assert code == 1
    assert "always_red: FAIL" in out


# sha256 of `snc verify --all` stdout: every claim's report, line for line
VERIFY_ALL_DIGEST = "43f5ed2be14e8e0c8ac3085dabafe4060b62f285cbd77a667bd025fa715f3c75"
# the same with every exact solve negated: each FAIL and witness text
VERIFY_ALL_NEGATED_DIGEST = "db74726060c61d9d45f3a6c3f632072d3303e8f186d90147d91dfd9e105f729f"


def test_verify_all_report_is_pinned():
    code, out, _ = invoke("verify", "--all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST


def test_verify_all_failure_report_is_pinned(monkeypatch):
    solve = claims.solve
    swap = {"P1": "P2", "P2": "P1", "Tie": "Tie"}

    def negated(*args, **kwargs):
        gv = solve(*args, **kwargs)
        return dataclasses.replace(
            gv, differential=-gv.differential, p1_score=gv.p2_score, p2_score=gv.p1_score, winner=swap[gv.winner]
        )

    monkeypatch.setattr(claims, "solve", negated)
    code, out, _ = invoke("verify", "--all")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_NEGATED_DIGEST


def test_solve_cache_file_round_trip(tmp_path):
    cache = str(tmp_path / "values.snc")
    code1, out1, err1 = invoke("solve", "--family", "complete", "5", "--cache", cache, "--json")
    assert code1 == 0
    assert os.path.exists(cache)
    assert "appended" in err1
    warm_rows = []
    code2, out2, _ = invoke("solve", "--family", "complete", "5", "--cache", cache, "--json")
    assert code2 == 0
    (cold,) = json_rows(out1)
    (warm,) = json_rows(out2)
    assert (cold["winner"], cold["p1"], cold["p2"]) == (warm["winner"], warm["p1"], warm["p2"])
    assert warm["nodes"] <= 1


def test_cache_env_var(tmp_path, monkeypatch):
    cache = str(tmp_path / "values.snc")
    monkeypatch.setenv(CACHE_ENV, cache)
    code, out, _ = invoke("solve", "--family", "cycle", "6")
    assert code == 0
    assert os.path.exists(cache)
    loaded = load_cache(cache)
    assert canonical_key(make("cycle", 6)) in loaded.entries


def test_cache_compact_subcommand(tmp_path):
    cache = str(tmp_path / "values.snc")
    key = canonical_key(make("cycle", 3))
    save_cache(cache, [(key, -3)])
    save_cache(cache, [(key, -3)])
    code, out, _ = invoke("cache", "--compact", cache)
    assert code == 0
    assert "2 -> 1" in out
    assert load_cache(cache).entries == {key: -3}


def test_cache_compact_missing_file():
    code, _, err = invoke("cache", "--compact", "/nonexistent/values.snc")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, where",
    [
        (("cache", "--compact"), "values.snc"),
        (("cache", "--compact"), "missing/values.snc"),
        (("solve", "--family", "cycle", "4", "--cache"), "missing/values.snc"),
    ],
    ids=["compact", "compact-no-dir", "solve-no-dir"],
)
def test_missing_cache_is_named_and_leaves_no_lock(tmp_path, argv, where):
    cache = str(tmp_path / where)
    code, _, err = invoke(*argv, cache)
    assert code == 2
    assert f"'{cache}'" in err
    assert ".lock" not in err
    assert os.listdir(tmp_path) == []


def test_no_arguments_usage():
    code, _, _ = invoke()
    assert code == 2


def test_usage_error_goes_to_the_given_err(capsys):
    code, out, err = invoke("solve")
    assert (code, out) == (2, "")
    assert err.startswith("usage: snc solve")
    assert "one of the arguments --family --edges is required" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_out(capsys):
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: snc")
    assert "bestmove" in out
    assert capsys.readouterr() == ("", "")


_COUNT_PARSERS = """
import argparse, io, json
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
counts = []
import strings_and_coins
counts.append(built)
from strings_and_coins import cli
counts.append(built)
for argv in (["verify", "--claim", "cycle_p2"], ["solve"]):
    cli.run(argv, io.StringIO(), io.StringIO())
    counts.append(built)
print(json.dumps(counts))
"""


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path):
    src = os.path.dirname(os.path.dirname(claims.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    after_package, after_cli, after_first_run, after_second_run = json.loads(proc.stdout)
    assert (after_package, after_cli) == (0, 0)
    assert after_first_run > 0
    assert after_second_run == after_first_run


# elapsed_ms, the one field that two runs of the same command may differ in
_ELAPSED = re.compile(r'("elapsed_ms": |\t)\d+(\}?)$', re.MULTILINE)


def test_shared_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    cache = str(tmp_path / "values.snc")
    session = [
        ("solve", "--family", "cycle", "5", "--json"),
        ("solve", "--family", "cycle", "4", "--json", "--tsv"),
        ("solve", "--family", "cycle", "5"),
        ("table", "--family", "wheel", "--from", "3", "--to", "4"),
        ("verify", "--claim", "cycle_p2"),
        ("cache", "--compact", cache),
    ]

    def one_pass():
        key = canonical_key(make("cycle", 3))
        if os.path.exists(cache):  # each pass starts from the same two records
            os.remove(cache)
        save_cache(cache, [(key, -3), (key, -3)])
        return [(code, _ELAPSED.sub(r"\g<1>0\2", out), err) for code, out, err in (invoke(*a) for a in session)]

    first = one_pass()
    assert first == one_pass()
    codes = [code for code, _, _ in first]
    assert codes == [0, 2, 0, 0, 0, 0]
    assert json_rows(first[0][1])[0]["differential"] == -5
    assert "not allowed with argument" in first[1][2]
    assert tsv_rows(first[2][1])[0]["differential"] == "-5"
    assert first[5][1] == f"compacted {cache}: 2 -> 1 record(s)\n"


def test_cache_removed_before_its_load_is_treated_as_absent(tmp_path, monkeypatch):
    cache = str(tmp_path / "values.snc")
    save_cache(cache, [(canonical_key(make("path", 5)), 5)])
    load = io_cache.load_cache

    def load_after_removal(path):
        os.remove(path)
        return load(path)

    monkeypatch.setattr(io_cache, "load_cache", load_after_removal)
    code, out, err = invoke("solve", "--family", "cycle", "4", "--cache", cache, "--json")
    assert code == 0, err
    (row,) = json_rows(out)
    assert (row["differential"], row["memo_hits"]) == (-4, 0)
    assert f"appended {len(load(cache).entries)} record(s)" in err
    assert canonical_key(make("cycle", 4)) in load(cache).entries


def test_cache_that_cannot_be_read_exits_2(tmp_path):
    cache = tmp_path / "values.snc"
    cache.mkdir()
    code, out, err = invoke("solve", "--family", "cycle", "4", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"'{cache}'" in err


def test_solver_flag_passthrough():
    code, out, _ = invoke("solve", "--family", "cycle", "5", "--no-memo", "--no-prune", "--json")
    assert code == 0
    (row,) = json_rows(out)
    assert (row["winner"], row["p1"], row["p2"]) == ("P2", 0, 5)
    assert row["memo_hits"] == 0


def test_no_memo_ignores_the_cache(tmp_path):
    # a cache holding one record must neither seed nor memoise a --no-memo
    # search, and the search must leave the file as it found it
    cache = tmp_path / "values.snc"
    path5 = make("path", 5)
    save_cache(str(cache), [(canonical_key(path5), path5.vertex_count)])
    before = cache.read_bytes()
    code, out, _ = invoke("solve", "--family", "cycle", "5", "--no-memo", "--cache", str(cache), "--json")
    assert code == 0
    (row,) = json_rows(out)
    assert (row["differential"], row["nodes"], row["memo_hits"]) == (-5, 16, 0)
    assert cache.read_bytes() == before
    code, out, _ = invoke(
        "table", "--family", "cycle", "--from", "4", "--to", "5", "--no-memo", "--cache", str(cache), "--json"
    )
    assert code == 0
    assert [(r["nodes"], r["memo_hits"]) for r in json_rows(out)] == [(9, 0), (16, 0)]
    assert cache.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--family", "complete", "9"),
        ("bestmove", "--family", "complete", "9"),
        ("table", "--family", "complete", "--from", "9", "--to", "9"),
    ],
    ids=["solve", "bestmove", "table"],
)
def test_budget_abort_keeps_proven_values(tmp_path, argv):
    # values proven before the abort are appended to the cache on every
    # command; K9 takes minutes, so the budget always runs out
    cache = str(tmp_path / "values.snc")
    code, _, err = invoke(*argv, "--time-budget", "0.5", "--cache", cache)
    assert code == 3
    assert "aborted" in err
    loaded = load_cache(cache)
    assert loaded.entries and not loaded.skipped
    assert f"appended {len(loaded.entries)} record(s)" in err
