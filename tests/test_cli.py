"""Command-line behavior, exercised in-process through run()."""

import io
import json
import os

import pytest

from strings_and_coins import claims
from strings_and_coins.claims import ClaimReport
from strings_and_coins.cli import CACHE_ENV, run
from strings_and_coins.families import make
from strings_and_coins.io_cache import load_cache, save_cache
from strings_and_coins.canonical import canonical_key


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
    save_cache(cache, [(key, -3)], append=True)
    code, out, _ = invoke("cache", "--compact", cache)
    assert code == 0
    assert "2 -> 1" in out
    assert load_cache(cache).entries == {key: -3}


def test_cache_compact_missing_file():
    code, _, err = invoke("cache", "--compact", "/nonexistent/values.snc")
    assert code == 2
    assert "error" in err


def test_no_arguments_usage():
    code, _, _ = invoke()
    assert code == 2


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
    assert (row["differential"], row["nodes"], row["memo_hits"]) == (-5, 21, 0)
    assert cache.read_bytes() == before
    code, out, _ = invoke(
        "table", "--family", "cycle", "--from", "4", "--to", "5", "--no-memo", "--cache", str(cache), "--json"
    )
    assert code == 0
    assert [(r["nodes"], r["memo_hits"]) for r in json_rows(out)] == [(13, 0), (21, 0)]
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
