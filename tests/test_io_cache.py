"""Edge-list files and the persistent value cache."""

import os
import re
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strings_and_coins
from strings_and_coins import io_cache
from strings_and_coins.canonical import canonical_key
from strings_and_coins.families import make
from strings_and_coins.graph import LoopyMultigraph
from strings_and_coins.io_cache import (
    CacheFormatError,
    EdgeListFormatError,
    compact_cache,
    load_cache,
    parse_edge_list,
    read_edge_list,
    save_cache,
)
from strings_and_coins.solver import SolveOptions, TranspositionTable, solve

import support


def test_parse_edge_list_basics():
    g = parse_edge_list("# triangle with a loop\n0 1\n1 2\n0 2\n\n2 2\n")
    assert g.vertex_count == 3
    assert g.edge_count == 4
    assert g.loop_multiplicity(2) == 1


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListFormatError) as exc:
        parse_edge_list("0 1\nnope\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(EdgeListFormatError) as exc:
        parse_edge_list("0 1 2\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("0 -3\n")


# tokens of integers, signs, comment marks, underscores, non-ASCII digits and NULs
_edge_token = st.integers(-2, 2**70).map(str) | st.text("0123456789+-#_\u0663\u096f\uff15\x00", max_size=6)
_edge_line = st.tuples(_edge_token, _edge_token).map(" ".join) | st.lists(_edge_token, max_size=4).map("\t".join)
_edge_text = st.lists(_edge_line, max_size=8).map("\n".join)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(text=st.text() | _edge_text)
def test_parse_edge_list_raises_only_its_own_error(text):
    try:
        g = parse_edge_list(text)
    except EdgeListFormatError:
        return
    assert isinstance(g, LoopyMultigraph)


def test_edge_list_round_trip(tmp_path):
    g = make("loopy_cycle", 5, 2)
    path = str(tmp_path / "pos.txt")
    support.write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == g
    assert canonical_key(back) == canonical_key(g)


def test_read_edge_list_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "pos.txt"
    path.write_bytes(b"0 1\n\xff 2\n")
    with pytest.raises(EdgeListFormatError, match=re.escape(str(path))):
        read_edge_list(str(path))


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "values.snc")
    entries = {
        canonical_key(make("cycle", 4)): -4,
        canonical_key(make("cycle", 5)): -5,
        canonical_key(make("path", 3)): 3,
    }
    assert save_cache(path, entries) == 3
    loaded = load_cache(path)
    assert loaded.skipped == 0
    assert loaded.entries == entries


def test_cache_append_and_compact(tmp_path):
    path = str(tmp_path / "values.snc")
    k1 = canonical_key(make("cycle", 3))
    k2 = canonical_key(make("cycle", 4))
    save_cache(path, {k1: -3})
    save_cache(path, {k1: -3, k2: -4})
    loaded = load_cache(path)
    assert loaded.entries == {k1: -3, k2: -4}
    before, after = compact_cache(path)
    assert (before, after) == (3, 2)
    assert load_cache(path).entries == {k1: -3, k2: -4}
    # compaction is idempotent
    assert compact_cache(path) == (2, 2)


@pytest.mark.parametrize("fragment", [1, 2, 3, 5])
def test_compact_counts_records_like_the_loader(tmp_path, fragment):
    # a tail of 1-3 bytes cannot hold a length field: the load skips it,
    # but it is no record; a longer one is a record with a truncated body
    path = str(tmp_path / "values.snc")
    k1 = canonical_key(make("cycle", 3))
    k2 = canonical_key(make("cycle", 4))
    save_cache(path, [(k1, -3), (k2, -4)])
    with open(path, "ab") as fh:
        fh.write(struct.pack("<I", len(k1))[:fragment] + k1[: max(0, fragment - 4)])
    loaded = load_cache(path)
    assert (loaded.skipped, loaded.records) == (1, 2 if fragment < 4 else 3)
    assert compact_cache(path) == (loaded.records, 2)
    assert load_cache(path).entries == {k1: -3, k2: -4}


_APPENDER = """
import os, struct, sys, time
from strings_and_coins.io_cache import save_cache
path, go, worker = sys.argv[1], sys.argv[2], int(sys.argv[3])
# plausible records with keys no other worker writes: n coins, one string 0-1
batch = [(struct.pack("<HHHH", n, 0, 1, 1), n % 2) for n in range(2 + 1000 * worker, 1002 + 1000 * worker)]
while not os.path.exists(go):
    time.sleep(0.001)
save_cache(path, batch)
"""


def test_concurrent_appends_keep_every_record(tmp_path):
    path = str(tmp_path / "values.snc")
    go = str(tmp_path / "go")
    save_cache(path, {})
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(strings_and_coins.__file__))}
    workers = [
        subprocess.Popen([sys.executable, "-c", _APPENDER, path, go, str(w)], env=env) for w in range(4)
    ]
    time.sleep(0.5)  # let every worker reach the start line
    open(go, "w").close()
    for p in workers:
        assert p.wait(timeout=60) == 0
    loaded = load_cache(path)
    assert loaded.skipped == 0
    assert len(loaded.entries) == 4000  # each batch is 14,000 bytes


_BATCH_APPENDER = """
import struct, sys
from strings_and_coins.io_cache import save_cache
path = sys.argv[1]
for i in range(300):
    # ten plausible records with keys of their own: n coins, one string 0-1
    batch = [(struct.pack("<HHHH", n, 0, 1, 1), n % 2) for n in range(2 + 10 * i, 12 + 10 * i)]
    save_cache(path, batch)
"""


def test_compact_beside_an_appender_keeps_every_record(tmp_path):
    path = str(tmp_path / "values.snc")
    save_cache(path, {})
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(strings_and_coins.__file__))}
    writer = subprocess.Popen([sys.executable, "-c", _BATCH_APPENDER, path], env=env)
    compactions = 0
    deadline = time.monotonic() + 120
    while writer.poll() is None and time.monotonic() < deadline:
        compact_cache(path)
        compactions += 1
    assert writer.wait(timeout=60) == 0
    loaded = load_cache(path)
    assert loaded.skipped == 0
    assert len(loaded.entries) == 3000, compactions


_FIRST_APPENDER = """
import struct, sys, time
from strings_and_coins.io_cache import save_cache
for path in sys.argv[1:]:
    save_cache(path, [(struct.pack("<HHHH", 2, 0, 1, 1), 0)])
    time.sleep(0.001)
"""


def test_load_racing_the_first_append_sees_its_record(tmp_path):
    # each load starts the moment its cache file exists, which may be
    # before the appender that created it has written the magic
    paths = [str(tmp_path / f"values{i}.snc") for i in range(200)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(strings_and_coins.__file__))}
    writer = subprocess.Popen([sys.executable, "-c", _FIRST_APPENDER, *paths], env=env)
    deadline = time.monotonic() + 60
    for path in paths:
        while not os.path.exists(path):
            assert time.monotonic() < deadline
        assert load_cache(path).entries == {struct.pack("<HHHH", 2, 0, 1, 1): 0}
    assert writer.wait(timeout=60) == 0


_KEYED_APPENDER = """
import os, struct, sys, time
from strings_and_coins.io_cache import save_cache
path, go, first, batches, size = sys.argv[1], sys.argv[2], *map(int, sys.argv[3:])
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(batches):
    # plausible records with keys of their own: n coins, one string 0-1
    keys = range(first + size * i, first + size * (i + 1))
    save_cache(path, [(struct.pack("<HHHH", n, 0, 1, 1), n % 2) for n in keys])
"""


def test_indexed_load_after_concurrent_appends_and_compactions(tmp_path):
    # four appenders of one large batch each and one of many small
    # batches, all re-indexing as they go, beside a compactor
    path = str(tmp_path / "values.snc")
    go = str(tmp_path / "go")
    save_cache(path, {})
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(strings_and_coins.__file__))}
    jobs = [(2 + 1000 * w, 1, 1000) for w in range(4)] + [(5000, 300, 10)]
    writers = [
        subprocess.Popen([sys.executable, "-c", _KEYED_APPENDER, path, go, *map(str, job)], env=env)
        for job in jobs
    ]
    time.sleep(0.5)  # let every writer reach the start line
    open(go, "w").close()
    compactions = 0
    deadline = time.monotonic() + 120
    while any(p.poll() is None for p in writers) and time.monotonic() < deadline:
        compact_cache(path)
        compactions += 1
    for p in writers:
        assert p.wait(timeout=60) == 0
    blob = (tmp_path / "values.snc").read_bytes()
    index = (tmp_path / "values.snc.idx").read_bytes()
    assert io_cache._index_head(index, blob) is not None, compactions
    loaded = load_cache(path)
    plain = tmp_path / "plain.snc"  # the same bytes with no index: a full screen
    plain.write_bytes(blob)
    full = load_cache(str(plain))
    assert loaded.entries == full.entries
    assert (loaded.skipped, loaded.records) == (full.skipped, full.records)
    assert loaded.skipped == 0
    assert len(loaded.entries) == 7000


def test_load_of_a_missing_cache_leaves_no_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_cache(str(tmp_path / "values.snc"))
    assert list(tmp_path.iterdir()) == []


def test_cache_corrupt_tail_is_skipped(tmp_path):
    path = str(tmp_path / "values.snc")
    k1 = canonical_key(make("cycle", 3))
    k2 = canonical_key(make("cycle", 4))
    save_cache(path, [(k1, -3), (k2, -4)])
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-3])  # cut into the final record
    loaded = load_cache(path)
    assert loaded.entries == {k1: -3}
    assert loaded.skipped == 1


@pytest.mark.parametrize("existing", [False, True])
def test_value_too_wide_for_a_record_is_refused(tmp_path, existing):
    # a key of 2 bytes admits up to 65,535 coins, a record's value only an i16;
    # the refusal writes nothing, whether the save would start the file or extend it
    path = tmp_path / "values.snc"
    k = canonical_key(make("cycle", 3))
    if existing:
        save_cache(str(path), {k: -3})
    before = sorted(tmp_path.iterdir()), path.read_bytes() if existing else None
    for value in (40000, -32769):
        with pytest.raises(ValueError, match=rf"{value}.*-32768\.\.32767"):
            save_cache(str(path), {k: -3, b"\x00\x00": value})
        assert (sorted(tmp_path.iterdir()), path.read_bytes() if existing else None) == before
    assert save_cache(str(path), {b"\x00\x00": 32767}) == 1


def test_empty_key_is_refused(tmp_path):
    # its length field, 0, would read as the end of the file
    path = tmp_path / "values.snc"
    k = canonical_key(make("cycle", 3))
    save_cache(str(path), {k: -3})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="empty"):
        save_cache(str(path), [(b"", 0), (canonical_key(make("cycle", 4)), -4)])
    assert path.read_bytes() == before
    assert load_cache(str(path)).entries == {k: -3}


def test_save_onto_a_file_that_is_not_a_cache_is_refused(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"hello world\n")
    with pytest.raises(CacheFormatError):
        save_cache(str(path), {canonical_key(make("cycle", 3)): -3})
    assert path.read_bytes() == b"hello world\n"


@pytest.mark.parametrize("access", ["save", "load", "compact"])
def test_a_file_that_is_not_a_cache_gets_no_lock_file(tmp_path, access):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"hello world\n")
    call = {
        "save": lambda p: save_cache(p, {canonical_key(make("cycle", 3)): -3}),
        "load": load_cache,
        "compact": compact_cache,
    }[access]
    with pytest.raises(CacheFormatError):
        call(str(path))
    assert os.listdir(tmp_path) == ["notes.txt"]
    assert path.read_bytes() == b"hello world\n"


def test_save_onto_a_cache_keeps_its_records_and_indexes_the_file(tmp_path):
    path = tmp_path / "values.snc"
    k3, k4, k5 = (canonical_key(make("cycle", n)) for n in (3, 4, 5))
    save_cache(str(path), {k3: -3, k4: -4})
    save_cache(str(path), {k4: -4, k5: -5})
    assert load_cache(str(path)).entries == {k3: -3, k4: -4, k5: -5}
    blob = path.read_bytes()
    head = io_cache._index_head((tmp_path / "values.snc.idx").read_bytes(), blob)
    assert head is not None and head[0] == len(blob)


_RESAVER = """
import os, struct, sys
from strings_and_coins.io_cache import save_cache
path, started, stop = sys.argv[1:]
# plausible records: n coins, one string 0-1
batch = [(struct.pack("<HHHH", n, 0, 1, 1), n % 2) for n in range(2, 2002)]
while not os.path.exists(stop):
    save_cache(path, batch)
    open(started, "a").close()
"""


def test_loads_beside_a_saver_of_one_batch_read_every_key(tmp_path):
    path = str(tmp_path / "values.snc")
    started, stop = str(tmp_path / "started"), str(tmp_path / "stop")
    batch = {struct.pack("<HHHH", n, 0, 1, 1): n % 2 for n in range(2, 2002)}
    save_cache(path, batch)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(strings_and_coins.__file__))}
    writer = subprocess.Popen([sys.executable, "-c", _RESAVER, path, started, stop], env=env)
    try:
        while not os.path.exists(started):
            assert writer.poll() is None
            time.sleep(0.001)
        for i in range(100):
            assert dict(load_cache(path).entries) == batch, i
    finally:
        open(stop, "w").close()
        writer.wait(timeout=60)
    assert writer.returncode == 0


def test_cache_bad_magic(tmp_path):
    path = str(tmp_path / "values.snc")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CacheFormatError):
        load_cache(path)


def test_cache_implausible_records_are_skipped(tmp_path):
    path = str(tmp_path / "values.snc")
    good = canonical_key(make("cycle", 3))
    bogus_value = struct.pack("<I", len(good)) + good + struct.pack("<h", 99)
    odd_parity = struct.pack("<I", len(good)) + good + struct.pack("<h", 2)
    with open(path, "wb") as fh:
        fh.write(b"SNC1")
        fh.write(struct.pack("<I", len(good)) + good + struct.pack("<h", -3))
        fh.write(bogus_value)
        fh.write(odd_parity)
    loaded = load_cache(path)
    assert loaded.entries == {good: -3}
    assert loaded.skipped == 2


def test_warm_start_consistency(tmp_path):
    path = str(tmp_path / "values.snc")
    g = make("wheel", 6)

    cold_table = TranspositionTable()
    cold = solve(g, SolveOptions(table=cold_table))
    save_cache(path, dict(cold_table.fresh_exact_items()))

    warm_table = TranspositionTable()
    warm_table.seed(load_cache(path).entries)
    warm = solve(g, SolveOptions(table=warm_table))

    assert (warm.differential, warm.p1_score, warm.p2_score, warm.winner) == (
        cold.differential,
        cold.p1_score,
        cold.p2_score,
        cold.winner,
    )
    assert warm.stats.nodes <= 1
    assert warm.stats.memo_hits >= 1
    # nothing new was proven, so nothing new would be persisted
    assert warm_table.fresh_exact_items() == []
