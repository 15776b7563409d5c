"""Differential test of the value-cache loader against the record-by-record
loader it replaced.

The reference functions below are kept verbatim from that loader:
``unpack_key`` (one ``struct.unpack_from`` per triple), the per-record
screen ``_plausible_record``, ``load_cache`` and the framing walk with
which ``compact_cache`` counted records.  The loader must keep and skip
exactly what they keep and skip, on real keys and on damaged files, and
so must a load through the ``PATH.idx`` index: on damage appended after
the indexed bytes, on a damaged index, and on an index left stale by
an overwrite, a truncation, a flipped byte or a new cache grown in the
old one's place.  Every append, whatever index and tail it finds, leaves
an index that covers the whole file, and a torn record before it hides
none of the records it appends.
"""

import os
import random
import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strings_and_coins.canonical import canonical_key
from strings_and_coins.families import make
from strings_and_coins.graph import LoopyMultigraph
from strings_and_coins import io_cache
from strings_and_coins.io_cache import CacheFormatError, compact_cache, load_cache, save_cache

import support

MAGIC = b"SNC1"


# -- reference: the previous loader, verbatim ----------------------------------


def ref_unpack_key(key: bytes) -> tuple[int, list[tuple[int, int, int]]]:
    """Inverse of the key layout: (vertex count, sorted edge triples)."""
    if len(key) < 2 or (len(key) - 2) % 6 != 0:
        raise ValueError("malformed canonical key")
    (n,) = struct.unpack_from("<H", key, 0)
    triples = []
    for off in range(2, len(key), 6):
        triples.append(struct.unpack_from("<HHH", key, off))
    return n, triples


@dataclass
class RefCacheLoad:
    """Entries read from a cache file plus a count of records dropped."""

    entries: dict[bytes, int]
    skipped: int


def _plausible_record(key: bytes, value: int) -> bool:
    """Sanity screen for one record: well-formed key, value within range
    and of the right parity (a differential and its vertex count always
    share parity)."""
    try:
        n, triples = ref_unpack_key(key)
    except ValueError:
        return False
    if abs(value) > n or (value - n) % 2 != 0:
        return False
    return all(a <= b < n for a, b, _ in triples) if n else not triples


def ref_load_cache(path: str) -> RefCacheLoad:
    """Read a value cache; tolerate and count a corrupt or truncated tail."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise CacheFormatError(f"{path}: not a value-cache file")
    entries: dict[bytes, int] = {}
    skipped = 0
    off = len(MAGIC)
    end = len(blob)
    while off < end:
        if off + 4 > end:
            skipped += 1
            break
        (klen,) = struct.unpack_from("<I", blob, off)
        off += 4
        if klen == 0 or off + klen + 2 > end:
            skipped += 1
            break
        key = blob[off : off + klen]
        off += klen
        (value,) = struct.unpack_from("<h", blob, off)
        off += 2
        if _plausible_record(key, value):
            entries[key] = value
        else:
            skipped += 1
    return RefCacheLoad(entries, skipped)


def ref_record_count(blob: bytes) -> int:
    """The record count ``compact_cache`` reported as "before"."""
    before = 0
    off = len(MAGIC)
    while off + 4 <= len(blob):
        (klen,) = struct.unpack_from("<I", blob, off)
        step = 4 + klen + 2
        if klen == 0 or off + step > len(blob):
            before += 1
            break
        before += 1
        off += step
    return before


# -- generated cache files -----------------------------------------------------


def _key_pool() -> list[bytes]:
    graphs = [LoopyMultigraph.empty(), make("path", 2), make("cycle", 3), make("cycle", 5)]
    graphs += [make("wheel", 4), make("loopy_cycle", 4, 2), make("friendship", 2)]
    rng = random.Random(2024)
    graphs += [support.random_graph(rng, max_edges=10, loop_chance=0.3) for _ in range(40)]
    return sorted({canonical_key(g) for g in graphs})


KEYS = _key_pool()


def _record(klen: int, body: bytes, value: int) -> bytes:
    return struct.pack("<I", klen) + body + struct.pack("<h", value)


def real_record(rng: random.Random) -> bytes:
    key = rng.choice(KEYS)
    (n,) = struct.unpack_from("<H", key)
    return _record(len(key), key, rng.randint(-n - 3, n + 3))


def empty_graph_key_with_triples(rng: random.Random) -> bytes:
    triples = [[rng.randint(0, 3) for _ in range(3)] for _ in range(rng.randint(1, 3))]
    key = b"\x00\x00" + b"".join(struct.pack("<HHH", *t) for t in triples)
    return _record(len(key), key, rng.choice([0, 0, 1, -2]))


def odd_length(rng: random.Random) -> bytes:
    # a length field of 0, 2, odd, huge or random size over a body of any size
    klen = rng.choice([0, 1, 2, 3, 7, 8, 14, 15, 0xFFFFFFFF, 1 << 31, rng.randint(0, 80)])
    body = rng.randbytes(rng.randint(0, 40))
    return _record(klen, body, rng.randint(-(1 << 15), (1 << 15) - 1))


def random_key(rng: random.Random) -> bytes:
    # the canonical layout filled with arbitrary fields, small or full-width
    top = rng.choice([9, 0xFFFF])
    fields = [rng.randint(0, top) for _ in range(1 + 3 * rng.randint(0, 4))]
    key = struct.pack(f"<{len(fields)}H", *fields)
    return _record(len(key), key, rng.randint(-12, 12))


RECORD_KINDS = [real_record, real_record, empty_graph_key_with_triples, odd_length, random_key]


@st.composite
def cache_files(draw):
    # Hypothesis picks the shape of the damage; a seeded generator fills
    # the fields, which keeps each case to a handful of draws.
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    recs = [rng.choice(RECORD_KINDS)(rng) for _ in range(draw(st.integers(0, 8)))]
    blob = bytearray(MAGIC + b"".join(recs))
    flips = draw(st.sampled_from(["none", "anywhere", "last record"]))
    if flips == "anywhere":
        for _ in range(rng.randint(1, 2)):
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
    elif flips == "last record" and recs:
        # inside its length, key or value field
        blob[len(blob) - rng.randint(1, len(recs[-1]))] ^= 1 << rng.randrange(8)
    cut = draw(st.sampled_from(["none", "anywhere", "last record", "magic"]))
    if cut == "anywhere":
        del blob[rng.randint(0, len(blob)) :]
    elif cut == "last record" and recs:
        del blob[len(blob) - rng.randint(1, len(recs[-1])) :]
    elif cut == "magic":
        del blob[rng.randint(0, len(MAGIC)) :]
    return bytes(blob)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("loader") / "values.snc")


@settings(
    max_examples=1200,
    deadline=None,
    database=None,
    derandomize=True,
)
@given(blob=cache_files())
def test_loader_matches_reference(cache_path, blob):
    with open(cache_path, "wb") as fh:
        fh.write(blob)
    try:
        ref = ref_load_cache(cache_path)
    except CacheFormatError:
        with pytest.raises(CacheFormatError):
            load_cache(cache_path)
        return
    got = load_cache(cache_path)
    assert got.entries == ref.entries
    assert got.skipped == ref.skipped
    assert got.records == ref_record_count(blob)
    for key in got.entries:
        assert support.unpack_key(key) == ref_unpack_key(key)


def test_unpack_key_matches_reference_on_malformed_keys():
    for key in [b"", b"\x01", b"\x01\x00\x00", b"\x02\x00" + b"\x00" * 5, b"\x02\x00" + b"\x00" * 7]:
        with pytest.raises(ValueError):
            ref_unpack_key(key)
        with pytest.raises(ValueError):
            support.unpack_key(key)
    for key in KEYS:
        assert support.unpack_key(key) == ref_unpack_key(key)


# -- the indexed load ------------------------------------------------------------


def _batch(rng: random.Random) -> list[tuple[bytes, int]]:
    # real keys with values in and out of the screen's range, repeats included
    batch = []
    for _ in range(rng.randint(1, 6)):
        key = rng.choice(KEYS)
        (n,) = struct.unpack_from("<H", key)
        batch.append((key, rng.randint(-n - 3, n + 3)))
    return batch


def _index_covers(path: str) -> int | None:
    """The cache bytes that ``PATH.idx`` covers, if it matches the cache."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        with open(path + ".idx", "rb") as fh:
            head = io_cache._index_head(fh.read(), blob)
    except FileNotFoundError:
        return None
    return None if head is None else head[0]


def assert_loads_like_reference(path: str) -> None:
    """The load equals the reference's full screen of the bytes, and no
    pool key reads a value that the bytes do not hold."""
    with open(path, "rb") as fh:
        blob = fh.read()
    ref = ref_load_cache(path)
    got = load_cache(path)
    assert got.entries == ref.entries
    assert len(got.entries) == len(ref.entries)
    assert (got.skipped, got.records) == (ref.skipped, ref_record_count(blob))
    for key in KEYS:
        assert got.entries.get(key) == ref.entries.get(key)
        assert (key in got.entries) == (key in ref.entries)


@pytest.fixture(scope="module")
def indexed_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("indexed") / "values.snc")


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    damaged=cache_files(),
    compact=st.booleans(),
    appends_after=st.integers(0, 3),
)
def test_indexed_loader_matches_reference(indexed_path, seed, damaged, compact, appends_after):
    # an indexed prefix, a damaged body appended past it, then appends
    # that may re-index a file whose screen stops inside that body
    rng = random.Random(seed)
    save_cache(indexed_path, _batch(rng))
    for _ in range(rng.randint(1, 4)):
        save_cache(indexed_path, _batch(rng))
    if compact:
        compact_cache(indexed_path)
    assert _index_covers(indexed_path) is not None
    with open(indexed_path, "ab") as fh:
        fh.write(damaged[len(MAGIC) :])
    assert_loads_like_reference(indexed_path)
    for _ in range(appends_after):
        save_cache(indexed_path, _batch(rng))
        assert_loads_like_reference(indexed_path)
    assert _index_covers(indexed_path) is not None


def _indexed_cache(path: str) -> bytes:
    """A compacted, indexed cache with unindexed records after it; its bytes."""
    rng = random.Random(7)
    save_cache(path, [(k, 0 if k[0] % 2 == 0 else 1) for k in KEYS[: len(KEYS) // 2]])
    compact_cache(path)
    save_cache(path, [(k, 0 if k[0] % 2 == 0 else 1) for k in KEYS[len(KEYS) // 2 :]])
    with open(path, "ab") as fh:  # records no append has indexed
        fh.write(b"".join(_record(len(k), k, v) for k, v in _batch(rng)))
    assert _index_covers(path) is not None
    assert _index_covers(path) < os.path.getsize(path)
    with open(path, "rb") as fh:
        return fh.read()


def test_overwritten_cache_is_not_read_through_its_old_index(tmp_path):
    path = str(tmp_path / "values.snc")
    _indexed_cache(path)
    # new bytes written over the cache, its old index left beside them
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"".join(_record(len(k), k, v) for k, v in _batch(random.Random(8))))
    assert _index_covers(path) is None
    assert_loads_like_reference(path)


def test_truncated_cache_is_not_read_through_its_old_index(tmp_path):
    path = str(tmp_path / "values.snc")
    _indexed_cache(path)
    covered = _index_covers(path)
    for size in (covered - 1, covered - 7, covered // 2, len(MAGIC)):
        with open(path, "r+b") as fh:
            fh.truncate(size)
        assert _index_covers(path) is None
        assert_loads_like_reference(path)


def test_flipped_covered_byte_is_not_read_through_the_index(tmp_path):
    path = str(tmp_path / "values.snc")
    blob = _indexed_cache(path)
    covered = _index_covers(path)
    for pos in range(covered):
        damaged = bytearray(blob)
        damaged[pos] ^= 1 << pos % 8
        with open(path, "wb") as fh:
            fh.write(damaged)
        if pos < len(MAGIC):
            with pytest.raises(CacheFormatError):
                load_cache(path)
            continue
        assert _index_covers(path) is None
        assert_loads_like_reference(path)


def test_damaged_index_is_not_used(tmp_path):
    path = str(tmp_path / "values.snc")
    _indexed_cache(path)
    with open(path + ".idx", "rb") as fh:
        index = fh.read()
    damages = [index[:size] for size in (0, 40, len(index) - 8, len(index) - 1)]
    for pos in range(len(index)):
        flipped = bytearray(index)
        flipped[pos] ^= 1 << pos % 8
        damages.append(bytes(flipped))
    for damaged in damages:
        with open(path + ".idx", "wb") as fh:
            fh.write(damaged)
        assert _index_covers(path) is None
        assert_loads_like_reference(path)


@pytest.mark.parametrize("same_bytes", [False, True])
def test_new_cache_beside_an_old_index(tmp_path, same_bytes):
    # the old cache is deleted and a new one grown in its place, as
    # between two passes over one cache path; its lock and index stay
    path = str(tmp_path / "values.snc")
    blob = _indexed_cache(path)
    os.remove(path)
    if same_bytes:
        for end in [*range(len(MAGIC), len(blob), 5), len(blob)]:
            with open(path, "wb") as fh:
                fh.write(blob[:end])
            assert_loads_like_reference(path)
        assert _index_covers(path) is not None  # the same bytes: the old index holds
        return
    rng = random.Random(9)
    save_cache(path, _batch(rng))
    for _ in range(12):
        with open(path, "ab") as fh:  # appends that leave the index alone
            fh.write(b"".join(real_record(rng) for _ in range(3)))
        assert_loads_like_reference(path)
        save_cache(path, _batch(rng))
        assert_loads_like_reference(path)
    assert os.path.getsize(path) > len(blob)


def _append_and_check(path: str, rng: random.Random) -> None:
    """Append a batch; the index then covers the whole file and the load
    equals the reference's full screen."""
    save_cache(path, _batch(rng))
    assert _index_covers(path) == os.path.getsize(path)
    assert_loads_like_reference(path)


def _no_index(path: str) -> None:
    os.remove(path + ".idx")


def _damaged_index(path: str) -> None:
    with open(path + ".idx", "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)[0]
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last ^ 1]))


def _raw_records(path: str) -> None:
    with open(path, "ab") as fh:
        fh.write(b"".join(real_record(random.Random(13)) for _ in range(4)))


def _torn_tail(path: str) -> None:
    with open(path, "ab") as fh:  # a length field of 8 over three key bytes
        fh.write(struct.pack("<I", 8) + KEYS[-1][:3])


@pytest.mark.parametrize("damage", [_no_index, _damaged_index, _raw_records, _torn_tail])
def test_every_append_leaves_the_index_covering_the_file(tmp_path, damage):
    path = str(tmp_path / "values.snc")
    _indexed_cache(path)
    rng = random.Random(12)
    _append_and_check(path, rng)
    damage(path)
    assert _index_covers(path) != os.path.getsize(path)
    assert_loads_like_reference(path)
    for _ in range(3):
        _append_and_check(path, rng)


def test_append_reindexes_a_stale_index_flipped_anywhere(tmp_path):
    path = str(tmp_path / "values.snc")
    _indexed_cache(path)
    compact_cache(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path + ".idx", "rb") as fh:
        index = fh.read()
    rng = random.Random(14)
    for pos in range(len(MAGIC), len(blob)):
        damaged = bytearray(blob)
        damaged[pos] ^= 1 << pos % 8
        with open(path, "wb") as fh:
            fh.write(damaged)
        with open(path + ".idx", "wb") as fh:
            fh.write(index)
        assert _index_covers(path) is None
        _append_and_check(path, rng)


def test_append_after_a_torn_record_keeps_every_later_record(tmp_path):
    # 198 records, a torn record (length field 8, three key bytes), then six
    # appends of 50 new keys; keys of the canonical layout: n coins, one string 0-1
    path = str(tmp_path / "values.snc")
    keys = [struct.pack("<4H", n, 0, 1, 1) for n in range(2, 500)]
    save_cache(path, [(k, k[0] % 2) for k in keys[:198]])
    with open(path, "ab") as fh:
        fh.write(struct.pack("<I", 8) + keys[198][:3])
    torn = load_cache(path)
    assert (len(torn.entries), torn.skipped, torn.records) == (198, 1, 199)
    for i in range(6):
        save_cache(path, [(k, k[0] % 2) for k in keys[198 + 50 * i : 248 + 50 * i]])
    loaded = load_cache(path)
    assert (len(loaded.entries), loaded.skipped, loaded.records) == (498, 0, 498)
    assert dict(loaded.entries) == {k: k[0] % 2 for k in keys}
    assert compact_cache(path) == (498, 498)
    assert dict(load_cache(path).entries) == {k: k[0] % 2 for k in keys}


def test_indexed_load_and_append_screen_only_new_records(tmp_path, monkeypatch):
    path = str(tmp_path / "values.snc")
    _indexed_cache(path)
    save_cache(path, _batch(random.Random(15)))
    scans = []
    scan = io_cache._scan
    monkeypatch.setattr(io_cache, "_scan", lambda blob, off: scans.append((len(blob), off)) or scan(blob, off))
    load_cache(path)
    assert scans == []  # the index covers the whole file: no record is screened
    size = os.path.getsize(path)
    save_cache(path, _batch(random.Random(16)))
    assert scans == [(os.path.getsize(path), size)]  # only the appended batch
    monkeypatch.undo()
    assert_loads_like_reference(path)
