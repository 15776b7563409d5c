"""Plain-text positions and a persistent store of solved values.

Edge lists are whitespace-separated vertex pairs, one edge instance per
line, with ``#`` comments.  The value cache is a little-endian binary
file: magic ``SNC1`` then records of (u32 key length, canonical key
bytes, i16 differential).

Loading screens every record in one pass: the key must have the
canonical layout (a u16 vertex count n, then u16 (a, b, multiplicity)
triples with a <= b < n, none when n == 0) and the value must satisfy
|value| <= n with the parity of n, as every differential does.  A record
that fails is skipped and counted; a length field that runs past the end
of the file, or a tail too short to hold one, ends the load with one
more skip, so a crash mid-write never poisons earlier results.

``PATH.idx`` is derived from the cache so that a load need not screen
it; ``SNC1`` bytes and their meaning do not depend on it, it is safe to
delete, and ``snc cache --compact`` rebuilds it.  It records how many
leading cache bytes it covers and their ``zlib.crc32``, what the screen
counted in them, and the offset of each kept key's last record, sorted
by key bytes.  One rule keeps it: every append leaves it covering the
whole file.  A load reads through it only when it covers the whole file
and that CRC matches the cache's bytes (and the index's own CRC matches
the index); a lookup then binary-searches the offsets and no record is
screened.  Otherwise the load screens the whole file.  Either way it
keeps, skips and counts exactly what a screen of the whole file does.
An append reads the cache and its index as a load does, so it screens
nothing after an earlier append, and the whole file when the index is
missing, stale or short of the file's end.  When that screen stops at a
bad length field, or at a tail too short to hold one, the append cuts
the file there before it writes: no load reads past such a field, so
nothing readable is lost, and the appended records stay readable.  It
then adds their offsets to the index's and writes the index.  A
compaction writes the index for the file it produces.

Every access locks ``PATH.lock``, an empty file beside the cache that
nothing writes or renames, before it opens the cache: a load takes a
shared ``flock``, an append or a compaction an exclusive one.  A file
whose first bytes are not a prefix of ``SNC1`` is refused before that,
so it gets no ``PATH.lock``.  Every save is an append, and nothing else
writes the cache but a compaction.  An append encodes its whole batch
first and writes it with a single ``write``; a compaction holds its lock
from its read to its rename.  Both write the index in place under that
lock: every load holds the shared lock, and the index's own CRC rejects
a write that was cut short.
Concurrent ``snc`` runs, compactions included, may therefore share one
cache file: no record is split by another writer's, no load sees half an
append or a file created but not yet written, and no append is lost to
a compaction.  A cache whose directory neither holds ``PATH.lock`` nor
lets it be created cannot be read: the lock raises ``OSError`` naming
the cache.
"""

from __future__ import annotations

import operator
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial

try:
    import fcntl
except ImportError:  # no advisory locks on this platform: appends go unlocked
    fcntl = None

from .canonical import key_fields
from .graph import LoopyMultigraph

MAGIC = b"SNC1"

_U32 = struct.Struct("<I")
_I16 = struct.Struct("<h")

# PATH.idx: this header, then a u64 record offset per key, then a crc32
# of both; the header is the index's magic, the cache bytes it covers,
# their crc32, and the records, skipped records and keys among them
_INDEX = struct.Struct("<4sQIQQQ")
_INDEX_MAGIC = b"SNX2"
_INDEX_SUFFIX = ".idx"
_UNSEEN = object()


class EdgeListFormatError(ValueError):
    """Unparseable edge-list text."""


class CacheFormatError(ValueError):
    """Cache file whose header is not recognizably this format."""


def parse_edge_list(text: str) -> LoopyMultigraph:
    """Read one edge instance per line: two vertex ids, ``#`` comments."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"line {lineno}: vertex ids must be integers, got {raw!r}")
        if a < 0 or b < 0:
            raise EdgeListFormatError(f"line {lineno}: vertex ids must be non-negative")
        edges.append((a, b))
    return LoopyMultigraph.from_edges(edges)


def read_edge_list(path: str) -> LoopyMultigraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise EdgeListFormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    return parse_edge_list(text)


@dataclass
class CacheLoad:
    """Entries of a cache file, as a read-only mapping that reads values
    from the file's bytes on demand, a count of records dropped, and the
    number of records whose length field was read whole."""

    entries: Mapping[bytes, int]
    skipped: int
    records: int = 0


class _Records(Mapping):
    """Key -> value of the records a cache keeps, read from its bytes on
    demand by binary search over the offsets of the kept keys' records,
    sorted by key bytes.  Every answer is memoised on its first use."""

    def __init__(self, blob: bytes, offsets: array):
        self._blob = blob
        self._offsets = offsets
        self._key = partial(_key_at, blob)
        self._memo: dict[bytes, int | None] = {}

    def get(self, key, default=None):
        value = self._memo.get(key, _UNSEEN)
        if value is _UNSEEN:
            offsets = self._offsets
            i = bisect_left(offsets, key, key=self._key)
            found = i < len(offsets) and self._key(offsets[i]) == key
            value = _I16.unpack_from(self._blob, offsets[i] + 4 + len(key))[0] if found else None
            self._memo[key] = value
        return default if value is None else value

    def __getitem__(self, key):
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator[bytes]:
        return map(self._key, self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)


def _key_at(blob: bytes, off: int) -> bytes:
    """The key of the record at ``off``."""
    start = off + 4
    return blob[start : start + _U32.unpack_from(blob, off)[0]]


@contextmanager
def _locked(path: str, exclusive: bool):
    """Hold a shared or exclusive ``flock`` on ``PATH.lock``, created empty
    if missing.  A compaction renames a new cache over ``path``, never over
    the lock file, so every locker waits on the same inode."""
    if fcntl is None:
        yield
        return
    try:
        fd = os.open(path + ".lock", os.O_RDONLY | os.O_CREAT, 0o666)
    except OSError as exc:  # name the cache, not its lock file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        os.close(fd)


def _check_head(path: str) -> None:
    """Raise ``CacheFormatError`` when the first bytes of ``path`` are not
    a prefix of ``MAGIC``, and ``FileNotFoundError`` when it is missing.
    Read without the lock, so a file that is not a value cache gets no
    ``PATH.lock``: a cache's head only ever goes from empty to ``MAGIC``,
    since the first append writes it and a compaction renames a whole
    file, so no writer can make such a file a cache."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head != MAGIC[: len(head)]:
        raise CacheFormatError(f"{path}: not a value-cache file")


def load_cache(path: str) -> CacheLoad:
    """Read a value cache under a shared lock; tolerate and count a corrupt
    or truncated tail.  A missing cache raises ``FileNotFoundError``, and a
    file that does not start like one ``CacheFormatError``, before the
    lock file is created; otherwise raises ``OSError`` when ``PATH.lock``
    neither exists nor can be created."""
    _check_head(path)
    with _locked(path, exclusive=False):
        with open(path, "rb") as fh:
            blob = fh.read()
        index = _read_index(path)
    offsets, skipped, records, stop, _ = _screen(blob, index, path)
    # a bad length field, or a fragment too short for one, ends the file
    return CacheLoad(_Records(blob, offsets), skipped + (stop < len(blob)), records + (stop + 4 <= len(blob)))


def _screen(blob: bytes, index: bytes | None, path: str) -> tuple[array, int, int, int, int | None]:
    """Screen a cache's bytes: the offsets of the last records of the kept
    keys, sorted by key bytes, then skipped, records and stop as ``_scan``
    counts them, and the crc32 of ``blob``.  All are read from ``index``
    when it covers the whole of ``blob``; otherwise a screen of the whole
    finds the rest, and the crc32, left uncomputed, is None."""
    if blob[: len(MAGIC)] != MAGIC:
        raise CacheFormatError(f"{path}: not a value-cache file")
    head = _index_head(index, blob)
    if head is not None and head[0] == len(blob):
        offsets = array("Q")
        offsets.frombytes(memoryview(index)[_INDEX.size : -4])
        if sys.byteorder == "big":
            offsets.byteswap()
        return offsets, head[1], head[2], len(blob), head[3]
    found, skipped, records, stop = _scan(blob, len(MAGIC))
    return array("Q", [found[k] for k in sorted(found)]), skipped, records, stop, None


def _scan(blob: bytes, off: int) -> tuple[dict[bytes, int], int, int, int]:
    """Screen the records from ``off``: (offset of the last record of each
    kept key, skipped, records, stop).  ``stop`` is ``len(blob)``, or the
    offset of a length field that is zero or runs past the end of the
    file, or of a fragment too short to hold one; that field ends the
    screen and is not counted."""
    found: dict[bytes, int] = {}
    records = skipped = 0
    end = len(blob)
    u32, i16, le = _U32.unpack_from, _I16.unpack_from, operator.le
    while off + 4 <= end:
        (klen,) = u32(blob, off)
        start = off + 4
        stop = start + klen
        if klen == 0 or stop + 2 > end:
            break
        records += 1
        (value,) = i16(blob, stop)
        # the screen of the module docstring; a key of 2 bytes has no triples
        if klen % 6 == 2:
            f = key_fields(klen).unpack_from(blob, start)
            n = f[0]
            if (
                -n <= value <= n
                and (value - n) % 2 == 0
                and (klen == 2 or (max(b := f[2::3]) < n and all(map(le, f[1::3], b))))
            ):
                found[blob[start:stop]] = off
            else:
                skipped += 1
        else:
            skipped += 1
        off = stop + 2
    return found, skipped, records, off


def _read_index(path: str) -> bytes | None:
    try:
        with open(path + _INDEX_SUFFIX, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _index_head(index: bytes | None, blob: bytes) -> tuple[int, int, int, int] | None:
    """(covered, skipped, records, crc32 of the covered bytes) from an
    index that is whole and describes the first ``covered`` bytes of
    ``blob``, else None."""
    if index is None or len(index) < _INDEX.size + 4:
        return None
    magic, covered, crc, records, skipped, keys = _INDEX.unpack_from(index)
    whole = memoryview(index)[:-4]
    if (
        magic != _INDEX_MAGIC
        or len(index) != _INDEX.size + 8 * keys + 4
        or _U32.unpack_from(index, len(whole))[0] != zlib.crc32(whole)
        or not len(MAGIC) <= covered <= len(blob)
        or zlib.crc32(memoryview(blob)[:covered]) != crc
    ):
        return None
    return covered, skipped, records, crc


def _write_index(path: str, covered: int, crc: int, skipped: int, records: int, offsets: array) -> None:
    """Write ``PATH.idx`` in place for the first ``covered`` cache bytes,
    whose crc32 is ``crc`` and whose kept keys' records start at
    ``offsets`` in key order.  An index that cannot be written is left out
    or cut short, and loads then screen the whole file."""
    head = _INDEX.pack(_INDEX_MAGIC, covered, crc, records, skipped, len(offsets))
    if sys.byteorder == "big":
        offsets.byteswap()
    body = head + offsets.tobytes()
    with suppress(OSError), open(path + _INDEX_SUFFIX, "wb") as fh:
        fh.write(body + _U32.pack(zlib.crc32(body)))


def _encode(items) -> tuple[bytearray, list[int]]:
    """The records of ``items`` as one buffer, and where each starts in it."""
    buf = bytearray()
    starts = []
    for key, value in items:
        if not key:  # its length field, 0, would end the file for every load
            raise ValueError("a record's key must not be empty")
        if not -0x8000 <= value <= 0x7FFF:
            raise ValueError(f"value {value} does not fit a record's i16 field (-32768..32767)")
        starts.append(len(buf))
        buf += _U32.pack(len(key))
        buf += key
        buf += _I16.pack(value)
    return buf, starts


def save_cache(path: str, entries: dict[bytes, int] | list[tuple[bytes, int]]) -> int:
    """Append records to a cache, created if missing.  Returns the number
    of records written.  Raises ``ValueError``, before writing anything,
    for an empty key or a value outside a record's i16 field, and
    ``CacheFormatError``, writing nothing and before the lock file is
    created, for a non-empty file that is not a value cache.

    The save locks ``PATH.lock`` exclusively before it opens the cache and
    closes the cache before it unlocks, so concurrent savers never split
    each other's records and a load never sees the file empty.  Under the
    same lock it writes the magic to a new or empty file, reads the cache
    and ``PATH.idx`` as a load does, cuts the file at a bad length field
    or short fragment that ends its screen, writes the records as one
    buffer in one ``write``, and leaves ``PATH.idx`` covering the whole
    file.
    """
    buf, starts = _encode(entries.items() if isinstance(entries, dict) else entries)
    with suppress(FileNotFoundError):
        _check_head(path)
    with _locked(path, exclusive=True), open(path, "a+b") as fh:
        fh.seek(0)
        blob = fh.read()
        if not blob:  # under the lock, an empty file is new: it gets the magic first
            fh.write(MAGIC)
            blob = MAGIC
        offsets, skipped, records, stop, crc = _screen(blob, _read_index(path), path)
        if crc is None:
            crc = zlib.crc32(memoryview(blob)[:stop])
        if stop < len(blob):  # no load reads past this field
            fh.truncate(stop)
        fh.write(buf)
        blob = blob[:stop] + buf
        # every key is non-empty, so the screen of the batch reaches its end
        found, new_skipped, new_records, _ = _scan(blob, stop)
        offsets = _merge(offsets, found, blob)
        _write_index(path, len(blob), zlib.crc32(buf, crc), skipped + new_skipped, records + new_records, offsets)
    return len(starts)


def _merge(offsets: array, found: dict[bytes, int], blob: bytes) -> array:
    """``offsets``, record offsets into ``blob`` sorted by key, with the
    later records ``found`` put in: a key already there takes its new
    offset.  New keys go in between slices, so a large batch copies the
    offsets once rather than once per key."""
    key = partial(_key_at, blob)
    added = []
    for k, off in found.items():
        i = bisect_left(offsets, k, key=key)
        if i < len(offsets) and key(offsets[i]) == k:
            offsets[i] = off
        else:
            added.append((i, k, off))
    merged, done = array("Q"), 0
    for i, _, off in sorted(added):
        merged += offsets[done:i]
        merged.append(off)
        done = i
    merged += offsets[done:]
    return merged


def compact_cache(path: str) -> tuple[int, int]:
    """Rewrite a cache dropping duplicate keys and corrupt records, and
    index the result.

    Returns (records before, records after): a 1-3 byte fragment too
    short to hold a length field is not a record.  The rewrite goes
    through a temp file and an atomic rename, all under an exclusive
    lock on ``PATH.lock``, so no append lands on the old file unseen.  A
    missing cache raises ``FileNotFoundError``, and a file that does not
    start like one ``CacheFormatError``, before the lock file is created.
    """
    _check_head(path)
    with _locked(path, exclusive=True), open(path, "rb") as fh:
        old = fh.read()
        offsets, _, records, stop, _ = _screen(old, _read_index(path), path)
        keys = [_key_at(old, off) for off in offsets]
        buf, starts = _encode((k, _I16.unpack_from(old, off + 4 + len(k))[0]) for k, off in zip(keys, offsets))
        blob = MAGIC + buf
        tmp = path + ".tmp"
        with open(tmp, "wb") as out:
            out.write(blob)
        os.replace(tmp, path)
        # every record is kept and its key is unique, so each is indexed
        offsets = array("Q", [len(MAGIC) + start for start in starts])
        _write_index(path, len(blob), zlib.crc32(blob), 0, len(starts), offsets)
    return records + (stop + 4 <= len(old)), len(starts)
