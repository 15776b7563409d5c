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
all of it; ``SNC1`` bytes and their meaning do not depend on it, it is
safe to delete, and ``snc cache --compact`` rebuilds it.  It records how
many leading cache bytes it covers and their ``zlib.crc32``, what the
screen counted in them, the ``zlib.crc32`` of the last 4 KiB or fewer of
the covered bytes, and the offset of each kept key's last record, sorted
by key bytes.  A load trusts it only when that CRC matches the
cache's bytes (and the index's own CRC matches the index); it then
screens only the records after the covered bytes, and a lookup tries
those first, then binary-searches the offsets.  Without a matching
index it screens the whole file.  Either way it keeps, skips and counts
exactly what a screen of the whole file does.  An append decides from
the index's header, the file's size and one read of the last covered
4 KiB whether to rewrite the index: when the index is missing, covers
more bytes than the file held, no longer matches those 4 KiB, or the
records after it outgrow a quarter of what it covers.  Only then does it
read the whole file, and it rewrites the index unless the index matches
and stops at a bad length field.  A compaction writes the index
for the file it produces; a save that is not an append removes it.

Every access locks ``PATH.lock``, an empty file beside the cache that
nothing writes or renames, before it opens the cache: a load takes a
shared ``flock``, an append or a compaction an exclusive one.  An append
encodes its whole batch first and writes it with a single ``write``; a
compaction holds its lock from its read to its rename.  Both write the
index through a temp file and a rename under that lock.  Concurrent
``snc`` runs, compactions included, may therefore share one cache file:
no record is split by another writer's, no load sees half an append or
a file created but not yet written, and no append is lost to a
compaction.  A cache whose directory neither holds ``PATH.lock`` nor
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
# their crc32, the records, skipped records and keys among them, whether
# a bad length field ends them, and the crc32 of the last _WINDOW of them
_INDEX = struct.Struct("<4sQIQQQ?I")
_INDEX_MAGIC = b"SNCX"
_INDEX_SUFFIX = ".idx"
_REINDEX_SHARE = 4  # an append re-indexes past covered / 4 unindexed bytes
_WINDOW = 4096  # covered bytes that an append checks against the index
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
    demand.  The records after the index answer first (``tail`` maps
    their keys to record offsets); any other key is found by binary
    search over the index's record offsets, sorted by key bytes.  Every
    answer is memoised, and so is the length, on its first use: counting
    the tail keys that the index lacks takes a search per tail key, which
    no lookup needs."""

    def __init__(self, blob: bytes, offsets: array, tail: dict[bytes, int]):
        self._blob = blob
        self._offsets = offsets
        self._tail = tail
        self._memo: dict[bytes, int | None] = {}
        self._len: int | None = None if offsets else len(tail)

    def _key_at(self, off: int) -> bytes:
        start = off + 4
        return self._blob[start : start + _U32.unpack_from(self._blob, off)[0]]

    def _indexed(self, key: bytes) -> int | None:
        offsets = self._offsets
        i = bisect_left(offsets, key, key=self._key_at)
        return offsets[i] if i < len(offsets) and self._key_at(offsets[i]) == key else None

    def get(self, key, default=None):
        value = self._memo.get(key, _UNSEEN)
        if value is _UNSEEN:
            off = self._tail.get(key)
            if off is None:
                off = self._indexed(key)
            value = None if off is None else _I16.unpack_from(self._blob, off + 4 + len(key))[0]
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
        for off in self._offsets:
            key = self._key_at(off)
            if key not in self._tail:
                yield key
        yield from self._tail

    def __len__(self) -> int:
        if self._len is None:
            self._len = len(self._offsets) + sum(self._indexed(k) is None for k in self._tail)
        return self._len


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


def load_cache(path: str) -> CacheLoad:
    """Read a value cache under a shared lock; tolerate and count a corrupt
    or truncated tail.  A missing cache raises ``FileNotFoundError`` before
    the lock file is created; otherwise raises ``OSError`` when
    ``PATH.lock`` neither exists nor can be created."""
    os.stat(path)
    with _locked(path, exclusive=False):
        with open(path, "rb") as fh:
            blob = fh.read()
        index = _read_index(path)
    return _load(blob, index, path)


def _load(blob: bytes, index: bytes | None, path: str) -> CacheLoad:
    """Screen ``blob`` from where ``index`` stops covering it, or from the
    start when the index is missing or does not match it."""
    offsets = array("Q")
    head = _index_head(index, blob)
    if head is None:
        covered, skipped, records = len(MAGIC), 0, 0
    else:
        covered, skipped, records, _ = head
        offsets.frombytes(memoryview(index)[_INDEX.size : -4])
        if sys.byteorder == "big":
            offsets.byteswap()
    tail, tail_skipped, tail_records = _screen(blob, path, covered)
    return CacheLoad(_Records(blob, offsets, tail), skipped + tail_skipped, records + tail_records)


def _screen(blob: bytes, path: str, start: int = len(MAGIC)) -> tuple[dict[bytes, int], int, int]:
    """Screen a cache's records from ``start``: (offset of the last record
    of each kept key, skipped, records), a bad length field or a fragment
    too short for one that ends the file counted as in the module
    docstring."""
    if blob[: len(MAGIC)] != MAGIC:
        raise CacheFormatError(f"{path}: not a value-cache file")
    found, skipped, records, stop = _scan(blob, start)
    if stop < len(blob):
        skipped += 1
        records += stop + 4 <= len(blob)
    return found, skipped, records


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


def _indexed_extent(path: str) -> tuple[int, int] | None:
    """The cache bytes that ``PATH.idx`` claims to cover and the CRC of
    their last ``_WINDOW``, read from its header alone, or None when it is
    missing or not the size its header implies.  Nothing here checks the
    index's own CRC: ``_index_head`` does."""
    try:
        with open(path + _INDEX_SUFFIX, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_INDEX.size)
    except OSError:
        return None
    if len(head) < _INDEX.size:
        return None
    magic, covered, _, _, _, keys, _, window_crc = _INDEX.unpack(head)
    if magic != _INDEX_MAGIC or size != _INDEX.size + 8 * keys + 4:
        return None
    return covered, window_crc


def _window_crc(fh, covered: int) -> int:
    """The CRC of the last ``_WINDOW`` or fewer of the first ``covered``
    bytes of the file open as ``fh``."""
    start = max(0, covered - _WINDOW)
    fh.seek(start)
    return zlib.crc32(fh.read(covered - start))


def _index_head(index: bytes | None, blob: bytes) -> tuple[int, int, int, bool] | None:
    """(covered, skipped, records, stopped) from an index that is
    whole and describes the first ``covered`` bytes of ``blob``, else None."""
    if index is None or len(index) < _INDEX.size + 4:
        return None
    magic, covered, crc, records, skipped, keys, stopped, _ = _INDEX.unpack_from(index)
    whole = memoryview(index)[:-4]
    if (
        magic != _INDEX_MAGIC
        or len(index) != _INDEX.size + 8 * keys + 4
        or _U32.unpack_from(index, len(whole))[0] != zlib.crc32(whole)
        or not len(MAGIC) <= covered <= len(blob)
        or zlib.crc32(memoryview(blob)[:covered]) != crc
    ):
        return None
    return covered, skipped, records, stopped


def _reindex(path: str, blob: bytes) -> None:
    """Index ``blob``, the whole cache at ``path``, under the caller's
    exclusive lock."""
    found, skipped, records, covered = _scan(blob, len(MAGIC))
    _write_index(path, blob, covered, skipped, records, array("Q", [found[k] for k in sorted(found)]))


def _write_index(path: str, blob: bytes, covered: int, skipped: int, records: int, offsets: array) -> None:
    """Write ``PATH.idx`` for the first ``covered`` bytes of ``blob``, whose
    kept keys' records start at ``offsets`` in key order.  An index that
    cannot be written is left out: loads then screen the whole file."""
    view = memoryview(blob)
    crc, window = zlib.crc32(view[:covered]), zlib.crc32(view[max(0, covered - _WINDOW) : covered])
    head = _INDEX.pack(_INDEX_MAGIC, covered, crc, records, skipped, len(offsets), covered < len(blob), window)
    if sys.byteorder == "big":
        offsets.byteswap()
    body = head + offsets.tobytes()
    tmp = path + _INDEX_SUFFIX + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body + _U32.pack(zlib.crc32(body)))
        os.replace(tmp, path + _INDEX_SUFFIX)
    except OSError:
        _remove(tmp)


def _remove(name: str) -> None:
    with suppress(OSError):
        os.unlink(name)


def _encode(items) -> tuple[bytearray, list[int]]:
    """The records of ``items`` as one buffer, and where each starts in it."""
    buf = bytearray()
    starts = []
    for key, value in items:
        if not -0x8000 <= value <= 0x7FFF:
            raise ValueError(f"value {value} does not fit a record's i16 field (-32768..32767)")
        starts.append(len(buf))
        buf += _U32.pack(len(key))
        buf += key
        buf += _I16.pack(value)
    return buf, starts


def save_cache(path: str, entries: dict[bytes, int] | list[tuple[bytes, int]], append: bool = False) -> int:
    """Write records; with ``append`` add to an existing file.  Returns
    the number of records written.  Raises ``ValueError``, before writing
    anything, for a value outside a record's i16 field.

    The records go out as one buffer in one ``write``.  An append locks
    ``PATH.lock`` exclusively before it opens the cache and closes the
    cache before it unlocks, so concurrent appenders never split each
    other's records and a load never sees the file empty.  Under the same
    lock it rebuilds ``PATH.idx`` when the index's header is missing or
    covers more bytes than the file held, when the records past it
    outgrow a quarter of the bytes it covers, or when the last 4 KiB it
    covers no longer match its header; it reads those 4 KiB, and the
    whole file only for a rebuild.  A save without ``append`` removes the
    index.
    """
    buf, starts = _encode(entries.items() if isinstance(entries, dict) else entries)
    if not append:
        with open(path, "wb") as fh:
            fh.write(MAGIC + buf)
        _remove(path + _INDEX_SUFFIX)
        return len(starts)
    with _locked(path, exclusive=True), open(path, "a+b") as fh:
        # under the lock, an empty file is new: it gets the magic first
        if fh.seek(0, os.SEEK_END) == 0:
            buf[:0] = MAGIC
        fh.write(buf)
        # the whole file is read only when the index's header and its last
        # covered 4 KiB do not rule a re-index out; an index gone stale
        # before those 4 KiB waits for the tail to outgrow it, and loads
        # meanwhile find its CRC wrong and screen the whole file
        size = fh.tell()
        extent = _indexed_extent(path)
        if (
            extent is None
            or extent[0] > size - len(buf)
            or size - extent[0] > extent[0] // _REINDEX_SHARE
            or _window_crc(fh, extent[0]) != extent[1]
        ):
            fh.seek(0)
            blob = fh.read()
            if blob[: len(MAGIC)] == MAGIC:
                head = _index_head(_read_index(path), blob)
                # a screen that stopped at a bad length field would stop
                # there again, so such an index is left as it is
                if head is None or not head[3]:
                    _reindex(path, blob)
    return len(starts)


def compact_cache(path: str) -> tuple[int, int]:
    """Rewrite a cache dropping duplicate keys and corrupt records, and
    index the result.

    Returns (records before, records after): a 1-3 byte fragment too
    short to hold a length field is not a record.  The rewrite goes
    through a temp file and an atomic rename, all under an exclusive
    lock on ``PATH.lock``, so no append lands on the old file unseen.  A
    missing cache raises ``FileNotFoundError`` before the lock file is
    created.
    """
    os.stat(path)
    with _locked(path, exclusive=True), open(path, "rb") as fh:
        old = fh.read()
        found, _, records = _screen(old, path)
        keys = sorted(found)
        buf, starts = _encode((k, _I16.unpack_from(old, found[k] + 4 + len(k))[0]) for k in keys)
        blob = MAGIC + buf
        tmp = path + ".tmp"
        with open(tmp, "wb") as out:
            out.write(blob)
        os.replace(tmp, path)
        # every record is kept and its key is unique, so each is indexed
        offsets = array("Q", [len(MAGIC) + start for start in starts])
        _write_index(path, blob, len(blob), 0, len(keys), offsets)
    return records, len(keys)
