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

Every access locks ``PATH.lock``, an empty file beside the cache that
nothing writes or renames, before it opens the cache: a load takes a
shared ``flock``, an append or a compaction an exclusive one.  An append
encodes its whole batch first and writes it with a single ``write``; a
compaction holds its lock from its read to its rename.  Concurrent
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
from contextlib import contextmanager
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
    """Entries read from a cache file, a count of records dropped, and
    the number of records whose length field was read whole."""

    entries: dict[bytes, int]
    skipped: int
    records: int = 0


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
    or truncated tail.  Raises ``OSError`` when ``PATH.lock`` neither exists
    nor can be created."""
    with _locked(path, exclusive=False), open(path, "rb") as fh:
        return _parse_cache(fh.read(), path)


def _parse_cache(blob: bytes, path: str) -> CacheLoad:
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise CacheFormatError(f"{path}: not a value-cache file")
    entries: dict[bytes, int] = {}
    skipped = records = 0
    off = len(MAGIC)
    end = len(blob)
    u32, i16, le = _U32.unpack_from, _I16.unpack_from, operator.le
    while off < end:
        if off + 4 > end:
            skipped += 1
            break
        records += 1
        (klen,) = u32(blob, off)
        off += 4
        stop = off + klen
        if klen == 0 or stop + 2 > end:
            skipped += 1
            break
        (value,) = i16(blob, stop)
        # the screen of the module docstring; a key of 2 bytes has no triples
        if klen % 6 == 2:
            f = key_fields(klen).unpack_from(blob, off)
            n = f[0]
            if (
                -n <= value <= n
                and (value - n) % 2 == 0
                and (klen == 2 or (max(b := f[2::3]) < n and all(map(le, f[1::3], b))))
            ):
                entries[blob[off:stop]] = value
            else:
                skipped += 1
        else:
            skipped += 1
        off = stop + 2
    return CacheLoad(entries, skipped, records)


def save_cache(path: str, entries: dict[bytes, int] | list[tuple[bytes, int]], append: bool = False) -> int:
    """Write records; with ``append`` add to an existing file.  Returns
    the number of records written.  Raises ``ValueError``, before writing
    anything, for a value outside a record's i16 field.

    The records go out as one buffer in one ``write``.  An append locks
    ``PATH.lock`` exclusively before it opens the cache and closes the
    cache before it unlocks, so concurrent appenders never split each
    other's records and a load never sees the file empty.
    """
    items = entries.items() if isinstance(entries, dict) else entries
    buf = bytearray()
    count = 0
    for key, value in items:
        if not -0x8000 <= value <= 0x7FFF:
            raise ValueError(f"value {value} does not fit a record's i16 field (-32768..32767)")
        buf += _U32.pack(len(key))
        buf += key
        buf += _I16.pack(value)
        count += 1
    if not append:
        with open(path, "wb") as fh:
            fh.write(MAGIC + buf)
        return count
    with _locked(path, exclusive=True), open(path, "ab") as fh:
        # under the lock, an empty file is new: it gets the magic first
        if fh.seek(0, os.SEEK_END) == 0:
            buf[:0] = MAGIC
        fh.write(buf)
    return count


def compact_cache(path: str) -> tuple[int, int]:
    """Rewrite a cache dropping duplicate keys and corrupt records.

    Returns (records before, records after): a 1-3 byte fragment too
    short to hold a length field is not a record.  The rewrite goes
    through a temp file and an atomic rename, all under an exclusive
    lock on ``PATH.lock``, so no append lands on the old file unseen.  A
    missing cache raises ``FileNotFoundError`` before the lock file is
    created.
    """
    os.stat(path)
    with _locked(path, exclusive=True), open(path, "rb") as fh:
        loaded = _parse_cache(fh.read(), path)
        tmp = path + ".tmp"
        save_cache(tmp, dict(sorted(loaded.entries.items())))
        os.replace(tmp, path)
    return loaded.records, len(loaded.entries)
