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

An append encodes its whole batch first and writes it with a single
``write`` under an exclusive ``flock``; a load reads under a shared one.
A compaction holds the exclusive lock from its read to its rename, and a
locker that finds the file renamed over meanwhile opens the new one.
Concurrent ``snc`` runs, compactions included, may therefore share one
cache file: no record is split by another writer's, no load sees half an
append, and no append is lost to a compaction.
"""

from __future__ import annotations

import operator
import os
import struct
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


def write_edge_list(g: LoopyMultigraph, path: str) -> None:
    """Write one line per edge instance, sorted, parallel edges repeated."""
    with open(path, "w", encoding="utf-8") as fh:
        for ref, m in g.edge_pairs():
            for _ in range(m):
                fh.write(f"{ref.u} {ref.v}\n")


@dataclass
class CacheLoad:
    """Entries read from a cache file, a count of records dropped, and
    the number of records whose length field was read whole."""

    entries: dict[bytes, int]
    skipped: int
    records: int = 0


def _open_locked(path: str, mode: str, exclusive: bool):
    """Open ``path`` and ``flock`` it, shared or exclusive; if a compaction
    replaced the file while the lock was awaited, open the new one instead."""
    while True:
        fh = open(path, mode)
        if fcntl is None:
            return fh
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        try:
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                return fh
        except FileNotFoundError:
            pass
        fh.close()


def load_cache(path: str) -> CacheLoad:
    """Read a value cache; tolerate and count a corrupt or truncated tail."""
    with _open_locked(path, "rb", exclusive=False) as fh:
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

    The records go out as one buffer in one ``write``; an append holds an
    exclusive ``flock`` on the file meanwhile, so concurrent appenders
    never split each other's records.
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
    with _open_locked(path, "ab", exclusive=True) as fh:
        # under the lock, an empty file is new: it gets the magic first
        if fh.seek(0, os.SEEK_END) == 0:
            buf[:0] = MAGIC
        fh.write(buf)
        fh.flush()
    return count


def compact_cache(path: str) -> tuple[int, int]:
    """Rewrite a cache dropping duplicate keys and corrupt records.

    Returns (records before, records after): a 1-3 byte fragment too
    short to hold a length field is not a record.  The rewrite goes
    through a temp file and an atomic rename, all under an exclusive
    ``flock`` on the old file, so no append lands on it unseen.
    """
    with _open_locked(path, "rb", exclusive=True) as fh:
        loaded = _parse_cache(fh.read(), path)
        tmp = path + ".tmp"
        save_cache(tmp, dict(sorted(loaded.entries.items())))
        os.replace(tmp, path)
    return loaded.records, len(loaded.entries)
