"""Binary, mmap-able columnar container for snapshot count matrices.

The cache's v3 payload round-trips every count through base64-varint
text inside JSON: compact, but decoding is parse-bound — every warm
cache hit re-runs a varint loop over the whole matrix.  The blockfile
is the v4 answer: counts live on disk exactly as the little-endian
``u32`` words the :class:`~repro.scan.storage.CountMatrix` holds in
memory, padded to 64-byte boundaries, so a warm read is ``mmap`` plus
``numpy.frombuffer`` — memory bandwidth, not parse speed — and the
matrix never has to be resident at all for mmap-backed consumers.

On-disk layout (all integers little-endian)::

    FILE HEADER (64 bytes)
      0   magic           4s   b"RBF1"
      4   format_version  u16  currently 1
      6   flags           u16  reserved, 0
      8   alignment       u16  64
      10  reserved        u16  0
      12  reserved        u32  0
      16  record_count    u64  advisory; readers scan to EOF
      24  reserved        32x  zero
      56  header_crc32    u32  crc32 of bytes [0, 56)
      60  reserved        u32  0

    RECORD (header 64 bytes, 64-byte aligned, body immediately after)
      0   magic           4s   b"RBRC"
      4   record_type     u16  1 = PREFIXES, 2 = DAY, 3 = PTRS
      6   reserved        u16  0
      8   body_length     u64  exact body bytes (pre-padding)
      16  body_crc32      u32  crc32 of the body bytes
      20  reserved        u32  0
      24  aux1            u64  PREFIXES/PTRS: string count · DAY: day ordinal
      32  aux2            u64  PREFIXES/PTRS: 0            · DAY: element count
      40  aux3            u64  PREFIXES/PTRS: 0            · DAY: column total
      48  reserved        8x   zero
      56  header_crc32    u32  crc32 of record header bytes [0, 56)
      60  reserved        u32  0
      <body, zero-padded to the next 64-byte boundary>

A ``PREFIXES`` record appends newline-joined UTF-8 prefix strings to
the interned prefix table (first-seen order, the determinism anchor
shared with :class:`~repro.scan.storage.PrefixTable`).  A ``DAY``
record's body is the raw ``<u4`` count column for one day; its length
may trail the prefix table (ragged columns, exactly as in memory).
A ``PTRS`` record carries the series' unique PTR names (sorted,
newline-joined UTF-8).  PTR bodies are *lazy*: :meth:`_scan` only
notes their spans, and the strings are decoded on the first
:meth:`BlockFileReader.unique_ptrs` call — warm count reads never pay
for name parsing, while :attr:`BlockFileReader.unique_ptr_count`
(from ``aux1``) stays O(1).

Appending a day is "write new records at EOF": record headers carry
their own CRC, so a reader that mapped the shorter file is untouched
and a torn append is detected (and truncated away by
:meth:`BlockFileReader.open` in repair mode or reported by
``repro cache verify``).

Zero-copy views come from ``numpy.frombuffer`` over the mapping.
"""
from __future__ import annotations

import io
import mmap
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

import numpy as _np

MAGIC = b"RBF1"
RECORD_MAGIC = b"RBRC"
BLOCKFILE_VERSION = 1
ALIGNMENT = 64
HEADER_SIZE = 64
RECORD_HEADER_SIZE = 64

RECORD_PREFIXES = 1
RECORD_DAY = 2
RECORD_PTRS = 3

_HEADER = struct.Struct("<4sHHHHIQ32xI4x")
_RECORD = struct.Struct("<4sHHQIIQQQ8xI4x")

#: File suffix used by the snapshot cache for v4 sidecar blockfiles.
SUFFIX = ".rbf"


class BlockFileError(ValueError):
    """A structurally invalid, truncated, or corrupt blockfile."""


def _pad(length: int) -> int:
    """Bytes of zero padding after ``length`` to reach the next boundary."""
    return (-length) % ALIGNMENT


def _pack_header(record_count: int) -> bytes:
    head = _HEADER.pack(
        MAGIC, BLOCKFILE_VERSION, 0, ALIGNMENT, 0, 0, record_count, 0
    )
    crc = zlib.crc32(head[:56])
    return head[:56] + struct.pack("<I4x", crc)


def _pack_record_header(
    record_type: int, body: bytes, aux1: int, aux2: int, aux3: int
) -> bytes:
    head = _RECORD.pack(
        RECORD_MAGIC,
        record_type,
        0,
        len(body),
        zlib.crc32(body),
        0,
        aux1,
        aux2,
        aux3,
        0,
    )
    crc = zlib.crc32(head[:56])
    return head[:56] + struct.pack("<I4x", crc)


def _column_bytes(column: Sequence[int]) -> bytes:
    """A count column as raw little-endian ``u4`` words."""
    if isinstance(column, _np.ndarray):
        return column.astype("<u4", copy=False).tobytes()
    arr = column if isinstance(column, array) else array("I", (int(v) for v in column))
    data = arr.tobytes()
    if arr.itemsize == 4:
        return data if sys.byteorder == "little" else data[::-1]  # pragma: no cover
    # 8-byte "I" platforms do not exist on CPython, but stay correct:
    return struct.pack(f"<{len(arr)}I", *arr)  # pragma: no cover


def encode_records(
    prefixes: Sequence[str],
    days: Sequence[int],
    columns: Sequence[Sequence[int]],
    totals: Sequence[int],
    ptrs: Optional[Sequence[str]] = None,
) -> bytes:
    """The full blockfile byte string for a matrix (header + records)."""
    if len(days) != len(columns) or len(days) != len(totals):
        raise ValueError("days, columns and totals must be parallel sequences")
    out = io.BytesIO()
    record_count = (1 if prefixes else 0) + (1 if ptrs else 0) + len(days)
    out.write(_pack_header(record_count))
    if prefixes:
        body = "\n".join(prefixes).encode("utf-8")
        out.write(_pack_record_header(RECORD_PREFIXES, body, len(prefixes), 0, 0))
        out.write(body)
        out.write(b"\0" * _pad(len(body)))
    if ptrs:
        body = "\n".join(ptrs).encode("utf-8")
        out.write(_pack_record_header(RECORD_PTRS, body, len(ptrs), 0, 0))
        out.write(body)
        out.write(b"\0" * _pad(len(body)))
    for ordinal, column, total in zip(days, columns, totals):
        body = _column_bytes(column)
        out.write(
            _pack_record_header(
                RECORD_DAY, body, int(ordinal), len(column), int(total)
            )
        )
        out.write(body)
        out.write(b"\0" * _pad(len(body)))
    return out.getvalue()


def write_blockfile(
    path: Union[str, Path],
    prefixes: Sequence[str],
    days: Sequence[int],
    columns: Sequence[Sequence[int]],
    totals: Sequence[int],
    ptrs: Optional[Sequence[str]] = None,
) -> int:
    """Atomically write a blockfile; returns the byte size written.

    The write goes to ``<path>.tmp`` and is published with
    ``os.replace`` — racing writers each publish a complete file and
    the last rename wins, exactly like the JSON cache entries.
    """
    target = Path(path)
    blob = encode_records(prefixes, days, columns, totals, ptrs)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, target)
    return len(blob)


def append_day_records(
    path: Union[str, Path],
    new_prefixes: Sequence[str],
    ordinal: int,
    column: Sequence[int],
    total: int,
) -> int:
    """Append one day (and any newly interned prefixes) at EOF.

    Returns the bytes appended.  Existing records are never rewritten,
    so readers holding a mapping of the shorter file are unaffected.
    """
    out = io.BytesIO()
    if new_prefixes:
        body = "\n".join(new_prefixes).encode("utf-8")
        out.write(_pack_record_header(RECORD_PREFIXES, body, len(new_prefixes), 0, 0))
        out.write(body)
        out.write(b"\0" * _pad(len(body)))
    body = _column_bytes(column)
    out.write(
        _pack_record_header(RECORD_DAY, body, int(ordinal), len(column), int(total))
    )
    out.write(body)
    out.write(b"\0" * _pad(len(body)))
    blob = out.getvalue()
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() % ALIGNMENT:
            raise BlockFileError(
                f"{path}: size {handle.tell()} is not {ALIGNMENT}-byte aligned; "
                "refusing to append to a torn file"
            )
        handle.write(blob)
        handle.flush()
    return len(blob)


def _u32_view(buffer, offset: int, count: int):
    """A zero-copy ``u32`` view into a buffer."""
    return _np.frombuffer(buffer, dtype="<u4", count=count, offset=offset)


class BlockFileReader:
    """A validated, read-only view over one blockfile.

    ``prefixes``, ``days``, ``totals`` are plain Python lists; each
    entry of ``columns`` is a zero-copy ``u32`` NumPy view into the
    mapping.  The reader object keeps the mapping alive; views taken
    from it remain valid for its lifetime (and, because
    ``numpy.frombuffer`` holds a reference to its buffer, beyond it).
    """

    def __init__(
        self,
        path: Path,
        buffer,
        mapping: Optional[mmap.mmap],
        handle: Optional[BinaryIO],
    ):
        self.path = path
        self._buffer = buffer
        self._mmap = mapping
        self._handle = handle
        self.prefixes: List[str] = []
        self.days: List[int] = []
        self.totals: List[int] = []
        self.columns: List[Sequence[int]] = []
        #: PTR-record spans, decoded lazily: (body_offset, body_len, count)
        self._ptr_spans: List[Tuple[int, int, int]] = []
        #: (record_type, header_offset, body_offset, body_length, body_crc)
        self._records: List[Tuple[int, int, int, int, int]] = []
        self._scan()

    # -- construction --------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, Path], *, use_mmap: bool = True) -> "BlockFileReader":
        """Map (or read) ``path`` and validate header + record headers.

        Body CRCs are *not* checked here — that is the cheap warm path.
        Call :meth:`verify` for a full integrity sweep.
        """
        target = Path(path)
        handle: Optional[BinaryIO] = None
        mapping: Optional[mmap.mmap] = None
        try:
            handle = open(target, "rb")
        except OSError as exc:
            raise BlockFileError(f"{target}: cannot open blockfile: {exc}") from exc
        try:
            if use_mmap:
                try:
                    mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                    buffer = mapping
                except (ValueError, OSError):
                    # Empty file or mmap-hostile filesystem: fall back.
                    buffer = handle.read()
            else:
                buffer = handle.read()
            return cls(target, buffer, mapping, handle if mapping is not None else None)
        except Exception:
            if mapping is not None:
                # A failed _scan may have exported views over the
                # mapping already; they pin it, so closing can raise.
                # The mapping is freed once the views are collected.
                try:
                    mapping.close()
                except BufferError:
                    pass
            handle.close()
            raise
        finally:
            if mapping is None and handle is not None:
                handle.close()

    # -- validation ----------------------------------------------------

    def _scan(self) -> None:
        buf = self._buffer
        size = len(buf)
        if size < HEADER_SIZE:
            raise BlockFileError(f"{self.path}: truncated header ({size} bytes)")
        (magic, version, _flags, alignment, _r0, _r1, _count, header_crc) = (
            _HEADER.unpack_from(buf, 0)
        )
        if magic != MAGIC:
            raise BlockFileError(f"{self.path}: bad magic {magic!r}")
        if version != BLOCKFILE_VERSION:
            raise BlockFileError(
                f"{self.path}: unsupported blockfile version {version}"
            )
        if alignment != ALIGNMENT:
            raise BlockFileError(f"{self.path}: unsupported alignment {alignment}")
        if zlib.crc32(bytes(buf[:56])) != header_crc:
            raise BlockFileError(f"{self.path}: file header checksum mismatch")
        offset = HEADER_SIZE
        while offset < size:
            if offset + RECORD_HEADER_SIZE > size:
                raise BlockFileError(
                    f"{self.path}: truncated record header at offset {offset}"
                )
            (
                rmagic,
                rtype,
                _pad0,
                body_len,
                body_crc,
                _pad1,
                aux1,
                aux2,
                aux3,
                header_crc,
            ) = _RECORD.unpack_from(buf, offset)
            if rmagic != RECORD_MAGIC:
                raise BlockFileError(
                    f"{self.path}: bad record magic at offset {offset}"
                )
            if zlib.crc32(bytes(buf[offset : offset + 56])) != header_crc:
                raise BlockFileError(
                    f"{self.path}: record header checksum mismatch at offset {offset}"
                )
            body_offset = offset + RECORD_HEADER_SIZE
            if body_offset + body_len > size:
                raise BlockFileError(
                    f"{self.path}: record body truncated at offset {offset}"
                )
            if rtype == RECORD_PREFIXES:
                body = bytes(buf[body_offset : body_offset + body_len])
                if zlib.crc32(body) != body_crc:
                    raise BlockFileError(
                        f"{self.path}: prefix table checksum mismatch at "
                        f"offset {offset}"
                    )
                strings = body.decode("utf-8").split("\n") if body else []
                if len(strings) != aux1:
                    raise BlockFileError(
                        f"{self.path}: prefix record declares {aux1} strings "
                        f"but carries {len(strings)}"
                    )
                self.prefixes.extend(strings)
            elif rtype == RECORD_DAY:
                if body_len != 4 * aux2:
                    raise BlockFileError(
                        f"{self.path}: day record at offset {offset} declares "
                        f"{aux2} elements but {body_len} body bytes"
                    )
                self.days.append(int(aux1))
                self.totals.append(int(aux3))
                self.columns.append(_u32_view(buf, body_offset, int(aux2)))
            elif rtype == RECORD_PTRS:
                # Lazy: note the span only — names are decoded on the
                # first unique_ptrs() call, never on the warm count path.
                self._ptr_spans.append((body_offset, int(body_len), int(aux1)))
            else:
                raise BlockFileError(
                    f"{self.path}: unknown record type {rtype} at offset {offset}"
                )
            self._records.append((rtype, offset, body_offset, body_len, body_crc))
            offset = body_offset + body_len + _pad(body_len)
        if len(self.prefixes) != len(set(self.prefixes)):
            raise BlockFileError(f"{self.path}: duplicate interned prefixes")
        width = len(self.prefixes)
        for column in self.columns:
            if len(column) > width:
                raise BlockFileError(
                    f"{self.path}: day column wider ({len(column)}) than the "
                    f"prefix table ({width})"
                )

    def verify(self) -> int:
        """Check every body CRC; returns the record count on success."""
        buf = self._buffer
        for rtype, offset, body_offset, body_len, body_crc in self._records:
            body = bytes(buf[body_offset : body_offset + body_len])
            if zlib.crc32(body) != body_crc:
                kind = {
                    RECORD_PREFIXES: "prefix table",
                    RECORD_PTRS: "ptr table",
                }.get(rtype, "day column")
                raise BlockFileError(
                    f"{self.path}: {kind} body checksum mismatch at offset {offset}"
                )
        return len(self._records)

    # -- accessors -----------------------------------------------------

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def unique_ptr_count(self) -> int:
        """Total PTR names across PTRS records — O(1), no body decode."""
        return sum(count for _, _, count in self._ptr_spans)

    def unique_ptrs(self) -> set:
        """Decode every PTRS record body into one set of names."""
        names: set = set()
        for body_offset, body_len, count in self._ptr_spans:
            body = bytes(self._buffer[body_offset : body_offset + body_len])
            strings = body.decode("utf-8").split("\n") if body else []
            if len(strings) != count:
                raise BlockFileError(
                    f"{self.path}: ptr record declares {count} strings "
                    f"but carries {len(strings)}"
                )
            names.update(strings)
        return names

    def count_matrix(self):
        """The file's contents as a view-backed ``CountMatrix``.

        The matrix holds a reference to this reader, keeping the
        mapping alive for as long as any view column is reachable.
        """
        from .storage import CountMatrix

        return CountMatrix.from_columns(
            self.prefixes, self.columns, self.totals, source=self
        )

    def close(self) -> None:
        """Release the mapping (views taken earlier keep it alive)."""
        if self._mmap is not None:
            # Views exported from the mmap pin it; closing would raise
            # BufferError while any are alive, so only close when free.
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BlockFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
