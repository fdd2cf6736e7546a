"""Append-only block log.

Record format (all integers big-endian):

    magic   4 bytes  b"VGV1"          (file header, once)
    ---- per record ----
    length  4 bytes                   length of the block encoding
    sha256 32 bytes                   digest of the block encoding
    block   <length> bytes            canonical wire encoding

A torn final record (power loss mid-write) is detected by length or
checksum mismatch and ignored; everything before it is intact.  Opening
the store for append cuts the file back to the end of its last intact
record, so nothing is ever written behind a tear where no reader would
reach it.  Records are written with flush+fsync by default so an
acknowledged append survives a crash; a caller with a batch defers the
sync (``append(block, sync=False)`` per record, then one :meth:`sync`)
and acknowledges nothing before it.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
from typing import Iterator, Union

from repro.chain.block import Block

MAGIC = b"VGV1"
_HEADER = len(MAGIC)
_LEN_BYTES = 4
_SHA_BYTES = 32


class StorageError(Exception):
    """The store file is unusable (bad magic, unreadable path)."""


class BlockStore:
    """An append-only file of blocks.

    Appends go through one persistent file handle, opened lazily on the
    first :meth:`append` and kept until :meth:`close` — a fleet member
    appending every few seconds should not pay an open/close per block.
    The store works as a context manager (``with BlockStore(path) as
    store: ...``) and closing is idempotent; a closed store reopens its
    writer transparently on the next append.  *obs* is an
    :class:`repro.obs.Observability` that counts appends, bytes written
    and blocks read.
    """

    def __init__(self, path: Union[str, pathlib.Path], fsync: bool = True,
                 obs=None):
        self._path = pathlib.Path(path)
        self._fsync = fsync
        self._writer = None
        self._c_appends = self._c_bytes = self._c_reads = None
        if obs is not None and obs.enabled:
            self._c_appends = obs.registry.counter(
                "blockstore_appends_total", "blocks appended to disk"
            )
            self._c_bytes = obs.registry.counter(
                "blockstore_bytes_written_total",
                "record bytes written (length + checksum + payload)",
            )
            self._c_reads = obs.registry.counter(
                "blockstore_blocks_read_total", "blocks decoded from disk"
            )
        if self._path.exists():
            with self._path.open("rb") as handle:
                magic = handle.read(_HEADER)
            if magic != MAGIC:
                raise StorageError(f"{self._path} is not a block store")
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._path.open("wb") as handle:
                handle.write(MAGIC)
                handle.flush()
                os.fsync(handle.fileno())

    @property
    def path(self) -> pathlib.Path:
        return self._path

    def _write_handle(self):
        if self._writer is None or self._writer.closed:
            # Append after the last intact record, not after a torn one:
            # readers stop at a tear, so a record behind it is lost.
            end = _HEADER
            for end, _payload in self._records():
                pass
            if end < self._path.stat().st_size:
                os.truncate(self._path, end)
            self._writer = self._path.open("ab")
        return self._writer

    def sync(self) -> None:
        """Make every record appended so far durable: one flush, one
        fsync, however many records ``append(..., sync=False)`` wrote."""
        if self._writer is not None and not self._writer.closed:
            self._writer.flush()
            if self._fsync:
                os.fsync(self._writer.fileno())

    def close(self) -> None:
        """Flush and close the persistent append handle (idempotent)."""
        if self._writer is not None and not self._writer.closed:
            self.sync()
            self._writer.close()
        self._writer = None

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def append(self, block: Block, sync: bool = True) -> None:
        """Append one block, durably unless *sync* is false — then the
        record is durable (and may be acknowledged) only after
        :meth:`sync`."""
        payload = block.to_bytes()
        record = (
            len(payload).to_bytes(_LEN_BYTES, "big")
            + hashlib.sha256(payload).digest()
            + payload
        )
        self._write_handle().write(record)
        if sync:
            self.sync()
        if self._c_appends is not None:
            self._c_appends.inc()
            self._c_bytes.inc(len(record))

    def append_all(self, blocks) -> None:
        for block in blocks:
            self.append(block)

    def _records(self) -> Iterator[tuple[int, bytes]]:
        """``(end offset, payload)`` of each intact record in append
        order, stopping cleanly at a torn tail."""
        with self._path.open("rb") as handle:
            if handle.read(_HEADER) != MAGIC:
                raise StorageError(f"{self._path} is not a block store")
            while True:
                length_bytes = handle.read(_LEN_BYTES)
                if len(length_bytes) < _LEN_BYTES:
                    return  # clean end or torn length
                length = int.from_bytes(length_bytes, "big")
                digest = handle.read(_SHA_BYTES)
                payload = handle.read(length)
                if len(digest) < _SHA_BYTES or len(payload) < length:
                    return  # torn record
                if hashlib.sha256(payload).digest() != digest:
                    return  # corrupt/torn record: stop before it
                yield handle.tell(), payload

    def blocks(self) -> Iterator[Block]:
        """Yield stored blocks in append order, stopping cleanly at a
        torn tail.  Raises MalformedBlockError only for a record whose
        checksum passes but whose content will not parse (i.e. real
        corruption, not a torn write)."""
        for _end, payload in self._records():
            if self._c_reads is not None:
                self._c_reads.inc()
            yield Block.from_bytes(payload)

    def count(self) -> int:
        return sum(1 for _ in self.blocks())

    def is_empty(self) -> bool:
        """Does the store hold no intact record?  (Decodes no block.)"""
        return next(self._records(), None) is None

    def __iter__(self) -> Iterator[Block]:
        return self.blocks()
