"""Coalescing client transactions into Vegvisir blocks.

Ordinary clients submit single transactions; the chain wants blocks.
The :class:`TxBatcher` sits between them with a size-or-rate trigger
(:func:`next_cut` is the whole rule): a batch is cut the moment it
reaches ``max_batch`` transactions, and otherwise as soon as the cut
rate allows.  A batch is full too when more encoded bytes are queued
than one block carries (``max_batch_bytes``): it is then cut at once,
just before the transaction that would cross that budget, so every
block the gateway writes can travel.  The rate is a
:class:`~repro.gateway.admission.TokenBucket` refilled at
``1 / max_delay_s`` tokens a second that holds one second of them,
never less than one token (40 at the 25 ms default).  Every cut spends
a token if one is there; only a batch that is not full ever waits for
one.  A transaction that finds a token is therefore cut into
a block at once, however recently the previous cut was; one that finds
the bucket empty waits for the next token, at most ``max_delay_s``.
Two bounds follow: no transaction waits longer than ``max_delay_s``
before its append starts, and in any T seconds the cuts not forced by
a full batch number at most ``burst + T / max_delay_s`` (besides the
one that may follow a full cut: what it leaves behind is cut
``max_delay_s`` after its arrival, token or not).  A busy gateway cuts
``1 / max_delay_s`` partial blocks a second on average, as a timer
would; a quiet one cuts each transaction as it comes.  Each cut batch
becomes one signed block through the host chain's append callable (the
gateway's LiveNode), so a thousand cheap HTTP submits cost the DAG one
block, one signature, and one witness of the current frontier (§IV-H:
every block witnesses everything beneath it).

Backpressure is explicit and memory is bounded: the queue holds at
most ``max_queue`` pending transactions.  When a submit arrives over
that bound, the *oldest* queued entry is shed (its waiter gets a
:class:`ShedError` carrying a Retry-After hint) and the newcomer takes
its place — under overload the gateway serves fresh requests with
bounded latency and refuses the backlog, rather than serving everyone
arbitrarily late.  Nothing in this file ever grows without bound.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Callable, Optional, Sequence

from repro import wire
from repro.chain.block import MAX_BLOCK_BYTES, MAX_TRANSACTIONS, Transaction
from repro.gateway.admission import TokenBucket
from repro.runtime import SYSTEM

DEFAULT_MAX_BATCH = 128
DEFAULT_MAX_DELAY_S = 0.025
DEFAULT_MAX_QUEUE = 1024
#: Most encoded transaction bytes in one batch: the rest of
#: ``MAX_BLOCK_BYTES`` holds the block's list framing, a header citing
#: ``MAX_PARENTS`` parents and a signature (≈ 2.3 KB of the 4 KiB).
MAX_BATCH_BYTES = MAX_BLOCK_BYTES - 4 * 1024


def next_cut(queued: int, oldest: float, token_at: float, now: float, *,
             max_batch: int, max_delay_s: float
             ) -> tuple[float, Optional[str]]:
    """When the next batch is due, and the trigger that makes it so.

    *token_at* is when the cut-rate bucket holds a token (at or before
    *now* if it holds one already).  ``full``: *queued* reached
    ``max_batch`` — now, token or not.  ``idle``: a token was there
    when the *oldest* queued transaction arrived — now.  ``hold_off``:
    the oldest arrived to an empty bucket and waits for the rate, until
    the next token or its own ``max_delay_s``, whichever is first.
    Nothing queued is never due.
    """
    if queued == 0:
        return math.inf, None
    if queued >= max_batch:
        return now, "full"
    if token_at <= oldest:
        return now, "idle"
    return max(now, min(token_at, oldest + max_delay_s)), "hold_off"


class ShedError(Exception):
    """The transaction was dropped under overload; retry later."""

    def __init__(self, retry_after_s: float):
        super().__init__(f"shed under overload; retry in {retry_after_s:.2f}s")
        self.retry_after_s = retry_after_s


class BatcherClosed(Exception):
    """The batcher stopped before this transaction made it into a block."""


class SubmitResult:
    """Where one submitted transaction landed."""

    __slots__ = ("block_hash", "index", "applied", "reason", "batch_size",
                 "queued_ms")

    def __init__(self, block_hash, index: int, applied: bool,
                 reason: Optional[str], batch_size: int, queued_ms: float):
        self.block_hash = block_hash
        self.index = index
        self.applied = applied
        self.reason = reason
        self.batch_size = batch_size
        self.queued_ms = queued_ms


class _Pending:
    __slots__ = ("tx", "size", "future", "enqueued")

    def __init__(self, tx: Transaction, size: int, future: asyncio.Future,
                 enqueued: float):
        self.tx = tx
        self.size = size
        self.future = future
        self.enqueued = enqueued


class TxBatcher:
    """One chain's size-or-rate transaction coalescer.

    *append* turns a list of transactions into a block and per-
    transaction outcomes: ``append(txs) -> (block, outcomes)`` where
    ``outcomes[i]`` has ``applied``/``reason`` (the CSM's
    :class:`~repro.csm.machine.TxOutcome` fits directly).  It runs on
    the event loop — signing and validating one batch is a sub-
    millisecond affair at these sizes, and serializing appends per
    chain is exactly what the branch-reining rule wants.
    """

    def __init__(
        self,
        append: Callable[[Sequence[Transaction]], tuple],
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        max_queue: int = DEFAULT_MAX_QUEUE,
        clock: Callable[[], float] = SYSTEM.monotonic,
        on_flush: Optional[Callable[[int, float, str], None]] = None,
        on_shed: Optional[Callable[[int], None]] = None,
    ):
        if max_batch < 1 or max_batch > MAX_TRANSACTIONS:
            raise ValueError(
                f"max_batch must be in 1..{MAX_TRANSACTIONS}"
            )
        if max_queue < max_batch:
            raise ValueError("max_queue must be >= max_batch")
        if max_delay_s <= 0:
            raise ValueError("max_delay_s must be positive")
        self._append = append
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_queue = max_queue
        self.max_batch_bytes = MAX_BATCH_BYTES
        self._clock = clock
        self._on_flush = on_flush
        self._on_shed = on_shed
        self._queue: deque[_Pending] = deque()
        self._queued_bytes = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._bucket = self._fresh_bucket()
        #: Blocks cut, by what triggered the cut (see :func:`next_cut`;
        #: ``stop`` is the final flush).
        self.cuts = dict.fromkeys(("idle", "hold_off", "full", "stop"), 0)
        self.txs_batched = 0
        self.txs_shed = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("batcher already started")
        self._closed = False
        self._bucket = self._fresh_bucket()  # a (re)started batcher is idle
        self._wakeup = asyncio.Event()
        self._task = asyncio.ensure_future(self._run())

    def _fresh_bucket(self) -> TokenBucket:
        """The cut-rate bucket, full: ``1 / max_delay_s`` tokens a
        second, one second of them and never less than one."""
        rate = 1.0 / self.max_delay_s
        return TokenBucket(rate, max(1.0, rate), self._clock())

    async def stop(self) -> None:
        """Flush what is queued, then stop.  Idempotent."""
        if self._task is None:
            return
        self._closed = True
        self._wakeup.set()
        await self._task
        self._task = None
        # Anything still pending (a submit that raced the stop) fails
        # cleanly rather than hanging its waiter forever.
        while self._queue:
            entry = self._popleft()
            if not entry.future.done():
                entry.future.set_exception(BatcherClosed())

    # -- submission ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def batches_flushed(self) -> int:
        return sum(self.cuts.values())

    def submit(self, tx: Transaction) -> asyncio.Future:
        """Queue one transaction; the future resolves to a
        :class:`SubmitResult` (or :class:`ShedError` /
        :class:`BatcherClosed`).  One the block encoder would refuse is
        refused here, queueing nothing: ``wire.EncodeError`` (or
        ``RecursionError``) for args it cannot encode, ``ValueError``
        for one that could never fit a batch (over ``max_batch_bytes``).
        """
        size = wire.encoded_size(tx.to_wire())
        if size > self.max_batch_bytes:
            raise ValueError(
                f"transaction of {size} bytes exceeds the "
                f"{self.max_batch_bytes}-byte batch budget"
            )
        if self._closed or self._task is None:
            future = asyncio.get_running_loop().create_future()
            future.set_exception(BatcherClosed())
            return future
        while len(self._queue) >= self.max_queue:
            shed = self._popleft()
            self.txs_shed += 1
            if self._on_shed is not None:
                self._on_shed(1)
            if not shed.future.done():
                shed.future.set_exception(ShedError(self._retry_after()))
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Pending(tx, size, future, self._clock()))
        self._queued_bytes += size
        # Only the first entry (it sets the due time) and the one that
        # fills the batch can change what the flusher is waiting for.
        if (len(self._queue) in (1, self.max_batch)
                or self._bytes_full()):
            self._wakeup.set()
        return future

    def _popleft(self) -> _Pending:
        entry = self._queue.popleft()
        self._queued_bytes -= entry.size
        return entry

    def _bytes_full(self) -> bool:
        """Is more queued than one block's transaction bytes?"""
        return self._queued_bytes > self.max_batch_bytes

    def _retry_after(self) -> float:
        """A Retry-After hint: roughly one full queue drain."""
        return max(
            0.05,
            (self.max_queue / self.max_batch) * self.max_delay_s,
        )

    # -- the flusher ---------------------------------------------------

    async def _run(self) -> None:
        while True:
            trigger = await self._wait_for_trigger()
            if trigger is None:
                return
            self._flush_one_batch(trigger)

    async def _wait_for_trigger(self) -> Optional[str]:
        """Sleep until :func:`next_cut` says cut; the trigger's name,
        or ``None`` once stopped with nothing left to flush."""
        while True:
            if self._closed:
                return "stop" if self._queue else None
            if self._bytes_full():
                return "full"
            now = self._clock()
            due, trigger = next_cut(
                len(self._queue),
                self._queue[0].enqueued if self._queue else now,
                self._bucket.ready_at(), now,
                max_batch=self.max_batch, max_delay_s=self.max_delay_s,
            )
            if due <= now:
                return trigger
            self._wakeup.clear()
            try:
                await asyncio.wait_for(
                    self._wakeup.wait(),
                    None if trigger is None else due - now,
                )
            except TimeoutError:
                return trigger

    def _flush_one_batch(self, trigger: str) -> None:
        batch: list[_Pending] = []
        budget = self.max_batch_bytes
        while (self._queue and len(batch) < self.max_batch
               and (not batch or self._queue[0].size <= budget)):
            budget -= self._queue[0].size
            batch.append(self._popleft())
        # Spent whether or not the chain takes the batch: a refused
        # block costs what an accepted one does.
        now = self._clock()
        self._bucket.admit(now)
        oldest_wait_ms = (now - batch[0].enqueued) * 1000.0
        try:
            block, outcomes = self._append([entry.tx for entry in batch])
        except Exception as exc:  # the chain refused the whole batch
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            return
        self.cuts[trigger] += 1
        self.txs_batched += len(batch)
        if self._on_flush is not None:
            self._on_flush(len(batch), oldest_wait_ms, trigger)
        for index, entry in enumerate(batch):
            if entry.future.done():
                continue
            outcome = outcomes[index]
            entry.future.set_result(SubmitResult(
                block_hash=block.hash,
                index=index,
                applied=outcome.applied,
                reason=outcome.reason,
                batch_size=len(batch),
                queued_ms=(now - entry.enqueued) * 1000.0,
            ))

    def summary(self) -> dict:
        return {
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            "max_batch_bytes": self.max_batch_bytes,
            "max_delay_ms": self.max_delay_s * 1000.0,
            "batches": self.batches_flushed,
            "cuts": dict(self.cuts),
            "txs_batched": self.txs_batched,
            "txs_shed": self.txs_shed,
        }
