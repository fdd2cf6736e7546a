"""TxBatcher: size/hold-off triggers, shed-oldest, clean shutdown."""

import asyncio
import math
import time

import pytest

from repro.chain.block import MAX_TRANSACTIONS, Transaction
from repro.gateway.batching import (
    BatcherClosed,
    ShedError,
    TxBatcher,
    next_cut,
)


class FakeOutcome:
    def __init__(self, applied=True, reason=None):
        self.applied = applied
        self.reason = reason


class FakeChain:
    """Records batches and hands back fake blocks/outcomes."""

    def __init__(self):
        self.batches: list[list[Transaction]] = []
        self.fail_with: Exception | None = None

    def append(self, txs):
        if self.fail_with is not None:
            raise self.fail_with
        txs = list(txs)
        self.batches.append(txs)

        class FakeBlock:
            hash = f"block-{len(self.batches)}"

        return FakeBlock(), [FakeOutcome() for _ in txs]


def tx(tag: str) -> Transaction:
    return Transaction("ledger", "append", [tag])


def cuts(**counts) -> dict:
    """A full ``TxBatcher.cuts`` table with *counts* set."""
    return dict(idle=0, hold_off=0, full=0, stop=0) | counts


class TestRule:
    """``next_cut`` with max_batch=4, max_delay_s=10: when, and why."""

    @pytest.mark.parametrize(
        "queued, oldest, last_cut, now, expected",
        [
            # Idle: no cut in the 10 s before the arrival -> at once.
            (1, 100.0, -math.inf, 100.0, (100.0, "idle")),
            (1, 100.0, 90.0, 100.0, (100.0, "idle")),
            (3, 100.0, 50.0, 104.0, (104.0, "idle")),
            # Inside a hold-off: its end, not own arrival + 10.
            (1, 100.0, 95.0, 100.0, (105.0, "hold_off")),
            (2, 100.0, 99.0, 103.0, (109.0, "hold_off")),
            (1, 100.0, 95.0, 105.0, (105.0, "hold_off")),
            (1, 100.0, 95.0, 107.0, (107.0, "hold_off")),  # timer ran late
            # Left behind by a full cut: its own 10 s still bounds it.
            (1, 100.0, 103.0, 104.0, (110.0, "hold_off")),
            # Full: now, whatever the hold-off.
            (4, 100.0, 99.9, 100.0, (100.0, "full")),
            (9, 100.0, -math.inf, 100.0, (100.0, "full")),
            # Empty: never.
            (0, 100.0, 95.0, 100.0, (math.inf, None)),
        ],
    )
    def test_table(self, queued, oldest, last_cut, now, expected):
        assert next_cut(
            queued, oldest, last_cut, now, max_batch=4, max_delay_s=10.0
        ) == expected


class TestTriggers:
    def test_size_trigger_cuts_full_batches(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_batch=3, max_delay_s=60.0)
            await batcher.start()
            futures = [batcher.submit(tx(f"t{i}")) for i in range(3)]
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            await batcher.stop()
            return chain, results

        chain, results = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [3]
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.batch_size == 3 and r.applied for r in results)

    def test_deadline_trigger_flushes_partial_batch(self):
        # The deadline is a hold-off between cuts: the opener finds the
        # batcher idle and is cut alone, at once; what arrives inside
        # the hold-off it started is flushed, partial, at its end.
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(
                chain.append, max_batch=100, max_delay_s=0.05
            )
            await batcher.start()
            opener = await asyncio.wait_for(
                batcher.submit(tx("opener")), timeout=5.0
            )
            opened = batcher._last_cut
            results = await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit(tx("a")), batcher.submit(tx("b"))
                ),
                timeout=5.0,
            )
            gap = batcher._last_cut - opened
            await batcher.stop()
            return chain, batcher, opener, results, gap

        chain, batcher, opener, results, gap = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [1, 2]
        assert opener.batch_size == 1
        assert [r.batch_size for r in results] == [2, 2]
        assert all(0 <= r.queued_ms for r in results)
        assert gap >= 0.05 - 1e-6
        assert batcher.cuts == cuts(idle=1, hold_off=1)

    def test_lone_submit_is_cut_at_once(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_delay_s=5.0)
            await batcher.start()
            began = time.monotonic()
            result = await asyncio.wait_for(
                batcher.submit(tx("lonely")), timeout=4.0
            )
            elapsed = time.monotonic() - began
            summary = batcher.summary()
            # Leave no 5 s hold-off between this test and its teardown.
            await batcher.stop()
            return result, elapsed, summary

        result, elapsed, summary = asyncio.run(scenario())
        assert elapsed < 1.0
        assert result.batch_size == 1 and result.queued_ms < 1000.0
        assert summary["cuts"] == cuts(idle=1)

    def test_drip_keeps_both_promises(self):
        # Submits arriving faster than the hold-off: partial cuts are
        # never closer than max_delay_s, and nobody waits longer than
        # max_delay_s for one (plus what a loaded event loop adds: the
        # slack below is for the timer, the rule itself is exact).
        delay = 0.05

        async def scenario():
            chain = FakeChain()
            cut_times = []

            def append(txs):
                cut_times.append(batcher._last_cut)
                return chain.append(txs)

            batcher = TxBatcher(append, max_batch=1000, max_delay_s=delay)
            await batcher.start()
            futures = []
            for i in range(60):
                futures.append(batcher.submit(tx(f"d{i}")))
                await asyncio.sleep(0.004)
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            await batcher.stop()
            return batcher, cut_times, results

        batcher, cut_times, results = asyncio.run(scenario())
        assert batcher.cuts["full"] == 0 and batcher.cuts["stop"] == 0
        assert batcher.cuts["idle"] == 1  # only the very first
        assert len(cut_times) >= 4
        gaps = [b - a for a, b in zip(cut_times, cut_times[1:])]
        assert min(gaps) >= delay - 1e-6
        assert max(r.queued_ms for r in results) <= 2 * delay * 1000.0

    def test_submits_inside_a_hold_off_do_not_wake_the_flusher(self):
        class CountingEvent(asyncio.Event):
            waits = 0

            def wait(self):
                self.waits += 1
                return super().wait()

        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_batch=1000,
                                max_delay_s=0.1)
            await batcher.start()
            # The flusher task has not run yet: it will wait on this one.
            batcher._wakeup = wakeup = CountingEvent()
            await batcher.submit(tx("opener"))  # starts the hold-off
            await asyncio.sleep(0)  # the flusher is back in its wait
            before = wakeup.waits
            futures = []
            for i in range(100):
                futures.append(batcher.submit(tx(f"t{i}")))
                await asyncio.sleep(0)  # give the flusher every chance
            await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
            await batcher.stop()
            return chain, wakeup.waits - before

        chain, waits = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [1, 100]
        # One pass to sleep out the hold-off, one to go back to idle.
        assert waits <= 2

    def test_submissions_during_flush_form_next_batch(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_batch=2, max_delay_s=0.01)
            await batcher.start()
            first = [batcher.submit(tx("a")), batcher.submit(tx("b"))]
            await asyncio.gather(*first)
            second = batcher.submit(tx("c"))
            await second
            await batcher.stop()
            return chain

        chain = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [2, 1]
        assert chain.batches[1][0].args == ["c"]


class TestBackpressure:
    def test_overflow_sheds_oldest_with_retry_after(self):
        async def scenario():
            chain = FakeChain()
            shed_counts = []
            batcher = TxBatcher(
                chain.append, max_batch=4, max_queue=4, max_delay_s=60.0,
                on_shed=shed_counts.append,
            )
            await batcher.start()
            # Five synchronous submits: no await between them, so the
            # flusher cannot drain — the fifth must shed the first.
            futures = [batcher.submit(tx(f"t{i}")) for i in range(5)]
            with pytest.raises(ShedError) as excinfo:
                await asyncio.wait_for(futures[0], timeout=5.0)
            rest = await asyncio.wait_for(
                asyncio.gather(*futures[1:]), timeout=5.0
            )
            await batcher.stop()
            return chain, excinfo.value, rest, shed_counts, batcher

        chain, shed_exc, rest, shed_counts, batcher = asyncio.run(scenario())
        assert shed_exc.retry_after_s > 0
        assert batcher.txs_shed == 1
        assert shed_counts == [1]
        # The survivors flush in arrival order, without the shed one.
        assert [t.args for t in chain.batches[0]] == [
            ["t1"], ["t2"], ["t3"], ["t4"]
        ]
        assert all(r.applied for r in rest)

    def test_append_failure_fails_the_whole_batch(self):
        async def scenario():
            chain = FakeChain()
            chain.fail_with = RuntimeError("chain refused")
            batcher = TxBatcher(chain.append, max_batch=2, max_delay_s=0.01)
            await batcher.start()
            future = batcher.submit(tx("doomed"))
            with pytest.raises(RuntimeError, match="chain refused"):
                await asyncio.wait_for(future, timeout=5.0)
            await batcher.stop()

        asyncio.run(scenario())

    def test_refused_batch_still_starts_a_hold_off(self):
        async def scenario():
            chain = FakeChain()
            chain.fail_with = RuntimeError("chain refused")
            batcher = TxBatcher(chain.append, max_delay_s=0.05)
            await batcher.start()
            with pytest.raises(RuntimeError, match="chain refused"):
                await asyncio.wait_for(
                    batcher.submit(tx("doomed")), timeout=5.0
                )
            refused_at = batcher._last_cut
            chain.fail_with = None
            await asyncio.wait_for(batcher.submit(tx("next")), timeout=5.0)
            gap = batcher._last_cut - refused_at
            await batcher.stop()
            return batcher, gap

        batcher, gap = asyncio.run(scenario())
        assert gap >= 0.05 - 1e-6
        # Only blocks count: the refused batch cut nothing.
        assert batcher.cuts == cuts(hold_off=1)
        assert batcher.batches_flushed == 1


class TestLifecycle:
    def test_stop_flushes_then_refuses(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(
                chain.append, max_batch=100, max_delay_s=60.0
            )
            await batcher.start()
            pending = batcher.submit(tx("in-flight"))
            await batcher.stop()  # flushes the partial batch
            result = await pending
            late = batcher.submit(tx("too-late"))
            with pytest.raises(BatcherClosed):
                await late
            return chain, result

        chain, result = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [1]
        assert result.applied

    def test_stop_is_idempotent_and_leaks_no_tasks(self):
        async def scenario():
            baseline = len(asyncio.all_tasks())
            chain = FakeChain()
            batcher = TxBatcher(chain.append)
            await batcher.start()
            await batcher.submit(tx("x"))
            await batcher.stop()
            await batcher.stop()
            assert len(asyncio.all_tasks()) == baseline

        asyncio.run(scenario())

    def test_restart_after_stop(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_delay_s=0.01)
            await batcher.start()
            await batcher.submit(tx("first"))
            await batcher.stop()
            await batcher.start()
            await batcher.submit(tx("second"))
            await batcher.stop()
            return chain

        chain = asyncio.run(scenario())
        assert len(chain.batches) == 2

    def test_stop_flushes_a_held_batch_and_a_restart_is_idle(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_delay_s=5.0)
            await batcher.start()
            await batcher.submit(tx("opener"))
            held = batcher.submit(tx("held"))  # 5 s of hold-off ahead
            await asyncio.sleep(0.01)
            assert not held.done()
            await batcher.stop()
            assert held.done() and held.result().applied
            # The old life's hold-off does not reach into the new one.
            await batcher.start()
            began = time.monotonic()
            await asyncio.wait_for(batcher.submit(tx("again")), timeout=4.0)
            elapsed = time.monotonic() - began
            await batcher.stop()
            return chain, batcher, elapsed

        chain, batcher, elapsed = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [1, 1, 1]
        assert elapsed < 1.0
        assert batcher.cuts == cuts(idle=2, stop=1)

    def test_summary_counts(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_batch=2, max_delay_s=0.01)
            await batcher.start()
            await asyncio.gather(
                batcher.submit(tx("a")), batcher.submit(tx("b"))
            )
            summary = batcher.summary()
            await batcher.stop()
            return summary

        summary = asyncio.run(scenario())
        assert summary["batches"] == 1
        assert summary["cuts"] == cuts(full=1)
        assert summary["txs_batched"] == 2
        assert summary["txs_shed"] == 0
        assert summary["queue_depth"] == 0


class TestValidation:
    def test_rejects_bad_configuration(self):
        chain = FakeChain()
        with pytest.raises(ValueError):
            TxBatcher(chain.append, max_batch=0)
        with pytest.raises(ValueError):
            TxBatcher(chain.append, max_batch=MAX_TRANSACTIONS + 1)
        with pytest.raises(ValueError):
            TxBatcher(chain.append, max_batch=8, max_queue=4)
        with pytest.raises(ValueError):
            TxBatcher(chain.append, max_delay_s=0.0)
