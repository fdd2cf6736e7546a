"""TxBatcher: size/rate triggers, shed-oldest, clean shutdown."""

import asyncio
import math
import time

import pytest

from repro import wire
from repro.chain.block import (
    MAX_BLOCK_BYTES,
    MAX_TRANSACTIONS,
    Block,
    Transaction,
)
from repro.crypto.keys import KeyPair
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
    """``next_cut`` with max_batch=4, max_delay_s=10: when, and why.

    The third column is when the cut-rate bucket holds a token."""

    @pytest.mark.parametrize(
        "queued, oldest, token_at, now, expected",
        [
            # A token was there when the oldest arrived -> at once,
            # however recently the previous cut was.
            (1, 100.0, -math.inf, 100.0, (100.0, "idle")),
            (1, 100.0, 90.0, 100.0, (100.0, "idle")),
            (3, 100.0, 50.0, 104.0, (104.0, "idle")),
            (1, 100.0, 95.0, 100.0, (100.0, "idle")),
            (2, 100.0, 99.0, 103.0, (103.0, "idle")),
            (1, 100.0, 95.0, 105.0, (105.0, "idle")),
            (1, 100.0, 95.0, 107.0, (107.0, "idle")),
            # It arrived to an empty bucket: the token came later.
            (1, 100.0, 103.0, 104.0, (104.0, "hold_off")),
            # Full: now, token or not.
            (4, 100.0, 99.9, 100.0, (100.0, "full")),
            (9, 100.0, -math.inf, 100.0, (100.0, "full")),
            # Empty: never.
            (0, 100.0, 95.0, 100.0, (math.inf, None)),
            # An empty bucket: the next token, not own arrival + 10.
            (1, 100.0, 105.0, 100.0, (105.0, "hold_off")),
            (2, 100.0, 109.0, 103.0, (109.0, "hold_off")),
            (1, 100.0, 105.0, 107.0, (107.0, "hold_off")),  # timer ran late
            # Left behind by a full cut: its own 10 s still bounds it.
            (1, 100.0, 113.0, 104.0, (110.0, "hold_off")),
            (4, 100.0, 120.0, 100.0, (100.0, "full")),
        ],
    )
    def test_table(self, queued, oldest, token_at, now, expected):
        assert next_cut(
            queued, oldest, token_at, now, max_batch=4, max_delay_s=10.0
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
        # The deadline is a rate: 1 / max_delay_s cuts a second, with a
        # burst of max(1, 1 / max_delay_s).  The openers find tokens and
        # are cut alone, at once; once they have emptied the bucket,
        # what arrives waits for the next token and is flushed, partial,
        # when it comes.
        delay = 0.5  # 2 tokens a second, a burst of 2

        async def scenario():
            chain = FakeChain()
            cut_times = []

            def append(txs):
                cut_times.append(time.monotonic())
                return chain.append(txs)

            batcher = TxBatcher(append, max_batch=100, max_delay_s=delay)
            await batcher.start()
            openers = [
                await asyncio.wait_for(
                    batcher.submit(tx(f"opener{i}")), timeout=5.0
                )
                for i in range(2)
            ]
            token_at = batcher._bucket.ready_at()
            results = await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit(tx("a")), batcher.submit(tx("b"))
                ),
                timeout=5.0,
            )
            await batcher.stop()
            return chain, batcher, openers, results, cut_times, token_at

        chain, batcher, openers, results, cut_times, token_at = (
            asyncio.run(scenario())
        )
        assert [len(batch) for batch in chain.batches] == [1, 1, 2]
        assert [r.batch_size for r in openers] == [1, 1]
        assert [r.batch_size for r in results] == [2, 2]
        assert cut_times[-1] >= token_at - 1e-6
        assert all(0 < r.queued_ms <= 2 * delay * 1000.0 for r in results)
        assert batcher.cuts == cuts(idle=2, hold_off=1)

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
            # Leave no 5 s wait between this test and its teardown.
            await batcher.stop()
            return result, elapsed, summary

        result, elapsed, summary = asyncio.run(scenario())
        assert elapsed < 1.0
        assert result.batch_size == 1 and result.queued_ms < 1000.0
        assert summary["cuts"] == cuts(idle=1)

    def test_drip_keeps_both_promises(self):
        # Submits arriving faster than the rate: the burst goes first,
        # one transaction a block and at once, and from then on every
        # cut waits for the rate; nobody waits longer than max_delay_s
        # for one (plus what a loaded event loop adds: the slack below
        # is for the timer, the rule itself is exact).
        delay = 0.05  # 20 tokens a second, a burst of 20

        async def scenario():
            flushed = []
            batcher = TxBatcher(
                FakeChain().append, max_batch=1000, max_delay_s=delay,
                on_flush=lambda size, _, trigger: flushed.append(
                    (size, trigger)
                ),
            )
            await batcher.start()
            futures = []
            for i in range(60):
                futures.append(batcher.submit(tx(f"d{i}")))
                await asyncio.sleep(0.004)
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            await batcher.stop()
            return batcher, flushed, results

        batcher, flushed, results = asyncio.run(scenario())
        assert batcher.cuts["full"] == 0 and batcher.cuts["stop"] == 0
        idle = batcher.cuts["idle"]
        assert idle >= 20  # the burst, and what refilled meanwhile
        assert batcher.cuts["hold_off"] >= 2
        assert flushed[:idle] == [(1, "idle")] * idle
        assert all(trigger == "hold_off" for _, trigger in flushed[idle:])
        assert max(r.queued_ms for r in results) <= 2 * delay * 1000.0

    def test_drip_under_the_rate_is_never_held(self):
        # Twenty a second against a rate of forty, in pairs 5 ms apart
        # (the shape of a Poisson drip's short gaps): each transaction
        # finds a token and is cut alone, at once, however short the
        # gap since the previous cut.
        delay = 0.025

        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_batch=1000,
                                max_delay_s=delay)
            await batcher.start()
            futures = []
            for i in range(30):
                futures.append(batcher.submit(tx(f"d{i}")))
                await asyncio.sleep(0.005 if i % 2 == 0 else 0.095)
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            await batcher.stop()
            return chain, batcher, results

        chain, batcher, results = asyncio.run(scenario())
        assert batcher.cuts == cuts(idle=30)
        assert [len(batch) for batch in chain.batches] == [1] * 30
        assert max(r.queued_ms for r in results) < delay * 1000.0 / 2

    def test_load_above_the_rate_keeps_both_bounds(self):
        # 250 a second against a rate of twenty: in a window of T
        # seconds the partial cuts number at most burst + T / delay,
        # and nobody waits longer than max_delay_s for one (with the
        # timer's slack).
        delay = 0.05  # 20 tokens a second, a burst of 20

        async def scenario():
            chain = FakeChain()
            cut_times = []

            def append(txs):
                cut_times.append(time.monotonic())
                return chain.append(txs)

            batcher = TxBatcher(append, max_batch=1000, max_delay_s=delay)
            began = time.monotonic()
            await batcher.start()
            futures = []
            for i in range(150):
                futures.append(batcher.submit(tx(f"l{i}")))
                await asyncio.sleep(0.004)
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            await batcher.stop()
            return batcher, cut_times, results, began

        batcher, cut_times, results, began = asyncio.run(scenario())
        assert batcher.cuts["full"] == 0 and batcher.cuts["stop"] == 0
        assert batcher.cuts["hold_off"] > 0  # the rate held some
        window = cut_times[-1] - began
        assert len(cut_times) <= 1 / delay + window / delay
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
                                max_delay_s=0.25)  # a burst of 4
            await batcher.start()
            # The flusher task has not run yet: it will wait on this one.
            batcher._wakeup = wakeup = CountingEvent()
            for i in range(4):  # empty the bucket
                await batcher.submit(tx(f"opener{i}"))
            await asyncio.sleep(0)  # the flusher is back in its wait
            before = wakeup.waits
            futures = []
            for i in range(100):
                futures.append(batcher.submit(tx(f"t{i}")))
                await asyncio.sleep(0)  # give the flusher every chance
            await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
            await batcher.stop()
            return chain, batcher, wakeup.waits - before

        chain, batcher, waits = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [1] * 4 + [100]
        assert batcher.cuts == cuts(idle=4, hold_off=1)
        # One pass to wait for the token, one to go back to idle.
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
            batcher = TxBatcher(chain.append, max_delay_s=0.25)
            await batcher.start()
            for i in range(4):  # the whole burst, each one refused
                with pytest.raises(RuntimeError, match="chain refused"):
                    await asyncio.wait_for(
                        batcher.submit(tx(f"doomed{i}")), timeout=5.0
                    )
            token_at = batcher._bucket.ready_at()
            chain.fail_with = None
            result = await asyncio.wait_for(
                batcher.submit(tx("next")), timeout=5.0
            )
            cut_at = time.monotonic()
            await batcher.stop()
            return batcher, result, token_at, cut_at

        batcher, result, token_at, cut_at = asyncio.run(scenario())
        # A refused block spends its token like an accepted one: the
        # next transaction waits for the rate.
        assert cut_at >= token_at - 1e-6
        assert 0 < result.queued_ms <= 2 * 250.0
        # Only blocks count: the refused batches cut nothing.
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

    def test_a_slow_rate_still_holds_one_token(self):
        # The burst is max(1, 1 / max_delay_s): at 5 s and 30 s a lone
        # transaction is cut at once, and only the next one is held.
        async def scenario(delay):
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_delay_s=delay)
            await batcher.start()
            began = time.monotonic()
            lone = await asyncio.wait_for(
                batcher.submit(tx("lonely")), timeout=1.0
            )
            elapsed = time.monotonic() - began
            held = batcher.submit(tx("held"))
            await asyncio.sleep(0.01)
            was_held = not held.done()
            await batcher.stop()  # leave no wait behind
            return lone, elapsed, was_held, batcher.cuts

        for delay in (5.0, 30.0):
            lone, elapsed, was_held, counts = asyncio.run(scenario(delay))
            assert elapsed < 1.0 and lone.queued_ms < 1000.0
            assert was_held
            assert counts == cuts(idle=1, stop=1)

    def test_stop_flushes_a_held_batch_and_a_restart_is_idle(self):
        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_delay_s=5.0)
            await batcher.start()
            await batcher.submit(tx("opener"))
            held = batcher.submit(tx("held"))  # 5 s to the next token
            await asyncio.sleep(0.01)
            assert not held.done()
            await batcher.stop()
            assert held.done() and held.result().applied
            # The old life's empty bucket does not reach into the new one.
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


class TestByteBudget:
    """A batch closes before its block would outgrow what can travel."""

    def test_bytes_over_the_budget_cut_a_batch_at_once(self):
        size = wire.encoded_size(tx("t0").to_wire())

        async def scenario():
            chain = FakeChain()
            batcher = TxBatcher(chain.append, max_batch=10, max_delay_s=60.0)
            batcher.max_batch_bytes = 2 * size + size // 2
            await batcher.start()
            await batcher.submit(tx("opener"))  # spends the one token
            futures = [batcher.submit(tx(f"t{i}")) for i in range(3)]
            # Two fit the budget, the third crosses it: the first two
            # are a full batch now, not in 60 s.
            await asyncio.wait_for(
                asyncio.gather(*futures[:2]), timeout=5.0
            )
            cut = dict(batcher.cuts)
            await batcher.stop()
            await futures[2]
            return chain, cut, batcher.queue_depth

        chain, cut, depth = asyncio.run(scenario())
        assert [len(batch) for batch in chain.batches] == [1, 2, 1]
        assert cut == cuts(idle=1, full=1)
        assert depth == 0

    def test_a_transaction_over_the_budget_is_refused(self):
        async def scenario():
            batcher = TxBatcher(FakeChain().append)
            batcher.max_batch_bytes = 10
            await batcher.start()
            try:
                with pytest.raises(ValueError, match="batch budget"):
                    batcher.submit(tx("longer than ten bytes"))
                return batcher.queue_depth
            finally:
                await batcher.stop()

        assert asyncio.run(scenario()) == 0

    def test_seventeen_megabytes_become_blocks_that_fit(self):
        """The default budget, on real blocks: 17 transactions of a
        million characters each are one block of 16 and one of 1."""
        key = KeyPair.deterministic(62)
        blocks = []

        def append(txs):
            blocks.append(Block.create(key, [], 1, txs))
            return blocks[-1], [FakeOutcome() for _ in txs]

        async def scenario():
            batcher = TxBatcher(append, max_delay_s=0.01)
            await batcher.start()
            big = "x" * 1_000_000
            futures = [batcher.submit(Transaction("ledger", "append", [big]))
                       for _ in range(17)]
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=10.0
            )
            await batcher.stop()
            return results

        results = asyncio.run(scenario())
        assert [len(block.transactions) for block in blocks] == [16, 1]
        assert all(block.wire_size <= MAX_BLOCK_BYTES for block in blocks)
        assert [r.batch_size for r in results] == [16] * 16 + [1]


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
